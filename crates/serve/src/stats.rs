//! Service counters and latency histograms: one store behind both
//! `STATS` and `METRICS`.
//!
//! Each [`ServiceStats`] owns an [`avt_obs::Registry`] holding the
//! request and error counters and one log-bucketed histogram per opcode
//! class ([`OpClass`]): a `BEST` call costs orders of magnitude more than
//! a `CORE` lookup, and a single mixed store would hide that skew. Every
//! completed request is recorded exactly once, with relaxed atomics.
//! `STATS` reads percentiles off histogram snapshots (the global ones off
//! their exact merge) and `METRICS` renders the same registry, so the two
//! verbs cannot disagree.
//!
//! Percentiles cover the service's lifetime and read as their bucket's
//! upper bound: never below the exact nearest-rank sample, at most 25 %
//! above it, and never above the observed maximum.

use std::sync::Arc;

use avt_obs::{Counter, Histogram, HistogramSnapshot, Registry};

use crate::protocol::{OpClass, OpLatency};

/// The books of one running service. Reads are point-in-time, not a
/// consistent snapshot — by design, reading stats must never stall the
/// serving path.
#[derive(Debug)]
pub struct ServiceStats {
    registry: Registry,
    /// `avt_requests_total`: every answered request, success or error.
    requests: Arc<Counter>,
    /// `avt_errors_total`: every error reply.
    errors: Arc<Counter>,
    /// `avt_request_us{op=…}`: executor service time, per opcode class.
    per_op: [Arc<Histogram>; OpClass::COUNT],
}

impl Default for ServiceStats {
    fn default() -> Self {
        let registry = Registry::new();
        ServiceStats {
            requests: registry.counter("avt_requests_total"),
            errors: registry.counter("avt_errors_total"),
            per_op: std::array::from_fn(|i| {
                let op = OpClass::ALL[i].wire_name();
                registry.histogram(&format!("avt_request_us{{op=\"{op}\"}}"))
            }),
            registry,
        }
    }
}

impl ServiceStats {
    /// Record one finished query of class `op`.
    pub fn record(&self, op: OpClass, ok: bool, micros: u64) {
        self.requests.inc();
        if !ok {
            self.errors.inc();
        }
        self.per_op[op.index()].record(micros);
    }

    /// Count a rejection that never reached the executor (a protocol parse
    /// failure): an error reply, but no latency sample, so garbage traffic
    /// cannot skew the percentiles.
    pub fn note_error(&self) {
        self.requests.inc();
        self.errors.inc();
    }

    /// Queries served successfully so far. The two counter reads may
    /// straddle a concurrent completion, which can skew this by the
    /// requests in flight — never below zero.
    pub fn served(&self) -> u64 {
        self.requests.get().saturating_sub(self.errors.get())
    }

    /// Queries rejected so far (bad arguments and protocol parse errors).
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Executor latencies of every query so far, all classes merged.
    pub fn latency(&self) -> HistogramSnapshot {
        let mut all = HistogramSnapshot::empty();
        for h in &self.per_op {
            all.merge(&h.snapshot());
        }
        all
    }

    /// One [`OpLatency`] per opcode class that has seen traffic, in
    /// [`OpClass::ALL`] order. Quiet classes are omitted so a young
    /// service reports a short list, not seven empty rows.
    pub fn per_op_latencies(&self) -> Vec<OpLatency> {
        OpClass::ALL
            .iter()
            .filter_map(|&op| {
                let s = self.per_op[op.index()].snapshot();
                let count = s.count();
                (count > 0).then(|| OpLatency {
                    op,
                    count,
                    p50_us: s.percentile(50.0),
                    p99_us: s.percentile(99.0),
                })
            })
            .collect()
    }

    /// The registry behind these books, as `METRICS` renders it.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counters_split_ok_and_errors() {
        let stats = ServiceStats::default();
        stats.record(OpClass::Core, true, 5);
        stats.record(OpClass::Core, true, 15);
        stats.record(OpClass::Best, false, 25);
        assert_eq!(stats.served(), 2);
        assert_eq!(stats.errors(), 1);
        assert_eq!(stats.latency().count(), 3);
        // A front-end rejection is an error with no latency sample.
        stats.note_error();
        assert_eq!((stats.served(), stats.errors()), (2, 2));
        assert_eq!(stats.latency().count(), 3);
    }

    #[test]
    fn per_op_histograms_expose_the_cost_skew() {
        let stats = ServiceStats::default();
        assert_eq!(stats.latency().percentile(50.0), None);
        for _ in 0..10 {
            stats.record(OpClass::Core, true, 3);
        }
        stats.record(OpClass::Best, true, 9_000);
        let per_op = stats.per_op_latencies();
        assert_eq!(per_op.len(), 2, "only classes with traffic appear");
        assert_eq!(per_op[0].op, OpClass::Core);
        assert_eq!(per_op[0].count, 10);
        assert_eq!(per_op[0].p50_us, Some(3));
        assert_eq!(per_op[1].op, OpClass::Best);
        assert_eq!(per_op[1].count, 1);
        assert_eq!(per_op[1].p99_us, Some(9_000));
        // The merged view mixes both; the per-op histograms keep them
        // apart.
        assert_eq!(stats.latency().percentile(50.0), Some(3));
        assert_eq!(stats.latency().percentile(99.0), Some(9_000));
    }

    #[test]
    fn percentiles_are_bucket_bounds_within_a_quarter() {
        let stats = ServiceStats::default();
        stats.record(OpClass::Spectrum, true, 0);
        assert_eq!(stats.latency().percentile(50.0), Some(0), "0 µs is a real sample");
        for v in 1..=100u64 {
            stats.record(OpClass::Spectrum, true, v);
        }
        let s = stats.latency();
        // Exact nearest-rank over 0..=100 gives p50 = 50 and p99 = 99.
        for (p, exact) in [(50.0, 50u64), (99.0, 99)] {
            let got = s.percentile(p).expect("nonempty");
            assert!(got >= exact && got <= exact + exact / 4, "p{p}: {got} vs exact {exact}");
        }
        assert_eq!(s.percentile(100.0), Some(100), "never above the observed max");
    }

    #[test]
    fn per_op_counts_are_lifetime_totals() {
        let stats = ServiceStats::default();
        for v in 0..4_096u64 {
            stats.record(OpClass::Spectrum, true, v);
        }
        let per_op = stats.per_op_latencies();
        assert_eq!(per_op[0].count, 4_096, "count is monotone, not windowed");
        // A window of recent samples would put p1 above 3 800.
        assert!(stats.latency().percentile(1.0).unwrap() < 64, "the oldest samples still count");
    }

    #[test]
    fn p99_of_three_samples_is_their_max() {
        // Low-count behaviour: the rank comes from the observed count (3),
        // and a bucket bound is clamped to the observed max, so a tail
        // percentile degrades to the max rather than overshooting it.
        let stats = ServiceStats::default();
        for v in [30, 10, 20] {
            stats.record(OpClass::Core, true, v);
        }
        assert_eq!(stats.per_op_latencies()[0].p99_us, Some(30));
        assert_eq!(stats.latency().percentile(99.0), Some(30));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let stats = std::sync::Arc::new(ServiceStats::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stats = std::sync::Arc::clone(&stats);
                scope.spawn(move || {
                    for i in 0..500 {
                        stats.record(OpClass::Core, i % 10 != 0, i);
                    }
                });
            }
        });
        assert_eq!(stats.served() + stats.errors(), 2000);
        assert_eq!(stats.errors(), 200);
        assert_eq!(stats.per_op_latencies()[0].count, 2000);
        assert_eq!(stats.latency().sum, 4 * (0..500u64).sum::<u64>());
    }
}
