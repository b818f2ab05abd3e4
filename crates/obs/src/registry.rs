//! The named-metric registry: register once (a lock), record forever
//! (atomics on the returned `Arc` handle), render on demand.
//!
//! # Naming
//!
//! Names are Prometheus-style: a bare base (`avt_requests_total`) or a
//! base plus a label set (`avt_stage_us{op="core",stage="queue"}`). The
//! full string is the registry key; rendering splits it so `# TYPE`
//! lines appear once per base and histogram quantile series can splice a
//! `quantile` label into the set.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::Histogram;

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(std::sync::atomic::AtomicU64);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// One registered metric, by kind.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// A log-bucketed histogram.
    Histogram(Arc<Histogram>),
}

/// The registry: a name → metric table. Registration is idempotent —
/// asking for an existing name returns the existing handle, so hot paths
/// can resolve handles once at startup and share them.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry, for metrics no narrower owner reports
    /// (the serving stack's span stages).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, registering it on first use. A name
    /// already registered as a different kind yields a detached handle
    /// (recorded values go nowhere) rather than a panic — a name
    /// collision is a bug, but not one worth crashing a server over.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::default()),
        }
    }

    /// The histogram named `name`, registering it on first use (same
    /// collision policy as [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// All registered metrics, by name (a point-in-time clone of the
    /// handle table; values are read when the caller reads them).
    pub fn metrics(&self) -> Vec<(String, Metric)> {
        self.lock().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Prometheus-style text exposition of the whole registry: counters
    /// as single samples, histograms as summaries (`quantile`
    /// series plus `_count` and `_sum`). Deterministic order (sorted by
    /// name), one trailing newline per line.
    pub fn render(&self) -> String {
        let metrics = self.metrics();
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for (name, metric) in &metrics {
            let (base, labels) = split_name(name);
            if typed.insert(base.to_string()) {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Histogram(_) => "summary",
                };
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    for (q, p) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
                        if let Some(v) = s.percentile(p) {
                            let series = with_label(base, labels, &format!("quantile=\"{q}\""));
                            out.push_str(&format!("{series} {v}\n"));
                        }
                    }
                    let count = labeled(&format!("{base}_count"), labels);
                    let sum = labeled(&format!("{base}_sum"), labels);
                    out.push_str(&format!("{count} {}\n", s.count()));
                    out.push_str(&format!("{sum} {}\n", s.sum));
                }
            }
        }
        out
    }
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().expect("metric registry lock poisoned")
    }
}

/// Split `avt_x{a="b"}` into (`avt_x`, `a="b"`); a bare name has empty
/// labels.
fn split_name(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// `base{labels}`, or bare `base` when `labels` is empty.
fn labeled(base: &str, labels: &str) -> String {
    if labels.is_empty() {
        base.to_string()
    } else {
        format!("{base}{{{labels}}}")
    }
}

/// `base{labels,extra}` with the comma elided when `labels` is empty.
fn with_label(base: &str, labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{base}{{{extra}}}")
    } else {
        format!("{base}{{{labels},{extra}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_persistent() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("hits").get(), 3);
        assert_eq!(r.metrics().len(), 1);
    }

    #[test]
    fn kind_collisions_yield_detached_handles() {
        let r = Registry::new();
        r.counter("x").inc();
        // Asking for `x` as a histogram must not clobber the counter.
        r.histogram("x").record(99);
        assert_eq!(r.counter("x").get(), 1);
        assert!(r.render().contains("x 1\n"));
    }

    #[test]
    fn render_is_deterministic_prometheus_text() {
        let r = Registry::new();
        r.counter("avt_requests_total").add(7);
        let h = r.histogram("avt_stage_us{op=\"core\",stage=\"queue\"}");
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = r.render();
        assert!(text.contains("# TYPE avt_requests_total counter\n"));
        assert!(text.contains("avt_requests_total 7\n"));
        assert!(text.contains("# TYPE avt_stage_us summary\n"));
        assert!(text.contains("avt_stage_us{op=\"core\",stage=\"queue\",quantile=\"0.5\"}"));
        assert!(text.contains("avt_stage_us_count{op=\"core\",stage=\"queue\"} 100\n"));
        assert!(text.contains("avt_stage_us_sum{op=\"core\",stage=\"queue\"} 5050\n"));
        // Deterministic: two renders are byte-identical.
        assert_eq!(text, r.render());
    }

    #[test]
    fn empty_histograms_render_count_zero_and_no_quantiles() {
        let r = Registry::new();
        r.histogram("quiet_us");
        let text = r.render();
        assert!(text.contains("quiet_us_count 0\n"));
        assert!(!text.contains("quantile"));
    }
}
