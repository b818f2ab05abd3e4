//! Request-lifecycle spans: one [`Span`] per request, marked at each
//! stage boundary as it moves decode → queue → execute → encode (and,
//! for writes, through admission staging and publish).
//!
//! [`Span::mark`] charges the time elapsed since the *previous* mark to
//! the named stage, so the per-stage sums can never exceed the span's
//! total wall time — the invariant `tests/prop_obs.rs` pins. The handle
//! is a cheap `Arc` clone: the connection keeps one end (it opens the
//! span at decode and closes it after encode) while the executor marks
//! the middle stages from a worker thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of lifecycle stages.
pub const STAGE_COUNT: usize = 6;

/// One stage of a request's life. Declaration order is pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wire bytes → request: framing and parsing on the front-end.
    Decode,
    /// Accepted by the executor, waiting for a worker (queue wait: time
    /// spent behind other work, not serving this request).
    Queue,
    /// Write path only: admission staging/folding inside the watermark
    /// buffer.
    Admit,
    /// Write path only: batch publish (frame derivation + K-order repair)
    /// into the timeline.
    Publish,
    /// Executor service time (for writes: whatever `run_job` spent
    /// outside admission).
    Execute,
    /// Reply delivery: completion hop back to the connection plus
    /// response encoding.
    Encode,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] =
        [Stage::Decode, Stage::Queue, Stage::Admit, Stage::Publish, Stage::Execute, Stage::Encode];

    /// Dense index (declaration order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lowercase stage name, as it appears in metric labels and `TRACE`
    /// output.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Queue => "queue",
            Stage::Admit => "admit",
            Stage::Publish => "publish",
            Stage::Execute => "execute",
            Stage::Encode => "encode",
        }
    }
}

struct SpanInner {
    label: &'static str,
    start: Instant,
    /// Nanoseconds from `start` to the most recent mark.
    last_ns: AtomicU64,
    stage_ns: [AtomicU64; STAGE_COUNT],
}

/// One request's lifecycle clock. Clones share state ([`Arc`] inside):
/// the front-end and the executor mark the same span from different
/// threads.
#[derive(Clone)]
pub struct Span {
    inner: Arc<SpanInner>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("label", &self.inner.label).finish()
    }
}

impl Span {
    /// Open a span for a request labeled `label` (the op's wire name),
    /// starting the clock now.
    pub fn begin(label: &'static str) -> Span {
        Span::begin_at(label, Instant::now())
    }

    /// Open a span whose clock started at `start` — the front-end passes
    /// the instant the request's first byte was seen, so an immediate
    /// [`Span::mark`]`(Stage::Decode)` charges the decode work that
    /// happened before the span object existed.
    pub fn begin_at(label: &'static str, start: Instant) -> Span {
        Span {
            inner: Arc::new(SpanInner {
                label,
                start,
                last_ns: AtomicU64::new(0),
                stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        }
    }

    /// The op label this span was opened with.
    pub fn label(&self) -> &'static str {
        self.inner.label
    }

    /// Charge the time since the previous mark (or since the start) to
    /// `stage`; returns the nanoseconds charged. Marks may come from any
    /// thread; concurrent marks split the elapsed time between them
    /// rather than double-charging it.
    pub fn mark(&self, stage: Stage) -> u64 {
        let now = self.inner.start.elapsed().as_nanos() as u64;
        let prev = self.inner.last_ns.swap(now, Ordering::Relaxed);
        let charged = now.saturating_sub(prev);
        self.inner.stage_ns[stage.index()].fetch_add(charged, Ordering::Relaxed);
        charged
    }

    /// Close the span: total wall time plus the per-stage breakdown.
    /// The total is clamped up to the stage sum so the `sums ≤ total`
    /// invariant holds even against timer quantization.
    pub fn finish(&self) -> SpanRecord {
        let stage_ns: [u64; STAGE_COUNT] =
            std::array::from_fn(|i| self.inner.stage_ns[i].load(Ordering::Relaxed));
        let elapsed = self.inner.start.elapsed().as_nanos() as u64;
        SpanRecord {
            label: self.inner.label,
            total_ns: elapsed.max(stage_ns.iter().sum()),
            stage_ns,
        }
    }
}

/// A closed span: what the flight recorder stores and `TRACE` dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The op's wire name.
    pub label: &'static str,
    /// Wall time from first byte to encoded reply, ns.
    pub total_ns: u64,
    /// Per-[`Stage`] ns, indexed by [`Stage::index`].
    pub stage_ns: [u64; STAGE_COUNT],
}

impl SpanRecord {
    /// Total in µs (integer).
    pub fn total_us(&self) -> u64 {
        self.total_ns / 1_000
    }

    /// The ns charged to `stage`.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sums_never_exceed_the_total() {
        let span = Span::begin("core");
        span.mark(Stage::Decode);
        std::thread::sleep(std::time::Duration::from_millis(2));
        span.mark(Stage::Queue);
        span.mark(Stage::Execute);
        span.mark(Stage::Encode);
        let rec = span.finish();
        let sum: u64 = rec.stage_ns.iter().sum();
        assert!(sum <= rec.total_ns, "stage sum {sum} > total {}", rec.total_ns);
        assert!(rec.stage(Stage::Queue) >= 2_000_000, "the sleep landed in queue");
        assert_eq!(rec.stage(Stage::Admit), 0);
        assert_eq!(rec.label, "core");
    }

    #[test]
    fn marks_from_a_clone_land_in_the_same_span() {
        let span = Span::begin("best");
        let clone = span.clone();
        std::thread::spawn(move || {
            clone.mark(Stage::Execute);
        })
        .join()
        .unwrap();
        let rec = span.finish();
        assert!(rec.stage(Stage::Execute) > 0);
    }

    #[test]
    fn begin_at_backdates_the_clock() {
        let early = Instant::now() - std::time::Duration::from_millis(5);
        let span = Span::begin_at("info", early);
        let decoded = span.mark(Stage::Decode);
        assert!(decoded >= 5_000_000, "decode charged from the backdated start, got {decoded}");
    }
}
