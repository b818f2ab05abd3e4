//! `avt-obs`: the unified telemetry layer for the AVT serving stack.
//!
//! Three pieces, layered exactly like the serving stack consumes them:
//!
//! 1. **[`Registry`]** — a table of named [`Counter`]s and log-bucketed
//!    [`Histogram`]s. Registration takes a lock once; the returned `Arc`
//!    handles record with plain atomics, so the hot path never contends.
//!    A registry is scoped to whoever reports it — the serve layer keeps
//!    one per service and one per admission buffer, plus the
//!    process-wide [`Registry::global`]. Histograms are
//!    HDR-style (2 significance bits per octave): mergeable bucket-count
//!    snapshots with percentile error bounded at 25 % and *no* sampling
//!    window — unlike the fixed-slot rings they replaced, every sample
//!    counts.
//! 2. **[`Span`]** — one per request, threaded from codec decode through
//!    queue/execute and back out the encode path. [`Span::mark`] charges
//!    the time since the previous mark to a [`Stage`], so the stage sums
//!    can never exceed the span total by construction, and the
//!    queue-wait vs service time split falls out for free.
//! 3. **[`FlightRecorder`]** — a bounded overwrite-oldest ring of
//!    completed span records: every request slower than
//!    [`slow_threshold_us`] (10 ms unless [`set_slow_threshold_us`], as
//!    `avt-serve --slow-us` does, installs another), plus a reservoir
//!    sample of normal ones for contrast. Dumpable on demand (the serve
//!    layer's `TRACE n` verb) without stopping anything.
//!
//! There is no off switch: every sample is recorded, at a few relaxed
//! atomics apiece, and the slow threshold only decides which spans the
//! flight recorder keeps. The crate is std-only and dependency-free like
//! the rest of the workspace.

mod flight;
mod hist;
mod mode;
mod registry;
mod span;

pub use flight::FlightRecorder;
pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use mode::{set_slow_threshold_us, slow_threshold_us};
pub use registry::{Counter, Metric, Registry};
pub use span::{Span, SpanRecord, Stage, STAGE_COUNT};
