//! `avt-obs`: the unified telemetry layer for the AVT serving stack.
//!
//! Three pieces, layered exactly like the serving stack consumes them:
//!
//! 1. **[`Registry`]** — a process-wide table of named [`Counter`]s,
//!    [`Gauge`]s, and log-bucketed [`Histogram`]s. Registration takes a
//!    lock once; the returned `Arc` handles record with plain atomics,
//!    so the hot path never contends. Histograms are HDR-style (2
//!    significance bits per octave): mergeable bucket-count snapshots
//!    with percentile error bounded at 25 % and *no* sampling window —
//!    unlike the fixed-slot rings they replace, every sample counts.
//! 2. **[`Span`]** — one per request, threaded from codec decode through
//!    queue/execute and back out the encode path. [`Span::mark`] charges
//!    the time since the previous mark to a [`Stage`], so the stage sums
//!    can never exceed the span total by construction, and the
//!    queue-wait vs service-time split falls out for free.
//! 3. **[`FlightRecorder`]** — a bounded overwrite-oldest ring of
//!    completed span records: every request slower than
//!    [`slow_threshold_us`] (`AVT_OBS_SLOW_US`), plus a reservoir sample
//!    of normal ones for contrast. Dumpable on demand (the serve layer's
//!    `TRACE n` verb) without stopping anything.
//!
//! Everything is behind the `AVT_OBS` runtime axis ([`obs_mode`]): `off`
//! (the default) records nothing and the serving stack's wire output is
//! byte-identical to the pre-telemetry release; `on` costs two atomic
//! bumps per stage. The crate is std-only and dependency-free like the
//! rest of the workspace.

mod flight;
mod hist;
mod mode;
mod registry;
mod span;

pub use flight::FlightRecorder;
pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use mode::{obs_mode, obs_on, set_obs_mode, set_slow_threshold_us, slow_threshold_us, ObsMode};
pub use registry::{Counter, Gauge, Metric, Registry};
pub use span::{Span, SpanRecord, Stage, STAGE_COUNT};
