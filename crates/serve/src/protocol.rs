//! The protocol *domain* types: what a client can ask and what the
//! service answers — independent of any wire format.
//!
//! [`Request`] and [`Response`] are plain enums; how they travel is the
//! business of a [`crate::codec::Codec`] implementation. Two ship with the
//! crate:
//!
//! * [`crate::codec::TextCodec`] — the newline-delimited text form
//!   (`CORE 3` → `OK core t=.. v=3 core=..`), so `nc localhost 7171` is a
//!   working client.
//! * [`crate::binary::BinaryCodec`] — length-prefixed binary frames with
//!   explicit request ids, the production format of the nonblocking
//!   front-end (pipelined requests, out-of-order replies).
//!
//! The request/response taxonomy:
//!
//! | Request | Response |
//! |---------|----------|
//! | `INFO` | epoch `t`, `n`, `m`, epochs published |
//! | `SPECTRUM` | shell histogram of the current epoch |
//! | `CORE v` | core number of `v` |
//! | `ANCHORED k anchors` | anchored k-core size + followers |
//! | `FOLLOWERS k v` | followers of one hypothetical anchor |
//! | `BEST k b greedy\|olak` | best-`b` anchors + followers + counters |
//! | `STATS` | service counters incl. per-opcode latency percentiles |
//! | `INGEST ts ins del` | admission verdict: accepted/folded/rejected + watermark |
//! | `METRICS` | the telemetry registry, Prometheus-style text |
//! | `TRACE n` | top-n flight-recorder entries with stage breakdowns |
//!
//! Every *per-epoch* response carries the epoch `t` it was answered at, so
//! a client interleaving queries with a running writer can tell which
//! snapshot each answer describes. `QUIT` (close this connection) and
//! `SHUTDOWN` (drain the whole service; acknowledged with [`Response::Bye`])
//! are connection-level verbs handled by the front-end, below the
//! [`Request`] level — codecs carry them, the executor never sees them.

use avt_graph::VertexId;

/// Hard cap on anchors per `ANCHORED` request and on `b` per `BEST`
/// request: queries cost O(b · candidates) anchored-decomposition work, and
/// a service must bound what one request can make it do.
pub const MAX_ANCHORS: usize = 64;

/// Hard cap on edge events (insertions plus deletions) per `INGEST`
/// request: one write must not stall the admission buffer — larger loads
/// split across requests sharing a timestamp, which the staging window
/// merges back into one epoch anyway.
pub const MAX_INGEST_EVENTS: usize = 4096;

/// Hard cap on entries per `TRACE` request: the flight recorder retains a
/// few hundred records, and a dump must stay one bounded frame.
pub const MAX_TRACE: usize = 256;

/// The per-snapshot solver a `BEST` request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BestAlgo {
    /// The paper's optimized Greedy (K-order pruning + order-based
    /// follower computation).
    Greedy,
    /// The OLAK baseline (no pruning, undirected shell search) — same
    /// answers, more probes; querying both exposes the paper's efficiency
    /// gap live.
    Olak,
}

impl BestAlgo {
    /// Lowercase wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            BestAlgo::Greedy => "greedy",
            BestAlgo::Olak => "olak",
        }
    }
}

/// The query taxonomy, one class per [`Request`] variant: the key for
/// per-opcode latency accounting (cheap `CORE` lookups and expensive
/// `BEST` solves must not share one percentile estimate) and the opcode
/// namespace of the binary framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// `INFO`.
    Info,
    /// `SPECTRUM`.
    Spectrum,
    /// `CORE`.
    Core,
    /// `ANCHORED`.
    Anchored,
    /// `FOLLOWERS`.
    Followers,
    /// `BEST`.
    Best,
    /// `STATS`.
    Stats,
    /// `INGEST` — external edge events routed through write admission.
    Ingest,
    /// `METRICS` — the telemetry registry, Prometheus-style text.
    Metrics,
    /// `TRACE` — top-n flight-recorder entries with stage breakdowns.
    Trace,
}

impl OpClass {
    /// Number of classes (array-index space).
    pub const COUNT: usize = 10;

    /// Every class, in index order. New classes append — the index is a
    /// wire artifact (the binary opcode is `index + 1`).
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Info,
        OpClass::Spectrum,
        OpClass::Core,
        OpClass::Anchored,
        OpClass::Followers,
        OpClass::Best,
        OpClass::Stats,
        OpClass::Ingest,
        OpClass::Metrics,
        OpClass::Trace,
    ];

    /// Dense index in `0..COUNT`, stable across releases (it is part of
    /// the binary stats payload).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`OpClass::index`].
    pub fn from_index(index: usize) -> Option<OpClass> {
        OpClass::ALL.get(index).copied()
    }

    /// Lowercase wire name (the text form's `ops=` key).
    pub fn wire_name(self) -> &'static str {
        match self {
            OpClass::Info => "info",
            OpClass::Spectrum => "spectrum",
            OpClass::Core => "core",
            OpClass::Anchored => "anchored",
            OpClass::Followers => "followers",
            OpClass::Best => "best",
            OpClass::Stats => "stats",
            OpClass::Ingest => "ingest",
            OpClass::Metrics => "metrics",
            OpClass::Trace => "trace",
        }
    }

    /// Inverse of [`OpClass::wire_name`].
    pub fn from_wire_name(name: &str) -> Option<OpClass> {
        OpClass::ALL.into_iter().find(|op| op.wire_name() == name)
    }
}

/// A query executed against the current epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Graph dimensions and epoch count.
    Info,
    /// Shell histogram of the current epoch.
    Spectrum,
    /// Core number of one vertex.
    Core(VertexId),
    /// Anchored k-core size and followers for an explicit anchor set.
    Anchored {
        /// Degree threshold.
        k: u32,
        /// The anchors to commit (≤ [`MAX_ANCHORS`]).
        anchors: Vec<VertexId>,
    },
    /// Followers of one hypothetical anchor.
    Followers {
        /// Degree threshold.
        k: u32,
        /// The anchor to evaluate.
        anchor: VertexId,
    },
    /// Best-`b` anchor selection on the current epoch.
    Best {
        /// Degree threshold.
        k: u32,
        /// Anchor budget (≤ [`MAX_ANCHORS`]).
        b: usize,
        /// Which solver to run.
        algo: BestAlgo,
    },
    /// Service counters.
    Stats,
    /// Edge events for the write path, stamped with a client timestamp.
    /// Admission stages them in the watermark buffer; they publish when
    /// the watermark passes their timestamp out of the lag window.
    Ingest {
        /// Event timestamp (the client's logical clock).
        ts: u64,
        /// Edges to insert, as `(u, v)` pairs.
        insertions: Vec<(VertexId, VertexId)>,
        /// Edges to delete, as `(u, v)` pairs.
        deletions: Vec<(VertexId, VertexId)>,
    },
    /// The telemetry registry, rendered as Prometheus-style text.
    Metrics,
    /// The top-n flight-recorder entries (slowest first).
    Trace {
        /// How many entries to return (≤ [`MAX_TRACE`]).
        n: u32,
    },
}

impl Request {
    /// The latency/opcode class of this request.
    pub fn op_class(&self) -> OpClass {
        match self {
            Request::Info => OpClass::Info,
            Request::Spectrum => OpClass::Spectrum,
            Request::Core(_) => OpClass::Core,
            Request::Anchored { .. } => OpClass::Anchored,
            Request::Followers { .. } => OpClass::Followers,
            Request::Best { .. } => OpClass::Best,
            Request::Stats => OpClass::Stats,
            Request::Ingest { .. } => OpClass::Ingest,
            Request::Metrics => OpClass::Metrics,
            Request::Trace { .. } => OpClass::Trace,
        }
    }
}

/// One flight-recorder entry as carried by [`Response::Trace`]: a slow
/// (or reservoir-sampled) request with its per-stage time breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The request's op class wire name (`best`, `ingest`, …).
    pub op: String,
    /// Total wall time from first byte to encoded reply, µs.
    pub total_us: u64,
    /// `(stage, µs)` pairs in pipeline order; stages that saw no time
    /// are omitted.
    pub stages: Vec<(String, u64)>,
}

/// Latency summary of one opcode class, as reported by `STATS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    /// Which request class.
    pub op: OpClass,
    /// Requests of this class executed so far.
    pub count: u64,
    /// p50 executor latency in µs (absent before the first sample).
    pub p50_us: Option<u64>,
    /// p99 executor latency in µs (absent before the first sample).
    pub p99_us: Option<u64>,
}

/// Writer-path counters carried by [`Response::Stats`] when the service
/// runs with write admission (the `INGEST` path). Absent on read-only
/// deployments, which also keeps the legacy text `STATS` line
/// byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriterStats {
    /// Batches published as epochs through admission.
    pub batches_applied: u64,
    /// Events accepted in order (at or past the watermark).
    pub events_accepted: u64,
    /// Straggler events folded into a later epoch (arrived behind the
    /// watermark but inside the lag window).
    pub events_folded: u64,
    /// Events rejected as stale (older than the lag window) — counted,
    /// never rewound.
    pub events_rejected: u64,
    /// Events dropped by the publish-time sanitizer (duplicate inserts,
    /// deletes of absent edges, self-loops, out-of-range endpoints).
    pub events_dropped: u64,
    /// The current watermark (highest event timestamp seen).
    pub watermark: u64,
    /// Watermark lag: how far the oldest staged timestamp trails the
    /// watermark (0 when nothing is staged).
    pub watermark_lag: u64,
    /// p50 epoch-publish latency in µs (absent before the first epoch).
    pub publish_p50_us: Option<u64>,
    /// p99 epoch-publish latency in µs (absent before the first epoch).
    pub publish_p99_us: Option<u64>,
}

/// A successful response. The server answers rejected requests with a
/// codec-level error message instead (`ERR <message>` in the text form,
/// an error frame in the binary form) — that is why executor verdicts are
/// `Result<Response, String>` throughout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to `INFO`.
    Info {
        /// Current epoch.
        t: usize,
        /// Vertex count.
        n: usize,
        /// Edge count at this epoch.
        m: usize,
        /// Epochs published so far.
        epochs: u64,
    },
    /// Reply to `SPECTRUM`.
    Spectrum {
        /// Current epoch.
        t: usize,
        /// `shells[c]` = number of vertices with core number exactly `c`.
        shells: Vec<usize>,
    },
    /// Reply to `CORE`.
    Core {
        /// Current epoch.
        t: usize,
        /// The queried vertex.
        v: VertexId,
        /// Its core number.
        core: u32,
    },
    /// Reply to `ANCHORED`.
    Anchored {
        /// Current epoch.
        t: usize,
        /// Degree threshold.
        k: u32,
        /// `|C_k(S)|`: core + anchors + followers.
        size: usize,
        /// The followers, ascending.
        followers: Vec<VertexId>,
    },
    /// Reply to `FOLLOWERS`.
    Followers {
        /// Current epoch.
        t: usize,
        /// Degree threshold.
        k: u32,
        /// The evaluated anchor.
        anchor: VertexId,
        /// Its followers, ascending.
        followers: Vec<VertexId>,
    },
    /// Reply to `BEST`.
    Best {
        /// Current epoch.
        t: usize,
        /// Degree threshold.
        k: u32,
        /// The solver that ran.
        algo: BestAlgo,
        /// Selected anchors, in commit order.
        anchors: Vec<VertexId>,
        /// Their followers, ascending.
        followers: Vec<VertexId>,
        /// Vertices visited answering this query.
        visited: u64,
        /// Candidates probed answering this query.
        probed: u64,
    },
    /// Reply to `STATS`.
    Stats {
        /// Epochs published so far.
        epochs: u64,
        /// Queries served (successes).
        served: u64,
        /// Queries rejected.
        errors: u64,
        /// p50 executor latency in µs, all classes (absent before the
        /// first query).
        p50_us: Option<u64>,
        /// p99 executor latency in µs, all classes (absent before the
        /// first query).
        p99_us: Option<u64>,
        /// Per-opcode latency summaries (classes with zero traffic are
        /// omitted), so cheap/expensive skew — a `BEST` head-of-line
        /// blocking `CORE` — is observable instead of averaged away.
        per_op: Vec<OpLatency>,
        /// Writer-path counters; `None` on services without write
        /// admission (keeps the legacy text line byte-identical).
        writer: Option<WriterStats>,
    },
    /// Reply to `INGEST`: the admission verdict for the submitted events.
    Ingest {
        /// Epochs published as of this reply.
        t: u64,
        /// Events staged in order (at or past the watermark).
        accepted: u64,
        /// Straggler events folded into the staged window.
        folded: u64,
        /// Events rejected as older than the lag window.
        rejected: u64,
        /// The watermark after this request.
        watermark: u64,
    },
    /// Reply to `METRICS`: the service's registry, its admission
    /// buffer's when one is attached, then the process-wide one, as
    /// Prometheus-style text exposition.
    Metrics {
        /// The rendered exposition (`# TYPE` lines plus samples).
        text: String,
    },
    /// Reply to `TRACE`: flight-recorder entries, slowest first (empty
    /// until a front-end request has completed).
    Trace {
        /// The entries, slowest first.
        entries: Vec<TraceEntry>,
    },
    /// Acknowledgement of a `SHUTDOWN` verb: the last message the service
    /// sends before draining.
    Bye,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_indexing_round_trips() {
        for (i, op) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(OpClass::from_index(i), Some(op));
            assert_eq!(OpClass::from_wire_name(op.wire_name()), Some(op));
        }
        assert_eq!(OpClass::from_index(OpClass::COUNT), None);
        assert_eq!(OpClass::from_wire_name("frobnicate"), None);
    }

    #[test]
    fn requests_know_their_class() {
        assert_eq!(Request::Info.op_class(), OpClass::Info);
        assert_eq!(Request::Core(3).op_class(), OpClass::Core);
        assert_eq!(Request::Anchored { k: 2, anchors: vec![] }.op_class(), OpClass::Anchored);
        assert_eq!(Request::Best { k: 3, b: 1, algo: BestAlgo::Olak }.op_class(), OpClass::Best);
        assert_eq!(Request::Stats.op_class(), OpClass::Stats);
        let ingest = Request::Ingest { ts: 7, insertions: vec![(0, 1)], deletions: vec![] };
        assert_eq!(ingest.op_class(), OpClass::Ingest);
    }
}
