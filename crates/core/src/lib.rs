//! Anchored Vertex Tracking (AVT) — the paper's contribution.
//!
//! Given an evolving graph, a degree threshold `k` and a budget `l`, AVT
//! asks for an anchored vertex set of size at most `l` at *every* snapshot
//! that maximizes the anchored k-core size (§2.2, Equation 1). The problem
//! is NP-hard and `O(n^(1-ε))`-inapproximable for `k ≥ 3` (§3), so this
//! crate implements the paper's heuristics and baselines:
//!
//! | Algorithm | Paper | Strategy |
//! |-----------|-------|----------|
//! | [`Greedy`] | Alg. 2, §4 | per snapshot, `l` rounds of best-anchor selection with Theorem-3 candidate pruning and order-based local follower computation |
//! | [`IncAvt`] | Alg. 6, §5 | maintains the K-order across snapshots and local-searches the previous anchor set, probing only churn-impacted candidates |
//! | [`Olak`]  | ref. \[37\] | per-snapshot greedy without the K-order pruning (larger candidate set, undirected shell search) |
//! | [`Rcm`]   | ref. \[23\] | residual-degree anchor scores; exact evaluation only of the top-scored candidates |
//! | [`BruteForce`] | §6.4 | exact enumeration of all size-≤l anchor sets (case study / small graphs) |
//!
//! All algorithms implement [`AvtAlgorithm`] and report both effectiveness
//! (follower counts per snapshot) and the efficiency counters the paper
//! plots ([`Metrics`]): wall time, candidates probed, and vertices visited.
//!
//! Two shared layers sit underneath the solvers:
//!
//! * [`AnchoredCoreState`] — the anchored k-core, the anchored (k-1)-core
//!   and a canonical order of the shell between them, supporting exact
//!   local follower queries (one pass in the shell order + fixpoint — the
//!   order-based acceleration of §4.2) and local anchor commits and
//!   uncommits. It is generic over the snapshot's [`avt_graph::GraphView`]
//!   substrate.
//! * [`Engine`] — the temporal execution engine. Every per-snapshot solver
//!   implements [`SnapshotSolver`] (solve one frozen frame, no state
//!   across snapshots) and gets [`AvtAlgorithm`] through it: its `track`
//!   routes through the engine, which owns the *only* replay loop —
//!   generic over any [`avt_graph::FrameSource`] (resident
//!   [`avt_graph::EvolvingGraph`] frames or zero-copy
//!   [`avt_graph::MmapFrames`]):
//!   [`Engine::sequential`] walks frozen frames on one thread, while
//!   [`Engine::pipelined`] overlaps frame production with a worker pool
//!   solving snapshots concurrently — identical output, selected per
//!   process via `AVT_ENGINE_THREADS` or per call. Both runners stream
//!   each [`SnapshotReport`] into a [`ReportSink`] in `t`-order as it
//!   arrives, so nothing buffers all `T` reports. [`IncAvt`] is the
//!   deliberate exception: it carries K-order state between snapshots, so
//!   it keeps the mutable [`avt_graph::Graph`] and its own sequential walk.

#![warn(missing_docs)]

pub mod anchored;
pub mod brute;
pub mod drift;
pub mod engine;
pub mod greedy;
pub mod incavt;
pub mod metrics;
pub mod olak;
pub mod oracle;
pub mod params;
pub mod rcm;
pub mod reduction;

pub use anchored::AnchoredCoreState;
pub use brute::BruteForce;
pub use engine::{Engine, ReportSink, SnapshotSolver};
pub use greedy::Greedy;
pub use incavt::IncAvt;
pub use metrics::Metrics;
pub use olak::Olak;
pub use params::{AvtAlgorithm, AvtParams, AvtResult, SnapshotReport};
pub use rcm::Rcm;
