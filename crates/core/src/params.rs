//! Problem parameters, results, and the algorithm trait.

use std::time::Duration;

use avt_graph::{EvolvingGraph, GraphError, VertexId};

use crate::metrics::Metrics;

/// The AVT query parameters: degree threshold `k` and anchor budget `l`
/// (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvtParams {
    /// Degree threshold of the k-core engagement model. Must be ≥ 1.
    pub k: u32,
    /// Maximum anchored-set size per snapshot.
    pub l: usize,
}

impl AvtParams {
    /// Construct parameters; panics on `k == 0` (a 0-core is the whole
    /// vertex set and anchoring is meaningless).
    pub fn new(k: u32, l: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        AvtParams { k, l }
    }
}

/// Everything an algorithm produced for one snapshot `G_t`.
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// 1-based snapshot index.
    pub t: usize,
    /// The anchored vertex set `S_t` (size ≤ l).
    pub anchors: Vec<VertexId>,
    /// The followers `F_k(S_t, G_t)` — vertices pulled into the k-core.
    pub followers: Vec<VertexId>,
    /// `|C_k|` of the plain snapshot (no anchors).
    pub base_core_size: usize,
    /// `|C_k(S_t)|` — base core + anchors + followers (Definition 4).
    pub anchored_core_size: usize,
    /// Wall time spent on this snapshot.
    pub elapsed: Duration,
    /// Efficiency counters for this snapshot.
    pub metrics: Metrics,
}

/// The output of an AVT run over all snapshots.
#[derive(Debug, Clone, Default)]
pub struct AvtResult {
    /// The anchor series `S = {S_t}`.
    pub anchor_sets: Vec<Vec<VertexId>>,
    /// `|F_k(S_t, G_t)|` per snapshot.
    pub follower_counts: Vec<usize>,
    /// Full per-snapshot detail.
    pub reports: Vec<SnapshotReport>,
}

impl AvtResult {
    /// Fold one more snapshot's report into the summary fields. Reports
    /// must arrive in `t`-order — this is the [`crate::engine::ReportSink`]
    /// implementation the engine's streaming runners feed.
    pub fn push_report(&mut self, report: SnapshotReport) {
        self.anchor_sets.push(report.anchors.clone());
        self.follower_counts.push(report.followers.len());
        self.reports.push(report);
    }

    /// Total followers across all snapshots (the paper's effectiveness
    /// metric, Figures 9-11).
    pub fn total_followers(&self) -> usize {
        self.follower_counts.iter().sum()
    }

    /// Aggregated efficiency counters.
    pub fn total_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for r in &self.reports {
            m += r.metrics;
        }
        m
    }
}

/// An AVT solver: produces an anchor series for an evolving graph.
pub trait AvtAlgorithm {
    /// Short display name used in experiment tables ("Greedy", "IncAVT"…).
    fn name(&self) -> &'static str;

    /// Solve AVT over all snapshots of `evolving`.
    fn track(&self, evolving: &EvolvingGraph, params: AvtParams) -> Result<AvtResult, GraphError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(t: usize, anchors: Vec<VertexId>, followers: Vec<VertexId>) -> SnapshotReport {
        SnapshotReport {
            t,
            anchors,
            followers,
            base_core_size: 10,
            anchored_core_size: 12,
            elapsed: Duration::from_millis(t as u64),
            metrics: Metrics { vertices_visited: 5, ..Default::default() },
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = AvtParams::new(0, 3);
    }

    #[test]
    fn params_construct() {
        let p = AvtParams::new(3, 10);
        assert_eq!(p.k, 3);
        assert_eq!(p.l, 10);
    }

    #[test]
    fn result_summaries() {
        let mut r = AvtResult::default();
        r.push_report(report(1, vec![4], vec![7, 8]));
        r.push_report(report(2, vec![5], vec![9]));
        assert_eq!(r.anchor_sets, vec![vec![4], vec![5]]);
        assert_eq!(r.follower_counts, vec![2, 1]);
        assert_eq!(r.total_followers(), 3);
        assert_eq!(r.total_metrics().vertices_visited, 10);
    }
}
