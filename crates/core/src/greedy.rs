//! The Greedy algorithm (Algorithm 2) with the §4 accelerations.
//!
//! Per snapshot, `l` rounds of "evaluate every candidate anchor, commit the
//! one with the most followers". The two optimizations of §4 are both on by
//! default and individually switchable for the ablation benches:
//!
//! * **candidate pruning** (§4.1, Theorem 3): only vertices preceding a
//!   (k-1)-shell neighbour in the K-order are evaluated;
//! * **order-based follower computation** (§4.2, Algorithm 3): follower
//!   sets are computed on the forward closure instead of the whole shell.
//!
//! With both disabled this degenerates to the unoptimized Algorithm 2
//! (every non-core vertex probed, whole-shell search per probe).

use std::time::Instant;

use avt_graph::{EvolvingGraph, GraphError, GraphView, VertexId};

use crate::anchored::AnchoredCoreState;
use crate::engine::{Engine, SnapshotSolver};
use crate::params::{AvtAlgorithm, AvtParams, AvtResult, SnapshotReport};

/// Tuning switches for [`Greedy`] (the §4 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyConfig {
    /// Apply Theorem-3 candidate pruning (§4.1).
    pub prune_candidates: bool,
    /// Use the order-based (forward-closure) follower computation (§4.2);
    /// when false, the undirected whole-shell search is used.
    pub order_based_followers: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig { prune_candidates: true, order_based_followers: true }
    }
}

/// The paper's optimized Greedy algorithm.
#[derive(Debug, Clone, Default)]
pub struct Greedy {
    /// Configuration; [`GreedyConfig::default`] enables both §4
    /// optimizations.
    pub config: GreedyConfig,
}

impl Greedy {
    /// Greedy with explicit configuration.
    pub fn with_config(config: GreedyConfig) -> Self {
        Greedy { config }
    }

    /// Fully unoptimized variant (ablation baseline).
    pub fn unoptimized() -> Self {
        Greedy { config: GreedyConfig { prune_candidates: false, order_based_followers: false } }
    }
}

/// Evaluate `candidates` on `state` and return the best `(vertex, gain)`
/// with gain > 0, ties broken toward the smallest vertex id.
pub(crate) fn select_best<G: GraphView>(
    state: &mut AnchoredCoreState<'_, G>,
    candidates: &[VertexId],
    order_based: bool,
) -> Option<(VertexId, usize)> {
    let mut best: Option<(VertexId, usize)> = None;
    for &c in candidates {
        let gain = if order_based {
            state.follower_count_of(c)
        } else {
            state.follower_count_of_unordered(c)
        };
        if gain == 0 {
            continue;
        }
        best = match best {
            Some((bv, bg)) if bg > gain || (bg == gain && bv < c) => Some((bv, bg)),
            _ => Some((c, gain)),
        };
    }
    best
}

/// Run the greedy anchor-selection rounds on an existing state (shared with
/// `IncAvt` for its first snapshot). Returns the committed anchors, in
/// commit order; stops early when no candidate has any followers.
pub(crate) fn greedy_rounds<G: GraphView>(
    state: &mut AnchoredCoreState<'_, G>,
    l: usize,
    config: GreedyConfig,
) -> Vec<VertexId> {
    let mut anchors = Vec::with_capacity(l);
    for _ in 0..l {
        let candidates =
            if config.prune_candidates { state.candidates() } else { all_probe_targets(state) };
        state.add_probed(candidates.len() as u64);
        let Some((v, _gain)) = select_best(state, &candidates, config.order_based_followers) else {
            break;
        };
        state.commit_anchor(v);
        anchors.push(v);
    }
    anchors
}

/// Without Theorem-3 pruning, every non-core, non-anchored vertex is
/// probed (the unoptimized Algorithm 2 candidate loop).
fn all_probe_targets<G: GraphView>(state: &AnchoredCoreState<'_, G>) -> Vec<VertexId> {
    let g = state.graph();
    g.vertices().filter(|&v| !state.in_core(v) && !state.anchors().contains(&v)).collect()
}

impl AvtAlgorithm for Greedy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn track(&self, evolving: &EvolvingGraph, params: AvtParams) -> Result<AvtResult, GraphError> {
        Engine::default().run(self, evolving, params)
    }
}

impl SnapshotSolver for Greedy {
    fn solve_snapshot<G: GraphView>(
        &self,
        t: usize,
        frame: &G,
        params: AvtParams,
    ) -> SnapshotReport {
        let start = Instant::now();
        let mut state = AnchoredCoreState::new(frame, params.k);
        let base_cores = state.base_cores_snapshot();
        let base_core_size = state.anchored_core_size();
        let anchors = greedy_rounds(&mut state, params.l, self.config);
        let followers = state.committed_followers(&base_cores);
        SnapshotReport {
            t,
            anchors,
            followers,
            base_core_size,
            anchored_core_size: state.anchored_core_size(),
            elapsed: start.elapsed(),
            metrics: state.take_metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_set_followers;
    use avt_graph::{EdgeBatch, Graph};

    /// Two "wings" of savable vertices around a K4 core, k = 3. Anchoring
    /// 6 saves the left wing {4, 5}; anchoring 9 saves the right wing
    /// {7, 8}.
    fn winged() -> Graph {
        Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3), // K4
                // left wing: 4 leans on 0 and 5; 5 leans on 2, 3 and 4
                (4, 0),
                (4, 5),
                (5, 2),
                (5, 3),
                // 6 is the anchor bait for the left wing
                (6, 4),
                // right wing mirrors it: 7 leans on 0, 2 and 8; 8 leans on
                // 1, 7 and the anchor bait 9
                (7, 0),
                (7, 2),
                (7, 8),
                (8, 1),
                (9, 8),
            ],
        )
        .unwrap()
    }

    #[test]
    fn greedy_matches_oracle_follower_count() {
        let g = winged();
        let eg = EvolvingGraph::new(g.clone());
        let result = Greedy::default().track(&eg, AvtParams::new(3, 2)).unwrap();
        assert_eq!(result.reports.len(), 1);
        let r = &result.reports[0];
        // Whatever greedy picked, the reported followers must equal the
        // oracle's view of that anchor set.
        let oracle = naive_set_followers(&g, 3, &r.anchors);
        let mut got = r.followers.clone();
        got.sort_unstable();
        assert_eq!(got, oracle);
        assert_eq!(r.anchored_core_size, r.base_core_size + r.anchors.len() + oracle.len());
    }

    #[test]
    fn greedy_finds_productive_anchors() {
        let g = winged();
        let eg = EvolvingGraph::new(g);
        let result = Greedy::default().track(&eg, AvtParams::new(3, 2)).unwrap();
        // At least the 4/5 wing (joint support) is recoverable with one
        // anchor; two anchors must produce at least 3 followers total.
        assert!(
            result.follower_counts[0] >= 3,
            "expected >= 3 followers, got {} with anchors {:?}",
            result.follower_counts[0],
            result.anchor_sets[0]
        );
    }

    #[test]
    fn unoptimized_and_optimized_agree_on_followers() {
        let g = winged();
        let eg = EvolvingGraph::new(g);
        let params = AvtParams::new(3, 2);
        let fast = Greedy::default().track(&eg, params).unwrap();
        let slow = Greedy::unoptimized().track(&eg, params).unwrap();
        assert_eq!(fast.follower_counts, slow.follower_counts);
        assert_eq!(fast.anchor_sets, slow.anchor_sets);
        // The optimized variant probes no more candidates.
        assert!(fast.total_metrics().candidates_probed <= slow.total_metrics().candidates_probed);
    }

    #[test]
    fn budget_limits_anchor_count() {
        let g = winged();
        let eg = EvolvingGraph::new(g);
        let result = Greedy::default().track(&eg, AvtParams::new(3, 1)).unwrap();
        assert!(result.anchor_sets[0].len() <= 1);
    }

    #[test]
    fn stops_early_when_nothing_gains() {
        // A lone triangle at k=2: the core is everything, no anchor helps.
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let eg = EvolvingGraph::new(g);
        let result = Greedy::default().track(&eg, AvtParams::new(2, 5)).unwrap();
        assert!(result.anchor_sets[0].is_empty());
        assert_eq!(result.follower_counts[0], 0);
    }

    #[test]
    fn tracks_multiple_snapshots() {
        let g = winged();
        let mut eg = EvolvingGraph::new(g);
        eg.push_batch(EdgeBatch::from_pairs([(6, 5)], []));
        eg.push_batch(EdgeBatch::from_pairs([], [(4, 5)]));
        let result = Greedy::default().track(&eg, AvtParams::new(3, 2)).unwrap();
        assert_eq!(result.reports.len(), 3);
        for (i, r) in result.reports.iter().enumerate() {
            assert_eq!(r.t, i + 1);
            let g_t = eg.snapshot(r.t).unwrap();
            let oracle = naive_set_followers(&g_t, 3, &r.anchors);
            let mut got = r.followers.clone();
            got.sort_unstable();
            assert_eq!(got, oracle, "snapshot {}", r.t);
        }
    }
}
