//! The Greedy algorithm (Algorithm 2) with the §4 accelerations, and the
//! anchor-selection loop every greedy-rule solver shares.
//!
//! Per snapshot, `l` rounds of "evaluate every candidate anchor, commit the
//! one with the most followers". Greedy runs both optimizations of §4:
//!
//! * **candidate pruning** (§4.1, Theorem 3): only vertices preceding a
//!   (k-1)-shell neighbour in the K-order are evaluated;
//! * **order-based follower computation** (§4.2, Algorithm 3): follower
//!   sets come from one pass in the shell order that reaches on only from
//!   the vertices it keeps, instead of from the whole shell.
//!
//! [`crate::Olak`] runs the same loop with both turned off, so it is the
//! unoptimized reference, and [`crate::Rcm`] runs it on a score-ranked
//! shortlist. `solve_rounds` is that loop; each solver passes only its
//! candidate rule and its follower count.

use std::time::Instant;

use avt_graph::{GraphView, VertexId};

use crate::anchored::{AnchoredCoreState, Candidate};
use crate::engine::SnapshotSolver;
use crate::params::{AvtParams, SnapshotReport};

/// The paper's optimized Greedy algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

/// Count `candidates` on `state` and return the best `(vertex, gain)`
/// with gain > 0, ties broken toward the smallest vertex id. Each count
/// gets the best gain so far as its floor (1 before there is one): a
/// candidate whose region (what its pass keeps) is smaller cannot reach
/// that gain, so its peel is skipped, while one that could tie is still
/// counted, since it wins the tie when its id is smaller (Bound-and-skip
/// in the `crate::anchored` docs). The floor never falls within a call,
/// and the caller's commit after it forgets the memo.
pub(crate) fn select_best<G: GraphView>(
    state: &mut AnchoredCoreState<'_, G>,
    candidates: &[Candidate],
    order_based: bool,
) -> Option<(VertexId, usize)> {
    let mut best: Option<(VertexId, usize)> = None;
    for &c in candidates {
        let floor = best.map_or(1, |(_, gain)| gain);
        let Some(gain) = state.count_followers(c, order_based, floor) else { continue };
        if gain == 0 {
            continue;
        }
        best = match best {
            Some((bv, bg)) if bg > gain || (bg == gain && bv < c.vertex) => Some((bv, bg)),
            _ => Some((c.vertex, gain)),
        };
    }
    best
}

/// Solve snapshot `t` with the greedy rule on `state`, built for the
/// snapshot with no anchors by a clock started at `start`: run up to `l`
/// rounds, each probing what `candidates` returns and committing the winner
/// of [`select_best`]; stop early when no candidate has any followers.
/// `order_based` picks the §4.2 follower count over the unordered
/// whole-shell search. Greedy's candidates come keyed from the Theorem-3
/// set the state carries across rounds, so its probes read the count memo
/// without re-reading their neighbour lists, and no round after the first
/// rescans the shell.
pub(crate) fn solve_rounds<G: GraphView>(
    t: usize,
    start: Instant,
    mut state: AnchoredCoreState<'_, G>,
    params: AvtParams,
    order_based: bool,
    mut candidates: impl FnMut(&mut AnchoredCoreState<'_, G>) -> Vec<Candidate>,
) -> SnapshotReport {
    let base_cores = state.base_cores_snapshot();
    let base_core_size = state.anchored_core_size();
    let mut anchors = Vec::with_capacity(params.l);
    for _ in 0..params.l {
        let probes = candidates(&mut state);
        state.add_probed(probes.len() as u64);
        let Some((v, _gain)) = select_best(&mut state, &probes, order_based) else {
            break;
        };
        state.commit_anchor(v);
        anchors.push(v);
    }
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

impl Greedy {
    /// Greedy's solve of snapshot `t` on `state`, built for it with no
    /// anchors by a clock started at `start`.
    pub(crate) fn solve_state<G: GraphView>(
        t: usize,
        start: Instant,
        state: AnchoredCoreState<'_, G>,
        params: AvtParams,
    ) -> SnapshotReport {
        solve_rounds(t, start, state, params, true, |state| state.keyed_candidates())
    }
}

impl SnapshotSolver for Greedy {
    const NAME: &'static str = "Greedy";

    fn solve_snapshot<G: GraphView>(
        &self,
        t: usize,
        frame: &G,
        params: AvtParams,
    ) -> SnapshotReport {
        let start = Instant::now();
        Greedy::solve_state(t, start, AnchoredCoreState::new(frame, params.k), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_set_followers;
    use crate::params::AvtAlgorithm;
    use avt_graph::{EdgeBatch, EvolvingGraph, Graph};

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
        let result = Greedy.track(&eg, AvtParams::new(3, 2)).unwrap();
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
        let result = Greedy.track(&eg, AvtParams::new(3, 2)).unwrap();
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
    fn budget_limits_anchor_count() {
        let g = winged();
        let eg = EvolvingGraph::new(g);
        let result = Greedy.track(&eg, AvtParams::new(3, 1)).unwrap();
        assert!(result.anchor_sets[0].len() <= 1);
    }

    #[test]
    fn stops_early_when_nothing_gains() {
        // A lone triangle at k=2: the core is everything, no anchor helps.
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let eg = EvolvingGraph::new(g);
        let result = Greedy.track(&eg, AvtParams::new(2, 5)).unwrap();
        assert!(result.anchor_sets[0].is_empty());
        assert_eq!(result.follower_counts[0], 0);
    }

    #[test]
    fn tracks_multiple_snapshots() {
        let g = winged();
        let mut eg = EvolvingGraph::new(g);
        eg.push_batch(EdgeBatch::from_pairs([(6, 5)], []));
        eg.push_batch(EdgeBatch::from_pairs([], [(4, 5)]));
        let result = Greedy.track(&eg, AvtParams::new(3, 2)).unwrap();
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
