//! IncAVT: the incremental algorithm (Algorithm 6, §5).
//!
//! Snapshot 1 is one [`Greedy`] solve on the maintained graph
//! (Algorithm 6, lines 1-2), on an anchored state built from the K-order
//! that `avt_kcore::MaintainedCore::new` has just built; the snapshot's
//! `elapsed` covers that build too. From then on IncAVT exploits the
//! *smoothness* of network evolution twice:
//!
//! 1. **Bounded K-order maintenance** (§5.2): the K-order of `G_t` is
//!    repaired from `G_{t-1}` via `avt_kcore::MaintainedCore` (EdgeInsert /
//!    EdgeRemove, edge at a time; a batch that churns 5 % of the graph or
//!    more is decomposed instead) rather than rebuilt from nothing every
//!    snapshot, and the maintenance reports the impacted vertex sets
//!    `VI` (insert-affected) and `VR` (delete-affected).
//! 2. **Local anchor search** (Algorithm 6, lines 9-16): the anchor set is
//!    seeded with `S_{t-1}` and improved by *swaps only*, probing
//!    candidates drawn from `VI ∪ VR ∪ nbr(VI ∪ VR) \ C_k` filtered by
//!    Theorem 3 — typically a few dozen vertices instead of the thousands
//!    a fresh Greedy pass would evaluate.
//!
//! Two deviations from the paper's Algorithm 6:
//!
//! * Evaluating a swap `S_t \ {u} ∪ {v}` uses one anchored state for
//!   `S_t \ {u}` plus a *local* follower query for each candidate `v`,
//!   instead of a full evaluation per pair — identical results. Each query
//!   is passed the fewest followers with which `v` could still beat the
//!   current set and the best swap so far (a tie with the best goes to the
//!   smaller id), so a `v` whose region is smaller skips its peel
//!   (Bound-and-skip in the `crate::anchored` docs). A
//!   snapshot costs one construction of the anchored state for the
//!   inherited anchors plus local repairs: an uncommit per swap test, a
//!   commit per swap made, an uncommit per anchor that drifted into the
//!   plain k-core, and a commit per growth step below. A test that keeps
//!   `u` undoes its uncommit instead of committing `u` again. The
//!   construction reads the maintained K-order ("Construction from a
//!   K-order" in the `crate::anchored` docs): classes come off the core
//!   numbers, an inherited anchor below the shell lifts what it holds up,
//!   and one cascade over the shell finds the anchored k-core. No
//!   threshold cascade crosses the graph, so IncAVT's reports count no
//!   rebuild ([`Metrics::rebuilds`]); only a heavy batch's maintenance
//!   decomposes the whole graph.
//! * After the swap phase, if the anchor set is still below budget (e.g.
//!   the initial snapshot had fewer than `l` productive anchors), a growth
//!   phase adds the best impacted candidates, picked by Greedy's
//!   selection rule. Without it the paper's Algorithm 6 can never recover
//!   from an undersized `S_1`.

use std::time::Instant;

use avt_graph::{EvolvingGraph, GraphError, VertexId};
use avt_kcore::MaintainedCore;

use crate::anchored::{AnchoredCoreState, Candidate};
use crate::engine::ReportSink;
use crate::greedy::{select_best, Greedy};
use crate::metrics::Metrics;
use crate::params::{AvtAlgorithm, AvtParams, AvtResult, SnapshotReport};

/// The incremental AVT solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncAvt;

impl IncAvt {
    /// The streaming form of [`AvtAlgorithm::track`]: each snapshot's
    /// report goes straight into `sink` as the incremental walk produces
    /// it, in `t`-order — the same [`ReportSink`] contract the engine's
    /// runners honour, so prefix consumers can fold IncAVT runs without an
    /// all-`T` report buffer. (IncAvt is deliberately not an engine
    /// client — it carries K-order state across snapshots — but its
    /// *output* streams identically.)
    pub fn track_into<K: ReportSink>(
        &self,
        evolving: &EvolvingGraph,
        params: AvtParams,
        sink: &mut K,
    ) -> Result<(), GraphError> {
        // Snapshot 1: build the K-order and run one full Greedy pass on a
        // state built from it (Algorithm 6, lines 1-2). Its clock covers
        // the K-order build.
        let start = Instant::now();
        let mut maintained = MaintainedCore::new(evolving.initial().clone());
        let state =
            AnchoredCoreState::from_korder(maintained.graph(), params.k, maintained.korder(), &[]);
        let first = Greedy::solve_state(1, start, state, params);
        let mut anchors = first.anchors.clone();
        sink.push(first);

        // Snapshots 2..T: maintain + local search (lines 4-17).
        for t in 2..=evolving.num_snapshots() {
            let start = Instant::now();
            let visited_before = maintained.visited_vertices();
            let batch = evolving.batch(t - 1).expect("batch exists for every non-initial snapshot");
            let changes = maintained.apply_batch(batch)?;
            let maintenance_visits = maintained.visited_vertices() - visited_before;

            let (report, new_anchors) = local_search_snapshot(
                t,
                &maintained,
                &changes.changed_vertices(),
                &anchors,
                params,
                start,
                maintenance_visits,
            );
            anchors = new_anchors;
            sink.push(report);
        }

        Ok(())
    }
}

impl AvtAlgorithm for IncAvt {
    fn name(&self) -> &'static str {
        "IncAVT"
    }

    fn track(&self, evolving: &EvolvingGraph, params: AvtParams) -> Result<AvtResult, GraphError> {
        let mut result = AvtResult::default();
        self.track_into(evolving, params, &mut result)?;
        Ok(result)
    }
}

/// The per-snapshot local search: swap phase + growth phase.
fn local_search_snapshot(
    t: usize,
    maintained: &MaintainedCore,
    impacted: &[VertexId],
    previous: &[VertexId],
    params: AvtParams,
    start: Instant,
    maintenance_visits: u64,
) -> (SnapshotReport, Vec<VertexId>) {
    let graph = maintained.graph();
    let base_cores = maintained.korder().core_slice();
    let base_core_size = base_cores.iter().filter(|&&c| c >= params.k).count();

    let mut anchors: Vec<VertexId> = previous.to_vec();
    let mut extra_metrics = Metrics { vertices_visited: maintenance_visits, ..Default::default() };

    // Current state with the inherited anchors committed, built from the
    // maintained K-order.
    let mut state = AnchoredCoreState::from_korder(graph, params.k, maintained.korder(), &anchors);

    // Candidate pool: impacted vertices, their neighbours, and nothing
    // else (Algorithm 6, line 12), filtered by Theorem 3 on the current
    // anchored state.
    let pool = impacted_candidates(&mut state, impacted);
    extra_metrics.candidates_probed += pool.len() as u64;

    // Swap phase (lines 9-16): for each inherited anchor u, test whether
    // some impacted candidate v is a strict improvement.
    if !pool.is_empty() {
        for &u in previous {
            if !anchors.contains(&u) {
                continue; // already swapped out
            }
            let current_size = state.anchored_core_size();
            // State without u, evaluated once; each candidate costs one
            // local follower query on top of it. What the uncommit changed
            // is kept in case no swap wins.
            let kept = state.uncommit_keeping(u);
            let without_size = state.anchored_core_size();

            let mut best: Option<(VertexId, usize)> = None;
            for &v in &pool {
                if v == u || anchors.contains(&v) {
                    continue;
                }
                // |C_k(S\u ∪ v)| = |C_k(S\u)| + followers(v) + v itself. A
                // swap must beat the current set and tie the best swap so
                // far (ties go to the smaller id), which takes `floor`
                // followers at least: a v whose region is smaller cannot
                // win and skips its peel. The floor only rises within a
                // test, and each test starts with an uncommit, which
                // forgets the memo.
                let target = best.map_or(current_size + 1, |(_, size)| size);
                let floor = target - (without_size + 1);
                let candidate = state.candidate(v);
                let Some(gain) = state.count_followers(candidate, true, floor) else { continue };
                let swapped_size = without_size + gain + usize::from(!state.in_core(v));
                if swapped_size > current_size {
                    best = match best {
                        Some((bv, bs)) if bs > swapped_size || (bs == swapped_size && bv < v) => {
                            Some((bv, bs))
                        }
                        _ => Some((v, swapped_size)),
                    };
                }
            }

            match best {
                Some((v, _)) => {
                    drop(kept);
                    state.commit_anchor(v);
                    let pos = anchors.iter().position(|&a| a == u).expect("u is present");
                    anchors[pos] = v;
                }
                None if state.in_core(u) => {
                    // Churn pulled u into the core on its own: anchoring it
                    // is wasted budget. Drop it and let the growth phase
                    // spend the slot.
                    anchors.retain(|&a| a != u);
                }
                None => state.restore_anchor(kept), // keep u, undoing the uncommit
            }
        }
    }
    // Even with an empty pool, anchors that drifted into the *plain*
    // k-core waste budget; release them (cheap check against the
    // maintained base cores, one local uncommit per actual drift).
    let drifted: Vec<VertexId> =
        anchors.iter().copied().filter(|&u| base_cores[u as usize] >= params.k).collect();
    for u in drifted {
        state.uncommit_anchor(u);
        anchors.retain(|&a| a != u);
    }

    // Growth phase: fill remaining budget from the impacted pool.
    while anchors.len() < params.l {
        let open: Vec<Candidate> = pool
            .iter()
            .copied()
            .filter(|&v| !anchors.contains(&v) && !state.in_core(v))
            .map(|v| state.candidate(v))
            .collect();
        let Some((v, _)) = select_best(&mut state, &open, true) else { break };
        state.commit_anchor(v);
        anchors.push(v);
    }

    let followers = state.committed_followers(base_cores);
    let mut metrics = state.take_metrics();
    metrics += extra_metrics;
    let report = SnapshotReport {
        t,
        anchors: anchors.clone(),
        followers,
        base_core_size,
        anchored_core_size: state.anchored_core_size(),
        elapsed: start.elapsed(),
        metrics,
    };
    (report, anchors)
}

/// Theorem-3-filtered candidates drawn only from the churn-impacted region:
/// `{VI ∪ VR ∪ nbr(VI ∪ VR)} \ C_k(S)` (Algorithm 6, line 12).
fn impacted_candidates(state: &mut AnchoredCoreState<'_>, impacted: &[VertexId]) -> Vec<VertexId> {
    let graph = state.graph();
    let mut pool: Vec<VertexId> = Vec::new();
    for &v in impacted {
        pool.push(v);
        pool.extend_from_slice(graph.neighbors(v));
    }
    pool.sort_unstable();
    pool.dedup();
    state.bump_visited(pool.len() as u64);

    pool.retain(|&x| {
        !state.in_core(x)
            && graph.neighbors(x).iter().any(|&w| state.in_shell(w) && state.precedes(x, w))
    });
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_set_followers;
    use avt_graph::{EdgeBatch, Graph};

    fn base_graph() -> Graph {
        Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3), // K4 core
                // left wing {4, 5}, saved by anchoring 6
                (4, 0),
                (4, 5),
                (5, 2),
                (5, 3),
                (6, 4),
                // right wing: 7 and 8 each two short; 9 is the bait
                (7, 0),
                (7, 2),
                (8, 1),
                (8, 3),
                (9, 7),
            ],
        )
        .unwrap()
    }

    fn evolving() -> EvolvingGraph {
        let mut eg = EvolvingGraph::new(base_graph());
        // t=2: connect the right wing internally; anchoring 9 now saves
        // both 7 and 8.
        eg.push_batch(EdgeBatch::from_pairs([(7, 8)], []));
        // t=3: break the left wing.
        eg.push_batch(EdgeBatch::from_pairs([], [(4, 5)]));
        eg
    }

    #[test]
    fn incavt_reports_consistent_followers() {
        let eg = evolving();
        let params = AvtParams::new(3, 2);
        let result = IncAvt.track(&eg, params).unwrap();
        assert_eq!(result.reports.len(), 3);
        for r in &result.reports {
            let g_t = eg.snapshot(r.t).unwrap();
            let oracle = naive_set_followers(&g_t, params.k, &r.anchors);
            let mut got = r.followers.clone();
            got.sort_unstable();
            assert_eq!(got, oracle, "snapshot {}", r.t);
        }
    }

    #[test]
    fn incavt_first_snapshot_equals_greedy() {
        let eg = evolving();
        let params = AvtParams::new(3, 2);
        let inc = IncAvt.track(&eg, params).unwrap();
        let greedy = Greedy.track(&eg, params).unwrap();
        assert_eq!(inc.anchor_sets[0], greedy.anchor_sets[0]);
        assert_eq!(inc.follower_counts[0], greedy.follower_counts[0]);
    }

    #[test]
    fn incavt_adapts_to_churn() {
        let eg = evolving();
        let params = AvtParams::new(3, 2);
        let inc = IncAvt.track(&eg, params).unwrap();
        let greedy = Greedy.track(&eg, params).unwrap();
        // The local search must stay within 80% of the scratch recompute on
        // this toy (here it actually matches it).
        for t in 0..3 {
            assert!(
                inc.follower_counts[t] + 1 >= greedy.follower_counts[t],
                "t={}: inc {} vs greedy {}",
                t + 1,
                inc.follower_counts[t],
                greedy.follower_counts[t]
            );
        }
    }

    #[test]
    fn incavt_probes_fewer_candidates_than_greedy() {
        let eg = evolving();
        let params = AvtParams::new(3, 2);
        let inc = IncAvt.track(&eg, params).unwrap();
        let greedy = Greedy.track(&eg, params).unwrap();
        // Skip the shared first snapshot; compare the incremental ones.
        let inc_probes: u64 = inc.reports[1..].iter().map(|r| r.metrics.candidates_probed).sum();
        let greedy_probes: u64 =
            greedy.reports[1..].iter().map(|r| r.metrics.candidates_probed).sum();
        assert!(
            inc_probes <= greedy_probes,
            "incremental probing ({inc_probes}) must not exceed scratch ({greedy_probes})"
        );
    }

    #[test]
    fn streaming_sink_matches_collected_track() {
        let eg = evolving();
        let params = AvtParams::new(3, 2);
        let collected = IncAvt.track(&eg, params).unwrap();
        let mut ts = Vec::new();
        let mut follower_counts = Vec::new();
        IncAvt
            .track_into(&eg, params, &mut |r: SnapshotReport| {
                ts.push(r.t);
                follower_counts.push(r.followers.len());
            })
            .unwrap();
        assert_eq!(ts, vec![1, 2, 3], "reports stream in t-order");
        assert_eq!(follower_counts, collected.follower_counts);
    }

    #[test]
    fn incavt_handles_single_snapshot() {
        let eg = EvolvingGraph::new(base_graph());
        let result = IncAvt.track(&eg, AvtParams::new(3, 2)).unwrap();
        assert_eq!(result.reports.len(), 1);
    }

    #[test]
    fn incavt_handles_empty_batches() {
        let mut eg = EvolvingGraph::new(base_graph());
        eg.push_batch(EdgeBatch::new());
        eg.push_batch(EdgeBatch::new());
        let result = IncAvt.track(&eg, AvtParams::new(3, 2)).unwrap();
        // With no churn the anchor set must persist unchanged.
        assert_eq!(result.anchor_sets[0], result.anchor_sets[1]);
        assert_eq!(result.anchor_sets[1], result.anchor_sets[2]);
        assert_eq!(result.follower_counts[0], result.follower_counts[2]);
    }

    #[test]
    fn growth_phase_recovers_from_empty_start() {
        // t=1 offers nothing to anchor; churn then creates an opportunity.
        // Start: K4 plus two isolated-ish vertices 4, 5 connected to
        // nothing useful.
        let g =
            Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]).unwrap();
        let mut eg = EvolvingGraph::new(g);
        // Give 4 one core link and 5 two: anchoring 4 then saves 5 (k=3),
        // but the pair does not enter the core on its own.
        eg.push_batch(EdgeBatch::from_pairs([(4, 0), (5, 2), (5, 3)], []));
        let params = AvtParams::new(3, 1);
        let result = IncAvt.track(&eg, params).unwrap();
        assert!(result.anchor_sets[0].is_empty());
        assert_eq!(
            result.follower_counts[1], 1,
            "growth phase should anchor one wing vertex and save the other: {:?}",
            result.reports[1]
        );
    }
}
