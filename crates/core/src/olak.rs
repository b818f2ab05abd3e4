//! The OLAK baseline (Zhang et al., PVLDB'17, adapted per §6.1).
//!
//! OLAK is the onion-layer anchored-k-core algorithm the paper compares
//! against by re-running it on every snapshot. It runs the selection loop
//! of [`crate::Greedy`] with both §4 optimizations off, which are exactly
//! the two dimensions the paper's efficiency analysis attributes to OLAK:
//!
//! * **no K-order candidate pruning** — every non-core vertex adjacent to
//!   the (k-1)-shell (and every shell vertex) is probed, not just those
//!   preceding a shell neighbour in the K-order;
//! * **undirected shell search** — follower evaluation explores the shell
//!   region around the anchor in both order directions.
//!
//! Both yield identical *answers* (the extra work is provably fruitless);
//! they inflate the visited-vertex and probe counts, which is what
//! Figures 4/6/8 measure. That also makes OLAK the unoptimized reference
//! the tests hold Greedy's pruning against.

use std::time::Instant;

use avt_graph::GraphView;

use crate::anchored::{AnchoredCoreState, Candidate};
use crate::engine::SnapshotSolver;
use crate::greedy::solve_rounds;
use crate::params::{AvtParams, SnapshotReport};

/// Per-snapshot anchored k-core via onion layers, re-run on every
/// snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct Olak;

impl SnapshotSolver for Olak {
    const NAME: &'static str = "OLAK";

    fn solve_snapshot<G: GraphView>(
        &self,
        t: usize,
        frame: &G,
        params: AvtParams,
    ) -> SnapshotReport {
        let start = Instant::now();
        let state = AnchoredCoreState::new(frame, params.k);
        solve_rounds(t, start, state, params, false, |state| {
            state.candidates_unordered().into_iter().map(Candidate::unkeyed).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::oracle::naive_set_followers;
    use crate::params::AvtAlgorithm;
    use avt_graph::{EvolvingGraph, Graph};

    fn toy() -> Graph {
        Graph::from_edges(
            9,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3), // K4 core
                (4, 0),
                (4, 1),
                (5, 2),
                (5, 3),
                (4, 5),
                (6, 4),
                (7, 0),
                (7, 1),
                (8, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn olak_followers_match_oracle() {
        let eg = EvolvingGraph::new(toy());
        let result = Olak.track(&eg, AvtParams::new(3, 2)).unwrap();
        let r = &result.reports[0];
        let oracle = naive_set_followers(eg.initial(), 3, &r.anchors);
        let mut got = r.followers.clone();
        got.sort_unstable();
        assert_eq!(got, oracle);
    }

    #[test]
    fn olak_matches_greedy_effectiveness() {
        // Same greedy rule, different pruning: anchors and follower counts
        // must match.
        let eg = EvolvingGraph::new(toy());
        let params = AvtParams::new(3, 2);
        let olak = Olak.track(&eg, params).unwrap();
        let greedy = Greedy.track(&eg, params).unwrap();
        assert_eq!(olak.follower_counts, greedy.follower_counts);
        assert_eq!(olak.anchor_sets, greedy.anchor_sets);
    }

    #[test]
    fn olak_probes_at_least_as_many_candidates_as_greedy() {
        let eg = EvolvingGraph::new(toy());
        let params = AvtParams::new(3, 2);
        let olak = Olak.track(&eg, params).unwrap();
        let greedy = Greedy.track(&eg, params).unwrap();
        assert!(olak.total_metrics().candidates_probed >= greedy.total_metrics().candidates_probed);
        assert!(olak.total_metrics().vertices_visited >= greedy.total_metrics().vertices_visited);
    }

    #[test]
    fn olak_name() {
        assert_eq!(Olak.name(), "OLAK");
    }
}
