//! Exact brute force (the paper's case-study baseline, §6.4).
//!
//! Enumerates every anchor set of size ≤ `l` drawn from the non-core
//! vertices and evaluates each with a full anchored peel. Complexity is
//! `O(C(|pool|, l) · (n + m))` — the paper reports >24h on mathoverflow at
//! l = 2, which is why it only appears in the eu-core case study
//! (Figure 12, Table 4). A `pool_cap` is provided for harness use; when it
//! is `None` the answer is exact.

use std::time::Instant;

use avt_graph::{GraphView, VertexId};
use avt_kcore::decompose::CoreDecomposition;

use crate::engine::SnapshotSolver;
use crate::oracle::naive_set_followers;
use crate::params::{AvtParams, SnapshotReport};

/// Exhaustive search over anchor sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForce {
    /// Optional cap on the candidate pool (highest-potential vertices are
    /// kept, ranked by shell-adjacency). `None` = exact.
    pub pool_cap: Option<usize>,
}

/// Reusable scratch for the anchored peel evaluator.
struct PeelScratch {
    deg: Vec<u32>,
    alive: Vec<bool>,
    is_anchor: Vec<bool>,
    queue: Vec<VertexId>,
}

impl PeelScratch {
    fn new(n: usize) -> Self {
        PeelScratch {
            deg: vec![0; n],
            alive: vec![true; n],
            is_anchor: vec![false; n],
            queue: Vec::new(),
        }
    }

    /// `|C_k(anchors)|` via one queue peel. O(n + m).
    fn anchored_core_size<G: GraphView>(
        &mut self,
        graph: &G,
        k: u32,
        anchors: &[VertexId],
    ) -> usize {
        let n = graph.num_vertices();
        for v in 0..n {
            self.deg[v] = graph.degree(v as VertexId) as u32;
            self.alive[v] = true;
        }
        for &a in anchors {
            self.is_anchor[a as usize] = true;
        }
        self.queue.clear();
        for v in 0..n as VertexId {
            if !self.is_anchor[v as usize] && self.deg[v as usize] < k {
                self.alive[v as usize] = false;
                self.queue.push(v);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if !self.alive[wi] || self.is_anchor[wi] {
                    continue;
                }
                self.deg[wi] -= 1;
                if self.deg[wi] < k {
                    self.alive[wi] = false;
                    self.queue.push(w);
                }
            }
        }
        for &a in anchors {
            self.is_anchor[a as usize] = false;
        }
        self.alive.iter().filter(|&&a| a).count()
    }
}

impl BruteForce {
    /// The candidate pool: every vertex outside the k-core, optionally
    /// capped by shell-adjacency rank.
    fn pool<G: GraphView>(&self, graph: &G, cores: &[u32], k: u32) -> Vec<VertexId> {
        let mut pool: Vec<VertexId> =
            (0..graph.num_vertices() as VertexId).filter(|&v| cores[v as usize] < k).collect();
        if let Some(cap) = self.pool_cap {
            if pool.len() > cap {
                // Rank by number of (k-1)-shell neighbours, descending —
                // anchors far from the shell cannot produce followers.
                let shell_deg = |v: VertexId| {
                    graph.neighbors(v).iter().filter(|&&w| cores[w as usize] == k - 1).count()
                };
                pool.sort_by_key(|&v| std::cmp::Reverse(shell_deg(v)));
                pool.truncate(cap);
                pool.sort_unstable();
            }
        }
        pool
    }
}

/// Enumerate size-`l` combinations of `pool`, calling `eval` on each.
fn for_each_combination(
    pool: &[VertexId],
    l: usize,
    current: &mut Vec<VertexId>,
    start: usize,
    eval: &mut impl FnMut(&[VertexId]),
) {
    if current.len() == l {
        eval(current);
        return;
    }
    let needed = l - current.len();
    for i in start..=pool.len().saturating_sub(needed) {
        current.push(pool[i]);
        for_each_combination(pool, l, current, i + 1, eval);
        current.pop();
    }
}

impl SnapshotSolver for BruteForce {
    const NAME: &'static str = "Brute-force";

    fn solve_snapshot<G: GraphView>(
        &self,
        t: usize,
        frame: &G,
        params: AvtParams,
    ) -> SnapshotReport {
        let start = Instant::now();
        // Fresh scratch per snapshot: O(n) to set up, and it keeps the
        // solver stateless across snapshots (the engine's contract).
        let mut scratch = PeelScratch::new(frame.num_vertices());
        let decomp = CoreDecomposition::compute(frame);
        let base_core_size = decomp.cores().iter().filter(|&&c| c >= params.k).count();
        let pool = self.pool(frame, decomp.cores(), params.k);
        let l = params.l.min(pool.len());

        let mut best_size = base_core_size;
        let mut best_set: Vec<VertexId> = Vec::new();
        let mut probed = 0u64;
        let mut visited = 0u64;
        let mut current = Vec::with_capacity(l);
        for_each_combination(&pool, l, &mut current, 0, &mut |set| {
            probed += 1;
            visited += frame.num_vertices() as u64;
            let size = scratch.anchored_core_size(frame, params.k, set);
            // Strictly-better wins; the anchored core size already counts
            // the anchors themselves, so any nonempty set beats the empty
            // one and ties resolve to the first (lexically smallest)
            // combination.
            if size > best_size {
                best_size = size;
                best_set = set.to_vec();
            }
        });

        let followers = naive_set_followers(frame, params.k, &best_set);
        let anchored_core_size = base_core_size
            + followers.len()
            + best_set.iter().filter(|&&a| decomp.core(a) < params.k).count();
        let metrics = crate::metrics::Metrics {
            candidates_probed: probed,
            vertices_visited: visited,
            follower_evaluations: probed,
            rebuilds: 0,
        };
        SnapshotReport {
            t,
            anchors: best_set,
            followers,
            base_core_size,
            anchored_core_size,
            elapsed: start.elapsed(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::olak::Olak;
    use crate::oracle::naive_anchored_core_size;
    use crate::params::AvtAlgorithm;
    use crate::rcm::Rcm;
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
                (2, 3),
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
    fn brute_force_is_optimal_on_toy() {
        let g = toy();
        let eg = EvolvingGraph::new(g.clone());
        let params = AvtParams::new(3, 2);
        let brute = BruteForce::default().track(&eg, params).unwrap();
        let best = brute.reports[0].anchored_core_size;
        // Verify against explicit enumeration with the naive oracle.
        let pool: Vec<VertexId> = vec![4, 5, 6, 7, 8];
        let mut oracle_best = 0;
        for i in 0..pool.len() {
            for j in (i + 1)..pool.len() {
                oracle_best = oracle_best.max(naive_anchored_core_size(&g, 3, &[pool[i], pool[j]]));
            }
        }
        assert_eq!(best, oracle_best);
    }

    #[test]
    fn heuristics_never_beat_brute_force() {
        let eg = EvolvingGraph::new(toy());
        let params = AvtParams::new(3, 2);
        let brute = BruteForce::default().track(&eg, params).unwrap();
        for result in [
            Greedy.track(&eg, params).unwrap(),
            Olak.track(&eg, params).unwrap(),
            Rcm.track(&eg, params).unwrap(),
        ] {
            assert!(
                result.follower_counts[0] <= brute.follower_counts[0],
                "heuristic found more followers than the optimum"
            );
        }
    }

    #[test]
    fn combination_enumeration_is_complete() {
        let pool: Vec<VertexId> = vec![1, 2, 3, 4];
        let mut seen = Vec::new();
        let mut current = Vec::new();
        for_each_combination(&pool, 2, &mut current, 0, &mut |s| seen.push(s.to_vec()));
        assert_eq!(seen.len(), 6);
        assert!(seen.contains(&vec![1, 4]));
        assert!(seen.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn pool_cap_limits_enumeration() {
        let eg = EvolvingGraph::new(toy());
        let params = AvtParams::new(3, 2);
        let capped = BruteForce { pool_cap: Some(3) }.track(&eg, params).unwrap();
        let exact = BruteForce::default().track(&eg, params).unwrap();
        assert!(
            capped.total_metrics().candidates_probed <= exact.total_metrics().candidates_probed
        );
        // The cap keeps shell-adjacent vertices, so on this toy graph the
        // optimum survives.
        assert_eq!(capped.follower_counts, exact.follower_counts);
    }

    #[test]
    fn small_l_and_empty_pool_edge_cases() {
        // Complete graph: no vertex is outside the 2-core; pool empty.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let eg = EvolvingGraph::new(g);
        let result = BruteForce::default().track(&eg, AvtParams::new(2, 3)).unwrap();
        assert!(result.anchor_sets[0].is_empty());
        assert_eq!(result.follower_counts[0], 0);
    }
}
