//! Cross-algorithm integration tests on randomized evolving graphs: every
//! solver's reported followers must match the naive oracle, heuristics may
//! never beat brute force, and the efficiency ordering the paper reports
//! must hold.

use avt::algo::{AvtAlgorithm, AvtParams, BruteForce, Greedy, IncAvt, Olak, Rcm};
use avt::graph::{EdgeBatch, EvolvingGraph, Graph, VertexId};
use avt_core::oracle::naive_set_followers;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small random evolving graph with genuine churn.
fn random_evolving(seed: u64, n: usize, m: usize, snapshots: usize) -> EvolvingGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    while edges.len() < m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u != v && !g.has_edge(u, v) {
            g.insert_edge(u, v).unwrap();
            edges.push(if u < v { (u, v) } else { (v, u) });
        }
    }
    let mut evolving = EvolvingGraph::new(g.clone());
    let mut current = g;
    for _ in 1..snapshots {
        let mut insertions = Vec::new();
        let mut deletions = Vec::new();
        for _ in 0..(m / 10).max(1) {
            // one deletion
            if !edges.is_empty() {
                let i = rng.gen_range(0..edges.len());
                let (a, b) = edges.swap_remove(i);
                current.remove_edge(a, b).unwrap();
                deletions.push((a, b));
            }
            // one insertion
            loop {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v && !current.has_edge(u, v) && !deletions.contains(&(u.min(v), u.max(v))) {
                    current.insert_edge(u, v).unwrap();
                    edges.push(if u < v { (u, v) } else { (v, u) });
                    insertions.push((u, v));
                    break;
                }
            }
        }
        evolving.push_batch(EdgeBatch::from_pairs(insertions, deletions));
    }
    evolving
}

fn all_solvers() -> Vec<Box<dyn AvtAlgorithm>> {
    vec![Box::new(Greedy), Box::new(Olak), Box::new(IncAvt), Box::new(Rcm)]
}

#[test]
fn reported_followers_always_match_the_oracle() {
    for seed in 0..6u64 {
        let evolving = random_evolving(seed, 30, 90, 4);
        let params = AvtParams::new(3, 3);
        for solver in all_solvers() {
            let result = solver.track(&evolving, params).unwrap();
            for report in &result.reports {
                let g_t = evolving.snapshot(report.t).unwrap();
                let oracle = naive_set_followers(&g_t, params.k, &report.anchors);
                let mut got = report.followers.clone();
                got.sort_unstable();
                assert_eq!(
                    got,
                    oracle,
                    "{} misreported followers at seed {seed}, t = {}",
                    solver.name(),
                    report.t
                );
                assert_eq!(
                    report.anchored_core_size,
                    report.base_core_size + report.anchors.len() + report.followers.len(),
                    "{} size bookkeeping at seed {seed}, t = {}",
                    solver.name(),
                    report.t
                );
            }
        }
    }
}

#[test]
fn heuristics_never_beat_brute_force() {
    for seed in 0..4u64 {
        let evolving = random_evolving(100 + seed, 20, 55, 2);
        let params = AvtParams::new(3, 2);
        let brute = BruteForce::default().track(&evolving, params).unwrap();
        for solver in all_solvers() {
            let result = solver.track(&evolving, params).unwrap();
            for t in 0..evolving.num_snapshots() {
                assert!(
                    result.follower_counts[t] <= brute.follower_counts[t],
                    "{} beat brute force at seed {seed}, t = {} ({} > {})",
                    solver.name(),
                    t + 1,
                    result.follower_counts[t],
                    brute.follower_counts[t]
                );
            }
        }
    }
}

#[test]
fn optimized_greedy_prunes_but_matches_unoptimized() {
    // OLAK is Greedy's selection loop with both §4 optimizations off.
    for seed in 20..24u64 {
        let evolving = random_evolving(seed, 35, 110, 3);
        let params = AvtParams::new(3, 3);
        let fast = Greedy.track(&evolving, params).unwrap();
        let slow = Olak.track(&evolving, params).unwrap();
        assert_eq!(fast.anchor_sets, slow.anchor_sets, "seed {seed}");
        assert_eq!(fast.follower_counts, slow.follower_counts, "seed {seed}");
        assert!(
            fast.total_metrics().candidates_probed <= slow.total_metrics().candidates_probed,
            "pruning must not probe more candidates (seed {seed})"
        );
    }
}

#[test]
fn olak_greedy_agree_and_olak_visits_more() {
    for seed in 40..44u64 {
        let evolving = random_evolving(seed, 35, 110, 3);
        let params = AvtParams::new(3, 3);
        let olak = Olak.track(&evolving, params).unwrap();
        let greedy = Greedy.track(&evolving, params).unwrap();
        assert_eq!(olak.follower_counts, greedy.follower_counts, "seed {seed}");
        assert!(
            olak.total_metrics().vertices_visited >= greedy.total_metrics().vertices_visited,
            "OLAK should never visit fewer vertices than Greedy (seed {seed})"
        );
    }
}

#[test]
fn incavt_stays_close_to_greedy_effectiveness() {
    // The paper's local search trades a little effectiveness for a lot of
    // efficiency; on these small graphs it must stay within 40% of the
    // per-snapshot recompute in total.
    for seed in 60..64u64 {
        let evolving = random_evolving(seed, 40, 130, 5);
        let params = AvtParams::new(3, 3);
        let inc = IncAvt.track(&evolving, params).unwrap();
        let greedy = Greedy.track(&evolving, params).unwrap();
        let (it, gt) = (inc.total_followers(), greedy.total_followers());
        assert!(
            10 * it >= 6 * gt,
            "IncAVT lost too much effectiveness at seed {seed}: {it} vs {gt}"
        );
    }
}

#[test]
fn empty_and_degenerate_graphs() {
    // No edges at all: nothing to anchor, nothing crashes.
    let evolving = EvolvingGraph::new(Graph::new(10));
    let params = AvtParams::new(2, 3);
    for solver in all_solvers() {
        let result = solver.track(&evolving, params).unwrap();
        assert_eq!(result.follower_counts, vec![0], "{}", solver.name());
        assert!(result.anchor_sets[0].is_empty());
    }
}
