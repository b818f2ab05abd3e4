//! Property tests for the two-substrate split: [`CsrGraph`] must be an
//! observationally identical, read-only rendering of [`Graph`], and every
//! analysis built on [`GraphView`] must produce the same answers on either
//! substrate — cores exactly, removal orders up to valid-peel equivalence,
//! and follower counts exactly.

use avt::algo::AnchoredCoreState;
use avt::datasets::ba::barabasi_albert;
use avt::datasets::churn::{evolve, ChurnConfig};
use avt::datasets::er::gnm;
use avt::graph::{CsrGraph, EdgeBatch, Graph, GraphView, VertexId};
use avt::kcore::{max_core_degrees, CoreDecomposition, CoreSpectrum};
use avt::prelude::{AvtAlgorithm, AvtParams, Greedy};
use proptest::prelude::*;

/// Strategy: a random simple graph as (n, edge list).
fn graph_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4..max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

/// Build a simple graph from possibly-duplicated random pairs.
fn build(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let mut g = Graph::new(n);
    for &(u, v) in pairs {
        if u != v && !g.has_edge(u, v) {
            g.insert_edge(u, v).unwrap();
        }
    }
    g
}

/// Replay a decomposition's removal order as a peel on `view` and assert it
/// is legal: every vertex has remaining degree ≤ its core number at the
/// moment of removal. This is the "up to valid-peel equivalence" contract —
/// substrates may order peers within a shell differently, but both orders
/// must witness the same cores.
fn assert_valid_peel<G: GraphView>(view: &G, d: &CoreDecomposition) {
    let mut removed = vec![false; view.num_vertices()];
    for &v in d.order() {
        let rem = view.neighbors(v).iter().filter(|&&w| !removed[w as usize]).count() as u32;
        assert!(rem <= d.core(v), "vertex {v}: remaining {rem} > core {}", d.core(v));
        removed[v as usize] = true;
    }
}

/// Greedy anchor selection through the public state API, on any substrate:
/// per round, evaluate every Theorem-3 candidate and commit the best
/// (smallest id on ties). Returns the per-round gains.
fn greedy_gains<G: GraphView>(graph: &G, k: u32, l: usize) -> Vec<usize> {
    let mut state = AnchoredCoreState::new(graph, k);
    let mut gains = Vec::new();
    for _ in 0..l {
        let candidates = state.candidates();
        let mut best: Option<(VertexId, usize)> = None;
        for &c in &candidates {
            let gain = state.follower_count_of(c);
            if gain == 0 {
                continue;
            }
            best = match best {
                Some((bv, bg)) if bg > gain || (bg == gain && bv < c) => Some((bv, bg)),
                _ => Some((c, gain)),
            };
        }
        let Some((v, gain)) = best else { break };
        state.commit_anchor(v);
        gains.push(gain);
    }
    gains
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR freezing preserves every read query: counts, degrees, sorted
    /// neighbour lists, and membership probes.
    #[test]
    fn csr_agrees_with_graph_on_all_queries((n, pairs) in graph_strategy(40, 150)) {
        let g = build(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        prop_assert_eq!(csr.num_vertices(), g.num_vertices());
        prop_assert_eq!(csr.num_edges(), g.num_edges());
        prop_assert_eq!(CsrGraph::max_degree(&csr), Graph::max_degree(&g));
        for v in g.vertices() {
            prop_assert_eq!(csr.degree(v), g.degree(v), "degree of {}", v);
            let mut nb = g.neighbors(v).to_vec();
            nb.sort_unstable();
            prop_assert_eq!(csr.neighbors(v), &nb[..], "neighbours of {}", v);
            prop_assert!(csr.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "edge ({}, {})", u, v);
            }
        }
    }

    /// Functional batch application on CSR tracks mutable application on
    /// Graph across arbitrary interleaved churn.
    #[test]
    fn csr_apply_batch_tracks_mutable_graph(
        (n, pairs) in graph_strategy(30, 100),
        ops in proptest::collection::vec((any::<bool>(), 0u32..30, 0u32..30), 1..40),
    ) {
        let mut g = build(n, &pairs);
        let mut csr = CsrGraph::from_graph(&g);
        for chunk in ops.chunks(5) {
            // Build a consistent batch: each edge at most once per batch,
            // insertions absent from (and deletions present in) the
            // pre-state.
            let mut touched: Vec<(u32, u32)> = Vec::new();
            let mut ins = Vec::new();
            let mut del = Vec::new();
            for &(insert, a, b) in chunk {
                let (u, v) = (a % n as u32, b % n as u32);
                let key = (u.min(v), u.max(v));
                if u == v || touched.contains(&key) {
                    continue;
                }
                touched.push(key);
                if insert && !g.has_edge(u, v) {
                    ins.push((u, v));
                } else if !insert && g.has_edge(u, v) {
                    del.push((u, v));
                }
            }
            let batch = EdgeBatch::from_pairs(ins, del);
            g.apply_batch(&batch).unwrap();
            csr = csr.apply_batch(&batch).unwrap();
            prop_assert_eq!(csr.num_edges(), g.num_edges());
            prop_assert!(csr.to_graph().is_isomorphic_identity(&g));
        }
    }

    /// Core decomposition assigns identical core numbers, mcd and spectra on
    /// both substrates, and each substrate's removal order is a valid peel.
    #[test]
    fn decomposition_identical_across_substrates(
        (n, pairs) in graph_strategy(40, 150),
        raw_anchors in proptest::collection::vec(0u32..40, 0..3),
    ) {
        let g = build(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let anchors: Vec<VertexId> =
            raw_anchors.into_iter().filter(|&a| (a as usize) < n).collect();
        let dv = CoreDecomposition::compute_anchored(&g, &anchors);
        let dc = CoreDecomposition::compute_anchored(&csr, &anchors);
        prop_assert_eq!(dv.cores(), dc.cores());
        prop_assert_eq!(dv.max_core(), dc.max_core());
        prop_assert_eq!(max_core_degrees(&g, dv.cores()), max_core_degrees(&csr, dc.cores()));
        prop_assert_eq!(CoreSpectrum::from_decomposition(&dv), CoreSpectrum::from_decomposition(&dc));
        assert_valid_peel(&g, &dv);
        assert_valid_peel(&csr, &dc);
        for v in g.vertices() {
            // deg+ is order-dependent but each decomposition must agree
            // with itself when scanned through the other substrate.
            prop_assert_eq!(dv.deg_plus(&g, v), dv.deg_plus(&csr, v));
        }
    }

    /// Follower counts — the §4.2 order-based local queries — are identical
    /// on both substrates for every possible anchor, on ER, BA and
    /// churn-evolved instances alike, and the full Greedy algorithm (which
    /// consumes CSR frames) reports exactly the Vec-substrate gains.
    #[test]
    fn follower_counts_identical_on_er_ba_churn(
        seed in 0u64..500,
        kind in 0usize..3,
        k in 2u32..4,
    ) {
        let n = 30;
        let base = match kind {
            0 => gnm(n, 70, seed),
            1 => barabasi_albert(n, 2, seed),
            _ => {
                let eg = evolve(
                    gnm(n, 60, seed),
                    ChurnConfig { snapshots: 3, ..ChurnConfig::default().scaled(0.01) },
                    seed.wrapping_add(1),
                );
                eg.snapshot(eg.num_snapshots()).unwrap()
            }
        };
        let csr = CsrGraph::from_graph(&base);
        let mut on_vec = AnchoredCoreState::new(&base, k);
        let mut on_csr = AnchoredCoreState::new(&csr, k);
        prop_assert_eq!(on_vec.anchored_core_size(), on_csr.anchored_core_size());
        for x in base.vertices() {
            prop_assert_eq!(
                on_vec.follower_count_of(x),
                on_csr.follower_count_of(x),
                "anchor {} on seed {} kind {}", x, seed, kind
            );
        }
        // The public Greedy (CSR frame pipeline) must report the same
        // per-snapshot follower total as the Vec-substrate greedy loop.
        let gains = greedy_gains(&base, k, 2);
        let eg = avt::graph::EvolvingGraph::new(base);
        let result = Greedy::default().track(&eg, AvtParams::new(k, 2)).unwrap();
        prop_assert_eq!(result.follower_counts[0], gains.iter().sum::<usize>());
    }
}
