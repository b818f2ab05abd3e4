//! Property tests for the zero-copy substrate: an [`MmapCsr`] opened from
//! a spilled `.csrbin` file must agree with the [`CsrGraph`] it was
//! written from on *every* [`GraphView`] query — counts, degrees,
//! neighbour slices (order included), membership probes, edge iteration —
//! and the decomposition and follower answers computed on the mapped view
//! must equal the resident ones exactly.

use std::sync::atomic::{AtomicUsize, Ordering};

use avt::algo::AnchoredCoreState;
use avt::graph::io::write_csrbin_file;
use avt::graph::{CsrGraph, Graph, GraphView, MmapCsr, VertexId};
use avt::kcore::{k_core_members, CoreDecomposition, CoreSpectrum};
use proptest::prelude::*;

fn temp_file(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("avt_prop_mmap_{}_{tag}_{seq}.csrbin", std::process::id()))
}

/// Strategy: a random simple graph as (n, edge list) — the same shape the
/// substrate property suite uses.
fn graph_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
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

/// Everything a decomposition exposes, flattened for whole-value equality:
/// core numbers, removal order, positions, per-vertex `deg_plus`, the
/// shell spectrum, and the k-core members for every k.
#[derive(Debug, PartialEq, Eq)]
struct DecompFingerprint {
    cores: Vec<u32>,
    order: Vec<VertexId>,
    pos: Vec<u32>,
    deg_plus: Vec<u32>,
    shells: Vec<usize>,
    members: Vec<Vec<VertexId>>,
}

fn decomp_fingerprint<G: GraphView>(graph: &G) -> DecompFingerprint {
    let d = CoreDecomposition::compute(graph);
    DecompFingerprint {
        cores: d.cores().to_vec(),
        order: d.order().to_vec(),
        pos: graph.vertices().map(|v| d.pos(v)).collect(),
        deg_plus: graph.vertices().map(|v| d.deg_plus(graph, v)).collect(),
        shells: CoreSpectrum::from_decomposition(&d).shells().to_vec(),
        members: (0..=d.max_core() + 1).map(|k| k_core_members(d.cores(), k)).collect(),
    }
}

/// Every follower and candidate answer of the anchored-core state,
/// flattened for whole-value equality.
#[derive(Debug, PartialEq, Eq)]
struct FollowerFingerprint {
    ordered: Vec<Vec<VertexId>>,
    unordered: Vec<Vec<VertexId>>,
    counts: Vec<usize>,
    candidates: Vec<VertexId>,
    candidates_unordered: Vec<VertexId>,
}

fn follower_fingerprint<G: GraphView>(graph: &G, k: u32) -> FollowerFingerprint {
    let mut state = AnchoredCoreState::new(graph, k);
    FollowerFingerprint {
        ordered: graph.vertices().map(|x| state.followers_of(x)).collect(),
        unordered: graph.vertices().map(|x| state.followers_of_unordered(x)).collect(),
        counts: graph.vertices().map(|x| state.follower_count_of(x)).collect(),
        candidates: state.candidates(),
        candidates_unordered: state.candidates_unordered(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every GraphView query agrees between the resident CSR frame and its
    /// mapped rendering.
    #[test]
    fn mmap_agrees_with_csr_on_every_query((n, pairs) in graph_strategy(48, 160)) {
        let g = build(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let path = temp_file("agrees");
        write_csrbin_file(&csr, &path).unwrap();
        let mapped = MmapCsr::open(&path).unwrap();

        prop_assert_eq!(GraphView::num_vertices(&mapped), csr.num_vertices());
        prop_assert_eq!(GraphView::num_edges(&mapped), csr.num_edges());
        prop_assert_eq!(GraphView::max_degree(&mapped), csr.max_degree());
        prop_assert_eq!(GraphView::avg_degree(&mapped), csr.avg_degree());
        for u in csr.vertices() {
            prop_assert_eq!(GraphView::degree(&mapped, u), csr.degree(u));
            prop_assert_eq!(mapped.neighbors(u), csr.neighbors(u));
        }
        // Membership probes: every present edge, plus a stripe of absent
        // pairs, self-loops, and out-of-range endpoints.
        for e in csr.edges() {
            prop_assert!(mapped.has_edge(e.u, e.v) && mapped.has_edge(e.v, e.u));
        }
        for u in csr.vertices() {
            prop_assert!(!mapped.has_edge(u, u));
            let absent = (0..n as u32).find(|&v| v != u && !csr.has_edge(u, v));
            if let Some(v) = absent {
                prop_assert!(!mapped.has_edge(u, v));
            }
            prop_assert!(!mapped.has_edge(u, n as u32 + 3));
        }
        let mapped_edges: Vec<_> = GraphView::edges(&mapped).collect();
        let csr_edges: Vec<_> = csr.edges().collect();
        prop_assert_eq!(mapped_edges, csr_edges);

        std::fs::remove_file(path).unwrap();
    }

    /// Analysis layers built on GraphView produce identical answers on the
    /// mapped substrate: core numbers (the peel walks neighbour slices in
    /// order, so even the removal order must match between two CSR layouts
    /// with identical arrays).
    #[test]
    fn core_decomposition_identical_on_mmap((n, pairs) in graph_strategy(40, 120)) {
        let g = build(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let path = temp_file("cores");
        write_csrbin_file(&csr, &path).unwrap();
        let mapped = MmapCsr::open(&path).unwrap();

        let resident = CoreDecomposition::compute(&csr);
        let zero_copy = CoreDecomposition::compute(&mapped);
        for v in csr.vertices() {
            prop_assert_eq!(resident.core(v), zero_copy.core(v));
        }
        prop_assert_eq!(resident.order(), zero_copy.order());

        std::fs::remove_file(path).unwrap();
    }

    /// Everything else a decomposition exposes is identical on the resident
    /// and mapped CSR too: positions, `deg_plus`, spectra and k-core
    /// membership for every k.
    #[test]
    fn decomposition_fingerprint_identical_on_mmap((n, pairs) in graph_strategy(40, 150)) {
        let g = build(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let path = temp_file("fingerprint");
        write_csrbin_file(&csr, &path).unwrap();
        let mapped = MmapCsr::open(&path).unwrap();

        prop_assert_eq!(decomp_fingerprint(&csr), decomp_fingerprint(&mapped));

        std::fs::remove_file(path).unwrap();
    }

    /// Follower sets (ordered and OLAK-unordered), follower counts and both
    /// candidate scans are identical on the resident and mapped CSR.
    #[test]
    fn followers_identical_on_mmap((n, pairs) in graph_strategy(28, 100), k in 2u32..5) {
        let g = build(n, &pairs);
        let csr = CsrGraph::from_graph(&g);
        let path = temp_file("followers");
        write_csrbin_file(&csr, &path).unwrap();
        let mapped = MmapCsr::open(&path).unwrap();

        prop_assert_eq!(follower_fingerprint(&csr, k), follower_fingerprint(&mapped, k), "k = {}", k);

        std::fs::remove_file(path).unwrap();
    }
}
