//! Property tests for the temporal execution engine: `Engine::pipelined`
//! must be observationally identical to `Engine::sequential` — same
//! anchors, same followers, same aggregated efficiency counters — at any
//! worker count, on ER, BA, and churned evolving instances; and runs over
//! the zero-copy mmap frame source must be bit-identical to resident-frame
//! runs.

use std::sync::atomic::{AtomicUsize, Ordering};

use avt::algo::{AvtParams, Engine, Greedy, Metrics, Olak, Rcm, SnapshotSolver};
use avt::datasets::ba::barabasi_albert;
use avt::datasets::churn::{evolve, ChurnConfig};
use avt::datasets::er::gnm;
use avt::graph::{EvolvingGraph, Graph, MmapFrames, VertexId};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("avt_prop_engine_{}_{tag}_{seq}", std::process::id()))
}

/// Evolve a base graph with a small churn model so the instance has real
/// insertions *and* deletions across a handful of snapshots.
fn churned(base: Graph, snapshots: usize, seed: u64) -> EvolvingGraph {
    let config =
        ChurnConfig { snapshots, remove_min: 1, remove_max: 4, insert_min: 1, insert_max: 4 };
    evolve(base, config, seed)
}

/// Everything determinism covers, per snapshot: anchors, followers, core
/// sizes, counters. Wall-clock fields are deliberately excluded.
type Shape = Vec<(usize, Vec<VertexId>, Vec<VertexId>, usize, usize, Metrics)>;

fn shape(result: &avt::algo::AvtResult) -> Shape {
    result
        .reports
        .iter()
        .map(|r| {
            (
                r.t,
                r.anchors.clone(),
                r.followers.clone(),
                r.base_core_size,
                r.anchored_core_size,
                r.metrics,
            )
        })
        .collect()
}

/// Run `solver` sequentially and pipelined with 1/2/4 workers; every run
/// must produce the identical shape and identical aggregates.
fn assert_engine_equivalence<S: SnapshotSolver>(solver: &S, eg: &EvolvingGraph, params: AvtParams) {
    let seq = Engine::sequential().run(solver, eg, params).unwrap();
    for threads in [1usize, 2, 4] {
        let par = Engine::pipelined(threads).run(solver, eg, params).unwrap();
        assert_eq!(shape(&seq), shape(&par), "shape diverged at threads = {threads}");
        assert_eq!(seq.anchor_sets, par.anchor_sets, "threads = {threads}");
        assert_eq!(seq.follower_counts, par.follower_counts, "threads = {threads}");
        assert_eq!(seq.total_followers(), par.total_followers(), "threads = {threads}");
        assert_eq!(seq.total_metrics(), par.total_metrics(), "threads = {threads}");
    }
}

/// Spill `eg` to a temp `.csrbin` directory and check that every solver's
/// run over the mapped frames is bit-identical (anchors, followers, core
/// sizes, counters) to its run over resident frames — sequentially and
/// pipelined.
fn assert_mmap_equivalence(eg: &EvolvingGraph, params: AvtParams, tag: &str) {
    let dir = temp_dir(tag);
    let frames = MmapFrames::spill(eg, &dir).expect("spill to tmpdir succeeds");
    macro_rules! check {
        ($solver:expr) => {
            let resident = Engine::sequential().run(&$solver, eg, params).unwrap();
            let mapped = Engine::sequential().run(&$solver, &frames, params).unwrap();
            assert_eq!(shape(&resident), shape(&mapped), "sequential mmap diverged");
            let mapped_par = Engine::pipelined(3).run(&$solver, &frames, params).unwrap();
            assert_eq!(shape(&resident), shape(&mapped_par), "pipelined mmap diverged");
        };
    }
    check!(Greedy);
    check!(Olak);
    check!(Rcm);
    std::fs::remove_dir_all(dir).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Erdős–Rényi base + churn, Greedy.
    #[test]
    fn pipelined_matches_sequential_greedy_er(
        n in 12usize..40,
        m_factor in 1usize..4,
        seed in 0u64..500,
        snapshots in 2usize..5,
    ) {
        let eg = churned(gnm(n, m_factor * n, seed), snapshots, seed ^ 0x9e37);
        assert_engine_equivalence(&Greedy, &eg, AvtParams::new(3, 2));
    }

    /// Barabási–Albert base + churn, OLAK (unordered shell search).
    #[test]
    fn pipelined_matches_sequential_olak_ba(
        n in 12usize..36,
        m_per in 2usize..4,
        seed in 0u64..500,
        snapshots in 2usize..5,
    ) {
        let eg = churned(barabasi_albert(n, m_per, seed), snapshots, seed ^ 0x51f1);
        assert_engine_equivalence(&Olak, &eg, AvtParams::new(3, 2));
    }

    /// ER base + churn, RCM (score shortlist), varying k and l.
    #[test]
    fn pipelined_matches_sequential_rcm_er(
        n in 16usize..40,
        seed in 0u64..500,
        k in 2u32..4,
        l in 1usize..4,
    ) {
        let eg = churned(gnm(n, 3 * n, seed), 3, seed ^ 0x0bad);
        assert_engine_equivalence(&Rcm, &eg, AvtParams::new(k, l));
    }

    /// ER base + churn: mmap'd frames reproduce resident frames bit for
    /// bit for Greedy, OLAK, and RCM.
    #[test]
    fn mmap_source_matches_resident_er(
        n in 12usize..36,
        m_factor in 1usize..4,
        seed in 0u64..500,
        snapshots in 2usize..5,
    ) {
        let eg = churned(gnm(n, m_factor * n, seed), snapshots, seed ^ 0x77aa);
        assert_mmap_equivalence(&eg, AvtParams::new(3, 2), "er");
    }

    /// BA base + churn: same equivalence on hub-heavy instances, varying
    /// k and l.
    #[test]
    fn mmap_source_matches_resident_ba(
        n in 12usize..32,
        m_per in 2usize..4,
        seed in 0u64..500,
        k in 2u32..4,
        l in 1usize..4,
    ) {
        let eg = churned(barabasi_albert(n, m_per, seed), 3, seed ^ 0xc0de);
        assert_mmap_equivalence(&eg, AvtParams::new(k, l), "ba");
    }
}
