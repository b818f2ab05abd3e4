//! Microbenchmarks of the hot scan loops — the bucket peel, the follower
//! scans, the anchored-state repairs, one per-snapshot Greedy solve and
//! k-core membership — on both CSR substrates (resident [`CsrGraph`] and
//! page-cache [`MmapCsr`]):
//!
//! * `kernels/peel` — full core decomposition (the bucket peel's
//!   `deg > dv` scan + bucket moves).
//! * `kernels/follower-scan` — 500 order-based follower evaluations (the
//!   pass in shell order, which keeps slots and builds their supports, then
//!   the fixpoint peel of the kept set) on the first 500 Theorem-3
//!   candidates. The state and the candidates are built outside the timed
//!   body, and each evaluation is a `followers_of`, which never reads the
//!   count memo, so every sample pays all 500.
//! * `kernels/evaluate` — one Greedy round on the `track` instance (the
//!   email-Enron stand-in at scale 0.2, k = 10): the follower count of
//!   every Theorem-3 candidate. The state and candidates are built outside
//!   the timed body. The timed body clones the state (an O(n) copy whose
//!   count memo starts empty) and counts every candidate on the clone, so
//!   each sample is a first round: it pays its own evaluations, and the
//!   count memo serves only counts memoized within that round.
//! * `kernels/state-new` — `AnchoredCoreState::new` on the same `track`
//!   instance: the two threshold cascades, the shell peel and the scratch
//!   arrays every per-snapshot solver and every `FOLLOWERS`/`ANCHORED`
//!   request pays.
//! * `kernels/followers-of` — one `followers_of` on a state built for the
//!   same instance, the query a `FOLLOWERS` request pays after the
//!   construction. The anchor is the one Greedy commits first there, so
//!   the query's pass keeps and peels a real region.
//! * `kernels/state-commit` — on the same state, commit the 10 anchors
//!   Greedy picks on the `track` instance, then uncommit them in order:
//!   twenty local repairs, which leave the state as it was built. Each
//!   re-peels the shell from the index it replaces.
//! * `kernels/greedy-solve` — one `Greedy::solve_snapshot` with l = 10 on
//!   the `track` instance: the construction, ten rounds of counts and the
//!   ten commits, the per-snapshot solver rung.
//! * `kernels/members` — k-core membership filter over the core array.
//!
//! Labels are `kernels/<group>/{resident,mmap}`, and `kernels/members/k3`
//! for the one substrate-free group; smoke runs fold the medians into
//! `bench-medians.json` (see the criterion shim).

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};

use avt_core::{AnchoredCoreState, AvtParams, Greedy, SnapshotSolver};
use avt_datasets::chunglu::chung_lu;
use avt_datasets::Dataset;
use avt_graph::io::write_csrbin_file;
use avt_graph::{CsrGraph, GraphView, MmapCsr, VertexId};
use avt_kcore::{k_core_members, CoreDecomposition};

/// The benchmark graph: the same 20k/100k Chung-Lu instance the substrate
/// benches use, so these numbers compose with the vec-vs-csr ones.
fn bench_graph() -> CsrGraph {
    CsrGraph::from_graph(&chung_lu(20_000, 100_000, 2.4, 42))
}

/// Spill `csr` to a temp `.csrbin` and map it back — the page-cache
/// substrate. The file is deleted as soon as it is open: the mapping (or,
/// off 64-bit Unix, the owned read) keeps the bytes for as long as the
/// returned view lives.
fn mapped_copy(csr: &CsrGraph) -> MmapCsr {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("avt_bench_kernels_{}_{seq}.csrbin", std::process::id()));
    write_csrbin_file(csr, &path).expect("temp dir is writable");
    let mapped = MmapCsr::open(&path).expect("just-written csrbin maps");
    std::fs::remove_file(&path).expect("just-written csrbin is removable");
    mapped
}

fn bench_peel(c: &mut Criterion) {
    let csr = bench_graph();
    let mapped = mapped_copy(&csr);
    let mut g = c.benchmark_group("kernels/peel");
    g.sample_size(10);
    g.bench_function("resident", |b| b.iter(|| CoreDecomposition::compute(&csr)));
    g.bench_function("mmap", |b| b.iter(|| CoreDecomposition::compute(&mapped)));
    g.finish();
}

fn bench_follower_scan(c: &mut Criterion) {
    let csr = bench_graph();
    let mapped = mapped_copy(&csr);

    fn scan<G: GraphView>(state: &mut AnchoredCoreState<'_, G>, candidates: &[VertexId]) -> usize {
        candidates.iter().map(|&x| state.followers_of(x).len()).sum()
    }

    let mut g = c.benchmark_group("kernels/follower-scan");
    g.sample_size(10);
    let mut resident = AnchoredCoreState::new(&csr, 3);
    let candidates: Vec<VertexId> = resident.candidates().into_iter().take(500).collect();
    g.bench_function("resident", |b| b.iter(|| scan(&mut resident, &candidates)));
    let mut on_map = AnchoredCoreState::new(&mapped, 3);
    let candidates: Vec<VertexId> = on_map.candidates().into_iter().take(500).collect();
    g.bench_function("mmap", |b| b.iter(|| scan(&mut on_map, &candidates)));
    g.finish();
}

/// The `k` perfbench's calibration picks for its `track` workload.
const TRACK_K: u32 = 10;

/// The initial snapshot of perfbench's `track` workload (before its vertex
/// relabelling).
fn track_graph() -> CsrGraph {
    CsrGraph::from_graph(Dataset::EmailEnron.generate(0.2, 1, 42).initial())
}

fn bench_evaluate(c: &mut Criterion) {
    let csr = track_graph();
    let mapped = mapped_copy(&csr);

    fn round<G: GraphView>(built: &AnchoredCoreState<'_, G>, candidates: &[VertexId]) -> usize {
        let mut state = built.clone();
        candidates.iter().map(|&x| state.follower_count_of(x)).sum()
    }

    let mut g = c.benchmark_group("kernels/evaluate");
    g.sample_size(10);
    let mut resident = AnchoredCoreState::new(&csr, TRACK_K);
    let candidates = resident.candidates();
    g.bench_function("resident", |b| b.iter(|| round(&resident, &candidates)));
    let mut on_map = AnchoredCoreState::new(&mapped, TRACK_K);
    let candidates = on_map.candidates();
    g.bench_function("mmap", |b| b.iter(|| round(&on_map, &candidates)));
    g.finish();
}

fn bench_state_new(c: &mut Criterion) {
    let csr = track_graph();
    let mapped = mapped_copy(&csr);
    let mut g = c.benchmark_group("kernels/state-new");
    g.sample_size(10);
    g.bench_function("resident", |b| {
        b.iter(|| AnchoredCoreState::new(&csr, TRACK_K).anchored_core_size())
    });
    g.bench_function("mmap", |b| {
        b.iter(|| AnchoredCoreState::new(&mapped, TRACK_K).anchored_core_size())
    });
    g.finish();
}

fn bench_followers_of(c: &mut Criterion) {
    let csr = track_graph();
    let mapped = mapped_copy(&csr);
    let anchor = Greedy.solve_snapshot(1, &csr, AvtParams::new(TRACK_K, 1)).anchors[0];
    let mut g = c.benchmark_group("kernels/followers-of");
    g.sample_size(10);
    let mut resident = AnchoredCoreState::new(&csr, TRACK_K);
    g.bench_function("resident", |b| b.iter(|| resident.followers_of(anchor)));
    let mut on_map = AnchoredCoreState::new(&mapped, TRACK_K);
    g.bench_function("mmap", |b| b.iter(|| on_map.followers_of(anchor)));
    g.finish();
}

fn bench_state_commit(c: &mut Criterion) {
    let csr = track_graph();
    let mapped = mapped_copy(&csr);
    let anchors = Greedy.solve_snapshot(1, &csr, AvtParams::new(TRACK_K, 10)).anchors;

    fn commit_uncommit<G: GraphView>(state: &mut AnchoredCoreState<'_, G>, anchors: &[VertexId]) {
        for &a in anchors {
            state.commit_anchor(a);
        }
        for &a in anchors {
            state.uncommit_anchor(a);
        }
    }

    let mut g = c.benchmark_group("kernels/state-commit");
    g.sample_size(10);
    let mut resident = AnchoredCoreState::new(&csr, TRACK_K);
    g.bench_function("resident", |b| b.iter(|| commit_uncommit(&mut resident, &anchors)));
    let mut on_map = AnchoredCoreState::new(&mapped, TRACK_K);
    g.bench_function("mmap", |b| b.iter(|| commit_uncommit(&mut on_map, &anchors)));
    g.finish();
}

fn bench_greedy_solve(c: &mut Criterion) {
    let csr = track_graph();
    let mapped = mapped_copy(&csr);
    let params = AvtParams::new(TRACK_K, 10);
    let mut g = c.benchmark_group("kernels/greedy-solve");
    g.sample_size(10);
    g.bench_function("resident", |b| b.iter(|| Greedy.solve_snapshot(1, &csr, params)));
    g.bench_function("mmap", |b| b.iter(|| Greedy.solve_snapshot(1, &mapped, params)));
    g.finish();
}

fn bench_members(c: &mut Criterion) {
    let csr = bench_graph();
    let cores = CoreDecomposition::compute(&csr).cores().to_vec();

    // Membership filtering scans the core array, not the graph, so there is
    // no substrate split here.
    let mut g = c.benchmark_group("kernels/members");
    g.sample_size(10);
    g.bench_function("k3", |b| b.iter(|| k_core_members(&cores, 3)));
    g.finish();
}

criterion_group!(
    benches,
    bench_peel,
    bench_follower_scan,
    bench_evaluate,
    bench_state_new,
    bench_followers_of,
    bench_state_commit,
    bench_greedy_solve,
    bench_members
);
criterion_main!(benches);
