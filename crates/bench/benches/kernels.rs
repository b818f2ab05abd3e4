//! Scalar-vs-branchless microbenchmarks of the `avt_kcore::kernels` axis,
//! on both CSR substrates (resident [`CsrGraph`] and page-cache
//! [`MmapCsr`]) — the numbers behind the PR 7 "kernels axis" claims.
//!
//! Each group runs the *same* workload under both kernel tables, switched
//! with [`kernels::set_kernel`] (the shim executes benchmarks inline, so
//! the switch takes effect for exactly the labelled runs):
//!
//! * `kernels/peel` — full core decomposition (the bucket peel's
//!   `deg > dv` scan + bucket moves).
//! * `kernels/follower-scan` — candidate scan + 500 order-based follower
//!   evaluations (region expansion, support counts, fixpoint peel).
//! * `kernels/evaluate` — one Greedy round on the `track` instance (the
//!   email-Enron stand-in at scale 0.2, k = 10): the follower count of
//!   every Theorem-3 candidate, with the state and candidates built
//!   outside the timed body, so only follower evaluation is timed.
//! * `kernels/state-new` — `AnchoredCoreState::new` on the same `track`
//!   instance: the two threshold cascades, the shell peel and the scratch
//!   arrays every per-snapshot solver and every `FOLLOWERS`/`ANCHORED`
//!   request pays.
//! * `kernels/state-commit` — on the same state, commit the 10 anchors
//!   Greedy picks on the `track` instance, then uncommit them in order:
//!   twenty local repairs, which leave the state as it was built.
//! * `kernels/mcd` — max-core-degree sweep over every vertex
//!   (`count_ge` with one-range-ahead prefetch).
//! * `kernels/members` — k-core membership compress over the core array.
//!
//! Labels are `group/workload/{scalar,branchless}-{resident,mmap}`; smoke
//! runs fold the medians into `bench-medians.json` (see the criterion shim).

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};

use avt_core::{AnchoredCoreState, AvtParams, Greedy, SnapshotSolver};
use avt_datasets::chunglu::chung_lu;
use avt_datasets::Dataset;
use avt_graph::io::write_csrbin_file;
use avt_graph::{CsrGraph, GraphView, MmapCsr, VertexId};
use avt_kcore::kernels::{self, Kernel};
use avt_kcore::{k_core_members, max_core_degrees, CoreDecomposition};

const KERNELS: [Kernel; 2] = [Kernel::Scalar, Kernel::Branchless];

/// The benchmark graph: the same 20k/100k Chung-Lu instance the substrate
/// benches use, so kernel numbers compose with the vec-vs-csr ones.
fn bench_graph() -> CsrGraph {
    CsrGraph::from_graph(&chung_lu(20_000, 100_000, 2.4, 42))
}

/// Spill `csr` to a temp `.csrbin` and map it back — the page-cache
/// substrate. The file stays behind in the temp dir for the process
/// lifetime (the map must outlive the benches that scan it).
fn mapped_copy(csr: &CsrGraph) -> MmapCsr {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("avt_bench_kernels_{}_{seq}.csrbin", std::process::id()));
    write_csrbin_file(csr, &path).expect("temp dir is writable");
    MmapCsr::open(&path).expect("just-written csrbin maps")
}

fn bench_peel(c: &mut Criterion) {
    let csr = bench_graph();
    let mapped = mapped_copy(&csr);
    let mut g = c.benchmark_group("kernels/peel");
    g.sample_size(10);
    for kernel in KERNELS {
        kernels::set_kernel(kernel);
        g.bench_function(format!("{kernel}-resident"), |b| {
            b.iter(|| CoreDecomposition::compute(&csr))
        });
        g.bench_function(format!("{kernel}-mmap"), |b| {
            b.iter(|| CoreDecomposition::compute(&mapped))
        });
    }
    g.finish();
    kernels::set_kernel(Kernel::Scalar);
}

fn bench_follower_scan(c: &mut Criterion) {
    let csr = bench_graph();
    let mapped = mapped_copy(&csr);

    fn run<G: GraphView>(graph: &G) -> usize {
        let mut state = AnchoredCoreState::new(graph, 3);
        let candidates = state.candidates();
        let mut total = 0usize;
        for &x in candidates.iter().take(500) {
            total += state.follower_count_of(x);
        }
        total
    }

    let mut g = c.benchmark_group("kernels/follower-scan");
    g.sample_size(10);
    for kernel in KERNELS {
        kernels::set_kernel(kernel);
        g.bench_function(format!("{kernel}-resident"), |b| b.iter(|| run(&csr)));
        g.bench_function(format!("{kernel}-mmap"), |b| b.iter(|| run(&mapped)));
    }
    g.finish();
    kernels::set_kernel(Kernel::Scalar);
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

    fn round<G: GraphView>(state: &mut AnchoredCoreState<'_, G>, candidates: &[VertexId]) -> usize {
        candidates.iter().map(|&x| state.follower_count_of(x)).sum()
    }

    let mut g = c.benchmark_group("kernels/evaluate");
    g.sample_size(10);
    for kernel in KERNELS {
        kernels::set_kernel(kernel);
        let mut resident = AnchoredCoreState::new(&csr, TRACK_K);
        let candidates = resident.candidates();
        g.bench_function(format!("{kernel}-resident"), |b| {
            b.iter(|| round(&mut resident, &candidates))
        });
        let mut on_map = AnchoredCoreState::new(&mapped, TRACK_K);
        let candidates = on_map.candidates();
        g.bench_function(format!("{kernel}-mmap"), |b| b.iter(|| round(&mut on_map, &candidates)));
    }
    g.finish();
    kernels::set_kernel(Kernel::Scalar);
}

fn bench_state_new(c: &mut Criterion) {
    let csr = track_graph();
    let mapped = mapped_copy(&csr);
    let mut g = c.benchmark_group("kernels/state-new");
    g.sample_size(10);
    for kernel in KERNELS {
        kernels::set_kernel(kernel);
        g.bench_function(format!("{kernel}-resident"), |b| {
            b.iter(|| AnchoredCoreState::new(&csr, TRACK_K).anchored_core_size())
        });
        g.bench_function(format!("{kernel}-mmap"), |b| {
            b.iter(|| AnchoredCoreState::new(&mapped, TRACK_K).anchored_core_size())
        });
    }
    g.finish();
    kernels::set_kernel(Kernel::Scalar);
}

fn bench_state_commit(c: &mut Criterion) {
    let csr = track_graph();
    let mapped = mapped_copy(&csr);
    let anchors = Greedy::default().solve_snapshot(1, &csr, AvtParams::new(TRACK_K, 10)).anchors;

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
    for kernel in KERNELS {
        kernels::set_kernel(kernel);
        let mut resident = AnchoredCoreState::new(&csr, TRACK_K);
        g.bench_function(format!("{kernel}-resident"), |b| {
            b.iter(|| commit_uncommit(&mut resident, &anchors))
        });
        let mut on_map = AnchoredCoreState::new(&mapped, TRACK_K);
        g.bench_function(format!("{kernel}-mmap"), |b| {
            b.iter(|| commit_uncommit(&mut on_map, &anchors))
        });
    }
    g.finish();
    kernels::set_kernel(Kernel::Scalar);
}

fn bench_mcd(c: &mut Criterion) {
    let csr = bench_graph();
    let mapped = mapped_copy(&csr);
    let cores = CoreDecomposition::compute(&csr).cores().to_vec();

    let mut g = c.benchmark_group("kernels/mcd");
    g.sample_size(10);
    for kernel in KERNELS {
        kernels::set_kernel(kernel);
        g.bench_function(format!("{kernel}-resident"), |b| {
            b.iter(|| max_core_degrees(&csr, &cores))
        });
        g.bench_function(format!("{kernel}-mmap"), |b| {
            b.iter(|| max_core_degrees(&mapped, &cores))
        });
    }
    g.finish();
    kernels::set_kernel(Kernel::Scalar);
}

fn bench_members(c: &mut Criterion) {
    let csr = bench_graph();
    let cores = CoreDecomposition::compute(&csr).cores().to_vec();

    // Membership filtering scans the core array, not the graph, so there is
    // no substrate axis here — just scalar vs branchless compress.
    let mut g = c.benchmark_group("kernels/members");
    g.sample_size(10);
    for kernel in KERNELS {
        kernels::set_kernel(kernel);
        g.bench_function(format!("{kernel}-k3"), |b| b.iter(|| k_core_members(&cores, 3)));
    }
    g.finish();
    kernels::set_kernel(Kernel::Scalar);
}

criterion_group!(
    benches,
    bench_peel,
    bench_follower_scan,
    bench_evaluate,
    bench_state_new,
    bench_state_commit,
    bench_mcd,
    bench_members
);
criterion_main!(benches);
