//! Microbenchmarks of the substrate: core decomposition, K-order
//! construction, and local follower queries. These are the building blocks
//! whose costs explain the end-to-end figures.
//!
//! The `substrate` group times K-order construction. The `vec-vs-csr`
//! groups run core decomposition and follower queries on both
//! [`GraphView`] substrates — the heap-fragmented `Vec<Vec<VertexId>>`
//! adjacency and the contiguous CSR layout — so the layout's effect on the
//! neighbour-scan hot paths is directly visible. A last group measures the
//! snapshot pipeline itself: incremental `frames()` vs the quadratic
//! `snapshot(t)`-in-a-loop it replaces.

use criterion::{criterion_group, criterion_main, Criterion};

use avt_core::AnchoredCoreState;
use avt_datasets::chunglu::chung_lu;
use avt_datasets::churn::{evolve, ChurnConfig};
use avt_graph::{CsrGraph, GraphView};
use avt_kcore::{CoreDecomposition, KOrder};

fn bench_substrate(c: &mut Criterion) {
    let graph = chung_lu(20_000, 100_000, 2.4, 42);

    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);

    group.bench_function("korder-build-20k-100k", |b| b.iter(|| KOrder::from_graph(&graph)));
    group.finish();
}

/// Decomposition workload, Vec-of-Vec adjacency vs CSR, same graph.
fn bench_decomposition_by_substrate(c: &mut Criterion) {
    let graph = chung_lu(20_000, 100_000, 2.4, 42);
    let csr = CsrGraph::from_graph(&graph);

    let mut group = c.benchmark_group("vec-vs-csr/decomposition");
    group.sample_size(10);
    group.bench_function("vec-20k-100k", |b| b.iter(|| CoreDecomposition::compute(&graph)));
    group.bench_function("csr-20k-100k", |b| b.iter(|| CoreDecomposition::compute(&csr)));
    group.finish();
}

/// Follower-query workload (500 order-based follower counts on a clone of
/// a built state, whose count memo starts empty), Vec-of-Vec vs CSR.
fn bench_followers_by_substrate(c: &mut Criterion) {
    let graph = chung_lu(20_000, 100_000, 2.4, 42);
    let csr = CsrGraph::from_graph(&graph);

    fn run<G: GraphView>(built: &AnchoredCoreState<'_, G>, candidates: &[u32]) -> usize {
        let mut state = built.clone();
        let mut total = 0usize;
        for &x in candidates.iter().take(500) {
            total += state.follower_count_of(x);
        }
        total
    }

    let mut group = c.benchmark_group("vec-vs-csr/follower-queries-k3");
    group.sample_size(10);
    group.bench_function("vec-20k-100k", |b| {
        let mut state = AnchoredCoreState::new(&graph, 3);
        let candidates = state.candidates();
        b.iter(|| run(&state, &candidates))
    });
    group.bench_function("csr-20k-100k", |b| {
        let mut state = AnchoredCoreState::new(&csr, 3);
        let candidates = state.candidates();
        b.iter(|| run(&state, &candidates))
    });
    group.finish();
}

/// The snapshot pipeline: incremental CSR frames vs re-applying batches
/// from `G_1` for every `t` (what `snapshot(t)`-in-a-loop costs).
fn bench_snapshot_pipeline(c: &mut Criterion) {
    let base = chung_lu(5_000, 25_000, 2.4, 7);
    let config = ChurnConfig { snapshots: 20, ..ChurnConfig::default() };
    let evolving = evolve(base, config, 8);

    let mut group = c.benchmark_group("snapshot-pipeline-5k-25k-T20");
    group.sample_size(10);
    group.bench_function("frames-incremental", |b| {
        b.iter(|| evolving.frames().map(|(_, f)| f.num_edges()).sum::<usize>())
    });
    group.bench_function("snapshot-replay-per-t", |b| {
        b.iter(|| {
            (1..=evolving.num_snapshots())
                .map(|t| evolving.snapshot(t).expect("t in range").num_edges())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_substrate,
    bench_decomposition_by_substrate,
    bench_followers_by_substrate,
    bench_snapshot_pipeline
);
criterion_main!(benches);
