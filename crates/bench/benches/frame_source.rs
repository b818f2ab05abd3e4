//! The frame-source axis end to end: one Greedy tracking run over a
//! churned stream, resident `Arc<CsrGraph>` frames vs zero-copy mmap'd
//! `.csrbin` frames, sequential and pipelined.
//!
//! Results are identical between the two sources (pinned by
//! `tests/prop_engine.rs`); what moves is memory residency and — once
//! frames are cached — the cost of frame production: the resident source
//! pays an `apply_batch` array merge per snapshot, the mapped source only
//! pays page faults for the bytes the solver actually touches.

use criterion::{criterion_group, criterion_main, Criterion};

use avt_core::{AvtParams, Engine, Greedy};
use avt_datasets::chunglu::chung_lu;
use avt_datasets::churn::{evolve, ChurnConfig};
use avt_graph::MmapFrames;

fn bench_frame_source(c: &mut Criterion) {
    let base = chung_lu(3_000, 15_000, 2.4, 7);
    let config = ChurnConfig { snapshots: 8, ..ChurnConfig::default() };
    let evolving = evolve(base, config, 8);
    let params = AvtParams::new(3, 4);
    let solver = Greedy::default();

    let dir = std::env::temp_dir().join(format!("avt-bench-frames-{}", std::process::id()));
    let frames = MmapFrames::spill(&evolving, &dir).expect("spill to tmpdir succeeds");

    let mut group = c.benchmark_group("mmap-vs-resident");
    group.sample_size(10);
    let sequential = Engine::sequential();
    group.bench_function("greedy-resident-sequential", |b| {
        b.iter(|| sequential.run(&solver, &evolving, params).unwrap().total_followers())
    });
    group.bench_function("greedy-mmap-sequential", |b| {
        b.iter(|| sequential.run(&solver, &frames, params).unwrap().total_followers())
    });
    for threads in [2usize, 4] {
        let engine = Engine::pipelined(threads);
        group.bench_function(format!("greedy-resident-threads-{threads}"), |b| {
            b.iter(|| engine.run(&solver, &evolving, params).unwrap().total_followers())
        });
        group.bench_function(format!("greedy-mmap-threads-{threads}"), |b| {
            b.iter(|| engine.run(&solver, &frames, params).unwrap().total_followers())
        });
    }
    group.finish();

    let _ = std::fs::remove_dir_all(dir);
}

criterion_group!(benches, bench_frame_source);
criterion_main!(benches);
