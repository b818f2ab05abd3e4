//! The temporal execution engine end to end: one Greedy tracking run over
//! a churned evolving graph, crossing the runner (sequential, then
//! pipelined with 1/2/4 workers) with the frame source (resident
//! `Arc<CsrGraph>` frames, zero-copy mmap'd `.csrbin` frames).
//!
//! The pipelined runner's win comes from two overlaps: frame `t+1` is
//! produced while frame `t` is being solved, and (with more than one
//! worker) several snapshots are solved concurrently. `threads-1` isolates
//! the first effect alone. The resident source pays an `apply_batch` array
//! merge per frame; the mapped source pays only page faults for the bytes
//! the solver touches. Results are identical at every setting (pinned by
//! `tests/prop_engine.rs`), so only wall time should move here.

use criterion::{criterion_group, criterion_main, Criterion};

use avt_core::{AvtParams, Engine, Greedy};
use avt_datasets::chunglu::chung_lu;
use avt_datasets::churn::{evolve, ChurnConfig};
use avt_graph::MmapFrames;

fn bench_pipeline(c: &mut Criterion) {
    let base = chung_lu(4_000, 20_000, 2.4, 7);
    let config = ChurnConfig { snapshots: 12, ..ChurnConfig::default() };
    let evolving = evolve(base, config, 8);
    let params = AvtParams::new(3, 4);

    let dir = std::env::temp_dir().join(format!("avt-bench-frames-{}", std::process::id()));
    let frames = MmapFrames::spill(&evolving, &dir).expect("spill to tmpdir succeeds");

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for (runner, engine) in [
        ("sequential", Engine::sequential()),
        ("threads-1", Engine::pipelined(1)),
        ("threads-2", Engine::pipelined(2)),
        ("threads-4", Engine::pipelined(4)),
    ] {
        group.bench_function(format!("greedy-churn-T12-resident-{runner}"), |b| {
            b.iter(|| engine.run(&Greedy, &evolving, params).unwrap().total_followers())
        });
        group.bench_function(format!("greedy-churn-T12-mmap-{runner}"), |b| {
            b.iter(|| engine.run(&Greedy, &frames, params).unwrap().total_followers())
        });
    }
    group.finish();

    let _ = std::fs::remove_dir_all(dir);
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
