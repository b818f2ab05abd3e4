//! The temporal execution engine end to end: one Greedy tracking run over
//! a churned evolving graph, sequential vs pipelined with 1/2/4 workers.
//!
//! The pipelined runner's win comes from two overlaps: frame `t+1` is
//! merged while frame `t` is being solved, and (with more than one worker)
//! several snapshots are solved concurrently. `threads-1` isolates the
//! first effect alone; the results are identical at every setting (pinned
//! by `tests/prop_engine.rs`), so only wall time should move here.

use criterion::{criterion_group, criterion_main, Criterion};

use avt_core::{AvtParams, Engine, Greedy};
use avt_datasets::chunglu::chung_lu;
use avt_datasets::churn::{evolve, ChurnConfig};

fn bench_pipeline(c: &mut Criterion) {
    let base = chung_lu(4_000, 20_000, 2.4, 7);
    let config = ChurnConfig { snapshots: 12, ..ChurnConfig::default() };
    let evolving = evolve(base, config, 8);
    let params = AvtParams::new(3, 4);
    let solver = Greedy::default();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("greedy-churn-T12-sequential", |b| {
        b.iter(|| Engine::sequential().run(&solver, &evolving, params).unwrap().total_followers())
    });
    for threads in [1usize, 2, 4] {
        let engine = Engine::pipelined(threads);
        group.bench_function(format!("greedy-churn-T12-threads-{threads}"), |b| {
            b.iter(|| engine.run(&solver, &evolving, params).unwrap().total_followers())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
