//! Ablation of §5.2: incremental K-order maintenance vs rebuilding the
//! decomposition for every snapshot — the core claim behind IncAVT.
//!
//! Two streams, one on each side of the maintenance's repair/rebuild
//! crossover: the email-Enron stand-in (static churn, every batch
//! repaired; labels `ablation/korder-maintenance/{incremental-maintenance,
//! rebuild-per-snapshot}`) and the mathoverflow stand-in at scale 0.1 (a
//! temporal window, every batch decomposed; the same labels under
//! `ablation/korder-maintenance/mathoverflow/`).

use criterion::{criterion_group, criterion_main, Criterion};

use avt_datasets::Dataset;
use avt_kcore::{KOrder, MaintainedCore};

fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/korder-maintenance");
    group.sample_size(10);
    for (ds, scale, prefix) in
        [(Dataset::EmailEnron, 0.05, ""), (Dataset::MathOverflow, 0.1, "mathoverflow/")]
    {
        let eg = ds.generate(scale, 10, 42);
        group.bench_function(format!("{prefix}incremental-maintenance"), |b| {
            b.iter(|| {
                let mut mc = MaintainedCore::new(eg.initial().clone());
                for batch in eg.batches() {
                    mc.apply_batch(batch).expect("batches apply");
                }
                mc.korder().live_count(1)
            })
        });

        group.bench_function(format!("{prefix}rebuild-per-snapshot"), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for (_, frame) in eg.frames() {
                    let korder = KOrder::from_graph(&frame);
                    total += korder.live_count(1);
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_maintenance);
criterion_main!(benches);
