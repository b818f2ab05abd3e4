//! Ablation of the §4 Greedy optimizations: Theorem-3 candidate pruning
//! and the order-based follower computation, each toggled independently.
//! Quantifies the speedups the paper attributes to §4.1 and §4.2.

use criterion::{criterion_group, criterion_main, Criterion};

use avt_core::{AvtAlgorithm, AvtParams, Greedy, GreedyConfig};
use avt_datasets::Dataset;

fn bench_ablation(c: &mut Criterion) {
    let ds = Dataset::CollegeMsg;
    let eg = ds.generate(0.2, 6, 42);
    let params = AvtParams::new(ds.default_k(), 5);

    let variants: [(&str, GreedyConfig); 4] = [
        ("full", GreedyConfig::default()),
        ("no-pruning", GreedyConfig { prune_candidates: false, ..GreedyConfig::default() }),
        (
            "no-order-followers",
            GreedyConfig { order_based_followers: false, ..GreedyConfig::default() },
        ),
        ("unoptimized", GreedyConfig { prune_candidates: false, order_based_followers: false }),
    ];

    let mut group = c.benchmark_group("ablation/greedy-optimizations");
    group.sample_size(10);
    for (name, config) in variants {
        let greedy = Greedy::with_config(config);
        group.bench_function(name, |b| {
            b.iter(|| greedy.track(&eg, params).expect("tracking succeeds"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
