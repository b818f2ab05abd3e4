//! Writer-path microbenchmarks: batch-apply throughput under the
//! `AVT_WRITE_SHARDS` axis, and end-to-end admission (watermark buffer →
//! sanitize → sharded peel → publish) under in-order vs shuffled
//! delivery — the numbers behind the PR 8 "sharded writer" claims.
//!
//! * `writer/batch-apply` — [`MaintainedCore::apply_batch_with_shards`]
//!   over a scripted churn stream, shard counts 1/2/4 side by side (the
//!   explicit-shards form, so no global axis flips are involved). Every
//!   count runs the same batched repair; `s1` screens on the calling
//!   thread and is the default path.
//! * `writer/admission` — the same stream pushed through an
//!   [`Admission`] buffer in arrival order and in a fixed shuffle within
//!   the lag window, for each shard count (here the axis *is* the
//!   process-wide knob, switched around the labelled runs exactly like
//!   the kernels bench switches kernel tables).
//!
//! Labels are `writer/batch-apply/s{N}` and
//! `writer/admission/{in-order,shuffled}-s{N}`; smoke runs fold the
//! medians into `bench-medians.json` (see the criterion shim).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use avt_datasets::chunglu::chung_lu;
use avt_datasets::churn::{evolve, ChurnConfig};
use avt_graph::{EdgeBatch, EvolvingGraph, Graph};
use avt_kcore::MaintainedCore;
use avt_serve::{Admission, IngestEvent, LiveTimeline};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SHARDS: [u32; 3] = [1, 2, 4];

/// The benchmark stream: the substrate benches' 20k/100k Chung-Lu graph
/// under heavy churn, so each batch is large enough for the shard fan-out
/// to have real work per shard.
fn bench_stream() -> EvolvingGraph {
    let base = chung_lu(20_000, 100_000, 2.4, 42);
    let config = ChurnConfig {
        snapshots: 6,
        remove_min: 100,
        remove_max: 200,
        insert_min: 400,
        insert_max: 800,
    };
    evolve(base, config, 7)
}

fn events_of(batch: &EdgeBatch) -> Vec<IngestEvent> {
    batch
        .insertions
        .iter()
        .map(|e| IngestEvent { insert: true, u: e.u, v: e.v })
        .chain(batch.deletions.iter().map(|e| IngestEvent { insert: false, u: e.u, v: e.v }))
        .collect()
}

fn bench_batch_apply(c: &mut Criterion) {
    let eg = bench_stream();
    let initial = eg.initial().clone();
    let batches = eg.batches().to_vec();
    let baseline = MaintainedCore::new(initial);

    let mut g = c.benchmark_group("writer/batch-apply");
    g.sample_size(10);
    for shards in SHARDS {
        g.bench_function(format!("s{shards}"), |b| {
            b.iter(|| {
                let mut mc = baseline.clone();
                for batch in &batches {
                    mc.apply_batch_with_shards(batch, shards).expect("scripted batches apply");
                }
                mc.visited_vertices()
            })
        });
    }
    g.finish();
}

fn bench_admission(c: &mut Criterion) {
    let eg = bench_stream();
    let initial: Graph = eg.initial().clone();
    let events: Vec<Vec<IngestEvent>> = eg.batches().iter().map(events_of).collect();
    let lag = events.len() as u64 + 1;

    // One fixed shuffle, so "shuffled" measures out-of-order staging and
    // fold-in, not run-to-run permutation noise.
    let in_order: Vec<usize> = (0..events.len()).collect();
    let mut shuffled = in_order.clone();
    let mut rng = SmallRng::seed_from_u64(0xbadcafe);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }

    let run = |order: &[usize]| {
        let timeline = Arc::new(LiveTimeline::new(initial.clone()));
        let admission = Admission::new(Arc::clone(&timeline), lag);
        for &idx in order {
            admission.ingest(idx as u64 + 1, &events[idx]).expect("no replay borrows");
        }
        admission.flush().expect("flush publishes the tail");
        timeline.epochs_published()
    };

    let mut g = c.benchmark_group("writer/admission");
    g.sample_size(10);
    for shards in SHARDS {
        avt_kcore::set_write_shards(shards);
        g.bench_function(format!("in-order-s{shards}"), |b| b.iter(|| run(&in_order)));
        g.bench_function(format!("shuffled-s{shards}"), |b| b.iter(|| run(&shuffled)));
    }
    g.finish();
    avt_kcore::set_write_shards(1);
}

criterion_group!(benches, bench_batch_apply, bench_admission);
criterion_main!(benches);
