//! Writer-path microbenchmarks: batch-apply throughput, end-to-end
//! admission (watermark buffer → sanitize → repair → publish) under
//! in-order vs shuffled delivery, and the small writes of a serving mix.
//!
//! * `writer/batch-apply` — [`MaintainedCore::apply_batch`] over a
//!   scripted churn stream: each batch's edges are repaired one at a
//!   time, insertions first.
//! * `writer/admission` — the same stream pushed through an
//!   [`Admission`] buffer in arrival order and in a fixed shuffle within
//!   the lag window.
//! * `writer/ingest-2edge` — [`LiveTimeline::apply_batch`] over 300
//!   batches of two random edge insertions on the Deezer stand-in at
//!   scale 0.5: the write shape and graph of perfbench's serve-mixed
//!   workload, where each publish derives a frame, repairs the K-order
//!   and copies the cores.
//!
//! Labels are `writer/batch-apply`, `writer/admission/{in-order,shuffled}`
//! and `writer/ingest-2edge`; smoke runs fold the medians into
//! `bench-medians.json` (see the criterion shim).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use avt_datasets::chunglu::chung_lu;
use avt_datasets::churn::{evolve, ChurnConfig};
use avt_datasets::Dataset;
use avt_graph::{EdgeBatch, EvolvingGraph, Graph, VertexId};
use avt_kcore::MaintainedCore;
use avt_serve::{Admission, IngestEvent, LiveTimeline};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The benchmark stream: the substrate benches' 20k/100k Chung-Lu graph
/// under heavy churn, 400–800 insertions and 100–200 deletions per batch.
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

    let mut g = c.benchmark_group("writer");
    g.sample_size(10);
    g.bench_function("batch-apply", |b| {
        b.iter(|| {
            let mut mc = baseline.clone();
            for batch in &batches {
                mc.apply_batch(batch).expect("scripted batches apply");
            }
            mc.visited_vertices()
        })
    });
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
            admission.ingest(idx as u64 + 1, &events[idx]).expect("batches apply");
        }
        admission.flush().expect("flush publishes the tail");
        timeline.epochs_published()
    };

    let mut g = c.benchmark_group("writer/admission");
    g.sample_size(10);
    g.bench_function("in-order", |b| b.iter(|| run(&in_order)));
    g.bench_function("shuffled", |b| b.iter(|| run(&shuffled)));
    g.finish();
}

fn bench_ingest_2edge(c: &mut Criterion) {
    let initial = Dataset::Deezer.generate(0.5, 1, 42).initial().clone();
    let n = initial.num_vertices() as VertexId;
    // One timeline for every sample, so a sample times the writes and not
    // the initial decomposition; each sample draws fresh edges.
    let timeline = LiveTimeline::new(initial);
    let mut rng = SmallRng::seed_from_u64(0x16e57);

    let mut g = c.benchmark_group("writer");
    g.sample_size(10);
    g.bench_function("ingest-2edge", |b| {
        b.iter(|| {
            for _ in 0..300 {
                let frame = Arc::clone(&timeline.current().frame);
                let mut absent = || loop {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v && !frame.has_edge(u, v) {
                        return (u.min(v), u.max(v));
                    }
                };
                let first = absent();
                let second = loop {
                    let e = absent();
                    if e != first {
                        break e;
                    }
                };
                timeline
                    .apply_batch(EdgeBatch::from_pairs([first, second], []))
                    .expect("absent edges insert");
            }
            timeline.epochs_published()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_batch_apply, bench_admission, bench_ingest_2edge);
criterion_main!(benches);
