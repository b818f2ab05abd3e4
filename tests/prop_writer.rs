//! Property tests for the batch writer and the out-of-order admission
//! buffer — the invariants of the write path:
//!
//! * **Order independence.** Any permutation of batch arrival inside the
//!   admission lag window publishes the *same* epoch history: identical
//!   edge sets, identical core numbers, identical spectra — bit for bit
//!   the history the in-order delivery publishes, which in turn matches
//!   the offline [`EvolvingGraph::frames`] replay.
//! * **Staleness.** Events older than the lag window are counted and
//!   rejected — published history is append-only, never rewound.

use std::sync::Arc;

use avt::datasets::churn::{evolve, ChurnConfig};
use avt::datasets::er::gnm;
use avt::graph::{EdgeBatch, EvolvingGraph, Graph, GraphView, VertexId};
use avt::kcore::{CoreDecomposition, CoreSpectrum, MaintainedCore};
use avt_serve::{Admission, IngestEvent, LiveTimeline};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Evolve a base graph with churn that has real insertions and deletions.
fn churned(base: Graph, snapshots: usize, seed: u64) -> EvolvingGraph {
    let config =
        ChurnConfig { snapshots, remove_min: 1, remove_max: 4, insert_min: 1, insert_max: 4 };
    evolve(base, config, seed)
}

/// One batch as the wire sees it: a flat event list (insertions then
/// deletions, the same order `run_job` builds from an `INGEST` request).
fn events_of(batch: &EdgeBatch) -> Vec<IngestEvent> {
    batch
        .insertions
        .iter()
        .map(|e| IngestEvent { insert: true, u: e.u, v: e.v })
        .chain(batch.deletions.iter().map(|e| IngestEvent { insert: false, u: e.u, v: e.v }))
        .collect()
}

/// Everything observable about one published epoch: the edge set and the
/// from-scratch core numbers + spectrum of the frame.
type EpochDigest = (usize, Vec<(VertexId, VertexId)>, Vec<u32>, Vec<usize>);

fn digest(eg: &EvolvingGraph) -> Vec<EpochDigest> {
    eg.frames()
        .map(|(t, frame)| {
            let edges: Vec<(VertexId, VertexId)> = frame
                .vertices()
                .flat_map(|u| {
                    frame.neighbors(u).iter().filter(move |&&v| v > u).map(move |&v| (u, v))
                })
                .collect();
            let cores = CoreDecomposition::compute(&frame).cores().to_vec();
            let shells = CoreSpectrum::from_cores(&cores).shells().to_vec();
            (t, edges, cores, shells)
        })
        .collect()
}

/// Deliver the stream's batches through an [`Admission`] buffer in the
/// given arrival order (indices into `batches`, each used once), with a
/// lag window wide enough that every permutation is in-window. Returns
/// the published history plus the final maintained cores.
fn deliver(
    initial: &Graph,
    batches: &[EdgeBatch],
    order: &[usize],
) -> (Vec<EpochDigest>, Vec<u32>) {
    let timeline = Arc::new(LiveTimeline::new(initial.clone()));
    let admission = Admission::new(Arc::clone(&timeline), batches.len() as u64 + 1);
    for &idx in order {
        let receipt = admission
            .ingest(idx as u64 + 1, &events_of(&batches[idx]))
            .expect("sanitized batches apply cleanly");
        assert_eq!(receipt.rejected, 0, "in-window batch {idx} rejected");
    }
    admission.flush().expect("final flush publishes the tail");
    assert_eq!(admission.staged_buckets(), 0, "flush drained the buffer");
    assert_eq!(timeline.epochs_published() as usize, batches.len() + 1);
    let epoch = timeline.current();
    let maintained: Vec<u32> =
        (0..epoch.frame.num_vertices() as VertexId).map(|v| epoch.core(v)).collect();
    (digest(&timeline.freeze()), maintained)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shuffled-within-window delivery converges: a random permutation of
    /// batch arrival publishes the same epochs — same edges, same cores,
    /// same spectra — as in-order delivery and as the offline replay, and
    /// the maintained cores equal the from-scratch decomposition.
    #[test]
    fn any_arrival_order_publishes_the_same_epochs(
        n in 12usize..28,
        m_factor in 1usize..4,
        seed in 0u64..200,
        snapshots in 2usize..6,
        shuffle_seed in 0u64..1000,
    ) {
        let eg = churned(gnm(n, m_factor * n, seed), snapshots, seed ^ 0xabcd);
        let batches = eg.batches().to_vec();
        let offline = digest(&eg);

        let in_order: Vec<usize> = (0..batches.len()).collect();
        let mut shuffled = in_order.clone();
        let mut rng = SmallRng::seed_from_u64(shuffle_seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }

        let (base_hist, base_cores) = deliver(eg.initial(), &batches, &in_order);
        let (shuf_hist, shuf_cores) = deliver(eg.initial(), &batches, &shuffled);

        prop_assert_eq!(&base_hist, &offline, "in-order delivery diverged from offline replay");
        prop_assert_eq!(&shuf_hist, &offline, "shuffled delivery diverged from offline replay");
        prop_assert_eq!(&base_cores, &shuf_cores);
        let last = offline.last().expect("stream has at least the initial epoch");
        prop_assert_eq!(&base_cores, &last.2, "maintained cores diverged from from-scratch");
    }

    /// Batched maintenance is exact: [`MaintainedCore::apply_batch`]
    /// keeps the core numbers of a from-scratch decomposition at every
    /// epoch of the stream.
    #[test]
    fn batch_apply_matches_offline(
        n in 12usize..28,
        m_factor in 1usize..4,
        seed in 0u64..200,
        snapshots in 2usize..6,
    ) {
        let eg = churned(gnm(n, m_factor * n, seed), snapshots, seed ^ 0x5eed);
        let mut mc = MaintainedCore::new(eg.initial().clone());
        for (t, frame) in eg.frames() {
            if t > 1 {
                let batch = eg.batch(t - 1).expect("batch t-1 exists for epoch t");
                mc.apply_batch(batch).unwrap_or_else(|e| panic!("apply at t={t}: {e}"));
            }
            let scratch = CoreDecomposition::compute(&frame);
            for v in frame.vertices() {
                prop_assert_eq!(
                    mc.core(v),
                    scratch.cores()[v as usize],
                    "core({}) diverged at t={}", v, t
                );
            }
        }
    }
}

/// Events older than the lag window are rejected and counted — the
/// published history is never rewound — while in-window stragglers fold.
#[test]
fn stale_events_are_rejected_not_rewound() {
    let eg = churned(gnm(16, 40, 3), 4, 7);
    let batches = eg.batches().to_vec();
    let timeline = Arc::new(LiveTimeline::new(eg.initial().clone()));
    let admission = Admission::new(Arc::clone(&timeline), 2);

    // Push the watermark to 10: everything at ts < 10 - 2 is now stale.
    admission.ingest(10, &events_of(&batches[0])).unwrap();
    let epochs_before = timeline.epochs_published();

    let stale = admission.ingest(1, &events_of(&batches[1])).unwrap();
    assert_eq!(stale.rejected, events_of(&batches[1]).len() as u64);
    assert_eq!(stale.accepted, 0);
    assert_eq!(stale.folded, 0);
    assert_eq!(timeline.epochs_published(), epochs_before, "stale events rewound history");

    // An in-window straggler (ts = 9 ≥ watermark − lag) folds instead.
    let fold = admission.ingest(9, &events_of(&batches[2])).unwrap();
    assert_eq!(fold.rejected, 0);
    assert_eq!(fold.folded, events_of(&batches[2]).len() as u64);

    let stats = admission.snapshot();
    assert_eq!(stats.events_rejected, events_of(&batches[1]).len() as u64);
    assert_eq!(stats.watermark, 10);
    admission.flush().unwrap();
}
