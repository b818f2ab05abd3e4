//! Property tests for the serving layer: the online [`LiveTimeline`] +
//! [`Service`] path must be observationally identical to the offline
//! [`EvolvingGraph::frames`] replay — at *every* epoch, under concurrent
//! readers.
//!
//! The same churn batch stream is driven through both sides. Offline, each
//! frame gets a from-scratch core decomposition, spectrum, anchored-core
//! evaluation, and Greedy/OLAK best-anchor solves. Online, the batches go
//! through the writer path (functional CSR derivation + incremental
//! K-order maintenance) and several reader threads fire the equivalent
//! protocol queries against the published epoch. Everything result-shaped
//! — core numbers, shell histograms, anchored core sizes, follower sets,
//! anchor picks, visited/probed counters — must be bit-identical.
//!
//! A saturated or closed service also hands a job back to its caller
//! ([`SubmitError::Full`] / [`SubmitError::Closed`]) instead of dropping
//! it.

use std::sync::{mpsc, Arc};

use avt::algo::{AvtParams, Engine, Greedy, Olak, SnapshotSolver};
use avt::datasets::churn::{evolve, ChurnConfig};
use avt::datasets::er::gnm;
use avt::graph::{CsrGraph, EvolvingGraph, Graph, GraphView, VertexId};
use avt::kcore::CoreDecomposition;
use avt_serve::{BestAlgo, LiveTimeline, Request, Response, Service, ServiceConfig, SubmitError};
use proptest::prelude::*;

/// Evolve a base graph with a small churn model so the stream has real
/// insertions *and* deletions across a handful of epochs.
fn churned(base: Graph, snapshots: usize, seed: u64) -> EvolvingGraph {
    let config =
        ChurnConfig { snapshots, remove_min: 1, remove_max: 4, insert_min: 1, insert_max: 4 };
    evolve(base, config, seed)
}

/// Everything the queries can observe of one snapshot, computed offline
/// from scratch.
struct Expected {
    t: usize,
    cores: Vec<u32>,
    shells: Vec<usize>,
    /// The anchor set the `ANCHORED` query will be asked about (the two
    /// smallest non-core vertices — derived from offline state so both
    /// sides are asked the identical question).
    probe_anchors: Vec<VertexId>,
    anchored_size: usize,
    anchored_followers: Vec<VertexId>,
    greedy_anchors: Vec<VertexId>,
    greedy_followers: Vec<VertexId>,
    olak_anchors: Vec<VertexId>,
    olak_probed: u64,
}

fn expected_of(t: usize, frame: &CsrGraph, params: AvtParams) -> Expected {
    let decomp = CoreDecomposition::compute(frame);
    let cores = decomp.cores().to_vec();
    let shells = avt::kcore::CoreSpectrum::from_cores(&cores).shells().to_vec();
    let probe_anchors: Vec<VertexId> =
        frame.vertices().filter(|&v| cores[v as usize] < params.k).take(2).collect();
    let anchored = avt::algo::AnchoredCoreState::with_anchors(frame, params.k, &probe_anchors);
    let mut anchored_followers = anchored.committed_followers(&cores);
    anchored_followers.sort_unstable();
    let anchored_size = anchored.anchored_core_size();
    let greedy = Greedy.solve_snapshot(t, frame, params);
    let olak = Olak.solve_snapshot(t, frame, params);
    let sorted = |mut v: Vec<VertexId>| {
        v.sort_unstable();
        v
    };
    Expected {
        t,
        cores,
        shells,
        probe_anchors,
        anchored_size,
        anchored_followers,
        greedy_anchors: greedy.anchors,
        greedy_followers: sorted(greedy.followers),
        olak_anchors: olak.anchors,
        olak_probed: olak.metrics.candidates_probed,
    }
}

/// Fire the full query battery against the service from one reader thread
/// and compare every answer to the offline expectation.
fn interrogate(service: &Service, expected: &Expected, params: AvtParams) {
    let t = expected.t;
    // Core numbers: the writer's incrementally maintained K-order vs the
    // offline from-scratch decomposition, vertex by vertex.
    for v in 0..expected.cores.len() as VertexId {
        match service.query(Request::Core(v)).unwrap() {
            Response::Core { t: rt, v: rv, core } => {
                assert_eq!((rt, rv), (t, v));
                assert_eq!(core, expected.cores[v as usize], "core({v}) diverged at t={t}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    match service.query(Request::Spectrum).unwrap() {
        Response::Spectrum { t: rt, shells } => {
            assert_eq!(rt, t);
            assert_eq!(shells, expected.shells, "spectrum diverged at t={t}");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match service
        .query(Request::Anchored { k: params.k, anchors: expected.probe_anchors.clone() })
        .unwrap()
    {
        Response::Anchored { t: rt, size, followers, .. } => {
            assert_eq!(rt, t);
            assert_eq!(size, expected.anchored_size, "anchored core size diverged at t={t}");
            assert_eq!(followers, expected.anchored_followers, "anchored followers at t={t}");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match service.query(Request::Best { k: params.k, b: params.l, algo: BestAlgo::Greedy }).unwrap()
    {
        Response::Best { t: rt, anchors, followers, .. } => {
            assert_eq!(rt, t);
            assert_eq!(anchors, expected.greedy_anchors, "Greedy picks diverged at t={t}");
            assert_eq!(followers, expected.greedy_followers, "Greedy followers at t={t}");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match service.query(Request::Best { k: params.k, b: params.l, algo: BestAlgo::Olak }).unwrap() {
        Response::Best { t: rt, anchors, probed, .. } => {
            assert_eq!(rt, t);
            assert_eq!(anchors, expected.olak_anchors, "OLAK picks diverged at t={t}");
            assert_eq!(probed, expected.olak_probed, "OLAK probe counter at t={t}");
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Drive the same stream through both sides; `readers` concurrent reader
/// threads interrogate every epoch.
fn assert_service_offline_equivalence(eg: &EvolvingGraph, params: AvtParams, readers: usize) {
    let expected: Vec<Expected> =
        eg.frames().map(|(t, frame)| expected_of(t, &frame, params)).collect();

    let timeline = Arc::new(LiveTimeline::new(eg.initial().clone()));
    let service = Service::start(Arc::clone(&timeline), ServiceConfig::default());

    for (i, exp) in expected.iter().enumerate() {
        if i > 0 {
            let batch = eg.batch(i).expect("batch i exists for epoch i+1").clone();
            let report = timeline.apply_batch(batch).expect("churn batches apply cleanly");
            assert_eq!(report.epoch.t, exp.t);
        }
        // Concurrent readers: every thread runs the full battery against
        // the same quiesced epoch; answers must agree with offline (and
        // hence with each other).
        std::thread::scope(|scope| {
            for _ in 0..readers {
                scope.spawn(|| interrogate(&service, exp, params));
            }
        });
    }

    // The audit path: the frozen live history, replayed through the
    // offline engine, reproduces the offline run bit for bit.
    let via_live = Engine::sequential().run(&Greedy, &timeline.freeze(), params).unwrap();
    let via_offline = Engine::sequential().run(&Greedy, eg, params).unwrap();
    assert_eq!(via_live.anchor_sets, via_offline.anchor_sets);
    assert_eq!(via_live.follower_counts, via_offline.follower_counts);
    assert_eq!(via_live.total_metrics(), via_offline.total_metrics());

    assert_eq!(timeline.epochs_published() as usize, eg.num_snapshots());
    assert_eq!(service.shutdown().worker_panics, 0);
}

/// Pick a k that actually exercises anchoring on this stream when one
/// exists (largest anchorable k at the final snapshot), 2 otherwise.
fn pick_k(eg: &EvolvingGraph) -> u32 {
    let last = eg.snapshot(eg.num_snapshots()).expect("final snapshot exists");
    let spectrum = avt::kcore::CoreSpectrum::of(&last);
    spectrum.most_anchorable_k().unwrap_or(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Erdős–Rényi base + churn: concurrent readers at every epoch see
    /// bit-identical core spectra, anchored cores, and Greedy/OLAK anchor
    /// picks to the offline frames() replay.
    #[test]
    fn live_service_matches_offline_replay(
        n in 12usize..32,
        m_factor in 1usize..4,
        seed in 0u64..300,
        snapshots in 2usize..5,
    ) {
        let eg = churned(gnm(n, m_factor * n, seed), snapshots, seed ^ 0xabcd);
        let params = AvtParams::new(pick_k(&eg), 2);
        assert_service_offline_equivalence(&eg, params, 3);
    }

    /// Deletion-heavy churn stresses the writer's demotion cascades — the
    /// maintained cores the cheap queries are served from must stay exact.
    #[test]
    fn deletion_heavy_stream_stays_exact(
        n in 14usize..28,
        seed in 0u64..200,
    ) {
        let config = ChurnConfig {
            snapshots: 4,
            remove_min: 3,
            remove_max: 6,
            insert_min: 1,
            insert_max: 2,
        };
        let eg = evolve(gnm(n, 3 * n, seed), config, seed ^ 0x5eed);
        let params = AvtParams::new(pick_k(&eg), 2);
        assert_service_offline_equivalence(&eg, params, 2);
    }
}

/// One non-proptest case with a hand-built stream, so a plain `cargo test`
/// failure here is immediately reproducible without a seed.
#[test]
fn figure1_stream_served_equals_offline() {
    let eg = avt::datasets::figure1::evolving();
    let params = AvtParams::new(3, 2);
    assert_service_offline_equivalence(&eg, params, 3);
}

/// A fixed Erdős–Rényi churn stream, so a plain `cargo test` covers a
/// churned (not hand-built) stream without a proptest seed.
#[test]
fn churned_stream_served_equals_offline() {
    let eg = churned(gnm(24, 72, 11), 4, 0x5a5a);
    let params = AvtParams::new(pick_k(&eg), 2);
    assert_service_offline_equivalence(&eg, params, 2);
}

/// A saturated one-worker, depth-one service must hand jobs back as
/// [`SubmitError::Full`] — and accept them again once drained; a closed
/// service hands them back as [`SubmitError::Closed`].
#[test]
fn full_and_closed_hand_the_job_back() {
    // Big enough that one BEST solve outlives a burst of try_submit
    // calls, so the queue demonstrably fills.
    let timeline = Arc::new(LiveTimeline::new(gnm(600, 2400, 7)));
    let service = Service::start(timeline, ServiceConfig { workers: 1, queue_depth: 1 });
    let (tx, rx) = mpsc::channel();
    let mut accepted = 0usize;
    let mut fulls = 0usize;
    for _ in 0..64 {
        let tx = tx.clone();
        let request = Request::Best { k: 3, b: 2, algo: BestAlgo::Greedy };
        match service.try_submit(request, Box::new(move |reply| drop(tx.send(reply)))) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Full(Request::Best { k: 3, b: 2, .. }, _)) => fulls += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    assert!(fulls > 0, "64 instant submits never saw a full queue");
    assert!(accepted > 0, "the queue accepted nothing");
    // Every accepted job still completes (handback lost nothing).
    for _ in 0..accepted {
        rx.recv().expect("accepted job answered").expect("query succeeded");
    }
    service.begin_shutdown();
    match service.try_submit(Request::Info, Box::new(|_| {})) {
        Err(SubmitError::Closed(Request::Info, _)) => {}
        other => panic!("closed service returned {:?}", other.map(|_| ())),
    }
    assert!(service.query(Request::Info).unwrap_err().contains("shutting down"));
    assert_eq!(service.shutdown().worker_panics, 0);
}
