//! Query execution: requests in, epoch-consistent answers out.
//!
//! [`execute`] answers one [`Request`] against one published
//! [`EpochFrame`] — pure with respect to the timeline, so it is trivially
//! safe to run from many threads against the same epoch. [`Service`] puts
//! a bounded worker pool in front of it: queries queue on a
//! [`std::sync::mpsc::sync_channel`] (callers feel backpressure instead of
//! the pool growing unboundedly), each worker grabs the *current* epoch at
//! dequeue time, and per-query visited/probed counters plus executor
//! latency flow into [`ServiceStats`]. Every job answers the one way,
//! through its [`QueryCallback`]: the event loop's queues a completion
//! and wakes the loop, and [`Service::query`]'s wakes its blocked caller.
//!
//! The cheap queries (`CORE`, `SPECTRUM`, `INFO`, `STATS`) read only what
//! the epoch published — the core array and its shell histogram, no
//! decomposition and nothing proportional to `n`. The expensive
//! ones (`ANCHORED`, `FOLLOWERS`, `BEST`) run the same
//! [`AnchoredCoreState`] / [`SnapshotSolver`] machinery the offline
//! experiments use, on the frozen frame — which is exactly what makes the
//! service-vs-offline equivalence tests possible.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use avt_core::{AnchoredCoreState, AvtParams, Greedy, Olak, SnapshotSolver};

use avt_obs::{Span, Stage};

use crate::admission::{Admission, IngestEvent};
use crate::protocol::{BestAlgo, Request, Response};
use crate::stats::ServiceStats;
use crate::timeline::{EpochFrame, LiveTimeline};

/// Validate a vertex id against the epoch's vertex set.
fn check_vertex(epoch: &EpochFrame, v: avt_graph::VertexId) -> Result<(), String> {
    let n = epoch.frame.num_vertices();
    if (v as usize) < n {
        Ok(())
    } else {
        Err(format!("vertex {v} out of range (n = {n})"))
    }
}

fn check_k(k: u32) -> Result<(), String> {
    if k >= 1 {
        Ok(())
    } else {
        Err("k must be at least 1".into())
    }
}

fn sorted(mut v: Vec<avt_graph::VertexId>) -> Vec<avt_graph::VertexId> {
    v.sort_unstable();
    v
}

/// Answer `request` against `epoch`.
///
/// `epochs` and `stats` feed the `INFO`/`STATS` responses; they describe
/// the service, not the epoch. Pure otherwise: no locks, no timeline
/// access, deterministic per epoch — two readers asking the same question
/// of the same epoch get bit-identical answers, which is the contract the
/// equivalence proptests pin.
pub fn execute(
    request: &Request,
    epoch: &EpochFrame,
    epochs: u64,
    stats: &ServiceStats,
) -> Result<Response, String> {
    let frame = epoch.frame.as_ref();
    match request {
        // Everything in an INFO reply describes the answered epoch — the
        // epoch count is `t` as of its publication, not a racy read of the
        // live counter, so `t == epochs` holds in every reply even while
        // the writer advances mid-query.
        Request::Info => Ok(Response::Info {
            t: epoch.t,
            n: frame.num_vertices(),
            m: frame.num_edges(),
            epochs: epoch.t as u64,
        }),
        // The histogram was derived once at publication; answering is a
        // copy of O(degeneracy) counters.
        Request::Spectrum => Ok(Response::Spectrum { t: epoch.t, shells: epoch.shells.clone() }),
        Request::Core(v) => {
            check_vertex(epoch, *v)?;
            Ok(Response::Core { t: epoch.t, v: *v, core: epoch.core(*v) })
        }
        Request::Anchored { k, anchors } => {
            check_k(*k)?;
            for &a in anchors {
                check_vertex(epoch, a)?;
            }
            let mut unique = anchors.clone();
            unique.sort_unstable();
            unique.dedup();
            let state = AnchoredCoreState::with_anchors(frame, *k, &unique);
            Ok(Response::Anchored {
                t: epoch.t,
                k: *k,
                size: state.anchored_core_size(),
                followers: sorted(state.committed_followers(&epoch.cores)),
            })
        }
        Request::Followers { k, anchor } => {
            check_k(*k)?;
            check_vertex(epoch, *anchor)?;
            let mut state = AnchoredCoreState::new(frame, *k);
            Ok(Response::Followers {
                t: epoch.t,
                k: *k,
                anchor: *anchor,
                followers: sorted(state.followers_of(*anchor)),
            })
        }
        Request::Best { k, b, algo } => {
            check_k(*k)?;
            let params = AvtParams::new(*k, *b);
            let report = match algo {
                BestAlgo::Greedy => Greedy.solve_snapshot(epoch.t, frame, params),
                BestAlgo::Olak => Olak.solve_snapshot(epoch.t, frame, params),
            };
            Ok(Response::Best {
                t: epoch.t,
                k: *k,
                algo: *algo,
                anchors: report.anchors,
                followers: sorted(report.followers),
                visited: report.metrics.vertices_visited,
                probed: report.metrics.candidates_probed,
            })
        }
        Request::Stats => {
            let latency = stats.latency();
            Ok(Response::Stats {
                epochs,
                served: stats.served(),
                errors: stats.errors(),
                p50_us: latency.percentile(50.0),
                p99_us: latency.percentile(99.0),
                per_op: stats.per_op_latencies(),
                // The writer block belongs to the admission buffer, not
                // the epoch; [`Service`] fills it in when one is attached.
                writer: None,
            })
        }
        // Writes go through the admission buffer, which only a
        // [`Service::start_with_admission`] service has — `execute` itself
        // is pure with respect to the timeline and must stay so.
        Request::Ingest { .. } => Err("ingest not enabled on this service".into()),
        // The telemetry verbs read the service's books and the
        // process-wide span stages and flight recorder, not the epoch.
        // Like STATS, METRICS gains the writer's series in [`Service`]
        // when an admission buffer is attached.
        Request::Metrics => Ok(Response::Metrics { text: crate::obs::render(&[stats.registry()]) }),
        Request::Trace { n } => Ok(Response::Trace { entries: crate::obs::trace(*n as usize) }),
    }
}

/// One worker-side dispatch: `INGEST` goes to the admission buffer (when
/// the service has one), everything else to [`execute`] against the
/// current epoch — with `STATS` and `METRICS` replies enriched by the
/// writer's.
fn run_job(
    request: &Request,
    timeline: &Arc<LiveTimeline>,
    admission: Option<&Admission>,
    stats: &ServiceStats,
    span: Option<&Span>,
) -> Result<Response, String> {
    if let Request::Ingest { ts, insertions, deletions } = request {
        let Some(adm) = admission else {
            return Err("ingest not enabled on this service".into());
        };
        let mut events: Vec<IngestEvent> = Vec::with_capacity(insertions.len() + deletions.len());
        events.extend(insertions.iter().map(|&(u, v)| IngestEvent { insert: true, u, v }));
        events.extend(deletions.iter().map(|&(u, v)| IngestEvent { insert: false, u, v }));
        return adm
            .ingest_traced(*ts, &events, span)
            .map(|r| Response::Ingest {
                t: r.t,
                accepted: r.accepted,
                folded: r.folded,
                rejected: r.rejected,
                watermark: r.watermark,
            })
            .map_err(|e| e.to_string());
    }
    // The writer's series sit between the service's and the
    // process-wide ones.
    if let (Request::Metrics, Some(adm)) = (request, admission) {
        return Ok(Response::Metrics {
            text: crate::obs::render(&[stats.registry(), adm.registry()]),
        });
    }
    let epoch = timeline.current();
    let mut reply = execute(request, &epoch, timeline.epochs_published(), stats);
    if let (Ok(Response::Stats { writer, .. }), Some(adm)) = (&mut reply, admission) {
        *writer = Some(adm.snapshot());
    }
    reply
}

/// Configuration of the [`Service`] worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing queries (≥ 1).
    pub workers: usize,
    /// Queued (accepted, unstarted) queries before callers block.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    /// Two workers, a queue of 32 — enough to demonstrate overlap without
    /// presuming hardware.
    fn default() -> Self {
        ServiceConfig { workers: 2, queue_depth: 32 }
    }
}

/// Completion callback of a queued query: invoked exactly once, on a
/// worker thread, with the query's outcome. Every job carries one;
/// [`Service::query`] passes one that wakes the blocked caller.
pub type QueryCallback = Box<dyn FnOnce(Result<Response, String>) + Send + 'static>;

/// Why [`Service::try_submit`] handed a job back instead of queuing it.
/// Both variants return the request and callback so the caller can park
/// and retry them — nothing is dropped on the floor.
pub enum SubmitError {
    /// The job queue is full; retry after a completion frees a slot.
    Full(Request, QueryCallback),
    /// The service is shutting down and accepts no further work.
    Closed(Request, QueryCallback),
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(request, _) => f.debug_tuple("Full").field(request).finish(),
            SubmitError::Closed(request, _) => f.debug_tuple("Closed").field(request).finish(),
        }
    }
}

struct Job {
    request: Request,
    done: QueryCallback,
    /// The request's lifecycle span, when a front end opened one at
    /// decode ([`Service::try_submit_traced`]). The worker charges queue
    /// wait and execute time to it; the front end closes it after
    /// encoding the reply.
    span: Option<Span>,
}

/// The in-process query service: a bounded worker pool over a
/// [`LiveTimeline`].
///
/// Embed it directly (`examples/live_service.rs` does) or put the TCP
/// front-end [`crate::EventFront`] in front of it. [`Service::query`] is
/// safe to call from any number of threads; each query observes the
/// newest epoch at execution time and the reply says which (`t=` in every
/// response).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use avt_graph::Graph;
/// use avt_serve::{LiveTimeline, Request, Response, Service};
///
/// let tl = Arc::new(LiveTimeline::new(Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap()));
/// let service = Service::start(Arc::clone(&tl), Default::default());
/// match service.query(Request::Core(1)).unwrap() {
///     Response::Core { core, .. } => assert_eq!(core, 1),
///     other => panic!("unexpected reply {other:?}"),
/// }
/// let report = service.shutdown();
/// assert_eq!(report.worker_panics, 0);
/// ```
pub struct Service {
    stats: Arc<ServiceStats>,
    /// The bounded job queue's sender. It lives behind a mutexed `Option`
    /// so [`Service::begin_shutdown`] can retire it from `&self` — that is
    /// what makes [`SubmitError::Closed`] a deterministic, testable state
    /// instead of a race against `shutdown`'s drop.
    intake: Mutex<Option<mpsc::SyncSender<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// What [`Service::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Workers that died by panic instead of draining cleanly. Zero on a
    /// healthy service; the `avt-serve` binary turns nonzero into a
    /// nonzero exit code.
    pub worker_panics: usize,
}

impl Service {
    /// Spawn the worker pool and start serving (queries only — `INGEST`
    /// is rejected; use [`Service::start_with_admission`] to accept
    /// writes).
    pub fn start(timeline: Arc<LiveTimeline>, config: ServiceConfig) -> Service {
        Service::start_inner(timeline, None, config)
    }

    /// Spawn the worker pool with a write path: `INGEST` requests flow
    /// through `admission` (staged by timestamp, published on watermark
    /// advance), and `STATS` replies carry its writer counters.
    pub fn start_with_admission(
        timeline: Arc<LiveTimeline>,
        admission: Arc<Admission>,
        config: ServiceConfig,
    ) -> Service {
        Service::start_inner(timeline, Some(admission), config)
    }

    fn start_inner(
        timeline: Arc<LiveTimeline>,
        admission: Option<Arc<Admission>>,
        config: ServiceConfig,
    ) -> Service {
        let stats = Arc::new(ServiceStats::default());
        let (jobs, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let timeline = Arc::clone(&timeline);
                let admission = admission.clone();
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("avt-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the dequeue; execution
                        // runs unlocked so workers overlap.
                        let job = rx.lock().expect("job queue lock poisoned").recv();
                        let Ok(job) = job else { break };
                        let op = job.request.op_class();
                        // Everything since the last mark (decode) was time
                        // spent queued, not served.
                        if let Some(span) = &job.span {
                            span.mark(Stage::Queue);
                        }
                        let start = Instant::now();
                        let reply = run_job(
                            &job.request,
                            &timeline,
                            admission.as_deref(),
                            &stats,
                            job.span.as_ref(),
                        );
                        let micros = start.elapsed().as_micros() as u64;
                        if let Some(span) = &job.span {
                            span.mark(Stage::Execute);
                        }
                        stats.record(op, reply.is_ok(), micros);
                        (job.done)(reply);
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        Service { stats, intake: Mutex::new(Some(jobs)), workers }
    }

    /// The job queue's sender, cloned out of the intake lock so a caller
    /// blocked on a full queue never holds the lock against other
    /// submitters. `None` once [`Service::begin_shutdown`] retired it.
    fn jobs(&self) -> Option<mpsc::SyncSender<Job>> {
        self.intake.lock().expect("intake lock poisoned").clone()
    }

    /// Execute one query, blocking until a worker answers (or until the
    /// queue has room, when the pool is saturated — bounded backpressure
    /// by construction).
    pub fn query(&self, request: Request) -> Result<Response, String> {
        let (tx, rx) = mpsc::sync_channel(1);
        // The caller may have given up; that is its business, not an
        // executor fault.
        let done: QueryCallback = Box::new(move |reply| drop(tx.send(reply)));
        self.jobs()
            .and_then(|jobs| jobs.send(Job { request, done, span: None }).ok())
            .ok_or_else(|| "service is shutting down".to_string())?;
        rx.recv().map_err(|_| "worker died before answering".to_string())?
    }

    /// Submit one query without blocking: `done` runs on a worker thread
    /// when the answer is ready. This is the nonblocking front-end's path
    /// — an event loop must never sleep on a full queue, so a saturated
    /// pool hands the job straight back as [`SubmitError::Full`] for the
    /// caller to park and retry.
    pub fn try_submit(&self, request: Request, done: QueryCallback) -> Result<(), SubmitError> {
        self.try_submit_traced(request, None, done)
    }

    /// [`Service::try_submit`] with a lifecycle span riding along: the
    /// worker charges queue wait and execute time to it, and it is
    /// returned to the callback's owner by way of the front end's span
    /// table (the span is `Arc`-backed; the caller keeps its own clone).
    /// On `Full`/`Closed` the job's span clone is simply dropped — the
    /// error carries the request and callback back unchanged, same shape
    /// as always, and the front end re-attaches its clone on retry.
    pub fn try_submit_traced(
        &self,
        request: Request,
        span: Option<Span>,
        done: QueryCallback,
    ) -> Result<(), SubmitError> {
        let Some(jobs) = self.jobs() else {
            return Err(SubmitError::Closed(request, done));
        };
        jobs.try_send(Job { request, done, span }).map_err(|e| match e {
            mpsc::TrySendError::Full(job) => SubmitError::Full(job.request, job.done),
            mpsc::TrySendError::Disconnected(job) => SubmitError::Closed(job.request, job.done),
        })
    }

    /// Live counters (shared with the workers).
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.stats
    }

    /// Stop accepting new work without joining the workers: from here on
    /// [`Service::query`] errors and [`Service::try_submit`] returns
    /// [`SubmitError::Closed`], while already-queued jobs still drain.
    /// [`Service::shutdown`] calls this first; front-ends can call it
    /// early to quiesce intake before the final join.
    pub fn begin_shutdown(&self) {
        // Retiring the sender is the close signal: workers drain the
        // channel, then their recv() errors out.
        drop(self.intake.lock().expect("intake lock poisoned").take());
    }

    /// Stop accepting queries, drain the queue, and join every worker.
    pub fn shutdown(self) -> ShutdownReport {
        self.begin_shutdown();
        let Service { workers, .. } = self;
        let worker_panics = workers.into_iter().map(|w| w.join()).filter(Result::is_err).count();
        ShutdownReport { worker_panics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_core::AvtAlgorithm;
    use avt_graph::{EdgeBatch, EvolvingGraph, Graph};

    /// The winged graph of the greedy tests: K4 core, two savable wings.
    fn winged() -> Graph {
        Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 0),
                (4, 5),
                (5, 2),
                (5, 3),
                (6, 4),
                (7, 0),
                (7, 2),
                (7, 8),
                (8, 1),
                (9, 8),
            ],
        )
        .unwrap()
    }

    fn service() -> Service {
        Service::start(Arc::new(LiveTimeline::new(winged())), ServiceConfig::default())
    }

    #[test]
    fn info_spectrum_and_core_agree_with_the_frame() {
        let svc = service();
        let Response::Info { t, n, m, epochs } = svc.query(Request::Info).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!((t, n, m, epochs), (1, 10, 16, 1));
        let Response::Spectrum { shells, .. } = svc.query(Request::Spectrum).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(shells.iter().sum::<usize>(), 10);
        let Response::Core { core, .. } = svc.query(Request::Core(0)).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(core, 3);
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn best_matches_the_offline_solver() {
        let svc = service();
        let offline = Greedy.track(&EvolvingGraph::new(winged()), AvtParams::new(3, 2)).unwrap();
        let Response::Best { anchors, followers, visited, probed, .. } =
            svc.query(Request::Best { k: 3, b: 2, algo: BestAlgo::Greedy }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!(anchors, offline.anchor_sets[0]);
        assert_eq!(followers.len(), offline.follower_counts[0]);
        let m = offline.reports[0].metrics;
        assert_eq!((visited, probed), (m.vertices_visited, m.candidates_probed));
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn anchored_and_followers_agree() {
        let svc = service();
        let Response::Followers { followers, .. } =
            svc.query(Request::Followers { k: 3, anchor: 6 }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        let Response::Anchored { size, followers: committed, .. } =
            svc.query(Request::Anchored { k: 3, anchors: vec![6] }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!(followers, committed);
        // size = base core (4) + anchor + followers.
        assert_eq!(size, 4 + 1 + followers.len());
        // Duplicate anchors collapse rather than double-count.
        let Response::Anchored { size: dup_size, .. } =
            svc.query(Request::Anchored { k: 3, anchors: vec![6, 6] }).unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!(dup_size, size);
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn bad_requests_error_and_count() {
        let svc = service();
        assert!(svc.query(Request::Core(10)).unwrap_err().contains("out of range"));
        assert!(svc
            .query(Request::Followers { k: 0, anchor: 1 })
            .unwrap_err()
            .contains("at least 1"));
        assert!(svc
            .query(Request::Anchored { k: 3, anchors: vec![1, 99] })
            .unwrap_err()
            .contains("out of range"));
        let Response::Stats { served, errors, .. } = svc.query(Request::Stats).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(errors, 3);
        assert_eq!(served, 0, "stats reads its own counters before recording itself");
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn try_submit_answers_via_callback() {
        let svc = service();
        let (tx, rx) = mpsc::channel();
        svc.try_submit(
            Request::Core(0),
            Box::new(move |reply| tx.send(reply).expect("test channel alive")),
        )
        .expect("queue has room");
        match rx.recv().expect("callback ran") {
            Ok(Response::Core { core, .. }) => assert_eq!(core, 3),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn queries_see_fresh_epochs() {
        let tl = Arc::new(LiveTimeline::new(winged()));
        let svc = Service::start(Arc::clone(&tl), ServiceConfig::default());
        tl.apply_batch(EdgeBatch::from_pairs([(6, 9)], [])).unwrap();
        let Response::Info { t, epochs, .. } = svc.query(Request::Info).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!((t, epochs), (2, 2));
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn concurrent_queries_against_a_moving_timeline() {
        let tl = Arc::new(LiveTimeline::new(winged()));
        let svc = Arc::new(Service::start(Arc::clone(&tl), ServiceConfig::default()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for _ in 0..25 {
                        // Each answer must be internally consistent for
                        // *some* epoch: the spectrum always sums to n.
                        match svc.query(Request::Spectrum).unwrap() {
                            Response::Spectrum { shells, .. } => {
                                assert_eq!(shells.iter().sum::<usize>(), 10)
                            }
                            other => panic!("unexpected reply {other:?}"),
                        }
                        match svc.query(Request::Best { k: 3, b: 1, algo: BestAlgo::Olak }) {
                            Ok(Response::Best { .. }) => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                });
            }
            scope.spawn(move || {
                let mut flip = true;
                for _ in 0..20 {
                    let batch = if flip {
                        EdgeBatch::from_pairs([(6, 9)], [])
                    } else {
                        EdgeBatch::from_pairs([], [(6, 9)])
                    };
                    tl.apply_batch(batch).unwrap();
                    flip = !flip;
                }
            });
        });
        let stats = Arc::clone(svc.stats());
        let svc = Arc::into_inner(svc).expect("all clones dropped");
        assert_eq!(svc.shutdown().worker_panics, 0);
        assert_eq!(stats.served(), 200);
        assert_eq!(stats.errors(), 0);
    }

    #[test]
    fn ingest_requires_an_admission_buffer() {
        let svc = service();
        let err = svc
            .query(Request::Ingest { ts: 1, insertions: vec![(6, 9)], deletions: vec![] })
            .unwrap_err();
        assert!(err.contains("not enabled"), "got: {err}");
        let Response::Stats { writer, .. } = svc.query(Request::Stats).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(writer, None, "no admission, no writer block");
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn ingest_publishes_through_admission_and_shows_in_stats() {
        let tl = Arc::new(LiveTimeline::new(winged()));
        let adm = Arc::new(Admission::new(Arc::clone(&tl), 1));
        let svc = Service::start_with_admission(
            Arc::clone(&tl),
            Arc::clone(&adm),
            ServiceConfig::default(),
        );
        let Response::Ingest { accepted, watermark, .. } = svc
            .query(Request::Ingest { ts: 1, insertions: vec![(6, 9)], deletions: vec![] })
            .unwrap()
        else {
            panic!("wrong reply kind")
        };
        assert_eq!((accepted, watermark), (1, 1));
        // ts=3 moves the watermark past 1+lag, publishing the ts=1 bucket.
        svc.query(Request::Ingest { ts: 3, insertions: vec![(9, 5)], deletions: vec![] }).unwrap();
        assert!(tl.current().frame.has_edge(6, 9));
        let Response::Stats { writer, .. } = svc.query(Request::Stats).unwrap() else {
            panic!("wrong reply kind")
        };
        let writer = writer.expect("admission-backed service reports writer stats");
        assert_eq!(writer.batches_applied, 1);
        assert_eq!(writer.events_accepted, 2);
        assert_eq!(writer.watermark, 3);
        adm.flush().unwrap();
        assert!(tl.current().frame.has_edge(9, 5));
        assert_eq!(svc.shutdown().worker_panics, 0);
    }

    #[test]
    fn shutdown_drains_in_flight_queries() {
        // Queries racing a shutdown must all be answered (drain, not
        // abandon): fire a burst, join the clients, then shut down and
        // check the books balance.
        let svc = service();
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| svc.query(Request::Spectrum).is_ok())).collect();
            assert!(handles.into_iter().all(|h| h.join().unwrap()));
        });
        let stats = Arc::clone(svc.stats());
        assert_eq!(svc.shutdown().worker_panics, 0);
        assert_eq!(stats.served(), 8);
    }

    #[test]
    fn begin_shutdown_hands_back_closed() {
        let svc = service();
        svc.begin_shutdown();
        assert!(svc.query(Request::Info).unwrap_err().contains("shutting down"));
        match svc.try_submit(Request::Core(0), Box::new(|_| {})) {
            Err(SubmitError::Closed(Request::Core(0), _)) => {}
            other => panic!("try_submit after close: {:?}", other.map(|_| ())),
        }
        assert_eq!(svc.shutdown().worker_panics, 0);
    }
}
