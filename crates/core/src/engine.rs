//! The temporal execution engine: one replay loop for every per-snapshot
//! solver, over any frame source.
//!
//! Every per-snapshot algorithm (Greedy, OLAK, RCM, brute force) used to
//! hand-roll the same `for (t, frame) in evolving.frames()` control flow.
//! The engine extracts that loop once, behind the [`SnapshotSolver`] trait,
//! and keeps both of its remaining axes swappable:
//!
//! * **where frames come from** — any [`FrameSource`]: the resident
//!   [`avt_graph::EvolvingGraph`] (each [`avt_graph::CsrGraph`] frame
//!   derived from its predecessor in memory) or the zero-copy
//!   [`avt_graph::MmapFrames`] (frames mapped straight off `.csrbin`
//!   files). The engine never names a concrete substrate; solvers are
//!   generic over [`GraphView`], so new sources need zero solver changes.
//! * **how frames are driven** — [`Engine::sequential`] (one thread,
//!   original behaviour bit for bit) or [`Engine::pipelined`] (a producer
//!   walks the source in `t`-order feeding a bounded queue drained by a
//!   [`std::thread::scope`] worker pool).
//!
//! # Streaming reports
//!
//! Neither runner buffers all `T` reports: each [`SnapshotReport`] is
//! pushed into a [`ReportSink`] *in `t`-order as it becomes available*.
//! The pipelined runner holds at most O(workers) out-of-order reports in a
//! reorder window (workers finish out of order, the sink never sees that),
//! so end-to-end resident memory stays O(threads · frame) — frames in the
//! bounded queue, reports in the reorder window, nothing proportional to
//! `T`. [`Engine::run`] folds into an [`AvtResult`] (which records
//! per-snapshot detail by design); pass your own sink to
//! [`Engine::run_into`] to consume prefix aggregates in O(1) memory.
//!
//! # Determinism
//!
//! Each snapshot is solved in isolation from every other and the sink sees
//! reports in `t`-order — so anchors, followers, and every efficiency
//! counter of a pipelined run are identical to a sequential run's,
//! whatever the thread count and whatever the frame source. Only the
//! wall-clock fields (`elapsed`) vary run to run, exactly as they already
//! did sequentially.
//!
//! # Choosing a runner
//!
//! [`Engine::default`] is sequential unless overridden: the
//! `AVT_ENGINE_THREADS` environment variable (or
//! [`set_default_threads`], which takes precedence) switches every solver
//! whose `track` routes through the engine to the pipelined runner without
//! touching call sites. [`IncAvt`](crate::IncAvt) is *not* an engine
//! client: its whole point is carrying K-order state from `G_{t-1}` to
//! `G_t`, which is exactly the dependency the pipeline exploits the absence
//! of.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};

use avt_graph::{EvolvingGraph, FrameSource, GraphError, GraphView};

use crate::params::{AvtAlgorithm, AvtParams, AvtResult, SnapshotReport};

/// A solver for one frozen snapshot of the evolving graph.
///
/// Implementors solve the anchored-k-core problem on a single frame with no
/// state carried between snapshots — that independence is what lets the
/// engine fan snapshots out across threads. The frame is any
/// [`GraphView`] substrate; the engine feeds whatever its
/// [`FrameSource`] yields (resident CSR frames, mmap'd frames, …).
///
/// Every implementor is an [`AvtAlgorithm`] whose `track` runs
/// [`Engine::default`].
pub trait SnapshotSolver: Send + Sync {
    /// Display name used in experiment tables ("Greedy", "OLAK"…).
    const NAME: &'static str;

    /// Solve snapshot `t` (1-based) on the frozen `frame`.
    fn solve_snapshot<G: GraphView>(
        &self,
        t: usize,
        frame: &G,
        params: AvtParams,
    ) -> SnapshotReport;
}

impl<S: SnapshotSolver> AvtAlgorithm for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn track(&self, evolving: &EvolvingGraph, params: AvtParams) -> Result<AvtResult, GraphError> {
        Engine::default().run(self, evolving, params)
    }
}

/// A consumer of per-snapshot reports, fed strictly in `t`-order.
///
/// This is the streaming half of the engine: rather than buffering all `T`
/// reports and handing them over at the end, the runners push each report
/// as soon as it is available (and in order), so prefix consumers — the
/// Figure 5/6-style cumulative series, online dashboards — can fold with
/// O(1) extra memory.
///
/// [`AvtResult`] implements the trait by recording everything; any
/// `FnMut(SnapshotReport)` closure implements it for ad-hoc folds.
pub trait ReportSink {
    /// Consume the report for the next snapshot in `t`-order.
    fn push(&mut self, report: SnapshotReport);
}

impl ReportSink for AvtResult {
    fn push(&mut self, report: SnapshotReport) {
        self.push_report(report);
    }
}

impl<F: FnMut(SnapshotReport)> ReportSink for F {
    fn push(&mut self, report: SnapshotReport) {
        self(report);
    }
}

/// Sentinel for "no process-wide override installed".
const UNSET: usize = usize::MAX;

/// Process-wide default worker count, settable by harnesses (e.g. the
/// `run_experiments --threads` flag). `UNSET` defers to the environment.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Install a process-wide default worker count for [`Engine::default`].
/// `0` means one worker per available core; takes precedence over the
/// `AVT_ENGINE_THREADS` environment variable.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(resolve_threads(threads), Ordering::Relaxed);
}

/// The worker count [`Engine::default`] will use: the
/// [`set_default_threads`] override if installed, else `AVT_ENGINE_THREADS`
/// from the environment (`0` = one per core), else 1 (sequential).
pub fn default_threads() -> usize {
    let installed = DEFAULT_THREADS.load(Ordering::Relaxed);
    if installed != UNSET {
        return installed;
    }
    match std::env::var("AVT_ENGINE_THREADS") {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) => resolve_threads(n),
            Err(_) => {
                // Loud fallback: silently going sequential would make a
                // "pipelined CI pass" with a typo'd value test nothing.
                // Once per process, though — `Engine::default()` is built
                // per tracking run, and a sweep repeating the warning
                // hundreds of times buries the signal it carries.
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: AVT_ENGINE_THREADS={value:?} is not a number; running sequential"
                    );
                });
                1
            }
        },
        Err(_) => 1,
    }
}

/// Resolve a user-facing thread knob: `0` means one worker per available
/// core ([`std::thread::available_parallelism`]), any other value is taken
/// literally.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// The temporal execution engine: replays a [`FrameSource`] and solves
/// every snapshot with one [`SnapshotSolver`], sequentially or pipelined.
///
/// # Example
///
/// ```
/// use avt_core::{AvtParams, Engine, Greedy};
/// use avt_graph::{EdgeBatch, EvolvingGraph, Graph};
///
/// let g1 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 3)]).unwrap();
/// let mut eg = EvolvingGraph::new(g1);
/// eg.push_batch(EdgeBatch::from_pairs([(4, 0)], []));
///
/// let params = AvtParams::new(2, 1);
/// let seq = Engine::sequential().run(&Greedy::default(), &eg, params).unwrap();
/// let par = Engine::pipelined(4).run(&Greedy::default(), &eg, params).unwrap();
/// assert_eq!(seq.anchor_sets, par.anchor_sets);
/// assert_eq!(seq.follower_counts, par.follower_counts);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    /// Pipeline worker count, or `None` for the sequential loop.
    workers: Option<usize>,
}

impl Default for Engine {
    /// The process default: sequential unless `AVT_ENGINE_THREADS` /
    /// [`set_default_threads`] ask for more than one worker (see
    /// [`default_threads`]).
    fn default() -> Self {
        match default_threads() {
            1 => Engine::sequential(),
            threads => Engine::pipelined(threads),
        }
    }
}

impl Engine {
    /// The sequential runner: every snapshot solved in order on the
    /// calling thread.
    pub fn sequential() -> Self {
        Engine { workers: None }
    }

    /// The pipelined runner with `threads` workers (`0` = one per core).
    /// It runs the producer/worker pipeline at every worker count, one
    /// included, so frame production overlaps solving even then.
    pub fn pipelined(threads: usize) -> Self {
        Engine { workers: Some(resolve_threads(threads)) }
    }

    /// Replay `source` through `solver`, collecting everything into an
    /// [`AvtResult`].
    pub fn run<S: SnapshotSolver, F: FrameSource>(
        &self,
        solver: &S,
        source: &F,
        params: AvtParams,
    ) -> Result<AvtResult, GraphError> {
        let mut result = AvtResult::default();
        self.run_into(solver, source, params, &mut result)?;
        Ok(result)
    }

    /// Replay `source` through `solver`, streaming each report into `sink`
    /// in `t`-order as it becomes available (see [`ReportSink`]).
    pub fn run_into<S: SnapshotSolver, F: FrameSource, K: ReportSink>(
        &self,
        solver: &S,
        source: &F,
        params: AvtParams,
        sink: &mut K,
    ) -> Result<(), GraphError> {
        match self.workers {
            Some(threads) => run_pipelined_into(solver, source, params, threads, sink),
            None => run_sequential_into(solver, source, params, sink),
        }
    }
}

/// Solve every snapshot in order on the calling thread — the exact loop the
/// per-solver `track` implementations used to hand-roll — streaming each
/// report straight from the solver into `sink`; nothing is buffered. For
/// the resident [`avt_graph::EvolvingGraph`] the walk is the zero-clone
/// [`avt_graph::EvolvingGraph::frames_arc`].
fn run_sequential_into<S: SnapshotSolver, F: FrameSource, K: ReportSink>(
    solver: &S,
    source: &F,
    params: AvtParams,
    sink: &mut K,
) -> Result<(), GraphError> {
    for (t, frame) in source.iter_frames() {
        sink.push(solver.solve_snapshot(t, frame.as_ref(), params));
    }
    Ok(())
}

/// Pipelined replay: one producer thread walks the source's frames in
/// `t`-order (for an evolving graph, frame `t+1` is merged while frame `t`
/// is being solved) feeding a bounded queue drained by `threads` workers,
/// with output identical to [`run_sequential_into`] — see the module docs
/// on determinism.
///
/// Reports are re-ordered through a bounded window and pushed into `sink`
/// in `t`-order *while workers are still solving*. The bound is enforced,
/// not incidental: the producer holds a credit for every snapshot between
/// production and *delivery to the sink*, with 4·threads credits total, so
/// even when one slow snapshot blocks delivery the faster workers can run
/// at most O(threads) reports ahead before the whole pipeline waits for it.
fn run_pipelined_into<S: SnapshotSolver, F: FrameSource, K: ReportSink>(
    solver: &S,
    source: &F,
    params: AvtParams,
    threads: usize,
    sink: &mut K,
) -> Result<(), GraphError> {
    let total = source.num_frames();
    // Bounded frame queue: the producer stays at most ~2 frames per worker
    // ahead, so resident memory is O(threads · frame), not O(T · frame).
    // Jobs carry a dense sequence number (assigned by arrival order) so the
    // collector can restore `t`-order without assuming anything about the
    // source's `t` values beyond their ordering.
    let (frame_tx, frame_rx) = mpsc::sync_channel::<(usize, usize, Arc<F::Frame>)>(2 * threads);
    // In-flight credits: one token per snapshot that has been produced but
    // not yet delivered to the sink. Capacity 4·threads covers the frame
    // queue (2t) plus the workers' hands (t) with slack, so the pipeline
    // never throttles in the steady state — but a straggler snapshot can
    // only ever leave O(threads) completed reports parked in the reorder
    // window, never O(T).
    let (credit_tx, credit_rx) = mpsc::sync_channel::<()>(4 * threads);
    // Each worker owns an Arc to the shared receiver: when the last worker
    // exits — normally or by unwinding — the receiver drops, the producer's
    // next send errors, and the scope can finish joining. A stack-owned
    // receiver would outlive panicking workers and deadlock the producer.
    let frame_rx = Arc::new(Mutex::new(frame_rx));
    // `None` is a death notice: a worker unwound without finishing its
    // snapshot. The collector must hear about it *eagerly* — a panicked
    // snapshot never delivers, so its credit is never freed, and with the
    // producer parked on a full credit channel the surviving workers would
    // otherwise starve and the collector would wait on them forever.
    let (report_tx, report_rx) = mpsc::channel::<Option<(usize, SnapshotReport)>>();
    let mut delivered = 0usize;

    /// Sends the death notice when a worker unwinds mid-snapshot.
    struct DeathNotice(mpsc::Sender<Option<(usize, SnapshotReport)>>);
    impl Drop for DeathNotice {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let _ = self.0.send(None);
            }
        }
    }

    std::thread::scope(|scope| {
        // Move both receivers into the scope body: when the collector
        // aborts on a death notice they must drop *before* the implicit
        // join at the end of the scope — that is what errors out a
        // producer parked on a full credit channel (and, transitively,
        // unblocks workers waiting on the frame queue it feeds). Left in
        // the enclosing function body they would outlive the join and the
        // abort path would deadlock instead of re-raising the panic.
        let report_rx = report_rx;
        let credit_rx = credit_rx;
        scope.spawn(move || {
            for (seq, (t, frame)) in source.iter_frames().enumerate() {
                // Acquire the in-flight credit first; the collector frees
                // one per delivered report.
                if credit_tx.send(()).is_err() || frame_tx.send((seq, t, frame)).is_err() {
                    // The collector has aborted (a worker panicked); stop
                    // producing — the scope will re-raise the panic.
                    break;
                }
            }
        });
        for _ in 0..threads {
            let report_tx = report_tx.clone();
            let frame_rx = Arc::clone(&frame_rx);
            scope.spawn(move || {
                let _death = DeathNotice(report_tx.clone());
                loop {
                    // Hold the lock only for the dequeue; solving runs
                    // unlocked so workers overlap.
                    let job = frame_rx.lock().expect("frame queue lock poisoned").recv();
                    let Ok((seq, t, frame)) = job else { break };
                    let report = solver.solve_snapshot(t, frame.as_ref(), params);
                    if report_tx.send(Some((seq, report))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(report_tx);
        drop(frame_rx);
        // The calling thread doubles as the collector: drain reports as
        // workers emit them, restore order through a window bounded by the
        // in-flight credits, and stream into the sink. The loop ends when
        // every worker has dropped its sender, or aborts on a death notice
        // — finishing the scope body drops `credit_rx` and `report_rx`,
        // which unblocks the producer and the surviving workers so the
        // scope can join them and re-raise the panic.
        let mut window: BTreeMap<usize, SnapshotReport> = BTreeMap::new();
        let mut next_seq = 0usize;
        for message in report_rx.iter() {
            let Some((seq, report)) = message else { break };
            window.insert(seq, report);
            while let Some(report) = window.remove(&next_seq) {
                sink.push(report);
                // Free this snapshot's in-flight credit. Never blocks: a
                // delivered report's credit was sent before its frame.
                let _ = credit_rx.recv();
                delivered += 1;
                next_seq += 1;
            }
        }
    });
    // Reached only when no thread panicked (the scope re-raises first).
    assert_eq!(delivered, total, "every snapshot must produce exactly one report");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForce, Greedy, Olak, Rcm};
    use avt_graph::{EdgeBatch, Graph, MmapFrames};

    fn churny() -> EvolvingGraph {
        let g1 = Graph::from_edges(
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
        .unwrap();
        let mut eg = EvolvingGraph::new(g1);
        eg.push_batch(EdgeBatch::from_pairs([(6, 5)], []));
        eg.push_batch(EdgeBatch::from_pairs([(9, 7)], [(4, 5)]));
        eg.push_batch(EdgeBatch::from_pairs([(4, 5)], [(9, 7)]));
        eg
    }

    /// Everything determinism covers, per snapshot (wall clock excluded).
    type Shape = Vec<(usize, Vec<u32>, Vec<u32>, usize, usize, crate::Metrics)>;

    /// Strip the wall-clock fields, keeping everything determinism covers.
    fn shape(r: &AvtResult) -> Shape {
        r.reports
            .iter()
            .map(|s| {
                (
                    s.t,
                    s.anchors.clone(),
                    s.followers.clone(),
                    s.base_core_size,
                    s.anchored_core_size,
                    s.metrics,
                )
            })
            .collect()
    }

    #[test]
    fn pipelined_matches_sequential_for_every_solver() {
        let eg = churny();
        let params = AvtParams::new(3, 2);
        let brute = BruteForce { pool_cap: Some(6) };
        for threads in [1, 2, 4] {
            macro_rules! check {
                ($solver:expr) => {
                    let seq = Engine::sequential().run(&$solver, &eg, params).unwrap();
                    let par = Engine::pipelined(threads).run(&$solver, &eg, params).unwrap();
                    assert_eq!(shape(&seq), shape(&par), "threads = {threads}");
                };
            }
            check!(Greedy);
            check!(Olak);
            check!(Rcm);
            check!(brute);
        }
    }

    #[test]
    fn pipelined_runs_the_pipeline_at_every_worker_count() {
        // The sequential loop solves on the calling thread, the pipeline
        // on its workers. `pipelined(1)`, and `pipelined(0)` on a
        // one-core host, must not fall back to the loop: the equivalence
        // and panic tests use them to force the pipeline.
        struct WhereSolved {
            caller: std::thread::ThreadId,
            on_caller: Mutex<Vec<bool>>,
        }
        impl SnapshotSolver for WhereSolved {
            const NAME: &'static str = "WhereSolved";

            fn solve_snapshot<G: avt_graph::GraphView>(
                &self,
                t: usize,
                frame: &G,
                params: AvtParams,
            ) -> SnapshotReport {
                let here = std::thread::current().id() == self.caller;
                self.on_caller.lock().unwrap().push(here);
                Olak.solve_snapshot(t, frame, params)
            }
        }
        let eg = churny();
        for (engine, on_caller) in [
            (Engine::sequential(), true),
            (Engine::pipelined(1), false),
            (Engine::pipelined(0), false),
            (Engine::pipelined(3), false),
        ] {
            let solver = WhereSolved {
                caller: std::thread::current().id(),
                on_caller: Mutex::new(Vec::new()),
            };
            engine.run(&solver, &eg, AvtParams::new(3, 1)).unwrap();
            let seen = solver.on_caller.into_inner().unwrap();
            assert_eq!(seen, vec![on_caller; eg.num_snapshots()], "{engine:?}");
        }
    }

    #[test]
    fn mmap_source_matches_resident_source() {
        // The engine is frame-source generic: the same solver over the same
        // stream, resident vs spilled-and-mapped, must agree bit for bit.
        let eg = churny();
        let dir = std::env::temp_dir().join(format!(
            "avt_engine_mmap_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let frames = MmapFrames::spill(&eg, &dir).unwrap();
        let params = AvtParams::new(3, 2);
        let solver = Greedy;
        let resident = Engine::sequential().run(&solver, &eg, params).unwrap();
        let mapped_seq = Engine::sequential().run(&solver, &frames, params).unwrap();
        let mapped_par = Engine::pipelined(3).run(&solver, &frames, params).unwrap();
        assert_eq!(shape(&resident), shape(&mapped_seq));
        assert_eq!(shape(&resident), shape(&mapped_par));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn streaming_sink_sees_reports_in_order_while_running() {
        // The pipelined runner must deliver t = 1, 2, 3, … to the sink (no
        // trailing sort), whatever order workers finish in.
        let eg = churny();
        let mut seen = Vec::new();
        let mut sink = |report: SnapshotReport| seen.push(report.t);
        Engine::pipelined(4).run_into(&Olak, &eg, AvtParams::new(3, 1), &mut sink).unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4]);

        // And a fold-only consumer reproduces the collected aggregate
        // without ever holding a report vector.
        let collected = Engine::sequential().run(&Olak, &eg, AvtParams::new(3, 1)).unwrap();
        let mut total = 0usize;
        let mut fold = |report: SnapshotReport| total += report.followers.len();
        Engine::sequential().run_into(&Olak, &eg, AvtParams::new(3, 1), &mut fold).unwrap();
        assert_eq!(total, collected.total_followers());
    }

    #[test]
    fn straggler_snapshot_backpressures_without_deadlock() {
        // One slow snapshot at the front: the credit cap (4·threads) must
        // throttle the fast workers instead of letting completed reports
        // pile up O(T) deep — and the run must still complete, in order.
        struct SlowFirst;
        impl SnapshotSolver for SlowFirst {
            const NAME: &'static str = "SlowFirst";

            fn solve_snapshot<G: avt_graph::GraphView>(
                &self,
                t: usize,
                frame: &G,
                params: AvtParams,
            ) -> SnapshotReport {
                if t == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(40));
                }
                Olak.solve_snapshot(t, frame, params)
            }
        }
        let mut eg = churny();
        for _ in 0..20 {
            eg.push_batch(EdgeBatch::new());
        }
        let total = eg.num_snapshots();
        let mut seen = Vec::new();
        let mut sink = |report: SnapshotReport| seen.push(report.t);
        Engine::pipelined(2).run_into(&SlowFirst, &eg, AvtParams::new(3, 1), &mut sink).unwrap();
        assert_eq!(seen, (1..=total).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // A solver that dies on one snapshot: the run must panic (scope
        // re-raises), not hang with the producer blocked on a full queue.
        struct Dies;
        impl SnapshotSolver for Dies {
            const NAME: &'static str = "Dies";

            fn solve_snapshot<G: avt_graph::GraphView>(
                &self,
                t: usize,
                frame: &G,
                params: AvtParams,
            ) -> SnapshotReport {
                assert!(t != 2, "deliberate worker death at t = 2");
                Olak.solve_snapshot(t, frame, params)
            }
        }
        let eg = churny();
        let result = std::panic::catch_unwind(|| {
            let _ = Engine::pipelined(1).run(&Dies, &eg, AvtParams::new(3, 1));
        });
        assert!(result.is_err(), "the worker panic must surface");

        // The hard case: a stream much longer than the credit window with
        // several workers. The panicked snapshot never frees its credit,
        // so without the death notice the producer parks on a full credit
        // channel and the run hangs instead of panicking.
        let mut long = churny();
        for _ in 0..40 {
            long.push_batch(EdgeBatch::new());
        }
        let result = std::panic::catch_unwind(|| {
            let _ = Engine::pipelined(2).run(&Dies, &long, AvtParams::new(3, 1));
        });
        assert!(result.is_err(), "the worker panic must surface on long streams too");
    }

    #[test]
    fn track_goes_through_the_engine() {
        // The per-solver `track` entry points route through the default
        // engine; whatever runner that picks, output must equal an explicit
        // sequential run.
        let eg = churny();
        let params = AvtParams::new(3, 2);
        let tracked = Greedy.track(&eg, params).unwrap();
        let seq = Engine::sequential().run(&Greedy, &eg, params).unwrap();
        assert_eq!(shape(&tracked), shape(&seq));
    }

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn single_snapshot_pipeline() {
        let eg = EvolvingGraph::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 0)]).unwrap());
        let params = AvtParams::new(2, 1);
        let seq = Engine::sequential().run(&Olak, &eg, params).unwrap();
        let par = Engine::pipelined(4).run(&Olak, &eg, params).unwrap();
        assert_eq!(shape(&seq), shape(&par));
        assert_eq!(par.reports.len(), 1);
    }
}
