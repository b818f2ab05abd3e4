//! The live writer path: batches in, epoch-published frozen frames out.
//!
//! A [`LiveTimeline`] is the online counterpart of the offline
//! [`EvolvingGraph`] replay: instead of a finished batch script walked
//! after the fact, updates arrive *while queries are being served*. The
//! two sides meet at the epoch boundary:
//!
//! * the **writer** applies each [`EdgeBatch`] twice, through the two
//!   machines that already exist for exactly these jobs —
//!   [`CsrGraph::apply_batch`] derives the next frozen frame functionally
//!   (bulk copies of what the batch leaves alone, merges of the lists it
//!   touches, after validating the batch up front), and
//!   [`MaintainedCore`] repairs the K-order incrementally (§5.2 of the
//!   paper), which both keeps core numbers O(1)-queryable and yields the
//!   promoted/demoted [`ChangeSet`] per epoch. A small write costs what it
//!   changes: its edges' neighbour lists and the vertices whose order
//!   they disturb, plus the O(n) copies of the offsets and cores that a
//!   new epoch publishes;
//! * **publication** swaps one `Arc<EpochFrame>` pointer. Readers grab the
//!   current epoch with a refcount bump and from then on share the frozen
//!   [`CsrGraph`] and its core array with every other reader, zero-copy:
//!   a reader is never invalidated, never blocked by other readers, and
//!   never sees a half-applied batch — it simply keeps the epoch it
//!   started with until it asks again.
//!
//! Because the writer records the batch history, [`LiveTimeline::freeze`]
//! hands out the stream served so far as an offline [`EvolvingGraph`]. For
//! audit it replays through the offline execution engine, or spills to a
//! `.csrbin` directory with [`avt_graph::MmapFrames::spill`]; the
//! service-vs-offline equivalence tests are built on exactly this round
//! trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use avt_graph::{CsrGraph, EdgeBatch, EvolvingGraph, Graph, GraphError, VertexId};
use avt_kcore::{ChangeSet, CoreSpectrum, MaintainedCore};

/// One published epoch: the frozen frame plus the core numbers the writer
/// maintained for it. Immutable once published; readers share it by `Arc`.
#[derive(Debug)]
pub struct EpochFrame {
    /// 1-based epoch index (equals the snapshot index `t` of the replay).
    pub t: usize,
    /// The frozen snapshot `G_t`.
    pub frame: Arc<CsrGraph>,
    /// Core number of every vertex at this epoch, from the writer's
    /// incrementally maintained K-order — consistent with `frame` by
    /// construction, so `CORE` queries never pay a decomposition.
    pub cores: Arc<[u32]>,
    /// Shell histogram of `cores` (`shells[c]` = vertices with core
    /// exactly `c`), derived once at publication from the previous
    /// epoch's and the batch's core changes, so `SPECTRUM` queries are a
    /// copy of O(degeneracy) counters, not an O(n) rescan each.
    pub shells: Vec<usize>,
}

impl EpochFrame {
    /// The first epoch, its shell histogram counted from `cores`.
    fn first(frame: Arc<CsrGraph>, cores: &[u32]) -> EpochFrame {
        let shells = CoreSpectrum::from_cores(cores).shells().to_vec();
        EpochFrame { t: 1, frame, cores: cores.into(), shells }
    }

    /// The epoch after this one, reached by a batch that changed the core
    /// numbers of `changes`' vertices to their values in `cores`. Its shell
    /// histogram is this epoch's with each changed vertex moved from its
    /// core here to its core in `cores`: O(changes), not a rescan. The
    /// core array is still copied whole, because epochs share no array.
    fn next(&self, frame: Arc<CsrGraph>, cores: &[u32], changes: &ChangeSet) -> EpochFrame {
        let mut shells = self.shells.clone();
        for v in changes.changed_vertices() {
            let (old, new) = (self.cores[v as usize] as usize, cores[v as usize] as usize);
            shells[old] -= 1;
            if shells.len() <= new {
                shells.resize(new + 1, 0);
            }
            shells[new] += 1;
        }
        // As `CoreSpectrum::from_cores`: the last shell is the top core's.
        while shells.len() > 1 && shells.last() == Some(&0) {
            shells.pop();
        }
        EpochFrame { t: self.t + 1, frame, cores: cores.into(), shells }
    }

    /// Core number of `v` at this epoch (0 for out-of-range ids).
    pub fn core(&self, v: VertexId) -> u32 {
        self.cores.get(v as usize).copied().unwrap_or(0)
    }
}

/// What one [`LiveTimeline::apply_batch`] produced.
#[derive(Debug)]
pub struct EpochReport {
    /// The epoch that was just published.
    pub epoch: Arc<EpochFrame>,
    /// Vertices whose core number changed, from the maintenance layer.
    pub changes: ChangeSet,
}

/// Writer-side state, guarded by one mutex: there is exactly one logical
/// writer, and batch application must see a consistent (graph, K-order,
/// history) triple.
#[derive(Debug)]
struct Writer {
    maintained: MaintainedCore,
    history: EvolvingGraph,
    /// The last published epoch, which the next batch starts from.
    last: Arc<EpochFrame>,
}

/// A live evolving graph with epoch-published snapshots.
///
/// # Example
///
/// ```
/// use avt_graph::{EdgeBatch, Graph};
/// use avt_serve::LiveTimeline;
///
/// let tl = LiveTimeline::new(Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap());
/// assert_eq!(tl.current().t, 1);
/// tl.apply_batch(EdgeBatch::from_pairs([(2, 3)], [])).unwrap();
/// let epoch = tl.current();
/// assert_eq!(epoch.t, 2);
/// assert!(epoch.frame.has_edge(2, 3));
/// ```
#[derive(Debug)]
pub struct LiveTimeline {
    writer: Mutex<Writer>,
    /// The published epoch. Readers hold the lock only for an `Arc` clone
    /// (a refcount bump); the writer only for the pointer swap. The frame
    /// data itself is never behind the lock.
    published: RwLock<Arc<EpochFrame>>,
    epochs: AtomicU64,
}

impl LiveTimeline {
    /// Start a timeline at epoch 1 = `initial`.
    pub fn new(initial: Graph) -> Self {
        let frame = Arc::new(CsrGraph::from_graph(&initial));
        let maintained = MaintainedCore::new(initial.clone());
        let epoch = Arc::new(EpochFrame::first(frame, maintained.korder().core_slice()));
        let history = EvolvingGraph::new(initial);
        LiveTimeline {
            writer: Mutex::new(Writer { maintained, history, last: Arc::clone(&epoch) }),
            published: RwLock::new(epoch),
            epochs: AtomicU64::new(1),
        }
    }

    /// Shared vertex-set size (fixed for the timeline's lifetime, like the
    /// paper's evolving-graph model).
    pub fn num_vertices(&self) -> usize {
        self.writer.lock().expect("writer lock poisoned").history.num_vertices()
    }

    /// Apply one edge batch, advance `t`, and publish the new epoch.
    ///
    /// The batch is validated against the current frame *before* any state
    /// changes ([`CsrGraph::apply_batch`] is functional), so a rejected
    /// batch — duplicate insert, deleting an absent edge, out-of-range
    /// endpoint — leaves the timeline exactly where it was and readers
    /// never observe it.
    pub fn apply_batch(&self, batch: EdgeBatch) -> Result<EpochReport, GraphError> {
        let mut w = self.writer.lock().expect("writer lock poisoned");
        // Derive-and-validate first; only a clean batch reaches the
        // incremental maintenance below.
        let next = Arc::new(w.last.frame.apply_batch(&batch)?);
        let changes = w
            .maintained
            .apply_batch(&batch)
            .expect("batch already validated against the published frame");
        w.history.push_batch(batch);
        let epoch = Arc::new(w.last.next(next, w.maintained.korder().core_slice(), &changes));
        debug_assert_eq!(epoch.t, w.history.num_snapshots());
        w.last = Arc::clone(&epoch);
        *self.published.write().expect("publish lock poisoned") = Arc::clone(&epoch);
        self.epochs.fetch_add(1, Ordering::Relaxed);
        Ok(EpochReport { epoch, changes })
    }

    /// The current epoch: a shared handle to the latest published frame.
    /// Cheap (one refcount bump) and safe to call from any thread at any
    /// time; the returned epoch stays valid however far the writer moves
    /// on.
    pub fn current(&self) -> Arc<EpochFrame> {
        Arc::clone(&self.published.read().expect("publish lock poisoned"))
    }

    /// Number of epochs published so far (equals the current `t`).
    pub fn epochs_published(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Cumulative vertices visited by the writer's K-order maintenance
    /// (the paper's "visited vertices" counter, here for the write path).
    pub fn maintenance_visited(&self) -> u64 {
        self.writer.lock().expect("writer lock poisoned").maintained.visited_vertices()
    }

    /// A frozen copy of the full batch history as an offline
    /// [`EvolvingGraph`] — the audit/replay currency. O(n + m + total
    /// churn). The copy is taken under the writer lock, so it is one whole
    /// prefix of the history however the writer moves on: a replay of it
    /// needs no quiescent writer.
    pub fn freeze(&self) -> EvolvingGraph {
        self.writer.lock().expect("writer lock poisoned").history.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_kcore::decompose::CoreDecomposition;
    use std::sync::Barrier;

    fn start() -> LiveTimeline {
        LiveTimeline::new(Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap())
    }

    #[test]
    fn publishes_initial_epoch() {
        let tl = start();
        let e = tl.current();
        assert_eq!(e.t, 1);
        assert_eq!(tl.epochs_published(), 1);
        assert_eq!(e.frame.num_edges(), 4);
        assert_eq!(e.core(0), 2);
        assert_eq!(e.core(3), 1);
        assert_eq!(e.core(4), 0);
        assert_eq!(e.core(99), 0, "out-of-range ids read as core 0");
    }

    #[test]
    fn apply_batch_advances_and_maintains_cores() {
        let tl = start();
        // Tie 3 and 4 into the triangle: 3 gains a second core link.
        let report = tl.apply_batch(EdgeBatch::from_pairs([(3, 1), (4, 0), (4, 3)], [])).unwrap();
        assert_eq!(report.epoch.t, 2);
        assert!(report.changes.promoted.contains(&3));
        let e = tl.current();
        // Maintained cores equal a from-scratch decomposition of the frame.
        let fresh = CoreDecomposition::compute(e.frame.as_ref());
        assert_eq!(&e.cores[..], fresh.cores());
    }

    #[test]
    fn bad_batch_is_rejected_atomically() {
        let tl = start();
        let before = tl.current();
        // Second insertion duplicates an existing edge: the whole batch
        // must bounce with no epoch published.
        assert!(tl.apply_batch(EdgeBatch::from_pairs([(3, 4), (0, 1)], [])).is_err());
        assert!(tl.apply_batch(EdgeBatch::from_pairs([], [(2, 4)])).is_err());
        let after = tl.current();
        assert_eq!(after.t, before.t);
        assert_eq!(tl.epochs_published(), 1);
        assert!(!after.frame.has_edge(3, 4), "rejected insert must not leak");
        // And the next clean batch applies on the unpolluted state.
        assert_eq!(tl.apply_batch(EdgeBatch::from_pairs([(3, 4)], [])).unwrap().epoch.t, 2);
    }

    #[test]
    fn readers_keep_their_epoch_across_writes() {
        let tl = start();
        let old = tl.current();
        tl.apply_batch(EdgeBatch::from_pairs([(3, 4)], [(0, 1)])).unwrap();
        // The old epoch is untouched; the new one reflects the batch.
        assert!(old.frame.has_edge(0, 1));
        assert!(!old.frame.has_edge(3, 4));
        let new = tl.current();
        assert!(!new.frame.has_edge(0, 1));
        assert!(new.frame.has_edge(3, 4));
    }

    #[test]
    fn freeze_replays_the_history() {
        let tl = start();
        tl.apply_batch(EdgeBatch::from_pairs([(3, 4)], [])).unwrap();
        tl.apply_batch(EdgeBatch::from_pairs([(4, 1)], [(3, 0)])).unwrap();
        // The frozen history round-trips through the offline model.
        let frozen = tl.freeze();
        assert_eq!(frozen.num_snapshots(), 3);
        frozen.validate().unwrap();
        let walked: Vec<_> = frozen.frames().map(|(t, f)| (t, f.num_edges())).collect();
        assert_eq!(walked, vec![(1, 4), (2, 5), (3, 5)]);
    }

    #[test]
    fn frozen_history_spills_to_a_replayable_frame_directory() {
        let tl = start();
        tl.apply_batch(EdgeBatch::from_pairs([(3, 4)], [])).unwrap();
        let dir = std::env::temp_dir().join(format!("avt_serve_spill_{}", std::process::id()));
        let frames = avt_graph::MmapFrames::spill(&tl.freeze(), &dir).unwrap();
        assert_eq!(frames.frame(2).unwrap().num_edges(), 5);
        assert!(frames.frame(3).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn freeze_racing_the_writer_sees_one_whole_prefix() {
        // `freeze` clones the history under the writer lock, so a replay
        // needs no quiescent writer: every copy taken mid-stream is a
        // valid prefix of what the writer publishes.
        const BATCHES: usize = 200;
        let tl = start();
        let barrier = Barrier::new(2);
        let frozen = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                barrier.wait();
                for i in 0..BATCHES {
                    let edges = [(3, 4), (4, 1)];
                    let batch = if i % 2 == 0 {
                        EdgeBatch::from_pairs(edges, [])
                    } else {
                        EdgeBatch::from_pairs([], edges)
                    };
                    tl.apply_batch(batch).unwrap();
                }
            });
            barrier.wait();
            let mut frozen = Vec::new();
            while !writer.is_finished() {
                let before = tl.epochs_published() as usize;
                let history = tl.freeze();
                let after = tl.epochs_published() as usize;
                history.validate().unwrap();
                let t = history.num_snapshots();
                assert!(before <= t && t <= after, "{before} <= {t} <= {after}");
                frozen.push(history);
            }
            frozen
        });
        let last = tl.freeze();
        assert_eq!(last.num_snapshots(), BATCHES + 1);
        for history in &frozen {
            assert_eq!(history.batches(), &last.batches()[..history.num_snapshots() - 1]);
        }
    }

    #[test]
    fn shell_histograms_follow_the_change_sets() {
        // A random stream of light batches with two heavy ones, which
        // `MaintainedCore` applies by decomposing (churn of 5 % of n + m or
        // more), so both of its branches feed the histogram's updates.
        let n = 60u32;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % u64::from(bound)) as u32
        };
        let mut edges = Vec::new();
        while edges.len() < 150 {
            let (u, v) = (next(n), next(n));
            if u != v && !edges.contains(&(u, v)) && !edges.contains(&(v, u)) {
                edges.push((u, v));
            }
        }
        let tl = LiveTimeline::new(Graph::from_edges(n as usize, edges).unwrap());
        let mut heavy = 0;
        for step in 0..120 {
            let frame = Arc::clone(&tl.current().frame);
            let churn = if step % 50 == 25 { 40 } else { 1 + next(3) as usize };
            let (mut insert, mut delete) = (Vec::new(), Vec::new());
            while insert.len() + delete.len() < churn {
                let (u, v) = (next(n), next(n));
                let pair = (u.min(v), u.max(v));
                if u == v || insert.contains(&pair) || delete.contains(&pair) {
                    continue;
                }
                if frame.has_edge(u, v) {
                    delete.push(pair);
                } else {
                    insert.push(pair);
                }
            }
            heavy += usize::from(20 * churn >= frame.num_vertices() + frame.num_edges());
            let report = tl.apply_batch(EdgeBatch::from_pairs(insert, delete)).unwrap();
            let epoch = tl.current();
            assert!(Arc::ptr_eq(&report.epoch, &epoch));
            let counted = avt_kcore::CoreSpectrum::from_cores(&epoch.cores);
            assert_eq!(epoch.shells, counted.shells(), "epoch {}", epoch.t);
        }
        assert_eq!(heavy, 2, "the stream crosses the heavy-batch share twice");
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let tl = Arc::new(start());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let tl = Arc::clone(&tl);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let e = tl.current();
                        // Every observed epoch is internally consistent.
                        let fresh = CoreDecomposition::compute(e.frame.as_ref());
                        assert_eq!(&e.cores[..], fresh.cores(), "epoch {}", e.t);
                    }
                });
            }
            let mut flip = true;
            for _ in 0..40 {
                let batch = if flip {
                    EdgeBatch::from_pairs([(3, 4), (4, 1)], [])
                } else {
                    EdgeBatch::from_pairs([], [(3, 4), (4, 1)])
                };
                tl.apply_batch(batch).unwrap();
                flip = !flip;
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(tl.epochs_published(), 41);
        assert_eq!(tl.current().t, 41);
    }
}
