//! The evolving-graph model `G = {G_t}_{t=1..T}`.
//!
//! The paper models a dynamic network as a sequence of snapshots sharing one
//! vertex set, with consecutive snapshots related by edge insertions `E+`
//! and deletions `E-`. Storing `T` full snapshots would be wasteful and —
//! more importantly — would hide the deltas the incremental algorithm feeds
//! on, so an [`EvolvingGraph`] is the initial snapshot plus `T-1` batches.

use std::sync::Arc;

use crate::{CsrGraph, EdgeBatch, Graph, GraphError};

/// An evolving graph: snapshot `G_1` plus the per-step churn.
///
/// Snapshot indices are 1-based to match the paper (`t ∈ [1, T]`).
///
/// # Example
///
/// ```
/// use avt_graph::{EvolvingGraph, EdgeBatch, Graph};
///
/// let g1 = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
/// let mut eg = EvolvingGraph::new(g1);
/// eg.push_batch(EdgeBatch::from_pairs([(2, 3)], [(0, 1)]));
/// assert_eq!(eg.num_snapshots(), 2);
/// let g2 = eg.snapshot(2).unwrap();
/// assert!(g2.has_edge(2, 3));
/// assert!(!g2.has_edge(0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct EvolvingGraph {
    initial: Graph,
    batches: Vec<EdgeBatch>,
}

impl EvolvingGraph {
    /// Wrap a single snapshot (T = 1).
    pub fn new(initial: Graph) -> Self {
        EvolvingGraph { initial, batches: Vec::new() }
    }

    /// Build from an initial snapshot and pre-computed batches.
    pub fn with_batches(initial: Graph, batches: Vec<EdgeBatch>) -> Self {
        EvolvingGraph { initial, batches }
    }

    /// Append the churn producing snapshot `T+1`.
    pub fn push_batch(&mut self, batch: EdgeBatch) {
        self.batches.push(batch);
    }

    /// Number of snapshots `T`.
    pub fn num_snapshots(&self) -> usize {
        self.batches.len() + 1
    }

    /// Shared vertex-set size.
    pub fn num_vertices(&self) -> usize {
        self.initial.num_vertices()
    }

    /// The first snapshot `G_1`.
    pub fn initial(&self) -> &Graph {
        &self.initial
    }

    /// The batch transforming `G_t` into `G_{t+1}` (`t` 1-based,
    /// `1 <= t < T`).
    pub fn batch(&self, t: usize) -> Option<&EdgeBatch> {
        if t == 0 {
            return None;
        }
        self.batches.get(t - 1)
    }

    /// All batches in order.
    pub fn batches(&self) -> &[EdgeBatch] {
        &self.batches
    }

    /// Materialize a *single* snapshot `G_t` (`t` 1-based) by applying all
    /// batches from `G_1`. O(m + total churn up to t) — calling this in a
    /// loop over `t` is quadratic; iterate [`Self::frames`] (immutable CSR
    /// frames, each materialized once, incrementally) instead.
    pub fn snapshot(&self, t: usize) -> Result<Graph, GraphError> {
        if t == 0 || t > self.num_snapshots() {
            return Err(GraphError::SnapshotOutOfRange { t, snapshots: self.num_snapshots() });
        }
        let mut g = self.initial.clone();
        for batch in &self.batches[..t - 1] {
            g.apply_batch(batch)?;
        }
        Ok(g)
    }

    /// Iterate over snapshots `G_1..G_T` as immutable [`CsrGraph`] frames,
    /// each materialized exactly once by the [`Self::frames_arc`] walk, so
    /// the whole walk costs O(T·(n + m)) array merges instead of the
    /// O(T²·churn) a [`Self::snapshot`]-in-a-loop pays. Each non-final
    /// frame is cloned out of its `Arc`, because the walk keeps it to derive
    /// the next one; the final frame is handed over without a copy.
    ///
    /// # Example
    ///
    /// ```
    /// use avt_graph::{EdgeBatch, EvolvingGraph, Graph};
    ///
    /// let g1 = Graph::from_edges(3, [(0, 1)]).unwrap();
    /// let mut eg = EvolvingGraph::new(g1);
    /// eg.push_batch(EdgeBatch::from_pairs([(1, 2)], []));
    /// let edge_counts: Vec<_> = eg.frames().map(|(t, f)| (t, f.num_edges())).collect();
    /// assert_eq!(edge_counts, vec![(1, 1), (2, 2)]);
    /// ```
    pub fn frames(&self) -> impl ExactSizeIterator<Item = (usize, CsrGraph)> + '_ {
        self.frames_arc().map(|(t, frame)| (t, Arc::unwrap_or_clone(frame)))
    }

    /// Walk snapshots `G_1..G_T` as [`CsrGraph`] frames behind an [`Arc`],
    /// so each can outlive the iterator (and the thread that materialized
    /// it). Frame `t+1` is derived from frame `t` via
    /// [`CsrGraph::apply_batch`], which is functional (`&self ->
    /// CsrGraph`), so the walk deep-clones no frame. This is the substrate
    /// the execution engine consumes: the frame chain is inherently
    /// sequential, so a producer walks it in `t`-order and hands the
    /// completed frames to worker threads.
    ///
    /// # Example
    ///
    /// ```
    /// use avt_graph::{EdgeBatch, EvolvingGraph, Graph};
    ///
    /// let g1 = Graph::from_edges(3, [(0, 1)]).unwrap();
    /// let mut eg = EvolvingGraph::new(g1);
    /// eg.push_batch(EdgeBatch::from_pairs([(1, 2)], []));
    /// let frames: Vec<_> = eg.frames_arc().collect();
    /// assert_eq!(frames.len(), 2);
    /// assert_eq!(frames[1].1.num_edges(), 2); // Arc<CsrGraph>
    /// ```
    pub fn frames_arc(&self) -> ArcFrameIter<'_> {
        ArcFrameIter { evolving: self, current: None, next_t: 1 }
    }

    /// Truncate to the first `t` snapshots (used by the `T`-sweep
    /// experiments). No-op if `t >= T`.
    pub fn truncated(&self, t: usize) -> EvolvingGraph {
        let keep = t.saturating_sub(1).min(self.batches.len());
        EvolvingGraph { initial: self.initial.clone(), batches: self.batches[..keep].to_vec() }
    }

    /// Validate that every batch applies cleanly, returning the final
    /// snapshot. O(total churn).
    pub fn validate(&self) -> Result<Graph, GraphError> {
        self.snapshot(self.num_snapshots())
    }
}

/// Iterator over `(t, Arc<CsrGraph>)` produced by
/// [`EvolvingGraph::frames_arc`].
///
/// The iterator retains an `Arc` to the latest frame while another frame
/// will be derived from it, so yielding is a reference-count bump. It lets
/// go of the final frame, which the caller then holds alone.
pub struct ArcFrameIter<'a> {
    evolving: &'a EvolvingGraph,
    current: Option<Arc<CsrGraph>>,
    next_t: usize,
}

impl Iterator for ArcFrameIter<'_> {
    type Item = (usize, Arc<CsrGraph>);

    fn next(&mut self) -> Option<Self::Item> {
        let t = self.next_t;
        let last = self.evolving.num_snapshots();
        if t > last {
            return None;
        }
        let frame = match self.current.take() {
            None => Arc::new(CsrGraph::from_graph(&self.evolving.initial)),
            Some(prev) => {
                let batch = self
                    .evolving
                    .batch(t - 1)
                    .expect("batch t-1 exists because t <= num_snapshots");
                Arc::new(
                    prev.apply_batch(batch).expect("evolving graph batches must apply cleanly"),
                )
            }
        };
        self.current = (t < last).then(|| Arc::clone(&frame));
        self.next_t += 1;
        Some((t, frame))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.evolving.num_snapshots() + 1 - self.next_t;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ArcFrameIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EvolvingGraph {
        let g1 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut eg = EvolvingGraph::new(g1);
        eg.push_batch(EdgeBatch::from_pairs([(3, 4)], []));
        eg.push_batch(EdgeBatch::from_pairs([(0, 4)], [(0, 1)]));
        eg
    }

    #[test]
    fn snapshot_count_and_vertices() {
        let eg = sample();
        assert_eq!(eg.num_snapshots(), 3);
        assert_eq!(eg.num_vertices(), 5);
    }

    #[test]
    fn snapshot_materialization() {
        let eg = sample();
        let g1 = eg.snapshot(1).unwrap();
        assert_eq!(g1.num_edges(), 3);
        let g2 = eg.snapshot(2).unwrap();
        assert!(g2.has_edge(3, 4));
        assert_eq!(g2.num_edges(), 4);
        let g3 = eg.snapshot(3).unwrap();
        assert!(g3.has_edge(0, 4));
        assert!(!g3.has_edge(0, 1));
        assert_eq!(g3.num_edges(), 4);
    }

    #[test]
    fn snapshot_index_bounds() {
        let eg = sample();
        for t in [0, 4] {
            let err = eg.snapshot(t).unwrap_err();
            assert_eq!(err, GraphError::SnapshotOutOfRange { t, snapshots: 3 });
        }
    }

    #[test]
    fn frames_iterator_matches_materialization() {
        let eg = sample();
        let via_iter: Vec<(usize, usize)> = eg.frames().map(|(t, f)| (t, f.num_edges())).collect();
        assert_eq!(via_iter, vec![(1, 3), (2, 4), (3, 4)]);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let eg = sample();
        let short = eg.truncated(2);
        assert_eq!(short.num_snapshots(), 2);
        assert!(short.snapshot(2).unwrap().has_edge(3, 4));
        // over-truncation is a no-op
        assert_eq!(eg.truncated(99).num_snapshots(), 3);
        // truncating to 1 keeps only the initial snapshot
        assert_eq!(eg.truncated(1).num_snapshots(), 1);
    }

    #[test]
    fn validate_detects_bad_batches() {
        let g1 = Graph::from_edges(3, [(0, 1)]).unwrap();
        let mut eg = EvolvingGraph::new(g1);
        eg.push_batch(EdgeBatch::from_pairs([(0, 1)], [])); // duplicate insert
        assert!(eg.validate().is_err());
    }

    #[test]
    fn frames_match_snapshot_materialization() {
        let eg = sample();
        let frames: Vec<(usize, crate::CsrGraph)> = eg.frames().collect();
        assert_eq!(frames.len(), 3);
        for (t, frame) in &frames {
            let reference = eg.snapshot(*t).unwrap();
            assert_eq!(frame.num_edges(), reference.num_edges(), "t={t}");
            assert!(frame.to_graph().is_isomorphic_identity(&reference), "t={t}");
        }
    }

    #[test]
    fn frames_arc_matches_frames() {
        let eg = sample();
        let arcs: Vec<(usize, Arc<CsrGraph>)> = eg.frames_arc().collect();
        assert_eq!(arcs.len(), 3);
        for ((at, af), (ft, ff)) in arcs.iter().zip(eg.frames()) {
            assert_eq!(*at, ft);
            assert_eq!(**af, ff, "t={ft}");
        }
        // Frames outlive the iterator; a held Arc stays valid and sendable.
        let (_, last) = eg.frames_arc().last().unwrap();
        let handle = std::thread::spawn(move || last.num_edges());
        assert_eq!(handle.join().unwrap(), 4);
    }

    #[test]
    fn frames_arc_hands_over_the_final_frame() {
        let eg = sample();
        let mut it = eg.frames_arc();
        let (_, first) = it.next().unwrap();
        assert_eq!(Arc::strong_count(&first), 2, "kept to derive frame 2");
        let (t, last) = it.nth(1).unwrap();
        assert_eq!(t, 3);
        assert_eq!(Arc::strong_count(&last), 1, "the live iterator keeps no handle");
        assert!(it.next().is_none());
    }

    #[test]
    fn frames_arc_is_exact_size() {
        let eg = sample();
        let mut it = eg.frames_arc();
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
        assert_eq!(it.count(), 2);
    }

    #[test]
    fn frames_is_exact_size() {
        let eg = sample();
        let mut it = eg.frames();
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
        assert_eq!(it.count(), 2);
    }
}
