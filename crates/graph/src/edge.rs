//! Undirected edges and the `E+`/`E-` batch model.

use crate::VertexId;

/// An undirected edge stored in normalized form (`u <= v` is *not* required
/// at construction; [`Edge::new`] normalizes so that `Edge(1,2) == Edge(2,1)`
/// and edges can be used as set/map keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
}

impl Edge {
    /// Create a normalized edge. Panics on self-loops, which are invalid in
    /// the simple-graph model used throughout.
    #[inline]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "self-loop ({a}, {a}) is not a valid edge");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The endpoint opposite to `x`. Panics if `x` is not an endpoint.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex {x} is not an endpoint of {self:?}");
            self.u
        }
    }

    /// Both endpoints as an array, smaller first.
    #[inline]
    pub fn endpoints(&self) -> [VertexId; 2] {
        [self.u, self.v]
    }
}

impl From<(VertexId, VertexId)> for Edge {
    fn from((a, b): (VertexId, VertexId)) -> Self {
        Edge::new(a, b)
    }
}

/// The edge churn between two consecutive snapshots: the paper's `E+`
/// (insertions) and `E-` (deletions).
///
/// A batch is applied insertions-first, mirroring Algorithm 6 of the paper
/// (`G'_t := G_{t-1} ⊕ E+` feeds `EdgeInsert`, then `E-` feeds
/// `EdgeRemove`). Batches must be *consistent*: an inserted edge must be
/// absent from the pre-state, a deleted edge present in the post-insertion
/// state, and the two sets disjoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    /// Edges inserted at this step (`E+`).
    pub insertions: Vec<Edge>,
    /// Edges deleted at this step (`E-`).
    pub deletions: Vec<Edge>,
}

impl EdgeBatch {
    /// An empty batch (a timestamp with no churn).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a batch from endpoint pairs.
    pub fn from_pairs<I, D>(insertions: I, deletions: D) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
        D: IntoIterator<Item = (VertexId, VertexId)>,
    {
        EdgeBatch {
            insertions: insertions.into_iter().map(Edge::from).collect(),
            deletions: deletions.into_iter().map(Edge::from).collect(),
        }
    }

    /// Total number of edge events in the batch.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// True when the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_normalizes_endpoint_order() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
        assert_eq!(Edge::new(3, 1).u, 1);
        assert_eq!(Edge::new(3, 1).v, 3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(2, 2);
    }

    #[test]
    fn edge_other_returns_opposite_endpoint() {
        let e = Edge::new(4, 9);
        assert_eq!(e.other(4), 9);
        assert_eq!(e.other(9), 4);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let _ = Edge::new(4, 9).other(5);
    }

    #[test]
    fn edge_from_tuple() {
        let e: Edge = (7u32, 2u32).into();
        assert_eq!(e, Edge::new(2, 7));
    }

    #[test]
    fn batch_len_and_empty() {
        let b = EdgeBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);

        let b = EdgeBatch::from_pairs([(0, 1), (1, 2)], [(3, 4)]);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 3);
        assert_eq!(b.insertions.len(), 2);
        assert_eq!(b.deletions.len(), 1);
    }
}
