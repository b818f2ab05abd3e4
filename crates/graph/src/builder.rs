//! Tolerant graph construction from raw edge data.
//!
//! Real edge lists (and SNAP exports in particular) contain duplicate edges,
//! self-loops, both orientations of the same undirected edge, and sparse
//! vertex ids. [`GraphBuilder`] absorbs all of that and produces a clean
//! [`Graph`] plus the id remapping it applied.

use std::collections::HashMap;

use crate::{Graph, VertexId};

/// Accumulates raw `(u, v)` pairs with arbitrary `u64` ids, deduplicates
/// them, drops self-loops, and densifies ids to `0..n`.
///
/// # Example
///
/// ```
/// use avt_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(100, 200);
/// b.add_edge(200, 100); // duplicate orientation — ignored
/// b.add_edge(7, 7);     // self-loop — ignored (vertex 7 never appears)
/// let built = b.build();
/// assert_eq!(built.graph.num_vertices(), 2); // ids 100, 200 densified
/// assert_eq!(built.graph.num_edges(), 1);
/// assert_eq!(built.dropped_duplicates, 1);
/// assert_eq!(built.dropped_self_loops, 1);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    /// raw-id edges, normalized so u < v, deduplicated at build time
    edges: Vec<(u64, u64)>,
    self_loops: usize,
}

/// The output of [`GraphBuilder::build`].
#[derive(Debug)]
pub struct BuiltGraph {
    /// The densified simple graph.
    pub graph: Graph,
    /// Maps dense id -> original raw id (sorted ascending by raw id).
    pub original_ids: Vec<u64>,
    /// Number of duplicate edges dropped.
    pub dropped_duplicates: usize,
    /// Number of self-loops dropped.
    pub dropped_self_loops: usize,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one raw edge. Self-loops are counted and dropped immediately.
    pub fn add_edge(&mut self, a: u64, b: u64) {
        if a == b {
            self.self_loops += 1;
            return;
        }
        self.edges.push(if a < b { (a, b) } else { (b, a) });
    }

    /// Deduplicate, densify and produce the final graph.
    pub fn build(mut self) -> BuiltGraph {
        self.edges.sort_unstable();
        let before = self.edges.len();
        self.edges.dedup();
        let dropped_duplicates = before - self.edges.len();

        let mut ids: Vec<u64> = Vec::with_capacity(self.edges.len() * 2);
        for &(a, b) in &self.edges {
            ids.push(a);
            ids.push(b);
        }
        ids.sort_unstable();
        ids.dedup();

        let dense: HashMap<u64, VertexId> =
            ids.iter().enumerate().map(|(i, &raw)| (raw, i as VertexId)).collect();

        let mut graph = Graph::new(ids.len());
        for &(a, b) in &self.edges {
            graph.insert_edge(dense[&a], dense[&b]).expect("deduplicated edges cannot conflict");
        }

        BuiltGraph {
            graph,
            original_ids: ids,
            dropped_duplicates,
            dropped_self_loops: self.self_loops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_builds_empty_graph() {
        let built = GraphBuilder::new().build();
        assert_eq!(built.graph.num_vertices(), 0);
        assert_eq!(built.graph.num_edges(), 0);
        assert!(built.original_ids.is_empty());
    }

    #[test]
    fn densifies_sparse_ids_in_sorted_order() {
        let mut b = GraphBuilder::new();
        b.add_edge(1000, 5);
        b.add_edge(5, 42);
        let built = b.build();
        assert_eq!(built.original_ids, vec![5, 42, 1000]);
        // edge (1000,5) -> (2,0); edge (5,42) -> (0,1)
        assert!(built.graph.has_edge(2, 0));
        assert!(built.graph.has_edge(0, 1));
    }

    #[test]
    fn deduplicates_both_orientations() {
        let mut b = GraphBuilder::new();
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        b.add_edge(1, 2);
        let built = b.build();
        assert_eq!(built.graph.num_edges(), 1);
        assert_eq!(built.dropped_duplicates, 2);
    }

    #[test]
    fn counts_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 3);
        b.add_edge(3, 4);
        let built = b.build();
        assert_eq!(built.dropped_self_loops, 1);
        assert_eq!(built.graph.num_edges(), 1);
    }
}
