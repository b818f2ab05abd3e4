//! The mutable undirected simple graph.

use crate::{Edge, GraphError, VertexId};

/// An undirected simple graph over a fixed vertex set `0..n`.
///
/// Neighbour lists are unsorted `Vec<VertexId>`; insertion is amortized O(1)
/// and deletion is O(deg) via `swap_remove`. The AVT algorithms only ever
/// scan full neighbourhoods, so no ordering is maintained.
///
/// # Example
///
/// ```
/// use avt_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.insert_edge(0, 1).unwrap();
/// g.insert_edge(1, 2).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// g.remove_edge(0, 1).unwrap();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<VertexId>>,
    m: usize,
}

impl Graph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], m: 0 }
    }

    /// Build a graph from an edge iterator. Duplicate edges and self-loops
    /// are rejected.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.insert_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of vertices (fixed for the graph's lifetime).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Degree of `u` (`d(u, G_t)` in the paper).
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.adj[u as usize].len()
    }

    /// The neighbours of `u` (`nbr(u, G_t)` in the paper), in unspecified
    /// order.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.adj[u as usize]
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.adj.len() as VertexId
    }

    /// Iterator over all edges, each reported once in normalized form.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as VertexId;
            nbrs.iter().filter_map(move |&v| (u < v).then_some(Edge { u, v }))
        })
    }

    /// True when edge `(u, v)` is present; false for self-loops and
    /// out-of-range endpoints. O(min(deg(u), deg(v))).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v || u as usize >= self.adj.len() || v as usize >= self.adj.len() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.adj[a as usize].contains(&b)
    }

    fn check_vertex(&self, u: VertexId) -> Result<(), GraphError> {
        if (u as usize) < self.adj.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfBounds { vertex: u as u64, n: self.adj.len() })
        }
    }

    /// Insert edge `(u, v)`. Fails on self-loops, out-of-range vertices and
    /// duplicate edges.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u as u64 });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::EdgeConflict { u: u as u64, v: v as u64, inserting: true });
        }
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.m += 1;
        Ok(())
    }

    /// Remove edge `(u, v)`. Fails if the edge is absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let pos_v = self.adj[u as usize].iter().position(|&w| w == v);
        let Some(pos_v) = pos_v else {
            return Err(GraphError::EdgeConflict { u: u as u64, v: v as u64, inserting: false });
        };
        self.adj[u as usize].swap_remove(pos_v);
        let pos_u = self.adj[v as usize]
            .iter()
            .position(|&w| w == u)
            .expect("adjacency lists out of sync: (v,u) missing while (u,v) present");
        self.adj[v as usize].swap_remove(pos_u);
        self.m -= 1;
        Ok(())
    }

    /// Apply a full [`crate::EdgeBatch`]: insertions first, then deletions,
    /// mirroring the paper's `G_t = (G_{t-1} ⊕ E+) ⊖ E-` convention.
    pub fn apply_batch(&mut self, batch: &crate::EdgeBatch) -> Result<(), GraphError> {
        for e in &batch.insertions {
            self.insert_edge(e.u, e.v)?;
        }
        for e in &batch.deletions {
            self.remove_edge(e.u, e.v)?;
        }
        Ok(())
    }

    /// Insert every edge of `edges` at once. Every edge is validated
    /// before any is pushed, so on error the graph is unchanged. On
    /// success every `adj[u]` holds the same elements in the same order as
    /// the per-edge [`Self::insert_edge`] loop would produce: the graph is
    /// bit-identical to that loop's, not merely isomorphic.
    pub fn insert_edges(&mut self, edges: &[Edge]) -> Result<(), GraphError> {
        self.check_insertions(edges)?;
        for e in edges {
            self.adj[e.u as usize].push(e.v);
            self.adj[e.v as usize].push(e.u);
        }
        self.m += edges.len();
        Ok(())
    }

    /// The error [`Self::insert_edges`] would return for `edges`, without
    /// inserting anything: an out-of-range endpoint, a self-loop, an edge
    /// already present, or one listed twice.
    pub fn check_insertions(&self, edges: &[Edge]) -> Result<(), GraphError> {
        for e in edges {
            self.check_vertex(e.u)?;
            self.check_vertex(e.v)?;
            if e.u == e.v {
                return Err(GraphError::SelfLoop { vertex: e.u as u64 });
            }
            if self.has_edge(e.u, e.v) {
                return Err(GraphError::EdgeConflict {
                    u: e.u as u64,
                    v: e.v as u64,
                    inserting: true,
                });
            }
        }
        // Intra-batch duplicates would dodge the has_edge probe above.
        let mut normalized: Vec<(VertexId, VertexId)> =
            edges.iter().map(|e| (e.u.min(e.v), e.u.max(e.v))).collect();
        normalized.sort_unstable();
        for w in normalized.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::EdgeConflict {
                    u: w[0].0 as u64,
                    v: w[0].1 as u64,
                    inserting: true,
                });
            }
        }
        Ok(())
    }

    /// Maximum degree over all vertices (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for an empty vertex set).
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.m as f64 / self.adj.len() as f64
        }
    }

    /// Structural equality up to neighbour-list ordering. O(n + m log m).
    pub fn is_isomorphic_identity(&self, other: &Graph) -> bool {
        if self.num_vertices() != other.num_vertices() || self.m != other.m {
            return false;
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in 0..self.adj.len() {
            a.clear();
            b.clear();
            a.extend_from_slice(&self.adj[u]);
            b.extend_from_slice(&other.adj[u]);
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as VertexId - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn insert_and_query_edges() {
        let g = path(4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99), "out-of-range probe is false, not a panic");
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut g = path(3);
        let err = g.insert_edge(1, 0).unwrap_err();
        assert!(matches!(err, GraphError::EdgeConflict { inserting: true, .. }));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new(3);
        assert!(matches!(g.insert_edge(1, 1), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.insert_edge(0, 3),
            Err(GraphError::VertexOutOfBounds { vertex: 3, n: 3 })
        ));
        assert!(matches!(g.remove_edge(5, 0), Err(GraphError::VertexOutOfBounds { .. })));
    }

    #[test]
    fn remove_edge_updates_both_sides() {
        let mut g = path(4);
        g.remove_edge(2, 1).unwrap();
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn remove_missing_edge_rejected() {
        let mut g = path(4);
        assert!(matches!(
            g.remove_edge(0, 3),
            Err(GraphError::EdgeConflict { inserting: false, .. })
        ));
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = path(5);
        let mut edges: Vec<Edge> = g.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(3, 4)]);
    }

    #[test]
    fn apply_batch_inserts_then_deletes() {
        let mut g = path(4);
        let batch = crate::EdgeBatch::from_pairs([(0, 2)], [(0, 1)]);
        g.apply_batch(&batch).unwrap();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn apply_batch_can_delete_an_edge_inserted_by_same_batch() {
        // Insertions apply first, so a batch may insert and delete the same
        // edge; the net effect is a no-op. This mirrors G ⊕ E+ ⊖ E-.
        let mut g = Graph::new(3);
        let batch = crate::EdgeBatch::from_pairs([(0, 1)], [(0, 1)]);
        g.apply_batch(&batch).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn structural_equality_ignores_adjacency_order() {
        let g1 = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let g2 = Graph::from_edges(3, [(0, 2), (0, 1)]).unwrap();
        assert!(g1.is_isomorphic_identity(&g2));
        let g3 = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(!g1.is_isomorphic_identity(&g3));
    }

    #[test]
    fn insert_edges_is_bit_identical_to_per_edge_loop() {
        let edges: Vec<Edge> = [(0, 9), (3, 4), (9, 1), (2, 7), (5, 6), (0, 5), (8, 2), (7, 9)]
            .into_iter()
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        let mut seq = Graph::new(10);
        for e in &edges {
            seq.insert_edge(e.u, e.v).unwrap();
        }
        let mut batched = Graph::new(10);
        batched.insert_edges(&edges).unwrap();
        assert_eq!(batched.num_edges(), seq.num_edges());
        for v in 0..10 {
            // Element-for-element, not just as sets: the batch insert must
            // preserve the per-edge push order of every list.
            assert_eq!(batched.neighbors(v), seq.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn insert_edges_rejects_bad_batches_atomically() {
        let mut g = path(4);
        let before = g.clone();
        // Duplicate against the existing graph.
        let err = g.insert_edges(&[Edge::new(0, 2), Edge::new(1, 2)]).unwrap_err();
        assert!(matches!(err, GraphError::EdgeConflict { inserting: true, .. }));
        // Intra-batch duplicate.
        let err = g.insert_edges(&[Edge::new(0, 2), Edge::new(2, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::EdgeConflict { inserting: true, .. }));
        // Out of range.
        let err = g.insert_edges(&[Edge { u: 0, v: 7 }]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { .. }));
        assert!(g.is_isomorphic_identity(&before));
        assert_eq!(g.num_edges(), before.num_edges());
    }

    #[test]
    fn clone_is_independent() {
        let mut g = path(3);
        let snapshot = g.clone();
        g.insert_edge(0, 2).unwrap();
        assert_eq!(snapshot.num_edges(), 2);
        assert_eq!(g.num_edges(), 3);
    }
}
