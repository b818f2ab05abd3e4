//! The immutable compressed-sparse-row substrate for frozen snapshots.
//!
//! A [`CsrGraph`] stores the whole adjacency structure in two contiguous
//! arrays: `offsets[u]..offsets[u + 1]` indexes into `targets`, which holds
//! every neighbour list back to back, each sorted ascending. Compared to
//! the heap-fragmented `Vec<Vec<VertexId>>` of [`Graph`] this buys:
//!
//! * sequential neighbourhood scans with no pointer chasing — the access
//!   pattern of the bucket peel and the order-based follower queries;
//! * O(log deg) membership probes via binary search on the sorted lists;
//! * O(n + m) whole-structure clones (two `memcpy`s), which is what makes
//!   the incremental [`crate::EvolvingGraph::frames`] pipeline cheap.
//!
//! The price is immutability: there is no `insert_edge`. Evolution happens
//! functionally through [`CsrGraph::apply_batch`], which builds the next
//! frame from bulk copies of the ranges a batch leaves alone and merges
//! only the neighbour lists it touches — never a from-scratch replay.

use crate::{EdgeBatch, Graph, GraphError, GraphView, VertexId};

/// An immutable undirected simple graph in compressed-sparse-row layout.
///
/// Construct one with [`CsrGraph::from_graph`] / [`CsrGraph::from_edges`],
/// or derive the next snapshot from an existing one with
/// [`CsrGraph::apply_batch`]. All read queries mirror [`Graph`]'s, with
/// neighbour lists additionally guaranteed sorted.
///
/// # Example
///
/// ```
/// use avt_graph::{CsrGraph, Graph};
///
/// let g = Graph::from_edges(4, [(2, 1), (0, 1), (1, 3)]).unwrap();
/// let csr = CsrGraph::from_graph(&g);
/// assert_eq!(csr.neighbors(1), &[0, 2, 3]); // sorted, unlike Graph
/// assert!(csr.has_edge(3, 1));
/// assert_eq!(csr.num_edges(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u + 1]` is `u`'s slice of `targets`; length
    /// `n + 1`, `offsets[n] == targets.len()`.
    offsets: Vec<usize>,
    /// All neighbour lists, concatenated, each sorted ascending.
    targets: Vec<VertexId>,
    /// Edge count (`targets.len() / 2`).
    m: usize,
}

impl CsrGraph {
    /// An edgeless CSR graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        CsrGraph { offsets: vec![0; n + 1], targets: Vec::new(), m: 0 }
    }

    /// Freeze a mutable [`Graph`] into CSR form. O(n + m log Δ) for the
    /// per-vertex sorts (Δ = max degree).
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.num_edges());
        offsets.push(0);
        for u in 0..n as VertexId {
            let start = targets.len();
            targets.extend_from_slice(graph.neighbors(u));
            targets[start..].sort_unstable();
            offsets.push(targets.len());
        }
        CsrGraph { offsets, targets, m: graph.num_edges() }
    }

    /// Build directly from an edge iterator. Rejects self-loops,
    /// out-of-range endpoints and duplicate edges, exactly like
    /// [`Graph::from_edges`].
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut m = 0usize;
        for (u, v) in edges {
            for x in [u, v] {
                if x as usize >= n {
                    return Err(GraphError::VertexOutOfBounds { vertex: x as u64, n });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u as u64 });
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
            m += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * m);
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                let u = (offsets.len() - 1) as u64;
                return Err(GraphError::EdgeConflict { u, v: w[0] as u64, inserting: true });
            }
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        Ok(CsrGraph { offsets, targets, m })
    }

    /// Thaw back into a mutable [`Graph`] (for handing a frozen frame to
    /// the maintenance layer). O(n + m).
    pub fn to_graph(&self) -> Graph {
        Graph::from_edges(self.num_vertices(), self.edges().map(|e| (e.u, e.v)))
            .expect("a CSR graph is always a valid simple graph")
    }

    /// Derive the *next* snapshot: apply a full [`EdgeBatch`] (insertions
    /// first, then deletions, mirroring `G_t = (G_{t-1} ⊕ E+) ⊖ E-`) and
    /// return the result as a fresh CSR graph, with the same error
    /// semantics as [`Graph::apply_batch`]: inserting a present edge or
    /// deleting an absent one fails.
    ///
    /// The batch's arcs are sorted once per side. The neighbour lists of
    /// the vertices they touch are merged; every range between two touched
    /// vertices is copied in bulk, with its offsets shifted by what the
    /// merges before it added. That is O(n) for the offsets plus
    /// O(m) of memcpy plus O(churn log churn) — no pass over untouched
    /// neighbour lists.
    pub fn apply_batch(&self, batch: &EdgeBatch) -> Result<CsrGraph, GraphError> {
        let n = self.num_vertices();
        let check = |x: VertexId| {
            if (x as usize) < n {
                Ok(())
            } else {
                Err(GraphError::VertexOutOfBounds { vertex: x as u64, n })
            }
        };

        // Insertion arcs, both directions, validated against the current
        // structure; duplicates inside the batch surface after the sort.
        let mut ins: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * batch.insertions.len());
        for e in &batch.insertions {
            check(e.u)?;
            check(e.v)?;
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
            ins.extend([(e.u, e.v), (e.v, e.u)]);
        }
        ins.sort_unstable();
        if let Some(w) = ins.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::EdgeConflict {
                u: w[0].0 as u64,
                v: w[0].1 as u64,
                inserting: true,
            });
        }

        // Deletions may target pre-existing edges or ones inserted by this
        // very batch (insertions apply first).
        let mut del: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * batch.deletions.len());
        for e in &batch.deletions {
            check(e.u)?;
            check(e.v)?;
            let present = self.has_edge(e.u, e.v) || ins.binary_search(&(e.u, e.v)).is_ok();
            if !present {
                return Err(GraphError::EdgeConflict {
                    u: e.u as u64,
                    v: e.v as u64,
                    inserting: false,
                });
            }
            del.extend([(e.u, e.v), (e.v, e.u)]);
        }
        del.sort_unstable();
        if let Some(w) = del.windows(2).find(|w| w[0] == w[1]) {
            // A second deletion of the same edge targets an edge that is
            // already gone.
            return Err(GraphError::EdgeConflict {
                u: w[0].0 as u64,
                v: w[0].1 as u64,
                inserting: false,
            });
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len() + ins.len() - del.len());
        offsets.push(0);
        // `from` is the first vertex not yet written; `i` and `d` walk the
        // touched vertices' arcs in both sorted lists.
        let (mut from, mut i, mut d) = (0usize, 0usize, 0usize);
        while i < ins.len() || d < del.len() {
            let u = match (ins.get(i), del.get(d)) {
                (Some(a), Some(b)) => a.0.min(b.0),
                (Some(a), None) => a.0,
                (None, Some(b)) => b.0,
                (None, None) => unreachable!("loop condition guarantees one side"),
            };
            self.copy_range(from, u as usize, &mut offsets, &mut targets);
            let add_end = i + ins[i..].partition_point(|a| a.0 == u);
            let drop_end = d + del[d..].partition_point(|a| a.0 == u);
            merge_list(self.neighbors(u), &ins[i..add_end], &del[d..drop_end], &mut targets);
            offsets.push(targets.len());
            (from, i, d) = (u as usize + 1, add_end, drop_end);
        }
        self.copy_range(from, n, &mut offsets, &mut targets);
        debug_assert_eq!(targets.len() % 2, 0, "every edge stores two directed arcs");
        let m = targets.len() / 2;
        Ok(CsrGraph { offsets, targets, m })
    }

    /// Append vertices `from..to`, untouched by a batch, to a frame under
    /// construction: one bulk copy of their neighbour lists, and their end
    /// offsets shifted to where the copy lands.
    fn copy_range(
        &self,
        from: usize,
        to: usize,
        offsets: &mut Vec<usize>,
        targets: &mut Vec<VertexId>,
    ) {
        let (old, new) = (self.offsets[from], targets.len());
        targets.extend_from_slice(&self.targets[old..self.offsets[to]]);
        offsets.extend(self.offsets[from + 1..=to].iter().map(|&o| o - old + new));
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The neighbours of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    // `vertices()`, `edges()` and `avg_degree()` come from the GraphView
    // defaults — no inherent duplicates to drift out of sync.

    /// True when edge `(u, v)` is present; false for self-loops and
    /// out-of-range endpoints. O(log min(deg(u), deg(v))) via binary
    /// search on the shorter sorted list.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v || u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree over all vertices (0 for an edgeless graph). One
    /// pass over the offset array, no neighbour slices materialized.
    pub fn max_degree(&self) -> usize {
        self.offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// The raw offset array: `n + 1` entries, `offsets[n] == 2m`. Together
    /// with [`Self::targets`] this *is* the whole structure — the pair is
    /// what [`crate::io::write_csrbin`] serializes and what
    /// [`crate::MmapCsr`] reads back without deserializing.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated neighbour array (`2m` entries, each per-vertex
    /// slice sorted ascending). See [`Self::offsets`].
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }
}

/// Push `old ∪ add \ drop` onto `out`, ascending: one touched vertex's
/// next neighbour list, merged from its sorted old list and its sorted
/// batch arcs (only the second element of each arc is read).
fn merge_list(
    old: &[VertexId],
    add: &[(VertexId, VertexId)],
    drop: &[(VertexId, VertexId)],
    out: &mut Vec<VertexId>,
) {
    let (mut i, mut j, mut d) = (0usize, 0usize, 0usize);
    while i < old.len() || j < add.len() {
        let next = match (old.get(i), add.get(j)) {
            (Some(&a), Some(&(_, b))) if a <= b => {
                i += 1;
                a
            }
            (Some(&a), None) => {
                i += 1;
                a
            }
            (_, Some(&(_, b))) => {
                j += 1;
                b
            }
            (None, None) => unreachable!("loop condition guarantees one side"),
        };
        if d < drop.len() && drop[d].1 == next {
            d += 1;
            continue;
        }
        out.push(next);
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn neighbors(&self, u: VertexId) -> &[VertexId] {
        CsrGraph::neighbors(self, u)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        CsrGraph::degree(self, u)
    }

    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;

    fn sample() -> Graph {
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3), (1, 4)]).unwrap()
    }

    fn assert_matches(csr: &CsrGraph, g: &Graph) {
        assert_eq!(csr.num_vertices(), g.num_vertices());
        assert_eq!(csr.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(csr.degree(v), g.degree(v), "degree of {v}");
            let mut expect = g.neighbors(v).to_vec();
            expect.sort_unstable();
            assert_eq!(csr.neighbors(v), &expect[..], "neighbours of {v}");
        }
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "edge ({u}, {v})");
            }
        }
    }

    #[test]
    fn from_graph_round_trips() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        assert_matches(&csr, &g);
        assert!(csr.to_graph().is_isomorphic_identity(&g));
    }

    #[test]
    fn from_edges_matches_graph_from_edges() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 3)];
        let g = Graph::from_edges(5, edges).unwrap();
        let csr = CsrGraph::from_edges(5, edges).unwrap();
        assert_matches(&csr, &g);
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(matches!(
            CsrGraph::from_edges(3, [(0, 0)]),
            Err(GraphError::SelfLoop { vertex: 0 })
        ));
        assert!(matches!(
            CsrGraph::from_edges(3, [(0, 4)]),
            Err(GraphError::VertexOutOfBounds { vertex: 4, n: 3 })
        ));
        assert!(matches!(
            CsrGraph::from_edges(3, [(0, 1), (1, 0)]),
            Err(GraphError::EdgeConflict { inserting: true, .. })
        ));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.neighbors(2), &[0, 1, 3, 4]);
        assert_eq!(csr.max_degree(), 4);
    }

    #[test]
    fn apply_batch_matches_mutable_application() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        let batch = EdgeBatch::from_pairs([(0, 5), (3, 5)], [(2, 3), (0, 1)]);
        let next = csr.apply_batch(&batch).unwrap();
        let mut expect = g.clone();
        expect.apply_batch(&batch).unwrap();
        assert_matches(&next, &expect);
        // The source frame is untouched (functional update).
        assert_matches(&csr, &g);
    }

    #[test]
    fn apply_batch_can_delete_same_batch_insertion() {
        let csr = CsrGraph::from_graph(&Graph::new(3));
        let batch = EdgeBatch::from_pairs([(0, 1)], [(0, 1)]);
        let next = csr.apply_batch(&batch).unwrap();
        assert_eq!(next.num_edges(), 0);
    }

    #[test]
    fn apply_batch_rejects_conflicts() {
        let csr = CsrGraph::from_edges(4, [(0, 1)]).unwrap();
        // Inserting a present edge.
        let err = csr.apply_batch(&EdgeBatch::from_pairs([(1, 0)], [])).unwrap_err();
        assert!(matches!(err, GraphError::EdgeConflict { inserting: true, .. }));
        // Duplicate insertion within one batch.
        let err = csr.apply_batch(&EdgeBatch::from_pairs([(2, 3), (3, 2)], [])).unwrap_err();
        assert!(matches!(err, GraphError::EdgeConflict { inserting: true, .. }));
        // Deleting an absent edge.
        let err = csr.apply_batch(&EdgeBatch::from_pairs([], [(2, 3)])).unwrap_err();
        assert!(matches!(err, GraphError::EdgeConflict { inserting: false, .. }));
        // Deleting the same edge twice in one batch.
        let err = csr.apply_batch(&EdgeBatch::from_pairs([], [(0, 1), (1, 0)])).unwrap_err();
        assert!(matches!(err, GraphError::EdgeConflict { inserting: false, .. }));
        // Self-loop (only constructible by writing Edge fields directly —
        // Edge::new rejects it) and out-of-range insertions.
        let loop_batch = EdgeBatch { insertions: vec![Edge { u: 2, v: 2 }], deletions: Vec::new() };
        assert!(matches!(csr.apply_batch(&loop_batch), Err(GraphError::SelfLoop { vertex: 2 })));
        assert!(csr.apply_batch(&EdgeBatch::from_pairs([(0, 9)], [])).is_err());
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = CsrGraph::new(0);
        assert_eq!(empty.num_vertices(), 0);
        assert_eq!(empty.avg_degree(), 0.0);
        assert!(!empty.has_edge(0, 1));
        let edgeless = CsrGraph::new(4);
        assert_eq!(edgeless.num_edges(), 0);
        assert_eq!(edgeless.max_degree(), 0);
        assert!(edgeless.neighbors(3).is_empty());
        assert_eq!(edgeless.edges().count(), 0);
    }

    #[test]
    fn chained_batches_track_graph_evolution() {
        let mut g = sample();
        let mut csr = CsrGraph::from_graph(&g);
        let batches = [
            EdgeBatch::from_pairs([(0, 5)], [(1, 2)]),
            EdgeBatch::from_pairs([(1, 2), (2, 5)], [(0, 5), (2, 3)]),
            EdgeBatch::from_pairs([], [(1, 4)]),
        ];
        for batch in &batches {
            g.apply_batch(batch).unwrap();
            csr = csr.apply_batch(batch).unwrap();
            assert_matches(&csr, &g);
        }
    }
}
