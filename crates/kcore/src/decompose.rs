//! Core decomposition via the Batagelj–Zaversnik bucket peel, with optional
//! anchored vertices.
//!
//! This is Algorithm 1 of the paper in its O(n + m) form. The peel also
//! yields the *removal order* that defines the K-order (Definition 5).

use avt_graph::{GraphView, VertexId};

/// Sentinel core number for anchored vertices: an anchored vertex is exempt
/// from the degree constraint, which the paper models as `core(u) = ∞`.
pub const ANCHOR_CORE: u32 = u32::MAX;

/// The result of a core decomposition: per-vertex core numbers plus the
/// removal order that witnesses them.
///
/// # Example
///
/// ```
/// use avt_graph::Graph;
/// use avt_kcore::CoreDecomposition;
///
/// // A triangle with a pendant vertex.
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
/// let d = CoreDecomposition::compute(&g);
/// assert_eq!(d.core(3), 1);
/// assert_eq!(d.core(0), 2);
/// // The pendant is peeled before the triangle.
/// assert!(d.pos(3) < d.pos(0));
/// ```
#[derive(Debug, Clone)]
pub struct CoreDecomposition {
    core: Vec<u32>,
    order: Vec<VertexId>,
    pos: Vec<u32>,
}

impl CoreDecomposition {
    /// Decompose `graph` (any [`GraphView`] substrate) with no anchors.
    pub fn compute<G: GraphView>(graph: &G) -> Self {
        Self::compute_anchored(graph, &[])
    }

    /// Decompose `graph` treating every vertex in `anchors` as unpeelable
    /// (core number [`ANCHOR_CORE`]). Anchored vertices do not appear in the
    /// removal order; they permanently support their neighbours.
    ///
    /// The resulting core numbers are the paper's anchored-core semantics:
    /// `core(v)` is the largest `k` such that `v` survives peeling at
    /// threshold `k` when anchors are never removed.
    pub fn compute_anchored<G: GraphView>(graph: &G, anchors: &[VertexId]) -> Self {
        let n = graph.num_vertices();
        let mut is_anchor = vec![false; n];
        for &a in anchors {
            is_anchor[a as usize] = true;
        }

        let mut core = vec![0u32; n];
        let mut deg = vec![0u32; n];
        let mut peelable = 0usize;
        let mut max_deg = 0u32;
        for v in 0..n {
            if is_anchor[v] {
                core[v] = ANCHOR_CORE;
                continue;
            }
            let d = graph.degree(v as VertexId) as u32;
            deg[v] = d;
            max_deg = max_deg.max(d);
            peelable += 1;
        }

        // Bucket sort the peelable vertices by degree.
        // bin[d] = index of the first vertex with (clamped) degree d.
        let mut bin = vec![0u32; max_deg as usize + 2];
        for v in 0..n {
            if !is_anchor[v] {
                bin[deg[v] as usize + 1] += 1;
            }
        }
        for d in 1..bin.len() {
            bin[d] += bin[d - 1];
        }
        let mut vert = vec![0 as VertexId; peelable];
        let mut pos = vec![u32::MAX; n];
        {
            let mut cursor = bin.clone();
            for v in 0..n {
                if !is_anchor[v] {
                    let p = cursor[deg[v] as usize];
                    cursor[deg[v] as usize] += 1;
                    vert[p as usize] = v as VertexId;
                    pos[v] = p;
                }
            }
        }
        // After filling, bin[d] is the start of bucket d, which is what the
        // peel below needs when moving a vertex one bucket down.

        let mut order = Vec::with_capacity(peelable);
        for i in 0..peelable {
            let v = vert[i];
            let dv = deg[v as usize];
            core[v as usize] = dv;
            order.push(v);
            for &u in graph.neighbors(v) {
                let ui = u as usize;
                if is_anchor[ui] || deg[ui] <= dv {
                    continue;
                }
                // Move u to the front of its bucket, then shrink its degree.
                let du = deg[ui] as usize;
                let pu = pos[ui];
                let pw = bin[du];
                let w = vert[pw as usize];
                if u != w {
                    vert[pu as usize] = w;
                    vert[pw as usize] = u;
                    pos[ui] = pw;
                    pos[w as usize] = pu;
                }
                bin[du] += 1;
                deg[ui] -= 1;
            }
        }

        // Positions in `pos` were bucket slots during the peel; rewrite them
        // as final removal indices.
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }

        debug_assert!(
            order.windows(2).all(|w| { core[w[0] as usize] <= core[w[1] as usize] }),
            "removal order must be non-decreasing in core number"
        );

        CoreDecomposition { core, order, pos }
    }

    /// Core number of `v` ([`ANCHOR_CORE`] for anchored vertices).
    #[inline]
    pub fn core(&self, v: VertexId) -> u32 {
        self.core[v as usize]
    }

    /// All core numbers, indexed by vertex.
    #[inline]
    pub fn cores(&self) -> &[u32] {
        &self.core
    }

    /// The removal order of the peel (anchored vertices excluded).
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// Removal index of `v` (`u32::MAX` for anchored vertices, which are
    /// never removed and compare ⪯-after everything).
    #[inline]
    pub fn pos(&self, v: VertexId) -> u32 {
        self.pos[v as usize]
    }

    /// The K-order relation `u ⪯ v` (Definition 5): `u` has a smaller core
    /// number, or equal core and earlier removal. Anchored vertices sort
    /// after all peelable vertices.
    #[inline]
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        let (cu, cv) = (self.core[u as usize], self.core[v as usize]);
        if cu != cv {
            cu < cv
        } else {
            self.pos[u as usize] < self.pos[v as usize]
        }
    }

    /// The remaining degree `deg+(v)`: the number of neighbours `w` with
    /// `v ⪯ w`. Computed on demand in O(deg(v)).
    pub fn deg_plus<G: GraphView>(&self, graph: &G, v: VertexId) -> u32 {
        let (cv, pv) = (self.core[v as usize], self.pos[v as usize]);
        graph
            .neighbors(v)
            .iter()
            .filter(|&&w| {
                let (cw, pw) = (self.core[w as usize], self.pos[w as usize]);
                if cv != cw {
                    cv < cw
                } else {
                    pv < pw
                }
            })
            .count() as u32
    }

    /// Largest finite core number in the decomposition (0 for an edgeless
    /// graph; anchors are ignored).
    pub fn max_core(&self) -> u32 {
        self.order.last().map_or(0, |&v| self.core[v as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::simple_k_core;
    use avt_graph::{CsrGraph, Graph};

    fn check_against_oracle(graph: &Graph, anchors: &[VertexId]) {
        let d = CoreDecomposition::compute_anchored(graph, anchors);
        let max_core = d.max_core();
        for k in 0..=(max_core + 1) {
            let oracle = simple_k_core(graph, k, anchors);
            for v in graph.vertices() {
                let in_core = d.core(v) >= k;
                assert_eq!(
                    in_core,
                    oracle[v as usize],
                    "vertex {v} core={} k={k} mismatch with peel oracle",
                    d.core(v)
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(3);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.cores(), &[0, 0, 0]);
        assert_eq!(d.order().len(), 3);
        assert_eq!(d.max_core(), 0);
    }

    #[test]
    fn triangle_with_pendant() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.core(0), 2);
        assert_eq!(d.core(1), 2);
        assert_eq!(d.core(2), 2);
        assert_eq!(d.core(3), 1);
        check_against_oracle(&g, &[]);
    }

    #[test]
    fn clique_cores() {
        // K5: every vertex has core 4.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        let d = CoreDecomposition::compute(&g);
        assert!(g.vertices().all(|v| d.core(v) == 4));
        assert_eq!(d.max_core(), 4);
    }

    #[test]
    fn figure1_style_layers() {
        // Path 0-1-2-3 plus triangle 3-4-5: cores 1,1,1,2,2,2.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.cores(), &[1, 1, 1, 2, 2, 2]);
        check_against_oracle(&g, &[]);
    }

    #[test]
    fn order_is_valid_peel() {
        let g = Graph::from_edges(
            8,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (4, 5), (5, 6), (6, 4), (6, 7)],
        )
        .unwrap();
        let d = CoreDecomposition::compute(&g);
        // Replay the removal order: remaining degree at removal ≤ core.
        let mut removed = [false; 8];
        for &v in d.order() {
            let remaining = g.neighbors(v).iter().filter(|&&w| !removed[w as usize]).count() as u32;
            assert!(
                remaining <= d.core(v),
                "vertex {v}: remaining {remaining} > core {}",
                d.core(v)
            );
            removed[v as usize] = true;
        }
    }

    #[test]
    fn precedes_is_total_order_consistent_with_core() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        for u in g.vertices() {
            assert!(!d.precedes(u, u));
            for v in g.vertices() {
                if u != v {
                    assert_ne!(d.precedes(u, v), d.precedes(v, u));
                    if d.core(u) < d.core(v) {
                        assert!(d.precedes(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn deg_plus_matches_definition() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        for v in g.vertices() {
            let expected = g.neighbors(v).iter().filter(|&&w| d.precedes(v, w)).count() as u32;
            assert_eq!(d.deg_plus(&g, v), expected);
            // deg+ never exceeds the core number (peel legality).
            assert!(d.deg_plus(&g, v) <= d.core(v));
        }
    }

    #[test]
    fn anchoring_exempts_from_degree_constraint() {
        // Star: center 0, leaves 1..4. Unanchored: all core 1.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        assert!(g.vertices().all(|v| d.core(v) == 1));

        // Anchor a leaf: its core becomes ∞, the rest are unchanged.
        let d = CoreDecomposition::compute_anchored(&g, &[1]);
        assert_eq!(d.core(1), ANCHOR_CORE);
        assert_eq!(d.core(0), 1);
        check_against_oracle(&g, &[1]);
    }

    #[test]
    fn anchoring_lifts_follower_cores() {
        // Path 0-1-2: cores 1,1,1. Anchoring 0 makes 1 lean on an immortal
        // neighbour, but degree is unchanged so cores stay 1 except that
        // anchoring both neighbours of 1 lifts it: support(1) = 2.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let d = CoreDecomposition::compute_anchored(&g, &[0, 2]);
        assert_eq!(d.core(1), 2);
        check_against_oracle(&g, &[0, 2]);
    }

    #[test]
    fn anchored_vertices_sort_last() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let d = CoreDecomposition::compute_anchored(&g, &[1]);
        assert!(d.precedes(0, 1));
        assert!(d.precedes(2, 1));
        assert_eq!(d.pos(1), u32::MAX);
        assert_eq!(d.order().len(), 2);
    }

    #[test]
    fn csr_substrate_yields_identical_cores() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let dv = CoreDecomposition::compute(&g);
        let dc = CoreDecomposition::compute(&csr);
        assert_eq!(dv.cores(), dc.cores());
        // The removal orders may differ (neighbour iteration order is
        // substrate-specific) but both must be valid peels of the same
        // graph; validity of the CSR order is checked here directly.
        let mut removed = [false; 6];
        for &v in dc.order() {
            let rem = csr.neighbors(v).iter().filter(|&&w| !removed[w as usize]).count() as u32;
            assert!(rem <= dc.core(v), "vertex {v}: remaining {rem} > core {}", dc.core(v));
            removed[v as usize] = true;
        }
        // deg_plus works against either substrate.
        for v in g.vertices() {
            assert_eq!(dc.deg_plus(&csr, v), dc.deg_plus(&g, v));
        }
    }

    #[test]
    fn random_graphs_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for trial in 0..20 {
            let n = 20 + trial;
            let mut g = Graph::new(n);
            for _ in 0..(3 * n) {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v && !g.has_edge(u, v) {
                    g.insert_edge(u, v).unwrap();
                }
            }
            check_against_oracle(&g, &[]);
            // And with a couple of random anchors.
            let anchors = vec![rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId];
            let mut anchors = anchors;
            anchors.dedup();
            check_against_oracle(&g, &anchors);
        }
    }
}
