//! From-scratch invariant checkers.
//!
//! These are intentionally written as *independent* implementations (naive
//! repeated peeling, no buckets, no orders) so that the fast paths in
//! [`crate::decompose`] and [`crate::maintain`] are validated against code
//! that shares no logic with them. They are O(k·m) or worse and meant for
//! tests and debug assertions, not production use.

use avt_graph::{GraphView, VertexId};

use crate::decompose::{CoreDecomposition, ANCHOR_CORE};
use crate::korder::KOrder;

/// Naive k-core membership: repeatedly delete vertices with fewer than `k`
/// surviving neighbours, never deleting anchors. Returns a membership mask.
///
/// This is Definition 1 (plus the anchored extension of Definition 4)
/// executed literally.
pub fn simple_k_core<G: GraphView>(graph: &G, k: u32, anchors: &[VertexId]) -> Vec<bool> {
    let n = graph.num_vertices();
    let mut alive = vec![true; n];
    let mut is_anchor = vec![false; n];
    for &a in anchors {
        is_anchor[a as usize] = true;
    }
    loop {
        let mut changed = false;
        for v in 0..n {
            if !alive[v] || is_anchor[v] {
                continue;
            }
            let deg = graph.neighbors(v as VertexId).iter().filter(|&&w| alive[w as usize]).count()
                as u32;
            if deg < k {
                alive[v] = false;
                changed = true;
            }
        }
        if !changed {
            return alive;
        }
    }
}

/// Naive core numbers for every vertex (anchors get [`ANCHOR_CORE`]).
/// O(maxcore · n · m) — tests only.
pub fn simple_core_numbers<G: GraphView>(graph: &G, anchors: &[VertexId]) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut is_anchor = vec![false; n];
    for &a in anchors {
        is_anchor[a as usize] = true;
    }
    let mut core = vec![0u32; n];
    let mut k = 1u32;
    loop {
        let alive = simple_k_core(graph, k, anchors);
        let mut any = false;
        for v in 0..n {
            if is_anchor[v] {
                continue;
            }
            if alive[v] {
                core[v] = k;
                any = true;
            }
        }
        if !any {
            break;
        }
        k += 1;
    }
    for v in 0..n {
        if is_anchor[v] {
            core[v] = ANCHOR_CORE;
        }
    }
    core
}

/// Check that a [`KOrder`] is *valid* for `graph`:
///
/// 1. its levels equal the true core numbers (fresh decomposition), and
/// 2. the stored order, replayed as a peel, is legal — every vertex has
///    remaining degree ≤ its level at the moment it is removed.
///
/// Together these certify the invariant documented in [`crate`], which the
/// follower computation in `avt-core` depends on. Panics with a diagnostic
/// on the first violation.
pub fn assert_korder_valid<G: GraphView>(graph: &G, korder: &KOrder) {
    let fresh = CoreDecomposition::compute(graph);
    for v in graph.vertices() {
        assert_eq!(
            korder.core(v),
            fresh.core(v),
            "maintained core of vertex {v} diverged from scratch decomposition"
        );
    }

    let mut sequence: Vec<VertexId> = graph.vertices().collect();
    sequence.sort_by_key(|&a| korder.order_key(a));

    let mut removed = vec![false; graph.num_vertices()];
    for &v in &sequence {
        let remaining = graph.neighbors(v).iter().filter(|&&w| !removed[w as usize]).count() as u32;
        assert!(
            remaining <= korder.core(v),
            "K-order invalid: vertex {v} at level {} still has {remaining} \
             live neighbours at its removal slot",
            korder.core(v)
        );
        removed[v as usize] = true;
    }

    // Internal bookkeeping: every vertex appears exactly once in its level's
    // sequence and the per-level live counts agree.
    korder.assert_internal_consistency();
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_graph::Graph;

    #[test]
    fn simple_k_core_triangle() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let alive = simple_k_core(&g, 2, &[]);
        assert_eq!(alive, vec![true, true, true, false]);
        let alive = simple_k_core(&g, 3, &[]);
        assert_eq!(alive, vec![false; 4]);
    }

    #[test]
    fn simple_k_core_respects_anchors() {
        // Path 0-1-2-3; 2-core is empty, but anchoring 0 and 3 saves
        // everyone: 1 and 2 both keep two live neighbours.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let alive = simple_k_core(&g, 2, &[0, 3]);
        assert_eq!(alive, vec![true, true, true, true]);
    }

    #[test]
    fn simple_core_numbers_basic() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        assert_eq!(simple_core_numbers(&g, &[]), vec![2, 2, 2, 1]);
        let with_anchor = simple_core_numbers(&g, &[3]);
        assert_eq!(with_anchor[3], ANCHOR_CORE);
    }

    #[test]
    fn cascading_peel_terminates() {
        // Long path: 1-core keeps everything, 2-core empties by cascade.
        let g = Graph::from_edges(6, (0..5u32).map(|i| (i, i + 1))).unwrap();
        assert!(simple_k_core(&g, 1, &[]).iter().all(|&a| a));
        assert!(simple_k_core(&g, 2, &[]).iter().all(|&a| !a));
    }
}
