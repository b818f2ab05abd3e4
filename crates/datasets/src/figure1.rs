//! A reconstruction of the paper's Figure 1: the reading-hobby community.
//!
//! The original figure is an image; the paper's prose pins down enough of
//! the structure to rebuild an equivalent graph. The reconstruction below
//! (17 users `u1..u17`, 29 friendships) reproduces every quantitative fact
//! the text states:
//!
//! * the 3-core of `G_1` is `{u8, u9, u12, u13, u16}` (5 users), there is
//!   no 4-core, and `u17` is the only core-1 user (Figure 2's K-order has
//!   levels of size 1 / 11 / 5);
//! * anchoring `{u7, u10}` at `t = 1` pulls exactly
//!   `{u2, u3, u5, u6, u11}` into the community — the 3-core grows from 5
//!   to 12 (Example 1 / Example 4);
//! * anchoring `u15` at `t = 1` yields exactly the follower `{u14}`
//!   (Examples 5 and 6);
//! * from `t = 1` to `t = 2` the edge `(u2, u5)` appears and `(u2, u11)`
//!   disappears (the purple/white dotted lines);
//! * at `t = 2`, `{u7, u10}` only achieves a community of 11 (Example 1),
//!   and the optimum shifts to an anchor pair containing `u15`.
//!
//! One detail is not recoverable from the text: the paper's optimal pair
//! at `t = 2` is `{u7, u15}` with community 14. In this reconstruction,
//! `{u7, u10}` still achieves exactly the paper's community of 11 at
//! `t = 2`, and `{u10, u15}` ties it — the churn demotes `u11` from
//! follower to lost user and makes `u15` competitive, preserving the
//! qualitative story (the best anchors change as the network evolves).
//! That substitution is this graph's one deviation from the paper: the
//! tests pin the t = 2 community at 11, never the paper's optimum of 14.

use avt_graph::{EdgeBatch, EvolvingGraph, Graph, VertexId};

/// Number of users in the community.
pub const N: usize = 17;

/// Map the paper's 1-based user label `uX` to the dense vertex id.
///
/// ```
/// use avt_datasets::figure1::u;
/// assert_eq!(u(1), 0);
/// assert_eq!(u(17), 16);
/// ```
pub const fn u(label: u32) -> VertexId {
    assert!(label >= 1 && label <= N as u32, "user labels are u1..u17");
    label - 1
}

/// The friendships of snapshot `G_1`, as 1-based user-label pairs.
pub const EDGES_T1: [(u32, u32); 28] = [
    (1, 2),
    (1, 4),
    (2, 3),
    (2, 7),
    (2, 11),
    (3, 7),
    (3, 9),
    (4, 5),
    (5, 6),
    (5, 10),
    (5, 12),
    (6, 10),
    (6, 13),
    (8, 9),
    (8, 12),
    (8, 13),
    (9, 11),
    (9, 12),
    (9, 13),
    (9, 14),
    (9, 16),
    (11, 16),
    (12, 16),
    (13, 16),
    (14, 15),
    (14, 16),
    (15, 16),
    (15, 17),
];

/// Snapshot `G_1`.
pub fn graph1() -> Graph {
    Graph::from_edges(N, EDGES_T1.iter().map(|&(a, b)| (u(a), u(b))))
        .expect("the Figure 1 edge list is consistent")
}

/// The churn from `t = 1` to `t = 2`: `(u2, u5)` forms, `(u2, u11)`
/// breaks.
pub fn batch2() -> EdgeBatch {
    EdgeBatch::from_pairs([(u(2), u(5))], [(u(2), u(11))])
}

/// The full two-snapshot evolving community of Figure 1.
pub fn evolving() -> EvolvingGraph {
    let mut eg = EvolvingGraph::new(graph1());
    eg.push_batch(batch2());
    eg
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_kcore::decompose::CoreDecomposition;
    use avt_kcore::shell::k_core_members;

    #[test]
    fn three_core_of_g1_matches_paper() {
        let d = CoreDecomposition::compute(&graph1());
        let mut core3 = k_core_members(d.cores(), 3);
        core3.sort_unstable();
        assert_eq!(core3, vec![u(8), u(9), u(12), u(13), u(16)]);
        // No 4-core exists (Example 2).
        assert!(k_core_members(d.cores(), 4).is_empty());
    }

    #[test]
    fn korder_levels_match_figure2() {
        let d = CoreDecomposition::compute(&graph1());
        // Figure 2: |O1| = 1 (u17), |O2| = 11, |O3| = 5.
        let count = |c: u32| d.cores().iter().filter(|&&x| x == c).count();
        assert_eq!(count(1), 1);
        assert_eq!(d.core(u(17)), 1);
        assert_eq!(count(2), 11);
        assert_eq!(count(3), 5);
    }

    #[test]
    fn snapshot2_applies_the_dotted_lines() {
        let eg = evolving();
        let g2 = eg.snapshot(2).unwrap();
        assert!(g2.has_edge(u(2), u(5)));
        assert!(!g2.has_edge(u(2), u(11)));
        assert_eq!(g2.num_edges(), graph1().num_edges());
    }

    #[test]
    fn anchoring_u7_u10_saves_the_five_users_of_example_1() {
        use avt_kcore::verify::simple_k_core;
        let g = graph1();
        let alive = simple_k_core(&g, 3, &[u(7), u(10)]);
        let mut saved: Vec<u32> = (1..=17u32).filter(|&lbl| alive[u(lbl) as usize]).collect();
        saved.sort_unstable();
        // C_3(S_1) of Example 4: core + anchors + followers = 12 users.
        assert_eq!(
            saved,
            vec![2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16],
            "anchored 3-core at t=1 must be the 12 users of Example 4"
        );
    }

    #[test]
    fn anchoring_u15_yields_follower_u14_of_example_5() {
        use avt_kcore::verify::simple_k_core;
        let g = graph1();
        let without = simple_k_core(&g, 3, &[]);
        let with = simple_k_core(&g, 3, &[u(15)]);
        let followers: Vec<u32> = (1..=17u32)
            .filter(|&lbl| lbl != 15 && with[u(lbl) as usize] && !without[u(lbl) as usize])
            .collect();
        assert_eq!(followers, vec![14]);
    }

    #[test]
    fn at_t2_the_pair_u7_u10_achieves_community_11() {
        use avt_kcore::verify::simple_k_core;
        let g2 = evolving().snapshot(2).unwrap();
        let alive = simple_k_core(&g2, 3, &[u(7), u(10)]);
        assert_eq!(
            alive.iter().filter(|&&a| a).count(),
            11,
            "Example 1: at t=2, {{u7, u10}} only grows the community to 11"
        );
    }

    #[test]
    fn graph_has_paper_dimensions() {
        let g = graph1();
        assert_eq!(g.num_vertices(), 17);
        assert_eq!(g.num_edges(), 28);
    }

    #[test]
    #[should_panic]
    fn user_zero_is_invalid() {
        let _ = u(0);
    }
}
