//! Property-based tests for the anchored-core engine: follower queries,
//! Theorem-3 candidate completeness, and commit/uncommit consistency.

use avt::algo::AnchoredCoreState;
use avt::graph::{Graph, VertexId};
use avt_core::oracle::{naive_anchored_core_size, naive_followers};
use proptest::prelude::*;

fn graph_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (5..max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

fn build(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let mut g = Graph::new(n);
    for &(u, v) in pairs {
        if u != v && !g.has_edge(u, v) {
            g.insert_edge(u, v).unwrap();
        }
    }
    g
}

/// Size of the region a follower query on `x` explores, built over full
/// adjacency: the (k-1)-shell vertices other than `x` reachable from `x`
/// through shell vertices, each step forward in the K-order when
/// `ordered`.
fn naive_region_size(state: &AnchoredCoreState<'_>, x: VertexId, ordered: bool) -> u64 {
    if state.in_core(x) {
        return 0; // core members and anchors explore nothing
    }
    let g = state.graph();
    let shell = state.k() - 1;
    let mut seen = vec![false; g.num_vertices()];
    let mut stack = vec![x];
    let mut size = 0;
    while let Some(v) = stack.pop() {
        for &w in g.neighbors(v) {
            if w != x
                && !seen[w as usize]
                && state.core(w) == shell
                && (!ordered || state.precedes(v, w))
            {
                seen[w as usize] = true;
                size += 1;
                stack.push(w);
            }
        }
    }
    size
}

/// What a caller observes of `state` besides its anchor list: the core of
/// every vertex, `|C_k(S)|`, the candidates, and the follower count of
/// every vertex.
fn observe(state: &mut AnchoredCoreState<'_>) -> (Vec<u32>, usize, Vec<VertexId>, Vec<usize>) {
    let g = state.graph();
    let cores = g.vertices().map(|v| state.core(v)).collect();
    let candidates = state.candidates();
    let counts = g.vertices().map(|v| state.follower_count_of(v)).collect();
    (cores, state.anchored_core_size(), candidates, counts)
}

/// Every follower query on `state` matches the whole-graph oracle on top
/// of `anchors`.
fn check_followers(
    state: &mut AnchoredCoreState<'_>,
    anchors: &[VertexId],
) -> Result<(), TestCaseError> {
    let g = state.graph();
    for x in g.vertices() {
        let mut fast = state.followers_of(x);
        fast.sort_unstable();
        let naive = naive_followers(g, state.k(), anchors, x);
        prop_assert_eq!(fast, naive, "anchor {} on top of {:?} at k = {}", x, anchors, state.k());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The forward-closure follower computation is exact: it matches the
    /// whole-graph re-peel oracle for every anchor on every graph at every
    /// small k.
    #[test]
    fn followers_match_oracle((n, pairs) in graph_strategy(30, 110), k in 2u32..5) {
        let g = build(n, &pairs);
        let mut state = AnchoredCoreState::new(&g, k);
        for x in g.vertices() {
            // Each query visits exactly its region, built here naively.
            let visited = state.metrics().vertices_visited;
            let mut fast = state.followers_of(x);
            prop_assert_eq!(
                state.metrics().vertices_visited - visited,
                naive_region_size(&state, x, true),
                "visited for anchor {} at k = {}", x, k
            );
            fast.sort_unstable();
            let naive = naive_followers(&g, k, &[], x);
            prop_assert_eq!(&fast, &naive, "anchor {} at k = {}", x, k);
            // The OLAK-style unordered region gives the same answer.
            let visited = state.metrics().vertices_visited;
            let mut unordered = state.followers_of_unordered(x);
            prop_assert_eq!(
                state.metrics().vertices_visited - visited,
                naive_region_size(&state, x, false),
                "unordered visited for anchor {} at k = {}", x, k
            );
            unordered.sort_unstable();
            prop_assert_eq!(&unordered, &naive, "unordered anchor {} at k = {}", x, k);
        }
    }

    /// Followers remain exact on top of committed anchors, through a
    /// second commit and an uncommit, and on a clone whose original then
    /// commits again: every re-decomposition drops the shell index, and a
    /// clone's copy of it is its own. Recommitting the uncommitted anchor
    /// recomputes exactly the state its uncommit discarded, which is what
    /// lets IncAVT's swap test restore that state instead (the restore
    /// itself is crate-private and pinned against recommitting by
    /// `anchored::tests::restore_matches_recommit`).
    #[test]
    fn followers_respect_commits(
        (n, pairs) in graph_strategy(25, 90),
        k in 2u32..4,
        pick in 0u32..25,
        pick2 in 0u32..25,
    ) {
        let g = build(n, &pairs);
        let first = pick % n as u32;
        let mut state = AnchoredCoreState::new(&g, k);
        if state.in_core(first) {
            return Ok(()); // committing a core member is a no-op scenario
        }
        state.commit_anchor(first);
        check_followers(&mut state, &[first])?;
        let second = pick2 % n as u32;
        if state.in_core(second) {
            return Ok(());
        }
        state.commit_anchor(second);
        check_followers(&mut state, &[first, second])?;
        let with_both = observe(&mut state);
        state.uncommit_anchor(first);
        check_followers(&mut state, &[second])?;
        let mut clone = state.clone();
        state.commit_anchor(first);
        check_followers(&mut clone, &[second])?;
        check_followers(&mut state, &[second, first])?;
        prop_assert_eq!(state.anchors(), &[second, first][..]);
        prop_assert_eq!(observe(&mut state), with_both);
    }

    /// Theorem 3 completeness: every vertex with at least one follower is
    /// in the pruned candidate set; no candidate is a core member.
    #[test]
    fn candidates_are_complete((n, pairs) in graph_strategy(30, 110), k in 2u32..5) {
        let g = build(n, &pairs);
        let mut state = AnchoredCoreState::new(&g, k);
        let candidates = state.candidates();
        for &c in &candidates {
            prop_assert!(!state.in_core(c));
        }
        for x in g.vertices() {
            if state.follower_count_of(x) > 0 {
                prop_assert!(
                    candidates.contains(&x),
                    "vertex {} has followers but was pruned (k = {})", x, k
                );
            }
        }
        // The ordered candidate set is a subset of OLAK's unordered one.
        let unordered = state.candidates_unordered();
        for &c in &candidates {
            prop_assert!(unordered.contains(&c));
        }
    }

    /// The anchored core size bookkeeping matches the naive oracle through
    /// arbitrary commit/uncommit sequences.
    #[test]
    fn core_size_matches_oracle_through_commits(
        (n, pairs) in graph_strategy(25, 90),
        picks in proptest::collection::vec(0u32..25, 1..5),
        k in 2u32..4,
    ) {
        let g = build(n, &pairs);
        let mut state = AnchoredCoreState::new(&g, k);
        let mut committed: Vec<VertexId> = Vec::new();
        for p in picks {
            let v = p % n as u32;
            if committed.contains(&v) {
                state.uncommit_anchor(v);
                committed.retain(|&a| a != v);
            } else {
                state.commit_anchor(v);
                committed.push(v);
            }
            prop_assert_eq!(
                state.anchored_core_size(),
                naive_anchored_core_size(&g, k, &committed),
                "anchors {:?} at k = {}", committed, k
            );
        }
    }

    /// follower_count_of agrees with followers_of().len() everywhere.
    #[test]
    fn counts_agree_with_sets((n, pairs) in graph_strategy(25, 90), k in 2u32..5) {
        let g = build(n, &pairs);
        let mut state = AnchoredCoreState::new(&g, k);
        for x in g.vertices() {
            prop_assert_eq!(state.followers_of(x).len(), state.follower_count_of(x));
        }
    }
}
