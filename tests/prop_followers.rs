//! Property-based tests for the anchored-core engine: follower queries,
//! Theorem-3 candidate completeness, and commit/uncommit consistency.

use avt::algo::{AnchoredCoreState, AvtParams, Greedy, Olak, SnapshotSolver};
use avt::graph::{Graph, VertexId};
use avt_core::oracle::{naive_anchored_core_size, naive_followers};
use avt_kcore::{CoreDecomposition, ANCHOR_CORE};
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

/// Size of the region an unordered follower query on `x` explores, built
/// over full adjacency: the (k-1)-shell vertices other than `x` reachable
/// from `x` through shell vertices.
fn naive_region_size(state: &AnchoredCoreState<'_>, x: VertexId) -> u64 {
    if state.in_core(x) {
        return 0; // core members and anchors explore nothing
    }
    let g = state.graph();
    let mut seen = vec![false; g.num_vertices()];
    let mut stack = vec![x];
    let mut size = 0;
    while let Some(v) = stack.pop() {
        for &w in g.neighbors(v) {
            if w != x && !seen[w as usize] && state.in_shell(w) {
                seen[w as usize] = true;
                size += 1;
                stack.push(w);
            }
        }
    }
    size
}

/// Number of shell vertices an ordered follower query on `x` visits, by
/// its pass run naively over full adjacency. The seeds are the shell
/// neighbours `w` of `x` with `x ⪯ w`. The pass picks the earliest reached
/// vertex it has not yet visited and keeps it when its neighbours in
/// `C_k(S)`, its later shell neighbours and its kept neighbours (all of
/// them earlier), plus one for a seed, reach `k`; a kept vertex reaches its
/// later shell neighbours. It repeats until no reached vertex is left.
fn naive_pass_size(state: &AnchoredCoreState<'_>, x: VertexId) -> u64 {
    if state.in_core(x) {
        return 0; // core members and anchors explore nothing
    }
    let (g, k) = (state.graph(), state.k() as usize);
    let later = |v: VertexId| {
        g.neighbors(v).iter().copied().filter(move |&w| state.in_shell(w) && state.precedes(v, w))
    };
    let seeds: Vec<VertexId> = later(x).collect();
    let mut reached = seeds.clone();
    let mut visited = vec![false; g.num_vertices()];
    let mut kept = vec![false; g.num_vertices()];
    let mut visits = 0;
    while let Some(v) = reached.iter().copied().filter(|&v| !visited[v as usize]).reduce(|a, b| {
        if state.precedes(b, a) {
            b
        } else {
            a
        }
    }) {
        visited[v as usize] = true;
        visits += 1;
        let nbrs = g.neighbors(v);
        let engaged = nbrs.iter().filter(|&&w| state.in_core(w)).count();
        let earlier_kept = nbrs.iter().filter(|&&w| kept[w as usize]).count();
        let seed = usize::from(seeds.contains(&v));
        if engaged + later(v).count() + earlier_kept + seed >= k {
            kept[v as usize] = true;
            for w in later(v) {
                if !reached.contains(&w) {
                    reached.push(w);
                }
            }
        }
    }
    visits
}

/// What a caller observes of `state` besides its anchor list: the shell
/// membership of every vertex, `|C_k(S)|`, the candidates, and the
/// follower count of every vertex.
fn observe(state: &mut AnchoredCoreState<'_>) -> (Vec<bool>, usize, Vec<VertexId>, Vec<usize>) {
    let g = state.graph();
    let cores = g.vertices().map(|v| state.in_shell(v)).collect();
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

/// A vertex's class in `state`: 0 below the (k-1)-shell, 1 in it, 2 in
/// `C_k(S)`, 3 anchored.
fn class_of(state: &AnchoredCoreState<'_>, v: VertexId) -> u8 {
    if state.anchors().contains(&v) {
        3
    } else if state.in_core(v) {
        2
    } else if state.in_shell(v) {
        1
    } else {
        0
    }
}

/// The same classes read off a whole-graph anchored decomposition.
fn clamped_class(decomposition: &CoreDecomposition, k: u32, v: VertexId) -> u8 {
    match decomposition.core(v) {
        ANCHOR_CORE => 3,
        c if c >= k => 2,
        c if c == k - 1 => 1,
        _ => 0,
    }
}

/// `state`, however its anchors got committed and uncommitted, equals the
/// state `with_anchors` builds for them on everything a solver reads, and
/// its classes match the whole-graph anchored decomposition.
fn check_against_fresh_build(
    state: &mut AnchoredCoreState<'_>,
    base_cores: &[u32],
) -> Result<(), TestCaseError> {
    let (g, k) = (state.graph(), state.k());
    let anchors = state.anchors().to_vec();
    let mut fresh = AnchoredCoreState::with_anchors(g, k, &anchors);
    let decomposition = CoreDecomposition::compute_anchored(g, &anchors);
    for v in g.vertices() {
        prop_assert_eq!(
            class_of(state, v),
            class_of(&fresh, v),
            "class of {} with anchors {:?} at k = {}",
            v,
            &anchors,
            k
        );
        prop_assert_eq!(
            class_of(state, v),
            clamped_class(&decomposition, k, v),
            "decomposition class of {} with anchors {:?} at k = {}",
            v,
            &anchors,
            k
        );
    }
    let shell: Vec<VertexId> = g.vertices().filter(|&v| fresh.in_shell(v)).collect();
    for &u in &shell {
        for &v in &shell {
            prop_assert_eq!(
                state.precedes(u, v),
                fresh.precedes(u, v),
                "{} ⪯ {} with anchors {:?} at k = {}",
                u,
                v,
                &anchors,
                k
            );
        }
    }
    prop_assert_eq!(state.candidates(), fresh.candidates(), "candidates, anchors {:?}", &anchors);
    for x in g.vertices() {
        prop_assert_eq!(
            state.follower_count_of(x),
            fresh.follower_count_of(x),
            "followers of {} with anchors {:?} at k = {}",
            x,
            &anchors,
            k
        );
    }
    prop_assert_eq!(state.anchored_core_size(), fresh.anchored_core_size());
    prop_assert_eq!(state.committed_followers(base_cores), fresh.committed_followers(base_cores));
    Ok(())
}

/// The non-anchored vertices of `state` in class `class` (see [`class_of`]).
fn of_class(state: &AnchoredCoreState<'_>, class: u8) -> Vec<VertexId> {
    state.graph().vertices().filter(|&v| class_of(state, v) == class).collect()
}

/// Up to `l` rounds of the greedy rule through the public API: each round
/// counts the follower set of every candidate in full, commits the one
/// with the most followers, ties going to the smaller id, and stops when
/// no candidate has any. `ordered` takes Greedy's Theorem-3 candidates and
/// ordered count; otherwise OLAK's candidates and unordered count.
fn reference_rounds(g: &Graph, k: u32, l: usize, ordered: bool) -> Vec<VertexId> {
    let mut state = AnchoredCoreState::new(g, k);
    let mut anchors = Vec::new();
    for _ in 0..l {
        let candidates = if ordered { state.candidates() } else { state.candidates_unordered() };
        let mut best: Option<(usize, VertexId)> = None;
        for x in candidates {
            let gain = if ordered {
                state.followers_of(x).len()
            } else {
                state.followers_of_unordered(x).len()
            };
            if gain > 0 && best.is_none_or(|(bg, bv)| gain > bg || (gain == bg && x < bv)) {
                best = Some((gain, x));
            }
        }
        let Some((_, x)) = best else { break };
        state.commit_anchor(x);
        anchors.push(x);
    }
    anchors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ordered follower computation is exact: it matches the
    /// whole-graph re-peel oracle for every anchor on every graph at every
    /// small k.
    #[test]
    fn followers_match_oracle((n, pairs) in graph_strategy(30, 110), k in 2u32..5) {
        let g = build(n, &pairs);
        let mut state = AnchoredCoreState::new(&g, k);
        for x in g.vertices() {
            // Each query visits exactly what its pass reaches, run here
            // naively.
            let visited = state.metrics().vertices_visited;
            let mut fast = state.followers_of(x);
            prop_assert_eq!(
                state.metrics().vertices_visited - visited,
                naive_pass_size(&state, x),
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
                naive_region_size(&state, x),
                "unordered visited for anchor {} at k = {}", x, k
            );
            unordered.sort_unstable();
            prop_assert_eq!(&unordered, &naive, "unordered anchor {} at k = {}", x, k);
        }
    }

    /// Followers remain exact on top of committed anchors, through a
    /// second commit and an uncommit, and on a clone whose original then
    /// commits again: every repair re-indexes the shell, and a clone's
    /// copy of the index is its own. Recommitting the uncommitted anchor
    /// recomputes exactly the state its uncommit discarded, which is what
    /// IncAVT's swap test relies on when it keeps an anchor.
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

    /// Commits and uncommits repair the state locally, and the repaired
    /// state is the one a fresh build gives for the same anchors: after
    /// every step of a random sequence — on graphs with isolated vertices,
    /// at k from 1 to 5, above the degeneracy and at `u32::MAX` — and after
    /// committing a core member, uncommitting it again (it stays in
    /// `C_k`), and committing a below-shell vertex that lifts a neighbour
    /// into the shell.
    #[test]
    fn local_repair_matches_fresh_build(
        (n, pairs) in graph_strategy(25, 90),
        isolated in 0usize..4,
        k_pick in 0u32..7,
        steps in proptest::collection::vec((0u8..4, 0usize..64), 1..12),
    ) {
        let g = build(n + isolated, &pairs);
        let base = CoreDecomposition::compute(&g);
        let k = match k_pick {
            0..=4 => k_pick + 1,
            5 => base.max_core() + 2,
            _ => u32::MAX,
        };
        let mut state = AnchoredCoreState::new(&g, k);
        check_against_fresh_build(&mut state, base.cores())?;
        // Each step commits a vertex below the shell, in it or in the
        // core, or uncommits an anchor, picked among those that exist.
        for (class, pick) in steps {
            let pool = of_class(&state, class);
            let Some(&v) = pool.get(pick % pool.len().max(1)) else { continue };
            if class == 3 {
                state.uncommit_anchor(v);
            } else {
                state.commit_anchor(v);
            }
            check_against_fresh_build(&mut state, base.cores())?;
        }
        if let Some(&member) = of_class(&state, 2).first() {
            state.commit_anchor(member);
            check_against_fresh_build(&mut state, base.cores())?;
            state.uncommit_anchor(member);
            prop_assert!(state.in_core(member), "a member's uncommit keeps it in C_k");
            check_against_fresh_build(&mut state, base.cores())?;
        }
        let below = of_class(&state, 0);
        let lifting = below.into_iter().find(|&x| {
            let mut trial = state.clone();
            trial.commit_anchor(x);
            g.vertices().any(|w| w != x && class_of(&state, w) == 0 && trial.in_shell(w))
        });
        if let Some(x) = lifting {
            state.commit_anchor(x);
            check_against_fresh_build(&mut state, base.cores())?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every Greedy and OLAK round commits the candidate with the most
    /// followers, ties going to the smaller id: the solvers pick the
    /// anchors of rounds that count every candidate's follower set in full.
    /// At k ≥ 3 the pendants lie below the shell with at most one shell
    /// neighbour, so the solvers' rounds read memoized counts and bounds,
    /// and skip the peels of candidates that cannot win.
    #[test]
    fn rounds_pick_the_best_candidate(
        (n, mut pairs) in graph_strategy(30, 110),
        pendants in proptest::collection::vec(0u32..30, 0..12),
        k in 2u32..5,
        l in 1usize..4,
    ) {
        let hosts = n as u32;
        pairs.extend(pendants.iter().zip(hosts..).map(|(&p, v)| (v, p % hosts)));
        let g = build(n + pendants.len(), &pairs);
        let params = AvtParams::new(k, l);
        prop_assert_eq!(
            Greedy.solve_snapshot(1, &g, params).anchors,
            reference_rounds(&g, k, l, true),
            "Greedy at k = {}, l = {}", k, l
        );
        prop_assert_eq!(
            Olak.solve_snapshot(1, &g, params).anchors,
            reference_rounds(&g, k, l, false),
            "OLAK at k = {}, l = {}", k, l
        );
    }

    /// The count memo never serves a stale count. After every commit or
    /// uncommit of a random sequence, every vertex's count is asked twice,
    /// so the second pass reads the memo wherever a count was memoized,
    /// and both answers equal the follower set of a fresh build for the
    /// same anchors and the oracle's. At k ≥ 3 the pendant vertices lie
    /// below the shell with at most one shell neighbour, the kind of
    /// anchor the memo serves; steps pick their vertex by class, as in
    /// `local_repair_matches_fresh_build`.
    #[test]
    fn memoized_counts_match_fresh_build(
        (n, mut pairs) in graph_strategy(25, 90),
        pendants in proptest::collection::vec(0u32..25, 0..12),
        k in 2u32..5,
        steps in proptest::collection::vec((0u8..4, 0usize..64), 1..12),
    ) {
        let hosts = n as u32;
        pairs.extend(pendants.iter().zip(hosts..).map(|(&p, v)| (v, p % hosts)));
        let g = build(n + pendants.len(), &pairs);
        let mut state = AnchoredCoreState::new(&g, k);
        for (class, pick) in steps {
            let pool = of_class(&state, class);
            let Some(&v) = pool.get(pick % pool.len().max(1)) else { continue };
            if class == 3 {
                state.uncommit_anchor(v);
            } else {
                state.commit_anchor(v);
            }
            let anchors = state.anchors().to_vec();
            let mut fresh = AnchoredCoreState::with_anchors(&g, k, &anchors);
            let expected: Vec<usize> = g.vertices().map(|x| fresh.followers_of(x).len()).collect();
            for x in g.vertices() {
                prop_assert_eq!(
                    expected[x as usize],
                    naive_followers(&g, k, &anchors, x).len(),
                    "oracle, anchor {} on top of {:?} at k = {}", x, &anchors, k
                );
            }
            for pass in 0..2 {
                for x in g.vertices() {
                    prop_assert_eq!(
                        state.follower_count_of(x),
                        expected[x as usize],
                        "pass {}, anchor {} on top of {:?} at k = {}", pass, x, &anchors, k
                    );
                }
            }
        }
    }
}
