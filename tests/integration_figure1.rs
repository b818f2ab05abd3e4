//! End-to-end validation of every fact the paper states about Figure 1,
//! exercised through the public facade (graph -> kcore -> algorithms).

use avt::algo::{
    AnchoredCoreState, AvtAlgorithm, AvtParams, BruteForce, Greedy, IncAvt, Olak, Rcm,
};
use avt::datasets::figure1::{self, u};
use avt::kcore::{k_core_members, CoreDecomposition, KOrder};

#[test]
fn example_2_core_decomposition() {
    let g1 = figure1::graph1();
    let d = CoreDecomposition::compute(&g1);
    let mut core3 = k_core_members(d.cores(), 3);
    core3.sort_unstable();
    assert_eq!(core3, vec![u(8), u(9), u(12), u(13), u(16)]);
    assert_eq!(d.max_core(), 3, "no 4-core exists in G1");
}

#[test]
fn figure_2_korder_levels() {
    let g1 = figure1::graph1();
    let korder = KOrder::from_graph(&g1);
    assert_eq!(korder.live_count(1), 1);
    assert_eq!(korder.live_count(2), 11);
    assert_eq!(korder.live_count(3), 5);
    assert_eq!(korder.core(u(17)), 1);
}

#[test]
fn example_3_anchored_kcore_of_u7_u10() {
    let g1 = figure1::graph1();
    let mut state = AnchoredCoreState::new(&g1, 3);
    let base = state.base_cores_snapshot();
    state.commit_anchor(u(7));
    state.commit_anchor(u(10));
    let mut followers = state.committed_followers(&base);
    followers.sort_unstable();
    assert_eq!(followers, vec![u(2), u(3), u(5), u(6), u(11)]);
    // |C_3(S)| = 5 core + 2 anchors + 5 followers = 12.
    assert_eq!(state.anchored_core_size(), 12);
}

#[test]
fn example_5_and_6_followers_of_u15() {
    let g1 = figure1::graph1();
    let mut state = AnchoredCoreState::new(&g1, 3);
    assert_eq!(state.followers_of(u(15)), vec![u(14)]);
    // And the OLAK-style unordered search agrees.
    assert_eq!(state.followers_of_unordered(u(15)), vec![u(14)]);
}

#[test]
fn example_4_tracking_both_snapshots() {
    let evolving = figure1::evolving();
    let params = AvtParams::new(3, 2);
    let result = Greedy.track(&evolving, params).unwrap();
    // t=1: the paper's S1 = {u7, u10} with 5 followers.
    let mut s1 = result.anchor_sets[0].clone();
    s1.sort_unstable();
    assert_eq!(s1, vec![u(7), u(10)]);
    assert_eq!(result.follower_counts[0], 5);
    assert_eq!(result.reports[0].anchored_core_size, 12);
    // t=2: the churn costs u11; the community with the best pair is 11
    // in this reconstruction (the paper's own count for {u7, u10}).
    assert_eq!(result.reports[1].anchored_core_size, 11);
}

#[test]
fn all_algorithms_find_the_t1_optimum() {
    let evolving = figure1::evolving();
    let params = AvtParams::new(3, 2);
    let brute = BruteForce::default().track(&evolving, params).unwrap();
    assert_eq!(brute.follower_counts[0], 5, "the optimum at t=1 retains 5 followers");
    for algo in
        [Box::new(Greedy) as Box<dyn AvtAlgorithm>, Box::new(Olak), Box::new(IncAvt), Box::new(Rcm)]
    {
        let result = algo.track(&evolving, params).unwrap();
        assert_eq!(
            result.follower_counts[0],
            5,
            "{} should match the brute-force optimum on Figure 1",
            algo.name()
        );
    }
}

#[test]
fn theorem_3_candidates_on_figure1() {
    let g1 = figure1::graph1();
    let mut state = AnchoredCoreState::new(&g1, 3);
    let candidates = state.candidates();
    // Every vertex with followers must be in the pruned candidate set.
    for v in g1.vertices() {
        if state.follower_count_of(v) > 0 {
            assert!(candidates.contains(&v), "u{} pruned despite having followers", v + 1);
        }
    }
    // And the pruning is real: not every non-core vertex is a candidate.
    let non_core = g1.vertices().filter(|&v| !state.in_core(v)).count();
    assert!(candidates.len() < non_core);
}
