//! Quickstart: the paper's Figure 1 walked end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Reproduces Examples 1-5 of the paper on the 17-user reading-hobby
//! community: k-core decomposition, anchored k-core, follower queries, and
//! anchored vertex tracking across the two snapshots.

use avt::algo::{AnchoredCoreState, AvtAlgorithm, AvtParams, Greedy};
use avt::datasets::figure1::{self, u};
use avt::graph::CsrGraph;
use avt::kcore::{k_core_members, CoreDecomposition};

fn label(v: avt::graph::VertexId) -> String {
    format!("u{}", v + 1)
}

fn labels(vs: &[avt::graph::VertexId]) -> String {
    let mut vs = vs.to_vec();
    vs.sort_unstable();
    vs.iter().map(|&v| label(v)).collect::<Vec<_>>().join(", ")
}

fn main() {
    let evolving = figure1::evolving();
    let g1 = evolving.initial();
    println!("The reading-hobby community of Figure 1:");
    println!("  {} users, {} friendships at t=1\n", g1.num_vertices(), g1.num_edges());

    // Analysis is read-only, so freeze the snapshot into the immutable CSR
    // substrate — the layout every per-snapshot algorithm consumes.
    let frozen = CsrGraph::from_graph(g1);

    // Example 2: core decomposition.
    let decomposition = CoreDecomposition::compute(&frozen);
    let core3 = k_core_members(decomposition.cores(), 3);
    println!("3-core at t=1 (the stable community): {}", labels(&core3));

    // Example 5: followers of a single anchored vertex.
    let mut state = AnchoredCoreState::new(&frozen, 3);
    let followers = state.followers_of(u(15));
    println!("anchoring u15 alone would retain:    {}", labels(&followers));

    // Example 3: anchoring u7 and u10.
    let mut state = AnchoredCoreState::new(&frozen, 3);
    let base = state.base_cores_snapshot();
    state.commit_anchor(u(7));
    state.commit_anchor(u(10));
    let followers = state.committed_followers(&base);
    println!(
        "anchoring {{u7, u10}} retains:          {} ({} -> {} engaged users)\n",
        labels(&followers),
        core3.len(),
        state.anchored_core_size(),
    );

    // Example 4: tracking across both snapshots (k = 3, l = 2).
    let params = AvtParams::new(3, 2);
    let result = Greedy.track(&evolving, params).expect("the Figure 1 graph is consistent");
    println!("Anchored Vertex Tracking with k = 3, l = 2:");
    for report in &result.reports {
        println!(
            "  t={}: anchors {{{}}} -> followers {{{}}} (community {} -> {})",
            report.t,
            labels(&report.anchors),
            labels(&report.followers),
            report.base_core_size,
            report.anchored_core_size,
        );
    }
    println!(
        "\nThe churn (+ (u2,u5), - (u2,u11)) changes who is worth anchoring —\n\
         exactly the effect the AVT problem tracks."
    );
}
