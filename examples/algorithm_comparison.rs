//! Side-by-side comparison of all five solvers on one evolving network —
//! a miniature of the paper's §6 evaluation you can read in one screen.
//!
//! ```text
//! cargo run --release --example algorithm_comparison
//! ```

use std::time::Instant;

use avt::algo::{AvtAlgorithm, AvtParams, BruteForce, Engine, Greedy, IncAvt, Olak, Rcm};
use avt::datasets::Dataset;
use avt::kcore::CoreSpectrum;

/// Pick the k whose (k-1)-shell is largest — the most anchorable setting
/// for this particular graph (scaled stand-ins have shallower core
/// hierarchies than their full-size originals). One-shot final-snapshot
/// access, so `snapshot(T)` is the right accessor (not a frame walk).
fn most_anchorable_k(evolving: &avt::graph::EvolvingGraph) -> u32 {
    let last = evolving.snapshot(evolving.num_snapshots()).expect("final snapshot");
    CoreSpectrum::of(&last).most_anchorable_k().unwrap_or(2)
}

fn main() {
    let evolving = Dataset::EuCore.generate(0.05, 8, 3);
    let params = AvtParams::new(most_anchorable_k(&evolving), 2);
    println!(
        "eu-core-like network: {} users, {} snapshots, k = {}, l = {}\n",
        evolving.num_vertices(),
        evolving.num_snapshots(),
        params.k,
        params.l
    );

    let solvers: Vec<Box<dyn AvtAlgorithm>> = vec![
        Box::new(Olak),
        Box::new(Greedy),
        Box::new(IncAvt),
        Box::new(Rcm),
        Box::new(BruteForce { pool_cap: Some(40) }),
    ];

    println!(
        "{:<12} {:>9} {:>10} {:>12} {:>10}",
        "algorithm", "followers", "time_ms", "visited", "probed"
    );
    for solver in solvers {
        let start = Instant::now();
        let result = solver.track(&evolving, params).expect("dataset is consistent");
        let elapsed = start.elapsed();
        let metrics = result.total_metrics();
        println!(
            "{:<12} {:>9} {:>10.2} {:>12} {:>10}",
            solver.name(),
            result.total_followers(),
            elapsed.as_secs_f64() * 1000.0,
            metrics.vertices_visited,
            metrics.candidates_probed,
        );
    }
    println!(
        "\nBrute-force is the optimum; the heuristics should land close to it \
         while visiting far fewer vertices (Figure 12 of the paper)."
    );

    // The engine behind every per-snapshot row above, made explicit: the
    // same Greedy solver through both runners. Snapshots are solved
    // independently, so the pipelined runner can solve t while t+1 is
    // still being merged — with identical anchors and followers.
    let solver = Greedy;
    let start = Instant::now();
    let seq = Engine::sequential().run(&solver, &evolving, params).expect("consistent dataset");
    let seq_ms = start.elapsed().as_secs_f64() * 1000.0;
    let start = Instant::now();
    let par = Engine::pipelined(4).run(&solver, &evolving, params).expect("consistent dataset");
    let par_ms = start.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(seq.anchor_sets, par.anchor_sets);
    assert_eq!(seq.follower_counts, par.follower_counts);
    println!(
        "\nengine runners (Greedy): sequential {seq_ms:.2} ms, pipelined x4 {par_ms:.2} ms \
         — identical anchors and followers ({} total)",
        par.total_followers()
    );
}
