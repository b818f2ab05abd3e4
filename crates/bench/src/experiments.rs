//! One function per paper artifact (tables and figures of §6).

use std::time::Duration;

use avt_core::{AvtParams, Metrics, SnapshotReport};
use avt_datasets::Dataset;
use avt_graph::{GraphStats, VertexId};

use crate::report::{secs, Table};
use crate::{
    algorithms, brute_force_reference, calibrate_k, engine_tracker, Context, Instance, Tracker,
};

/// The T values plotted on the x-axis of Figures 5/6/9 (2, 6, 10, ... 30),
/// clamped to the configured snapshot count and ending at its last
/// snapshot, so every run plots its final cumulative totals.
fn t_axis(snapshots: usize) -> Vec<usize> {
    let mut axis: Vec<usize> = (1..).map(|i| 4 * i - 2).take_while(|&t| t <= snapshots).collect();
    if axis.last() != Some(&snapshots) {
        axis.push(snapshots);
    }
    axis
}

/// The l values of Figures 7/8/10, scaled down with the context budget.
fn l_axis(l_default: usize) -> Vec<usize> {
    [5usize, 10, 15, 20].iter().map(|&x| (x * l_default).div_ceil(10).max(1)).collect()
}

/// Totals of one tracking run, folded from the report stream. The
/// totals-only experiments consume exactly these four aggregates, so they
/// fold them as reports arrive instead of buffering all `T` reports the
/// way collecting into an `AvtResult` would.
#[derive(Default)]
struct Totals {
    elapsed: Duration,
    followers: usize,
    metrics: Metrics,
}

fn track_totals(algo: &dyn Tracker, instance: &Instance, params: AvtParams) -> Totals {
    let mut totals = Totals::default();
    algo.track_into(instance, params, &mut |report| {
        totals.elapsed += report.elapsed;
        totals.followers += report.followers.len();
        totals.metrics += report.metrics;
    })
    .expect("experiment datasets are internally consistent");
    totals
}

/// Per-snapshot follower counts, folded streaming (one `usize` per
/// snapshot retained — the axis Figure 12 plots — not the reports).
fn track_follower_counts(algo: &dyn Tracker, instance: &Instance, params: AvtParams) -> Vec<usize> {
    let mut counts = Vec::new();
    algo.track_into(instance, params, &mut |report| counts.push(report.followers.len()))
        .expect("experiment datasets are internally consistent");
    counts
}

/// Table 2: statistics of the generated stand-ins next to the paper's
/// numbers.
pub fn table2(ctx: &Context, datasets: &[Dataset]) -> Table {
    let mut table = Table::new(
        format!("Table 2: dataset statistics at steady state (scale = {})", ctx.scale),
        &["dataset", "nodes", "edges", "davg", "paper_nodes", "paper_edges", "paper_davg", "type"],
    );
    for &ds in datasets {
        let spec = ds.spec();
        let eg = ds.load_or_generate(ctx.scale, ctx.snapshots, ctx.seed);
        // Temporal stand-ins ramp up from a sparse first period exactly
        // like the real streams; their Table 2 density is reached at
        // steady state, so measure the final snapshot (one-shot access:
        // a single `snapshot(T)` replay beats walking every frame). No
        // tracking happens here, so no Instance is prepared.
        let last = eg.snapshot(eg.num_snapshots()).expect("final snapshot exists");
        let stats = GraphStats::compute(&last);
        table.push_row(vec![
            spec.name.to_string(),
            stats.nodes.to_string(),
            stats.edges.to_string(),
            format!("{:.2}", stats.avg_degree),
            spec.nodes.to_string(),
            spec.edges.to_string(),
            format!("{:.2}", spec.avg_degree),
            spec.kind.to_string(),
        ]);
    }
    table
}

/// Figures 3, 4 and 11: per dataset, sweep `k`, run every algorithm,
/// report total time (Fig. 3), visited candidate vertices (Fig. 4) and,
/// for the first three k of the sweep (the paper's "2/5, 3/10, 4/15"
/// axis), total followers (Fig. 11).
pub fn fig3_4(ctx: &Context, datasets: &[Dataset]) -> (Table, Table, Table) {
    let mut time = Table::new(
        "Figure 3: time (s) with varying k",
        &["dataset", "k_paper", "k_eff", "algorithm", "time_s"],
    );
    let mut visited = Table::new(
        "Figure 4: visited candidate vertices with varying k",
        &["dataset", "k_paper", "k_eff", "algorithm", "visited", "probed"],
    );
    let mut followers = Table::new(
        "Figure 11: total followers with varying k",
        &["dataset", "k", "algorithm", "followers"],
    );
    for &ds in datasets {
        let inst = crate::dataset_instance(ctx, ds);
        for (i, &k_paper) in ds.k_sweep().iter().enumerate() {
            let k = calibrate_k(&inst.evolving, k_paper);
            let params = AvtParams::new(k, ctx.l);
            for algo in algorithms() {
                let totals = track_totals(algo.as_ref(), &inst, params);
                time.push_row(vec![
                    ds.spec().name.into(),
                    k_paper.to_string(),
                    k.to_string(),
                    algo.name().into(),
                    secs(totals.elapsed),
                ]);
                if algo.name() != "RCM" {
                    // Figure 4 plots OLAK / Greedy / IncAVT only.
                    visited.push_row(vec![
                        ds.spec().name.into(),
                        k_paper.to_string(),
                        k.to_string(),
                        algo.name().into(),
                        totals.metrics.vertices_visited.to_string(),
                        totals.metrics.candidates_probed.to_string(),
                    ]);
                }
                if i < 3 {
                    followers.push_row(vec![
                        ds.spec().name.into(),
                        format!("{k_paper}/{k}"),
                        algo.name().into(),
                        totals.followers.to_string(),
                    ]);
                }
            }
        }
    }
    (time, visited, followers)
}

/// Figures 5, 6 and 9: cumulative time, visited vertices and followers as
/// `T` grows. One tracking run per (dataset, algorithm); the T-axis points
/// are prefix sums folded *as reports stream out* of
/// [`Tracker::track_into`] — the engine pushes each snapshot's report in
/// `t`-order while later snapshots are still solving, and nothing here
/// ever holds an all-`T` report buffer.
pub fn fig5_6(ctx: &Context, datasets: &[Dataset]) -> (Table, Table, Table) {
    let mut time = Table::new(
        "Figure 5: cumulative time (s) with varying T",
        &["dataset", "T", "algorithm", "time_s"],
    );
    let mut visited = Table::new(
        "Figure 6: cumulative visited vertices with varying T",
        &["dataset", "T", "algorithm", "visited"],
    );
    let mut followers = Table::new(
        "Figure 9: cumulative followers with varying T",
        &["dataset", "T", "algorithm", "followers"],
    );
    for &ds in datasets {
        let inst = crate::dataset_instance(ctx, ds);
        let params = AvtParams::new(calibrate_k(&inst.evolving, ds.default_k()), ctx.l);
        for algo in algorithms() {
            let name = algo.name();
            let mut cum_time = Duration::ZERO;
            let mut cum_visited = 0u64;
            let mut cum_followers = 0usize;
            let mut axis = t_axis(ctx.snapshots).into_iter().peekable();
            algo.track_into(&inst, params, &mut |report| {
                cum_time += report.elapsed;
                cum_visited += report.metrics.vertices_visited;
                cum_followers += report.followers.len();
                if axis.peek() == Some(&report.t) {
                    axis.next();
                    time.push_row(vec![
                        ds.spec().name.into(),
                        report.t.to_string(),
                        name.into(),
                        secs(cum_time),
                    ]);
                    if name != "RCM" {
                        visited.push_row(vec![
                            ds.spec().name.into(),
                            report.t.to_string(),
                            name.into(),
                            cum_visited.to_string(),
                        ]);
                    }
                    followers.push_row(vec![
                        ds.spec().name.into(),
                        report.t.to_string(),
                        name.into(),
                        cum_followers.to_string(),
                    ]);
                }
            })
            .expect("experiment datasets are internally consistent");
        }
    }
    (time, visited, followers)
}

/// Figures 7, 8 and 10: total time, visited vertices and followers with
/// varying `l`.
pub fn fig7_8(ctx: &Context, datasets: &[Dataset]) -> (Table, Table, Table) {
    let mut time =
        Table::new("Figure 7: time (s) with varying l", &["dataset", "l", "algorithm", "time_s"]);
    let mut visited = Table::new(
        "Figure 8: visited candidate vertices with varying l",
        &["dataset", "l", "algorithm", "visited"],
    );
    let mut followers = Table::new(
        "Figure 10: total followers with varying l",
        &["dataset", "l", "algorithm", "followers"],
    );
    for &ds in datasets {
        let inst = crate::dataset_instance(ctx, ds);
        let k = calibrate_k(&inst.evolving, ds.default_k());
        for l in l_axis(ctx.l) {
            let params = AvtParams::new(k, l);
            for algo in algorithms() {
                let totals = track_totals(algo.as_ref(), &inst, params);
                time.push_row(vec![
                    ds.spec().name.into(),
                    l.to_string(),
                    algo.name().into(),
                    secs(totals.elapsed),
                ]);
                if algo.name() != "RCM" {
                    visited.push_row(vec![
                        ds.spec().name.into(),
                        l.to_string(),
                        algo.name().into(),
                        totals.metrics.vertices_visited.to_string(),
                    ]);
                }
                followers.push_row(vec![
                    ds.spec().name.into(),
                    l.to_string(),
                    algo.name().into(),
                    totals.followers.to_string(),
                ]);
            }
        }
    }
    (time, visited, followers)
}

/// Figure 12: the eu-core case study — per-snapshot followers of every
/// heuristic next to the brute-force optimum, at l = 2, k = 3.
pub fn fig12(ctx: &Context) -> Table {
    let snapshots = ctx.snapshots.min(20);
    let eg = Dataset::EuCore.load_or_generate(ctx.scale, snapshots, ctx.seed);
    let params = AvtParams::new(crate::most_anchorable_k(&eg), 2);
    let inst = crate::instance(ctx, eg, "eu-core-fig12");
    let mut table = Table::new(
        format!("Figure 12: followers vs brute force (eu-core stand-in, l=2, k={})", params.k),
        &["T", "algorithm", "followers"],
    );
    let brute = engine_tracker(brute_force_reference());
    let mut runs: Vec<(String, Vec<usize>)> = algorithms()
        .iter()
        .map(|a| (a.name().to_string(), track_follower_counts(a.as_ref(), &inst, params)))
        .collect();
    runs.push(("Brute-force".into(), track_follower_counts(brute.as_ref(), &inst, params)));
    for t in 1..=snapshots {
        for (name, counts) in &runs {
            table.push_row(vec![t.to_string(), name.clone(), counts[t - 1].to_string()]);
        }
    }
    table
}

/// Table 4: selected anchors and their followers at the first snapshot of
/// the eu-core case study.
pub fn table4(ctx: &Context) -> Table {
    let eg = Dataset::EuCore.load_or_generate(ctx.scale, 1, ctx.seed);
    let params = AvtParams::new(crate::most_anchorable_k(&eg), 2);
    let inst = crate::instance(ctx, eg, "eu-core-table4");
    let mut table = Table::new(
        format!(
            "Table 4: selected anchored vertices and followers (eu-core stand-in, t=1, l=2, k={})",
            params.k
        ),
        &["algorithm", "anchors", "followers"],
    );
    // T = 1 here, so streaming yields exactly one report per tracker; keep
    // just that one instead of materializing a whole `AvtResult`.
    let first_report = |algo: &dyn Tracker| -> SnapshotReport {
        let mut first: Option<SnapshotReport> = None;
        algo.track_into(&inst, params, &mut |report| {
            first.get_or_insert(report);
        })
        .expect("experiment datasets are internally consistent");
        first.expect("tracking a 1-snapshot stream yields a report")
    };
    let brute = engine_tracker(brute_force_reference());
    let mut entries: Vec<(String, SnapshotReport)> =
        vec![("Brute-force".into(), first_report(brute.as_ref()))];
    for algo in algorithms() {
        entries.push((algo.name().to_string(), first_report(algo.as_ref())));
    }
    for (name, report) in entries {
        let fmt = |v: &[VertexId]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ");
        table.push_row(vec![name, fmt(&report.anchors), fmt(&report.followers)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::tiny()
    }

    #[test]
    fn t_axis_matches_paper_ticks() {
        assert_eq!(t_axis(30), vec![2, 6, 10, 14, 18, 22, 26, 30]);
        assert_eq!(t_axis(6), vec![2, 6]);
        assert_eq!(t_axis(1), vec![1]);
        assert_eq!(t_axis(8), vec![2, 6, 8]);
    }

    #[test]
    fn l_axis_scales_with_budget() {
        assert_eq!(l_axis(10), vec![5, 10, 15, 20]);
        assert_eq!(l_axis(4), vec![2, 4, 6, 8]);
        assert_eq!(l_axis(1), vec![1, 1, 2, 2]);
    }

    #[test]
    fn table2_reports_all_requested_datasets() {
        let t = table2(&ctx(), &[Dataset::Deezer, Dataset::CollegeMsg]);
        assert_eq!(t.rows.len(), 2);
        assert!(t.to_text().contains("Deezer"));
    }

    #[test]
    fn fig3_4_produces_rows_per_algorithm() {
        let (time, visited, followers) = fig3_4(&ctx(), &[Dataset::Deezer]);
        // 4 k values × 4 algorithms.
        assert_eq!(time.rows.len(), 16);
        // Figure 4 excludes RCM.
        assert_eq!(visited.rows.len(), 12);
        // Figure 11 plots the first 3 k values.
        assert_eq!(followers.rows.len(), 12);
    }

    #[test]
    fn fig5_6_emits_prefix_series() {
        let (time, visited, _) = fig5_6(&ctx(), &[Dataset::Deezer]);
        // T axis for 6 snapshots = {2, 6}; 4 algorithms.
        assert_eq!(time.rows.len(), 8);
        assert_eq!(visited.rows.len(), 6);
        // Cumulative series are non-decreasing per algorithm.
        let greedy: Vec<f64> =
            time.rows.iter().filter(|r| r[2] == "Greedy").map(|r| r[3].parse().unwrap()).collect();
        assert!(greedy.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fig5_6_followers_are_cumulative() {
        let (_, _, t) = fig5_6(&ctx(), &[Dataset::CollegeMsg]);
        let inc: Vec<u64> =
            t.rows.iter().filter(|r| r[2] == "IncAVT").map(|r| r[3].parse().unwrap()).collect();
        assert!(inc.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fig12_includes_brute_force() {
        let small = Context { snapshots: 2, ..Context::tiny() };
        let t = fig12(&small);
        assert!(t.rows.iter().any(|r| r[1] == "Brute-force"));
        assert!(t.rows.iter().any(|r| r[1] == "IncAVT"));
    }

    #[test]
    fn table4_lists_all_algorithms() {
        let t = table4(&ctx());
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0][0], "Brute-force");
    }
}
