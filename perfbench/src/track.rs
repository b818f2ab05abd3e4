//! The `track` workload: the paper's own experiment, an offline batch job.
//!
//! Greedy and IncAVT each track every snapshot of the email-Enron
//! stand-in (scale 0.2, T = 30, l = 10, k calibrated from the paper's 10),
//! alternating until the run time is spent; the medians of their pass
//! times are the headline. The time sits in avt-core follower evaluation
//! and avt-kcore K-order maintenance; the serving layers do no work here.

use std::collections::BTreeMap;
use std::time::Instant;

use avt_core::{
    AnchoredCoreState, AvtAlgorithm, AvtParams, Greedy, IncAvt, Metrics, SnapshotReport,
    SnapshotSolver,
};
use avt_datasets::Dataset;
use avt_graph::{CsrGraph, EvolvingGraph};
use avt_kcore::{CoreDecomposition, CoreSpectrum, MaintainedCore};

use crate::stats::{median, quantile, us};
use crate::trace::Tracer;
use crate::{check, inputs, Opts, Outcome};

struct Config {
    scale: f64,
    snapshots: usize,
    l: usize,
    paper_k: u32,
}

const FULL: Config = Config { scale: 0.2, snapshots: 30, l: 10, paper_k: 10 };
const TINY: Config = Config { scale: 0.01, snapshots: 4, l: 3, paper_k: 10 };

struct Inputs {
    eg: EvolvingGraph,
    params: AvtParams,
}

fn setup(config: &Config, seed: u64) -> Inputs {
    let eg = inputs::generate(Dataset::EmailEnron, config.scale, config.snapshots, seed);
    let k = calibrate_k(&eg, config.paper_k);
    Inputs { eg, params: AvtParams::new(k, config.l) }
}

/// The nearest k to the paper's whose k-core is nonempty and whose
/// (k-1)-shell is populated at the final snapshot (the experiments' rule).
fn calibrate_k(eg: &EvolvingGraph, paper_k: u32) -> u32 {
    let last = eg.snapshot(eg.num_snapshots()).expect("the final snapshot replays");
    let spectrum = CoreSpectrum::of(&last);
    spectrum
        .nearest_anchorable_k(paper_k)
        .unwrap_or_else(|| paper_k.min(spectrum.degeneracy()).max(2))
}

pub fn run(opts: &Opts) -> Outcome {
    let config = if opts.tiny { &TINY } else { &FULL };
    let (inputs, setup_s) = crate::repeat_setup(|| setup(config, opts.seed), drop);
    let mut outcome = if opts.trace { traced(&inputs) } else { measured(&inputs, opts) };
    outcome.put("setup_s", setup_s);
    outcome
}

/// Snapshots whose reports fail the follower recomputation.
fn wrong_snapshots(inputs: &Inputs, reports: &[SnapshotReport]) -> u64 {
    let k = inputs.params.k;
    inputs
        .eg
        .frames()
        .zip(reports)
        .filter(|((t, frame), r)| {
            let cores = CoreDecomposition::compute(frame);
            r.t != *t || !check::snapshot_ok(frame, cores.cores(), k, &r.anchors, &r.followers)
        })
        .count() as u64
}

fn measured(inputs: &Inputs, opts: &Opts) -> Outcome {
    let solvers: [&dyn AvtAlgorithm; 2] = [&Greedy::default(), &IncAvt];
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: [Option<Vec<SnapshotReport>>; 2] = [None, None];
    let mut snapshot_us = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t = inputs.eg.num_snapshots() as u64;
    let start = Instant::now();
    while pass_s[0].is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        for (i, solver) in solvers.iter().enumerate() {
            let begin = Instant::now();
            let result = solver.track(&inputs.eg, inputs.params);
            let wall = begin.elapsed().as_secs_f64();
            attempted += t;
            let Ok(result) = result else {
                failed += t;
                continue;
            };
            pass_s[i].push(wall);
            snapshot_us.extend(result.reports.iter().map(|r| us(r.elapsed)));
            match &first[i] {
                // Later passes must reproduce the checked first pass.
                Some(reference) => {
                    failed += reference
                        .iter()
                        .zip(&result.reports)
                        .filter(|(a, b)| a.anchors != b.anchors || a.followers != b.followers)
                        .count() as u64
                        + t.saturating_sub(result.reports.len() as u64);
                }
                None => {
                    failed += wrong_snapshots(inputs, &result.reports)
                        + t.saturating_sub(result.reports.len() as u64);
                    first[i] = Some(result.reports);
                }
            }
        }
    }
    let (greedy_s, incavt_s) = (median(&pass_s[0]), median(&pass_s[1]));
    let mut outcome = Outcome::new(attempted, failed);
    // Snapshots tracked per second by the two solvers at their median
    // pass times.
    outcome.put("throughput_per_s", 2.0 * t as f64 / (greedy_s + incavt_s));
    outcome.put("p50_us", quantile(&snapshot_us, 0.5));
    outcome.detail("p99_us", quantile(&snapshot_us, 0.99), "us");
    outcome.detail("greedy_track_s", greedy_s, "s");
    outcome.detail("incavt_track_s", incavt_s, "s");
    outcome.detail("k", f64::from(inputs.params.k), "count");
    outcome.detail("track_passes", (pass_s[0].len() + pass_s[1].len()) as f64, "count");
    outcome
}

/// Counts and timings one traced replay produced.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    checked: u64,
    wrong: u64,
    metrics: Metrics,
    anchors_committed: u64,
    maintain_visited: u64,
}

/// Replay the workload's inputs through each layer's public functions,
/// one span per call: frame derivation, decomposition, anchored state
/// construction, follower evaluation, the two solvers, and K-order
/// maintenance.
fn replay(inputs: &Inputs, tr: &mut Tracer, root: Option<usize>) -> Replay {
    let Inputs { eg, params } = inputs;
    let k = params.k;
    let begin = Instant::now();
    let mut out = Replay::default();
    let mut frame = tr.time("graph.csr_from_graph", root, || CsrGraph::from_graph(eg.initial()));
    for t in 1..=eg.num_snapshots() {
        if t > 1 {
            let batch = eg.batch(t - 1).expect("a batch precedes every later snapshot");
            frame = tr
                .time("graph.csr_apply_batch", root, || frame.apply_batch(batch))
                .expect("generated batches apply");
        }
        let cores = tr.time("kcore.decompose", root, || CoreDecomposition::compute(&frame));
        let mut state = tr.time("core.state_new", root, || AnchoredCoreState::new(&frame, k));
        let report = tr.time("core.greedy_solve", root, || {
            Greedy::default().solve_snapshot(t, &frame, *params)
        });
        for &a in &report.anchors {
            tr.time("core.followers_of", root, || state.followers_of(a));
        }
        out.metrics += state.metrics();
        let best = tr.time("core.best_solve", root, || {
            Greedy::default().solve_snapshot(t, &frame, AvtParams::new(k, 2))
        });
        let anchored = tr.time("core.state_with_anchors", root, || {
            AnchoredCoreState::with_anchors(&frame, k, &report.anchors)
        });
        let mut expected = anchored.committed_followers(cores.cores());
        let mut got = report.followers.clone();
        expected.sort_unstable();
        got.sort_unstable();
        out.checked += 1;
        out.wrong += u64::from(expected != got);
        out.metrics += report.metrics;
        out.metrics += best.metrics;
        out.anchors_committed += (report.anchors.len() + best.anchors.len()) as u64;
    }

    let mut maintained =
        tr.time("kcore.maintained_new", root, || MaintainedCore::new(eg.initial().clone()));
    for batch in eg.batches() {
        tr.time("kcore.maintain_batch", root, || maintained.apply_batch(batch))
            .expect("generated batches apply");
    }
    out.maintain_visited = maintained.visited_vertices();

    let inc = tr.begin("core.incavt_track", root);
    let mut pushes: Vec<(Instant, SnapshotReport)> = Vec::new();
    let inc_start = Instant::now();
    let tracked =
        IncAvt.track_into(eg, *params, &mut |r: SnapshotReport| pushes.push((Instant::now(), r)));
    tr.end(inc);
    out.checked += eg.num_snapshots() as u64;
    if tracked.is_err() || pushes.len() != eg.num_snapshots() {
        out.wrong += eg.num_snapshots() as u64;
    }
    let mut prev = inc_start;
    for (at, report) in &pushes {
        tr.record("core.incavt_snapshot", inc, Some(report.t as u64), prev, *at);
        prev = *at;
        out.metrics += report.metrics;
        out.anchors_committed += report.anchors.len() as u64;
    }
    let reports: Vec<SnapshotReport> = pushes.into_iter().map(|(_, r)| r).collect();
    out.wrong += wrong_snapshots(inputs, &reports);
    out.wall_s = begin.elapsed().as_secs_f64();
    out
}

fn traced(inputs: &Inputs) -> Outcome {
    // The untraced pass is the reference the tracing overhead is taken
    // against; it also warms the caches both passes share.
    let plain = replay(inputs, &mut Tracer::new(false), None);
    let mut tr = Tracer::new(true);
    let root = tr.begin("track.replay", None);
    let r = replay(inputs, &mut tr, root);
    tr.end(root);

    let mut outcome = Outcome::new(plain.checked + r.checked, plain.wrong + r.wrong);
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    let p = |name: &str, q: f64| quantile(&tr.durations_us(name), q);
    layers.insert("graph.csr_apply_batch_us.p50", p("graph.csr_apply_batch", 0.5));
    layers.insert("graph.csr_apply_batch_us.p99", p("graph.csr_apply_batch", 0.99));
    layers.insert("kcore.decompose_us.p50", p("kcore.decompose", 0.5));
    layers.insert("kcore.maintain_batch_us.p50", p("kcore.maintain_batch", 0.5));
    layers.insert("kcore.maintain_batch_us.p99", p("kcore.maintain_batch", 0.99));
    layers.insert("kcore.maintain_visited", r.maintain_visited as f64);
    layers.insert("core.state_new_us.p50", p("core.state_new", 0.5));
    layers.insert("core.state_with_anchors_us.p50", p("core.state_with_anchors", 0.5));
    layers.insert("core.followers_of_us.p50", p("core.followers_of", 0.5));
    layers.insert("core.greedy_solve_us.p50", p("core.greedy_solve", 0.5));
    layers.insert("core.best_solve_us.p50", p("core.best_solve", 0.5));
    layers.insert("core.incavt_snapshot_us.p50", p("core.incavt_snapshot", 0.5));
    crate::insert_core_counts(&mut layers, &r.metrics, r.anchors_committed);
    layers.insert("bench.trace_overhead_frac", (r.wall_s - plain.wall_s) / plain.wall_s);
    layers.insert("bench.span_coverage_frac", tr.coverage(root));
    outcome.layers = layers.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    outcome.spans = Some(tr);
    outcome
}
