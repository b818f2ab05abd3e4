//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! The harness is a library so that both the `run_experiments` binary and
//! the criterion benches drive the same code. Each experiment produces a
//! [`report::Table`] whose rows mirror the series the paper plots:
//!
//! | Experiment | Paper artifact | Series |
//! |------------|----------------|--------|
//! | [`experiments::table2`]  | Table 2  | dataset statistics |
//! | [`experiments::fig3_4`]  | Fig. 3+4 | time & visited vertices vs `k` |
//! | [`experiments::fig5_6`]  | Fig. 5+6 | time & visited vertices vs `T` |
//! | [`experiments::fig7_8`]  | Fig. 7+8 | time & visited vertices vs `l` |
//! | [`experiments::fig9`]    | Fig. 9   | followers vs `T` |
//! | [`experiments::fig10`]   | Fig. 10  | followers vs `l` |
//! | [`experiments::fig11`]   | Fig. 11  | followers vs `k` |
//! | [`experiments::fig12`]   | Fig. 12  | heuristics vs brute force |
//! | [`experiments::table4`]  | Table 4  | anchors + followers detail |
//!
//! Every tracking run goes through an [`Instance`] — the evolving stream
//! plus, when the mmap frame source is selected (`--frame-source mmap` /
//! `AVT_FRAME_SOURCE=mmap`), its spilled `.csrbin` frame cache — so the
//! whole suite can run either on resident frames or on zero-copy mapped
//! frames with bit-identical effectiveness and counter tables.
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! stand-in data, Rust instead of C++); the *shapes* — which algorithm
//! wins, by roughly what factor, and how series move with each parameter —
//! are the reproduction target. The README's *Benchmarks and experiments*
//! section shows how to regenerate every table, and `tests/golden/quick/`
//! pins the time-free ones at smoke scale.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

use avt_core::{
    AvtAlgorithm, AvtParams, AvtResult, BruteForce, Engine, Greedy, IncAvt, Olak, Rcm,
    SnapshotSolver,
};
use avt_datasets::loader::cached_frame_source;
use avt_datasets::Dataset;
use avt_graph::{EvolvingGraph, GraphError, MmapFrames};
use avt_kcore::CoreSpectrum;

/// Which [`avt_graph::FrameSource`] tracking runs replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameMode {
    /// Resident frames: [`EvolvingGraph::frames_arc`], each CSR frame
    /// derived from its predecessor in memory.
    Resident,
    /// Mapped frames: spill the stream once into `$AVT_DATA_DIR/cache/`
    /// and replay it as zero-copy [`MmapFrames`].
    Mmap,
}

impl FrameMode {
    /// Parse a frame-source name as accepted by `AVT_FRAME_SOURCE` /
    /// `--frame-source`, ignoring surrounding whitespace like the numeric
    /// axes do.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "resident" => Some(FrameMode::Resident),
            "mmap" => Some(FrameMode::Mmap),
            _ => None,
        }
    }

    /// The process default: `AVT_FRAME_SOURCE=mmap` selects the mapped
    /// source, anything else (or unset) is resident. An unrecognized value
    /// warns once rather than silently running a different configuration
    /// than the caller asked for.
    pub fn from_env() -> Self {
        match std::env::var("AVT_FRAME_SOURCE") {
            Ok(value) => FrameMode::parse(&value).unwrap_or_else(|| {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: AVT_FRAME_SOURCE={value:?} is neither \"resident\" nor \
                         \"mmap\"; using resident frames"
                    );
                });
                FrameMode::Resident
            }),
            Err(_) => FrameMode::Resident,
        }
    }
}

impl std::fmt::Display for FrameMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FrameMode::Resident => "resident",
            FrameMode::Mmap => "mmap",
        })
    }
}

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    /// Dataset scale factor in (0, 1]; 1.0 is the paper's full size.
    pub scale: f64,
    /// Snapshot count `T` (paper default 30).
    pub snapshots: usize,
    /// Anchor budget default `l` (paper default 10).
    pub l: usize,
    /// RNG seed for dataset generation.
    pub seed: u64,
    /// Frame source for engine-backed tracking runs (effectiveness and
    /// counter tables are bit-identical either way; only memory residency
    /// and wall time move).
    pub frame_source: FrameMode,
}

impl Default for Context {
    /// Laptop-scale defaults: 2% of the paper's dataset sizes, the paper's
    /// T = 30 and l = 10, frame source from `AVT_FRAME_SOURCE`.
    fn default() -> Self {
        Context { scale: 0.02, snapshots: 30, l: 10, seed: 42, frame_source: FrameMode::from_env() }
    }
}

impl Context {
    /// A tiny configuration for smoke tests and criterion benches.
    pub fn tiny() -> Self {
        Context { scale: 0.005, snapshots: 6, l: 4, seed: 42, ..Context::default() }
    }
}

/// An evolving stream prepared for tracking: the resident graph (always
/// present — IncAVT's incremental maintenance and `k` calibration need it)
/// plus the mmap-backed frame source when [`FrameMode::Mmap`] is selected.
#[derive(Debug)]
pub struct Instance {
    /// The evolving stream itself.
    pub evolving: EvolvingGraph,
    /// The spilled zero-copy frame source ([`FrameMode::Mmap`] only).
    pub mmap: Option<MmapFrames>,
}

impl Instance {
    /// A resident-only instance (no spill, no cache probe).
    pub fn resident(evolving: EvolvingGraph) -> Instance {
        Instance { evolving, mmap: None }
    }

    /// Prepare `evolving` under `mode`, spilling to (or replaying from)
    /// the `$AVT_DATA_DIR/cache/` frame cache keyed by `key_hint` plus the
    /// stream fingerprint. A failed spill warns and falls back to resident
    /// frames — results are identical either way, so an experiment sweep
    /// should degrade rather than abort.
    pub fn prepare(mode: FrameMode, evolving: EvolvingGraph, key_hint: &str) -> Instance {
        let mmap = match mode {
            FrameMode::Resident => None,
            FrameMode::Mmap => match cached_frame_source(&evolving, key_hint) {
                Ok(frames) => Some(frames),
                Err(e) => {
                    eprintln!("warning: mmap frame cache for {key_hint} unusable ({e}); using resident frames");
                    None
                }
            },
        };
        Instance { evolving, mmap }
    }
}

/// An algorithm bound to the harness: tracks an [`Instance`] whichever
/// frame source it carries. Object-safe (unlike [`SnapshotSolver`], whose
/// substrate-generic method cannot be boxed), so experiment sweeps can
/// iterate a `Vec<Box<dyn Tracker>>` roster.
///
/// [`Tracker::track_into`] is the primitive: reports stream into the sink
/// in `t`-order as they are produced (the engine's
/// [`avt_core::ReportSink`] contract), so prefix consumers — the Figure
/// 5/6/9 cumulative series — fold in O(1) memory. [`Tracker::track`] is
/// the collecting convenience on top.
pub trait Tracker {
    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Track all snapshots of `instance`, streaming each
    /// [`avt_core::SnapshotReport`] into `sink` in `t`-order.
    fn track_into(
        &self,
        instance: &Instance,
        params: AvtParams,
        sink: &mut dyn FnMut(avt_core::SnapshotReport),
    ) -> Result<(), GraphError>;

    /// Track all snapshots of `instance`, collecting into an
    /// [`AvtResult`].
    fn track(&self, instance: &Instance, params: AvtParams) -> Result<AvtResult, GraphError> {
        let mut result = AvtResult::default();
        self.track_into(instance, params, &mut |report| result.push_report(report))?;
        Ok(result)
    }
}

/// [`Tracker`] for any engine client: per-snapshot solvers run over the
/// instance's mmap frames when present, its resident frames otherwise —
/// the engine is generic over the frame source, so both paths share every
/// line of solver code.
struct PerSnapshot<S>(S);

impl<S: SnapshotSolver + AvtAlgorithm> Tracker for PerSnapshot<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn track_into(
        &self,
        instance: &Instance,
        params: AvtParams,
        sink: &mut dyn FnMut(avt_core::SnapshotReport),
    ) -> Result<(), GraphError> {
        // Re-wrap the unsized sink: `run_into` is generic over a sized
        // `ReportSink`, and any `FnMut(SnapshotReport)` is one.
        match &instance.mmap {
            Some(frames) => Engine::default().run_into(&self.0, frames, params, &mut |r| sink(r)),
            None => {
                Engine::default().run_into(&self.0, &instance.evolving, params, &mut |r| sink(r))
            }
        }
    }
}

/// [`Tracker`] for IncAVT, which is deliberately not an engine client: it
/// carries K-order state across snapshots, so it always walks the resident
/// evolving graph whatever the frame mode (its rows are therefore
/// trivially identical between modes) — but it streams its reports all the
/// same ([`IncAvt::track_into`]).
struct Incremental(IncAvt);

impl Tracker for Incremental {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn track_into(
        &self,
        instance: &Instance,
        params: AvtParams,
        sink: &mut dyn FnMut(avt_core::SnapshotReport),
    ) -> Result<(), GraphError> {
        self.0.track_into(&instance.evolving, params, &mut |r| sink(r))
    }
}

/// Wrap a per-snapshot solver as a [`Tracker`] (used for the brute-force
/// reference, which is not part of the standard roster).
pub fn engine_tracker<S: SnapshotSolver + AvtAlgorithm + 'static>(solver: S) -> Box<dyn Tracker> {
    Box::new(PerSnapshot(solver))
}

/// The four tracking algorithms the paper compares, in its plotting order.
pub fn algorithms() -> Vec<Box<dyn Tracker>> {
    vec![
        Box::new(PerSnapshot(Olak)),
        Box::new(PerSnapshot(Greedy::default())),
        Box::new(Incremental(IncAvt)),
        Box::new(PerSnapshot(Rcm::default())),
    ]
}

/// The brute-force reference used in the case study (Figure 12 / Table 4),
/// capped so the enumeration stays tractable at harness scale.
pub fn brute_force_reference() -> BruteForce {
    BruteForce { pool_cap: Some(60) }
}

/// The six datasets in Table 2 order.
pub fn datasets() -> [Dataset; 6] {
    Dataset::ALL
}

/// The instance an experiment runs on: the genuine SNAP data when present
/// under [`avt_datasets::data_dir`], the deterministic synthetic stand-in
/// otherwise (scaled by `ctx.scale`) — prepared for `ctx.frame_source`.
pub fn dataset_instance(ctx: &Context, ds: Dataset) -> Instance {
    let evolving = ds.load_or_generate(ctx.scale, ctx.snapshots, ctx.seed);
    instance(ctx, evolving, ds.spec().name)
}

/// Prepare an already-built stream under `ctx.frame_source` (see
/// [`Instance::prepare`]).
pub fn instance(ctx: &Context, evolving: EvolvingGraph, key_hint: &str) -> Instance {
    Instance::prepare(ctx.frame_source, evolving, key_hint)
}

/// Snap a paper k-value into the scaled stand-in's core spectrum.
///
/// The paper's k values (Table 3) were chosen for the full-size datasets;
/// a scaled-down graph has a shallower core hierarchy, so a literal k can
/// land above the maximum core (empty k-core, empty shell, zero-follower
/// experiments). A k is *usable* when the k-core is nonempty and the
/// (k-1)-shell is populated — otherwise no anchor can have any follower.
/// This returns the nearest usable k, preferring smaller values (the
/// direction scaling shrinks the spectrum).
pub fn calibrate_k(evolving: &EvolvingGraph, paper_k: u32) -> u32 {
    let spectrum = final_spectrum(evolving);
    spectrum
        .nearest_anchorable_k(paper_k)
        .unwrap_or_else(|| paper_k.min(spectrum.degeneracy()).max(2))
}

/// The k with the largest (k-1)-shell at steady state — used by the case
/// study (Figure 12 / Table 4), where the point is to watch anchoring do
/// something rather than to hit a literal k.
pub fn most_anchorable_k(evolving: &EvolvingGraph) -> u32 {
    final_spectrum(evolving).most_anchorable_k().unwrap_or(2)
}

fn final_spectrum(evolving: &EvolvingGraph) -> CoreSpectrum {
    // One-shot access to the final snapshot: `snapshot(T)` replays once in
    // O(m + churn), cheaper than materializing every intermediate frame.
    let last = evolving.snapshot(evolving.num_snapshots()).expect("final snapshot exists");
    CoreSpectrum::of(&last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_matches_paper_defaults() {
        let c = Context::default();
        assert_eq!(c.snapshots, 30);
        assert_eq!(c.l, 10);
    }

    #[test]
    fn frame_mode_parse_and_display_round_trip() {
        assert_eq!(FrameMode::parse("resident"), Some(FrameMode::Resident));
        assert_eq!(FrameMode::parse("mmap"), Some(FrameMode::Mmap));
        assert_eq!(FrameMode::parse("csr"), None);
        assert_eq!(FrameMode::parse("mmap "), Some(FrameMode::Mmap));
        assert_eq!(FrameMode::parse(" resident\n"), Some(FrameMode::Resident));
        assert_eq!(FrameMode::parse(" "), None);
        for mode in [FrameMode::Resident, FrameMode::Mmap] {
            assert_eq!(FrameMode::parse(&mode.to_string()), Some(mode));
        }
    }

    #[test]
    fn algorithm_roster_matches_paper() {
        let names: Vec<_> = algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["OLAK", "Greedy", "IncAVT", "RCM"]);
    }

    #[test]
    fn tracker_streaming_matches_collected() {
        // The Figure 5/6/9 folds consume track_into directly; its stream
        // must be the collected result, in t-order, for every tracker
        // (including the non-engine IncAVT).
        let eg = Dataset::CollegeMsg.generate(0.02, 4, 5);
        let inst = Instance::resident(eg);
        let params = AvtParams::new(most_anchorable_k(&inst.evolving), 2);
        for algo in algorithms() {
            let collected = algo.track(&inst, params).unwrap();
            let mut ts = Vec::new();
            let mut followers = Vec::new();
            algo.track_into(&inst, params, &mut |r| {
                ts.push(r.t);
                followers.push(r.followers.len());
            })
            .unwrap();
            assert_eq!(ts, (1..=4).collect::<Vec<_>>(), "{}", algo.name());
            assert_eq!(followers, collected.follower_counts, "{}", algo.name());
        }
    }

    #[test]
    fn mmap_instance_tracks_identically_to_resident() {
        // The whole point of the frame-source axis: every tracker row is
        // bit-identical between a resident and an mmap-prepared instance
        // (wall time excluded).
        let eg = Dataset::CollegeMsg.generate(0.02, 4, 5);
        let resident = Instance::resident(eg.clone());

        // Prepare the mmap instance against an explicit temp cache so the
        // test does not touch (or depend on) $AVT_DATA_DIR.
        let root = std::env::temp_dir().join(format!("avt_bench_cache_{}", std::process::id()));
        let frames = avt_datasets::loader::cached_frames_in(&root, "collegemsg-test", &eg)
            .expect("spill succeeds");
        let mapped = Instance { evolving: eg, mmap: Some(frames) };

        let params = AvtParams::new(most_anchorable_k(&resident.evolving), 2);
        for algo in algorithms() {
            let a = algo.track(&resident, params).unwrap();
            let b = algo.track(&mapped, params).unwrap();
            assert_eq!(a.anchor_sets, b.anchor_sets, "{}", algo.name());
            assert_eq!(a.follower_counts, b.follower_counts, "{}", algo.name());
            assert_eq!(a.total_metrics(), b.total_metrics(), "{}", algo.name());
        }
        let brute = engine_tracker(brute_force_reference());
        let a = brute.track(&resident, params).unwrap();
        let b = brute.track(&mapped, params).unwrap();
        assert_eq!(a.anchor_sets, b.anchor_sets);

        let _ = std::fs::remove_dir_all(root);
    }
}
