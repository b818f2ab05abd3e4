//! The six evaluation datasets of Table 2, as synthetic stand-ins.
//!
//! | Dataset      | Nodes  | (Temporal) Edges | davg  | Days  | Type |
//! |--------------|--------|------------------|-------|-------|------|
//! | email-Enron  | 36,692 | 183,831          | 10.02 | —     | Communication |
//! | Gnutella     | 62,586 | 147,878          | 4.73  | —     | P2P Network |
//! | Deezer       | 41,773 | 125,826          | 6.02  | —     | Social Network |
//! | eu-core      | 986    | 332,334          | 25.28 | 803   | Email |
//! | mathoverflow | 13,840 | 195,330          | 5.86  | 2,350 | Question&Answer |
//! | CollegeMsg   | 1,899  | 59,835           | 10.69 | 193   | Social Network |
//!
//! The three static datasets receive the paper's churn model (30 snapshots,
//! 100-250 edges in/out per step); the three temporal ones are generated as
//! event streams over their recorded day spans with window expiry
//! (W = 365 days for mathoverflow, per the paper; proportional windows for
//! the others). `generate(scale, seed)` shrinks node/edge/churn volumes
//! uniformly so the full experiment suite can run at laptop scale; the
//! shape-level comparisons are scale-invariant.

use std::path::{Path, PathBuf};

use avt_graph::{EvolvingGraph, GraphError};

use crate::chunglu::chung_lu;
use crate::churn::{evolve, ChurnConfig};
use crate::er::gnm;
use crate::loader;
use crate::temporal::{generate as temporal_generate, TemporalConfig};

/// Environment variable naming the directory probed for genuine SNAP
/// downloads (see [`data_dir`]).
pub const DATA_DIR_ENV: &str = "AVT_DATA_DIR";

/// The directory probed for real SNAP edge-list files: `$AVT_DATA_DIR`
/// when set, `./data` otherwise.
pub fn data_dir() -> PathBuf {
    std::env::var_os(DATA_DIR_ENV).map(PathBuf::from).unwrap_or_else(|| PathBuf::from("data"))
}

/// The six datasets of the paper's §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// email-Enron: 36,692 nodes communication network.
    EmailEnron,
    /// Gnutella P2P overlay: 62,586 nodes.
    Gnutella,
    /// Deezer social network: 41,773 nodes.
    Deezer,
    /// eu-core email (temporal): 986 nodes over 803 days.
    EuCore,
    /// mathoverflow Q&A (temporal): 13,840 nodes over 2,350 days.
    MathOverflow,
    /// CollegeMsg messages (temporal): 1,899 nodes over 193 days.
    CollegeMsg,
}

/// Static metadata for a dataset (the Table 2 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Display name as in the paper.
    pub name: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Edge count (distinct temporal events for the temporal datasets).
    pub edges: usize,
    /// Average degree reported in Table 2.
    pub avg_degree: f64,
    /// Observation span in days (temporal datasets only).
    pub days: Option<u64>,
    /// Network type label from Table 2.
    pub kind: &'static str,
}

impl Dataset {
    /// All six datasets in the paper's Table 2 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::EmailEnron,
        Dataset::Gnutella,
        Dataset::Deezer,
        Dataset::EuCore,
        Dataset::MathOverflow,
        Dataset::CollegeMsg,
    ];

    /// The Table 2 row for this dataset.
    pub const fn spec(self) -> DatasetSpec {
        match self {
            Dataset::EmailEnron => DatasetSpec {
                name: "email-Enron",
                nodes: 36_692,
                edges: 183_831,
                avg_degree: 10.02,
                days: None,
                kind: "Communication",
            },
            Dataset::Gnutella => DatasetSpec {
                name: "Gnutella",
                nodes: 62_586,
                edges: 147_878,
                avg_degree: 4.73,
                days: None,
                kind: "P2P Network",
            },
            Dataset::Deezer => DatasetSpec {
                name: "Deezer",
                nodes: 41_773,
                edges: 125_826,
                avg_degree: 6.02,
                days: None,
                kind: "Social Network",
            },
            Dataset::EuCore => DatasetSpec {
                name: "eu-core",
                nodes: 986,
                edges: 332_334,
                avg_degree: 25.28,
                days: Some(803),
                kind: "Email",
            },
            Dataset::MathOverflow => DatasetSpec {
                name: "mathoverflow",
                nodes: 13_840,
                edges: 195_330,
                avg_degree: 5.86,
                days: Some(2_350),
                kind: "Question&Answer",
            },
            Dataset::CollegeMsg => DatasetSpec {
                name: "CollegeMsg",
                nodes: 1_899,
                edges: 59_835,
                avg_degree: 10.69,
                days: Some(193),
                kind: "Social Network",
            },
        }
    }

    /// True for the three datasets the paper synthesizes churn for.
    pub const fn is_static(self) -> bool {
        self.spec().days.is_none()
    }

    /// The k values swept in Figure 3 for this dataset (higher-degree
    /// networks get the larger sweep).
    pub fn k_sweep(self) -> &'static [u32] {
        match self {
            Dataset::EmailEnron | Dataset::CollegeMsg => &[5, 10, 15, 20],
            Dataset::Gnutella => &[2, 3, 4],
            Dataset::Deezer | Dataset::EuCore | Dataset::MathOverflow => &[2, 3, 4, 5],
        }
    }

    /// Default k (Table 3: "3 or 10" depending on the sweep family).
    pub fn default_k(self) -> u32 {
        match self {
            Dataset::EmailEnron | Dataset::CollegeMsg => 10,
            _ => 3,
        }
    }

    /// Filenames under which the genuine SNAP download of this dataset is
    /// recognised in the data directory, probed in order (the variants are
    /// the names SNAP actually ships).
    pub const fn snap_filenames(self) -> &'static [&'static str] {
        match self {
            Dataset::EmailEnron => &["email-Enron.txt", "Email-Enron.txt"],
            Dataset::Gnutella => &[
                "p2p-Gnutella31.txt",
                "p2p-Gnutella08.txt",
                "p2p-Gnutella04.txt",
                "p2p-Gnutella.txt",
            ],
            Dataset::Deezer => &["deezer_europe_edges.txt", "deezer_edges.txt"],
            Dataset::EuCore => &["email-Eu-core-temporal.txt"],
            Dataset::MathOverflow => &["sx-mathoverflow.txt"],
            Dataset::CollegeMsg => &["CollegeMsg.txt"],
        }
    }

    /// Edge-expiry window for the temporal datasets, in days (§6.1: the
    /// paper states W = 365 for mathoverflow; a third of the observation
    /// span keeps edges alive across a few snapshots for the others, the
    /// same policy [`Self::generate`] applies to the synthetic streams).
    fn expiry_window_days(self) -> u64 {
        match self {
            Dataset::MathOverflow => 365,
            _ => (self.spec().days.unwrap_or(3) / 3).max(1),
        }
    }

    /// Try to load the *real* dataset from `dir`, returning `Ok(None)` when
    /// no known file is present. Static edge lists get the paper's churn
    /// model applied on top (deterministic in `seed`); temporal streams
    /// (`u v timestamp` lines, POSIX seconds as SNAP ships them) are split
    /// into `snapshots` windows, each edge expiring after the dataset's
    /// window (365 days for mathoverflow, a third of the observation span
    /// for the others).
    pub fn load_from_dir(
        self,
        dir: &Path,
        snapshots: usize,
        seed: u64,
    ) -> Result<Option<EvolvingGraph>, GraphError> {
        for name in self.snap_filenames() {
            let path = dir.join(name);
            if !path.is_file() {
                continue;
            }
            let eg = if self.is_static() {
                let config = ChurnConfig { snapshots, ..ChurnConfig::default() };
                loader::load_static(&path, config, seed)?
            } else {
                loader::load_temporal(&path, self.expiry_window_days() * 86_400, snapshots)?
            };
            return Ok(Some(eg));
        }
        Ok(None)
    }

    /// The genuine SNAP data when a known file is present under
    /// [`data_dir`], the synthetic stand-in otherwise. `scale` only applies
    /// to the synthetic fallback — real data is used at full size. A file
    /// that exists but fails to parse is reported on stderr and falls back
    /// to synthetic rather than aborting an experiment sweep.
    pub fn load_or_generate(self, scale: f64, snapshots: usize, seed: u64) -> EvolvingGraph {
        match self.load_from_dir(&data_dir(), snapshots, seed) {
            Ok(Some(eg)) => return eg,
            Ok(None) => {}
            Err(e) => {
                eprintln!(
                    "warning: real {} data present but unusable ({e}); using synthetic stand-in",
                    self.spec().name
                );
            }
        }
        self.generate(scale, snapshots, seed)
    }

    /// Generate the evolving synthetic stand-in at `scale` ∈ (0, 1] of the
    /// paper's size, with `t` snapshots (paper default 30). Deterministic
    /// in `seed`. Consumers that analyse every snapshot should walk
    /// [`EvolvingGraph::frames`] (immutable CSR frames, materialized once
    /// each) rather than calling `snapshot(t)` per step.
    pub fn generate(self, scale: f64, snapshots: usize, seed: u64) -> EvolvingGraph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let spec = self.spec();
        let n = ((spec.nodes as f64 * scale).round() as usize).max(32);

        if self.is_static() {
            let m = ((spec.edges as f64 * scale).round() as usize).max(64);
            let base = match self {
                // Gnutella's overlay is near-regular; the social /
                // communication graphs are hub-heavy.
                Dataset::Gnutella => gnm(n, m, seed),
                _ => chung_lu(n, m, 2.4, seed),
            };
            let config = ChurnConfig { snapshots, ..ChurnConfig::default().scaled(scale) };
            evolve(base, config, seed.wrapping_add(1))
        } else {
            let days = spec.days.expect("temporal dataset has a day span");
            // Temporal networks keep a long low-degree tail around their
            // dense core; too few vertices relative to the target density
            // and the stand-in degenerates into a uniform blob with no
            // (k-1)-shell to anchor into. Keep n at least 8x the average
            // degree so a periphery can exist.
            let n = n.max(128).max((8.0 * spec.avg_degree).round() as usize);
            // mathoverflow's expiry window is stated in the paper; for the
            // others a third of the span keeps edges alive across a few
            // snapshots like the originals.
            let window = match self {
                Dataset::MathOverflow => 365,
                _ => (days / 3).max(1),
            };
            // Calibrate the stream so the *live* snapshot density matches
            // Table 2's average degree. With ~3 events per distinct pair
            // at uniform times, a pair is alive in a window with
            // probability 1 - (1 - W/H)^3.
            let target_live = spec.avg_degree * n as f64 / 2.0;
            let wh = (window as f64 / days as f64).min(1.0);
            let alive_fraction = 1.0 - (1.0 - wh).powi(3);
            let distinct = (target_live / alive_fraction).max(32.0);
            let events = (3.0 * distinct).round() as usize;
            let config = TemporalConfig {
                n,
                events,
                horizon: days,
                window,
                snapshots,
                repeat_probability: 2.0 / 3.0,
                ..TemporalConfig::default()
            };
            temporal_generate(config, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_graph::GraphStats;

    #[test]
    fn specs_match_table2() {
        assert_eq!(Dataset::EmailEnron.spec().nodes, 36_692);
        assert_eq!(Dataset::Gnutella.spec().edges, 147_878);
        assert_eq!(Dataset::EuCore.spec().days, Some(803));
        assert_eq!(Dataset::MathOverflow.spec().days, Some(2_350));
        assert!(Dataset::Deezer.is_static());
        assert!(!Dataset::CollegeMsg.is_static());
    }

    #[test]
    fn k_sweeps_match_figure3() {
        assert_eq!(Dataset::EmailEnron.k_sweep(), &[5, 10, 15, 20]);
        assert_eq!(Dataset::Gnutella.k_sweep(), &[2, 3, 4]);
        assert_eq!(Dataset::Deezer.k_sweep(), &[2, 3, 4, 5]);
        assert_eq!(Dataset::EmailEnron.default_k(), 10);
        assert_eq!(Dataset::EuCore.default_k(), 3);
    }

    #[test]
    fn static_generation_scales() {
        let eg = Dataset::EmailEnron.generate(0.01, 5, 1);
        assert_eq!(eg.num_snapshots(), 5);
        let stats = GraphStats::compute(eg.initial());
        // 1% of 36,692 nodes / 183,831 edges.
        assert!((300..=500).contains(&stats.nodes), "nodes = {}", stats.nodes);
        assert!((1500..=2200).contains(&stats.edges), "edges = {}", stats.edges);
        eg.validate().unwrap();
    }

    #[test]
    fn temporal_generation_scales() {
        let eg = Dataset::EuCore.generate(0.05, 6, 2);
        assert_eq!(eg.num_snapshots(), 6);
        eg.validate().unwrap();
        // eu-core is dense: at 5% scale there should still be real churn.
        assert!(eg.total_churn() > 0);
    }

    #[test]
    fn all_datasets_generate_small() {
        for ds in Dataset::ALL {
            let eg = ds.generate(0.005, 3, 3);
            assert_eq!(eg.num_snapshots(), 3, "{}", ds.spec().name);
            eg.validate().unwrap();
        }
    }

    #[test]
    fn frames_pipeline_matches_replay_on_generated_data() {
        // One static-churn and one temporal dataset: the incremental CSR
        // frame walk must reproduce exactly what batch replay builds.
        for ds in [Dataset::Deezer, Dataset::CollegeMsg] {
            let eg = ds.generate(0.005, 4, 5);
            for (t, frame) in eg.frames() {
                let replayed = eg.snapshot(t).unwrap();
                assert!(
                    frame.to_graph().is_isomorphic_identity(&replayed),
                    "{} diverged at t={t}",
                    ds.spec().name
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Dataset::Deezer.generate(0.005, 3, 9);
        let b = Dataset::Deezer.generate(0.005, 3, 9);
        assert!(a.initial().is_isomorphic_identity(b.initial()));
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_oversized_scale() {
        let _ = Dataset::Deezer.generate(2.0, 3, 0);
    }

    #[test]
    fn every_dataset_names_real_files() {
        for ds in Dataset::ALL {
            assert!(!ds.snap_filenames().is_empty(), "{}", ds.spec().name);
        }
        assert_eq!(Dataset::MathOverflow.expiry_window_days(), 365);
        assert_eq!(Dataset::EuCore.expiry_window_days(), 803 / 3);
    }

    #[test]
    fn load_from_dir_finds_static_and_temporal_files() {
        use std::io::Write;
        let dir = std::env::temp_dir().join("avt_registry_load_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A tiny static Enron stand-in: churn is applied on top.
        let mut f = std::fs::File::create(dir.join("email-Enron.txt")).unwrap();
        f.write_all(b"# comment\n0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n4 0\n4 1\n5 2\n5 3\n").unwrap();
        let eg = Dataset::EmailEnron.load_from_dir(&dir, 3, 7).unwrap().expect("file present");
        assert_eq!(eg.num_snapshots(), 3);
        eg.validate().unwrap();

        // A tiny temporal CollegeMsg stream: window split + expiry.
        let mut f = std::fs::File::create(dir.join("CollegeMsg.txt")).unwrap();
        f.write_all(b"10 20 1000\n10 20 2000\n20 30 1500\n30 40 1200\n").unwrap();
        let eg = Dataset::CollegeMsg.load_from_dir(&dir, 2, 0).unwrap().expect("file present");
        assert_eq!(eg.num_snapshots(), 2);
        eg.validate().unwrap();

        // Deterministic in seed for the churned static path.
        let a = Dataset::EmailEnron.load_from_dir(&dir, 3, 9).unwrap().unwrap();
        let b = Dataset::EmailEnron.load_from_dir(&dir, 3, 9).unwrap().unwrap();
        assert!(a.validate().unwrap().is_isomorphic_identity(&b.validate().unwrap()));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_from_dir_without_files_is_none() {
        let dir = std::env::temp_dir().join("avt_registry_empty_test");
        std::fs::create_dir_all(&dir).unwrap();
        for ds in Dataset::ALL {
            assert!(ds.load_from_dir(&dir, 3, 0).unwrap().is_none(), "{}", ds.spec().name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_or_generate_falls_back_to_synthetic() {
        // Only meaningful when no real data is installed; skip otherwise so
        // a developer with downloads under $AVT_DATA_DIR stays green.
        if data_dir().is_dir() {
            return;
        }
        let real_or_synth = Dataset::Deezer.load_or_generate(0.005, 3, 9);
        let synth = Dataset::Deezer.generate(0.005, 3, 9);
        assert!(real_or_synth.initial().is_isomorphic_identity(synth.initial()));
    }
}
