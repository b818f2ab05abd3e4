//! Synthetic dataset generators mirroring the AVT paper's evaluation data
//! (§6.1).
//!
//! The paper evaluates on six SNAP datasets. This environment is offline,
//! so [`registry`] provides synthetic stand-ins with the same node counts,
//! edge counts and average degrees (Table 2) and degree distributions
//! appropriate to each network type. When the genuine SNAP downloads *are*
//! on disk (under `$AVT_DATA_DIR`, default `./data` — see
//! [`Dataset::load_or_generate`]), the registry loads them through
//! [`loader`] instead and every experiment runs on real data. The synthetic
//! stand-ins are built from the generic generators in this crate:
//!
//! * [`er`] — Erdős–Rényi `G(n, m)` (near-regular; the Gnutella P2P
//!   overlay).
//! * [`chunglu`] — Chung–Lu power-law graphs (the social/communication
//!   networks: email-Enron, Deezer, mathoverflow, CollegeMsg).
//! * [`ba`] — Barabási–Albert preferential attachment (used in tests and
//!   available for custom workloads).
//! * [`churn`] — the paper's synthetic evolution model: per step, remove
//!   100-250 random edges and insert 100-250 random new edges, producing 30
//!   snapshots.
//! * [`temporal`] — timestamped event streams split into `T` windows with
//!   edge expiry after an inactivity window `W` (the eu-core /
//!   mathoverflow / CollegeMsg model).
//! * [`figure1`] — a faithful reconstruction of the paper's running
//!   example (Figure 1): a 17-user reading-hobby community over two
//!   snapshots.
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]

pub mod ba;
pub mod chunglu;
pub mod churn;
pub mod er;
pub mod figure1;
pub mod loader;
pub mod registry;
pub mod temporal;

pub use churn::ChurnConfig;
pub use registry::{data_dir, Dataset, DatasetSpec, DATA_DIR_ENV};
pub use temporal::TemporalConfig;
