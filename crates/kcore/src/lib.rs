//! k-core decomposition, the K-order index, and incremental core
//! maintenance.
//!
//! This crate implements the structural machinery underneath the AVT paper:
//!
//! * [`CoreDecomposition`] — the linear-time bucket peel of Batagelj &
//!   Zaversnik (Algorithm 1 of the paper), optionally with *anchored*
//!   vertices that are exempt from the degree constraint (their core number
//!   is treated as infinite, [`ANCHOR_CORE`]).
//! * [`KOrder`] — Definition 5: a total order on vertices that follows the
//!   removal order of core decomposition, with O(1) `u ⪯ v` comparisons.
//! * [`MaintainedCore`] — the paper's "bounded K-order maintenance" (§5.2):
//!   a graph bundled with an always-valid K-order that is updated *locally*
//!   under edge insertions (`EdgeInsert`, Algorithm 4) and deletions
//!   (`EdgeRemove`, Algorithm 5), instead of being rebuilt per snapshot.
//!   [`MaintainedCore::apply_batch`] is its one batch entry point: a
//!   batch's insertions are screened and repaired together, on the
//!   calling thread.
//! * [`verify`] — from-scratch invariant checkers used heavily by the test
//!   suite: core-number correctness against an independent peel oracle and
//!   K-order validity via replaying the stored order as a peel.
//!
//! Each hot loop above is one plain scan over a contiguous `&[VertexId]`
//! neighbour range, written where it is used. Every substrate hands out the
//! same slices, so the same loops run on the mutable adjacency lists, on
//! resident [`avt_graph::CsrGraph`] frames and on mapped
//! [`avt_graph::MmapCsr`] frames.
//!
//! The read-only layers ([`CoreDecomposition`], [`KOrder`] construction,
//! [`mcd`], [`CoreSpectrum`], the verifiers) are generic over
//! [`avt_graph::GraphView`], so they run identically on the mutable
//! adjacency-list substrate and on frozen [`avt_graph::CsrGraph`]
//! snapshots. Only [`MaintainedCore`] is pinned to the mutable
//! [`avt_graph::Graph`] — it *edits* the graph while repairing the K-order,
//! which is exactly the work the immutable substrate refuses to do.
//!
//! # The validity invariant
//!
//! Everything in this crate preserves one invariant, stated once here and
//! relied on by the follower computation in `avt-core`:
//!
//! > Walking the K-order (levels ascending, labels ascending within a
//! > level) and deleting vertices in that sequence is a *legal* core
//! > decomposition: every vertex, at the moment of its removal, has
//! > remaining degree at most its level, and the level of every vertex
//! > equals its core number.
//!
//! Legal removal plus correct cores is exactly what makes "gains propagate
//! only forward in the order" true, which in turn is what makes Theorem 3's
//! candidate pruning and the forward-closure follower computation sound.

#![warn(missing_docs)]

pub mod decompose;
pub mod korder;
pub mod maintain;
pub mod mcd;
pub mod shell;
pub mod spectrum;
pub mod verify;

pub use decompose::{CoreDecomposition, ANCHOR_CORE};
pub use korder::KOrder;
pub use maintain::{ChangeSet, MaintainedCore};
pub use mcd::{max_core_degree, max_core_degrees};
pub use shell::{k_core_members, k_core_size, shell_members};
pub use spectrum::CoreSpectrum;
