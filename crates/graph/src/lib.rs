//! Dynamic undirected graph substrate for Anchored Vertex Tracking.
//!
//! This crate provides the graph substrate shared by every other crate in
//! the workspace:
//!
//! * [`GraphView`] — the read-only trait every analysis layer is generic
//!   over: counts, degrees, neighbourhood slices, membership probes, edge
//!   iteration. The representation is a swappable axis, not a hard-coded
//!   type.
//! * [`Graph`] — the *mutable* substrate: an adjacency list
//!   `Vec<Vec<VertexId>>` with unsorted neighbour vectors and `swap_remove`
//!   deletion, over a *fixed* vertex set `0..n` (the AVT paper assumes all
//!   snapshots of an evolving network share one vertex set; vertices that
//!   have not joined yet simply have degree 0). This is the layout for
//!   state that keeps *changing* — incremental K-order maintenance, batch
//!   application — where O(deg) edge deletion matters.
//! * [`CsrGraph`] — the *immutable* substrate: a compressed-sparse-row
//!   layout (contiguous `offsets`/`targets` arrays, per-vertex-sorted) for
//!   *frozen* snapshots that will only ever be scanned. Sequential
//!   neighbourhood walks — the access pattern of the bucket peel and the
//!   order-based follower queries — run over one dense array; membership
//!   probes binary-search. Evolution is functional:
//!   [`CsrGraph::apply_batch`] copies the untouched ranges in bulk and
//!   merges only the touched lists into the next frame.
//! * [`MmapCsr`] — the *zero-copy* substrate: the same CSR arrays read in
//!   place from a memory-mapped `.csrbin` file ([`io`] documents the
//!   format), so full-size frozen frames are scanned straight off the page
//!   cache without ever being rebuilt in heap memory.
//! * [`EdgeBatch`] / [`EvolvingGraph`] — the `E+`/`E-` delta model used by
//!   the paper: an evolving network is an initial snapshot plus a sequence
//!   of edge insertions and deletions. [`EvolvingGraph::frames`] walks the
//!   snapshot sequence as CSR frames, each materialized exactly once.
//! * [`source`] — the [`FrameSource`] abstraction the execution engine
//!   consumes: anything yielding `(t, Arc<frame>)` in `t`-order.
//!   [`EvolvingGraph`] is the resident source; [`MmapFrames`] replays a
//!   spilled directory of `.csrbin` frames as mapped views.
//! * [`io`] — SNAP-style whitespace edge-list parsing (plus the
//!   timestamped variant used by the temporal datasets), and the binary
//!   `.csrbin` snapshot writer.
//! * [`stats`] — the dataset statistics reported in Table 2 of the paper,
//!   computable on any substrate.
//!
//! The substrate split mirrors how the AVT algorithms actually touch
//! graphs: per-snapshot solvers (Greedy, OLAK, RCM, brute force) only read
//! a frozen `G_t` and get a CSR layout (resident or mapped); the
//! incremental IncAVT maintains one mutable graph across snapshots and
//! keeps the adjacency-list layout.

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod edge;
pub mod error;
pub mod evolving;
pub mod graph;
pub mod io;
pub mod mmap;
pub mod source;
pub mod stats;
pub mod view;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use edge::{Edge, EdgeBatch};
pub use error::GraphError;
pub use evolving::EvolvingGraph;
pub use graph::Graph;
pub use mmap::MmapCsr;
pub use source::{FrameSource, MmapFrames};
pub use stats::GraphStats;
pub use view::GraphView;

/// Vertex identifier. Vertices are dense indices `0..n`.
///
/// A `u32` halves the memory traffic of adjacency scans compared to `usize`
/// on 64-bit targets, which is where these algorithms spend nearly all of
/// their time.
pub type VertexId = u32;
