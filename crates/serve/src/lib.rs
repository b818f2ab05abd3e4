//! Online anchored-core query service over a live evolving graph.
//!
//! The offline crates replay a *finished* timeline; this crate answers
//! "what is the anchored k-core — and the best `b` anchors — *right
//! now*?" while edge batches keep arriving. The layers, each usable on
//! its own:
//!
//! * [`LiveTimeline`] — the writer path. Each [`avt_graph::EdgeBatch`]
//!   flows through [`avt_graph::CsrGraph::apply_batch`] (functional frame
//!   derivation, validating the batch up front) and
//!   [`avt_kcore::MaintainedCore`] (incremental K-order repair), then the
//!   new epoch is *published* as one `Arc` swap. Readers share frozen
//!   frames zero-copy and are never invalidated; for audit,
//!   [`LiveTimeline::freeze`] hands out the recorded history as an
//!   [`avt_graph::EvolvingGraph`] to replay offline or spill to `.csrbin`.
//! * [`Service`] — the query executor: a bounded worker pool dispatching
//!   [`Request`]s ([`protocol`] lists them: spectrum, core, anchored core,
//!   followers, Greedy-vs-OLAK best-`b` anchors, stats) against the
//!   current epoch, recording per-query visited/probed counters and
//!   per-opcode latency histograms into [`stats::ServiceStats`] — one
//!   store per service, which `STATS` and `METRICS` both read.
//! * [`codec`] — the wire layer, a swappable axis like `GraphView` and
//!   `FrameSource`: typed domain enums in [`protocol`], a
//!   [`codec::Codec`] trait over bytes, and two implementations — the
//!   newline text format ([`codec::TextCodec`]) and the length-prefixed
//!   pipelined binary format ([`binary::BinaryCodec`], spec in
//!   [`binary`]'s module docs).
//!   A connection's first byte picks its codec ([`conn::Conn`]).
//! * The front: [`event_loop::EventFront`] — a readiness-driven
//!   nonblocking `epoll` loop, one thread for every socket,
//!   connection-count-independent memory. It serves on Linux only; every
//!   layer above builds and runs in-process on any platform.
//!
//! The `avt-serve` binary wires all of it over a churned dataset;
//! `avt-bench`'s `loadgen` binary is the matching traffic generator
//! (closed-loop and open-loop). The whole crate is std-only, like the
//! rest of the workspace.
//!
//! # In-process quickstart
//!
//! ```
//! use std::sync::Arc;
//! use avt_graph::{EdgeBatch, Graph};
//! use avt_serve::{LiveTimeline, Request, Response, Service};
//!
//! let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1)]).unwrap();
//! let timeline = Arc::new(LiveTimeline::new(g));
//! let service = Service::start(Arc::clone(&timeline), Default::default());
//!
//! // Queries and writes interleave; every answer names its epoch.
//! timeline.apply_batch(EdgeBatch::from_pairs([(4, 0)], [])).unwrap();
//! match service.query(Request::Core(3)).unwrap() {
//!     Response::Core { t, core, .. } => {
//!         assert_eq!(t, 2);
//!         assert_eq!(core, 2);
//!     }
//!     other => panic!("unexpected reply {other:?}"),
//! }
//! assert_eq!(service.shutdown().worker_panics, 0);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod binary;
pub mod codec;
pub mod conn;
pub mod event_loop;
pub mod executor;
pub mod obs;
pub mod protocol;
pub mod stats;
pub mod timeline;

pub use admission::{Admission, IngestEvent, IngestReceipt};
pub use avt_obs::set_slow_threshold_us;
pub use binary::BinaryCodec;
pub use codec::{Codec, TextCodec, WireRequest, WireVerb};
pub use conn::Conn;
pub use event_loop::EventFront;
pub use executor::{execute, QueryCallback, Service, ServiceConfig, ShutdownReport, SubmitError};
pub use protocol::{BestAlgo, OpClass, OpLatency, Request, Response, TraceEntry, WriterStats};
pub use stats::ServiceStats;
pub use timeline::{EpochFrame, EpochReport, LiveTimeline};

#[cfg(target_os = "linux")]
pub use event_loop::{PollEvent, Poller};
