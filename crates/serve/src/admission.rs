//! Out-of-order write admission: a watermark buffer in front of the
//! timeline.
//!
//! External writers (`INGEST`) stamp their edge events with a logical
//! timestamp. Events are *staged* in a by-timestamp window rather than
//! applied on arrival; the **watermark** is the highest timestamp seen,
//! and a staged bucket publishes as one epoch when the watermark moves
//! past it by more than the **lag window** — i.e. once no in-window
//! straggler can still join it. The discipline (after Godview's
//! augmented-state filter for out-of-sequence measurements):
//!
//! * events **at or past** the watermark are accepted and advance it;
//! * events **behind** the watermark but inside the lag window are
//!   *folded* into their timestamp's staged bucket — reconciled against
//!   recent history instead of forcing a rewind;
//! * events **older than the window** are counted and rejected — the
//!   published history is never rewound.
//!
//! Publication runs each bucket through a sanitizer that resolves the
//! events to their *net effect* against the current frame (duplicate
//! inserts, deletes of absent edges, self-loops and out-of-range ids are
//! dropped and counted; insert-then-delete cancels). What actually
//! published is what [`LiveTimeline`] records in its history, so offline
//! replay of an ingested timeline is deterministic by construction — any
//! arrival permutation inside the lag window converges to the same
//! published epochs, which `tests/prop_writer.rs` pins.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use avt_graph::{EdgeBatch, GraphError, VertexId};
use avt_obs::{Counter, Histogram, Registry, Span, Stage};

use crate::protocol::WriterStats;
use crate::timeline::LiveTimeline;

/// One edge event inside an `INGEST` request: an insertion or deletion
/// of `(u, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestEvent {
    /// True to insert the edge, false to delete it.
    pub insert: bool,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

/// The admission verdict for one `INGEST` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReceipt {
    /// Epochs published as of this call returning.
    pub t: u64,
    /// Events staged in order (timestamp at or past the watermark).
    pub accepted: u64,
    /// Straggler events folded into the staged window.
    pub folded: u64,
    /// Events rejected as older than the lag window.
    pub rejected: u64,
    /// The watermark after this call.
    pub watermark: u64,
}

/// Mutable admission state, serialized by one mutex: staging and
/// publication must observe a consistent (watermark, window) pair, and
/// publication is serialized by the timeline's writer lock anyway.
#[derive(Debug)]
struct Inner {
    /// Highest event timestamp seen.
    watermark: u64,
    /// Staged events keyed by timestamp; the key order is the publish
    /// order.
    staged: BTreeMap<u64, Vec<IngestEvent>>,
}

/// The watermark buffer in front of a [`LiveTimeline`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use avt_graph::Graph;
/// use avt_serve::{Admission, IngestEvent, LiveTimeline};
///
/// let tl = Arc::new(LiveTimeline::new(Graph::new(4)));
/// let adm = Admission::new(Arc::clone(&tl), 2);
/// let ins = |u, v| IngestEvent { insert: true, u, v };
/// // ts=4 pushes ts=1 out of the 2-tick lag window, publishing it; a
/// // late ts=3 is still inside the window and folds instead.
/// adm.ingest(1, &[ins(1, 2)]).unwrap();
/// adm.ingest(4, &[ins(0, 1)]).unwrap();
/// assert_eq!(tl.epochs_published(), 2); // the initial epoch + ts=1
/// let r = adm.ingest(3, &[ins(2, 3)]).unwrap();
/// assert_eq!(r.folded, 1);
/// adm.flush().unwrap(); // drain ts=3 and ts=4
/// assert_eq!(tl.epochs_published(), 4);
/// assert!(tl.current().frame.has_edge(0, 1));
/// ```
#[derive(Debug)]
pub struct Admission {
    timeline: Arc<LiveTimeline>,
    /// The lag window: a bucket with timestamp `ts` publishes once
    /// `watermark - ts > lag`, and events with `watermark - ts > lag`
    /// are rejected as stale.
    lag: u64,
    inner: Mutex<Inner>,
    /// The writer's counters and latencies, behind both `STATS` and
    /// `METRICS`.
    registry: Registry,
    /// `avt_writer_events_total{admission="accepted"}`: events staged in
    /// order.
    accepted: Arc<Counter>,
    /// `avt_writer_events_total{admission="folded"}`: stragglers folded
    /// into the staged window.
    folded: Arc<Counter>,
    /// `avt_writer_events_total{admission="rejected"}`: events older than
    /// the lag window.
    rejected: Arc<Counter>,
    /// `avt_writer_dropped_total`: events the publish-time sanitizer
    /// dropped.
    dropped: Arc<Counter>,
    /// `avt_writer_publish_us`: one sample per published batch, so its
    /// count is the number of batches applied.
    publish: Arc<Histogram>,
}

impl Admission {
    /// An admission buffer publishing into `timeline` with the given lag
    /// window (0 = publish every timestamp as soon as a later one
    /// arrives; stragglers are then always stale).
    pub fn new(timeline: Arc<LiveTimeline>, lag: u64) -> Admission {
        let registry = Registry::new();
        let events = |verdict: &str| {
            registry.counter(&format!("avt_writer_events_total{{admission=\"{verdict}\"}}"))
        };
        Admission {
            timeline,
            lag,
            inner: Mutex::new(Inner { watermark: 0, staged: BTreeMap::new() }),
            accepted: events("accepted"),
            folded: events("folded"),
            rejected: events("rejected"),
            dropped: registry.counter("avt_writer_dropped_total"),
            publish: registry.histogram("avt_writer_publish_us"),
            registry,
        }
    }

    /// Admit `events` stamped `ts`: stage or reject them, then publish
    /// every bucket the new watermark has moved out of the lag window.
    pub fn ingest(&self, ts: u64, events: &[IngestEvent]) -> Result<IngestReceipt, GraphError> {
        self.ingest_traced(ts, events, None)
    }

    /// [`Admission::ingest`] with a request-lifecycle span riding along:
    /// the staging decision is charged to the *admit* stage and the
    /// drain (epoch publication) to the *publish* stage, so a `TRACE`
    /// dump shows where a slow `INGEST` actually spent its time.
    pub fn ingest_traced(
        &self,
        ts: u64,
        events: &[IngestEvent],
        span: Option<&Span>,
    ) -> Result<IngestReceipt, GraphError> {
        let mut inner = self.inner.lock().expect("admission lock poisoned");
        let mut receipt = IngestReceipt::default();
        if inner.watermark > self.lag && ts < inner.watermark - self.lag {
            // Older than the window: count, never rewind.
            receipt.rejected = events.len() as u64;
        } else {
            if ts >= inner.watermark {
                receipt.accepted = events.len() as u64;
            } else {
                receipt.folded = events.len() as u64;
            }
            if !events.is_empty() {
                inner.staged.entry(ts).or_default().extend_from_slice(events);
            }
            inner.watermark = inner.watermark.max(ts);
        }
        self.accepted.add(receipt.accepted);
        self.folded.add(receipt.folded);
        self.rejected.add(receipt.rejected);
        if let Some(span) = span {
            span.mark(Stage::Admit);
        }

        self.drain(&mut inner, false)?;
        if let Some(span) = span {
            span.mark(Stage::Publish);
        }
        receipt.watermark = inner.watermark;
        receipt.t = self.timeline.epochs_published();
        Ok(receipt)
    }

    /// Publish every staged bucket regardless of the watermark — the
    /// shutdown drain. Returns the number of epochs published.
    pub fn flush(&self) -> Result<u64, GraphError> {
        let mut inner = self.inner.lock().expect("admission lock poisoned");
        self.drain(&mut inner, true)
    }

    /// Number of buckets currently staged (waiting on the watermark).
    pub fn staged_buckets(&self) -> usize {
        self.inner.lock().expect("admission lock poisoned").staged.len()
    }

    /// Publish ripe buckets in timestamp order. With `force`, every
    /// bucket is ripe. A bucket is popped only after its epoch publishes,
    /// so a failure leaves it staged.
    fn drain(&self, inner: &mut Inner, force: bool) -> Result<u64, GraphError> {
        let mut published = 0u64;
        while let Some((&ts, _)) = inner.staged.first_key_value() {
            let ripe = force || (inner.watermark > self.lag && ts < inner.watermark - self.lag);
            if !ripe {
                break;
            }
            let events = inner.staged.get(&ts).expect("first key exists");
            let (batch, dropped) = self.sanitize(events);
            let start = Instant::now();
            self.timeline.apply_batch(batch)?;
            self.publish.record(start.elapsed().as_micros() as u64);
            inner.staged.remove(&ts);
            self.dropped.add(dropped);
            published += 1;
        }
        Ok(published)
    }

    /// Resolve one bucket's events to their net effect against the
    /// current frame: walk them in arrival order tracking per-edge
    /// presence, then emit an insertion for every edge that ends present
    /// but started absent and a deletion for the reverse. Invalid events
    /// (self-loop, out-of-range, duplicate insert, delete of an absent
    /// edge) and cancelled pairs are dropped; the count of dropped
    /// *invalid* events is returned.
    fn sanitize(&self, events: &[IngestEvent]) -> (EdgeBatch, u64) {
        let epoch = self.timeline.current();
        let n = epoch.frame.num_vertices();
        let mut dropped = 0u64;
        // (was-present, is-present) per touched edge; BTreeMap so the
        // emitted batch is deterministic in edge order.
        let mut state: BTreeMap<(VertexId, VertexId), (bool, bool)> = BTreeMap::new();
        for ev in events {
            if ev.u == ev.v || ev.u as usize >= n || ev.v as usize >= n {
                dropped += 1;
                continue;
            }
            let key = (ev.u.min(ev.v), ev.u.max(ev.v));
            let entry = state.entry(key).or_insert_with(|| {
                let present = epoch.frame.has_edge(key.0, key.1);
                (present, present)
            });
            if ev.insert == entry.1 {
                // Inserting a present edge or deleting an absent one.
                dropped += 1;
            } else {
                entry.1 = ev.insert;
            }
        }
        let mut insertions: Vec<(VertexId, VertexId)> = Vec::new();
        let mut deletions: Vec<(VertexId, VertexId)> = Vec::new();
        for (&(u, v), &(was, now)) in &state {
            match (was, now) {
                (false, true) => insertions.push((u, v)),
                (true, false) => deletions.push((u, v)),
                _ => {}
            }
        }
        (EdgeBatch::from_pairs(insertions, deletions), dropped)
    }

    /// A point-in-time snapshot of the writer counters for `STATS`.
    pub fn snapshot(&self) -> WriterStats {
        let inner = self.inner.lock().expect("admission lock poisoned");
        let oldest = inner.staged.first_key_value().map(|(&ts, _)| ts);
        let publish = self.publish.snapshot();
        WriterStats {
            batches_applied: publish.count(),
            events_accepted: self.accepted.get(),
            events_folded: self.folded.get(),
            events_rejected: self.rejected.get(),
            events_dropped: self.dropped.get(),
            watermark: inner.watermark,
            watermark_lag: oldest.map_or(0, |ts| inner.watermark.saturating_sub(ts)),
            publish_p50_us: publish.percentile(50.0),
            publish_p99_us: publish.percentile(99.0),
        }
    }

    /// The writer's registry (event counters and the publish histogram),
    /// as `METRICS` renders it.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_graph::Graph;

    fn ins(u: VertexId, v: VertexId) -> IngestEvent {
        IngestEvent { insert: true, u, v }
    }

    fn del(u: VertexId, v: VertexId) -> IngestEvent {
        IngestEvent { insert: false, u, v }
    }

    fn adm(lag: u64) -> (Arc<LiveTimeline>, Admission) {
        let tl = Arc::new(LiveTimeline::new(Graph::new(8)));
        let a = Admission::new(Arc::clone(&tl), lag);
        (tl, a)
    }

    #[test]
    fn in_order_stream_publishes_behind_the_watermark() {
        let (tl, a) = adm(2);
        for ts in 1..=5u64 {
            a.ingest(ts, &[ins(0, ts as VertexId)]).unwrap();
        }
        // Watermark 5, lag 2: ts 1 and 2 published, 3..=5 staged.
        assert_eq!(tl.epochs_published(), 3);
        assert_eq!(a.staged_buckets(), 3);
        assert!(tl.current().frame.has_edge(0, 2));
        assert!(!tl.current().frame.has_edge(0, 3));
        a.flush().unwrap();
        assert_eq!(tl.epochs_published(), 6);
        assert!(tl.current().frame.has_edge(0, 5));
    }

    #[test]
    fn stragglers_fold_and_stale_events_reject() {
        let (tl, a) = adm(3);
        a.ingest(10, &[ins(0, 1)]).unwrap();
        // ts 8 is behind the watermark but inside the window: folded.
        let r = a.ingest(8, &[ins(1, 2)]).unwrap();
        assert_eq!((r.accepted, r.folded, r.rejected), (0, 1, 0));
        // ts 6 is older than watermark - lag: rejected, never applied.
        let r = a.ingest(6, &[ins(2, 3)]).unwrap();
        assert_eq!((r.accepted, r.folded, r.rejected), (0, 0, 1));
        a.flush().unwrap();
        assert!(tl.current().frame.has_edge(1, 2), "folded straggler applied");
        assert!(!tl.current().frame.has_edge(2, 3), "stale event never applied");
        let w = a.snapshot();
        assert_eq!(w.events_rejected, 1);
        assert_eq!(w.events_folded, 1);
    }

    #[test]
    fn sanitizer_nets_out_conflicts() {
        let (tl, a) = adm(0);
        a.ingest(1, &[ins(0, 1), ins(0, 1), ins(1, 2), del(1, 2), del(3, 4), ins(5, 5)]).unwrap();
        a.flush().unwrap();
        let e = tl.current();
        assert!(e.frame.has_edge(0, 1));
        assert!(!e.frame.has_edge(1, 2), "insert+delete nets out");
        // Duplicate insert, delete-of-absent, self-loop: three drops.
        assert_eq!(a.snapshot().events_dropped, 3);
        // One bucket, one epoch on top of the initial one.
        assert_eq!(tl.epochs_published(), 2);
    }

    #[test]
    fn any_permutation_in_window_converges() {
        // Three buckets delivered in every permutation: once the buffer
        // drains, the published graph and epoch count are identical.
        let script: [(u64, Vec<IngestEvent>); 3] =
            [(1, vec![ins(0, 1)]), (2, vec![ins(1, 2), del(0, 1)]), (3, vec![ins(0, 3)])];
        let orders: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let mut reference: Option<(u64, Vec<(usize, usize)>)> = None;
        for order in orders {
            let (tl, a) = adm(4);
            for &i in &order {
                let (ts, ref evs) = script[i];
                a.ingest(ts, evs).unwrap();
            }
            a.flush().unwrap();
            let e = tl.current();
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for u in 0..8u32 {
                for v in (u + 1)..8u32 {
                    if e.frame.has_edge(u, v) {
                        edges.push((u as usize, v as usize));
                    }
                }
            }
            let got = (tl.epochs_published(), edges);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "order {order:?} diverged"),
            }
        }
    }

    #[test]
    fn snapshot_reports_watermark_lag_and_publish_latency() {
        let (_tl, a) = adm(10);
        a.ingest(5, &[ins(0, 1)]).unwrap();
        a.ingest(9, &[ins(1, 2)]).unwrap();
        let w = a.snapshot();
        assert_eq!(w.watermark, 9);
        assert_eq!(w.watermark_lag, 4, "oldest staged ts trails the watermark by 4");
        assert_eq!(w.batches_applied, 0);
        a.flush().unwrap();
        let w = a.snapshot();
        assert_eq!(w.batches_applied, 2);
        assert!(w.publish_p50_us.is_some());
        assert_eq!(w.watermark_lag, 0);
    }
}
