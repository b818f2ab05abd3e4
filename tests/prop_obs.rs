//! Property tests for the telemetry layer. The invariants:
//!
//! * **Mergeability.** Merging two histogram snapshots is *exactly* the
//!   histogram of the concatenated samples (bucket-wise addition loses
//!   nothing), and the bucketed percentile stays within the log-bucket
//!   error bound of the exact nearest-rank sample percentile.
//! * **Span accounting.** Stage charges partition a prefix of the
//!   request's lifetime: their sum never exceeds the span total.
//! * **Wire round-trip.** The new `METRICS`/`TRACE` verbs and replies
//!   survive both codecs — including metrics text full of newlines,
//!   percent signs, and tabs, which the text codec must escape through
//!   its own line-delimited framing.
//! * **Zero drift from tracing.** Every legacy reply — `STATS`
//!   included — encodes byte-identically on both codecs whether its
//!   request carried a lifecycle span or not: telemetry reads the request
//!   path, it never rewrites it.
//! * **One store per service.** `STATS` and `METRICS` read the same
//!   counters and histograms, so their counts agree exactly, and one
//!   service's traffic never shows in another's books.

use std::sync::{mpsc, Arc};

use avt::datasets::er::gnm;
use avt_obs::{Histogram, Span, Stage, STAGE_COUNT};
use avt_serve::codec::{Codec, TextCodec};
use avt_serve::protocol::MAX_TRACE;
use avt_serve::{
    Admission, BinaryCodec, LiveTimeline, OpClass, Request, Response, Service, ServiceConfig,
    TraceEntry,
};
use proptest::collection::vec;
use proptest::prelude::*;

static CODECS: [&dyn Codec; 2] = [&TextCodec, &BinaryCodec];

/// Map raw bytes onto the characters the text codec's escaping must
/// survive: the escape-critical set (`%`, space, newline, tab, CR) mixed
/// with ordinary exposition text.
fn metrics_text(raw: &[u8]) -> String {
    const CHARSET: &[char] =
        &['a', 'Z', '0', '9', '%', ' ', '\n', '\t', '\r', '{', '}', '"', '=', '_', '.', '#'];
    raw.iter().map(|&b| CHARSET[b as usize % CHARSET.len()]).collect()
}

/// Deterministic trace entries from drawn raw values (wire-safe names,
/// like the real recorder emits).
fn trace_entries(ops: &[u8], totals: &[u64], stage_us: &[u64]) -> Vec<TraceEntry> {
    const NAMES: [&str; 6] = ["core", "best", "ingest", "anchored", "followers", "spectrum"];
    ops.iter()
        .enumerate()
        .map(|(i, &op)| TraceEntry {
            op: NAMES[op as usize % NAMES.len()].to_string(),
            total_us: totals.get(i).copied().unwrap_or(7),
            stages: Stage::ALL
                .iter()
                .take(i % (STAGE_COUNT + 1))
                .enumerate()
                .map(|(s, stage)| {
                    (stage.as_str().to_string(), stage_us.get(s).copied().unwrap_or(1))
                })
                .collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// merge(a, b) ≡ histogram(a ++ b), exactly; and the bucketed
    /// percentile brackets the exact sample percentile from above within
    /// the ~2-significance-bit error bound.
    #[test]
    fn histogram_merge_matches_concatenation(
        a in vec(0u64..1_000_000, 0..64),
        b in vec(0u64..1_000_000, 0..64),
    ) {
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let all = hall.snapshot();
        prop_assert_eq!(merged.count(), all.count());
        prop_assert_eq!(merged.sum, all.sum);
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(merged.percentile(p), all.percentile(p), "diverged at p={}", p);
        }
        let mut exact: Vec<u64> = a.iter().chain(&b).copied().collect();
        if !exact.is_empty() {
            exact.sort_unstable();
            for p in [50.0, 99.0] {
                let rank = ((p / 100.0) * exact.len() as f64).ceil() as usize;
                let want = exact[rank.clamp(1, exact.len()) - 1];
                let got = merged.percentile(p).expect("nonempty histogram");
                prop_assert!(got >= want, "p{}: bucketed {} under exact {}", p, got, want);
                prop_assert!(
                    got <= want + want / 4 + 1,
                    "p{}: bucketed {} over error bound of exact {}",
                    p, got, want
                );
            }
        }
    }

    /// Whatever the mark pattern, stage charges cover a prefix of the
    /// lifetime: their sum never exceeds the finished total.
    #[test]
    fn span_stage_charges_never_exceed_total(work in vec(1u64..400, 1..10)) {
        let span = Span::begin("prop");
        let mut acc = 0u64;
        for (i, &w) in work.iter().enumerate() {
            for x in 0..w * 20 {
                acc = acc.wrapping_add(std::hint::black_box(x));
            }
            span.mark(Stage::ALL[i % STAGE_COUNT]);
        }
        std::hint::black_box(acc);
        let record = span.finish();
        let sum: u64 = Stage::ALL.iter().map(|&s| record.stage(s)).sum();
        prop_assert!(
            sum <= record.total_ns,
            "stage sum {} exceeds total {}",
            sum, record.total_ns
        );
    }

    /// `METRICS` / `TRACE n` requests and their replies round-trip both
    /// codecs, newline-riddled exposition text included.
    #[test]
    fn metrics_and_trace_round_trip_both_codecs(
        id in 0u64..u64::MAX,
        n in 0u32..MAX_TRACE as u32 + 1,
        raw in vec(0u8..=255, 0..300),
        ops in vec(0u8..8, 0..5),
        totals in vec(0u64..1 << 40, 0..5),
        stage_us in vec(0u64..1 << 30, 0..6),
    ) {
        let cases = [
            Ok(Response::Metrics { text: metrics_text(&raw) }),
            Ok(Response::Trace { entries: trace_entries(&ops, &totals, &stage_us) }),
        ];
        for codec in CODECS {
            for request in [Request::Metrics, Request::Trace { n }] {
                let mut wire = Vec::new();
                codec.encode_request(id, &request, &mut wire);
                let len = codec
                    .decode_frame(&wire)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", codec.name())))?
                    .expect("one complete frame");
                prop_assert_eq!(len, wire.len(), "trailing bytes under {}", codec.name());
                match codec.decode_request(&wire[..len]).verb {
                    avt_serve::codec::WireVerb::Query(got) => {
                        prop_assert_eq!(&got, &request, "mangled by {}", codec.name())
                    }
                    other => prop_assert!(false, "decoded {:?} under {}", other, codec.name()),
                }
            }
            for reply in &cases {
                let mut wire = Vec::new();
                codec.encode_response(id, reply, &mut wire);
                let len = codec
                    .decode_frame(&wire)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", codec.name())))?
                    .expect("one complete frame");
                prop_assert_eq!(len, wire.len(), "trailing bytes under {}", codec.name());
                let (_, got) = codec
                    .decode_response(&wire[..len])
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", codec.name())))?;
                prop_assert_eq!(&got, reply, "reply mangled by {}", codec.name());
            }
        }
    }
}

/// The value of the METRICS series `name` (exact match, labels
/// included), if present.
fn series(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

fn service_on(graph: &avt::graph::Graph) -> Service {
    Service::start(Arc::new(LiveTimeline::new(graph.clone())), ServiceConfig::default())
}

/// The zero-drift guarantee: on fresh services, the whole legacy verb
/// set — `STATS` first, while the books are deterministically empty —
/// encodes to byte-identical frames under both codecs whether each
/// request carried a lifecycle span (as every front-end request does) or
/// not (as in-process [`Service::query`] requests do). Each request goes
/// through [`Service::try_submit_traced`] with a callback, the path every
/// front-end request takes. `METRICS`/`TRACE` read the telemetry itself,
/// so no legacy frame constrains them.
#[test]
fn legacy_frames_are_byte_identical_with_and_without_a_span() {
    let graph = gnm(40, 120, 9);
    let requests = [
        Request::Stats,
        Request::Info,
        Request::Spectrum,
        Request::Core(3),
        Request::Anchored { k: 3, anchors: vec![1, 2] },
        Request::Followers { k: 3, anchor: 5 },
        Request::Best { k: 3, b: 2, algo: avt_serve::BestAlgo::Greedy },
    ];
    let run = |traced: bool| -> Vec<Vec<u8>> {
        let service = service_on(&graph);
        let frames = requests
            .iter()
            .map(|request| {
                let span = traced.then(|| Span::begin(request.op_class().wire_name()));
                let (tx, rx) = mpsc::channel();
                service
                    .try_submit_traced(
                        request.clone(),
                        span,
                        Box::new(move |reply| tx.send(reply).expect("test channel alive")),
                    )
                    .expect("queue has room");
                let reply = rx.recv().expect("callback ran");
                let mut bytes = Vec::new();
                for codec in CODECS {
                    codec.encode_response(7, &reply, &mut bytes);
                }
                bytes
            })
            .collect();
        assert_eq!(service.shutdown().worker_panics, 0);
        frames
    };
    let plain = run(false);
    let traced = run(true);
    for (i, (plain_frame, traced_frame)) in plain.iter().zip(&traced).enumerate() {
        assert_eq!(plain_frame, traced_frame, "frame drifted under a span for {:?}", requests[i]);
    }
}

/// Each service keeps its own books: traffic on one leaves the other's
/// `STATS` counters and percentiles, and its `METRICS` request count,
/// untouched.
#[test]
fn stats_are_scoped_per_service() {
    let graph = gnm(40, 120, 9);
    let (busy, quiet) = (service_on(&graph), service_on(&graph));
    quiet.query(Request::Core(1)).unwrap();
    quiet.query(Request::Core(99)).unwrap_err();
    let books = |svc: &Service| {
        let stats = svc.stats();
        (stats.served(), stats.errors(), stats.per_op_latencies())
    };
    let before = books(&quiet);
    for _ in 0..20 {
        busy.query(Request::Spectrum).unwrap();
        busy.query(Request::Followers { k: 3, anchor: 5 }).unwrap();
        busy.query(Request::Core(999)).unwrap_err();
    }
    assert_eq!(books(&quiet), before, "the busy service's traffic leaked");
    assert_eq!((before.0, before.1, before.2.len()), (1, 1, 1));
    assert_eq!((busy.stats().served(), busy.stats().errors()), (40, 20));
    let Response::Metrics { text } = quiet.query(Request::Metrics).unwrap() else {
        panic!("wrong reply kind")
    };
    assert_eq!(series(&text, "avt_requests_total"), Some(2));
    assert_eq!(series(&text, "avt_errors_total"), Some(1));
    assert_eq!(busy.shutdown().worker_panics, 0);
    assert_eq!(quiet.shutdown().worker_panics, 0);
}

/// `STATS` and `METRICS` are two views of one store: after a scripted
/// run of reads, two errors and publishing `INGEST`s, the same service's
/// `METRICS` carries the request and writer series at the default
/// config, with counts, per-op percentiles and the writer's event
/// verdicts equal to what `STATS` reported.
#[test]
fn stats_and_metrics_read_the_same_store() {
    let timeline = Arc::new(LiveTimeline::new(gnm(40, 120, 9)));
    let admission = Arc::new(Admission::new(Arc::clone(&timeline), 1));
    let service = Service::start_with_admission(timeline, admission, ServiceConfig::default());
    for request in [
        Request::Info,
        Request::Spectrum,
        Request::Core(1),
        Request::Core(2),
        Request::Followers { k: 3, anchor: 5 },
        Request::Anchored { k: 3, anchors: vec![1, 2] },
        Request::Best { k: 3, b: 2, algo: avt_serve::BestAlgo::Olak },
    ] {
        service.query(request).unwrap();
    }
    service.query(Request::Core(999)).unwrap_err();
    // What a front end does with a frame it cannot parse.
    service.stats().note_error();
    // Lag 1: each of ts = 3, 4, 5 publishes the bucket two ticks behind,
    // and the sanitizer drops the self-loop staged at ts = 1.
    for ts in 1..=5u64 {
        let mut insertions = vec![(0, 20 + ts as u32)];
        if ts == 1 {
            insertions.push((7, 7));
        }
        service.query(Request::Ingest { ts, insertions, deletions: vec![] }).unwrap();
    }
    // At watermark 5, a straggler at ts = 4 folds and one at ts = 2 is
    // stale.
    for ts in [4, 2] {
        let insertions = vec![(1, 30 + ts as u32)];
        service.query(Request::Ingest { ts, insertions, deletions: vec![] }).unwrap();
    }

    let Response::Stats { served, errors, per_op, writer, .. } =
        service.query(Request::Stats).unwrap()
    else {
        panic!("wrong reply kind")
    };
    let Response::Metrics { text } = service.query(Request::Metrics).unwrap() else {
        panic!("wrong reply kind")
    };
    assert_eq!((served, errors), (14, 2));
    // METRICS was answered after STATS completed, so it also counts the
    // STATS request itself.
    assert_eq!(series(&text, "avt_requests_total"), Some(served + errors + 1));
    assert_eq!(series(&text, "avt_errors_total"), Some(errors));
    for op in OpClass::ALL {
        let name = op.wire_name();
        let seen = per_op.iter().find(|o| o.op == op);
        let count = seen.map_or(0, |o| o.count) + u64::from(op == OpClass::Stats);
        assert_eq!(
            series(&text, &format!("avt_request_us_count{{op=\"{name}\"}}")),
            Some(count),
            "{name}"
        );
        if let (Some(o), false) = (seen, op == OpClass::Stats) {
            let quantile =
                |q| series(&text, &format!("avt_request_us{{op=\"{name}\",quantile=\"{q}\"}}"));
            assert_eq!((quantile("0.5"), quantile("0.99")), (o.p50_us, o.p99_us), "{name}");
        }
    }
    let writer = writer.expect("admission-backed service reports a writer block");
    assert_eq!(writer.batches_applied, 3);
    assert_eq!((writer.events_folded, writer.events_rejected), (1, 1));
    assert!(writer.events_dropped > 0, "the self-loop is dropped");
    assert_eq!(series(&text, "avt_writer_publish_us_count"), Some(writer.batches_applied));
    let events =
        |verdict| series(&text, &format!("avt_writer_events_total{{admission=\"{verdict}\"}}"));
    assert_eq!(events("accepted"), Some(writer.events_accepted));
    assert_eq!(events("folded"), Some(writer.events_folded));
    assert_eq!(events("rejected"), Some(writer.events_rejected));
    assert_eq!(series(&text, "avt_writer_dropped_total"), Some(writer.events_dropped));
    assert_eq!(service.shutdown().worker_panics, 0);
}
