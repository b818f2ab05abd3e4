//! The serving stack's telemetry glue: the metric naming scheme, the
//! process-wide span-stage handles, and the `METRICS`/`TRACE` answer
//! builders.
//!
//! The [`avt_obs`] crate owns the mechanisms (registry, spans, flight
//! recorder); this module owns the *naming scheme* and the hot-path
//! handle cache. Every sample is recorded once, into the registry of
//! whoever reports it: the service's
//! [`ServiceStats`](crate::ServiceStats), its
//! [`Admission`](crate::Admission) buffer, or — for span stages, which
//! belong to no one service — the process-wide [`Registry::global`].
//! `STATS` reads the first two; `METRICS` renders all three.
//!
//! # Metric names
//!
//! | metric | kind | labels | registry | fed by |
//! |--------|------|--------|----------|--------|
//! | `avt_requests_total` | counter | — | service | every answered request |
//! | `avt_errors_total` | counter | — | service | every error reply |
//! | `avt_request_us` | histogram | `op` | service | executor service time |
//! | `avt_writer_events_total` | counter | `admission` (`accepted`, `folded`, `rejected`) | admission | each `INGEST` event's admission verdict |
//! | `avt_writer_dropped_total` | counter | — | admission | events the publish-time sanitizer dropped |
//! | `avt_writer_publish_us` | histogram | — | admission | each published batch |
//! | `avt_stage_us` | histogram | `op`, `stage` | process | span finish (front-end requests) |

use std::sync::{Arc, OnceLock};

use avt_obs::{
    slow_threshold_us, FlightRecorder, Histogram, Registry, Span, SpanRecord, Stage, STAGE_COUNT,
};

use crate::protocol::{OpClass, TraceEntry};

/// Cached `avt_stage_us` handles per op class, so the per-request path
/// never takes the registry's registration lock.
fn stage_tables() -> &'static [[Arc<Histogram>; STAGE_COUNT]] {
    static TABLES: OnceLock<Vec<[Arc<Histogram>; STAGE_COUNT]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let reg = Registry::global();
        OpClass::ALL
            .iter()
            .map(|op| {
                std::array::from_fn(|s| {
                    reg.histogram(&format!(
                        "avt_stage_us{{op=\"{}\",stage=\"{}\"}}",
                        op.wire_name(),
                        Stage::ALL[s].as_str()
                    ))
                })
            })
            .collect()
    })
}

/// A lifecycle span for one `op`-class request, backdated to `start`
/// (the moment its frame's bytes were first examined).
pub(crate) fn span_for(op: OpClass, start: std::time::Instant) -> Span {
    Span::begin_at(op.wire_name(), start)
}

/// Close a request's span: per-stage histograms, then the flight
/// recorder (slow ring when the total is at or over
/// [`avt_obs::slow_threshold_us`], reservoir otherwise).
pub(crate) fn finish_span(op: OpClass, span: Span) {
    let record = span.finish();
    let stages = &stage_tables()[op.index()];
    for stage in Stage::ALL {
        let ns = record.stage(stage);
        if ns > 0 {
            stages[stage.index()].record(ns / 1_000);
        }
    }
    let slow = record.total_us() >= slow_threshold_us();
    FlightRecorder::global().record(record, slow);
}

/// The `METRICS` answer: each of `scoped` (the service's registry, then
/// its admission's when one is attached) and then the process-wide one,
/// in Prometheus text form. Their metric names are disjoint, so the
/// concatenation is one valid exposition.
pub(crate) fn render(scoped: &[&Registry]) -> String {
    scoped.iter().copied().chain([Registry::global()]).map(Registry::render).collect()
}

/// The `TRACE n` answer: the flight recorder's top `n` records, mapped
/// to wire entries (stages in lifecycle order, zero-charge stages
/// omitted, times in µs).
pub(crate) fn trace(n: usize) -> Vec<TraceEntry> {
    FlightRecorder::global().top(n).into_iter().map(entry_of).collect()
}

fn entry_of(record: SpanRecord) -> TraceEntry {
    TraceEntry {
        op: record.label.to_string(),
        total_us: record.total_us(),
        stages: Stage::ALL
            .into_iter()
            .filter(|&s| record.stage(s) > 0)
            .map(|s| (s.as_str().to_string(), record.stage(s) / 1_000))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_entries_report_stage_breakdowns_in_microseconds() {
        let mut record =
            SpanRecord { label: "best", total_ns: 3_000_000, stage_ns: [0; STAGE_COUNT] };
        record.stage_ns[Stage::Queue.index()] = 1_000_000;
        record.stage_ns[Stage::Execute.index()] = 2_000_000;
        let entry = entry_of(record);
        assert_eq!(entry.op, "best");
        assert_eq!(entry.total_us, 3_000);
        assert_eq!(
            entry.stages,
            vec![("queue".to_string(), 1_000), ("execute".to_string(), 2_000)]
        );
    }

    #[test]
    fn handle_table_covers_every_op_class() {
        assert_eq!(stage_tables().len(), OpClass::COUNT);
    }
}
