//! Telemetry microbenchmarks: the three hot paths the obs layer adds, so
//! regressions in the "always cheap" story are caught by the same harness
//! as every other bench group.
//!
//! * `obs/hist/record` — one log-bucketed histogram absorbing a stream
//!   of latencies (three relaxed atomics per sample; this is the cost
//!   every front-end request pays per stage).
//! * `obs/span/open-close` — a full request lifecycle: begin, the four
//!   serve-path marks, finish into a [`SpanRecord`].
//! * `obs/metrics/render` — Prometheus text exposition of a registry
//!   shaped like a busy server's (every op × stage series populated);
//!   the `METRICS` verb's cost, paid per scrape, not per request.
//!
//! Labels fold into `bench-medians.json` via the criterion shim alongside
//! the other groups.

use criterion::{criterion_group, criterion_main, Criterion};

use avt_obs::{Histogram, Registry, Span, Stage};

/// A deterministic latency stream with the right shape: mostly small
/// values, a heavy tail — so bucket indexing sees both ends.
fn latencies(n: usize) -> Vec<u64> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // 1..~4096 µs, log-ish distributed.
            1 + (state % 64) * (state % 64)
        })
        .collect()
}

fn bench_hist(c: &mut Criterion) {
    let stream = latencies(4_096);
    let mut g = c.benchmark_group("obs/hist");
    g.sample_size(10);
    g.bench_function("record", |b| {
        let h = Histogram::new();
        b.iter(|| {
            for &v in &stream {
                h.record(v);
            }
            h.snapshot().count()
        })
    });
    g.finish();
}

fn bench_span(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs/span");
    g.sample_size(10);
    g.bench_function("open-close", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for _ in 0..1_024 {
                let span = Span::begin("bench");
                span.mark(Stage::Decode);
                span.mark(Stage::Queue);
                span.mark(Stage::Execute);
                span.mark(Stage::Encode);
                total += span.finish().total_ns;
            }
            total
        })
    });
    g.finish();
}

fn bench_render(c: &mut Criterion) {
    // A registry shaped like a busy server's: counters plus a populated
    // histogram for every op × stage pair the serve glue registers.
    let reg = Registry::new();
    reg.counter("avt_requests_total").add(1_000_000);
    reg.counter("avt_errors_total").add(3);
    let ops = ["info", "spectrum", "core", "anchored", "followers", "best", "ingest", "stats"];
    let stream = latencies(256);
    for op in ops {
        let h = reg.histogram(&format!("avt_request_us{{op=\"{op}\"}}"));
        for &v in &stream {
            h.record(v);
        }
        for stage in Stage::ALL {
            let h =
                reg.histogram(&format!("avt_stage_us{{op=\"{op}\",stage=\"{}\"}}", stage.as_str()));
            for &v in &stream {
                h.record(v);
            }
        }
    }
    let mut g = c.benchmark_group("obs/metrics");
    g.sample_size(10);
    g.bench_function("render", |b| b.iter(|| reg.render().len()));
    g.finish();
}

criterion_group!(benches, bench_hist, bench_span, bench_render);
criterion_main!(benches);
