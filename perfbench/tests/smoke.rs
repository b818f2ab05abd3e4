//! The benchmark's own smoke test: a tiny run of every workload prints
//! every metric by name with a unit, fails nothing, and its traced run
//! writes a span file whose children nest inside their parents.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "throughput_per_s", "p50_us"];

/// The workload-specific figures printed before the JSON line.
fn detail(workload: &str) -> Vec<&'static str> {
    let mut names = vec!["failed_frac", "p99_us"];
    names.extend_from_slice(match workload {
        "track" => &["greedy_track_s", "incavt_track_s"][..],
        "serve-lookup" => &[
            "capacity_qps",
            "core_p50_us",
            "core_p99_us",
            "followers_p50_us",
            "followers_p99_us",
            "anchored_p50_us",
            "gen_late_p99_us",
        ],
        _ => &[
            "capacity_qps",
            "core_p50_us",
            "core_p99_us",
            "followers_p50_us",
            "followers_p99_us",
            "best_p50_us",
            "best_p90_us",
            "ingest_p50_us",
            "ingest_p99_us",
            "gen_late_p99_us",
        ],
    });
    names
}

const PER_LAYER: [&str; 55] = [
    "graph.csr_apply_batch_us.p50",
    "graph.csr_apply_batch_us.p99",
    "kcore.decompose_us.p50",
    "kcore.maintain_batch_us.p50",
    "kcore.maintain_batch_us.p99",
    "kcore.maintain_visited",
    "core.state_new_us.p50",
    "core.state_with_anchors_us.p50",
    "core.followers_of_us.p50",
    "core.greedy_solve_us.p50",
    "core.best_solve_us.p50",
    "core.incavt_snapshot_us.p50",
    "core.candidates_probed",
    "core.follower_evaluations",
    "core.vertices_visited",
    "core.rebuilds",
    "core.eval_yield",
    "serve.execute_us.core.p50",
    "serve.execute_us.followers.p50",
    "serve.execute_us.anchored.p50",
    "serve.execute_us.spectrum.p50",
    "serve.execute_us.best.p50",
    "serve.service_us.core.p50",
    "serve.service_us.core.p99",
    "serve.service_us.followers.p50",
    "serve.service_us.followers.p99",
    "serve.service_us.best.p50",
    "serve.service_us.best.p99",
    "serve.service_us.ingest.p50",
    "serve.service_us.ingest.p99",
    "serve.codec_decode_request_us.core.p50",
    "serve.codec_decode_request_us.followers.p50",
    "serve.codec_decode_request_us.anchored.p50",
    "serve.codec_decode_request_us.spectrum.p50",
    "serve.codec_decode_request_us.best.p50",
    "serve.codec_decode_request_us.ingest.p50",
    "serve.codec_encode_response_us.core.p50",
    "serve.codec_encode_response_us.followers.p50",
    "serve.codec_encode_response_us.anchored.p50",
    "serve.codec_encode_response_us.spectrum.p50",
    "serve.codec_encode_response_us.best.p50",
    "serve.codec_encode_response_us.ingest.p50",
    "serve.wire_residual_us.core.p50",
    "serve.wire_residual_us.followers.p50",
    "serve.wire_residual_us.anchored.p50",
    "serve.wire_residual_us.best.p50",
    "serve.wire_residual_us.ingest.p50",
    "serve.admission_ingest_us.p50",
    "serve.admission_ingest_us.p99",
    "serve.timeline_publish_us.p50",
    "serve.timeline_publish_us.p99",
    "serve.admission_applied_ratio",
    "bench.gen_late_p99_us",
    "bench.trace_overhead_frac",
    "bench.span_coverage_frac",
];

/// Run one tiny workload; returns stdout after asserting a clean exit.
fn run(workload: &str, trace: &str, spans: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"])
        .arg("--spans")
        .arg(spans)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `name -> (value, unit)` for every `<kind> <name> <value> <unit>` line.
fn printed(stdout: &str, kind: &str) -> HashMap<String, (f64, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut parts = line.split(' ');
            if parts.next()? != kind {
                return None;
            }
            let (name, value, unit) = (parts.next()?, parts.next()?, parts.next()?);
            Some((name.to_string(), (value.parse().ok()?, unit.to_string())))
        })
        .collect()
}

/// The final JSON line reports exactly `names`, each with a unit, and no
/// failure.
fn check_json(stdout: &str, names: &[&str]) {
    let last = stdout.lines().last().expect("output has a last line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for name in names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last.find(&key).unwrap_or_else(|| panic!("{name} missing from {last}"));
        let rest = &last[at + key.len()..];
        let unit = rest.split("\"unit\": \"").nth(1).and_then(|u| u.split('"').next());
        assert!(unit.is_some_and(|u| !u.is_empty()), "{name} has no unit in {last}");
    }
    assert_eq!(last.matches("\"unit\"").count(), names.len(), "{last}");
}

struct SpanRec {
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// Parse the span file's flat JSON objects.
fn parse_spans(path: &Path) -> Vec<SpanRec> {
    let text = std::fs::read_to_string(path).expect("the span file exists");
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let body = line.strip_prefix('{').and_then(|l| l.strip_suffix('}')).expect("an object");
            let fields: HashMap<&str, &str> = body
                .split(',')
                .map(|kv| {
                    let (k, v) = kv.split_once(':').expect("key:value");
                    (k.trim_matches('"'), v)
                })
                .collect();
            assert_eq!(fields["id"].parse::<usize>().unwrap(), i, "ids are line numbers");
            assert!(fields["name"].starts_with('"') && fields["name"].len() > 2, "{line}");
            let parent = match fields["parent"] {
                "null" => None,
                p => Some(p.parse().expect("a numeric parent")),
            };
            assert!(fields["req"] == "null" || fields["req"].parse::<u64>().is_ok(), "{line}");
            SpanRec {
                start: fields["start_ns"].parse().expect("start_ns"),
                end: fields["end_ns"].parse().expect("end_ns"),
                parent,
            }
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans");
    for workload in ["track", "serve-lookup", "serve-mixed"] {
        let spans = dir.join(format!("{workload}.jsonl"));

        let stdout = run(workload, "0", &spans);
        let metrics = printed(&stdout, "metric");
        for name in END_TO_END.iter().chain(&detail(workload)) {
            let (_, unit) =
                metrics.get(*name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(!unit.is_empty(), "{workload}: {name} has no unit");
        }
        assert_eq!(metrics["failed_frac"].0, 0.0, "{workload} failed operations");
        check_json(&stdout, &END_TO_END);
        assert!(
            stdout.lines().any(|l| l.starts_with("# host nproc=")),
            "{workload}: no host stamp"
        );

        let stdout = run(workload, "1", &spans);
        let layers = printed(&stdout, "layer");
        for name in PER_LAYER {
            assert!(layers.contains_key(name), "{workload}: layer {name} missing");
        }
        check_json(&stdout, &PER_LAYER);
        let recs = parse_spans(&spans);
        assert!(!recs.is_empty(), "{workload}: empty span file");
        for (i, s) in recs.iter().enumerate() {
            assert!(s.start <= s.end, "{workload}: span {i} ends before it starts");
            if let Some(p) = s.parent {
                let parent = &recs[p];
                assert!(p < i, "{workload}: span {i} names a later parent");
                assert!(
                    parent.start <= s.start && s.end <= parent.end,
                    "{workload}: span {i} is not inside its parent {p}"
                );
            }
        }
    }
}
