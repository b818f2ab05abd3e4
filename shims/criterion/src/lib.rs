//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the API subset the workspace's benches use — `Criterion`,
//! benchmark groups, `BenchmarkId`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros — with honest wall-clock
//! measurement and plain-text reporting instead of Criterion's statistical
//! analysis and HTML reports.
//!
//! Set `AVT_BENCH_SMOKE=1` to run every benchmark body exactly once (CI
//! smoke mode: catches harness rot without burning minutes).
//!
//! Besides the plain-text report, every run records each benchmark's
//! *median* wall-clock sample, and the generated `criterion_main!` writes
//! them as a flat `{"group/name": nanoseconds}` JSON map on exit — to
//! `$AVT_BENCH_JSON` when that is set, else to `bench-medians.json` in the
//! working directory when smoke mode is on (so CI smoke runs always leave
//! an artifact). Bench binaries run sequentially under `cargo bench`, and
//! the writer merges into an existing file, so one artifact accumulates
//! every group.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Medians recorded by [`report`], drained by [`write_bench_json`].
static RESULTS: Mutex<Vec<(String, u128)>> = Mutex::new(Vec::new());

pub use std::hint::black_box;

/// Entry point handed to every benchmark function by the generated main.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Run a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, default_samples(), f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _criterion: self, name: name.into(), samples: default_samples() }
    }
}

/// A named collection of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timing samples collected per benchmark.
    /// (Smoke mode still forces a single sample at run time.)
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Run a benchmark within this group.
    pub fn bench_function<F>(&mut self, name: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, name), self.samples, f);
        self
    }

    /// Run a parameterised benchmark within this group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id.label), self.samples, |b| f(b, input));
        self
    }

    /// Close the group. (Reporting is per-benchmark here, so this is a no-op.)
    pub fn finish(self) {}
}

/// Identifies one parameterised benchmark: a function name plus a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Build an id from a function name and a displayable parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{}/{}", function_name.into(), parameter) }
    }
}

/// Timer handed to each benchmark body; call [`Bencher::iter`] exactly once.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Duration>,
    requested: usize,
}

impl Bencher {
    /// Measure `f`, collecting one wall-clock sample per invocation.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Warm-up run (also the only run in smoke mode).
        let start = Instant::now();
        black_box(f());
        let warm = start.elapsed();
        if self.requested <= 1 {
            self.samples.push(warm);
            return;
        }
        for _ in 0..self.requested {
            let start = Instant::now();
            black_box(f());
            self.samples.push(start.elapsed());
        }
    }
}

fn smoke_mode() -> bool {
    std::env::var_os("AVT_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn default_samples() -> usize {
    if smoke_mode() {
        1
    } else {
        10
    }
}

fn run_one<F>(label: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher =
        Bencher { samples: Vec::new(), requested: if smoke_mode() { 1 } else { samples } };
    f(&mut bencher);
    report(label, &bencher.samples);
}

fn report(label: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{label:<60} (no samples: Bencher::iter never called)");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    let median = median_of(samples);
    println!(
        "{label:<60} median {:>12?}  mean {:>12?}  min {:>12?}  max {:>12?}  ({} samples)",
        median,
        mean,
        min,
        max,
        samples.len()
    );
    let mut results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
    results.push((label.to_string(), median.as_nanos()));
}

fn median_of(samples: &[Duration]) -> Duration {
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort();
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2
    } else {
        sorted[mid]
    }
}

/// Write every median recorded so far as a flat `{"label": nanoseconds}`
/// JSON map, merging into the file if it already exists (bench binaries
/// run one after another; each adds its groups to the same artifact).
///
/// Destination: `$AVT_BENCH_JSON` when set; else `bench-medians.json` in the
/// working directory when `AVT_BENCH_SMOKE` is on; else nowhere (plain
/// `cargo bench` stays report-only). Called by the `criterion_main!`-
/// generated `main` after all groups finish.
pub fn write_bench_json() {
    let explicit = std::env::var_os("AVT_BENCH_JSON").filter(|v| !v.is_empty());
    let path = match (explicit, smoke_mode()) {
        (Some(p), _) => PathBuf::from(p),
        (None, true) => PathBuf::from("bench-medians.json"),
        (None, false) => return,
    };
    let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
    if results.is_empty() {
        return;
    }
    let mut merged = match std::fs::read_to_string(&path) {
        Ok(text) => parse_flat_json(&text),
        Err(_) => BTreeMap::new(),
    };
    for (label, ns) in results.iter() {
        merged.insert(label.clone(), *ns);
    }
    match std::fs::write(&path, render_flat_json(&merged)) {
        Ok(()) => println!("bench medians written to {}", path.display()),
        Err(e) => eprintln!("criterion shim: could not write {}: {e}", path.display()),
    }
}

/// Parse the flat map this shim writes. Labels are `group/name` strings
/// without quotes or backslashes, so a quote-to-quote scan is exact for
/// our own output (and harmlessly lossy on anything else).
fn parse_flat_json(text: &str) -> BTreeMap<String, u128> {
    let mut map = BTreeMap::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('"') else { break };
        let key = rest[..end].to_string();
        rest = &rest[end + 1..];
        let Some(colon) = rest.find(':') else { break };
        let digits: String =
            rest[colon + 1..].trim_start().chars().take_while(char::is_ascii_digit).collect();
        rest = &rest[colon + 1..];
        if let Ok(ns) = digits.parse::<u128>() {
            map.insert(key, ns);
        }
    }
    map
}

fn render_flat_json(map: &BTreeMap<String, u128>) -> String {
    let mut out = String::from("{\n");
    for (i, (label, ns)) in map.iter().enumerate() {
        out.push_str(&format!("  \"{label}\": {ns}"));
        if i + 1 < map.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Bundle benchmark functions into a named group runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Run every benchmark function registered in this group.
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate a `main` that runs the given groups, mirroring
/// `criterion::criterion_main!`. Requires `harness = false` on the bench
/// target, exactly like upstream.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_bench_json();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        if smoke_mode() {
            // AVT_BENCH_SMOKE forces single-iteration runs process-wide;
            // the sample-count assertion below would fail spuriously.
            return;
        }
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-test");
        group.sample_size(3);
        let mut calls = 0usize;
        group.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        assert!(calls >= 3);
    }

    #[test]
    fn benchmark_id_formats_parameter() {
        let id = BenchmarkId::new("greedy", 42);
        assert_eq!(id.label, "greedy/42");
    }

    #[test]
    fn median_is_order_free() {
        let ms = |n| Duration::from_millis(n);
        assert_eq!(median_of(&[ms(9), ms(1), ms(5)]), ms(5));
        assert_eq!(median_of(&[ms(8), ms(2)]), ms(5));
        assert_eq!(median_of(&[ms(7)]), ms(7));
    }

    #[test]
    fn flat_json_round_trips_and_merges() {
        let mut map = BTreeMap::new();
        map.insert("kernels/peel/scalar".to_string(), 123_456u128);
        map.insert("kernels/peel/branchless".to_string(), 98_765u128);
        let text = render_flat_json(&map);
        assert_eq!(parse_flat_json(&text), map);
        assert_eq!(parse_flat_json(""), BTreeMap::new());
        assert_eq!(parse_flat_json("{}\n"), BTreeMap::new());
        // Merging overwrites stale entries and keeps foreign ones.
        let mut merged = parse_flat_json(&text);
        merged.insert("kernels/peel/scalar".to_string(), 1u128);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged["kernels/peel/scalar"], 1);
    }
}
