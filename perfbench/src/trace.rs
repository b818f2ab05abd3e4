//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing is traced inside the program. Each
//! span has a name, start, end, parent and an optional request id. They
//! are kept in memory and written out as JSON lines when the run ends.
//! A disabled recorder runs the same closures without reading the clock,
//! which is how the untraced reference pass of the overhead measurement
//! is made.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the recorder's creation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Open a span that is closed later with [`Tracer::end`]; children
    /// name it as their parent.
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, None, now, now)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    /// Record a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, None, start, end);
        out
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::stats::us(s.end.saturating_sub(s.start)))
            .collect()
    }

    /// Share of span `root`'s wall time covered by its direct children.
    pub fn coverage(&self, root: Option<usize>) -> f64 {
        let Some(root) = root else { return 0.0 };
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| (s.start, s.end))
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = Duration::ZERO;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let span = &self.spans[root];
        let total = span.end.saturating_sub(span.start).as_secs_f64();
        if total > 0.0 {
            covered.as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// Write every span as one JSON object per line:
    /// `{"id":3,"name":"core.greedy_solve","start_ns":..,"end_ns":..,"parent":0,"req":null}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", None, || 7), 7);
        assert!(t.begin("root", None).is_none());
        assert!(t.durations_us("x").is_empty());
    }

    #[test]
    fn coverage_merges_overlapping_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        let root = t.record("root", None, None, at(0), at(10));
        t.record("a", root, None, at(0), at(4));
        t.record("b", root, None, at(2), at(6));
        t.record("c", root, None, at(8), at(9));
        assert!((t.coverage(root) - 0.7).abs() < 1e-9);
    }
}
