//! The log-bucketed latency histogram: lock-free recording, mergeable
//! snapshots, bounded-error percentiles.
//!
//! HDR-style layout with 2 significance bits: values `0..=3` get exact
//! buckets; every octave above that is split into 4 sub-buckets, so a
//! bucket's width is at most a quarter of its lower bound and any
//! percentile read overshoots the true sample by at most 25 % (and never
//! past the observed maximum, which is tracked exactly). 252 buckets
//! cover the whole `u64` range — there is no saturation and, unlike the
//! fixed-slot sampling rings this replaced, no window: every sample lands
//! in a bucket and stays there, which is what makes two snapshots
//! *mergeable* (bucket-wise addition is exact).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (2 significance bits).
const SUB_BUCKETS: u64 = 4;

/// Total bucket count: 4 exact buckets for `0..=3`, then 62 octaves
/// (exponents 2..=63) × 4 sub-buckets.
pub const NUM_BUCKETS: usize = 4 + 62 * SUB_BUCKETS as usize;

/// Bucket index for value `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as u64; // e >= 2
    let sub = (v >> (e - 2)) - SUB_BUCKETS;
    (SUB_BUCKETS + (e - 2) * SUB_BUCKETS + sub) as usize
}

/// Inclusive upper bound of bucket `i` — what a percentile read reports
/// for samples that landed there.
fn bucket_hi(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let e = (i - SUB_BUCKETS) / SUB_BUCKETS + 2;
    let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
    let width = 1u64 << (e - 2);
    let lo = (SUB_BUCKETS + sub) << (e - 2);
    lo + (width - 1)
}

/// A lock-free log-bucketed histogram of `u64` samples (typically µs).
///
/// Recording is three relaxed atomic adds and one `fetch_max`; reading is
/// [`Histogram::snapshot`], which copies the buckets out so percentile
/// math never touches the hot path.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v.saturating_add(1), Ordering::Relaxed);
    }

    /// Samples recorded so far (sum over buckets; point-in-time).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the buckets, mergeable and rankable.
    /// Concurrent recording may make `sum`/`max` trail the buckets by a
    /// sample — reads are diagnostics, not a consistency point.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed).saturating_sub(1),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state: percentiles, merging, and
/// rendering happen here, off the recording path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; NUM_BUCKETS], sum: 0, max: 0 }
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold `other` into `self`. Bucket-wise addition is exact: the
    /// merged percentiles equal the percentiles of the concatenated
    /// sample streams (within the shared bucket resolution).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (0..=100), nearest-rank over the bucket
    /// counts: the reported value is the containing bucket's upper bound,
    /// clamped to the observed maximum. `None` before the first sample.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * total as f64).ceil() as u64;
        let rank = rank.clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_hi(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_below_four_and_within_a_quarter_above() {
        // Exact buckets for tiny values.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_hi(v as usize), v);
        }
        // Every bucket's hi is >= any member and within 25 % of it.
        for v in [4u64, 5, 7, 8, 9, 100, 1_000, 123_456, u64::MAX / 3, u64::MAX] {
            let i = bucket_index(v);
            let hi = bucket_hi(i);
            assert!(hi >= v, "hi {hi} < v {v}");
            assert!(hi - v <= v / 4 + 1, "bucket error beyond 25% at {v}: hi {hi}");
        }
        // Indices are monotone and in range.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        let mut prev = 0;
        for e in 2..64u32 {
            let i = bucket_index(1u64 << e);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn percentiles_clamp_to_the_observed_max() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        // 3 samples: p99 must be the max itself, not a bucket bound.
        assert_eq!(s.percentile(99.0), Some(30));
        assert_eq!(s.percentile(100.0), Some(30));
        // Low percentiles report the containing bucket's upper bound
        // (10 lands in the [10, 11] bucket at 2 significance bits).
        assert_eq!(s.percentile(1.0), Some(11));
        assert_eq!(HistogramSnapshot::empty().percentile(50.0), None);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in 0..100u64 {
            a.record(v * 3);
            both.record(v * 3);
        }
        for v in 0..50u64 {
            b.record(v * 7 + 1);
            both.record(v * 7 + 1);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count(), 4_000);
        assert_eq!(s.max, 3_999);
        assert_eq!(s.sum, (0..4_000u64).sum::<u64>());
    }
}
