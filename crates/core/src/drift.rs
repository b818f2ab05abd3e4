//! Anchor-set drift analysis.
//!
//! The paper's motivation (§1) is that the *optimal anchors change as the
//! network evolves* — advertising placement and retention campaigns must
//! refresh their targets. This module quantifies that drift for a tracked
//! anchor series: per-step Jaccard similarity, anchor lifetimes, and the
//! distinct-anchor footprint.

use std::collections::HashMap;

use avt_graph::VertexId;

use crate::params::AvtResult;

/// Drift statistics over an anchor series `S_1..S_T`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Jaccard similarity `|S_t ∩ S_{t+1}| / |S_t ∪ S_{t+1}|` per
    /// transition (length `T-1`; empty-vs-empty counts as 1.0).
    pub jaccard: Vec<f64>,
    /// Number of distinct vertices ever anchored.
    pub distinct_anchors: usize,
    /// For each distinct anchor, the number of snapshots it was selected.
    pub lifetimes: HashMap<VertexId, usize>,
    /// Mean of `jaccard` (1.0 when there are no transitions).
    pub mean_stability: f64,
}

/// Jaccard similarity of two vertex sets.
pub fn jaccard(a: &[VertexId], b: &[VertexId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut union: Vec<VertexId> = a.iter().chain(b.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    let inter = a.iter().filter(|v| b.contains(v)).count();
    inter as f64 / union.len() as f64
}

/// Analyze the drift of a tracking result's anchor series.
pub fn analyze(result: &AvtResult) -> DriftReport {
    analyze_series(&result.anchor_sets)
}

/// Analyze an arbitrary anchor series.
pub fn analyze_series(series: &[Vec<VertexId>]) -> DriftReport {
    let jaccard_series: Vec<f64> = series.windows(2).map(|w| jaccard(&w[0], &w[1])).collect();
    let mut lifetimes: HashMap<VertexId, usize> = HashMap::new();
    for set in series {
        for &v in set {
            *lifetimes.entry(v).or_insert(0) += 1;
        }
    }
    let mean_stability = if jaccard_series.is_empty() {
        1.0
    } else {
        jaccard_series.iter().sum::<f64>() / jaccard_series.len() as f64
    };
    DriftReport {
        distinct_anchors: lifetimes.len(),
        lifetimes,
        jaccard: jaccard_series,
        mean_stability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[1], &[]), 0.0);
    }

    #[test]
    fn analyze_series_lifetimes_and_stability() {
        let series = vec![vec![1, 2], vec![1, 3], vec![1, 3], vec![4, 5]];
        let report = analyze_series(&series);
        assert_eq!(report.jaccard.len(), 3);
        assert!((report.jaccard[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.jaccard[1], 1.0);
        assert_eq!(report.jaccard[2], 0.0);
        assert_eq!(report.distinct_anchors, 5);
        assert_eq!(report.lifetimes[&1], 3);
        assert_eq!(report.lifetimes[&3], 2);
        assert_eq!(report.lifetimes[&4], 1);
        let expected = (1.0 / 3.0 + 1.0 + 0.0) / 3.0;
        assert!((report.mean_stability - expected).abs() < 1e-12);
    }

    #[test]
    fn single_snapshot_has_full_stability() {
        let report = analyze_series(&[vec![7, 8]]);
        assert!(report.jaccard.is_empty());
        assert_eq!(report.mean_stability, 1.0);
        assert_eq!(report.distinct_anchors, 2);
    }

    #[test]
    fn analyze_wraps_results() {
        use crate::metrics::Metrics;
        use crate::params::{AvtResult, SnapshotReport};
        use std::time::Duration;
        let mk = |t: usize, anchors: Vec<u32>| SnapshotReport {
            t,
            anchors,
            followers: vec![],
            base_core_size: 0,
            anchored_core_size: 0,
            elapsed: Duration::ZERO,
            metrics: Metrics::default(),
        };
        let mut result = AvtResult::default();
        result.push_report(mk(1, vec![1]));
        result.push_report(mk(2, vec![2]));
        let report = analyze(&result);
        assert_eq!(report.jaccard, vec![0.0]);
    }
}
