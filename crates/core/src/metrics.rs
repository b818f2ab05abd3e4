//! Efficiency counters matching the paper's evaluation axes.
//!
//! Figures 3/5/7 plot wall time; Figures 4/6/8 plot the number of *visited
//! candidate anchored vertices*. We track both, plus enough breakdown to
//! explain them (follower evaluations, whole-graph anchored peels).

use std::ops::AddAssign;

/// Counters accumulated while an algorithm runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Candidate anchors considered: the size of every candidate set a
    /// solver draws up to rank, whether each follower count is then
    /// evaluated or read from the anchored state's count memo.
    pub candidates_probed: u64,
    /// Individual follower-set computations. Counts read from the count
    /// memo are not evaluations.
    pub follower_evaluations: u64,
    /// Vertices touched by follower computations, maintenance peels and
    /// the local repairs of anchor commits — the paper's "visited
    /// vertices" metric. An ordered follower query counts the shell
    /// vertices its pass pops, an unordered one its whole region; a
    /// whole-graph peel counts every vertex; a count read from the count
    /// memo touches none.
    pub vertices_visited: u64,
    /// Whole-graph anchored peels (each O(n + m)): one per
    /// `AnchoredCoreState` built by `new` or `with_anchors`. A state built
    /// from a K-order (IncAVT's) adds none and is charged `n` visited
    /// vertices for its pass over the core numbers, plus what its lifts
    /// reach. Commits and uncommits repair the state locally and add none.
    pub rebuilds: u64,
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl AddAssign for Metrics {
    fn add_assign(&mut self, rhs: Metrics) {
        self.candidates_probed += rhs.candidates_probed;
        self.follower_evaluations += rhs.follower_evaluations;
        self.vertices_visited += rhs.vertices_visited;
        self.rebuilds += rhs.rebuilds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates_all_fields() {
        let mut a = Metrics {
            candidates_probed: 1,
            follower_evaluations: 2,
            vertices_visited: 3,
            rebuilds: 4,
        };
        a += Metrics {
            candidates_probed: 10,
            follower_evaluations: 20,
            vertices_visited: 30,
            rebuilds: 40,
        };
        assert_eq!(a.candidates_probed, 11);
        assert_eq!(a.follower_evaluations, 22);
        assert_eq!(a.vertices_visited, 33);
        assert_eq!(a.rebuilds, 44);
    }

    #[test]
    fn reset_zeroes() {
        let mut m = Metrics { candidates_probed: 5, ..Default::default() };
        m.reset();
        assert_eq!(m, Metrics::default());
    }
}
