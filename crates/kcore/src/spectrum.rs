//! Core-spectrum statistics: shell sizes, degeneracy, and "usable k"
//! queries.
//!
//! The AVT experiments sweep `k` over values chosen for the full-size
//! datasets; on a scaled-down or unfamiliar graph one first needs to know
//! where the core hierarchy actually lives. [`CoreSpectrum`] summarizes it
//! once in O(n) after a decomposition.

use avt_graph::GraphView;

use crate::decompose::CoreDecomposition;

/// Shell-size histogram and derived queries for one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSpectrum {
    /// `shell[c]` = number of vertices with core number exactly `c`.
    shell: Vec<usize>,
}

impl CoreSpectrum {
    /// Build from an existing decomposition (anchored vertices, if any,
    /// are ignored).
    pub fn from_decomposition(d: &CoreDecomposition) -> Self {
        let max = d.max_core() as usize;
        let mut shell = vec![0usize; max + 1];
        for &c in d.cores() {
            if let Some(slot) = shell.get_mut(c as usize) {
                *slot += 1;
            }
        }
        CoreSpectrum { shell }
    }

    /// Decompose-and-summarize convenience; accepts any [`GraphView`]
    /// substrate.
    pub fn of<G: GraphView>(graph: &G) -> Self {
        Self::from_decomposition(&CoreDecomposition::compute(graph))
    }

    /// Build directly from a plain core-number array — e.g. a maintained
    /// K-order's `core_slice`, where every value is a genuine core number
    /// (unlike an *anchored* decomposition, whose anchor sentinel this
    /// constructor would happily count as a shell; use
    /// [`Self::from_decomposition`] there).
    pub fn from_cores(cores: &[u32]) -> Self {
        let max = cores.iter().copied().max().unwrap_or(0) as usize;
        let mut shell = vec![0usize; max + 1];
        for &c in cores {
            shell[c as usize] += 1;
        }
        CoreSpectrum { shell }
    }

    /// The degeneracy (maximum core number).
    pub fn degeneracy(&self) -> u32 {
        self.shell.len() as u32 - 1
    }

    /// Number of vertices with core number exactly `c`.
    pub fn shell_size(&self, c: u32) -> usize {
        self.shell.get(c as usize).copied().unwrap_or(0)
    }

    /// Number of vertices with core number at least `k` (`|C_k|`).
    pub fn core_size(&self, k: u32) -> usize {
        self.shell.iter().skip(k as usize).sum()
    }

    /// A `k` is *anchorable* when the k-core is nonempty and the
    /// (k-1)-shell is populated — otherwise no anchor can gain followers.
    pub fn is_anchorable(&self, k: u32) -> bool {
        k >= 2 && self.core_size(k) > 0 && self.shell_size(k - 1) > 0
    }

    /// The anchorable `k` nearest to `preferred`, favouring smaller values
    /// (scaling shrinks core hierarchies downward). `None` when no k is
    /// anchorable at all (e.g. an edgeless graph).
    pub fn nearest_anchorable_k(&self, preferred: u32) -> Option<u32> {
        if self.is_anchorable(preferred) {
            return Some(preferred);
        }
        let limit = self.degeneracy() + preferred + 2;
        for delta in 1..=limit {
            if preferred > delta && self.is_anchorable(preferred - delta) {
                return Some(preferred - delta);
            }
            if self.is_anchorable(preferred + delta) {
                return Some(preferred + delta);
            }
        }
        None
    }

    /// The anchorable `k` with the largest (k-1)-shell — the setting where
    /// anchoring has the most raw material.
    pub fn most_anchorable_k(&self) -> Option<u32> {
        (2..=self.degeneracy().max(2))
            .filter(|&k| self.is_anchorable(k))
            .max_by_key(|&k| self.shell_size(k - 1))
    }

    /// The shell histogram, indexed by core number.
    pub fn shells(&self) -> &[usize] {
        &self.shell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_graph::Graph;

    /// K4 core + two shell-2 vertices + a pendant.
    fn layered() -> Graph {
        Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 0),
                (4, 5),
                (5, 2),
                (5, 3),
                (6, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shell_histogram() {
        let s = CoreSpectrum::of(&layered());
        assert_eq!(s.degeneracy(), 3);
        assert_eq!(s.shell_size(3), 4);
        assert_eq!(s.shell_size(2), 2);
        assert_eq!(s.shell_size(1), 1);
        assert_eq!(s.shell_size(0), 0);
        assert_eq!(s.shells(), &[0, 1, 2, 4]);
    }

    #[test]
    fn core_sizes_are_cumulative() {
        let s = CoreSpectrum::of(&layered());
        assert_eq!(s.core_size(0), 7);
        assert_eq!(s.core_size(1), 7);
        assert_eq!(s.core_size(2), 6);
        assert_eq!(s.core_size(3), 4);
        assert_eq!(s.core_size(4), 0);
    }

    #[test]
    fn anchorability() {
        let s = CoreSpectrum::of(&layered());
        assert!(s.is_anchorable(3)); // 3-core nonempty, 2-shell populated
        assert!(s.is_anchorable(2));
        assert!(!s.is_anchorable(4)); // empty 4-core
        assert!(!s.is_anchorable(1)); // k must be >= 2
    }

    #[test]
    fn nearest_anchorable_prefers_downward() {
        let s = CoreSpectrum::of(&layered());
        assert_eq!(s.nearest_anchorable_k(3), Some(3));
        assert_eq!(s.nearest_anchorable_k(10), Some(3));
        assert_eq!(s.nearest_anchorable_k(2), Some(2));
    }

    #[test]
    fn most_anchorable_maximizes_shell() {
        let s = CoreSpectrum::of(&layered());
        // shell(2) = 2 beats shell(1) = 1.
        assert_eq!(s.most_anchorable_k(), Some(3));
    }

    #[test]
    fn edgeless_graph_has_nothing_anchorable() {
        let s = CoreSpectrum::of(&Graph::new(5));
        assert_eq!(s.degeneracy(), 0);
        assert_eq!(s.nearest_anchorable_k(3), None);
        assert_eq!(s.most_anchorable_k(), None);
    }
}
