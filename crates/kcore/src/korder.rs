//! The K-order index (Definition 5 of the paper).
//!
//! A [`KOrder`] stores, for every vertex, its core number (*level*) and its
//! position inside the level's removal sequence (*label*), giving an O(1)
//! total-order comparison `u ⪯ v`. Levels are stored as vertex arrays with
//! tombstones; the maintenance algorithms in [`crate::maintain`] rewrite
//! only the levels an update breaks and leave everything else untouched.

use avt_graph::{GraphView, VertexId};

use crate::decompose::CoreDecomposition;

/// Level sentinel for vertices that are mid-surgery (removed from one level
/// and not yet installed in another). No query may observe this state.
const DETACHED: u32 = u32::MAX;

/// Tombstone marker inside level sequences.
const TOMB: VertexId = VertexId::MAX;

/// Gap between consecutive labels, leaving room for future in-place
/// insertion strategies (the current maintenance algorithms always rewrite
/// whole levels, so gaps are never consumed).
const LABEL_GAP: u64 = 1 << 20;

/// The K-order of a graph: per-vertex `(level, label)` plus per-level
/// removal sequences.
///
/// # Example
///
/// ```
/// use avt_graph::Graph;
/// use avt_kcore::{CoreDecomposition, KOrder};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
/// let korder = KOrder::from_decomposition(&CoreDecomposition::compute(&g));
/// assert_eq!(korder.core(3), 1);
/// assert!(korder.precedes(3, 0)); // lower level ⇒ earlier in K-order
/// let level2: Vec<_> = korder.iter_level(2).collect();
/// assert_eq!(level2.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct KOrder {
    level: Vec<u32>,
    label: Vec<u64>,
    slot: Vec<u32>,
    levels: Vec<Vec<VertexId>>,
    live: Vec<usize>,
}

impl KOrder {
    /// Build the K-order from a (non-anchored) decomposition.
    pub fn from_decomposition(d: &CoreDecomposition) -> Self {
        let n = d.cores().len();
        let max_level = d.max_core() as usize;
        let mut ko = KOrder {
            level: vec![DETACHED; n],
            label: vec![0; n],
            slot: vec![u32::MAX; n],
            levels: vec![Vec::new(); max_level + 1],
            live: vec![0; max_level + 1],
        };
        // The decomposition order is already grouped by level (non-decreasing
        // core), so a single pass assigns labels in removal order.
        for &v in d.order() {
            let lvl = d.core(v);
            ko.push_to_level(v, lvl);
        }
        ko
    }

    /// Build directly from a graph (decompose + index); accepts any
    /// [`GraphView`] substrate.
    pub fn from_graph<G: GraphView>(graph: &G) -> Self {
        Self::from_decomposition(&CoreDecomposition::compute(graph))
    }

    fn push_to_level(&mut self, v: VertexId, lvl: u32) {
        let li = lvl as usize;
        if li >= self.levels.len() {
            self.levels.resize_with(li + 1, Vec::new);
            self.live.resize(li + 1, 0);
        }
        let seq = &mut self.levels[li];
        let next_label = seq
            .iter()
            .rev()
            .find(|&&w| w != TOMB)
            .map_or(LABEL_GAP, |&w| self.label[w as usize] + LABEL_GAP);
        self.level[v as usize] = lvl;
        self.label[v as usize] = next_label;
        self.slot[v as usize] = seq.len() as u32;
        seq.push(v);
        self.live[li] += 1;
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.level.len()
    }

    /// Core number of `v` (the paper's `core(v)`; equals the K-order level).
    #[inline]
    pub fn core(&self, v: VertexId) -> u32 {
        let lvl = self.level[v as usize];
        debug_assert_ne!(lvl, DETACHED, "query on detached vertex {v}");
        lvl
    }

    /// All core numbers as a slice indexed by vertex. Only valid when no
    /// vertex is detached (the steady state between maintenance
    /// operations).
    pub fn core_slice(&self) -> &[u32] {
        debug_assert!(
            self.level.iter().all(|&l| l != DETACHED),
            "core_slice called with detached vertices"
        );
        &self.level
    }

    /// Number of live vertices at `lvl`.
    pub fn live_count(&self, lvl: u32) -> usize {
        self.live.get(lvl as usize).copied().unwrap_or(0)
    }

    /// Sort/order key of `v`: `(level, label)` ascending is K-order.
    #[inline]
    pub fn order_key(&self, v: VertexId) -> (u32, u64) {
        debug_assert_ne!(self.level[v as usize], DETACHED, "query on detached vertex {v}");
        (self.level[v as usize], self.label[v as usize])
    }

    /// The K-order relation `u ⪯ v` (strict; a vertex never precedes
    /// itself).
    #[inline]
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        self.order_key(u) < self.order_key(v)
    }

    /// Raw level array (no detached-vertex checks — [`DETACHED`] is
    /// `u32::MAX`, which compares after every live level, matching
    /// release-mode `order_key` semantics). For the maintenance scans.
    #[inline]
    pub(crate) fn levels_raw(&self) -> &[u32] {
        &self.level
    }

    /// Remaining degree `deg+(v)` = number of neighbours ordered after `v`.
    /// O(deg(v)).
    pub fn deg_plus<G: GraphView>(&self, graph: &G, v: VertexId) -> u32 {
        let key = self.order_key(v);
        graph
            .neighbors(v)
            .iter()
            .filter(|&&w| (self.level[w as usize], self.label[w as usize]) > key)
            .count() as u32
    }

    /// Iterate the live vertices of `lvl` in K-order.
    pub fn iter_level(&self, lvl: u32) -> impl Iterator<Item = VertexId> + '_ {
        self.levels
            .get(lvl as usize)
            .map(|s| s.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(|&v| v != TOMB)
    }

    /// Remove `v` from its level, leaving it detached. The caller must
    /// re-install it (via [`Self::install_level`]) before any query touches
    /// it.
    pub fn detach(&mut self, v: VertexId) {
        let lvl = self.level[v as usize];
        assert_ne!(lvl, DETACHED, "vertex {v} is already detached");
        let li = lvl as usize;
        let s = self.slot[v as usize] as usize;
        debug_assert_eq!(self.levels[li][s], v, "slot table out of sync for vertex {v}");
        self.levels[li][s] = TOMB;
        self.live[li] -= 1;
        self.level[v as usize] = DETACHED;
        // Opportunistic compaction keeps iteration linear in live size.
        if self.levels[li].len() > 2 * self.live[li] + 8 {
            self.compact_level(lvl);
        }
    }

    fn compact_level(&mut self, lvl: u32) {
        let li = lvl as usize;
        let mut seq = std::mem::take(&mut self.levels[li]);
        seq.retain(|&v| v != TOMB);
        for (i, &v) in seq.iter().enumerate() {
            self.slot[v as usize] = i as u32;
        }
        self.levels[li] = seq;
    }

    /// Append a detached vertex at the end of `lvl` (after every live
    /// member). Used by the deletion path: a vertex demoted from `lvl + 1`
    /// is valid at the very end of `lvl` — its remaining support there
    /// equals its support at demotion time.
    pub fn append_to_level(&mut self, v: VertexId, lvl: u32) {
        assert_eq!(
            self.level[v as usize], DETACHED,
            "vertex {v} must be detached before appending"
        );
        self.push_to_level(v, lvl);
    }

    /// Install `ordered` as the complete content of `lvl`, assigning fresh
    /// labels in sequence order. Every vertex in `ordered` must currently be
    /// detached, and the level must currently be empty (all previous members
    /// detached first).
    pub fn install_level(&mut self, lvl: u32, ordered: &[VertexId]) {
        let li = lvl as usize;
        if li >= self.levels.len() {
            self.levels.resize_with(li + 1, Vec::new);
            self.live.resize(li + 1, 0);
        }
        assert_eq!(self.live[li], 0, "install_level({lvl}) requires the level to be emptied first");
        self.levels[li].clear();
        for (i, &v) in ordered.iter().enumerate() {
            assert_eq!(
                self.level[v as usize], DETACHED,
                "vertex {v} must be detached before installation"
            );
            self.level[v as usize] = lvl;
            self.label[v as usize] = (i as u64 + 1) * LABEL_GAP;
            self.slot[v as usize] = i as u32;
            self.levels[li].push(v);
        }
        self.live[li] = ordered.len();
    }

    /// Panic unless slots, levels, labels and live counts are mutually
    /// consistent. Used by [`crate::verify::assert_korder_valid`].
    pub fn assert_internal_consistency(&self) {
        let mut seen = vec![false; self.level.len()];
        for (li, seq) in self.levels.iter().enumerate() {
            let mut live = 0usize;
            let mut last_label = 0u64;
            for (s, &v) in seq.iter().enumerate() {
                if v == TOMB {
                    continue;
                }
                live += 1;
                assert!(!seen[v as usize], "vertex {v} appears twice in level sequences");
                seen[v as usize] = true;
                assert_eq!(self.level[v as usize] as usize, li, "level mismatch for {v}");
                assert_eq!(self.slot[v as usize] as usize, s, "slot mismatch for {v}");
                assert!(
                    self.label[v as usize] > last_label,
                    "labels not strictly increasing at vertex {v} in level {li}"
                );
                last_label = self.label[v as usize];
            }
            assert_eq!(live, self.live[li], "live count mismatch at level {li}");
        }
        for (v, &seen_v) in seen.iter().enumerate() {
            assert!(
                seen_v || self.level[v] == DETACHED,
                "vertex {v} has a level but is in no sequence"
            );
            assert!(
                self.level[v] != DETACHED || !seen_v,
                "vertex {v} is detached but present in a sequence"
            );
            assert_ne!(self.level[v], DETACHED, "vertex {v} left detached");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_graph::Graph;

    fn diamond() -> Graph {
        // 4-cycle with a chord plus pendant: cores 2,2,2,2,1
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]).unwrap()
    }

    #[test]
    fn from_decomposition_matches_cores() {
        let g = diamond();
        let d = CoreDecomposition::compute(&g);
        let ko = KOrder::from_decomposition(&d);
        for v in g.vertices() {
            assert_eq!(ko.core(v), d.core(v));
        }
        assert_eq!(ko.live_count(2), 4);
        assert_eq!(ko.live_count(1), 1);
        ko.assert_internal_consistency();
    }

    #[test]
    fn precedes_matches_decomposition_order() {
        let g = diamond();
        let d = CoreDecomposition::compute(&g);
        let ko = KOrder::from_decomposition(&d);
        for u in g.vertices() {
            for v in g.vertices() {
                if u != v {
                    assert_eq!(ko.precedes(u, v), d.precedes(u, v), "({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn deg_plus_matches_decomposition() {
        let g = diamond();
        let d = CoreDecomposition::compute(&g);
        let ko = KOrder::from_decomposition(&d);
        for v in g.vertices() {
            assert_eq!(ko.deg_plus(&g, v), d.deg_plus(&g, v));
        }
    }

    #[test]
    fn iter_level_respects_order() {
        let g = diamond();
        let ko = KOrder::from_graph(&g);
        let lvl2: Vec<_> = ko.iter_level(2).collect();
        assert_eq!(lvl2.len(), 4);
        for w in lvl2.windows(2) {
            assert!(ko.precedes(w[0], w[1]));
        }
    }

    #[test]
    fn detach_and_reinstall_round_trip() {
        let g = diamond();
        let mut ko = KOrder::from_graph(&g);
        let members: Vec<_> = ko.iter_level(2).collect();
        for &v in &members {
            ko.detach(v);
        }
        assert_eq!(ko.live_count(2), 0);
        // Reinstall in reverse order — the index accepts any sequence.
        let reversed: Vec<_> = members.iter().rev().copied().collect();
        ko.install_level(2, &reversed);
        assert_eq!(ko.iter_level(2).collect::<Vec<_>>(), reversed);
        ko.assert_internal_consistency();
    }

    #[test]
    #[should_panic(expected = "emptied first")]
    fn install_requires_empty_level() {
        let g = diamond();
        let mut ko = KOrder::from_graph(&g);
        let members: Vec<_> = ko.iter_level(2).collect();
        ko.install_level(2, &members);
    }

    #[test]
    #[should_panic(expected = "already detached")]
    fn double_detach_panics() {
        let g = diamond();
        let mut ko = KOrder::from_graph(&g);
        ko.detach(4);
        ko.detach(4);
    }

    #[test]
    fn compaction_keeps_iteration_correct() {
        // Build a bigger level, detach most of it, ensure iteration still
        // sees exactly the survivors in order.
        let mut edges = Vec::new();
        for i in 0..20u32 {
            edges.push((i, (i + 1) % 20)); // 20-cycle, all core 2
        }
        let g = Graph::from_edges(20, edges).unwrap();
        let mut ko = KOrder::from_graph(&g);
        let members: Vec<_> = ko.iter_level(2).collect();
        assert_eq!(members.len(), 20);
        for &v in &members[..15] {
            ko.detach(v);
        }
        let rest: Vec<_> = ko.iter_level(2).collect();
        assert_eq!(rest, members[15..].to_vec());
        for w in rest.windows(2) {
            assert!(ko.precedes(w[0], w[1]));
        }
        // Reinstall the detached ones at level 1 to restore full coverage.
        ko.install_level(1, &members[..15]);
        ko.assert_internal_consistency();
    }

    #[test]
    fn install_extends_level_storage() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut ko = KOrder::from_graph(&g);
        ko.detach(0);
        ko.install_level(7, &[0]);
        assert_eq!(ko.core(0), 7);
        assert_eq!(ko.iter_level(7).collect::<Vec<_>>(), vec![0]);
    }
}
