//! The K-order index (Definition 5 of the paper).
//!
//! A [`KOrder`] stores, for every vertex, its core number (*level*) and its
//! position inside the level's removal sequence (*label*), giving an O(1)
//! total-order comparison `u ⪯ v`. Each level is a doubly linked list in
//! removal order, threaded through two per-vertex arrays, and labels
//! ascend along it with gaps between them. A vertex moves in O(1): the
//! maintenance algorithms in [`crate::maintain`] unlink it and relink it
//! right after another vertex or at the front or end of a level, and its
//! new label comes from the gap at that spot. Only when a gap is used up
//! is that one level relabelled, in one pass.

use avt_graph::{GraphView, VertexId};

use crate::decompose::CoreDecomposition;

/// Level sentinel for vertices that are mid-surgery (unlinked from one
/// level and not yet linked into another). No query may observe this
/// state.
const DETACHED: u32 = u32::MAX;

/// The missing link: no previous / next vertex, or an empty level.
const NIL: VertexId = VertexId::MAX;

/// Gap between consecutive labels as a level is built or relabelled.
/// Moves take their labels from these gaps: a vertex linked in between two
/// others takes the midpoint of their labels, and vertices linked in front
/// of a level share the room below its first label. About twenty moves
/// into one spot halve a gap down to nothing, and then the level is
/// relabelled.
const LABEL_GAP: u64 = 1 << 20;

/// The K-order of a graph: per-vertex `(level, label)` plus a linked
/// removal sequence per level.
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
    prev: Vec<VertexId>,
    next: Vec<VertexId>,
    /// First and last vertex of each level ([`NIL`] when it is empty).
    head: Vec<VertexId>,
    tail: Vec<VertexId>,
    live: Vec<usize>,
}

impl KOrder {
    /// Build the K-order from a (non-anchored) decomposition.
    pub fn from_decomposition(d: &CoreDecomposition) -> Self {
        let n = d.cores().len();
        let levels = d.max_core() as usize + 1;
        let mut ko = KOrder {
            level: vec![DETACHED; n],
            label: vec![0; n],
            prev: vec![NIL; n],
            next: vec![NIL; n],
            head: vec![NIL; levels],
            tail: vec![NIL; levels],
            live: vec![0; levels],
        };
        // The decomposition order is already grouped by level (non-decreasing
        // core), so a single pass assigns labels in removal order.
        for &v in d.order() {
            ko.append_to_level(v, d.core(v));
        }
        ko
    }

    /// Build directly from a graph (decompose + index); accepts any
    /// [`GraphView`] substrate.
    pub fn from_graph<G: GraphView>(graph: &G) -> Self {
        Self::from_decomposition(&CoreDecomposition::compute(graph))
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

    /// Raw label array, the within-level half of [`Self::order_key`]. For
    /// the maintenance scans.
    #[inline]
    pub(crate) fn labels_raw(&self) -> &[u64] {
        &self.label
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
        let first = self.head.get(lvl as usize).copied().unwrap_or(NIL);
        std::iter::successors(Some(first).filter(|&v| v != NIL), move |&v| {
            Some(self.next[v as usize]).filter(|&w| w != NIL)
        })
    }

    /// Remove `v` from its level, leaving it detached. The caller must
    /// link it in again ([`Self::append_to_level`], [`Self::insert_after`]
    /// or [`Self::prepend_to_level`]) before any query touches it.
    pub(crate) fn detach(&mut self, v: VertexId) {
        let lvl = self.level[v as usize];
        assert_ne!(lvl, DETACHED, "vertex {v} is already detached");
        let li = lvl as usize;
        let (p, n) = (self.prev[v as usize], self.next[v as usize]);
        if p == NIL {
            self.head[li] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail[li] = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.live[li] -= 1;
        self.level[v as usize] = DETACHED;
    }

    /// Link the detached `v` into `lvl` between `p` and `n` (either may be
    /// [`NIL`], for the front or the end) with label `label`.
    fn link(&mut self, v: VertexId, lvl: u32, p: VertexId, n: VertexId, label: u64) {
        let li = lvl as usize;
        if li >= self.head.len() {
            self.head.resize(li + 1, NIL);
            self.tail.resize(li + 1, NIL);
            self.live.resize(li + 1, 0);
        }
        self.level[v as usize] = lvl;
        self.label[v as usize] = label;
        self.prev[v as usize] = p;
        self.next[v as usize] = n;
        if p == NIL {
            self.head[li] = v;
        } else {
            self.next[p as usize] = v;
        }
        if n == NIL {
            self.tail[li] = v;
        } else {
            self.prev[n as usize] = v;
        }
        self.live[li] += 1;
    }

    /// Append a detached vertex at the end of `lvl` (after every live
    /// member), one gap after the last label. Used by construction and by
    /// the deletion path: a vertex demoted from `lvl + 1` is valid at the
    /// very end of `lvl` — its remaining support there equals its support
    /// at demotion time.
    pub(crate) fn append_to_level(&mut self, v: VertexId, lvl: u32) {
        assert_eq!(
            self.level[v as usize], DETACHED,
            "vertex {v} must be detached before appending"
        );
        let last = self.tail.get(lvl as usize).copied().unwrap_or(NIL);
        let label = if last == NIL { LABEL_GAP } else { self.label[last as usize] + LABEL_GAP };
        self.link(v, lvl, last, NIL, label);
    }

    /// Link the detached `v` right after the live vertex `p`, in `p`'s
    /// level, with the midpoint label of the gap behind `p`.
    pub(crate) fn insert_after(&mut self, p: VertexId, v: VertexId) {
        assert_eq!(
            self.level[v as usize], DETACHED,
            "vertex {v} must be detached before insertion"
        );
        let lvl = self.level[p as usize];
        assert_ne!(lvl, DETACHED, "cannot insert after the detached vertex {p}");
        let n = self.next[p as usize];
        if n != NIL && self.label[n as usize] - self.label[p as usize] < 2 {
            self.relabel(lvl, LABEL_GAP);
        }
        let lo = self.label[p as usize];
        let label = if n == NIL { lo + LABEL_GAP } else { lo + (self.label[n as usize] - lo) / 2 };
        self.link(v, lvl, p, n, label);
    }

    /// Link the detached vertices of `run` at the front of `lvl`, in run
    /// order and before every live member, spreading their labels evenly
    /// below the level's first label.
    pub(crate) fn prepend_to_level(&mut self, lvl: u32, run: &[VertexId]) {
        let first = self.head.get(lvl as usize).copied().unwrap_or(NIL);
        if first == NIL {
            for &v in run {
                self.append_to_level(v, lvl);
            }
            return;
        }
        let slots = run.len() as u64 + 1;
        if self.label[first as usize] / slots == 0 {
            self.relabel(lvl, slots * LABEL_GAP);
        }
        let step = self.label[first as usize] / slots;
        let mut p = NIL;
        for (i, &v) in run.iter().enumerate() {
            assert_eq!(
                self.level[v as usize], DETACHED,
                "vertex {v} must be detached before insertion"
            );
            self.link(v, lvl, p, first, step * (i as u64 + 1));
            p = v;
        }
    }

    /// Relabel `lvl` one gap apart starting at `first`, keeping its order.
    fn relabel(&mut self, lvl: u32, first: u64) {
        let mut label = first;
        let mut v = self.head[lvl as usize];
        while v != NIL {
            self.label[v as usize] = label;
            label += LABEL_GAP;
            v = self.next[v as usize];
        }
    }

    /// Panic unless links, levels, labels and live counts are mutually
    /// consistent. Used by [`crate::verify::assert_korder_valid`].
    pub fn assert_internal_consistency(&self) {
        let mut seen = vec![false; self.level.len()];
        for li in 0..self.head.len() {
            let mut live = 0usize;
            let mut last_label = 0u64;
            let mut p = NIL;
            let mut v = self.head[li];
            while v != NIL {
                live += 1;
                assert!(!seen[v as usize], "vertex {v} appears twice in level sequences");
                seen[v as usize] = true;
                assert_eq!(self.level[v as usize] as usize, li, "level mismatch for {v}");
                assert_eq!(self.prev[v as usize], p, "back link mismatch for {v}");
                assert!(
                    self.label[v as usize] > last_label,
                    "labels not strictly increasing at vertex {v} in level {li}"
                );
                last_label = self.label[v as usize];
                p = v;
                v = self.next[v as usize];
            }
            assert_eq!(self.tail[li], p, "tail mismatch at level {li}");
            assert_eq!(live, self.live[li], "live count mismatch at level {li}");
        }
        for (v, &seen_v) in seen.iter().enumerate() {
            assert_ne!(self.level[v], DETACHED, "vertex {v} left detached");
            assert!(seen_v, "vertex {v} has a level but is in no sequence");
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
    fn detach_and_relink_round_trip() {
        let g = diamond();
        let mut ko = KOrder::from_graph(&g);
        let members: Vec<_> = ko.iter_level(2).collect();
        for &v in &members {
            ko.detach(v);
        }
        assert_eq!(ko.live_count(2), 0);
        assert_eq!(ko.iter_level(2).count(), 0);
        // Relink in reverse order — the index accepts any sequence — first
        // into the empty level, then in front of what it holds.
        let reversed: Vec<_> = members.iter().rev().copied().collect();
        ko.prepend_to_level(2, &reversed[1..]);
        ko.prepend_to_level(2, &reversed[..1]);
        assert_eq!(ko.iter_level(2).collect::<Vec<_>>(), reversed);
        ko.assert_internal_consistency();
    }

    #[test]
    #[should_panic(expected = "must be detached")]
    fn insert_requires_a_detached_vertex() {
        let g = diamond();
        let mut ko = KOrder::from_graph(&g);
        let members: Vec<_> = ko.iter_level(2).collect();
        ko.insert_after(members[0], members[1]);
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
    fn detach_keeps_iteration_correct() {
        // Detach most of a bigger level, ensure iteration still sees
        // exactly the survivors in order.
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
        // Relink the detached ones at level 1 to restore full coverage.
        for &v in &members[..15] {
            ko.append_to_level(v, 1);
        }
        ko.assert_internal_consistency();
    }

    #[test]
    fn append_extends_level_storage() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut ko = KOrder::from_graph(&g);
        ko.detach(0);
        ko.append_to_level(0, 7);
        assert_eq!(ko.core(0), 7);
        assert_eq!(ko.iter_level(7).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn exhausted_gaps_relabel_the_level() {
        // A 40-cycle is one level. Moving vertices one at a time into the
        // spot right after one vertex, or into the front of the level,
        // halves the gap there each time: 24 moves after one vertex use
        // that gap up once, 64 moves into the front use its gap up
        // several times over, and each relabel must keep the order
        // intact.
        let g = Graph::from_edges(40, (0..40u32).map(|v| (v, (v + 1) % 40))).unwrap();
        let mut ko = KOrder::from_graph(&g);
        let members: Vec<_> = ko.iter_level(2).collect();
        let mut expect = members.clone();
        let anchor = members[0];
        for &v in &members[16..] {
            ko.detach(v);
            ko.insert_after(anchor, v);
            expect.retain(|&x| x != v);
            expect.insert(1, v);
        }
        for round in 0..64 {
            let v = expect[expect.len() - 1 - round % 8];
            ko.detach(v);
            ko.prepend_to_level(2, &[v]);
            expect.retain(|&x| x != v);
            expect.insert(0, v);
        }
        assert_eq!(ko.iter_level(2).collect::<Vec<_>>(), expect);
        for w in expect.windows(2) {
            assert!(ko.precedes(w[0], w[1]));
        }
        ko.assert_internal_consistency();
    }
}
