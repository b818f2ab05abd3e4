//! Bounded K-order maintenance under edge churn (§5.2 of the paper).
//!
//! [`MaintainedCore`] bundles a graph with an always-valid [`KOrder`] and
//! updates both *locally* when edges are inserted (`EdgeInsert`,
//! Algorithm 4) or deleted (`EdgeRemove`, Algorithm 5). The K-order and
//! its repair come from Zhang et al., "A Fast Order-Based Approach for
//! Core Maintenance" (ICDE 2017). Both repairs run edge at a time, which
//! reduces each to a single-edge theorem: inserting or deleting `(u, v)`
//! can change core numbers only for vertices with core
//! `K = min(core(u), core(v))`, and only by 1. A batch too big to repair
//! is decomposed instead (see *Heavy batches*).
//!
//! # Insertion
//!
//! Inserting `(u, v)` with `u ⪯ v` grows the remaining degree `deg+` of
//! `u` alone: `v` gains a neighbour *before* it, which `deg+` does not
//! count. If still `deg+(u) ≤ K`, the old removal order replays verbatim
//! and no core moves (the paper's Lemma 2, contrapositive); this covers
//! most random churn.
//!
//! Otherwise the order-based insertion of Zhang et al. walks level `K`
//! forward from `u`, in K-order, through a heap keyed by label. It
//! examines `u` and every vertex `w` with `deg*(w) > 0`, the number of
//! *candidate* neighbours before `w`; no other level-`K` vertex can change.
//! If `deg*(w) + deg+(w) > K`, `w` cannot be removed at its slot once the
//! candidates move up, so `w` becomes a candidate and raises `deg*` of its
//! later level-`K` neighbours. Otherwise `w` stays, and each candidate
//! neighbour loses `w`'s support. A candidate left with `K` or less is
//! *evicted*: it stays in level `K`, linked right after the vertex that
//! evicted it (after `w`, or after the previous eviction of the same
//! cascade), and its own neighbours lose its support in turn. When the
//! heap runs dry, the candidates left are exactly the vertices whose core
//! rises. They move, in the order they became candidates, to the front of
//! level `K+1`. Every move takes its label from a gap of the [`KOrder`],
//! so a level is rewritten only when a gap runs out, and the walk costs
//! the degrees of the vertices it examines, however large level `K` is.
//!
//! # Deletion
//!
//! The classic mcd cascade (Lemma 4): starting from the endpoint(s) with
//! core `K`, any vertex whose support among core-≥K neighbours drops below
//! `K` is demoted, propagating to same-core neighbours. Demoted vertices
//! are detached from level `K` (every remaining vertex only *loses* later
//! neighbours) and appended to the end of level `K-1`.
//!
//! # Heavy batches
//!
//! A temporal window can replace a large share of the graph in one batch,
//! and then one decomposition costs less than repairing edge by edge.
//! [`MaintainedCore::apply_batch`] therefore decomposes a batch whose
//! churn reaches 5 % of `n + m`: once after its insertions and once
//! after its deletions, so the [`ChangeSet`] means the same on both
//! branches (the vertices promoted over the insertion phase, and those
//! demoted over the deletion phase). The K-order is rebuilt from the last
//! decomposition. It orders each level differently from a repair, but the
//! cores and change sets are the same.
//!
//! Every path produces removal sequences that satisfy the validity
//! invariant documented in [`crate`]; `verify::assert_korder_valid` is
//! exercised after every operation in the test suite, and the from-scratch
//! [`crate::CoreDecomposition`] is the oracle the maintained cores are
//! compared against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use avt_graph::{EdgeBatch, Graph, GraphError, VertexId};

use crate::decompose::CoreDecomposition;
use crate::korder::KOrder;

/// A batch is decomposed instead of repaired once its churn (insertions
/// plus deletions) reaches `(n + m) / REBUILD_SHARE`, 5 %. Measured on 2
/// vCPU as the time to repair one batch over the time to decompose it,
/// from the same state: on random batches, half insertions and half
/// deletions, over the email-Enron, Gnutella, Deezer and mathoverflow
/// stand-ins at scales 0.1 and 0.5, the ratio was 0.05–0.11 at 0.5 %
/// churn, 0.51–1.35 at 5 % and 0.83–9.5 at 10 %. The fig3 streams sit far
/// to either side: static churn is about 0.2 % of `n + m` per batch, and
/// the temporal windows of eu-core, mathoverflow and CollegeMsg churn
/// 5.4–24 % per batch, where the ratio was 0.9–3.1.
const REBUILD_SHARE: usize = 20;

/// Vertices whose core number changed while applying updates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    /// Vertices whose core number increased (deduplicated, unordered).
    pub promoted: Vec<VertexId>,
    /// Vertices whose core number decreased (deduplicated, unordered).
    pub demoted: Vec<VertexId>,
}

impl ChangeSet {
    /// True when no core number changed.
    pub fn is_empty(&self) -> bool {
        self.promoted.is_empty() && self.demoted.is_empty()
    }

    /// Union of promoted and demoted vertices, deduplicated.
    pub fn changed_vertices(&self) -> Vec<VertexId> {
        let mut out = self.promoted.clone();
        out.extend_from_slice(&self.demoted);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn absorb(&mut self, mut other: ChangeSet) {
        self.promoted.append(&mut other.promoted);
        self.demoted.append(&mut other.demoted);
    }

    fn dedup(&mut self) {
        self.promoted.sort_unstable();
        self.promoted.dedup();
        self.demoted.sort_unstable();
        self.demoted.dedup();
    }
}

/// Epoch-stamped scratch space so maintenance never allocates per edge.
#[derive(Debug, Clone)]
struct Scratch {
    epoch: u32,
    member: Vec<u32>,
    removed: Vec<u32>,
    queued: Vec<u32>,
    support: Vec<u32>,
    queue: Vec<VertexId>,
    /// Per-vertex neighbour subset reused across the insertion walk.
    targets: Vec<VertexId>,
    /// The insertion walk's frontier, keyed by label.
    heap: BinaryHeap<Reverse<(u64, VertexId)>>,
    /// The insertion walk's candidates, in the order they became one.
    candidates: Vec<VertexId>,
    /// The insertion walk's evictions: `(p, e)` links `e` right after `p`.
    moves: Vec<(VertexId, VertexId)>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            epoch: 0,
            member: vec![0; n],
            removed: vec![0; n],
            queued: vec![0; n],
            support: vec![0; n],
            queue: Vec::new(),
            targets: Vec::new(),
            heap: BinaryHeap::new(),
            candidates: Vec::new(),
            moves: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.member.fill(0);
            self.removed.fill(0);
            self.queued.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// A candidate `c` of the insertion walk on level `k` loses one
    /// supporter; it is queued for eviction once it has `k` or fewer.
    fn lose(&mut self, c: VertexId, k: u32, epoch: u32) {
        let ci = c as usize;
        self.support[ci] -= 1;
        if self.support[ci] <= k && self.queued[ci] != epoch {
            self.queued[ci] = epoch;
            self.queue.push(c);
        }
    }
}

/// A graph with an incrementally maintained, always-valid K-order.
///
/// # Example
///
/// ```
/// use avt_graph::Graph;
/// use avt_kcore::MaintainedCore;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0)]).unwrap();
/// let mut mc = MaintainedCore::new(g);
/// assert_eq!(mc.core(3), 0);
/// // Tie vertex 3 into the triangle twice: its core rises to 2 and the
/// // change set reports the promotion.
/// mc.insert_edge(3, 0).unwrap();
/// let changes = mc.insert_edge(3, 1).unwrap();
/// assert_eq!(mc.core(3), 2);
/// assert!(changes.promoted.contains(&3));
/// ```
#[derive(Debug, Clone)]
pub struct MaintainedCore {
    graph: Graph,
    korder: KOrder,
    scratch: Scratch,
    /// Cumulative count of vertices the maintenance visited; feeds the
    /// paper's "visited vertices" efficiency metric (Figures 4, 6, 8).
    visited: u64,
}

impl MaintainedCore {
    /// Build the initial K-order for `graph` (O(n + m)).
    pub fn new(graph: Graph) -> Self {
        let korder = KOrder::from_graph(&graph);
        let n = graph.num_vertices();
        MaintainedCore { graph, korder, scratch: Scratch::new(n), visited: 0 }
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The maintained K-order.
    pub fn korder(&self) -> &KOrder {
        &self.korder
    }

    /// Core number of `v`.
    pub fn core(&self, v: VertexId) -> u32 {
        self.korder.core(v)
    }

    /// Vertices the maintenance has visited so far: each vertex the
    /// insertion walk examines, each vertex whose support the deletion
    /// cascade counts, and `n` per decomposition of a heavy batch.
    pub fn visited_vertices(&self) -> u64 {
        self.visited
    }

    /// Insert one edge and repair the K-order (see the module docs).
    /// Returns the promoted vertices.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<ChangeSet, GraphError> {
        self.graph.insert_edge(u, v)?;
        let mut changes = ChangeSet::default();
        self.order_insert(u, v, &mut changes.promoted);
        changes.dedup();
        Ok(changes)
    }

    /// Delete one edge and repair the K-order. Returns the demoted
    /// vertices.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<ChangeSet, GraphError> {
        self.graph.remove_edge(u, v)?;
        let (cu, cv) = (self.korder.core(u), self.korder.core(v));
        let k = cu.min(cv);
        debug_assert!(k >= 1, "an existing edge implies both endpoints had core >= 1");

        let mut seeds: Vec<VertexId> = Vec::with_capacity(2);
        if cu == k {
            seeds.push(u);
        }
        if cv == k && v != u {
            seeds.push(v);
        }
        let demoted = self.demotion_cascade(k, &seeds);
        if demoted.is_empty() {
            return Ok(ChangeSet::default());
        }

        // Move the demoted vertices to the *end* of level K-1 in demotion
        // order. This is a valid placement on both sides:
        // * a demoted vertex's remaining support at its new slot equals
        //   its support at demotion time (≤ K-1 by construction) — the
        //   not-yet-demoted peers it counted are appended after it;
        // * nobody else's replay changes: the demoted vertices were
        //   ⪯-after every level-(K-1) vertex before (higher level) and
        //   still are; the level-K remainder only loses later neighbours.
        for &d in &demoted {
            self.korder.detach(d);
        }
        for &d in &demoted {
            self.korder.append_to_level(d, k - 1);
        }

        Ok(ChangeSet { promoted: Vec::new(), demoted })
    }

    /// Apply a full batch (insertions first, then deletions, matching
    /// `G ⊕ E+ ⊖ E-`), accumulating the change set. This is the paper's
    /// `EdgeInsert` + `EdgeRemove` pair from Algorithm 6, lines 7-8.
    ///
    /// The edges are repaired one at a time (see the module docs), unless
    /// the batch's churn reaches 5 % of `n + m`: such a batch is
    /// decomposed after its insertions and again after its deletions,
    /// which yields the same cores and the same change set. The
    /// insertions are validated before any is applied, so a rejected
    /// insertion leaves everything untouched.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<ChangeSet, GraphError> {
        let churn = batch.insertions.len() + batch.deletions.len();
        let heavy = churn * REBUILD_SHARE >= self.graph.num_vertices() + self.graph.num_edges();
        self.apply_batch_by(batch, heavy)
    }

    /// [`Self::apply_batch`] on the branch `rebuild` names: tests run both
    /// branches on the same stream.
    pub(crate) fn apply_batch_by(
        &mut self,
        batch: &EdgeBatch,
        rebuild: bool,
    ) -> Result<ChangeSet, GraphError> {
        if rebuild {
            return self.rebuild_batch(batch);
        }
        self.graph.check_insertions(&batch.insertions)?;
        let mut changes = ChangeSet::default();
        for e in &batch.insertions {
            self.graph.insert_edge(e.u, e.v).expect("insertions validated above");
            self.order_insert(e.u, e.v, &mut changes.promoted);
        }
        for e in &batch.deletions {
            changes.absorb(self.remove_edge(e.u, e.v)?);
        }
        changes.dedup();
        Ok(changes)
    }

    /// The heavy-batch branch: decompose after the insertions and again
    /// after the deletions, and rebuild the K-order from the last
    /// decomposition (module docs).
    fn rebuild_batch(&mut self, batch: &EdgeBatch) -> Result<ChangeSet, GraphError> {
        self.graph.insert_edges(&batch.insertions)?;
        let mut changes = ChangeSet::default();
        let mut last: Option<CoreDecomposition> = None;
        if !batch.insertions.is_empty() {
            let grown = self.decompose();
            changes.promoted = moved(self.korder.core_slice(), grown.cores());
            last = Some(grown);
        }
        let mut deleted = Ok(());
        if !batch.deletions.is_empty() {
            deleted = batch.deletions.iter().try_for_each(|e| self.graph.remove_edge(e.u, e.v));
            let shrunk = self.decompose();
            let before = last.as_ref().map_or(self.korder.core_slice(), |d| d.cores());
            changes.demoted = moved(before, shrunk.cores());
            last = Some(shrunk);
        }
        if let Some(d) = last {
            self.korder = KOrder::from_decomposition(&d);
        }
        deleted.map(|()| changes)
    }

    /// A from-scratch decomposition of the graph, charged `n` visits.
    fn decompose(&mut self) -> CoreDecomposition {
        self.visited += self.graph.num_vertices() as u64;
        CoreDecomposition::compute(&self.graph)
    }

    /// The order-based insertion of the edge `(a, b)`, which is already in
    /// the graph: walk level `K` from the edge's ⪯-smaller endpoint, then
    /// move the evicted and the promoted vertices (module docs). Pushes
    /// the promoted vertices onto `promoted`.
    fn order_insert(&mut self, a: VertexId, b: VertexId, promoted: &mut Vec<VertexId>) {
        let u = if self.korder.precedes(a, b) { a } else { b };
        let k = self.korder.core(u);
        let epoch = self.scratch.next_epoch();
        let sc = &mut self.scratch;
        let (level, label) = (self.korder.levels_raw(), self.korder.labels_raw());
        // Scratch roles: `member` = reached by the walk (in the heap or
        // examined); `support` = deg* until examined, then deg+ + deg* for
        // a candidate and 0 for a vertex that stays; `removed` =
        // candidate; `queued` = queued for eviction.
        sc.heap.clear();
        sc.candidates.clear();
        sc.moves.clear();
        sc.member[u as usize] = epoch;
        sc.support[u as usize] = 0;
        sc.heap.push(Reverse((label[u as usize], u)));
        while let Some(Reverse((_, w))) = sc.heap.pop() {
            let wi = w as usize;
            let star = sc.support[wi];
            if star == 0 && w != u {
                continue; // every candidate before it was evicted again
            }
            // deg+(w), and w's later neighbours on level K, in one scan.
            let key = (k, label[wi]);
            let mut plus = 0u32;
            sc.targets.clear();
            for &x in self.graph.neighbors(w) {
                let xk = (level[x as usize], label[x as usize]);
                if xk > key {
                    plus += 1;
                    if xk.0 == k {
                        sc.targets.push(x);
                    }
                }
            }
            self.visited += 1;
            if star + plus > k {
                sc.removed[wi] = epoch;
                sc.support[wi] = star + plus;
                sc.candidates.push(w);
                for &x in &sc.targets {
                    let xi = x as usize;
                    if sc.member[xi] != epoch {
                        sc.member[xi] = epoch;
                        sc.support[xi] = 0;
                        sc.heap.push(Reverse((label[xi], x)));
                    }
                    sc.support[xi] += 1;
                }
                continue;
            }
            // w stays: every candidate neighbour (all precede w) loses it.
            sc.support[wi] = 0;
            sc.queue.clear();
            for &c in self.graph.neighbors(w) {
                if sc.removed[c as usize] == epoch {
                    sc.lose(c, k, epoch);
                }
            }
            let (mut head, mut p) = (0usize, w);
            while head < sc.queue.len() {
                let e = sc.queue[head];
                head += 1;
                sc.removed[e as usize] = 0;
                sc.support[e as usize] = 0;
                sc.moves.push((p, e));
                p = e;
                // A candidate neighbour counted e as moving up with it; a
                // neighbour still in the heap counted e in its deg*.
                for &y in self.graph.neighbors(e) {
                    let yi = y as usize;
                    if level[yi] != k || sc.member[yi] != epoch {
                        continue;
                    }
                    if sc.removed[yi] == epoch {
                        sc.lose(y, k, epoch);
                    } else if sc.support[yi] > 0 {
                        sc.support[yi] -= 1;
                    }
                }
            }
        }

        // Relink: the promoted leave level K first, so the evictions take
        // their labels from the widest gaps.
        let start = promoted.len();
        promoted.extend(sc.candidates.iter().copied().filter(|&c| sc.removed[c as usize] == epoch));
        for &c in &promoted[start..] {
            self.korder.detach(c);
        }
        for &(p, e) in &sc.moves {
            self.korder.detach(e);
            self.korder.insert_after(p, e);
        }
        self.korder.prepend_to_level(k + 1, &promoted[start..]);
    }

    /// The mcd demotion cascade for level `k` after an edge deletion.
    /// Returns the demoted vertices in demotion order.
    ///
    /// A vertex's support must end up as "#neighbours with core ≥ k that
    /// were never demoted". Demotions reach a neighbour's support in
    /// exactly one of two ways — excluded at initialization (if the
    /// demotion was already *fully processed* when the vertex was first
    /// touched) or decremented (if it is processed afterwards) — never
    /// both. The `queued` stamp marks "fully processed": it is set only
    /// after a demoted vertex has finished decrementing its neighbours, so
    /// initializations racing with that very loop still count it and then
    /// receive the decrement.
    fn demotion_cascade(&mut self, k: u32, seeds: &[VertexId]) -> Vec<VertexId> {
        let epoch = self.scratch.next_epoch();
        // Scratch roles: `member` = support initialized, `removed` =
        // demoted, `queued` = demotion fully processed.
        let mut demoted: Vec<VertexId> = Vec::new();
        let mut head = 0usize;

        for &s in seeds {
            self.touch_support(k, s, epoch);
            if self.scratch.support[s as usize] < k && self.scratch.removed[s as usize] != epoch {
                self.scratch.removed[s as usize] = epoch;
                demoted.push(s);
            }
        }

        while head < demoted.len() {
            let x = demoted[head];
            head += 1;
            // Manual indexing instead of iterator to appease the borrow
            // checker across &mut self calls.
            for i in 0..self.graph.degree(x) {
                let y = self.graph.neighbors(x)[i];
                if self.korder.core(y) != k || self.scratch.removed[y as usize] == epoch {
                    continue;
                }
                self.touch_support(k, y, epoch);
                // x is not yet marked processed, so y's initialization
                // counted it; this decrement settles the account.
                self.scratch.support[y as usize] -= 1;
                if self.scratch.support[y as usize] < k {
                    self.scratch.removed[y as usize] = epoch;
                    demoted.push(y);
                }
            }
            self.scratch.queued[x as usize] = epoch;
        }
        self.visited += demoted.len() as u64;
        demoted
    }

    /// Initialize `support[v]` = #neighbours with core ≥ k whose demotion
    /// (if any) has not yet been fully processed. Idempotent per epoch.
    fn touch_support(&mut self, k: u32, v: VertexId, epoch: u32) {
        if self.scratch.member[v as usize] == epoch {
            return;
        }
        // Raw level array: no vertex is detached during the cascade, so
        // the count sees exactly what `core()` would return.
        let (level, queued) = (self.korder.levels_raw(), &self.scratch.queued);
        let s = self
            .graph
            .neighbors(v)
            .iter()
            .filter(|&&w| level[w as usize] >= k && queued[w as usize] != epoch)
            .count() as u32;
        self.scratch.support[v as usize] = s;
        self.scratch.member[v as usize] = epoch;
        self.visited += 1;
    }
}

/// The vertices whose core differs between `before` and `after`,
/// ascending.
fn moved(before: &[u32], after: &[u32]) -> Vec<VertexId> {
    before
        .iter()
        .zip(after)
        .enumerate()
        .filter_map(|(v, (b, a))| (b != a).then_some(v as VertexId))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::CoreDecomposition;
    use crate::verify::assert_korder_valid;

    fn assert_synced(mc: &MaintainedCore) {
        assert_korder_valid(mc.graph(), mc.korder());
    }

    #[test]
    fn insert_without_core_change_keeps_order_valid() {
        // Path 0-1-2-3: all core 1. Adding (0,2) creates a triangle.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        let ch = mc.insert_edge(0, 3).unwrap(); // 4-cycle: cores rise to 2
        assert_eq!(ch.promoted.len(), 4);
        assert_synced(&mc);
    }

    #[test]
    fn insert_promotes_triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        assert_eq!(mc.core(0), 1);
        let ch = mc.insert_edge(0, 2).unwrap();
        let mut promoted = ch.promoted.clone();
        promoted.sort_unstable();
        assert_eq!(promoted, vec![0, 1, 2]);
        assert!(mc.graph().vertices().all(|v| mc.core(v) == 2));
        assert_synced(&mc);
    }

    #[test]
    fn insert_into_isolated_vertex() {
        let g = Graph::new(3);
        let mut mc = MaintainedCore::new(g);
        let ch = mc.insert_edge(0, 1).unwrap();
        let mut promoted = ch.promoted;
        promoted.sort_unstable();
        assert_eq!(promoted, vec![0, 1]);
        assert_eq!(mc.core(0), 1);
        assert_eq!(mc.core(2), 0);
        assert_synced(&mc);
    }

    #[test]
    fn remove_demotes_triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        let ch = mc.remove_edge(0, 1).unwrap();
        let mut demoted = ch.demoted;
        demoted.sort_unstable();
        assert_eq!(demoted, vec![0, 1, 2]);
        assert!(mc.graph().vertices().all(|v| mc.core(v) == 1));
        assert_synced(&mc);
    }

    #[test]
    fn remove_last_edge_isolates() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        let ch = mc.remove_edge(0, 1).unwrap();
        assert_eq!(ch.demoted.len(), 2);
        assert_eq!(mc.core(0), 0);
        assert_eq!(mc.core(1), 0);
        assert_synced(&mc);
    }

    #[test]
    fn remove_without_core_change() {
        // K4 minus nothing: all core 3. Removing one edge drops everyone to 2.
        // But first: a pendant on a triangle — removing the pendant edge
        // demotes only the pendant.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        let ch = mc.remove_edge(2, 3).unwrap();
        assert_eq!(ch.demoted, vec![3]);
        assert_eq!(mc.core(3), 0);
        assert_eq!(mc.core(2), 2);
        assert_synced(&mc);
    }

    #[test]
    fn insert_then_remove_round_trips_cores() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        let before: Vec<u32> = mc.graph().vertices().map(|v| mc.core(v)).collect();
        mc.insert_edge(0, 2).unwrap();
        mc.remove_edge(0, 2).unwrap();
        let after: Vec<u32> = mc.graph().vertices().map(|v| mc.core(v)).collect();
        assert_eq!(before, after);
        assert_synced(&mc);
    }

    #[test]
    fn batch_application_matches_scratch() {
        for rebuild in [false, true] {
            let mut g =
                Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
                    .unwrap();
            let mut mc = MaintainedCore::new(g.clone());
            // Cores hold still, then rise (the K4 on 0..4), then fall again.
            let batches = [
                EdgeBatch::from_pairs([(0, 3), (1, 4)], [(2, 3)]),
                EdgeBatch::from_pairs([(0, 4), (1, 3), (2, 3)], []),
                EdgeBatch::from_pairs([], [(0, 1), (3, 5)]),
            ];
            for batch in &batches {
                let before = CoreDecomposition::compute(&g);
                let ch = mc.apply_batch_by(batch, rebuild).unwrap();
                g.apply_batch(batch).unwrap();
                let after = CoreDecomposition::compute(&g);
                for v in g.vertices() {
                    assert_eq!(mc.core(v), after.core(v), "vertex {v}");
                }
                assert_synced(&mc);
                // The change set names exactly the vertices whose core moved.
                let moved: Vec<VertexId> =
                    g.vertices().filter(|&v| before.core(v) != after.core(v)).collect();
                assert_eq!(ch.changed_vertices(), moved);
            }
        }
    }

    #[test]
    fn dense_growth_and_decay() {
        // Grow a clique edge by edge, then dismantle it, checking sync at
        // every step.
        let n = 7u32;
        let mut mc = MaintainedCore::new(Graph::new(n as usize));
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        for &(u, v) in &edges {
            mc.insert_edge(u, v).unwrap();
            assert_synced(&mc);
        }
        assert!(mc.graph().vertices().all(|v| mc.core(v) == n - 1));
        for &(u, v) in edges.iter().rev() {
            mc.remove_edge(u, v).unwrap();
            assert_synced(&mc);
        }
        assert!(mc.graph().vertices().all(|v| mc.core(v) == 0));
    }

    #[test]
    fn random_churn_stays_synced() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let n = 30usize;
        let mut mc = MaintainedCore::new(Graph::new(n));
        let mut present: Vec<(VertexId, VertexId)> = Vec::new();
        for step in 0..400 {
            let insert = present.is_empty() || rng.gen_bool(0.6);
            if insert {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u == v || mc.graph().has_edge(u, v) {
                    continue;
                }
                mc.insert_edge(u, v).unwrap();
                present.push(if u < v { (u, v) } else { (v, u) });
            } else {
                let i = rng.gen_range(0..present.len());
                let (u, v) = present.swap_remove(i);
                mc.remove_edge(u, v).unwrap();
            }
            if step % 20 == 0 {
                assert_synced(&mc);
            }
        }
        assert_synced(&mc);
    }

    #[test]
    fn dense_deletion_heavy_churn_stays_synced() {
        // Regression for the demotion cascade's support accounting: with a
        // dense graph, a vertex regularly has several demoted neighbours,
        // some fully processed before the vertex's first touch. Mixing up
        // "excluded at init" and "decremented later" either stalls the
        // k-1 re-peel (over-demotion) or corrupts cores (under-demotion).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1234);
        let n = 40usize;
        let mut g = Graph::new(n);
        let mut present: Vec<(VertexId, VertexId)> = Vec::new();
        while present.len() < 260 {
            let u = rng.gen_range(0..n) as VertexId;
            let v = rng.gen_range(0..n) as VertexId;
            if u != v && !g.has_edge(u, v) {
                g.insert_edge(u, v).unwrap();
                present.push(if u < v { (u, v) } else { (v, u) });
            }
        }
        let mut mc = MaintainedCore::new(g);
        // Deletion-heavy phase: verify after every single operation.
        for _ in 0..180 {
            let i = rng.gen_range(0..present.len());
            let (u, v) = present.swap_remove(i);
            mc.remove_edge(u, v).unwrap();
            assert_synced(&mc);
        }
    }

    #[test]
    fn batch_matches_per_edge_and_oracle() {
        // Random churn applied batch-wise must produce the same graph (bit
        // for bit) as edge-at-a-time `insert_edge` / `remove_edge`, the
        // same change sets, the cores of the from-scratch peel, and a
        // valid K-order of its own.
        use rand::{Rng, SeedableRng};
        for seed in [7u64, 99, 2024] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = 48usize;
            let mut per_edge = MaintainedCore::new(Graph::new(n));
            let mut batched = MaintainedCore::new(Graph::new(n));
            let mut present: Vec<(VertexId, VertexId)> = Vec::new();
            for _ in 0..25 {
                let mut ins = Vec::new();
                let mut del = Vec::new();
                for _ in 0..rng.gen_range(0..14usize) {
                    let u = rng.gen_range(0..n) as VertexId;
                    let v = rng.gen_range(0..n) as VertexId;
                    let e = (u.min(v), u.max(v));
                    if u != v && !per_edge.graph().has_edge(u, v) && !ins.contains(&e) {
                        ins.push(e);
                        present.push(e);
                    }
                }
                for _ in 0..rng.gen_range(0..4usize) {
                    if present.len() <= ins.len() {
                        break;
                    }
                    let i = rng.gen_range(0..present.len());
                    let e = present[i];
                    if !ins.contains(&e) && !del.contains(&e) {
                        present.swap_remove(i);
                        del.push(e);
                    }
                }
                let batch = EdgeBatch::from_pairs(ins, del);
                let mut reference = ChangeSet::default();
                for e in &batch.insertions {
                    reference.absorb(per_edge.insert_edge(e.u, e.v).unwrap());
                }
                for e in &batch.deletions {
                    reference.absorb(per_edge.remove_edge(e.u, e.v).unwrap());
                }
                reference.dedup();
                assert_synced(&per_edge);
                let oracle = CoreDecomposition::compute(per_edge.graph());
                for v in 0..n as VertexId {
                    assert_eq!(per_edge.core(v), oracle.core(v), "edge-at-a-time core({v})");
                }
                let ch = batched.apply_batch(&batch).unwrap();
                assert_eq!(ch, reference, "batched changes diverged");
                assert!(batched.graph().is_isomorphic_identity(per_edge.graph()));
                for v in 0..n as VertexId {
                    assert_eq!(batched.core(v), oracle.core(v), "batched core({v})");
                }
                assert_synced(&batched);
            }
        }
    }

    /// Vertices the insertion walk visits for a chord in the first of
    /// `cycles` disjoint 5-cycles, all on level 2.
    fn chord_visits(cycles: u32) -> u64 {
        let n = 5 * cycles;
        let edges: Vec<(VertexId, VertexId)> =
            (0..n).map(|v| (v, v / 5 * 5 + (v + 1) % 5)).collect();
        let mut mc = MaintainedCore::new(Graph::from_edges(n as usize, edges).unwrap());
        assert_eq!(mc.korder().live_count(2), n as usize);
        // A chord from the first cycle's ⪯-first vertex, which already has
        // two later neighbours: deg+ reaches 3 and the walk starts, but no
        // core rises (a 5-cycle with one chord has no 3-core).
        let w = mc.korder().iter_level(2).find(|&v| v < 5).expect("cycle on level 2");
        let visited = mc.visited_vertices();
        let ch = mc.insert_edge(w, (w + 2) % 5).unwrap();
        assert!(ch.is_empty());
        assert!(mc.graph().vertices().all(|v| mc.core(v) == 2));
        assert_synced(&mc);
        mc.visited_vertices() - visited
    }

    #[test]
    fn insertion_walk_is_local() {
        // The walk examines only the chord's cycle, however big level 2 is.
        let visits = chord_visits(3);
        assert!((1..=5).contains(&visits), "visited {visits}");
        assert_eq!(chord_visits(30), visits);
    }

    /// Apply `batches` to `initial` on both branches of `apply_batch`, and
    /// after every batch assert equal cores, equal change sets (those of
    /// the edge-at-a-time repair) and valid K-orders on both sides.
    fn assert_branches_agree(initial: &Graph, batches: &[EdgeBatch]) {
        let mut repaired = MaintainedCore::new(initial.clone());
        let mut rebuilt = MaintainedCore::new(initial.clone());
        let mut per_edge = MaintainedCore::new(initial.clone());
        for (i, batch) in batches.iter().enumerate() {
            let mut reference = ChangeSet::default();
            for e in &batch.insertions {
                reference.absorb(per_edge.insert_edge(e.u, e.v).unwrap());
            }
            for e in &batch.deletions {
                reference.absorb(per_edge.remove_edge(e.u, e.v).unwrap());
            }
            reference.dedup();
            let a = repaired.apply_batch_by(batch, false).unwrap();
            let b = rebuilt.apply_batch_by(batch, true).unwrap();
            assert_eq!(a, reference, "batch {i}: repaired change set");
            assert_eq!(b, reference, "batch {i}: rebuilt change set");
            assert_eq!(repaired.korder().core_slice(), rebuilt.korder().core_slice());
            assert!(repaired.graph().is_isomorphic_identity(rebuilt.graph()));
            assert_synced(&repaired);
            assert_synced(&rebuilt);
        }
    }

    #[test]
    fn branches_agree_on_random_streams() {
        use rand::{Rng, SeedableRng};
        for seed in [5u64, 77, 4096] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = 40usize;
            let mut g = Graph::new(n);
            let mut batches = Vec::new();
            for _ in 0..30 {
                let mut ins = Vec::new();
                for _ in 0..rng.gen_range(0..20usize) {
                    let u = rng.gen_range(0..n) as VertexId;
                    let v = rng.gen_range(0..n) as VertexId;
                    let e = (u.min(v), u.max(v));
                    if u != v && !g.has_edge(u, v) && !ins.contains(&e) {
                        ins.push(e);
                    }
                }
                let mut present: Vec<(VertexId, VertexId)> =
                    g.edges().map(|e| (e.u, e.v)).chain(ins.iter().copied()).collect();
                let mut del = Vec::new();
                for _ in 0..rng.gen_range(0..8usize) {
                    if present.is_empty() {
                        break;
                    }
                    del.push(present.swap_remove(rng.gen_range(0..present.len())));
                }
                let batch = EdgeBatch::from_pairs(ins, del);
                g.apply_batch(&batch).unwrap();
                batches.push(batch);
            }
            assert_branches_agree(&Graph::new(n), &batches);
        }
    }

    #[test]
    fn branches_agree_on_dataset_streams() {
        use avt_datasets::Dataset;
        // Static churn on a hub-heavy graph, and a temporal window whose
        // batches replace most of the graph.
        for (ds, scale) in [(Dataset::Deezer, 0.01), (Dataset::CollegeMsg, 0.05)] {
            let eg = ds.generate(scale, 8, 3);
            assert_branches_agree(eg.initial(), eg.batches());
        }
    }

    #[test]
    fn promotions_exhaust_the_front_gap() {
        // A 100-cycle (level 2) with a pendant on each of its first 70
        // vertices (level 1). Tying each pendant to the next cycle vertex
        // promotes it, alone, into the front of level 2: 70 moves into
        // the one gap below the level's first label, which halves each
        // time until the level is relabelled.
        let mut edges: Vec<(VertexId, VertexId)> = (0..100).map(|v| (v, (v + 1) % 100)).collect();
        edges.extend((0..70).map(|i| (100 + i, i)));
        let mut mc = MaintainedCore::new(Graph::from_edges(170, edges).unwrap());
        for i in 0..70 {
            let ch = mc.insert_edge(100 + i, i + 1).unwrap();
            assert_eq!(ch.promoted, vec![100 + i]);
            assert_eq!(mc.korder().iter_level(2).next(), Some(100 + i));
            assert_synced(&mc);
        }
        assert_eq!(mc.korder().live_count(2), 170);
    }

    #[test]
    fn batch_promotes_across_multiple_levels() {
        // One batch that lifts a vertex by more than one level: vertex 5
        // starts isolated (core 0) and the batch wires it into a K5's
        // worth of edges, so its core rises one level per edge.
        for rebuild in [false, true] {
            let g = Graph::from_edges(
                6,
                [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
            )
            .unwrap();
            let mut mc = MaintainedCore::new(g);
            assert_eq!(mc.core(5), 0);
            let batch = EdgeBatch::from_pairs([(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)], []);
            let ch = mc.apply_batch_by(&batch, rebuild).unwrap();
            assert!(mc.graph().vertices().all(|v| mc.core(v) == 5));
            assert_eq!(ch.promoted.len(), 6);
            assert_synced(&mc);
        }
    }

    #[test]
    fn batch_rejects_bad_edges() {
        for rebuild in [false, true] {
            let g = Graph::from_edges(3, [(0, 1)]).unwrap();
            let mut mc = MaintainedCore::new(g);
            let dup = EdgeBatch::from_pairs([(0, 1)], []);
            assert!(mc.apply_batch_by(&dup, rebuild).is_err());
            let missing = EdgeBatch::from_pairs([(1, 2)], [(0, 2)]);
            assert!(mc.apply_batch_by(&missing, rebuild).is_err());
            // The insertion went in; the K-order follows the graph.
            assert!(mc.graph().has_edge(1, 2));
            assert_synced(&mc);
        }
    }
    #[test]
    fn visited_counter_is_monotone() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        let v0 = mc.visited_vertices();
        mc.insert_edge(0, 3).unwrap();
        assert!(mc.visited_vertices() >= v0);
    }

    #[test]
    fn errors_propagate_and_leave_state_unchanged() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        assert!(mc.insert_edge(0, 1).is_err());
        assert!(mc.remove_edge(1, 2).is_err());
        assert_synced(&mc);
    }
}
