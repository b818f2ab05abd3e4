//! Bounded K-order maintenance under edge churn (§5.2 of the paper).
//!
//! [`MaintainedCore`] bundles a graph with an always-valid [`KOrder`] and
//! updates both *locally* when edges are inserted (`EdgeInsert`,
//! Algorithm 4) or deleted (`EdgeRemove`, Algorithm 5). The K-order and
//! its repair come from Zhang et al., "A Fast Order-Based Approach for
//! Core Maintenance" (ICDE 2017). A batch's insertions are repaired
//! together; a single inserted edge is a batch of one. Deletions are
//! applied edge at a time, which reduces them to the single-edge theorem:
//! deleting `(u, v)` can only lower core numbers, only for vertices with
//! core `K = min(core(u), core(v))`, and only by 1.
//!
//! # Insertion
//!
//! Insertions can only raise core numbers. Once a batch's edges are in
//! the graph, the only vertices whose remaining degree `deg+` grew are
//! the ⪯-smaller endpoints `w` of the new edges (the larger endpoint gains
//! a neighbour *before* it, which `deg+` does not count). The old removal
//! order therefore replays verbatim — and every core stays put — unless
//! some `w` now has `deg+(w) > core(w)` (the paper's Lemma 2,
//! contrapositive). The *screen* checks exactly that; such a `w` is a
//! *dirty endpoint* of its level. This fast path covers most random churn.
//!
//! Dirty levels are then repaired bottom-up. A level `K` is *re-peeled*:
//! a queue peel removes level-`K` vertices whose support (neighbours of
//! core > K plus unremoved level-`K` peers) is ≤ K. The peel survivors are
//! exactly the level-`K` vertices whose core rises. They are *carried*
//! into level `K+1`, which is re-peeled whole with them in front, and so
//! on upward while survivors remain — which is how a batch can lift a
//! vertex by more than one level. Levels below the lowest dirty level,
//! and levels a repair never reaches, are untouched.
//!
//! A level that receives no carry is re-peeled only from its ⪯-earliest
//! dirty endpoint. Every vertex before that endpoint still has
//! `deg+ ≤ K`: its later neighbours are what they were, or it is a clean
//! endpoint of a new edge. So the old prefix is a legal start of the
//! level's peel and replays verbatim, and the suffix is re-peeled with the
//! prefix treated as already removed. For a one-edge batch this is the
//! classic single-edge repair: one suffix re-peel of level `K`, then one
//! re-peel of level `K+1` when some core rose.
//!
//! # Deletion
//!
//! The classic mcd cascade (Lemma 4): starting from the endpoint(s) with
//! core `K`, any vertex whose support among core-≥K neighbours drops below
//! `K` is demoted, propagating to same-core neighbours. Demoted vertices
//! are detached from level `K` (tombstones keep the remainder valid — every
//! remaining vertex only *loses* later neighbours) and appended to the end
//! of level `K-1`.
//!
//! Both repairs produce removal sequences that satisfy the validity
//! invariant documented in [`crate`]; `verify::assert_korder_valid` is
//! exercised after every operation in the test suite, and the from-scratch
//! [`crate::CoreDecomposition`] is the oracle the maintained cores are
//! compared against.

use std::collections::BTreeMap;

use avt_graph::{Edge, EdgeBatch, Graph, GraphError, VertexId};

use crate::korder::KOrder;
use crate::shell::filter_alive;

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
    /// Per-vertex filter output reused across peel iterations.
    targets: Vec<VertexId>,
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
    /// Cumulative count of vertices visited by re-peels; feeds the paper's
    /// "visited vertices" efficiency metric (Figures 4, 6, 8).
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

    /// Vertices the maintenance peels have visited so far.
    pub fn visited_vertices(&self) -> u64 {
        self.visited
    }

    /// Consume self, returning the parts.
    pub fn into_parts(self) -> (Graph, KOrder) {
        (self.graph, self.korder)
    }

    /// Insert one edge and repair the K-order: a one-edge batch (see the
    /// module docs). Returns the promoted vertices.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<ChangeSet, GraphError> {
        let mut changes = ChangeSet::default();
        self.insert_batch(&[Edge { u, v }], &mut changes)?;
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
    /// The insertions are screened and repaired together (see the module
    /// docs). Deletions run edge at a time after them: the demotion
    /// cascade is inherently sequential and deletions are the minority of
    /// churn.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<ChangeSet, GraphError> {
        let mut changes = ChangeSet::default();
        self.insert_batch(&batch.insertions, &mut changes)?;
        for e in &batch.deletions {
            changes.absorb(self.remove_edge(e.u, e.v)?);
        }
        changes.dedup();
        Ok(changes)
    }

    /// Insert `edges` and repair the K-order, adding the promoted vertices
    /// to `changes`: adjacency pushes, the dirty screen, then one
    /// bottom-up repair (module docs).
    fn insert_batch(&mut self, edges: &[Edge], changes: &mut ChangeSet) -> Result<(), GraphError> {
        // Validation is up-front, so a rejected batch leaves the graph
        // untouched, and the graph it produces is bit-identical to an
        // edge-at-a-time insertion loop.
        self.graph.insert_edges(edges)?;
        let mut dirty = screen(&self.graph, &self.korder, edges);

        // Bottom-up repair. `carry` holds detached survivors being spliced
        // upward; a level is peeled when it is dirty or when a carry
        // reaches it.
        let mut carry: Vec<VertexId> = Vec::new();
        let mut k = 0u32;
        loop {
            // Without a carry, the prefix before the level's ⪯-earliest
            // dirty endpoint replays verbatim; with one, the whole level is
            // re-peeled.
            let from = if carry.is_empty() {
                match dirty.pop_first() {
                    Some((lvl, w)) => {
                        k = lvl;
                        Some(self.korder.order_key(w))
                    }
                    None => break,
                }
            } else {
                dirty.remove(&k);
                None
            };
            let mut level: Vec<VertexId> = self.korder.iter_level(k).collect();
            let skip =
                from.map_or(0, |key| level.partition_point(|&x| self.korder.order_key(x) < key));
            // Carry first: survivors precede the old members in the member
            // seed order.
            let mut members = std::mem::take(&mut carry);
            members.extend_from_slice(&level[skip..]);
            let (order, survivors) = self.peel_level(k, &members);
            debug_assert_eq!(
                order.len() + survivors.len(),
                members.len(),
                "peel at level {k} lost vertices"
            );
            for &x in &level {
                self.korder.detach(x);
            }
            level.truncate(skip);
            level.extend_from_slice(&order);
            self.korder.install_level(k, &level);
            changes.promoted.extend_from_slice(&survivors);
            carry = survivors;
            k += 1;
        }
        Ok(())
    }

    /// Queue-peel the given members at `lvl`: repeatedly remove any member
    /// whose support (neighbours of core > `lvl`, plus unremoved member
    /// peers) is ≤ `lvl`. Returns the removal order and the survivors (in
    /// member order).
    fn peel_level(&mut self, lvl: u32, members: &[VertexId]) -> (Vec<VertexId>, Vec<VertexId>) {
        let epoch = self.scratch.next_epoch();
        let sc = &mut self.scratch;
        for &m in members {
            sc.member[m as usize] = epoch;
        }
        // Initial supports: member peers count while unremoved (checked
        // first so detached members never reach `core()`), outsiders count
        // when they live strictly above this level. The count reads the
        // raw level array, where detachment's `u32::MAX` sentinel would
        // compare as "above" — safe, because the only vertices ever
        // detached during a re-peel are the carry survivors, and those are
        // members, counted by the member branch.
        let level = self.korder.levels_raw();
        for &m in members {
            sc.support[m as usize] = self
                .graph
                .neighbors(m)
                .iter()
                .filter(|&&w| sc.member[w as usize] == epoch || level[w as usize] > lvl)
                .count() as u32;
        }
        self.visited += members.len() as u64;

        sc.queue.clear();
        for &m in members {
            if sc.support[m as usize] <= lvl {
                sc.queued[m as usize] = epoch;
                sc.queue.push(m);
            }
        }

        // Fixpoint: each popped vertex decrements its still-alive member
        // neighbours. Pre-filtering the whole range is exact — neighbour
        // lists hold distinct vertices, so the stamps a pop writes can't
        // affect later entries of its own range.
        let mut targets = std::mem::take(&mut sc.targets);
        let mut order = Vec::with_capacity(members.len());
        let mut head = 0usize;
        while head < sc.queue.len() {
            let x = sc.queue[head];
            head += 1;
            sc.removed[x as usize] = epoch;
            order.push(x);
            filter_alive(
                self.graph.neighbors(x),
                &sc.member,
                &sc.removed,
                &sc.queued,
                epoch,
                &mut targets,
            );
            for &w in &targets {
                let wi = w as usize;
                sc.support[wi] -= 1;
                if sc.support[wi] <= lvl {
                    sc.queued[wi] = epoch;
                    sc.queue.push(w);
                }
            }
        }
        sc.targets = targets;
        self.visited += order.len() as u64;

        let survivors: Vec<VertexId> =
            members.iter().copied().filter(|&m| sc.removed[m as usize] != epoch).collect();
        (order, survivors)
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

/// The screen: over the ⪯-smaller endpoints `w` of the new edges, the
/// dirty ones — those with `deg+(w) > core(w)` in the updated graph —
/// keyed by level, keeping each level's ⪯-earliest one. `korder` is the
/// pre-batch order.
fn screen(graph: &Graph, korder: &KOrder, edges: &[Edge]) -> BTreeMap<u32, VertexId> {
    let mut dirty: BTreeMap<u32, VertexId> = BTreeMap::new();
    for e in edges {
        let w = if korder.precedes(e.u, e.v) { e.u } else { e.v };
        if korder.deg_plus(graph, w) > korder.core(w) {
            dirty
                .entry(korder.core(w))
                .and_modify(|earliest| {
                    if korder.precedes(w, *earliest) {
                        *earliest = w;
                    }
                })
                .or_insert(w);
        }
    }
    dirty
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
        let mut g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let mut mc = MaintainedCore::new(g.clone());
        // Cores hold still, then rise (the K4 on 0..4), then fall again.
        let batches = [
            EdgeBatch::from_pairs([(0, 3), (1, 4)], [(2, 3)]),
            EdgeBatch::from_pairs([(0, 4), (1, 3), (2, 3)], []),
            EdgeBatch::from_pairs([], [(0, 1), (3, 5)]),
        ];
        for batch in &batches {
            let before = CoreDecomposition::compute(&g);
            let ch = mc.apply_batch(batch).unwrap();
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

    #[test]
    fn repair_starts_at_the_earliest_dirty_endpoint() {
        // Three disjoint 5-cycles: one level, core 2. A chord from a
        // cycle's ⪯-first vertex (already two later neighbours) makes that
        // vertex dirty but raises no core. With chords in the second and
        // third cycles, the repair re-peels level 2 from the ⪯-earlier of
        // the two, and every suffix vertex is visited twice: once to count
        // its support, once when the peel removes it.
        let edges: Vec<(VertexId, VertexId)> =
            (0..15).map(|v| (v, v / 5 * 5 + (v + 1) % 5)).collect();
        let mut mc = MaintainedCore::new(Graph::from_edges(15, edges).unwrap());
        let level = mc.korder().level_members(2);
        assert_eq!(level.len(), 15);
        let mut chords = Vec::new();
        for cycle in [1u32, 2] {
            let w = *level.iter().find(|&&v| v / 5 == cycle).expect("cycle on level 2");
            assert_eq!(mc.korder().deg_plus(mc.graph(), w), 2);
            chords.push((w, cycle * 5 + (w + 2) % 5));
        }
        let from = level.iter().position(|&v| v == chords[0].0 || v == chords[1].0).unwrap();
        assert!(from > 0, "the prefix must be non-empty for the skip to show");

        let visited = mc.visited_vertices();
        let ch = mc.apply_batch(&EdgeBatch::from_pairs(chords, [])).unwrap();
        assert!(ch.is_empty());
        assert_eq!(mc.visited_vertices() - visited, 2 * (level.len() - from) as u64);
        assert!(mc.graph().vertices().all(|v| mc.core(v) == 2));
        assert_synced(&mc);
    }

    #[test]
    fn batch_promotes_across_multiple_levels() {
        // One batch that lifts a vertex by more than one level: vertex 5
        // starts isolated (core 0) and the batch wires it into a K5's
        // worth of edges, so the carry must ascend through several peels.
        let g = Graph::from_edges(
            6,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        )
        .unwrap();
        let mut mc = MaintainedCore::new(g);
        assert_eq!(mc.core(5), 0);
        let batch = EdgeBatch::from_pairs([(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)], []);
        let ch = mc.apply_batch(&batch).unwrap();
        assert!(mc.graph().vertices().all(|v| mc.core(v) == 5));
        assert_eq!(ch.promoted.len(), 6);
        assert_synced(&mc);
    }

    #[test]
    fn batch_rejects_bad_edges() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let mut mc = MaintainedCore::new(g);
        let dup = EdgeBatch::from_pairs([(0, 1)], []);
        assert!(mc.apply_batch(&dup).is_err());
        let missing = EdgeBatch::from_pairs([], [(1, 2)]);
        assert!(mc.apply_batch(&missing).is_err());
        assert_synced(&mc);
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
