//! The anchored core state: the shared engine behind every AVT algorithm.
//!
//! An [`AnchoredCoreState`] is a view of one snapshot `G_t` under a set of
//! committed anchors `S`. It stores the *anchored* core decomposition
//! (anchors are unpeelable, core `∞`) and answers, exactly:
//!
//! * membership of the anchored k-core `C_k(S)` and its size;
//! * **follower queries** `F_k(S ∪ {x}, G_t) \ F_k(S, G_t)` for a
//!   hypothetical extra anchor `x`, via the order-based local computation of
//!   §4.2 (forward closure + fixpoint — see below);
//! * the Theorem-3 **candidate set** — the only vertices whose anchoring
//!   can produce any followers.
//!
//! # Follower computation (Algorithm 3, reformulated)
//!
//! The paper computes followers by simulating OrderInsert with the anchor's
//! core set to infinity. We implement the same locality with two facts that
//! hold for any valid peel order (see `avt-kcore` crate docs):
//!
//! 1. Followers of a single extra anchor all lie in the (k-1)-shell of the
//!    anchored decomposition (ref. \[37\], used in Theorem 3).
//! 2. Support *gains* propagate only forward in the order: a shell vertex
//!    `w` can gain support only from the anchor or from an order-earlier
//!    shell vertex `v ⪯ w` that itself got promoted (if `w ⪯ v`, then `v`'s
//!    survival was already counted in `w`'s remaining degree).
//!
//! So the candidate region is the *forward closure*: seeds are neighbours
//! `v` of `x` with `core(v) = k-1 ∧ x ⪯ v`, expanded along edges `v → w`
//! with `core(w) = k-1 ∧ v ⪯ w`. On that region we run the exact anchored
//! peel (support = neighbours in `C_k(S)`, the anchor `x`, and unremoved
//! region peers; remove while support < k). The fixpoint survivors are
//! exactly the followers — the closure bounds *where* followers can be, the
//! peel decides *which* of them make it.
//!
//! ## The shell index
//!
//! Every region vertex is a shell vertex, yet most of a shell vertex's
//! neighbours lie outside the shell. The state therefore keeps, per
//! decomposition, an index of the (k-1)-shell: each shell vertex's *shell*
//! neighbours, in the frame's neighbour order, and its *engaged count*, the
//! number of its neighbours in `C_k(S)` (anchors included). A follower
//! query reads `x`'s own neighbour list in full and everything else from
//! the index:
//!
//! * closure expansion and the fixpoint keep only shell vertices
//!   (`core = k-1`, region membership), so filtering the shell slice gives
//!   the same vertices in the same order as filtering the full list;
//! * support is `engaged(v)` plus the region peers and `x` counted over the
//!   shell slice, plus one for each seed when `core(x) < k-1` (then `x` is
//!   in no slice, and its shell neighbours are exactly the seeds).
//!
//! This is exact because the region holds only shell vertices, and a shell
//! vertex's support from outside the shell — the engaged count — cannot
//! change until the next decomposition. The region, its push order, the
//! follower sets and every counter are those of the full-adjacency scan.
//!
//! The removal order is non-decreasing in core number and holds no
//! anchors, so the shell is one contiguous run of it and a shell vertex's
//! slot is its removal position minus the run's start. The first follower
//! query after each decomposition builds the index in O(vol(shell) +
//! log n); committing or uncommitting an anchor drops it.
//!
//! Committing an anchor re-runs the anchored decomposition (one O(n + m)
//! bucket peel). Commits are rare (at most `l` per snapshot); follower
//! queries are the hot path and stay local. A swap test that uncommits an
//! anchor and then keeps it does not peel again: the decomposition
//! depends only on the graph and the anchor flags, so the one set aside
//! at the uncommit, shell index included, is reinstated as is.

use avt_graph::{Graph, GraphView, VertexId};
use avt_kcore::decompose::CoreDecomposition;
use avt_kcore::{kernels, ANCHOR_CORE};

use crate::metrics::Metrics;

/// Anchored core decomposition of one snapshot with local follower queries.
///
/// Generic over the snapshot's [`GraphView`] substrate: per-snapshot
/// solvers instantiate it over frozen [`avt_graph::CsrGraph`] frames, the
/// incremental path over the mutable [`Graph`] it maintains. The default
/// type parameter keeps plain `AnchoredCoreState<'g>` meaning "state over a
/// mutable graph", which is what non-generic callers had before the
/// substrate split.
///
/// # Example
///
/// ```
/// use avt_graph::Graph;
/// use avt_core::AnchoredCoreState;
///
/// // Square 0-1-2-3 with one diagonal missing: 2-core is the square.
/// // Vertex 4 hangs off 0 and 1 with two edges: core 2? no — degree 2 but
/// // its neighbours are in the 2-core, so 4 is in the 2-core too. Use a
/// // pendant 5 instead (one edge): core 1.
/// let g = Graph::from_edges(6, [(0,1),(1,2),(2,3),(3,0),(4,0),(4,1),(5,0)]).unwrap();
/// let mut st = AnchoredCoreState::new(&g, 2);
/// assert_eq!(st.anchored_core_size(), 5); // everyone but the pendant
/// // Anchoring the pendant adds only itself (no followers).
/// assert_eq!(st.follower_count_of(5), 0);
/// ```
pub struct AnchoredCoreState<'g, G: GraphView = Graph> {
    graph: &'g G,
    k: u32,
    anchors: Vec<VertexId>,
    is_anchor: Vec<bool>,
    decomp: CoreDecomposition,
    core_size: usize,
    metrics: Metrics,
    // The (k-1)-shell index of `decomp`; `None` until the first follower
    // query after each decomposition.
    shell: Option<ShellIndex>,
    // Epoch-stamped scratch for follower queries (no per-query allocation).
    epoch: u32,
    in_region: Vec<u32>,
    removed: Vec<u32>,
    queued: Vec<u32>,
    support: Vec<u32>,
    region: Vec<VertexId>,
    queue: Vec<VertexId>,
    targets: Vec<VertexId>,
}

impl<'g, G: GraphView> AnchoredCoreState<'g, G> {
    /// State with no anchors committed.
    pub fn new(graph: &'g G, k: u32) -> Self {
        Self::with_anchors(graph, k, &[])
    }

    /// State with `anchors` committed (single decomposition pass).
    pub fn with_anchors(graph: &'g G, k: u32, anchors: &[VertexId]) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let n = graph.num_vertices();
        let mut is_anchor = vec![false; n];
        for &a in anchors {
            is_anchor[a as usize] = true;
        }
        let decomp = CoreDecomposition::compute_with_anchor_flags(graph, &is_anchor);
        AnchoredCoreState {
            graph,
            k,
            anchors: anchors.to_vec(),
            is_anchor,
            core_size: (kernels::ops().count_members_ge)(decomp.cores(), k),
            decomp,
            // The peel above is this state's first rebuild.
            metrics: Metrics { rebuilds: 1, vertices_visited: n as u64, ..Metrics::default() },
            shell: None,
            epoch: 0,
            in_region: vec![0; n],
            removed: vec![0; n],
            queued: vec![0; n],
            support: vec![0; n],
            region: Vec::new(),
            queue: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Recompute the anchored decomposition (O(n + m)) and return the one
    /// it replaces.
    fn rebuild(&mut self) -> CoreDecomposition {
        self.shell = None;
        let fresh = CoreDecomposition::compute_with_anchor_flags(self.graph, &self.is_anchor);
        self.core_size = (kernels::ops().count_members_ge)(fresh.cores(), self.k);
        self.metrics.rebuilds += 1;
        self.metrics.vertices_visited += self.graph.num_vertices() as u64;
        std::mem::replace(&mut self.decomp, fresh)
    }

    /// The snapshot this state views.
    pub fn graph(&self) -> &'g G {
        self.graph
    }

    /// The degree threshold `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Committed anchors, in commit order.
    pub fn anchors(&self) -> &[VertexId] {
        &self.anchors
    }

    /// Anchored core number of `v` ([`avt_kcore::ANCHOR_CORE`] for anchors).
    pub fn core(&self, v: VertexId) -> u32 {
        self.decomp.core(v)
    }

    /// True when `v` is in the anchored k-core `C_k(S)` (anchors included,
    /// per Definition 4).
    pub fn in_core(&self, v: VertexId) -> bool {
        self.decomp.core(v) >= self.k
    }

    /// `|C_k(S)|` — anchors count as members (Definition 4).
    pub fn anchored_core_size(&self) -> usize {
        self.core_size
    }

    /// The K-order relation under the anchored decomposition.
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        self.decomp.precedes(u, v)
    }

    /// A copy of the current (anchored) core numbers. Algorithms call this
    /// *before* committing anchors to capture the base `C_k` for follower
    /// reporting.
    pub fn base_cores_snapshot(&self) -> Vec<u32> {
        self.decomp.cores().to_vec()
    }

    /// Record `n` candidate probes (counted by the algorithm driving this
    /// state, so that all algorithms report the metric identically).
    pub fn add_probed(&mut self, n: u64) {
        self.metrics.candidates_probed += n;
    }

    /// Record `n` extra visited vertices (scans performed by the driving
    /// algorithm outside the follower machinery).
    pub fn bump_visited(&mut self, n: u64) {
        self.metrics.vertices_visited += n;
    }

    /// Drain the accumulated counters.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Peek at accumulated counters without draining.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Number of neighbours of the (k-1)-shell vertex `v` in `C_k(S)`,
    /// anchors included (the shell index's engaged count).
    pub(crate) fn engaged(&mut self, v: VertexId) -> u32 {
        let (graph, decomp, k) = (self.graph, &self.decomp, self.k);
        let index = self.shell.get_or_insert_with(|| ShellIndex::build(graph, decomp, k));
        index.engaged[index.slot(decomp, v)]
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.in_region.fill(0);
            self.removed.fill(0);
            self.queued.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Exact followers of the hypothetical extra anchor `x`, on top of the
    /// committed anchors. Local: cost proportional to the forward closure,
    /// not the graph. Returns an empty set when `x` is already in the core
    /// or already an anchor.
    pub fn followers_of(&mut self, x: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.followers_of_into(x, &mut out);
        out
    }

    /// Number of followers of `x` (allocation-free fast path for ranking).
    pub fn follower_count_of(&mut self, x: VertexId) -> usize {
        self.compute_followers(x);
        let epoch = self.epoch;
        self.region.iter().filter(|&&v| self.removed[v as usize] != epoch).count()
    }

    /// As [`Self::followers_of`] but reusing the caller's buffer.
    pub fn followers_of_into(&mut self, x: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        self.compute_followers(x);
        let epoch = self.epoch;
        out.extend(self.region.iter().copied().filter(|&v| self.removed[v as usize] != epoch));
    }

    /// Followers of `x` computed the OLAK way: the candidate region is the
    /// *undirected* shell closure around `x` (no K-order condition). The
    /// answer is identical — the undirected closure is a superset of the
    /// forward closure and the fixpoint is exact on any superset — but more
    /// vertices are visited, which is precisely the inefficiency the
    /// paper's Figures 4/6/8 attribute to OLAK.
    pub fn followers_of_unordered(&mut self, x: VertexId) -> Vec<VertexId> {
        self.compute_followers_with(x, false);
        let epoch = self.epoch;
        self.region.iter().copied().filter(|&v| self.removed[v as usize] != epoch).collect()
    }

    /// Follower count via the unordered (OLAK) region.
    pub fn follower_count_of_unordered(&mut self, x: VertexId) -> usize {
        self.compute_followers_with(x, false);
        let epoch = self.epoch;
        self.region.iter().filter(|&&v| self.removed[v as usize] != epoch).count()
    }

    /// Core of the follower machinery: builds the forward-closure region
    /// for anchor `x` and peels it; survivors (region members not stamped
    /// `removed`) are the followers.
    fn compute_followers(&mut self, x: VertexId) {
        self.compute_followers_with(x, true);
    }

    fn compute_followers_with(&mut self, x: VertexId, ordered: bool) {
        let epoch = self.next_epoch();
        self.region.clear();
        self.metrics.follower_evaluations += 1;

        let shell = self.k - 1;
        if self.is_anchor[x as usize] || self.decomp.core(x) >= self.k {
            return; // anchoring a core member or an anchor gains nothing
        }

        let ops = kernels::ops();
        let mut targets = std::mem::take(&mut self.targets);
        let (graph, decomp, k) = (self.graph, &self.decomp, self.k);
        let index = &*self.shell.get_or_insert_with(|| ShellIndex::build(graph, decomp, k));

        // Seeds: neighbours v of x in the (k-1)-shell with x ⪯ v. Both are
        // shell vertices when the order matters, so `x ⪯ v` is a removal-
        // position comparison; with core(x) < k-1 it is automatic. The
        // kernels take that as a position floor: `min_pos = 0` disables the
        // condition (also the unordered OLAK variant). `x` may lie outside
        // the shell, so this is the one full neighbour list a query reads.
        let seed_min_pos = if ordered && decomp.core(x) == shell { decomp.pos(x) + 1 } else { 0 };
        {
            let ctx = kernels::RegionCtx {
                cores: decomp.cores(),
                pos: decomp.positions(),
                stamp: &self.in_region,
                epoch,
                shell,
                x,
            };
            (ops.filter_region)(&ctx, graph.neighbors(x), seed_min_pos, &mut targets);
        }
        for &v in &targets {
            self.in_region[v as usize] = epoch;
            self.region.push(v);
        }
        let seeds = self.region.len();

        // Forward closure: v → w with core(w) = k-1 and v ⪯ w (both shell
        // vertices, so again a position floor; dropped when unordered).
        let mut head = 0usize;
        while head < self.region.len() {
            let v = self.region[head];
            head += 1;
            if ops.prefetch_ahead && head < self.region.len() {
                kernels::prefetch(index.neighbors(decomp, self.region[head]));
            }
            let min_pos = if ordered { decomp.pos(v) + 1 } else { 0 };
            {
                let ctx = kernels::RegionCtx {
                    cores: decomp.cores(),
                    pos: decomp.positions(),
                    stamp: &self.in_region,
                    epoch,
                    shell,
                    x,
                };
                (ops.filter_region)(&ctx, index.neighbors(decomp, v), min_pos, &mut targets);
            }
            for &w in &targets {
                self.in_region[w as usize] = epoch;
                self.region.push(w);
            }
        }
        self.metrics.vertices_visited += self.region.len() as u64;

        // Exact anchored peel on the region: support counts core members
        // (the engaged count), the anchor x, and unremoved region peers.
        // An `x` below the shell is in no shell slice; its shell neighbours
        // are exactly the seeds.
        let x_below_shell = decomp.core(x) < shell;
        for ri in 0..self.region.len() {
            let v = self.region[ri];
            if ops.prefetch_ahead && ri + 1 < self.region.len() {
                kernels::prefetch(index.neighbors(decomp, self.region[ri + 1]));
            }
            let s = index.slot(decomp, v);
            let peers = (ops.count_region_support)(
                index.slice(s),
                decomp.cores(),
                &self.in_region,
                epoch,
                x,
                k,
            );
            self.support[v as usize] =
                index.engaged[s] + peers + u32::from(x_below_shell && ri < seeds);
        }

        self.queue.clear();
        for ri in 0..self.region.len() {
            let v = self.region[ri];
            if self.support[v as usize] < self.k {
                self.queued[v as usize] = epoch;
                self.queue.push(v);
            }
        }
        // Fixpoint: pre-filtering each popped vertex's range is exact —
        // neighbour lists hold distinct vertices, so the stamps written
        // while applying one range can't affect its own later entries.
        let mut qhead = 0usize;
        while qhead < self.queue.len() {
            let v = self.queue[qhead];
            qhead += 1;
            self.removed[v as usize] = epoch;
            if ops.prefetch_ahead && qhead < self.queue.len() {
                kernels::prefetch(index.neighbors(decomp, self.queue[qhead]));
            }
            (ops.filter_alive)(
                index.neighbors(decomp, v),
                &self.in_region,
                &self.removed,
                &self.queued,
                epoch,
                &mut targets,
            );
            for &w in &targets {
                let wi = w as usize;
                self.support[wi] -= 1;
                if self.support[wi] < self.k {
                    self.queued[wi] = epoch;
                    self.queue.push(w);
                }
            }
        }
        self.targets = targets;
    }

    /// Commit `x` as an anchor: followers join the core, core numbers are
    /// recomputed exactly. O(n + m).
    pub fn commit_anchor(&mut self, x: VertexId) {
        assert!(!self.is_anchor[x as usize], "vertex {x} is already anchored");
        self.is_anchor[x as usize] = true;
        self.anchors.push(x);
        self.rebuild();
    }

    /// Remove a committed anchor. O(n + m).
    pub fn uncommit_anchor(&mut self, x: VertexId) {
        self.unflag(x);
        self.rebuild();
    }

    /// [`Self::uncommit_anchor`] that hands back the decomposition it
    /// replaced, so that [`Self::restore_anchor`] can reinstate `x`
    /// without a peel (IncAVT's swap test).
    pub(crate) fn uncommit_keeping(&mut self, x: VertexId) -> KeptAnchor {
        self.unflag(x);
        let (core_size, shell) = (self.core_size, self.shell.take());
        let decomp = self.rebuild();
        KeptAnchor { anchor: x, decomp, core_size, shell }
    }

    fn unflag(&mut self, x: VertexId) {
        assert!(self.is_anchor[x as usize], "vertex {x} is not anchored");
        self.is_anchor[x as usize] = false;
        self.anchors.retain(|&a| a != x);
    }

    /// Re-commit the anchor of `kept` by reinstating the decomposition
    /// [`Self::uncommit_keeping`] replaced, with its shell index, instead
    /// of peeling again. Not a rebuild. Exact because the anchored
    /// decomposition depends only on the graph and the anchor flags, and
    /// those are back to what they were: no anchor may change in between.
    pub(crate) fn restore_anchor(&mut self, kept: KeptAnchor) {
        let x = kept.anchor;
        assert!(!self.is_anchor[x as usize], "vertex {x} is already anchored");
        debug_assert!(
            self.anchors.iter().chain([&x]).all(|&a| kept.decomp.core(a) == ANCHOR_CORE),
            "the anchor set changed since vertex {x} was uncommitted"
        );
        self.is_anchor[x as usize] = true;
        self.anchors.push(x);
        self.decomp = kept.decomp;
        self.core_size = kept.core_size;
        self.shell = kept.shell;
    }

    /// The followers of the *committed* anchor set relative to the plain
    /// (unanchored) k-core: `F_k(S, G_t)` of Definition 3. O(n).
    ///
    /// `base_cores` must be the unanchored core numbers of the same graph.
    pub fn committed_followers(&self, base_cores: &[u32]) -> Vec<VertexId> {
        (0..self.graph.num_vertices() as VertexId)
            .filter(|&v| {
                !self.is_anchor[v as usize]
                    && self.decomp.core(v) >= self.k
                    && base_cores[v as usize] < self.k
            })
            .collect()
    }

    /// Theorem 3 candidate set: vertices `x` outside `C_k(S)`, not yet
    /// anchored, with at least one neighbour `v` in the (k-1)-shell such
    /// that `x ⪯ v`. Only these can have any followers. The scan walks the
    /// shell's neighbourhoods (O(vol(shell))).
    pub fn candidates(&mut self) -> Vec<VertexId> {
        let epoch = self.next_epoch();
        let shell = self.k - 1;
        let ops = kernels::ops();
        let mut targets = std::mem::take(&mut self.targets);
        let mut out = Vec::new();
        for v in 0..self.graph.num_vertices() as VertexId {
            if self.decomp.core(v) != shell {
                continue;
            }
            self.metrics.vertices_visited += 1;
            // Keep x with `x ⪯ v`: core below the shell, or equal core and
            // earlier removal. Anchors and core members fail both arms
            // (their core is >= k > shell), so no separate tests needed.
            {
                let ctx = kernels::RegionCtx {
                    cores: self.decomp.cores(),
                    pos: self.decomp.positions(),
                    stamp: &self.in_region,
                    epoch,
                    shell,
                    x: VertexId::MAX,
                };
                (ops.filter_preceding)(
                    &ctx,
                    self.graph.neighbors(v),
                    self.decomp.pos(v),
                    &mut targets,
                );
            }
            for &x in &targets {
                self.in_region[x as usize] = epoch;
                out.push(x);
            }
            // A shell vertex can anchor itself if it precedes a fellow
            // shell neighbour — that case is covered by the scan above when
            // the roles are swapped, so nothing more to do here.
        }
        self.targets = targets;
        out
    }

    /// OLAK's candidate set: every non-core, non-anchored vertex adjacent
    /// to the (k-1)-shell, *plus* the shell vertices themselves — no
    /// K-order pruning. A strict superset of [`Self::candidates`].
    pub fn candidates_unordered(&mut self) -> Vec<VertexId> {
        let epoch = self.next_epoch();
        let shell = self.k - 1;
        let ops = kernels::ops();
        let mut targets = std::mem::take(&mut self.targets);
        let mut out = Vec::new();
        for v in 0..self.graph.num_vertices() as VertexId {
            if self.decomp.core(v) != shell {
                continue;
            }
            self.metrics.vertices_visited += 1;
            if self.in_region[v as usize] != epoch && !self.is_anchor[v as usize] {
                self.in_region[v as usize] = epoch;
                out.push(v);
            }
            // Keep unstamped x with core(x) < k; anchors fail that test
            // outright (their core is ANCHOR_CORE).
            (ops.filter_below_unmarked)(
                self.graph.neighbors(v),
                self.decomp.cores(),
                &self.in_region,
                epoch,
                self.k,
                &mut targets,
            );
            for &x in &targets {
                self.in_region[x as usize] = epoch;
                out.push(x);
            }
        }
        self.targets = targets;
        out
    }
}

/// The anchored state an [`AnchoredCoreState::uncommit_keeping`] replaced:
/// everything [`AnchoredCoreState::restore_anchor`] needs to re-commit
/// `anchor` without a peel.
pub(crate) struct KeptAnchor {
    anchor: VertexId,
    decomp: CoreDecomposition,
    core_size: usize,
    shell: Option<ShellIndex>,
}

/// The (k-1)-shell of one anchored decomposition, laid out for follower
/// queries (see the module docs). Slot `s` is the shell vertex at removal
/// position `start + s`.
#[derive(Clone)]
struct ShellIndex {
    /// Removal position of the first shell vertex.
    start: u32,
    /// Slot `s`'s shell neighbours are `nbrs[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    nbrs: Vec<VertexId>,
    /// Per slot: neighbours in `C_k(S)`, anchors included.
    engaged: Vec<u32>,
}

impl ShellIndex {
    /// Index the (k-1)-shell of `decomp`. O(vol(shell) + log n).
    fn build<G: GraphView>(graph: &G, decomp: &CoreDecomposition, k: u32) -> Self {
        let (cores, order) = (decomp.cores(), decomp.order());
        let shell = k - 1;
        let lo = order.partition_point(|&v| cores[v as usize] < shell);
        let hi = order.partition_point(|&v| cores[v as usize] < k);
        let mut offsets = Vec::with_capacity(hi - lo + 1);
        let mut nbrs = Vec::new();
        let mut engaged = Vec::with_capacity(hi - lo);
        offsets.push(0);
        for &v in &order[lo..hi] {
            let mut e = 0u32;
            for &w in graph.neighbors(v) {
                let c = cores[w as usize];
                if c == shell {
                    nbrs.push(w);
                }
                e += u32::from(c >= k);
            }
            offsets.push(nbrs.len());
            engaged.push(e);
        }
        ShellIndex { start: lo as u32, offsets, nbrs, engaged }
    }

    /// Slot of the shell vertex `v`.
    #[inline]
    fn slot(&self, decomp: &CoreDecomposition, v: VertexId) -> usize {
        (decomp.pos(v) - self.start) as usize
    }

    /// Shell neighbours of slot `s`, in the frame's neighbour order.
    #[inline]
    fn slice(&self, s: usize) -> &[VertexId] {
        &self.nbrs[self.offsets[s]..self.offsets[s + 1]]
    }

    /// Shell neighbours of the shell vertex `v`.
    #[inline]
    fn neighbors(&self, decomp: &CoreDecomposition, v: VertexId) -> &[VertexId] {
        self.slice(self.slot(decomp, v))
    }
}

impl<'g, G: GraphView> Clone for AnchoredCoreState<'g, G> {
    /// Cloning copies the decomposition, anchor flags and shell index
    /// (O(n)); scratch space and metrics are reset, so a clone answers
    /// follower queries independently of the original.
    fn clone(&self) -> Self {
        let n = self.graph.num_vertices();
        AnchoredCoreState {
            graph: self.graph,
            k: self.k,
            anchors: self.anchors.clone(),
            is_anchor: self.is_anchor.clone(),
            decomp: self.decomp.clone(),
            core_size: self.core_size,
            metrics: Metrics::default(),
            shell: self.shell.clone(),
            epoch: 0,
            in_region: vec![0; n],
            removed: vec![0; n],
            queued: vec![0; n],
            support: vec![0; n],
            region: Vec::new(),
            queue: Vec::new(),
            targets: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_followers;

    /// A k=3 scenario: K4 on {0,1,2,3} is the 3-core; shell vertices 4 and
    /// 5 are one supporter short (4 leans on 0 and 5; 5 leans on 2, 3 and
    /// 4), so anchoring the outsider 6 (adjacent to 4) pulls both in.
    fn shell_graph() -> Graph {
        Graph::from_edges(
            7,
            [
                // K4 — the 3-core
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                // 4 has one core neighbour and leans on 5
                (4, 0),
                (4, 5),
                // 5 has two core neighbours and leans on 4
                (5, 2),
                (5, 3),
                // 6 is an outsider adjacent to the shell
                (6, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn core_size_counts_anchors() {
        let g = shell_graph();
        let st = AnchoredCoreState::new(&g, 3);
        assert_eq!(st.anchored_core_size(), 4);
        let st = AnchoredCoreState::with_anchors(&g, 3, &[6]);
        // Anchor 6 is in C_k(S) by definition; 6 alone saves 4 (supporters
        // 0, 5, 6) and 5 (supporters 2, 3, 4) as a mutual fixpoint.
        assert!(st.in_core(6));
        assert!(st.in_core(4));
        assert!(st.in_core(5));
        assert_eq!(st.anchored_core_size(), 7);
    }

    #[test]
    fn followers_match_naive_oracle() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        for x in g.vertices() {
            let mut fast = st.followers_of(x);
            fast.sort_unstable();
            let naive = naive_followers(&g, 3, &[], x);
            assert_eq!(fast, naive, "anchor {x}");
        }
    }

    #[test]
    fn followers_respect_committed_anchors() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        st.commit_anchor(6);
        for x in g.vertices() {
            if x == 6 {
                continue;
            }
            let mut fast = st.followers_of(x);
            fast.sort_unstable();
            let naive = naive_followers(&g, 3, &[6], x);
            assert_eq!(fast, naive, "anchor {x} on top of committed 6");
        }
    }

    #[test]
    fn anchor_and_core_members_have_no_followers() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        assert_eq!(st.follower_count_of(0), 0); // core member
        st.commit_anchor(6);
        assert_eq!(st.follower_count_of(6), 0); // already anchored
    }

    #[test]
    fn commit_then_uncommit_restores_state() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        let before = st.anchored_core_size();
        st.commit_anchor(6);
        assert!(st.anchored_core_size() > before);
        st.uncommit_anchor(6);
        assert_eq!(st.anchored_core_size(), before);
        assert!(st.anchors().is_empty());
    }

    #[test]
    fn restore_matches_recommit() {
        // Keeping an anchor through a swap test by restoring the set-aside
        // decomposition must be indistinguishable from recommitting it,
        // one rebuild cheaper — with and without a built shell index.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(31);
        let mut restored_any = false;
        for trial in 0..40 {
            let n = 25usize;
            let mut g = Graph::new(n);
            for _ in 0..90 {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v && !g.has_edge(u, v) {
                    g.insert_edge(u, v).unwrap();
                }
            }
            let k = 2 + (trial % 3) as u32;
            let mut recommit = AnchoredCoreState::new(&g, k);
            for _ in 0..3 {
                let x = rng.gen_range(0..n) as VertexId;
                if !recommit.in_core(x) {
                    recommit.commit_anchor(x);
                }
            }
            if recommit.anchors().is_empty() {
                continue;
            }
            // A follower query on a vertex outside the core builds the
            // shell index.
            if let Some(x) = g.vertices().find(|&x| trial % 2 == 0 && !recommit.in_core(x)) {
                recommit.follower_count_of(x);
            }
            let u = recommit.anchors()[rng.gen_range(0..recommit.anchors().len())];
            let mut restore = recommit.clone();
            recommit.take_metrics();

            recommit.uncommit_anchor(u);
            recommit.commit_anchor(u);
            let kept = restore.uncommit_keeping(u);
            restore.restore_anchor(kept);
            restored_any = true;

            assert_eq!(restore.metrics().rebuilds + 1, recommit.metrics().rebuilds);
            assert_eq!(restore.anchors(), recommit.anchors(), "trial {trial}");
            assert_eq!(restore.anchored_core_size(), recommit.anchored_core_size());
            for v in g.vertices() {
                assert_eq!(restore.core(v), recommit.core(v), "trial {trial} core({v})");
                assert_eq!(
                    restore.follower_count_of(v),
                    recommit.follower_count_of(v),
                    "trial {trial} followers of {v}"
                );
            }
            assert_eq!(restore.candidates(), recommit.candidates(), "trial {trial}");
        }
        assert!(restored_any);
    }

    #[test]
    fn committed_followers_lists_promotions() {
        let g = shell_graph();
        let base = CoreDecomposition::compute(&g);
        let mut st = AnchoredCoreState::new(&g, 3);
        st.commit_anchor(6);
        let mut f = st.committed_followers(base.cores());
        f.sort_unstable();
        assert_eq!(f, vec![4, 5]);
    }

    #[test]
    fn candidates_only_contains_productive_anchors() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        let cands = st.candidates();
        // Every candidate must be outside the core and un-anchored.
        for &c in &cands {
            assert!(!st.in_core(c), "candidate {c} is in the core");
        }
        // Completeness: any vertex with at least one follower must be a
        // candidate (Theorem 3).
        for x in g.vertices() {
            if st.follower_count_of(x) > 0 {
                assert!(cands.contains(&x), "vertex {x} has followers but was pruned");
            }
        }
    }

    #[test]
    fn follower_counts_and_sets_agree() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        for x in g.vertices() {
            let set = st.followers_of(x);
            assert_eq!(set.len(), st.follower_count_of(x), "anchor {x}");
        }
    }

    #[test]
    fn metrics_accumulate_and_drain() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        let _ = st.followers_of(6);
        let m = st.take_metrics();
        assert!(m.follower_evaluations >= 1);
        assert!(m.rebuilds >= 1);
        assert_eq!(st.metrics(), Metrics::default());
    }

    #[test]
    fn unordered_followers_agree_with_ordered() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        for x in g.vertices() {
            let mut a = st.followers_of(x);
            let mut b = st.followers_of_unordered(x);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "anchor {x}");
            assert_eq!(b.len(), st.follower_count_of_unordered(x));
        }
    }

    #[test]
    fn unordered_candidates_superset_of_ordered() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        let ordered = st.candidates();
        let unordered = st.candidates_unordered();
        for c in &ordered {
            assert!(unordered.contains(c), "pruned set must be a subset");
        }
        assert!(unordered.len() >= ordered.len());
    }

    #[test]
    fn clone_preserves_decomposition_and_resets_metrics() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        st.commit_anchor(6);
        let mut cloned = st.clone();
        assert_eq!(cloned.anchored_core_size(), st.anchored_core_size());
        assert_eq!(cloned.anchors(), st.anchors());
        assert_eq!(cloned.metrics(), Metrics::default());
        // Clone answers queries identically.
        for x in g.vertices() {
            assert_eq!(cloned.follower_count_of(x), st.follower_count_of(x));
        }
    }

    #[test]
    fn substrates_agree_on_followers_candidates_and_commits() {
        use avt_graph::CsrGraph;
        let g = shell_graph();
        let csr = CsrGraph::from_graph(&g);
        let mut on_vec = AnchoredCoreState::new(&g, 3);
        let mut on_csr = AnchoredCoreState::new(&csr, 3);
        assert_eq!(on_vec.anchored_core_size(), on_csr.anchored_core_size());
        for x in g.vertices() {
            // Follower *sets* are substrate-invariant (exact fixpoint
            // semantics), even though internal K-orders may differ.
            let mut a = on_vec.followers_of(x);
            let mut b = on_csr.followers_of(x);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "anchor {x}");
        }
        // Candidate pruning stays *complete* on both: every productive
        // anchor survives the Theorem-3 filter.
        let cands = on_csr.candidates();
        for x in g.vertices() {
            if on_csr.follower_count_of(x) > 0 {
                assert!(cands.contains(&x), "productive anchor {x} pruned on CSR");
            }
        }
        // Commit path is identical too.
        on_vec.commit_anchor(6);
        on_csr.commit_anchor(6);
        assert_eq!(on_vec.anchored_core_size(), on_csr.anchored_core_size());
        let base = CoreDecomposition::compute(&csr);
        assert_eq!(
            on_vec.committed_followers(base.cores()),
            on_csr.committed_followers(base.cores())
        );
    }

    #[test]
    fn random_graphs_followers_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
        for trial in 0..15 {
            let n = 25usize;
            let mut g = Graph::new(n);
            for _ in 0..70 {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v && !g.has_edge(u, v) {
                    g.insert_edge(u, v).unwrap();
                }
            }
            let k = 2 + (trial % 3) as u32;
            let mut st = AnchoredCoreState::new(&g, k);
            for x in g.vertices() {
                let mut fast = st.followers_of(x);
                fast.sort_unstable();
                let naive = naive_followers(&g, k, &[], x);
                assert_eq!(fast, naive, "trial {trial} k={k} anchor {x}");
            }
        }
    }
}
