//! The anchored core state: the shared engine behind every AVT algorithm.
//!
//! An [`AnchoredCoreState`] is a view of one snapshot `G_t` under a set of
//! committed anchors `S` (anchors are unpeelable). It keeps exactly what
//! every solver reads:
//!
//! * the anchored k-core `C_k(S)`, anchors included (Definition 4), and its
//!   size;
//! * the anchored (k-1)-core `C_{k-1}(S)`; the vertices between the two
//!   form the (k-1)-*shell*;
//! * one canonical removal order of the shell (see below).
//!
//! From these it answers, exactly:
//!
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
//! So the candidate region is the *forward closure*: seeds are shell
//! neighbours `v` of `x` with `x ⪯ v`, expanded along edges `v → w` with
//! `w` in the shell and `v ⪯ w`. On that region we run the exact anchored
//! peel (support = neighbours in `C_k(S)`, the anchor `x`, and unremoved
//! region peers; remove while support < k). The fixpoint survivors are
//! exactly the followers — the closure bounds *where* followers can be, the
//! peel decides *which* of them make it.
//!
//! ## The shell order
//!
//! The shell order is the removal sequence of a FIFO peel of `C_{k-1}(S)`
//! at threshold `k` whose queue is seeded with the shell in vertex-id
//! order. Members of `C_k(S)` never fall below `k`, so only shell vertices
//! are removed, each with at most `k − 1` neighbours in `C_k(S)` or later
//! in the order: it is a valid peel order of the shell, and both facts
//! above hold for it. It depends only on the graph, `k` and `S`.
//! [`AnchoredCoreState::precedes`] is this order as a K-order, with the
//! vertices below the shell first and `C_k(S)` after it.
//!
//! ## The shell index
//!
//! Every region vertex is a shell vertex, yet most of a shell vertex's
//! neighbours lie outside the shell. The state therefore keeps an index of
//! the shell: each shell vertex's *shell* neighbours, in the frame's
//! neighbour order, and its *engaged count*, the number of its neighbours
//! in `C_k(S)` (anchors included). A follower query reads `x`'s own
//! neighbour list in full and everything else from the index:
//!
//! * closure expansion and the fixpoint keep only shell vertices (region
//!   membership), so filtering the shell slice gives the same vertices in
//!   the same order as filtering the full list;
//! * support is `engaged(v)` plus the region peers and `x` counted over the
//!   shell slice, plus one for each seed when `x` lies below the shell
//!   (then `x` is in no slice, and its shell neighbours are exactly the
//!   seeds).
//!
//! This is exact because the region holds only shell vertices, and a shell
//! vertex's support from outside the shell — the engaged count — cannot
//! change until the next commit or uncommit. The index is laid out in the
//! shell order, so a shell vertex's slot is its position in it. The shell
//! peel that lays down the order builds the index, in O(vol(shell)).
//!
//! # Construction, commits and uncommits
//!
//! Construction is two threshold cascades over the graph — at `k − 1`,
//! then at `k` over `C_{k-1}(S)` — and the shell peel. It is the one
//! whole-graph pass a state makes ([`Metrics::rebuilds`]). Commits and
//! uncommits repair the state locally:
//!
//! * **commit `x`**: `x` and its followers join `C_k(S)`. If `x` lay below
//!   the shell, `C_{k-1}(S)` gains the survivors of a threshold-(k−1) peel
//!   over the below-shell vertices reachable from `x`. The shell is
//!   re-peeled.
//! * **uncommit `u`**: removal cascades from `u`, at threshold `k` and then
//!   `k − 1`, drop what `u` alone held up. The shell is re-peeled.
//!
//! Both end in the same shell peel, so after any sequence of commits and
//! uncommits the state equals the one [`AnchoredCoreState::with_anchors`]
//! builds for the same anchors, shell order and index included.

use avt_graph::{Graph, GraphView, VertexId};
use avt_kcore::shell::filter_alive;
use avt_kcore::ANCHOR_CORE;

use crate::metrics::Metrics;

/// Per-vertex class codes, ordered like the anchored core numbers they
/// stand for: below the shell, in it, in `C_k(S)`, anchored. The scans
/// compare them like core numbers, with the shell level at `SHELL` and the
/// core threshold at `CORE`.
const BELOW: u32 = 0;
const SHELL: u32 = 1;
const CORE: u32 = 2;
const ANCHOR: u32 = 3;

/// Anchored k-core, (k-1)-core and shell order of one snapshot, with local
/// follower queries and local commits.
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
/// assert!(st.in_shell(5));
/// // Anchoring the pendant adds only itself (no followers).
/// assert_eq!(st.follower_count_of(5), 0);
/// ```
pub struct AnchoredCoreState<'g, G: GraphView = Graph> {
    graph: &'g G,
    k: u32,
    anchors: Vec<VertexId>,
    // Per vertex: BELOW, SHELL, CORE or ANCHOR.
    class: Vec<u32>,
    // Per vertex: position in the shell order for shell vertices,
    // `u32::MAX` for all others.
    pos: Vec<u32>,
    core_size: usize,
    shell: ShellIndex,
    // Scratch for the shell peel: the shell indexed in vertex-id order.
    spare: ShellIndex,
    metrics: Metrics,
    // Epoch-stamped scratch for follower queries and repairs (no per-call
    // allocation).
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

    /// State with `anchors` committed: two threshold cascades over the
    /// graph and the shell peel.
    pub fn with_anchors(graph: &'g G, k: u32, anchors: &[VertexId]) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let n = graph.num_vertices();
        let mut class = vec![CORE; n];
        for &a in anchors {
            class[a as usize] = ANCHOR;
        }
        let mut state = AnchoredCoreState {
            graph,
            k,
            anchors: anchors.to_vec(),
            class,
            pos: vec![u32::MAX; n],
            core_size: 0,
            shell: ShellIndex::default(),
            spare: ShellIndex::default(),
            // The cascades below are this state's one whole-graph pass.
            metrics: Metrics { rebuilds: 1, vertices_visited: n as u64, ..Metrics::default() },
            epoch: 0,
            in_region: vec![0; n],
            removed: vec![0; n],
            queued: vec![0; n],
            support: (0..n).map(|v| graph.degree(v as VertexId) as u32).collect(),
            region: Vec::new(),
            queue: Vec::new(),
            targets: Vec::new(),
        };
        // The vertices peeled at k − 1 fall below the shell; those then
        // peeled at k form it.
        let mut below = Vec::new();
        state.cascade(k - 1, BELOW, &mut below);
        let mut shell = Vec::new();
        state.cascade(k, SHELL, &mut shell);
        state.core_size = n - below.len() - shell.len();
        shell.sort_unstable();
        state.peel_shell(shell);
        state
    }

    /// One threshold cascade of the construction. Every `CORE` vertex with
    /// `support` below `t` moves to class `to`, and so, in turn, does every
    /// `CORE` vertex the moves leave below `t`. `support` must hold each
    /// `CORE` vertex's count of neighbours at `CORE` or above, and still
    /// does for those that stay. Appends the moved vertices to `moved`.
    fn cascade(&mut self, t: u32, to: u32, moved: &mut Vec<VertexId>) {
        let graph = self.graph;
        for v in 0..graph.num_vertices() {
            if self.class[v] == CORE && self.support[v] < t {
                self.class[v] = to;
                moved.push(v as VertexId);
            }
        }
        let mut head = 0;
        while head < moved.len() {
            let v = moved[head];
            head += 1;
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if self.class[wi] == CORE {
                    self.support[wi] -= 1;
                    if self.support[wi] < t {
                        self.class[wi] = to;
                        moved.push(w);
                    }
                }
            }
        }
    }

    /// Lay down the shell order of the shell `ids` (in vertex-id order) and
    /// index the shell in it: the FIFO peel at threshold `k`, each shell
    /// vertex supported by its engaged count and its shell neighbours
    /// still in the peel. Construction and every repair end here, which is
    /// what makes the order a function of the graph, `k` and the anchors
    /// alone.
    fn peel_shell(&mut self, ids: Vec<VertexId>) {
        let (graph, k) = (self.graph, self.k);
        let epoch = self.next_epoch();
        // One scan of each shell vertex indexes it into `spare` at its rank
        // in `ids`, which `pos` holds until the order replaces it.
        let (class, spare) = (&self.class, &mut self.spare);
        spare.offsets.clear();
        spare.nbrs.clear();
        spare.engaged.clear();
        spare.offsets.push(0);
        self.queue.clear();
        for (s, &v) in ids.iter().enumerate() {
            self.pos[v as usize] = s as u32;
            let mut engaged = 0u32;
            for &w in graph.neighbors(v) {
                let c = class[w as usize];
                if c == SHELL {
                    spare.nbrs.push(w);
                }
                engaged += u32::from(c >= CORE);
            }
            let degree = engaged + (spare.nbrs.len() - spare.offsets[s]) as u32;
            spare.offsets.push(spare.nbrs.len());
            spare.engaged.push(engaged);
            self.support[v as usize] = degree;
            if degree < k {
                self.queued[v as usize] = epoch;
                self.queue.push(v);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            for &w in spare.neighbors(&self.pos, v) {
                let wi = w as usize;
                if self.queued[wi] != epoch {
                    self.support[wi] -= 1;
                    if self.support[wi] < k {
                        self.queued[wi] = epoch;
                        self.queue.push(w);
                    }
                }
            }
        }
        debug_assert_eq!(self.queue.len(), ids.len(), "the shell peels out completely");

        let ix = &mut self.shell;
        ix.offsets.clear();
        ix.nbrs.clear();
        ix.engaged.clear();
        ix.offsets.push(0);
        for (p, &v) in self.queue.iter().enumerate() {
            let s = self.pos[v as usize] as usize;
            ix.nbrs.extend_from_slice(spare.slice(s));
            ix.offsets.push(ix.nbrs.len());
            ix.engaged.push(spare.engaged[s]);
            self.pos[v as usize] = p as u32;
        }
        ix.ids = ids;
        std::mem::swap(&mut ix.order, &mut self.queue);
    }

    /// Re-peel the shell after a repair moved vertices between classes:
    /// the vertices of the old shell `old` still in it plus those of
    /// `entered` now in it.
    fn reshell(&mut self, old: &[VertexId], entered: &[VertexId]) {
        let class = &self.class;
        for &v in old {
            if class[v as usize] != SHELL {
                self.pos[v as usize] = u32::MAX;
            }
        }
        let mut ids: Vec<VertexId> =
            old.iter().chain(entered).copied().filter(|&v| class[v as usize] == SHELL).collect();
        ids.sort_unstable();
        self.metrics.vertices_visited += ids.len() as u64;
        self.peel_shell(ids);
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

    /// True when `v` is in the anchored k-core `C_k(S)` (anchors included,
    /// per Definition 4).
    pub fn in_core(&self, v: VertexId) -> bool {
        self.class[v as usize] >= CORE
    }

    /// True when `v` is in the (k-1)-shell: in `C_{k-1}(S)` but not in
    /// `C_k(S)`.
    pub fn in_shell(&self, v: VertexId) -> bool {
        self.class[v as usize] == SHELL
    }

    /// `|C_k(S)|` — anchors count as members (Definition 4).
    pub fn anchored_core_size(&self) -> usize {
        self.core_size
    }

    /// The shell's K-order: `u ⪯ v` when `u` lies in a lower class (below
    /// the shell, the shell, `C_k(S)`, anchors), or both lie in the shell
    /// and `u` comes first in the shell order. Vertices sharing any other
    /// class are unordered.
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        let (u, v) = (u as usize, v as usize);
        (self.class[u], self.pos[u]) < (self.class[v], self.pos[v])
    }

    /// The anchored core numbers as far as this state knows them: `k` in
    /// `C_k(S)` ([`ANCHOR_CORE`] for anchors), `k − 1` in the shell and 0
    /// below it. Algorithms call this *before* committing anchors to
    /// capture the base `C_k` for [`Self::committed_followers`].
    pub fn base_cores_snapshot(&self) -> Vec<u32> {
        let k = self.k;
        let clamp = |c: u32| match c {
            BELOW => 0,
            SHELL => k - 1,
            CORE => k,
            _ => ANCHOR_CORE,
        };
        self.class.iter().map(|&c| clamp(c)).collect()
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

    /// The shell's vertices, in vertex-id order.
    pub(crate) fn shell_vertices(&self) -> &[VertexId] {
        &self.shell.ids
    }

    /// Number of neighbours of the shell vertex `v` in `C_k(S)`, anchors
    /// included (the shell index's engaged count).
    pub(crate) fn engaged(&self, v: VertexId) -> u32 {
        self.shell.engaged[self.pos[v as usize] as usize]
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
        self.evaluate(x, true);
        self.followers().count()
    }

    /// As [`Self::followers_of`] but reusing the caller's buffer.
    pub fn followers_of_into(&mut self, x: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        self.evaluate(x, true);
        out.extend(self.followers());
    }

    /// Followers of `x` computed the OLAK way: the candidate region is the
    /// *undirected* shell closure around `x` (no K-order condition). The
    /// answer is identical — the undirected closure is a superset of the
    /// forward closure and the fixpoint is exact on any superset — but more
    /// vertices are visited, which is precisely the inefficiency the
    /// paper's Figures 4/6/8 attribute to OLAK.
    pub fn followers_of_unordered(&mut self, x: VertexId) -> Vec<VertexId> {
        self.evaluate(x, false);
        self.followers().collect()
    }

    /// Follower count via the unordered (OLAK) region.
    pub fn follower_count_of_unordered(&mut self, x: VertexId) -> usize {
        self.evaluate(x, false);
        self.followers().count()
    }

    /// One follower evaluation, as the solvers count them.
    fn evaluate(&mut self, x: VertexId, ordered: bool) {
        self.metrics.follower_evaluations += 1;
        self.compute_followers(x, ordered);
    }

    /// The followers the last [`Self::compute_followers`] found: region
    /// members the fixpoint did not remove.
    fn followers(&self) -> impl Iterator<Item = VertexId> + '_ {
        let epoch = self.epoch;
        self.region.iter().copied().filter(move |&v| self.removed[v as usize] != epoch)
    }

    /// Core of the follower machinery: builds the forward-closure region
    /// for anchor `x` (the undirected one when not `ordered`) and peels it;
    /// survivors (region members not stamped `removed`) are the followers.
    fn compute_followers(&mut self, x: VertexId, ordered: bool) {
        let epoch = self.next_epoch();
        self.region.clear();

        let x_class = self.class[x as usize];
        if x_class >= CORE {
            return; // anchoring a core member or an anchor gains nothing
        }

        let mut targets = std::mem::take(&mut self.targets);
        let (graph, k, index) = (self.graph, self.k, &self.shell);
        let (class, pos) = (&self.class, &self.pos);
        // Region expansion: the shell vertices `w ≠ x` of `neigh` not yet
        // in the region (`stamp`), at shell position `min_pos` or later.
        let expand = |neigh: &[VertexId], stamp: &[u32], min_pos: u32, out: &mut Vec<VertexId>| {
            out.clear();
            out.extend(neigh.iter().copied().filter(|&w| {
                let wi = w as usize;
                class[wi] == SHELL && stamp[wi] != epoch && w != x && pos[wi] >= min_pos
            }));
        };

        // Seeds: shell neighbours v of x with x ⪯ v. Both are shell
        // vertices when the order matters, so `x ⪯ v` is a shell-position
        // comparison; with x below the shell it is automatic. `expand`
        // takes that as a position floor: `min_pos = 0` disables the
        // condition (also the unordered OLAK variant). `x` may lie outside
        // the shell, so this is the one full neighbour list a query reads.
        let seed_min_pos = if ordered && x_class == SHELL { pos[x as usize] + 1 } else { 0 };
        expand(graph.neighbors(x), &self.in_region, seed_min_pos, &mut targets);
        for &v in &targets {
            self.in_region[v as usize] = epoch;
            self.region.push(v);
        }
        let seeds = self.region.len();

        // Forward closure: v → w with w in the shell and v ⪯ w (both shell
        // vertices, so again a position floor; dropped when unordered).
        let mut head = 0usize;
        while head < self.region.len() {
            let v = self.region[head];
            head += 1;
            let min_pos = if ordered { pos[v as usize] + 1 } else { 0 };
            expand(index.neighbors(pos, v), &self.in_region, min_pos, &mut targets);
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
        let x_below_shell = x_class == BELOW;
        for ri in 0..self.region.len() {
            let v = self.region[ri];
            let s = pos[v as usize] as usize;
            let peers = index
                .slice(s)
                .iter()
                .filter(|&&w| {
                    w == x || class[w as usize] >= CORE || self.in_region[w as usize] == epoch
                })
                .count() as u32;
            self.support[v as usize] =
                index.engaged[s] + peers + u32::from(x_below_shell && ri < seeds);
        }

        self.queue.clear();
        for ri in 0..self.region.len() {
            let v = self.region[ri];
            if self.support[v as usize] < k {
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
            filter_alive(
                index.neighbors(pos, v),
                &self.in_region,
                &self.removed,
                &self.queued,
                epoch,
                &mut targets,
            );
            for &w in &targets {
                let wi = w as usize;
                self.support[wi] -= 1;
                if self.support[wi] < k {
                    self.queued[wi] = epoch;
                    self.queue.push(w);
                }
            }
        }
        self.targets = targets;
    }

    /// Commit `x` as an anchor. `x` and its followers join `C_k(S)`; if
    /// `x` lay below the shell, the below-shell vertices it lifts join
    /// `C_{k-1}(S)`; then the shell is re-peeled. Local: the cost follows
    /// the follower region, the lifted region and the shell.
    pub fn commit_anchor(&mut self, x: VertexId) {
        let was = self.class[x as usize];
        assert!(was != ANCHOR, "vertex {x} is already anchored");
        self.anchors.push(x);
        if was == CORE {
            // Already a member: C_k, C_{k-1} and the shell stay as they are.
            self.class[x as usize] = ANCHOR;
            return;
        }
        self.compute_followers(x, true);
        let epoch = self.epoch;
        let mut joined = 1;
        for &v in &self.region {
            if self.removed[v as usize] != epoch {
                self.class[v as usize] = CORE;
                joined += 1;
            }
        }
        self.class[x as usize] = ANCHOR;
        self.core_size += joined;
        let mut lifted = std::mem::take(&mut self.targets);
        lifted.clear();
        if was == BELOW {
            self.lift(x, &mut lifted);
        }
        let old = std::mem::take(&mut self.shell.ids);
        self.reshell(&old, &lifted);
        self.targets = lifted;
    }

    /// The growth of `C_{k-1}(S)` when the committed anchor `x` lay below
    /// the shell. Every vertex `x` lifts has degree ≥ k − 1 and at least
    /// k − 1 neighbours in the new `C_{k-1}`, and reaches `x` through other
    /// lifted vertices (a part out of `x`'s reach would have been in
    /// `C_{k-1}(S)` already). So a search from `x` scans each reached
    /// below-shell vertex once, counting its possible supporters — those
    /// at the shell or above, and those below it with degree ≥ k − 1 that
    /// are not ruled out — and reaches on only through vertices with at
    /// least k − 1 of them. A vertex short of k − 1 is ruled out, and so,
    /// in cascade, is every scanned vertex left short by that. Lifted
    /// vertices are never ruled out, so the scanned vertices that remain
    /// are exactly the lifted. Appends them to `lifted`, now in the shell.
    fn lift(&mut self, x: VertexId, lifted: &mut Vec<VertexId>) {
        let (graph, t) = (self.graph, self.k - 1);
        // Stamps: `in_region` reached, `queued` scanned, `removed` ruled
        // out; `support` counts a scanned vertex's possible supporters.
        let epoch = self.next_epoch();
        self.region.clear();
        self.region.push(x);
        self.in_region[x as usize] = epoch;
        let mut head = 0;
        while head < self.region.len() {
            let v = self.region[head];
            head += 1;
            let reached = self.region.len();
            let mut support = 0u32;
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if self.class[wi] >= SHELL {
                    support += 1;
                } else if self.removed[wi] != epoch && graph.degree(w) as u32 >= t {
                    support += 1;
                    if self.in_region[wi] != epoch {
                        self.in_region[wi] = epoch;
                        self.region.push(w);
                    }
                }
            }
            if v == x {
                continue;
            }
            self.support[v as usize] = support;
            self.queued[v as usize] = epoch;
            if support >= t {
                continue;
            }
            // v can never lift: take back what it reached, and rule it
            // out, decrementing the scanned vertices that counted it.
            for &w in &self.region[reached..] {
                self.in_region[w as usize] = 0;
            }
            self.region.truncate(reached);
            self.removed[v as usize] = epoch;
            self.queue.clear();
            self.queue.push(v);
            while let Some(z) = self.queue.pop() {
                for &w in graph.neighbors(z) {
                    let wi = w as usize;
                    if self.queued[wi] == epoch && self.removed[wi] != epoch {
                        self.support[wi] -= 1;
                        if self.support[wi] < t {
                            self.removed[wi] = epoch;
                            self.queue.push(w);
                        }
                    }
                }
            }
        }
        self.metrics.vertices_visited += (self.region.len() - 1) as u64;
        for &v in &self.region[1..] {
            if self.removed[v as usize] != epoch {
                self.class[v as usize] = SHELL;
                lifted.push(v);
            }
        }
    }

    /// Remove a committed anchor. Removal cascades from `u`, at threshold
    /// `k` and then `k − 1`, drop what `u` alone held up; then the shell is
    /// re-peeled. Local like a commit; an anchor whose neighbours keep it
    /// in `C_k(S)` just becomes a member.
    pub fn uncommit_anchor(&mut self, u: VertexId) {
        self.uncommit_keeping(u);
    }

    /// [`Self::uncommit_anchor`] that hands back what it changed, so that
    /// [`Self::restore_anchor`] can re-commit `u` by undoing it (IncAVT's
    /// swap test).
    pub(crate) fn uncommit_keeping(&mut self, u: VertexId) -> KeptAnchor {
        assert!(self.class[u as usize] == ANCHOR, "vertex {u} is not anchored");
        self.anchors.retain(|&a| a != u);
        self.class[u as usize] = CORE;
        let mut kept = KeptAnchor {
            anchor: u,
            core_size: self.core_size,
            dropped: Vec::new(),
            split: 0,
            shell: None,
        };
        self.demote(u, CORE, self.k, &mut kept.dropped);
        if !kept.dropped.is_empty() {
            self.core_size -= kept.dropped.len();
            kept.split = kept.dropped.len();
            // u's followers all stay in C_{k-1} (they are the followers of
            // anchoring u back), so only u can start a cascade below it.
            self.demote(u, SHELL, self.k - 1, &mut kept.dropped);
            let old = std::mem::take(&mut self.shell);
            self.reshell(&old.ids, &kept.dropped);
            kept.shell = Some(old);
        }
        kept
    }

    /// Re-commit the anchor of `kept` by undoing its uncommit: the classes
    /// it changed go back, and the shell it replaced is reinstated with
    /// its order and index. Exact when no anchor changed in between.
    pub(crate) fn restore_anchor(&mut self, kept: KeptAnchor) {
        let u = kept.anchor;
        assert!(self.class[u as usize] != ANCHOR, "vertex {u} is already anchored");
        let (to_core, to_shell) = kept.dropped.split_at(kept.split);
        for &v in to_shell {
            self.class[v as usize] = SHELL;
        }
        for &v in to_core {
            self.class[v as usize] = CORE;
        }
        self.class[u as usize] = ANCHOR;
        self.anchors.push(u);
        self.core_size = kept.core_size;
        if let Some(shell) = kept.shell {
            for &v in &self.shell.order {
                self.pos[v as usize] = u32::MAX;
            }
            for (p, &v) in shell.order.iter().enumerate() {
                self.pos[v as usize] = p as u32;
            }
            self.shell = shell;
        }
    }

    /// One removal cascade of an uncommit. `start`, of class `class`,
    /// drops to `class − 1` when fewer than `t` of its neighbours are at
    /// `class` or above, and so does every vertex of class `class` the
    /// drops leave short of `t`. A vertex's count is taken when the cascade
    /// first reaches it, so the cost follows the dropped vertices'
    /// neighbourhoods. Appends the dropped vertices to `dropped`.
    fn demote(&mut self, start: VertexId, class: u32, t: u32, dropped: &mut Vec<VertexId>) {
        let graph = self.graph;
        let epoch = self.next_epoch();
        let count = |classes: &[u32], v: VertexId| {
            graph.neighbors(v).iter().filter(|&&w| classes[w as usize] >= class).count() as u32
        };
        let mut scans = 1;
        if count(&self.class, start) >= t {
            self.metrics.vertices_visited += scans;
            return;
        }
        self.queue.clear();
        self.queue.push(start);
        self.queued[start as usize] = epoch;
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            // Dropped when popped, so a count taken later leaves v out
            // exactly when v's own decrement has already been applied.
            self.class[v as usize] = class - 1;
            dropped.push(v);
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if self.class[wi] != class || self.queued[wi] == epoch {
                    continue;
                }
                if self.in_region[wi] != epoch {
                    self.in_region[wi] = epoch;
                    self.support[wi] = count(&self.class, w);
                    scans += 1;
                } else {
                    self.support[wi] -= 1;
                }
                if self.support[wi] < t {
                    self.queued[wi] = epoch;
                    self.queue.push(w);
                }
            }
        }
        self.metrics.vertices_visited += scans;
    }

    /// The followers of the *committed* anchor set relative to the plain
    /// (unanchored) k-core: `F_k(S, G_t)` of Definition 3. O(n).
    ///
    /// `base_cores` must be the unanchored core numbers of the same graph
    /// (or [`Self::base_cores_snapshot`] of an anchorless state).
    pub fn committed_followers(&self, base_cores: &[u32]) -> Vec<VertexId> {
        (0..self.graph.num_vertices() as VertexId)
            .filter(|&v| self.class[v as usize] == CORE && base_cores[v as usize] < self.k)
            .collect()
    }

    /// Theorem 3 candidate set: vertices `x` outside `C_k(S)`, not yet
    /// anchored, with at least one neighbour `v` in the (k-1)-shell such
    /// that `x ⪯ v`. Only these can have any followers. The scan walks the
    /// shell's neighbourhoods (O(|shell| + vol(shell))).
    pub fn candidates(&mut self) -> Vec<VertexId> {
        let epoch = self.next_epoch();
        let mut targets = std::mem::take(&mut self.targets);
        let mut out = Vec::new();
        let (class, pos) = (&self.class, &self.pos);
        for &v in &self.shell.ids {
            // Keep unstamped x with `x ⪯ v`: below the shell, or in it and
            // removed earlier. Anchors and core members fail both arms
            // (their class is above the shell), so no separate tests needed.
            let pos_v = pos[v as usize];
            targets.clear();
            targets.extend(self.graph.neighbors(v).iter().copied().filter(|&w| {
                let wi = w as usize;
                self.in_region[wi] != epoch
                    && (class[wi] < SHELL || (class[wi] == SHELL && pos[wi] < pos_v))
            }));
            for &x in &targets {
                self.in_region[x as usize] = epoch;
                out.push(x);
            }
            // A shell vertex can anchor itself if it precedes a fellow
            // shell neighbour — that case is covered by the scan above when
            // the roles are swapped, so nothing more to do here.
        }
        self.metrics.vertices_visited += self.shell.ids.len() as u64;
        self.targets = targets;
        out
    }

    /// OLAK's candidate set: every non-core, non-anchored vertex adjacent
    /// to the (k-1)-shell, *plus* the shell vertices themselves — no
    /// K-order pruning. A strict superset of [`Self::candidates`].
    pub fn candidates_unordered(&mut self) -> Vec<VertexId> {
        let epoch = self.next_epoch();
        let mut targets = std::mem::take(&mut self.targets);
        let mut out = Vec::new();
        for &v in &self.shell.ids {
            if self.in_region[v as usize] != epoch {
                self.in_region[v as usize] = epoch;
                out.push(v);
            }
            // Keep unstamped x below the core; anchors fail that test
            // outright (their class is above it).
            targets.clear();
            targets.extend(
                self.graph.neighbors(v).iter().copied().filter(|&w| {
                    self.in_region[w as usize] != epoch && self.class[w as usize] < CORE
                }),
            );
            for &x in &targets {
                self.in_region[x as usize] = epoch;
                out.push(x);
            }
        }
        self.metrics.vertices_visited += self.shell.ids.len() as u64;
        self.targets = targets;
        out
    }
}

/// What [`AnchoredCoreState::uncommit_keeping`] changed: everything
/// [`AnchoredCoreState::restore_anchor`] needs to re-commit `anchor`.
pub(crate) struct KeptAnchor {
    anchor: VertexId,
    core_size: usize,
    /// The vertices the cascades dropped: out of `C_k` before `split`,
    /// below the shell from `split` on (`anchor` may be in both).
    dropped: Vec<VertexId>,
    split: usize,
    /// The shell the uncommit replaced, if it replaced it.
    shell: Option<ShellIndex>,
}

/// The (k-1)-shell, laid out for follower queries (see the module docs).
/// Slot `s` is the shell vertex at position `s` of the shell order.
#[derive(Clone, Default)]
struct ShellIndex {
    /// The shell's vertices in vertex-id order.
    ids: Vec<VertexId>,
    /// The shell's vertices in the shell order.
    order: Vec<VertexId>,
    /// Slot `s`'s shell neighbours are `nbrs[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    nbrs: Vec<VertexId>,
    /// Per slot: neighbours in `C_k(S)`, anchors included.
    engaged: Vec<u32>,
}

impl ShellIndex {
    /// Shell neighbours of slot `s`, in the frame's neighbour order.
    #[inline]
    fn slice(&self, s: usize) -> &[VertexId] {
        &self.nbrs[self.offsets[s]..self.offsets[s + 1]]
    }

    /// Shell neighbours of the shell vertex `v`, whose slot is its shell
    /// position `pos[v]`.
    #[inline]
    fn neighbors(&self, pos: &[u32], v: VertexId) -> &[VertexId] {
        self.slice(pos[v as usize] as usize)
    }
}

impl<'g, G: GraphView> Clone for AnchoredCoreState<'g, G> {
    /// Cloning copies the classes, shell order and shell index (O(n));
    /// scratch space and metrics are reset, so a clone answers follower
    /// queries independently of the original.
    fn clone(&self) -> Self {
        let n = self.graph.num_vertices();
        AnchoredCoreState {
            graph: self.graph,
            k: self.k,
            anchors: self.anchors.clone(),
            class: self.class.clone(),
            pos: self.pos.clone(),
            core_size: self.core_size,
            shell: self.shell.clone(),
            spare: ShellIndex::default(),
            metrics: Metrics::default(),
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
    use avt_kcore::CoreDecomposition;

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
    fn classes_and_shell_order() {
        let g = shell_graph();
        let st = AnchoredCoreState::new(&g, 3);
        // 6 (degree 1) falls below the 2-core; 4 and 5 form the shell.
        assert!(!st.in_shell(6) && !st.in_core(6));
        assert!(st.in_shell(4) && st.in_shell(5));
        assert!((0..4).all(|v| st.in_core(v) && !st.in_shell(v)));
        // 4 has two neighbours in C_2 (0 and 5), 5 has three: the peel at
        // threshold 3 takes 4 first.
        assert!(st.precedes(4, 5) && !st.precedes(5, 4));
        assert!(st.precedes(6, 4) && st.precedes(5, 0));
        assert_eq!(st.base_cores_snapshot(), vec![3, 3, 3, 3, 2, 2, 0]);
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
        assert!(!st.in_shell(6) && st.in_shell(4) && st.precedes(4, 5));
    }

    #[test]
    fn commits_lift_below_shell_vertices_and_uncommits_drop_them() {
        // k = 3: the chain 0 - 7 - 8 hangs off the core, below the shell.
        // Anchoring the end 8 gives 7 its two supporters in C_2 (0 and 8):
        // 7 lifts into the shell, 8 joins the core as an anchor.
        let mut edges: Vec<(VertexId, VertexId)> =
            shell_graph().edges().map(|e| (e.u, e.v)).collect();
        edges.extend([(7, 0), (7, 8)]);
        let g = Graph::from_edges(9, edges).unwrap();
        let mut st = AnchoredCoreState::new(&g, 3);
        assert!(!st.in_shell(7) && !st.in_shell(8));
        let visits = st.metrics().vertices_visited;
        st.commit_anchor(8);
        assert!(st.in_shell(7) && st.in_core(8));
        assert_eq!(st.anchored_core_size(), 5);
        // The repair is charged its local scans, below a re-peel's n.
        assert!(st.metrics().vertices_visited - visits < g.num_vertices() as u64);
        assert_eq!(st.metrics().rebuilds, 1);
        let fresh = AnchoredCoreState::with_anchors(&g, 3, &[8]);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(st.precedes(u, v), fresh.precedes(u, v), "{u} ⪯ {v}");
            }
        }
        st.uncommit_anchor(8);
        assert!(!st.in_shell(7) && !st.in_shell(8) && st.in_shell(4));
        assert_eq!(st.anchored_core_size(), 4);
    }

    #[test]
    fn uncommitting_a_self_supporting_anchor_keeps_it_in_the_core() {
        let g = shell_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        st.commit_anchor(0); // a core member: only its flag changes
        assert_eq!(st.anchored_core_size(), 4);
        assert_eq!(st.follower_count_of(0), 0);
        st.uncommit_anchor(0);
        assert!(st.in_core(0) && st.anchors().is_empty());
        assert_eq!(st.anchored_core_size(), 4);
    }

    #[test]
    fn restore_matches_recommit() {
        // Keeping an anchor through a swap test by undoing its uncommit
        // must be indistinguishable from recommitting it — with and
        // without the uncommit moving the shell.
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
            let u = recommit.anchors()[rng.gen_range(0..recommit.anchors().len())];
            let mut restore = recommit.clone();

            recommit.uncommit_anchor(u);
            recommit.commit_anchor(u);
            let kept = restore.uncommit_keeping(u);
            restore.restore_anchor(kept);
            restored_any = true;

            assert_eq!(restore.anchors(), recommit.anchors(), "trial {trial}");
            assert_eq!(restore.anchored_core_size(), recommit.anchored_core_size());
            for v in g.vertices() {
                assert_eq!(restore.in_core(v), recommit.in_core(v), "trial {trial} in_core({v})");
                assert_eq!(
                    restore.in_shell(v),
                    recommit.in_shell(v),
                    "trial {trial} in_shell({v})"
                );
                for w in g.vertices() {
                    assert_eq!(restore.precedes(v, w), recommit.precedes(v, w), "trial {trial}");
                }
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
        // A commit evaluates followers internally but is not counted as an
        // evaluation, and it does not rebuild.
        st.commit_anchor(6);
        assert_eq!(st.metrics().follower_evaluations, 0);
        assert_eq!(st.metrics().rebuilds, 0);
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
