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
//!   §4.2 (one pass in the shell order + fixpoint — see below);
//! * the Theorem-3 **candidate set** — the only vertices whose anchoring
//!   can produce any followers.
//!
//! # Follower computation (Algorithm 3)
//!
//! The paper computes followers by simulating OrderInsert with the anchor's
//! core set to infinity: it visits only vertices whose earlier kept
//! neighbours and later degree can still reach `k`. We make the same pass
//! over a valid peel order of the shell (see `avt-kcore` crate docs), from
//! three facts:
//!
//! 1. Followers of a single extra anchor all lie in the (k-1)-shell of the
//!    anchored decomposition (ref. \[37\], used in Theorem 3).
//! 2. The peel removed each shell vertex `w` with fewer than `k`
//!    supporters: its neighbours in `C_k(S)` (its *engaged count*) and its
//!    shell neighbours later in the order (its *plus*).
//! 3. So a follower `w` needs a supporter beyond those: the anchor, when
//!    `x ⪯ w`, or an order-earlier follower. (If `w ⪯ x`, `x` already
//!    counts in `w`'s plus.)
//!
//! A query therefore makes one pass in the shell order from its *seeds*,
//! the shell neighbours `v` of `x` with `x ⪯ v`, popping the vertices it
//! reaches off a heap keyed on the order. It *keeps* a vertex when its
//! engaged count, its plus and its count of earlier kept neighbours (plus
//! one for a seed, from the anchor) reach `k`, and it reaches on only from
//! kept vertices, to their later shell neighbours. By 3 and induction on
//! the order, every follower is reached and kept. The pass also builds each
//! kept vertex's support — its engaged count, the anchor for a seed, and
//! its kept neighbours — and an exact anchored peel of the kept set
//! (remove while support < k, decrementing kept peers) leaves exactly the
//! followers: an exact peel of any superset of the followers is exact. The
//! pass bounds *where* followers can be, the peel decides *which* of them
//! make it.
//!
//! The unordered (OLAK) query is the unpruned reference. Its region is the
//! undirected shell closure of every shell neighbour of `x`, with no
//! K-order condition, so it is closed under shell adjacency: a region
//! vertex's support is its engaged count plus its shell degree, plus one
//! for a seed when `x` lies below the shell. The same peel decides it.
//!
//! ## The shell order
//!
//! The shell order is the removal sequence of a FIFO peel of `C_{k-1}(S)`
//! at threshold `k` whose queue is seeded with the shell in vertex-id
//! order. Members of `C_k(S)` never fall below `k`, so only shell vertices
//! are removed, each with at most `k − 1` neighbours in `C_k(S)` or later
//! in the order: it is a valid peel order of the shell, and the facts
//! above hold for it. It depends only on the graph, `k` and `S`.
//! [`AnchoredCoreState::precedes`] is this order as a K-order, with the
//! vertices below the shell first and `C_k(S)` after it.
//!
//! ## The shell index
//!
//! Every vertex a query visits is a shell vertex, yet most of a shell
//! vertex's neighbours lie outside the shell. The state therefore keeps an
//! index of the shell laid out in the shell order: the shell vertex at
//! position `s` of the order has *slot* `s`, and the index holds each
//! slot's shell neighbours as slots, in the frame's neighbour order, its
//! engaged count (anchors included) and its plus. A follower query reads
//! `x`'s own neighbour list in full, turns its shell neighbours into slots,
//! and from then on works on slots alone: its stamps, the supports, the
//! heap and the peel queue are keyed by slot, so the pass, the closure and
//! the peel read no per-vertex array.
//!
//! * they keep only shell vertices, so a slot's slice holds the same
//!   vertices in the same order as filtering its full list, and `v ⪯ w`
//!   between two shell vertices is `slot(v) < slot(w)`;
//! * the pass credits each seed one support from `x`, whatever `x`'s
//!   class: a shell `x` precedes every vertex the pass reaches, so it is
//!   never a kept neighbour. The closure counts a shell `x` through the
//!   slices instead, as a region peer the peel never removes, and credits
//!   the seeds only when `x` lies below the shell, in no slice.
//!
//! This is exact because the queries visit only shell vertices, and a shell
//! vertex's support from outside the shell — the engaged count — cannot
//! change until the next commit or uncommit, and each of those re-peels the
//! shell and lays the index down again (see "The re-peel" below). The
//! shell peel sizes the slot arrays with the index, so a query allocates
//! nothing once the heap has grown.
//!
//! ## The count memo
//!
//! A query on an `x` below the shell reads `x` only through its seeds:
//! every shell neighbour of `x` is a seed, each seed gets one support from
//! `x`, and `x` itself sits in no shell slice. The pass, the kept set and
//! so the follower count are a function of the state and the seed set
//! alone, and below-shell anchors with the same shell neighbours have the
//! same count. A below-shell candidate commonly has exactly one shell
//! neighbour, so the ordered count memoizes the count of each such anchor
//! keyed by that one seed's shell slot, and stamped with a count epoch.
//! The Theorem-3 candidate set hands out each candidate's key with the
//! candidate, since it keeps each below-shell vertex's shell neighbours
//! (see "The carried candidates" below);
//! [`AnchoredCoreState::follower_count_of`] reads the key off `x`'s
//! neighbour list. A commit, an uncommit and a restore each bump the
//! epoch, which forgets every count at once; the shell slots stay put
//! between two bumps, and the epoch wraps the way the scratch stamps do.
//! Only the ordered count path reads or writes the memo: follower sets,
//! the unordered (OLAK) path, whose candidates carry no key, and a
//! commit's own follower computation always evaluate. A count served from
//! the memo is not an evaluation and visits nothing
//! ([`Metrics::follower_evaluations`], [`Metrics::vertices_visited`]).
//!
//! ## Bound-and-skip
//!
//! A solver ranking candidates needs the count of a candidate only if it
//! can win. Every follower of `x` is kept, so the kept count bounds the
//! count, more tightly than the forward closure (every shell vertex
//! reachable from `x` through steps forward in the order) would; the
//! unordered region's size bounds it the same way. A ranking loop therefore
//! passes each count the gain the candidate needs to win, its *floor*, and
//! a query that keeps fewer slots than the floor answers "cannot win"
//! without the peel. The skip is exact: such a candidate has fewer
//! followers than the floor. Ties stay with the caller: Greedy's selection
//! passes the best gain so far, not one more, so a candidate that could tie
//! the best is still counted and wins when its id is smaller. A floor of 0
//! skips nothing, and [`AnchoredCoreState::follower_count_of`] is the same
//! count with that floor. A skipped query is still an evaluation, and it
//! still visits what its pass pops.
//!
//! The memo keeps the kept count of a skipped query on a key as a *bound*
//! until its next forget. A bound is never returned as a count: a later
//! query on the key answers "cannot win" when the bound is below its floor,
//! and evaluates otherwise. The skip rests on one invariant of the
//! callers: within one memo epoch a caller's floor never falls, so a bound
//! lies below every later floor of its epoch and is never evaluated again.
//! Greedy's rounds, IncAVT's growth steps and each swap test keep it: their
//! floors only rise, and each forgets the memo at its commit, uncommit or
//! restore.
//!
//! # Construction, commits and uncommits
//!
//! Construction is two threshold cascades over the graph — at `k − 1`,
//! then at `k` over `C_{k-1}(S)` — and the shell peel. It is the one
//! whole-graph pass a state makes ([`Metrics::rebuilds`]). Commits and
//! uncommits repair the state locally:
//!
//! * **commit `x`**: `x` and its followers join `C_k(S)`. If `x` lay below
//!   the shell, the vertices it *lifts* join `C_{k-1}(S)`: one pass over
//!   the below-shell order finds them (below). The shell is re-peeled.
//! * **uncommit `u`**: removal cascades from `u`, at threshold `k` and then
//!   `k − 1`, drop what `u` alone held up. The shell is re-peeled.
//!
//! Both end in the same shell peel, so after any sequence of commits and
//! uncommits the state equals the one [`AnchoredCoreState::with_anchors`]
//! builds for the same anchors, shell order and index included.
//!
//! ## The re-peel
//!
//! The shell peel reads, per shell vertex in vertex-id order, its shell
//! neighbours in the frame's neighbour order and its engaged count. A
//! repair changes that input only around the vertices it moved, so the
//! re-peel takes it from the index it replaces wherever it can:
//!
//! * a vertex is *dirty* when it entered the shell, or is a shell
//!   neighbour of a vertex that entered the shell or left `C_k(S)`; a dirty
//!   vertex reads its graph list;
//! * every other shell vertex was in the old shell, and none of its
//!   neighbours entered the shell or left `C_k(S)`. Its slice is its old
//!   one without the slots that left, in the same order, and its engaged
//!   count is its old one plus its neighbours that moved up into `C_k(S)`:
//!   the slots that left upward, and a below-shell anchor.
//!
//! Construction is the case where every shell vertex is dirty. The peel
//! reads the same input whichever way it came, so the order, the slots and
//! the index are the ones a fresh build lays down. A commit's re-peel
//! reads O(|shell|), the clean vertices' shell-to-shell entries and the
//! dirty vertices' lists, instead of every shell vertex's list.
//!
//! ## The carried candidates
//!
//! A shell vertex is a Theorem-3 candidate exactly when its plus is at
//! least 1, and a below-shell vertex exactly when it has a shell
//! neighbour. So the state keeps, per below-shell vertex, its count of
//! shell neighbours and the XOR of their ids, and a list of the
//! below-shell vertices whose count is not 0; when the count is 1, the
//! XOR is the one shell neighbour, whose slot is the memo key. The first
//! request fills them in one scan of the shell's neighbour lists. A commit
//! only notes the vertices that entered or left the shell, and the next
//! request reads their lists to bring the counts up to date. A commit
//! moves vertices only upward, so a vertex that leaves the level below the
//! shell never returns to it before the next request, which drops it from
//! the list. A solver's last commit therefore pays nothing. An uncommit,
//! a restore and a clone drop the set, and the next request scans again.
//!
//! ## The below-shell order
//!
//! The construction's first cascade removes the vertices below the shell
//! in a valid peel order of them. A vertex's support when it moved counts
//! its neighbours not yet removed, and the cascade never decrements it
//! again, so it is an upper bound, below `k − 1`, on the vertex's
//! *remaining degree*: its neighbours in `C_{k-1}(S)` plus its later
//! below-shell neighbours. The state keeps this order as a *rank* per
//! below-shell vertex (in `pos`, beside the shell vertices' slots) and the
//! support as the vertex's *bound* (in the cascades' `support` array).
//! Ranks only grow; when the counter would pass `u32::MAX`, one pass
//! renumbers the below-shell vertices in rank order.
//!
//! Committing a below-shell `x` lifts exactly the vertices of
//! `C_{k-1}(S ∪ {x}) \ C_{k-1}(S)` other than `x`, and the order finds
//! them locally, the way the shell order finds followers:
//!
//! 1. Anchoring one vertex raises every other vertex's anchored core
//!    number by at most 1, so a lifted vertex comes from below the shell,
//!    where core numbers are below `k − 1`, and lands in the shell, never
//!    in `C_k`.
//! 2. A lifted vertex `v` has at least `k − 1` neighbours in the new
//!    `C_{k-1}`, but fewer than `k − 1` — its bound — in `C_{k-1}(S)` or
//!    later in the order. So it needs `x` or an earlier lifted neighbour,
//!    and by induction on rank every lifted vertex comes after `x` and is
//!    reached from it through earlier lifted vertices.
//! 3. The lift therefore makes one pass in rank order from `x`'s later
//!    below-shell neighbours, popping the vertices it reaches from a heap
//!    keyed on rank. It *keeps* a vertex when its count of earlier kept
//!    neighbours (plus `x`) and its bound together reach `k − 1`, and it
//!    reaches on only from kept vertices; a vertex of degree below `k − 1`
//!    can never lift, and the pass skips it. By 2, every lifted vertex is
//!    kept.
//! 4. An exact threshold-(k − 1) peel of the kept set, counting
//!    neighbours in `C_{k-1}(S) ∪ {x}` and kept peers, leaves exactly the
//!    lifted vertices: an exact peel of any superset of the lifted
//!    vertices is exact.
//!
//! The order stays valid through three append-only updates:
//!
//! * a vertex the pass reached but did not keep adds its count of earlier
//!   kept neighbours (and `x`) to its bound, since each of those now lies
//!   in `C_{k-1}` or at the end of the order;
//! * a kept vertex the peel removes (an *eviction*) moves to the end of the
//!   order, in peel order, with its final peel support as its bound;
//! * a vertex an uncommit drops below the shell is appended, in drop order,
//!   with the support its `demote` cascade counted as its bound.
//!
//! A restore needs none: the vertices it returns to the shell are the ones
//! its uncommit appended, the end of the order. A vertex of degree below
//! `k − 1` keeps its bound when a pass skips it; that bound may no longer
//! cover its remaining degree, but no pass reads it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use avt_graph::{Graph, GraphView, VertexId};
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

/// The memo key of a candidate that has none.
const NO_KEY: u32 = u32::MAX;

/// In the re-peel: the old slot of a vertex new to the shell, and the new
/// rank of an old slot whose vertex left it.
const NO_SLOT: u32 = u32::MAX;

/// A candidate anchor with the count-memo key of its follower count: the
/// shell slot of its one shell neighbour when it lies below the shell and
/// has exactly one (see the module docs), and none otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Candidate {
    pub(crate) vertex: VertexId,
    key: u32,
}

impl Candidate {
    /// `vertex` with no key: its count neither reads nor writes the memo.
    /// Right for the unordered count, which never memoizes.
    pub(crate) fn unkeyed(vertex: VertexId) -> Self {
        Candidate { vertex, key: NO_KEY }
    }
}

/// Anchored k-core, (k-1)-core and shell order of one snapshot, with local
/// follower queries and local commits.
///
/// Generic over the snapshot's [`GraphView`] substrate: per-snapshot
/// solvers instantiate it over frozen [`avt_graph::CsrGraph`] frames, the
/// incremental path over the mutable [`Graph`] it maintains. The default
/// type parameter makes plain `AnchoredCoreState<'g>` a state over a
/// mutable graph.
///
/// # Example
///
/// ```
/// use avt_graph::Graph;
/// use avt_core::AnchoredCoreState;
///
/// // The 4-cycle 0-1-2-3 and vertex 4, joined to 0 and 1, form the
/// // 2-core. The pendant 5 (one edge, to 0) has core number 1: it is the
/// // 1-shell.
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
    // Per vertex: the slot (position in the shell order) of a shell
    // vertex, the rank (position in the below-shell order) of a vertex
    // below the shell; unread for core members and anchors.
    pos: Vec<u32>,
    // The rank the next vertex appended to the below-shell order gets.
    next_rank: u32,
    core_size: usize,
    shell: ShellIndex,
    // The index the last re-peel replaced: the re-peel lays the next one
    // down in its arrays.
    previous: ShellIndex,
    // Scratch for the shell peel: the shell indexed by rank in vertex-id
    // order, its neighbours as ranks.
    spare: ShellIndex,
    carried: CarriedCandidates,
    metrics: Metrics,
    // Epoch-stamped per-vertex scratch for the repairs and the candidate
    // scans (no per-call allocation).
    epoch: u32,
    in_region: Vec<u32>,
    queued: Vec<u32>,
    // Per vertex: the bound of a vertex below the shell (see the module
    // docs); scratch for the cascades and the lift on all others.
    support: Vec<u32>,
    region: Vec<VertexId>,
    queue: Vec<VertexId>,
    targets: Vec<VertexId>,
    // The vertices the lift reaches, keyed on rank (rank << 32 | vertex),
    // and the slots a follower query's ordered pass reaches.
    heap: BinaryHeap<Reverse<u64>>,
    // Per-slot scratch for follower queries, stamped with `epoch` too.
    query: SlotScratch,
    memo: CountMemo,
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
            pos: vec![0; n],
            next_rank: 0,
            core_size: 0,
            shell: ShellIndex::default(),
            previous: ShellIndex::default(),
            spare: ShellIndex::default(),
            carried: CarriedCandidates::default(),
            // The cascades below are this state's one whole-graph pass.
            metrics: Metrics { rebuilds: 1, vertices_visited: n as u64, ..Metrics::default() },
            epoch: 0,
            in_region: vec![0; n],
            queued: vec![0; n],
            support: (0..n).map(|v| graph.degree(v as VertexId) as u32).collect(),
            region: Vec::new(),
            queue: Vec::new(),
            targets: Vec::new(),
            heap: BinaryHeap::new(),
            query: SlotScratch::default(),
            memo: CountMemo::new(),
        };
        // The vertices peeled at k − 1 fall below the shell, ranked in the
        // below-shell order, with their bounds left in `support`; those then
        // peeled at k form the shell.
        let mut below = Vec::new();
        state.cascade(k - 1, BELOW, &mut below);
        state.next_rank = below.len() as u32;
        let mut shell = Vec::new();
        state.cascade(k, SHELL, &mut shell);
        state.core_size = n - below.len() - shell.len();
        shell.sort_unstable();
        state.peel_shell(&shell, &[], None);
        state
    }

    /// One threshold cascade of the construction. Every `CORE` vertex with
    /// `support` below `t` moves to class `to`, and so, in turn, does every
    /// `CORE` vertex the moves leave below `t`. `support` must hold each
    /// `CORE` vertex's count of neighbours at `CORE` or above, and still
    /// does for those that stay. Appends the moved vertices to `moved`, in
    /// a peel order of them, and sets each one's `pos` to its index there:
    /// a moved vertex's `support` is never decremented again, so it stays
    /// below `t` and counts every neighbour that stays or moves after it.
    fn cascade(&mut self, t: u32, to: u32, moved: &mut Vec<VertexId>) {
        let graph = self.graph;
        for v in 0..graph.num_vertices() {
            if self.class[v] == CORE && self.support[v] < t {
                self.class[v] = to;
                self.pos[v] = moved.len() as u32;
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
                        self.pos[wi] = moved.len() as u32;
                        moved.push(w);
                    }
                }
            }
        }
    }

    /// Lay down the shell order and index the shell in it: the FIFO peel
    /// at threshold `k` over the shell in vertex-id order, each shell
    /// vertex supported by its engaged count and its shell neighbours
    /// still in the peel. Construction and every repair end here, which is
    /// what makes the order a function of the graph, `k` and the anchors
    /// alone. The peel's input comes from the index it replaces wherever it
    /// can ("The re-peel" in the module docs): `entered` holds the vertices
    /// new to the shell, in vertex-id order (the whole shell at
    /// construction), `changed` the vertices that entered the shell or left
    /// `C_k(S)`, and `raised` a vertex that entered `C_k(S)` from below the
    /// shell. The replaced index moves to `previous`. The query scratch
    /// grows to the shell's size here too.
    fn peel_shell(&mut self, entered: &[VertexId], changed: &[VertexId], raised: Option<VertexId>) {
        let (graph, k) = (self.graph, self.k);
        let epoch = self.next_epoch();
        let (class, pos) = (&self.class, &mut self.pos);
        // Stamps: `in_region` dirty, `queued` a shell neighbour of `raised`.
        let (dirty, raised_by) = (&mut self.in_region, &mut self.queued);
        for &v in changed {
            for &w in graph.neighbors(v) {
                if class[w as usize] == SHELL {
                    dirty[w as usize] = epoch;
                }
            }
        }
        if let Some(x) = raised {
            for &w in graph.neighbors(x) {
                if class[w as usize] == SHELL {
                    raised_by[w as usize] = epoch;
                }
            }
        }
        let old = &self.shell;
        let ShellIndex { ids, order, offsets, nbrs, engaged, plus } = &mut self.previous;
        let (spare, scratch) = (&mut self.spare, &mut self.query);
        // The new shell in vertex-id order: the old shell's vertices still
        // in it, merged with `entered`. `from` holds each rank's old slot.
        ids.clear();
        let from = &mut scratch.region;
        from.clear();
        let mut rest = entered;
        for &v in old.ids.iter().filter(|&&v| class[v as usize] == SHELL) {
            let before = rest.partition_point(|&e| e < v);
            ids.extend_from_slice(&rest[..before]);
            from.resize(ids.len(), NO_SLOT);
            rest = &rest[before..];
            ids.push(v);
            from.push(pos[v as usize]);
        }
        ids.extend_from_slice(rest);
        from.resize(ids.len(), NO_SLOT);
        scratch.fit(ids.len());
        let SlotScratch { support: degree, region: from, queue: rank_of, .. } = scratch;
        // The peel runs on ranks in `ids`, which `pos` holds until the
        // order replaces them; `rank_of` maps each old slot to its rank.
        rank_of.clear();
        rank_of.resize(old.order.len(), NO_SLOT);
        for (r, (&v, &s)) in ids.iter().zip(from.iter()).enumerate() {
            if s != NO_SLOT {
                rank_of[s as usize] = r as u32;
            }
            pos[v as usize] = r as u32;
        }
        // Index each shell vertex's shell neighbours into `spare` as ranks:
        // a dirty vertex from its graph list, any other from its old slice.
        spare.offsets.clear();
        spare.nbrs.clear();
        spare.engaged.clear();
        spare.offsets.push(0);
        for (r, (&v, &s)) in ids.iter().zip(from.iter()).enumerate() {
            let mut in_core = 0u32;
            if s == NO_SLOT || dirty[v as usize] == epoch {
                for &w in graph.neighbors(v) {
                    let c = class[w as usize];
                    if c == SHELL {
                        spare.nbrs.push(pos[w as usize]);
                    }
                    in_core += u32::from(c >= CORE);
                }
            } else {
                let s = s as usize;
                in_core = old.engaged[s] + u32::from(raised_by[v as usize] == epoch);
                for &t in old.slice(s) {
                    match rank_of[t as usize] {
                        NO_SLOT => {
                            in_core += u32::from(class[old.order[t as usize] as usize] >= CORE)
                        }
                        rank => spare.nbrs.push(rank),
                    }
                }
            }
            degree[r] = in_core + (spare.nbrs.len() - spare.offsets[r]) as u32;
            spare.offsets.push(spare.nbrs.len());
            spare.engaged.push(in_core);
        }
        // A rank is queued exactly when its degree has fallen below k.
        let queue = from;
        queue.clear();
        queue.extend((0..ids.len() as u32).filter(|&r| degree[r as usize] < k));
        let mut head = 0;
        while head < queue.len() {
            let r = queue[head] as usize;
            head += 1;
            for &w in spare.slice(r) {
                let d = &mut degree[w as usize];
                if *d >= k {
                    *d -= 1;
                    if *d < k {
                        queue.push(w);
                    }
                }
            }
        }
        debug_assert_eq!(queue.len(), ids.len(), "the shell peels out completely");

        // The removal order is the shell order; `degree`, spent, now maps
        // each rank to its slot.
        for (s, &r) in queue.iter().enumerate() {
            degree[r as usize] = s as u32;
        }
        offsets.clear();
        nbrs.clear();
        engaged.clear();
        plus.clear();
        order.clear();
        // An uncommit hands the index it replaced to its `KeptAnchor`, so
        // these arrays may start empty: size each once rather than grow it.
        offsets.reserve(ids.len() + 1);
        nbrs.reserve(spare.nbrs.len());
        engaged.reserve(ids.len());
        plus.reserve(ids.len());
        order.reserve(ids.len());
        offsets.push(0);
        for (s, &r) in queue.iter().enumerate() {
            let r = r as usize;
            let mut later = 0;
            nbrs.extend(spare.slice(r).iter().map(|&w| {
                let t = degree[w as usize];
                later += u32::from(t as usize > s);
                t
            }));
            plus.push(later);
            offsets.push(nbrs.len());
            engaged.push(spare.engaged[r]);
            order.push(ids[r]);
            pos[ids[r] as usize] = s as u32;
        }
        std::mem::swap(&mut self.shell, &mut self.previous);
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
        let (cu, cv) = (self.class[u], self.class[v]);
        // Below the shell `pos` holds ranks, which the K-order ignores.
        cu < cv || (cu == SHELL && cv == SHELL && self.pos[u] < self.pos[v])
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

    /// A fresh scratch epoch. The wrap clears the stamps only: `support`
    /// holds the bounds of the below-shell order, which must survive it.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.in_region.fill(0);
            self.queued.fill(0);
            self.query.stamp.fill(0);
            self.query.reach.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Exact followers of the hypothetical extra anchor `x`, on top of the
    /// committed anchors. Local: the cost follows the shell vertices its
    /// pass reaches, not the graph. Returns an empty set when `x` is
    /// already in the core or already an anchor.
    pub fn followers_of(&mut self, x: VertexId) -> Vec<VertexId> {
        self.evaluate(Candidate::unkeyed(x), true, 0);
        self.followers().collect()
    }

    /// Number of followers of `x` (allocation-free fast path for ranking).
    /// A below-shell `x` with one shell neighbour is answered from the
    /// count memo (see the module docs) once any anchor sharing that
    /// neighbour has been counted since the last commit, uncommit or
    /// restore.
    pub fn follower_count_of(&mut self, x: VertexId) -> usize {
        let candidate = self.candidate(x);
        self.count_followers(candidate, true, 0).expect("a floor of 0 skips no count")
    }

    /// `x` as a candidate, with the memo key read off its neighbour list:
    /// the slot of its one shell neighbour, when `x` lies below the shell
    /// and has exactly one. For callers whose candidates did not come from
    /// [`Self::keyed_candidates`].
    pub(crate) fn candidate(&self, x: VertexId) -> Candidate {
        let mut key = NO_KEY;
        if self.class[x as usize] == BELOW {
            let mut seeds =
                self.graph.neighbors(x).iter().filter(|&&w| self.class[w as usize] == SHELL);
            if let (Some(&v), None) = (seeds.next(), seeds.next()) {
                key = self.pos[v as usize];
            }
        }
        Candidate { vertex: x, key }
    }

    /// The follower count of `c` if it can reach `floor`: `None` ("cannot
    /// win") when `c`'s region — the slots its ordered pass keeps, or its
    /// undirected closure when not `ordered` — holds fewer than `floor`
    /// vertices, which bounds its followers below `floor` (Bound-and-skip
    /// in the module docs). A keyed `c` reads and writes the count memo;
    /// OLAK's candidates are unkeyed, so the unordered count always
    /// evaluates.
    pub(crate) fn count_followers(
        &mut self,
        c: Candidate,
        ordered: bool,
        floor: usize,
    ) -> Option<usize> {
        let (key, memoized) = (c.key as usize, c.key != NO_KEY);
        if memoized {
            if let Some(count) = self.memo.get(key) {
                return Some(count);
            }
            if self.memo.bound(key).is_some_and(|bound| bound < floor) {
                return None;
            }
        }
        let region = self.evaluate(c, ordered, floor);
        let len = self.shell.order.len();
        if region < floor {
            if memoized {
                self.memo.put_bound(len, key, region);
            }
            return None;
        }
        let count = self.followers().count();
        if memoized {
            self.memo.put(len, key, count);
        }
        Some(count)
    }

    /// Followers of `x` computed the OLAK way: the candidate region is the
    /// *undirected* shell closure around `x` (no K-order condition). The
    /// answer is identical — the undirected closure is a superset of the
    /// ordered pass's kept set and the fixpoint is exact on any superset —
    /// but more vertices are visited, which is precisely the inefficiency
    /// the paper's Figures 4/6/8 attribute to OLAK.
    pub fn followers_of_unordered(&mut self, x: VertexId) -> Vec<VertexId> {
        self.evaluate(Candidate::unkeyed(x), false, 0);
        self.followers().collect()
    }

    /// Follower count via the unordered (OLAK) region.
    pub fn follower_count_of_unordered(&mut self, x: VertexId) -> usize {
        self.count_followers(Candidate::unkeyed(x), false, 0).expect("a floor of 0 skips no count")
    }

    /// One follower evaluation, as the solvers count them. Returns the
    /// size of `c`'s region; see [`Self::compute_followers`].
    fn evaluate(&mut self, c: Candidate, ordered: bool, floor: usize) -> usize {
        self.metrics.follower_evaluations += 1;
        self.compute_followers(c, ordered, floor)
    }

    /// Core of the follower machinery: builds the region for anchoring `c`
    /// — the slots the ordered pass keeps, or the undirected closure when
    /// not `ordered` — with each region slot's support, and, unless it
    /// holds fewer than `floor` slots, peels it; then the survivors are the
    /// followers ([`Self::followers`]). Returns the region's size.
    fn compute_followers(&mut self, c: Candidate, ordered: bool, floor: usize) -> usize {
        let x = c.vertex;
        let epoch = self.next_epoch();
        let q = &mut self.query;
        q.region.clear();
        let x_class = self.class[x as usize];
        if x_class >= CORE {
            return 0; // anchoring a core member or an anchor gains nothing
        }
        // Seeds, into `queue`: shell neighbours v of x with x ⪯ v, a slot
        // comparison when x is in the shell and ordered, automatic
        // otherwise. A keyed x has one, the key. Otherwise `x` may lie
        // outside the shell, so this is the one full neighbour list a
        // query reads.
        let seed_floor = match x_class {
            SHELL if ordered => self.pos[x as usize] + 1,
            _ => 0,
        };
        q.queue.clear();
        if c.key != NO_KEY {
            q.queue.push(c.key);
        } else {
            for &w in self.graph.neighbors(x) {
                if self.class[w as usize] == SHELL && self.pos[w as usize] >= seed_floor {
                    q.queue.push(self.pos[w as usize]);
                }
            }
        }
        let region = if ordered { self.keep_in_order(epoch) } else { self.closure(x, epoch) };
        if region >= floor {
            self.peel(epoch);
        }
        region
    }

    /// The followers the last peel found: the region's slots whose support
    /// stayed at `k` or more, as vertices.
    fn followers(&self) -> impl Iterator<Item = VertexId> + '_ {
        let (q, k, order) = (&self.query, self.k, &self.shell.order);
        q.region
            .iter()
            .filter(move |&&s| q.support[s as usize] >= k)
            .map(move |&s| order[s as usize])
    }

    /// The ordered region of a query whose seeds are in `queue`: one pass
    /// in slot order from the seeds, popping the slots it reaches off a
    /// heap keyed on slot. It *keeps* a slot when its engaged count, its
    /// later shell neighbours and its count of earlier kept neighbours
    /// (plus one for a seed, from the anchor) reach `k`, and reaches on
    /// only from kept slots, to their later shell neighbours. A kept
    /// slot's support, built as the pass goes, is its engaged count, the
    /// anchor for a seed, and its kept neighbours. Charges the slots it
    /// pops; returns the kept count.
    fn keep_in_order(&mut self, epoch: u32) -> usize {
        let (k, index, heap) = (self.k, &self.shell, &mut self.heap);
        let SlotScratch { stamp, reach, support, region, queue } = &mut self.query;
        // Stamps: `reach` reached, `stamp` kept. A reached slot's `support`
        // is its count so far; a kept slot's is its support.
        heap.clear();
        for &s in queue.iter() {
            reach[s as usize] = epoch;
            support[s as usize] = 1;
            heap.push(Reverse(u64::from(s)));
        }
        let mut popped = 0;
        while let Some(Reverse(s)) = heap.pop() {
            popped += 1;
            let s = s as usize;
            let count = support[s];
            if index.engaged[s] + index.plus[s] + count < k {
                continue; // passed over
            }
            stamp[s] = epoch;
            region.push(s as u32);
            for &t in index.slice(s) {
                let t = t as usize;
                if t > s {
                    if reach[t] != epoch {
                        reach[t] = epoch;
                        support[t] = 0;
                        heap.push(Reverse(t as u64));
                    }
                    support[t] += 1;
                } else if stamp[t] == epoch {
                    support[t] += 1;
                }
            }
            support[s] = index.engaged[s] + count;
        }
        self.metrics.vertices_visited += popped;
        region.len()
    }

    /// The unordered region of a query on `x` whose seeds are in `queue`:
    /// the seeds and every shell slot reachable from them through shell
    /// edges. The region is closed under shell adjacency (a shell `x`
    /// stays out of it as a stamped slot of support 0, which the peel never
    /// decrements), so a slot's support is its engaged count plus its
    /// shell degree, plus one for a seed when `x` lies below the shell and
    /// so in no slice. Charges and returns the region's size.
    fn closure(&mut self, x: VertexId, epoch: u32) -> usize {
        let index = &self.shell;
        let SlotScratch { stamp, support, region, queue, .. } = &mut self.query;
        let degree = |s: usize| index.engaged[s] + index.slice(s).len() as u32;
        let seed_bonus = match self.class[x as usize] {
            BELOW => 1,
            _ => {
                let s = self.pos[x as usize] as usize;
                stamp[s] = epoch;
                support[s] = 0;
                0
            }
        };
        for &s in queue.iter() {
            stamp[s as usize] = epoch;
            support[s as usize] = degree(s as usize) + seed_bonus;
            region.push(s);
        }
        let mut head = 0;
        while head < region.len() {
            let s = region[head] as usize;
            head += 1;
            for &t in index.slice(s) {
                let t = t as usize;
                if stamp[t] != epoch {
                    stamp[t] = epoch;
                    support[t] = degree(t);
                    region.push(t as u32);
                }
            }
        }
        self.metrics.vertices_visited += region.len() as u64;
        region.len()
    }

    /// Exact anchored peel of the region the last query built, its
    /// supports set: a slot is queued exactly when its support falls below
    /// `k`, so the survivors are the slots whose support ends at `k` or
    /// more.
    fn peel(&mut self, epoch: u32) {
        let (k, index) = (self.k, &self.shell);
        let SlotScratch { stamp, support, region, queue, .. } = &mut self.query;
        queue.clear();
        queue.extend(region.iter().copied().filter(|&s| support[s as usize] < k));
        let mut head = 0;
        while head < queue.len() {
            let s = queue[head] as usize;
            head += 1;
            for &t in index.slice(s) {
                let t = t as usize;
                if stamp[t] == epoch && support[t] >= k {
                    support[t] -= 1;
                    if support[t] < k {
                        queue.push(t as u32);
                    }
                }
            }
        }
    }

    /// Commit `x` as an anchor. `x` and its followers join `C_k(S)`; if
    /// `x` lay below the shell, the below-shell vertices it lifts join
    /// `C_{k-1}(S)`; then the shell is re-peeled from its index. Local: the
    /// cost follows the follower pass, the vertices the lift reaches, the
    /// shell's size and its shell-to-shell entries.
    pub fn commit_anchor(&mut self, x: VertexId) {
        let was = self.class[x as usize];
        assert!(was != ANCHOR, "vertex {x} is already anchored");
        self.memo.forget();
        self.anchors.push(x);
        if was == CORE {
            // Already a member: C_k, C_{k-1} and the shell stay as they are.
            self.class[x as usize] = ANCHOR;
            return;
        }
        self.compute_followers(Candidate::unkeyed(x), true, 0);
        let (k, q, order, carried) = (self.k, &self.query, &self.shell.order, &mut self.carried);
        let mut joined = 1;
        for &s in &q.region {
            if q.support[s as usize] >= k {
                let v = order[s as usize];
                self.class[v as usize] = CORE;
                carried.note_left(v);
                joined += 1;
            }
        }
        if was == SHELL {
            carried.note_left(x);
        }
        self.class[x as usize] = ANCHOR;
        self.core_size += joined;
        let mut lifted = std::mem::take(&mut self.targets);
        lifted.clear();
        if was == BELOW {
            self.lift(x, &mut lifted);
            lifted.sort_unstable();
            self.carried.note_entered(&lifted);
        }
        self.peel_shell(&lifted, &lifted, (was == BELOW).then_some(x));
        self.metrics.vertices_visited += self.shell.ids.len() as u64;
        self.targets = lifted;
    }

    /// The growth of `C_{k-1}(S)` when the committed anchor `x` lay below
    /// the shell, by one pass over the below-shell order (see the module
    /// docs): in rank order from `x`'s later below-shell neighbours, it
    /// keeps each reached vertex whose bound and count of earlier kept
    /// neighbours (and `x`) reach k − 1, and reaches on from kept vertices
    /// only; an exact threshold-(k − 1) peel of the kept set then leaves
    /// exactly the lifted vertices. A passed-over vertex's bound absorbs its
    /// count, and an evicted vertex moves to the end of the order. Charges
    /// the vertices the pass reaches. Appends the lifted vertices to
    /// `lifted`, now in the shell.
    fn lift(&mut self, x: VertexId, lifted: &mut Vec<VertexId>) {
        let t = self.k - 1;
        // Stamps: `in_region` reached, `queued` kept. A reached vertex's
        // `support` is its bound plus its count so far; a kept vertex's is
        // its count of neighbours in `C_{k-1}(S)`, `x` or the kept set.
        let epoch = self.next_epoch();
        self.heap.clear();
        self.region.clear();
        self.lift_scan(x, epoch);
        while let Some(Reverse(key)) = self.heap.pop() {
            let v = key as VertexId;
            if self.support[v as usize] < t {
                continue; // passed over: its bound now holds its count
            }
            self.queued[v as usize] = epoch;
            self.region.push(v);
            self.support[v as usize] = self.lift_scan(v, epoch);
        }
        let graph = self.graph;
        self.queue.clear();
        self.queue.extend(self.region.iter().copied().filter(|&v| self.support[v as usize] < t));
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if self.queued[wi] == epoch && self.support[wi] >= t {
                    self.support[wi] -= 1;
                    if self.support[wi] < t {
                        self.queue.push(w);
                    }
                }
            }
        }
        // The evicted keep their final peel support as their bound.
        for i in 0..self.queue.len() {
            self.append_below(self.queue[i]);
        }
        for &v in &self.region {
            if self.support[v as usize] >= t {
                self.class[v as usize] = SHELL;
                lifted.push(v);
            }
        }
    }

    /// The lift's scan of `x` or of a kept `v`: reach each later
    /// below-shell neighbour of degree ≥ k − 1 (no other can lift) and
    /// count `v` for it, and count `v` for each earlier kept neighbour.
    /// Returns `v`'s count of neighbours in `C_{k-1}(S)`, `x` included, and
    /// earlier kept ones.
    fn lift_scan(&mut self, v: VertexId, epoch: u32) -> u32 {
        let (graph, t) = (self.graph, self.k - 1);
        let rank = self.pos[v as usize];
        let mut support = 0;
        for &w in graph.neighbors(v) {
            let wi = w as usize;
            if self.class[wi] >= SHELL {
                support += 1;
            } else if self.pos[wi] > rank {
                if graph.degree(w) as u32 >= t {
                    if self.in_region[wi] != epoch {
                        self.in_region[wi] = epoch;
                        self.heap.push(Reverse(u64::from(self.pos[wi]) << 32 | u64::from(w)));
                        self.metrics.vertices_visited += 1;
                    }
                    self.support[wi] += 1;
                }
            } else if self.queued[wi] == epoch {
                support += 1;
                self.support[wi] += 1;
            }
        }
        support
    }

    /// Move `v` below the shell, to the end of the below-shell order; its
    /// bound is the caller's to set. When the rank counter would pass
    /// `u32::MAX`, the vertices below the shell are first renumbered in
    /// rank order.
    fn append_below(&mut self, v: VertexId) {
        if self.next_rank == u32::MAX {
            self.renumber_below();
        }
        self.class[v as usize] = BELOW;
        self.pos[v as usize] = self.next_rank;
        self.next_rank += 1;
    }

    /// Renumber the ranks of the vertices below the shell `0, 1, …` in rank
    /// order: one pass over every vertex.
    fn renumber_below(&mut self) {
        let (class, pos) = (&self.class, &mut self.pos);
        let mut below: Vec<VertexId> =
            (0..class.len() as VertexId).filter(|&v| class[v as usize] == BELOW).collect();
        below.sort_unstable_by_key(|&v| pos[v as usize]);
        for (r, &v) in below.iter().enumerate() {
            pos[v as usize] = r as u32;
        }
        self.next_rank = below.len() as u32;
        self.metrics.vertices_visited += class.len() as u64;
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
        self.memo.forget();
        self.carried.forget();
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
            // What left C_k and stayed in C_{k-1} entered the shell.
            let left_core = &kept.dropped[..kept.split];
            let mut entered: Vec<VertexId> =
                left_core.iter().copied().filter(|&v| self.class[v as usize] == SHELL).collect();
            entered.sort_unstable();
            self.peel_shell(&entered, left_core, None);
            self.metrics.vertices_visited += self.shell.ids.len() as u64;
            kept.shell = Some(std::mem::take(&mut self.previous));
        }
        kept
    }

    /// Re-commit the anchor of `kept` by undoing its uncommit: the classes
    /// it changed go back, and the shell it replaced is reinstated with
    /// its order and index. Exact when no anchor changed in between.
    pub(crate) fn restore_anchor(&mut self, kept: KeptAnchor) {
        let u = kept.anchor;
        assert!(self.class[u as usize] != ANCHOR, "vertex {u} is already anchored");
        self.memo.forget();
        self.carried.forget();
        let (to_core, to_shell) = kept.dropped.split_at(kept.split);
        // `to_shell` is what the uncommit appended to the below-shell
        // order, its end: what stays below is the order the uncommit found,
        // bounds included.
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
            for (p, &v) in shell.order.iter().enumerate() {
                self.pos[v as usize] = p as u32;
            }
            // The slot scratch never shrinks, so it covers every shell this
            // state has laid out.
            debug_assert!(self.query.stamp.len() >= shell.order.len());
            self.previous = std::mem::replace(&mut self.shell, shell);
        }
    }

    /// One removal cascade of an uncommit. `start`, of class `class`,
    /// drops to `class − 1` when fewer than `t` of its neighbours are at
    /// `class` or above, and so does every vertex of class `class` the
    /// drops leave short of `t`. A vertex's count is taken when the cascade
    /// first reaches it, so the cost follows the dropped vertices'
    /// neighbourhoods. Appends the dropped vertices to `dropped`. A vertex
    /// dropped below the shell is appended to the below-shell order, in
    /// drop order, with the count it had when queued as its bound: that
    /// count covers every neighbour that stays at `class` or drops after
    /// it.
    fn demote(&mut self, start: VertexId, class: u32, t: u32, dropped: &mut Vec<VertexId>) {
        let graph = self.graph;
        let epoch = self.next_epoch();
        let count = |classes: &[u32], v: VertexId| {
            graph.neighbors(v).iter().filter(|&&w| classes[w as usize] >= class).count() as u32
        };
        let mut scans = 1;
        self.support[start as usize] = count(&self.class, start);
        if self.support[start as usize] >= t {
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
            if class == SHELL {
                self.append_below(v);
            } else {
                self.class[v as usize] = class - 1;
            }
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

    /// Theorem 3 candidate set, in vertex-id order: vertices `x` outside
    /// `C_k(S)`, not yet anchored, with at least one neighbour `v` in the
    /// (k-1)-shell such that `x ⪯ v`. Only these can have any followers.
    /// The first call scans the shell's neighbourhoods
    /// (O(|shell| + vol(shell))); later calls cost O(|shell|) and the
    /// candidates below the shell, plus the neighbour lists of the vertices
    /// that entered or left the shell in the commits between them (see
    /// "The carried candidates" in the module docs). An uncommit or a
    /// restore makes the next call scan again.
    pub fn candidates(&mut self) -> Vec<VertexId> {
        let mut out: Vec<VertexId> =
            self.keyed_candidates().into_iter().map(|c| c.vertex).collect();
        out.sort_unstable();
        out
    }

    /// [`Self::candidates`], each with its count-memo key, in no stated
    /// order: the shell candidates (plus ≥ 1) in slot order, then the
    /// carried below-shell ones. A below-shell candidate's count of shell
    /// neighbours and the XOR of their ids give the key.
    pub(crate) fn keyed_candidates(&mut self) -> Vec<Candidate> {
        let ix = &self.shell;
        let mut out = Vec::with_capacity(ix.order.len() + self.carried.below.len());
        let shell = ix.order.iter().zip(&ix.plus).filter(|&(_, &later)| later > 0);
        out.extend(shell.map(|(&v, _)| Candidate::unkeyed(v)));
        self.carried.list(self.graph, &self.class, &self.pos, &ix.ids, &mut out);
        self.metrics.vertices_visited += ix.ids.len() as u64;
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
    /// The shell's vertices in the shell order: the vertex of each slot.
    order: Vec<VertexId>,
    /// Slot `s`'s shell neighbours are `nbrs[offsets[s]..offsets[s + 1]]`,
    /// as slots.
    offsets: Vec<usize>,
    nbrs: Vec<u32>,
    /// Per slot: neighbours in `C_k(S)`, anchors included.
    engaged: Vec<u32>,
    /// Per slot: shell neighbours at later slots. With the engaged count
    /// it stays below `k`, since the shell peel removed the slot with its
    /// engaged count and every later neighbour still in the peel.
    plus: Vec<u32>,
}

impl ShellIndex {
    /// Shell neighbours of slot `s`, in the frame's neighbour order.
    #[inline]
    fn slice(&self, s: usize) -> &[u32] {
        &self.nbrs[self.offsets[s]..self.offsets[s + 1]]
    }
}

/// Scratch of a follower query, indexed by shell slot: the region in
/// discovery order; per slot, a region stamp, the ordered pass's reach
/// stamp and the support; and the seeds, then the peel queue. The shell
/// peel uses `support`, `region` and `queue` for its own bookkeeping too.
#[derive(Default)]
struct SlotScratch {
    stamp: Vec<u32>,
    reach: Vec<u32>,
    support: Vec<u32>,
    region: Vec<u32>,
    queue: Vec<u32>,
}

impl SlotScratch {
    /// Grow the per-slot arrays to cover a shell of `len` slots. New
    /// stamps are 0, which no epoch ever is.
    fn fit(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
            self.reach.resize(len, 0);
            self.support.resize(len, 0);
        }
    }
}

/// The Theorem-3 candidates below the shell, carried across commits (see
/// "The carried candidates" in the module docs).
#[derive(Default)]
struct CarriedCandidates {
    /// Whether the list and the counts are the state's once the noted
    /// moves are applied. A request sets it; an uncommit, a restore and a
    /// clone clear it, and a commit notes its moves only while it is set.
    current: bool,
    /// Per listed vertex, its number of shell neighbours and the XOR of
    /// their ids; 0 and 0 for every other vertex. Sized at the first
    /// request, so states that never rank candidates pay nothing for them.
    count: Vec<u32>,
    xor: Vec<VertexId>,
    /// The vertices below the shell with a shell neighbour, as of the last
    /// request.
    below: Vec<VertexId>,
    /// The vertices that entered and that left the shell since then.
    entered: Vec<VertexId>,
    left: Vec<VertexId>,
}

impl CarriedCandidates {
    /// Note that `v` left the shell.
    fn note_left(&mut self, v: VertexId) {
        if self.current {
            self.left.push(v);
        }
    }

    /// Note that `vs` entered the shell.
    fn note_entered(&mut self, vs: &[VertexId]) {
        if self.current {
            self.entered.extend_from_slice(vs);
        }
    }

    /// Drop the set: the next request scans again.
    fn forget(&mut self) {
        self.current = false;
    }

    /// Bring the list and the counts up to date for a state of classes
    /// `class`, slots `pos` and shell `shell`, and append the listed
    /// vertices to `out`, each keyed by the slot of its one shell neighbour
    /// when it has one. Applies the noted moves or, when the set is not
    /// current, clears it and counts the whole shell in. Either way a
    /// vertex leaves the list once it is no longer below the shell or has
    /// no shell neighbour left.
    fn list<G: GraphView>(
        &mut self,
        graph: &G,
        class: &[u32],
        pos: &[u32],
        shell: &[VertexId],
        out: &mut Vec<Candidate>,
    ) {
        let CarriedCandidates { current, count, xor, below, entered, left } = self;
        let rescan = !std::mem::replace(current, true);
        if rescan {
            if count.len() < class.len() {
                *count = vec![0; class.len()];
                *xor = vec![0; class.len()];
            }
            for &w in below.iter() {
                count[w as usize] = 0;
                xor[w as usize] = 0;
            }
            below.clear();
            entered.clear();
            left.clear();
        }
        // Arrivals first: a vertex off the list has a count of 0 until
        // then, so one that reaches 1 here is listed once.
        for &v in if rescan { shell } else { &entered[..] } {
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if class[wi] == BELOW {
                    if count[wi] == 0 {
                        below.push(w);
                    }
                    count[wi] += 1;
                    xor[wi] ^= v;
                }
            }
        }
        for &v in left.iter() {
            for &w in graph.neighbors(v) {
                let wi = w as usize;
                if class[wi] == BELOW {
                    count[wi] -= 1;
                    xor[wi] ^= v;
                }
            }
        }
        entered.clear();
        left.clear();
        out.reserve(below.len());
        below.retain(|&w| {
            let wi = w as usize;
            let listed = class[wi] == BELOW && count[wi] > 0;
            if listed {
                let key = if count[wi] == 1 { pos[xor[wi] as usize] } else { NO_KEY };
                out.push(Candidate { vertex: w, key });
            } else {
                count[wi] = 0;
                xor[wi] = 0;
            }
            listed
        });
    }
}

/// Follower counts of single-seed below-shell anchors, keyed by the seed's
/// slot (see the module docs). Slot `s` holds a stamp and either the count
/// of anchoring a below-shell vertex whose one shell neighbour sits at slot
/// `s`, or, after a skipped query, an upper bound on it; the entry is
/// current while the stamp equals `epoch`. The slots grow to the shell's
/// size when a count is memoized, so states that never rank candidates pay
/// nothing for them.
struct CountMemo {
    epoch: u32,
    slots: Vec<MemoSlot>,
}

#[derive(Clone, Copy, Default)]
struct MemoSlot {
    stamp: u32,
    value: u32,
    bound: bool,
}

impl CountMemo {
    /// An empty memo. Slots start stamped 0, which no epoch ever is.
    fn new() -> Self {
        CountMemo { epoch: 1, slots: Vec::new() }
    }

    /// The current entry at slot `s`, if any.
    fn entry(&self, s: usize) -> Option<MemoSlot> {
        self.slots.get(s).copied().filter(|slot| slot.stamp == self.epoch)
    }

    /// The count memoized for the seed at slot `s`; never a bound.
    fn get(&self, s: usize) -> Option<usize> {
        self.entry(s).filter(|slot| !slot.bound).map(|slot| slot.value as usize)
    }

    /// The bound memoized for the seed at slot `s`, if a query on it
    /// skipped its peel.
    fn bound(&self, s: usize) -> Option<usize> {
        self.entry(s).filter(|slot| slot.bound).map(|slot| slot.value as usize)
    }

    /// Memoize `count` for the seed at slot `s` of a shell of `len`.
    fn put(&mut self, len: usize, s: usize, count: usize) {
        self.store(len, s, count, false);
    }

    /// Memoize `bound` as an upper bound on the count of the seed at slot
    /// `s` of a shell of `len`.
    fn put_bound(&mut self, len: usize, s: usize, bound: usize) {
        self.store(len, s, bound, true);
    }

    fn store(&mut self, len: usize, s: usize, value: usize, bound: bool) {
        if self.slots.len() < len {
            self.slots.resize(len, MemoSlot::default());
        }
        // Counts and region sizes never exceed the vertex count, which fits
        // a VertexId.
        self.slots[s] = MemoSlot { stamp: self.epoch, value: value as u32, bound };
    }

    /// Forget every count: the state they were counted on has changed.
    fn forget(&mut self) {
        if self.epoch == u32::MAX {
            self.slots.fill(MemoSlot::default());
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

impl<'g, G: GraphView> Clone for AnchoredCoreState<'g, G> {
    /// Cloning copies the classes, the shell order and index, and the
    /// below-shell order with its bounds (O(n)); scratch space, the count
    /// memo, the carried candidates and metrics are reset, so a clone answers follower queries and
    /// repairs independently of the original.
    fn clone(&self) -> Self {
        let n = self.graph.num_vertices();
        let mut query = SlotScratch::default();
        query.fit(self.shell.order.len());
        AnchoredCoreState {
            graph: self.graph,
            k: self.k,
            anchors: self.anchors.clone(),
            class: self.class.clone(),
            pos: self.pos.clone(),
            next_rank: self.next_rank,
            core_size: self.core_size,
            shell: self.shell.clone(),
            previous: ShellIndex::default(),
            spare: ShellIndex::default(),
            carried: CarriedCandidates::default(),
            metrics: Metrics::default(),
            epoch: 0,
            in_region: vec![0; n],
            queued: vec![0; n],
            support: self.support.clone(),
            region: Vec::new(),
            queue: Vec::new(),
            targets: Vec::new(),
            heap: BinaryHeap::new(),
            query,
            memo: CountMemo::new(),
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

    /// The below-shell order's invariant: the ranks below the shell are
    /// distinct and under the counter, and each below-shell vertex's bound
    /// lies below k − 1 and, when its degree reaches k − 1, is at least its
    /// remaining degree in rank order: its neighbours in `C_{k-1}(S)` plus
    /// its later below-shell neighbours. (The lift never reaches a vertex
    /// of lower degree, so it never reads such a bound.)
    fn check_below_order(st: &AnchoredCoreState<'_>, context: &str) {
        let (g, t) = (st.graph, st.k - 1);
        let mut ranks = Vec::new();
        for v in g.vertices().filter(|&v| st.class[v as usize] == BELOW) {
            let (rank, bound) = (st.pos[v as usize], st.support[v as usize]);
            ranks.push(rank);
            assert!(rank < st.next_rank, "{context}: {v}'s rank {rank} is past the counter");
            assert!(bound < t, "{context}: {v}'s bound {bound} reaches k − 1");
            if g.degree(v) as u32 >= t {
                let remaining = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| {
                        let c = st.class[w as usize];
                        c >= SHELL || (c == BELOW && st.pos[w as usize] > rank)
                    })
                    .count() as u32;
                assert!(
                    remaining <= bound,
                    "{context}: {v} remains {remaining} over bound {bound}"
                );
            }
        }
        let below = ranks.len();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), below, "{context}: two vertices share a rank");
    }

    /// `st` has the classes, core size and K-order of a fresh build for
    /// its anchors, and its shell index bit for bit: one slice in the wrong
    /// order changes the FIFO peel, so this is what catches a re-peel from
    /// the index drifting from one from the graph.
    fn assert_matches_fresh_build(st: &AnchoredCoreState<'_>, context: &str) {
        let fresh = AnchoredCoreState::with_anchors(st.graph, st.k, st.anchors());
        assert_eq!(st.class, fresh.class, "{context}: classes");
        assert_eq!(st.anchored_core_size(), fresh.anchored_core_size(), "{context}");
        let (ix, fx) = (&st.shell, &fresh.shell);
        assert_eq!(ix.ids, fx.ids, "{context}: shell ids");
        assert_eq!(ix.order, fx.order, "{context}: shell order");
        assert_eq!(ix.offsets, fx.offsets, "{context}: slice offsets");
        assert_eq!(ix.nbrs, fx.nbrs, "{context}: slices");
        assert_eq!(ix.engaged, fx.engaged, "{context}: engaged counts");
        assert_eq!(ix.plus, fx.plus, "{context}: plus");
        for &v in &fx.ids {
            assert_eq!(st.pos[v as usize], fresh.pos[v as usize], "{context}: slot of {v}");
        }
        for u in st.graph.vertices() {
            for v in st.graph.vertices() {
                assert_eq!(st.precedes(u, v), fresh.precedes(u, v), "{context}: {u} ⪯ {v}");
            }
        }
    }

    /// K4 {0, 1, 2, 3} with the path 4 - 5 - 6 hanging off nothing, at
    /// k = 3: the cascade at 2 removes 4 and 6 (degree 1), then 5, so 5
    /// ranks last with a bound of 1 that counts 6. Anchoring 4 credits 5
    /// with 4, so the lift keeps 5, but 5's later neighbour 6 stays below:
    /// the peel evicts 5 to the end of the order.
    fn eviction_graph() -> Graph {
        Graph::from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6)])
            .unwrap()
    }

    #[test]
    fn below_shell_vertices_stay_unordered_while_their_ranks_move() {
        let g = eviction_graph();
        let mut st = AnchoredCoreState::new(&g, 3);
        let unordered = |st: &AnchoredCoreState<'_>, below: &[VertexId]| {
            for &u in below {
                for &v in below {
                    assert!(!st.precedes(u, v), "{u} ⪯ {v} below the shell");
                }
                assert!(st.precedes(u, 0) && !st.precedes(0, u));
            }
        };
        assert!([4, 5, 6].iter().all(|&v| st.class[v as usize] == BELOW));
        unordered(&st, &[4, 5, 6]);
        check_below_order(&st, "built");
        let (rank, appended) = (st.pos[5], st.next_rank);
        assert!(rank > st.pos[6], "5 ranks after 6");
        st.commit_anchor(4);
        assert_eq!(st.pos[5], appended, "the peel evicted 5 to the end of the order");
        assert_ne!(st.pos[5], rank);
        unordered(&st, &[5, 6]);
        assert!(st.precedes(0, 4) && !st.precedes(4, 0), "members precede anchors");
        check_below_order(&st, "after the eviction");
        assert_matches_fresh_build(&st, "after the eviction");
    }

    #[test]
    fn lifts_keep_the_below_shell_order_through_every_repair() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        let (mut multi_lifts, mut evictions) = (0, 0);
        for trial in 0..120 {
            let g = graph_with_chains(&mut rng);
            let k = 2 + (trial % 4) as u32;
            let mut st = AnchoredCoreState::new(&g, k);
            check_below_order(&st, &format!("trial {trial}, built"));
            for step in 0..14 {
                let context = format!("trial {trial}, k = {k}, step {step}");
                let pick = |st: &AnchoredCoreState<'_>, rng: &mut rand::rngs::SmallRng, c: u32| {
                    let pool: Vec<VertexId> =
                        g.vertices().filter(|&v| st.class[v as usize] == c).collect();
                    (!pool.is_empty()).then(|| pool[rng.gen_range(0..pool.len())])
                };
                match rng.gen_range(0u32..6) {
                    0..=2 => {
                        // Commit below the shell, in it or in the core.
                        let class = [BELOW, BELOW, SHELL, CORE][rng.gen_range(0usize..4)];
                        let Some(x) = pick(&st, &mut rng, class) else { continue };
                        let before: Vec<Option<u32>> = g
                            .vertices()
                            .map(|v| (st.class[v as usize] == BELOW).then(|| st.pos[v as usize]))
                            .collect();
                        st.commit_anchor(x);
                        let lifted = g
                            .vertices()
                            .filter(|&v| v != x && before[v as usize].is_some())
                            .filter(|&v| st.class[v as usize] != BELOW)
                            .count();
                        multi_lifts += usize::from(lifted >= 2);
                        evictions += g
                            .vertices()
                            .filter(|&v| st.class[v as usize] == BELOW)
                            .filter(|&v| {
                                before[v as usize].is_some_and(|r| r != st.pos[v as usize])
                            })
                            .count();
                    }
                    3 => {
                        let Some(u) = pick(&st, &mut rng, ANCHOR) else { continue };
                        st.uncommit_anchor(u);
                    }
                    4 => {
                        // A swap test: uncommit, count, restore.
                        let Some(u) = pick(&st, &mut rng, ANCHOR) else { continue };
                        let kept = st.uncommit_keeping(u);
                        check_below_order(&st, &format!("{context}, kept"));
                        assert_matches_fresh_build(&st, &format!("{context}, kept"));
                        for v in g.vertices() {
                            st.follower_count_of(v);
                        }
                        st.restore_anchor(kept);
                    }
                    _ => {
                        let Some(u) = pick(&st, &mut rng, ANCHOR) else { continue };
                        st.uncommit_anchor(u);
                        check_below_order(&st, &format!("{context}, uncommitted"));
                        assert_matches_fresh_build(&st, &format!("{context}, uncommitted"));
                        st.commit_anchor(u);
                    }
                }
                check_below_order(&st, &context);
                assert_matches_fresh_build(&st, &context);
            }
        }
        assert!(multi_lifts > 0, "some commit lifts two or more vertices");
        assert!(evictions > 0, "some lift evicts a kept vertex");
    }

    #[test]
    fn the_rank_counter_renumbers_across_its_wrap() {
        // k = 3: the chain 0 - 4 - 5 - 6 hangs off the K4 below the shell.
        // Anchoring its end 6 lifts 5 and 4; uncommitting 6 appends 6, 5
        // and 4 to the order again.
        let g = Graph::from_edges(
            7,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5), (5, 6)],
        )
        .unwrap();
        let mut st = AnchoredCoreState::new(&g, 3);
        st.commit_anchor(6);
        assert!(st.in_shell(4) && st.in_shell(5));
        st.next_rank = u32::MAX - 1; // as after 2³² − 2 appends
        st.uncommit_anchor(6);
        // 6 took the last rank; 5 found the counter at the top, so the
        // order was renumbered (6 first) before 5 and 4 were appended.
        assert_eq!((st.pos[6], st.pos[5], st.pos[4], st.next_rank), (0, 1, 2, 3));
        check_below_order(&st, "uncommitted across the wrap");
        assert_matches_fresh_build(&st, "uncommitted across the wrap");
        st.commit_anchor(6);
        check_below_order(&st, "recommitted");
        assert_matches_fresh_build(&st, "recommitted");
        st.next_rank = u32::MAX;
        let kept = st.uncommit_keeping(6);
        assert_eq!(st.next_rank, 3, "renumbered before the first append");
        check_below_order(&st, "kept across the wrap");
        st.restore_anchor(kept);
        check_below_order(&st, "restored");
        assert_matches_fresh_build(&st, "restored");
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
            // 25 vertices and 8 pendants: at k ≥ 3 a pendant lies below
            // the shell with at most one shell neighbour, the kind of
            // anchor the count memo serves.
            let (n, pendants) = (25usize, 8usize);
            let mut g = Graph::new(n + pendants);
            for _ in 0..90 {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v && !g.has_edge(u, v) {
                    g.insert_edge(u, v).unwrap();
                }
            }
            for p in n..n + pendants {
                g.insert_edge(p as VertexId, rng.gen_range(0..n) as VertexId).unwrap();
            }
            let k = 2 + (trial % 3) as u32;
            let mut recommit = AnchoredCoreState::new(&g, k);
            for _ in 0..3 {
                let x = rng.gen_range(0..n + pendants) as VertexId;
                if !recommit.in_core(x) {
                    recommit.commit_anchor(x);
                    assert_matches_fresh_build(&recommit, &format!("trial {trial}, committed {x}"));
                }
            }
            if recommit.anchors().is_empty() {
                continue;
            }
            let u = recommit.anchors()[rng.gen_range(0..recommit.anchors().len())];
            let mut restore = recommit.clone();
            assert_matches_fresh_build(&restore, &format!("trial {trial}, cloned"));

            recommit.uncommit_anchor(u);
            assert_matches_fresh_build(&recommit, &format!("trial {trial}, uncommitted {u}"));
            recommit.commit_anchor(u);
            assert_matches_fresh_build(&recommit, &format!("trial {trial}, recommitted {u}"));
            let kept = restore.uncommit_keeping(u);
            assert_matches_fresh_build(&restore, &format!("trial {trial}, kept {u}"));
            // Count on the state without u, as a swap test does: the
            // restore must forget these counts.
            for v in g.vertices() {
                restore.follower_count_of(v);
            }
            restore.restore_anchor(kept);
            assert_matches_fresh_build(&restore, &format!("trial {trial}, restored {u}"));
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
            }
            // The second pass reads the counts the restore left memoized.
            for pass in 0..2 {
                for v in g.vertices() {
                    assert_eq!(
                        restore.follower_count_of(v),
                        recommit.follower_count_of(v),
                        "trial {trial} pass {pass} followers of {v}"
                    );
                }
            }
            assert_eq!(restore.candidates(), recommit.candidates(), "trial {trial}");
        }
        assert!(restored_any);
    }

    #[test]
    fn below_shell_anchors_sharing_their_shell_neighbour_share_one_evaluation() {
        // 6 and 7 hang off the shell vertex 4 alone: anchoring either
        // seeds 4 and nothing else, which saves 4 and 5.
        let mut edges: Vec<(VertexId, VertexId)> =
            shell_graph().edges().map(|e| (e.u, e.v)).collect();
        edges.push((7, 4));
        let g = Graph::from_edges(8, edges).unwrap();
        let mut st = AnchoredCoreState::new(&g, 3);
        assert!(!st.in_shell(6) && !st.in_shell(7) && st.in_shell(4));
        let cost = |st: &AnchoredCoreState<'_>| {
            let m = st.metrics();
            (m.follower_evaluations, m.vertices_visited)
        };
        assert_eq!(st.follower_count_of(6), 2);
        let first = cost(&st);
        assert_eq!(st.follower_count_of(7), 2);
        assert_eq!(cost(&st), first, "a memo hit evaluates and visits nothing");
        // A commit, an uncommit and a restore each forget the memo, even
        // when, as here, they change no count.
        st.commit_anchor(0);
        assert_eq!(st.follower_count_of(7), 2);
        assert_eq!(st.follower_count_of(6), 2);
        assert_eq!(st.metrics().follower_evaluations, 2);
        let kept = st.uncommit_keeping(0);
        assert_eq!(st.follower_count_of(6), 2);
        assert_eq!(st.metrics().follower_evaluations, 3);
        st.restore_anchor(kept);
        assert_eq!(st.follower_count_of(6), 2);
        assert_eq!(st.follower_count_of(7), 2);
        assert_eq!(st.metrics().follower_evaluations, 4);
        // Follower sets and the unordered path always evaluate.
        assert_eq!(st.followers_of(6).len(), 2);
        assert_eq!(st.follower_count_of_unordered(6), 2);
        assert_eq!(st.metrics().follower_evaluations, 6);
    }

    #[test]
    fn bound_entries_are_never_counts_and_every_repair_forgets_them() {
        // k = 3 around the K4 {0, 1, 2, 3}: the shell chain 4 → 5 → 6 needs
        // 7, which comes earlier in the shell order, so no anchor on 4
        // reaches it. Anchoring 8 or 9, which hang off 4 alone, reaches the
        // forward closure {4, 5, 6} and keeps 4 and 5 (6 has one engaged
        // neighbour, no later one and one kept one), and has no followers.
        let g = Graph::from_edges(
            10,
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
                (5, 6),
                (6, 3),
                (6, 7),
                (7, 0),
                (8, 4),
                (9, 4),
            ],
        )
        .unwrap();
        let mut st = AnchoredCoreState::new(&g, 3);
        let (c8, c9) = (st.candidate(8), st.candidate(9));
        assert!(c8.key != NO_KEY && c8.key == c9.key, "both are keyed by 4's slot");
        let key = c8.key as usize;
        let evaluations = |st: &AnchoredCoreState<'_>| st.metrics().follower_evaluations;
        // A floor above the kept count skips the peel and memoizes it as
        // the bound.
        assert_eq!(st.count_followers(c8, true, 4), None);
        assert_eq!((st.memo.bound(key), st.memo.get(key)), (Some(2), None));
        assert_eq!(evaluations(&st), 1);
        // The same key under a floor the bound stays below costs nothing.
        assert_eq!(st.count_followers(c9, true, 5), None);
        assert_eq!(evaluations(&st), 1);
        // Under a floor the bound reaches, the query evaluates: a bound is
        // never answered as a count.
        assert_eq!(st.count_followers(c9, true, 2), Some(0));
        assert_eq!(st.follower_count_of(8), 0);
        assert_eq!(evaluations(&st), 2);
        assert_eq!(naive_followers(&g, 3, &[], 8), Vec::<VertexId>::new());
        // A commit, an uncommit and a restore each forget a bound; none of
        // them moves the shell here, so the key stays 4's slot.
        assert_eq!(st.follower_count_of(4), 0);
        st.memo.forget();
        let bound_after = |st: &mut AnchoredCoreState<'_>, repair: &str| {
            assert_eq!(st.memo.bound(key), None, "{repair} forgets the bound");
            assert_eq!(st.count_followers(c8, true, 4), None, "{repair}");
            assert_eq!(st.memo.bound(key), Some(2), "{repair}");
        };
        assert_eq!(st.count_followers(c8, true, 4), None);
        st.commit_anchor(0);
        bound_after(&mut st, "a commit");
        let kept = st.uncommit_keeping(0);
        bound_after(&mut st, "an uncommit");
        st.restore_anchor(kept);
        assert_eq!(st.memo.bound(key), None, "a restore forgets the bound");
        assert_eq!(st.candidate(8), c8);
    }

    #[test]
    fn the_candidate_scan_finds_the_keys_a_neighbour_scan_derives() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(37);
        let mut keyed = 0;
        for trial in 0..30 {
            let g = graph_with_pendants(&mut rng, 25, 80, 10);
            let k = 2 + (trial % 3) as u32;
            let mut st = AnchoredCoreState::new(&g, k);
            let mut scanned = st.keyed_candidates();
            scanned.sort_unstable_by_key(|c| c.vertex);
            assert_eq!(scanned, neighbour_scan(&st), "trial {trial} k = {k}");
            let plain = st.candidates();
            assert_eq!(scanned.iter().map(|c| c.vertex).collect::<Vec<_>>(), plain);
            keyed += scanned.iter().filter(|c| c.key != NO_KEY).count();
        }
        assert!(keyed > 0, "some candidate hangs off one shell vertex");
        // The carried set, through the random repairs that pin the index:
        // some requests are skipped, so that one applies several commits.
        let mut skip = rand::rngs::SmallRng::seed_from_u64(53);
        let mut requests = 0;
        random_repairs(47, |st, context| {
            if rand::Rng::gen_bool(&mut skip, 0.3) {
                return;
            }
            let fresh = AnchoredCoreState::with_anchors(st.graph, st.k, st.anchors());
            let mut carried = st.keyed_candidates();
            carried.sort_unstable_by_key(|c| c.vertex);
            assert_eq!(carried, neighbour_scan(&fresh), "{context}");
            requests += 1;
        });
        assert!(requests > 0);
    }

    /// The keyed Theorem-3 candidates of `st` by a scan of each vertex's
    /// neighbour list, in vertex-id order: every `x` outside `C_k(S)` with
    /// a shell neighbour `v` such that `x ⪯ v`, keyed as
    /// [`AnchoredCoreState::candidate`] reads the key off `x`'s list.
    fn neighbour_scan(st: &AnchoredCoreState<'_>) -> Vec<Candidate> {
        let g = st.graph;
        g.vertices()
            .filter(|&x| !st.in_core(x))
            .filter(|&x| g.neighbors(x).iter().any(|&v| st.in_shell(v) && st.precedes(x, v)))
            .map(|x| st.candidate(x))
            .collect()
    }

    /// Random repair sequences on 60 graphs from `graph_with_chains`, at k
    /// from 2 to 5. Each of 16 steps commits a vertex below the shell, in
    /// it or in the core, uncommits an anchor, makes a swap test (uncommit,
    /// count every vertex, restore), or replaces the state with its clone;
    /// `check` sees the state after every step and after a swap test's
    /// uncommit. Returns how many of each step ran: below-shell commits
    /// that lift and that do not, shell commits, member commits, uncommits,
    /// restores and clones.
    fn random_repairs(
        seed: u64,
        mut check: impl FnMut(&mut AnchoredCoreState<'_>, &str),
    ) -> [usize; 7] {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut ran = [0; 7];
        for trial in 0..60 {
            let g = graph_with_chains(&mut rng);
            let k = 2 + (trial % 4) as u32;
            let of_class = |st: &AnchoredCoreState<'_>, c: u32| {
                g.vertices().filter(|&v| st.class[v as usize] == c).collect::<Vec<_>>()
            };
            let mut st = AnchoredCoreState::new(&g, k);
            for step in 0..16 {
                let context = format!("trial {trial}, k = {k}, step {step}");
                let kind = rng.gen_range(0usize..6);
                let class = match kind {
                    0 | 1 => BELOW,
                    2 => SHELL,
                    3 => CORE,
                    _ => ANCHOR,
                };
                let pool = of_class(&st, class);
                if kind < 5 && pool.is_empty() {
                    continue;
                }
                let v = if pool.is_empty() { 0 } else { pool[rng.gen_range(0..pool.len())] };
                match kind {
                    0..=3 => {
                        let below = of_class(&st, BELOW).len();
                        st.commit_anchor(v);
                        let lifted = class == BELOW && below - of_class(&st, BELOW).len() > 1;
                        ran[if lifted { 0 } else { kind.max(1) }] += 1;
                    }
                    4 if rng.gen_bool(0.5) => {
                        st.uncommit_anchor(v);
                        ran[4] += 1;
                    }
                    4 => {
                        let kept = st.uncommit_keeping(v);
                        check(&mut st, &format!("{context}, kept {v}"));
                        for x in g.vertices() {
                            st.follower_count_of(x);
                        }
                        st.restore_anchor(kept);
                        ran[5] += 1;
                    }
                    _ => {
                        st = st.clone();
                        ran[6] += 1;
                    }
                }
                check(&mut st, &context);
            }
        }
        ran
    }

    #[test]
    fn every_repair_lays_down_the_index_a_fresh_build_does() {
        let ran = random_repairs(47, |st, context| {
            check_below_order(st, context);
            assert_matches_fresh_build(st, context);
        });
        assert!(ran.iter().all(|&n| n > 0), "every kind of step ran: {ran:?}");
    }

    /// The forward closure of anchoring `x`, over full adjacency: the
    /// shell vertices reachable from `x` through steps forward in the
    /// K-order.
    fn forward_closure_size(st: &AnchoredCoreState<'_>, x: VertexId) -> usize {
        let g = st.graph;
        let mut seen = vec![false; g.num_vertices()];
        let mut stack = vec![x];
        let mut size = 0;
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if !seen[w as usize] && st.in_shell(w) && st.precedes(v, w) {
                    seen[w as usize] = true;
                    size += 1;
                    stack.push(w);
                }
            }
        }
        size
    }

    /// A random part of 20 vertices, 6 pendants, and 4 chains hanging off
    /// it by one end (below the shell at k ≥ 3; anchoring a far end lifts
    /// the rest) or by both (below it at k ≥ 4).
    fn graph_with_chains(rng: &mut rand::rngs::SmallRng) -> Graph {
        use rand::Rng;
        let (n, pendants, chains) = (20usize, 6usize, 4usize);
        let mut edges = Vec::new();
        for _ in 0..55 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                edges.push((u, v));
            }
        }
        let mut next = n;
        for _ in 0..pendants {
            edges.push((next, rng.gen_range(0..n)));
            next += 1;
        }
        for _ in 0..chains {
            let len = rng.gen_range(2usize..5);
            edges.push((next, rng.gen_range(0..n)));
            for i in 1..len {
                edges.push((next + i - 1, next + i));
            }
            if rng.gen_bool(0.5) {
                edges.push((next + len - 1, rng.gen_range(0..n)));
            }
            next += len;
        }
        let mut g = Graph::new(next);
        for (u, v) in edges {
            let (u, v) = (u as VertexId, v as VertexId);
            if !g.has_edge(u, v) {
                g.insert_edge(u, v).unwrap();
            }
        }
        g
    }

    /// A random graph on `n` vertices with `m` edge draws and `pendants`
    /// more vertices hanging off it by one or two edges: at k ≥ 3 these
    /// lie below the shell, many with one shell neighbour (keyed).
    fn graph_with_pendants(
        rng: &mut rand::rngs::SmallRng,
        n: usize,
        m: usize,
        pendants: usize,
    ) -> Graph {
        use rand::Rng;
        let mut g = Graph::new(n + pendants);
        for _ in 0..m {
            let (u, v) = (rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            if u != v && !g.has_edge(u, v) {
                g.insert_edge(u, v).unwrap();
            }
        }
        for p in n..n + pendants {
            for _ in 0..rng.gen_range(1usize..3) {
                let host = rng.gen_range(0..n) as VertexId;
                if !g.has_edge(p as VertexId, host) {
                    g.insert_edge(p as VertexId, host).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn the_kept_count_bounds_the_followers_and_skips_only_losers() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(43);
        let (mut tighter, mut skipped) = (0, 0);
        for trial in 0..60 {
            let g = graph_with_pendants(&mut rng, 25, 85, 10);
            let k = 2 + (trial % 4) as u32;
            let mut st = AnchoredCoreState::new(&g, k);
            for _ in 0..rng.gen_range(0usize..3) {
                let x = rng.gen_range(0..g.num_vertices()) as VertexId;
                if !st.in_core(x) {
                    st.commit_anchor(x);
                }
            }
            let anchors = st.anchors().to_vec();
            for x in g.vertices() {
                let context = format!("trial {trial}, k = {k}, anchor {x} on {anchors:?}");
                let count = naive_followers(&g, k, &anchors, x).len();
                let kept = st.compute_followers(Candidate::unkeyed(x), true, 0);
                assert_eq!(st.followers().count(), count, "{context}");
                let closure = if st.in_core(x) { 0 } else { forward_closure_size(&st, x) };
                assert!(
                    count <= kept && kept <= closure,
                    "{context}: {count} ≤ {kept} ≤ {closure}"
                );
                tighter += usize::from(kept < closure);
                // Rising floors, as the solvers pass them within one memo
                // epoch: a keyed x reads and writes the memo.
                st.memo.forget();
                let c = st.candidate(x);
                for floor in 0..=kept + 1 {
                    match st.count_followers(c, true, floor) {
                        Some(n) => assert_eq!(n, count, "{context}, floor {floor}"),
                        None => {
                            assert!(count < floor, "{context}: skipped at floor {floor}");
                            skipped += 1;
                        }
                    }
                }
            }
        }
        assert!(tighter > 0, "some pass keeps less than its closure");
        assert!(skipped > 0, "some count is skipped");
    }

    #[test]
    fn scratch_stamps_are_cleared_across_the_epoch_wrap() {
        // The shell graph with 7 hanging off 4 beside 6 (both keyed by 4's
        // slot) and the chain 0 - 8 - 9 below the shell: anchoring 6 saves
        // 4 and then 5, which only 4 reaches; anchoring 9 lifts 8.
        let mut edges: Vec<(VertexId, VertexId)> =
            shell_graph().edges().map(|e| (e.u, e.v)).collect();
        edges.extend([(7, 4), (8, 0), (8, 9)]);
        let g = Graph::from_edges(10, edges).unwrap();
        let check = |st: &mut AnchoredCoreState<'_>, context: &str| {
            assert_matches_fresh_build(st, context);
            let anchors = st.anchors().to_vec();
            let fresh = AnchoredCoreState::with_anchors(&g, 3, &anchors);
            let mut carried = st.keyed_candidates();
            carried.sort_unstable_by_key(|c| c.vertex);
            assert_eq!(carried, neighbour_scan(&fresh), "{context}");
            for x in g.vertices() {
                let mut set = st.followers_of(x);
                set.sort_unstable();
                assert_eq!(set, naive_followers(&g, 3, &anchors, x), "{context}: anchor {x}");
                assert_eq!(st.follower_count_of(x), set.len(), "{context}: count of {x}");
            }
        };
        let mut st = AnchoredCoreState::new(&g, 3);
        // The first query stamps epoch 1, and so does the first query after
        // the wrap: a stamp the wrap left behind would mark 5 reached
        // before 4 reaches it, and 5 would never be kept.
        st.epoch = 0;
        assert_eq!(st.followers_of(6), [4, 5]);
        assert_eq!(st.epoch, 1);
        st.epoch = u32::MAX - 1;
        assert_eq!(st.followers_of(7), [4, 5], "the last query before the wrap");
        assert_eq!(st.epoch, u32::MAX);
        assert_eq!(st.followers_of(6), [4, 5], "the first query after the wrap");
        assert_eq!(st.epoch, 1);
        check(&mut st, "queried across the wrap");
        st.epoch = u32::MAX - 1;
        st.commit_anchor(9);
        assert!(st.in_shell(8), "the commit lifted 8");
        check(&mut st, "committed across the wrap");
        st.epoch = u32::MAX - 1;
        st.commit_anchor(6);
        check(&mut st, "a commit with followers across the wrap");
        st.epoch = u32::MAX - 1;
        let kept = st.uncommit_keeping(6);
        check(&mut st, "uncommitted across the wrap");
        st.epoch = u32::MAX - 1;
        st.restore_anchor(kept);
        check(&mut st, "restored across the wrap");
    }

    #[test]
    fn count_memo_forgets_across_the_epoch_wrap() {
        let mut memo = CountMemo::new();
        memo.put(3, 0, 7); // stamped 1, the first epoch
        assert_eq!(memo.get(0), Some(7));
        memo.epoch = u32::MAX; // as after 2³² − 2 forgets
        memo.put(3, 1, 5);
        memo.forget();
        // The epoch is 1 again: the wrap must have cleared slot 0's stamp.
        assert_eq!((memo.get(0), memo.get(1), memo.get(2)), (None, None, None));
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
