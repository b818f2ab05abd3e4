//! Branchless scan kernels for the hot peel loops, behind a runtime axis.
//!
//! Every layer of the system bottoms out in the same few inner loops: the
//! Batagelj–Zaversnik bucket peel, the follower fixpoint, mcd counting, and
//! `core >= k` membership filtering. All of them scan contiguous sorted
//! `&[VertexId]` neighbour ranges — the representation [`avt_graph::CsrGraph`]
//! and [`avt_graph::MmapCsr`] share — so one set of slice kernels serves the
//! resident and the page-cache substrates alike.
//!
//! Two implementations of each primitive live behind a function table:
//!
//! * **`scalar`** — the original branch-per-neighbour loops, verbatim. This
//!   is the reference implementation: every equivalence test compares
//!   against it, so the branchless path is always falsifiable.
//! * **`branchless`** — masked arithmetic (`cond as u32` accumulation over
//!   fixed-width lanes with a scalar tail) for the counting kernels, and
//!   write-then-advance compress loops (`out[n] = w; n += keep as usize`)
//!   for the filtering kernels. No per-element branch means no branch
//!   mispredictions on the irregular keep/skip patterns a peel produces,
//!   and the loop bodies are straight-line enough for the autovectorizer.
//!
//! The active kernel is a runtime axis like the frame source and the wire
//! codec before it: `AVT_KERNEL=scalar|branchless` (or
//! `run_experiments --kernel`, or [`set_kernel`] in-process). The choice is
//! resolved once per scan via a single relaxed atomic load — never per
//! element — and dispatch goes through a `&'static` [`KernelOps`] table of
//! plain function pointers.
//!
//! # Software prefetch
//!
//! Consumers that walk a worklist of vertices issue [`prefetch`] on the
//! *next* vertex's neighbour range while scanning the current one
//! (`_mm_prefetch` on x86_64, a no-op elsewhere — the same cfg discipline
//! as the mmap and epoll layers, no new dependencies). On resident CSR this
//! hides DRAM latency; on mapped `.csrbin` frames it is worth more, because
//! a touch-ahead gives the page cache a head start on a minor fault before
//! the scan arrives. Prefetching is a hint tied to the branchless table
//! ([`KernelOps::prefetch_ahead`]) so the scalar baseline stays exactly the
//! pre-axis code path.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

use avt_graph::VertexId;

/// Accumulator width for the chunked counting kernels: eight independent
/// lanes keep the adds off a single dependency chain without spilling
/// registers on any target we build for.
const LANES: usize = 8;

/// How far ahead [`prefetch`] reaches into a neighbour range, in bytes.
/// Four cache lines cover 64 neighbours — more than most degrees — while
/// keeping the hint cheap for the huge-degree outliers.
const PREFETCH_BYTES: usize = 256;

/// Cache-line stride for the prefetch loop.
const CACHE_LINE: usize = 64;

/// Which kernel family executes the hot scan loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The original branch-per-neighbour loops (the reference semantics).
    Scalar,
    /// Masked-arithmetic counting and compress-style filtering, with
    /// software prefetch one neighbour-range ahead.
    Branchless,
}

impl Kernel {
    /// Parse a kernel name as accepted by `AVT_KERNEL` / `--kernel`,
    /// ignoring surrounding whitespace like the numeric axes do.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "scalar" => Some(Kernel::Scalar),
            "branchless" => Some(Kernel::Branchless),
            _ => None,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kernel::Scalar => "scalar",
            Kernel::Branchless => "branchless",
        })
    }
}

/// Unresolved sentinel: the first [`active`] call reads `AVT_KERNEL`.
const UNSET: u8 = u8::MAX;
const SCALAR: u8 = 0;
const BRANCHLESS: u8 = 1;

static ACTIVE: AtomicU8 = AtomicU8::new(UNSET);

/// Select the kernel for this process, overriding the environment. Benches
/// and the equivalence proptests flip this between runs; regular binaries
/// set it once from `--kernel` before any scan happens.
pub fn set_kernel(k: Kernel) {
    let v = match k {
        Kernel::Scalar => SCALAR,
        Kernel::Branchless => BRANCHLESS,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// The kernel currently in effect. Resolved from `AVT_KERNEL` on first use
/// (default `scalar`; unknown values warn once and fall back), then cached
/// in an atomic — one relaxed load per scan, never per element.
pub fn active() -> Kernel {
    match ACTIVE.load(Ordering::Relaxed) {
        SCALAR => Kernel::Scalar,
        BRANCHLESS => Kernel::Branchless,
        _ => {
            let k = from_env();
            set_kernel(k);
            k
        }
    }
}

fn from_env() -> Kernel {
    match std::env::var("AVT_KERNEL") {
        Ok(v) => Kernel::parse(&v).unwrap_or_else(|| {
            static WARN_ONCE: Once = Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "avt-kcore: ignoring AVT_KERNEL={v:?} \
                     (expected \"scalar\" or \"branchless\"); using scalar"
                );
            });
            Kernel::Scalar
        }),
        Err(_) => Kernel::Scalar,
    }
}

/// The function table for the active kernel. Call once per scan and reuse;
/// the table itself is `&'static`, so holding it costs nothing.
pub fn ops() -> &'static KernelOps {
    match active() {
        Kernel::Scalar => &SCALAR_OPS,
        Kernel::Branchless => &BRANCHLESS_OPS,
    }
}

/// Per-follower-query context shared by the region kernels: the anchored
/// core numbers and removal positions, the epoch-stamped visited array, and
/// the hypothetical anchor. Bundling them keeps the function-pointer
/// signatures flat.
pub struct RegionCtx<'a> {
    /// Anchored core numbers, indexed by vertex.
    pub cores: &'a [u32],
    /// Removal positions (`u32::MAX` for anchors), indexed by vertex.
    pub pos: &'a [u32],
    /// Epoch stamps: `stamp[v] == epoch` means "already in the region".
    pub stamp: &'a [u32],
    /// The current query's epoch.
    pub epoch: u32,
    /// The shell level `k - 1`.
    pub shell: u32,
    /// The hypothetical anchor (`VertexId::MAX` when no anchor applies).
    pub x: VertexId,
}

/// `fn(neigh, vals, stamp, epoch, t) -> count`: count against one value
/// array, one stamp array, and one threshold. Shared by
/// [`KernelOps::count_marked_or_above`], [`KernelOps::count_ge_unmarked`],
/// and (reading `pos` as the second value array)
/// [`KernelOps::count_pair_after`].
pub type CountStampedFn = fn(&[VertexId], &[u32], &[u32], u32, u32) -> u32;

/// `fn(neigh, cores, stamp, epoch, x, k) -> count`: the anchored-region
/// support count of [`KernelOps::count_region_support`].
pub type CountRegionFn = fn(&[VertexId], &[u32], &[u32], u32, VertexId, u32) -> u32;

/// `fn(neigh, level, label, lvl, lab) -> count`: the K-order rank
/// comparison of [`KernelOps::count_korder_after`].
pub type CountOrderFn = fn(&[VertexId], &[u32], &[u64], u32, u64) -> u32;

/// `fn(neigh, member, removed, queued, epoch, out)`: the three-stamp
/// liveness compress of [`KernelOps::filter_alive`].
pub type FilterAliveFn = fn(&[VertexId], &[u32], &[u32], &[u32], u32, &mut Vec<VertexId>);

/// `fn(neigh, cores, stamp, epoch, k, out)`: the stamped threshold
/// compress of [`KernelOps::filter_below_unmarked`].
pub type FilterStampedFn = fn(&[VertexId], &[u32], &[u32], u32, u32, &mut Vec<VertexId>);

/// One kernel family: every hot scan loop as a plain function over slices.
///
/// All entries take `&[VertexId]` neighbour ranges plus per-vertex arrays,
/// so they are substrate-agnostic — resident [`avt_graph::CsrGraph`],
/// mapped [`avt_graph::MmapCsr`], and the mutable adjacency lists all feed
/// them the same slices.
pub struct KernelOps {
    /// Whether consumers should issue [`prefetch`] one neighbour-range
    /// ahead. False for the scalar table so the baseline stays the
    /// pre-axis code path, byte for byte.
    pub prefetch_ahead: bool,
    /// Count neighbours `w` with `vals[w] >= t` (mcd, Definition 6).
    pub count_ge: fn(&[VertexId], &[u32], u32) -> u32,
    /// Count neighbours `w` with `stamp[w] == epoch || vals[w] > lvl` —
    /// the level re-peel support of `MaintainedCore::peel_level`
    /// (member peers while unremoved, outsiders strictly above the level).
    pub count_marked_or_above: CountStampedFn,
    /// Count neighbours `w` with `vals[w] >= k && stamp[w] != epoch` — the
    /// demotion-cascade support of `MaintainedCore::touch_support`.
    pub count_ge_unmarked: CountStampedFn,
    /// Count neighbours `w` with `w == x || cores[w] >= k || stamp[w] ==
    /// epoch` — the anchored-region peel support of `AnchoredCoreState`.
    pub count_region_support: CountRegionFn,
    /// Count neighbours strictly after `(lvl, lab)` in `(level, label)`
    /// lexicographic order — `KOrder::deg_plus`.
    pub count_korder_after: CountOrderFn,
    /// Count neighbours strictly after `(cv, pv)` in `(core, pos)`
    /// lexicographic order — `CoreDecomposition::deg_plus`.
    pub count_pair_after: CountStampedFn,
    /// Compress neighbours `u` with `deg[u] > dv` into `out` (the peel
    /// step's bucket-move targets; anchors carry `deg == 0`, so the
    /// scalar loop's `is_anchor` test is subsumed).
    pub filter_deg_gt: fn(&[VertexId], &[u32], u32, &mut Vec<VertexId>),
    /// Compress neighbours `w` with `cores[w] == shell && stamp[w] !=
    /// epoch && w != x && pos[w] >= min_pos` into `out` — forward-closure
    /// expansion (`min_pos` encodes the `⪯` condition among equal-core
    /// vertices; 0 disables it for the unordered OLAK region).
    pub filter_region: fn(&RegionCtx<'_>, &[VertexId], u32, &mut Vec<VertexId>),
    /// Compress neighbours `w` with `member[w] == epoch && removed[w] !=
    /// epoch && queued[w] != epoch` into `out` — the fixpoint decrement
    /// targets shared by the follower peel and the level re-peel.
    pub filter_alive: FilterAliveFn,
    /// Compress neighbours `w` with `stamp[w] != epoch && (cores[w] <
    /// shell || (cores[w] == shell && pos[w] < pos_v))` into `out` — the
    /// Theorem-3 candidate scan (`x ⪯ v` rewritten against the scanning
    /// shell vertex `v`; anchors and core members fail both arms because
    /// their core is `>= k > shell`).
    pub filter_preceding: fn(&RegionCtx<'_>, &[VertexId], u32, &mut Vec<VertexId>),
    /// Compress neighbours `w` with `stamp[w] != epoch && cores[w] < k`
    /// into `out` — OLAK's unordered candidate scan (anchors fail
    /// `cores < k` since their core is `ANCHOR_CORE`).
    pub filter_below_unmarked: FilterStampedFn,
    /// Collect every vertex `v` with `cores[v] >= k` into `out` — k-core
    /// membership for spectrum and `CORE` queries.
    pub members_ge: fn(&[u32], u32, &mut Vec<VertexId>),
    /// Count vertices with `cores[v] >= k` without materializing them.
    pub count_members_ge: fn(&[u32], u32) -> usize,
}

/// Touch the first [`PREFETCH_BYTES`] of `next` so the lines are (being)
/// resident by the time the scan loop arrives. A hint only: correctness
/// never depends on it, and off x86_64 it compiles to nothing.
#[inline]
pub fn prefetch(next: &[VertexId]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(next).min(PREFETCH_BYTES);
        let ptr = next.as_ptr().cast::<i8>();
        let mut off = 0usize;
        while off < bytes {
            // SAFETY: `off < size_of_val(next)` keeps the address inside
            // the slice allocation; PREFETCH hints never fault regardless.
            unsafe { _mm_prefetch(ptr.add(off), _MM_HINT_T0) };
            off += CACHE_LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = next;
    }
}

// ---------------------------------------------------------------------------
// Scalar table: the original loops, one branch per neighbour.
// ---------------------------------------------------------------------------

static SCALAR_OPS: KernelOps = KernelOps {
    prefetch_ahead: false,
    count_ge: |neigh, vals, t| neigh.iter().filter(|&&w| vals[w as usize] >= t).count() as u32,
    count_marked_or_above: |neigh, vals, stamp, epoch, lvl| {
        neigh.iter().filter(|&&w| stamp[w as usize] == epoch || vals[w as usize] > lvl).count()
            as u32
    },
    count_ge_unmarked: |neigh, vals, stamp, epoch, k| {
        neigh.iter().filter(|&&w| vals[w as usize] >= k && stamp[w as usize] != epoch).count()
            as u32
    },
    count_region_support: |neigh, cores, stamp, epoch, x, k| {
        neigh
            .iter()
            .filter(|&&w| w == x || cores[w as usize] >= k || stamp[w as usize] == epoch)
            .count() as u32
    },
    count_korder_after: |neigh, level, label, lvl, lab| {
        neigh.iter().filter(|&&w| (level[w as usize], label[w as usize]) > (lvl, lab)).count()
            as u32
    },
    count_pair_after: |neigh, core, pos, cv, pv| {
        neigh
            .iter()
            .filter(|&&w| {
                let (cw, pw) = (core[w as usize], pos[w as usize]);
                if cv != cw {
                    cv < cw
                } else {
                    pv < pw
                }
            })
            .count() as u32
    },
    filter_deg_gt: |neigh, deg, dv, out| {
        out.clear();
        out.extend(neigh.iter().copied().filter(|&u| deg[u as usize] > dv));
    },
    filter_region: |ctx, neigh, min_pos, out| {
        out.clear();
        out.extend(neigh.iter().copied().filter(|&w| {
            let wi = w as usize;
            ctx.cores[wi] == ctx.shell
                && ctx.stamp[wi] != ctx.epoch
                && w != ctx.x
                && ctx.pos[wi] >= min_pos
        }));
    },
    filter_alive: |neigh, member, removed, queued, epoch, out| {
        out.clear();
        out.extend(neigh.iter().copied().filter(|&w| {
            let wi = w as usize;
            member[wi] == epoch && removed[wi] != epoch && queued[wi] != epoch
        }));
    },
    filter_preceding: |ctx, neigh, pos_v, out| {
        out.clear();
        out.extend(neigh.iter().copied().filter(|&w| {
            let wi = w as usize;
            ctx.stamp[wi] != ctx.epoch
                && (ctx.cores[wi] < ctx.shell
                    || (ctx.cores[wi] == ctx.shell && ctx.pos[wi] < pos_v))
        }));
    },
    filter_below_unmarked: |neigh, cores, stamp, epoch, k, out| {
        out.clear();
        out.extend(
            neigh.iter().copied().filter(|&w| stamp[w as usize] != epoch && cores[w as usize] < k),
        );
    },
    members_ge: |cores, k, out| {
        out.clear();
        out.extend(
            cores.iter().enumerate().filter_map(|(v, &c)| (c >= k).then_some(v as VertexId)),
        );
    },
    count_members_ge: |cores, k| cores.iter().filter(|&&c| c >= k).count(),
};

// ---------------------------------------------------------------------------
// Branchless table: masked counting over fixed-width lanes with a scalar
// tail, and write-then-advance compress loops.
// ---------------------------------------------------------------------------

/// Chunked masked count: `pred` must be branch-free (a comparison folded to
/// a bool). Eight independent accumulators, scalar tail.
#[inline]
fn count_masked(neigh: &[VertexId], pred: impl Fn(VertexId) -> bool) -> u32 {
    let mut lanes = [0u32; LANES];
    let mut chunks = neigh.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &w) in lanes.iter_mut().zip(chunk) {
            *lane += pred(w) as u32;
        }
    }
    let mut total: u32 = lanes.iter().sum();
    for &w in chunks.remainder() {
        total += pred(w) as u32;
    }
    total
}

/// Compress loop without a per-element branch: the slot is written
/// unconditionally and the cursor advances by the keep mask. After `i`
/// elements `n <= i`, so `out[n]` is always in bounds of the
/// `resize(neigh.len())` below.
#[inline]
fn filter_masked(neigh: &[VertexId], out: &mut Vec<VertexId>, keep: impl Fn(VertexId) -> bool) {
    out.clear();
    out.resize(neigh.len(), 0);
    let mut n = 0usize;
    for &w in neigh {
        out[n] = w;
        n += keep(w) as usize;
    }
    out.truncate(n);
}

static BRANCHLESS_OPS: KernelOps = KernelOps {
    prefetch_ahead: true,
    count_ge: |neigh, vals, t| count_masked(neigh, |w| vals[w as usize] >= t),
    count_marked_or_above: |neigh, vals, stamp, epoch, lvl| {
        count_masked(neigh, |w| {
            let wi = w as usize;
            (stamp[wi] == epoch) | (vals[wi] > lvl)
        })
    },
    count_ge_unmarked: |neigh, vals, stamp, epoch, k| {
        count_masked(neigh, |w| {
            let wi = w as usize;
            (vals[wi] >= k) & (stamp[wi] != epoch)
        })
    },
    count_region_support: |neigh, cores, stamp, epoch, x, k| {
        count_masked(neigh, |w| {
            let wi = w as usize;
            (w == x) | (cores[wi] >= k) | (stamp[wi] == epoch)
        })
    },
    count_korder_after: |neigh, level, label, lvl, lab| {
        count_masked(neigh, |w| {
            let wi = w as usize;
            (level[wi] > lvl) | ((level[wi] == lvl) & (label[wi] > lab))
        })
    },
    count_pair_after: |neigh, core, pos, cv, pv| {
        count_masked(neigh, |w| {
            let wi = w as usize;
            (core[wi] > cv) | ((core[wi] == cv) & (pos[wi] > pv))
        })
    },
    filter_deg_gt: |neigh, deg, dv, out| {
        filter_masked(neigh, out, |u| deg[u as usize] > dv);
    },
    filter_region: |ctx, neigh, min_pos, out| {
        filter_masked(neigh, out, |w| {
            let wi = w as usize;
            (ctx.cores[wi] == ctx.shell)
                & (ctx.stamp[wi] != ctx.epoch)
                & (w != ctx.x)
                & (ctx.pos[wi] >= min_pos)
        });
    },
    filter_alive: |neigh, member, removed, queued, epoch, out| {
        filter_masked(neigh, out, |w| {
            let wi = w as usize;
            (member[wi] == epoch) & (removed[wi] != epoch) & (queued[wi] != epoch)
        });
    },
    filter_preceding: |ctx, neigh, pos_v, out| {
        filter_masked(neigh, out, |w| {
            let wi = w as usize;
            (ctx.stamp[wi] != ctx.epoch)
                & ((ctx.cores[wi] < ctx.shell)
                    | ((ctx.cores[wi] == ctx.shell) & (ctx.pos[wi] < pos_v)))
        });
    },
    filter_below_unmarked: |neigh, cores, stamp, epoch, k, out| {
        filter_masked(neigh, out, |w| {
            let wi = w as usize;
            (stamp[wi] != epoch) & (cores[wi] < k)
        });
    },
    members_ge: |cores, k, out| {
        out.clear();
        out.resize(cores.len(), 0);
        let mut n = 0usize;
        for (v, &c) in cores.iter().enumerate() {
            out[n] = v as VertexId;
            n += (c >= k) as usize;
        }
        out.truncate(n);
    },
    count_members_ge: |cores, k| {
        let mut lanes = [0usize; LANES];
        let mut chunks = cores.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (lane, &c) in lanes.iter_mut().zip(chunk) {
                *lane += (c >= k) as usize;
            }
        }
        let mut total: usize = lanes.iter().sum();
        for &c in chunks.remainder() {
            total += (c >= k) as usize;
        }
        total
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random array without external dependencies.
    fn arr(n: usize, m: u32) -> Vec<u32> {
        let mut x = 0x9e3779b9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x % m
            })
            .collect()
    }

    fn neighbourhood(n: usize, len: usize) -> Vec<VertexId> {
        arr(len, n as u32)
    }

    #[test]
    fn parse_and_display_round_trip() {
        assert_eq!(Kernel::parse("scalar"), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse("branchless"), Some(Kernel::Branchless));
        assert_eq!(Kernel::parse("simd"), None);
        assert_eq!(Kernel::parse("branchless "), Some(Kernel::Branchless));
        assert_eq!(Kernel::parse(" scalar\n"), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse(" "), None);
        assert_eq!(Kernel::parse(&Kernel::Scalar.to_string()), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse(&Kernel::Branchless.to_string()), Some(Kernel::Branchless));
    }

    #[test]
    fn tables_agree_on_every_primitive() {
        let n = 97usize;
        // Lengths straddling the lane width, including empty and tails.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 40, 129] {
            let neigh = neighbourhood(n, len);
            let vals = arr(n, 7);
            let stamp = arr(n, 3);
            let label: Vec<u64> = arr(n, 50).iter().map(|&x| x as u64).collect();
            let pos = arr(n, 64);
            for t in 0..4 {
                assert_eq!(
                    (SCALAR_OPS.count_ge)(&neigh, &vals, t),
                    (BRANCHLESS_OPS.count_ge)(&neigh, &vals, t),
                    "count_ge len={len} t={t}"
                );
                assert_eq!(
                    (SCALAR_OPS.count_marked_or_above)(&neigh, &vals, &stamp, 1, t),
                    (BRANCHLESS_OPS.count_marked_or_above)(&neigh, &vals, &stamp, 1, t),
                );
                assert_eq!(
                    (SCALAR_OPS.count_ge_unmarked)(&neigh, &vals, &stamp, 1, t),
                    (BRANCHLESS_OPS.count_ge_unmarked)(&neigh, &vals, &stamp, 1, t),
                );
                let x = (t * 13 % n as u32) as VertexId;
                assert_eq!(
                    (SCALAR_OPS.count_region_support)(&neigh, &vals, &stamp, 1, x, t),
                    (BRANCHLESS_OPS.count_region_support)(&neigh, &vals, &stamp, 1, x, t),
                );
                assert_eq!(
                    (SCALAR_OPS.count_korder_after)(&neigh, &vals, &label, t, 25),
                    (BRANCHLESS_OPS.count_korder_after)(&neigh, &vals, &label, t, 25),
                );
                assert_eq!(
                    (SCALAR_OPS.count_pair_after)(&neigh, &vals, &pos, t, 30),
                    (BRANCHLESS_OPS.count_pair_after)(&neigh, &vals, &pos, t, 30),
                );

                let (mut a, mut b) = (Vec::new(), Vec::new());
                (SCALAR_OPS.filter_deg_gt)(&neigh, &vals, t, &mut a);
                (BRANCHLESS_OPS.filter_deg_gt)(&neigh, &vals, t, &mut b);
                assert_eq!(a, b, "filter_deg_gt len={len} t={t}");

                let ctx =
                    RegionCtx { cores: &vals, pos: &pos, stamp: &stamp, epoch: 1, shell: t, x };
                (SCALAR_OPS.filter_region)(&ctx, &neigh, 20, &mut a);
                (BRANCHLESS_OPS.filter_region)(&ctx, &neigh, 20, &mut b);
                assert_eq!(a, b, "filter_region len={len} t={t}");

                (SCALAR_OPS.filter_preceding)(&ctx, &neigh, 33, &mut a);
                (BRANCHLESS_OPS.filter_preceding)(&ctx, &neigh, 33, &mut b);
                assert_eq!(a, b, "filter_preceding len={len} t={t}");

                (SCALAR_OPS.filter_alive)(&neigh, &stamp, &vals, &pos, 1, &mut a);
                (BRANCHLESS_OPS.filter_alive)(&neigh, &stamp, &vals, &pos, 1, &mut b);
                assert_eq!(a, b, "filter_alive len={len} t={t}");

                (SCALAR_OPS.filter_below_unmarked)(&neigh, &vals, &stamp, 1, t, &mut a);
                (BRANCHLESS_OPS.filter_below_unmarked)(&neigh, &vals, &stamp, 1, t, &mut b);
                assert_eq!(a, b, "filter_below_unmarked len={len} t={t}");
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for k in 0..8 {
                (SCALAR_OPS.members_ge)(&vals, k, &mut a);
                (BRANCHLESS_OPS.members_ge)(&vals, k, &mut b);
                assert_eq!(a, b, "members_ge k={k}");
                assert_eq!(
                    (SCALAR_OPS.count_members_ge)(&vals, k),
                    (BRANCHLESS_OPS.count_members_ge)(&vals, k),
                );
                assert_eq!(a.len(), (SCALAR_OPS.count_members_ge)(&vals, k));
            }
        }
    }

    #[test]
    fn filters_preserve_neighbour_order() {
        let neigh: Vec<VertexId> = (0..40).rev().collect();
        let deg: Vec<u32> = (0..40).map(|v| v % 5).collect();
        let mut out = Vec::new();
        (BRANCHLESS_OPS.filter_deg_gt)(&neigh, &deg, 2, &mut out);
        let expect: Vec<VertexId> =
            neigh.iter().copied().filter(|&u| deg[u as usize] > 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn prefetch_accepts_any_slice() {
        prefetch(&[]);
        prefetch(&[1, 2, 3]);
        let big: Vec<VertexId> = (0..10_000).collect();
        prefetch(&big);
    }

    #[test]
    fn env_parsing_defaults_to_scalar() {
        // `from_env` reads the real environment; in the test harness the
        // variable is normally unset, and an unset variable means scalar.
        if std::env::var("AVT_KERNEL").is_err() {
            assert_eq!(from_env(), Kernel::Scalar);
        }
    }
}
