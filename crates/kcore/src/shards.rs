//! The write-shard axis: how many vertex-range shards the batch writer
//! uses when applying an `EdgeBatch` to a [`crate::MaintainedCore`].
//!
//! Like the kernel axis before it (`AVT_KERNEL`), the shard count is a
//! runtime knob — `AVT_WRITE_SHARDS=1|2|4|…` or `avt-serve
//! --write-shards` — resolved once per process via a relaxed atomic and
//! overridable in-process with [`set_write_shards`] (the equivalence
//! proptests flip it between runs).
//!
//! Every shard count runs the same batched insertion (see
//! [`crate::maintain`]): adjacency pushes, the dirty screen, then one
//! bottom-up repair of the broken K-order levels. With `1`, the default,
//! the pushes and the screen run on the calling thread. `N > 1` partitions
//! vertices into N contiguous ranges and runs each shard's pushes and
//! screen in parallel (`std::thread::scope`, no new dependencies). The
//! published core numbers are bit-identical across shard counts — cores
//! are a function of the graph alone — and `tests/prop_writer.rs` pins
//! every count against the from-scratch decomposition.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;

/// Unresolved sentinel: the first [`write_shards`] call reads
/// `AVT_WRITE_SHARDS`.
const UNSET: u32 = 0;

/// Upper bound on the shard count. More shards than cores is pure
/// overhead, and the cap keeps a typo like `AVT_WRITE_SHARDS=1000000`
/// from spawning a thread storm.
pub const MAX_WRITE_SHARDS: u32 = 64;

static ACTIVE: AtomicU32 = AtomicU32::new(UNSET);

/// Select the writer shard count for this process, overriding the
/// environment. Values are clamped to `1..=`[`MAX_WRITE_SHARDS`].
pub fn set_write_shards(n: u32) {
    ACTIVE.store(n.clamp(1, MAX_WRITE_SHARDS), Ordering::Relaxed);
}

/// The shard count currently in effect. Resolved from `AVT_WRITE_SHARDS`
/// on first use (default `1`; unparseable values warn once and fall
/// back), then cached in an atomic — one relaxed load per batch.
pub fn write_shards() -> u32 {
    match ACTIVE.load(Ordering::Relaxed) {
        UNSET => {
            let n = from_env();
            set_write_shards(n);
            n
        }
        n => n,
    }
}

fn from_env() -> u32 {
    match std::env::var("AVT_WRITE_SHARDS") {
        // Trim before parsing — `AVT_WRITE_SHARDS="4 "` from a shell
        // script is an intent, not a typo — matching the
        // `AVT_ENGINE_THREADS` axis.
        Ok(v) => match v.trim().parse::<u32>() {
            Ok(n) if (1..=MAX_WRITE_SHARDS).contains(&n) => n,
            _ => {
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "avt-kcore: ignoring AVT_WRITE_SHARDS={v:?} \
                         (expected 1..={MAX_WRITE_SHARDS}); using 1"
                    );
                });
                1
            }
        },
        Err(_) => 1,
    }
}

/// Split `0..n` vertices into `shards` contiguous ranges as exclusive
/// upper bounds: shard `i` owns `bounds[i]..bounds[i+1]` with an implicit
/// leading `0`. Ranges differ in size by at most one vertex; with more
/// shards than vertices the trailing ranges are empty.
pub fn shard_bounds(n: usize, shards: u32) -> Vec<usize> {
    let shards = shards.max(1) as usize;
    let base = n / shards;
    let extra = n % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut at = 0usize;
    for i in 0..shards {
        at += base + usize::from(i < extra);
        bounds.push(at);
    }
    debug_assert_eq!(at, n);
    bounds
}

/// The shard owning vertex `v` under `bounds` (as produced by
/// [`shard_bounds`]): the first range whose exclusive upper bound
/// exceeds `v`.
pub fn shard_of(v: usize, bounds: &[usize]) -> usize {
    bounds.partition_point(|&hi| hi <= v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_cover_exactly_once() {
        for n in [0usize, 1, 5, 17, 64] {
            for shards in [1u32, 2, 3, 4, 7, 64] {
                let bounds = shard_bounds(n, shards);
                assert_eq!(bounds.len(), shards as usize);
                assert_eq!(*bounds.last().unwrap(), n);
                let mut prev = 0usize;
                for &hi in &bounds {
                    assert!(hi >= prev);
                    prev = hi;
                }
                for v in 0..n {
                    let s = shard_of(v, &bounds);
                    let lo = if s == 0 { 0 } else { bounds[s - 1] };
                    assert!(v >= lo && v < bounds[s]);
                }
            }
        }
    }

    #[test]
    fn env_independent_override() {
        set_write_shards(4);
        assert_eq!(write_shards(), 4);
        set_write_shards(0); // clamped up
        assert_eq!(write_shards(), 1);
        set_write_shards(1_000_000); // clamped down
        assert_eq!(write_shards(), MAX_WRITE_SHARDS);
        set_write_shards(1);
    }
}
