//! The flight recorder's slow-request threshold: a deployment setting
//! (`AVT_OBS_SLOW_US`, or the `--slow-us` override), not a code path.
//!
//! Follows the same pattern as the engine's `AVT_ENGINE_THREADS` axis: a
//! process-wide setter for harnesses and CLI flags, the environment as
//! fallback, and a warn-once on unparsable values. The environment is read once, on first use, and
//! cached: [`slow_threshold_us`] sits on the per-request path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Read an axis slot, resolving it on first use: `unset` marks an empty
/// slot, and `resolve` (the environment read) runs only to fill one. Only
/// an empty slot is filled, so a setter racing the first read keeps its
/// precedence over the environment.
fn cached(slot: &AtomicU64, unset: u64, resolve: impl FnOnce() -> u64) -> u64 {
    let current = slot.load(Ordering::Relaxed);
    if current != unset {
        return current;
    }
    let resolved = resolve();
    match slot.compare_exchange(unset, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => resolved,
        Err(installed) => installed,
    }
}

/// Default slow-request threshold: 10 ms.
const DEFAULT_SLOW_US: u64 = 10_000;

/// Sentinel for "neither installed nor resolved yet".
const SLOW_UNSET: u64 = u64::MAX;

/// Process-wide slow threshold in µs: the `--slow-us` override, or the
/// environment's value once resolved.
static SLOW_US: AtomicU64 = AtomicU64::new(SLOW_UNSET);

/// Install a process-wide slow-request threshold (µs); takes precedence
/// over the `AVT_OBS_SLOW_US` environment variable.
pub fn set_slow_threshold_us(us: u64) {
    SLOW_US.store(us.min(SLOW_UNSET - 1), Ordering::Relaxed);
}

/// Requests whose total latency reaches this many µs are recorded
/// verbatim by the flight recorder: the [`set_slow_threshold_us`]
/// override if installed, else `AVT_OBS_SLOW_US` from the environment,
/// else 10 000 (10 ms). An unparsable environment value warns once and
/// falls back to the default.
pub fn slow_threshold_us() -> u64 {
    cached(&SLOW_US, SLOW_UNSET, || match std::env::var("AVT_OBS_SLOW_US") {
        Ok(value) => value.trim().parse::<u64>().map_or_else(
            |_| {
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: AVT_OBS_SLOW_US={value:?} is not a µs count; \
                         using {DEFAULT_SLOW_US}"
                    );
                });
                DEFAULT_SLOW_US
            },
            |us| us.min(SLOW_UNSET - 1),
        ),
        Err(_) => DEFAULT_SLOW_US,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_resolve_once_and_setters_win() {
        let slot = AtomicU64::new(SLOW_UNSET);
        let mut reads = 0;
        assert_eq!(
            cached(&slot, SLOW_UNSET, || {
                reads += 1;
                7
            }),
            7
        );
        assert_eq!(
            cached(&slot, SLOW_UNSET, || {
                reads += 1;
                9
            }),
            7,
            "a resolved slot is never re-read"
        );
        assert_eq!(reads, 1);
        slot.store(3, Ordering::Relaxed);
        assert_eq!(cached(&slot, SLOW_UNSET, || unreachable!("slot is set")), 3);
    }

    #[test]
    fn threshold_override_wins() {
        // Note: the override is process-wide, so this test leaves it
        // installed; nothing else in this crate's tests reads it.
        set_slow_threshold_us(1_234);
        assert_eq!(slow_threshold_us(), 1_234);
    }
}
