//! The `AVT_OBS` runtime axis: off (default, zero wire drift) or on.
//!
//! Follows the same pattern as every other runtime axis in the workspace
//! (`AVT_KERNEL`, `AVT_WRITE_SHARDS`, `AVT_ENGINE_THREADS`): a process-wide
//! setter for harnesses and CLI flags, the environment as fallback, and a
//! warn-once on unrecognized values — silently ignoring a typo'd
//! `AVT_OBS=onn` would make an "obs CI pass" test nothing. Like
//! `AVT_KERNEL`, both knobs here are read from the environment once, on
//! first use, and cached: [`obs_on`] sits on the per-request path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Whether the telemetry layer records anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Record nothing; the serving stack's wire output stays
    /// byte-identical to the pre-telemetry release.
    Off,
    /// Record spans, registry metrics, and flight-recorder entries.
    On,
}

impl ObsMode {
    /// Lowercase knob value (`off` / `on`).
    pub fn as_str(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::On => "on",
        }
    }

    /// Parse a knob value (the `--obs` flag / `AVT_OBS` variable).
    pub fn parse(value: &str) -> Option<ObsMode> {
        match value.trim() {
            "off" => Some(ObsMode::Off),
            "on" => Some(ObsMode::On),
            _ => None,
        }
    }
}

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

/// Sentinel for "neither installed nor resolved yet".
const MODE_UNSET: u64 = 0;
const MODE_OFF: u64 = 1;
const MODE_ON: u64 = 2;

/// Process-wide mode: the `--obs` flag's override, or the environment's
/// value once resolved. `MODE_UNSET` until either happens.
static MODE: AtomicU64 = AtomicU64::new(MODE_UNSET);

/// Install a process-wide telemetry mode; takes precedence over the
/// `AVT_OBS` environment variable.
pub fn set_obs_mode(mode: ObsMode) {
    let v = match mode {
        ObsMode::Off => MODE_OFF,
        ObsMode::On => MODE_ON,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The telemetry mode: the [`set_obs_mode`] override if installed, else
/// `AVT_OBS` from the environment (`off` / `on`), else [`ObsMode::Off`].
/// An unrecognized environment value warns once per process and falls
/// back to off.
pub fn obs_mode() -> ObsMode {
    let mode = cached(&MODE, MODE_UNSET, || match std::env::var("AVT_OBS") {
        Ok(value) => match ObsMode::parse(&value) {
            Some(ObsMode::On) => MODE_ON,
            Some(ObsMode::Off) => MODE_OFF,
            None => {
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!("warning: AVT_OBS={value:?} is not off or on; telemetry stays off");
                });
                MODE_OFF
            }
        },
        Err(_) => MODE_OFF,
    });
    if mode == MODE_ON {
        ObsMode::On
    } else {
        ObsMode::Off
    }
}

/// `true` when the telemetry layer should record ([`ObsMode::On`]).
#[inline]
pub fn obs_on() -> bool {
    obs_mode() == ObsMode::On
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
    fn mode_parses_and_round_trips() {
        assert_eq!(ObsMode::parse("off"), Some(ObsMode::Off));
        assert_eq!(ObsMode::parse(" on "), Some(ObsMode::On));
        assert_eq!(ObsMode::parse("onn"), None);
        assert_eq!(ObsMode::On.as_str(), "on");
        assert_eq!(ObsMode::Off.as_str(), "off");
    }

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
