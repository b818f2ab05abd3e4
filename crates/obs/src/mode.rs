//! The flight recorder's slow-request threshold: a deployment setting
//! (`avt-serve --slow-us`), not a code path.
//!
//! One process-wide atomic: [`slow_threshold_us`] sits on the per-request
//! path, so reading it is a single relaxed load.

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide slow threshold in µs; 10 ms until a setter runs.
static SLOW_US: AtomicU64 = AtomicU64::new(10_000);

/// Install a process-wide slow-request threshold (µs).
pub fn set_slow_threshold_us(us: u64) {
    SLOW_US.store(us, Ordering::Relaxed);
}

/// Requests whose total latency reaches this many µs are recorded
/// verbatim by the flight recorder: the last [`set_slow_threshold_us`]
/// value, else 10 000 (10 ms).
pub fn slow_threshold_us() -> u64 {
    SLOW_US.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_override_wins() {
        // Note: the override is process-wide, so this test leaves it
        // installed; nothing else in this crate's tests reads it.
        set_slow_threshold_us(1_234);
        assert_eq!(slow_threshold_us(), 1_234);
    }
}
