//! The `Clock` seam: the one sanctioned wall-clock touchpoint.
//!
//! Lint rules L005/L006 forbid `std::time::Instant`/`SystemTime` everywhere
//! in the deterministic core — a simulator whose behaviour depends on host
//! timing cannot reproduce the paper's schedules bit-for-bit. Profiling
//! still needs real time, so the [`Profiler`](crate::Profiler) takes a
//! pluggable [`Clock`]: deterministic code gets [`NullClock`] (always 0) or
//! a test-steppable [`ManualClock`]; only measurement harnesses
//! (`crates/bench`) plug in [`MonotonicClock`], the single permitted
//! `Instant` site in the workspace.

// The seam itself may name the clock types and read the wall clock.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::cell::Cell;
use std::time::Instant;

/// A monotonic nanosecond source.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin. Must be monotonic
    /// non-decreasing.
    fn now_ns(&self) -> u64;
}

/// Always reports 0: makes span timers free and deterministic. The default
/// for any profiler embedded in reproducible runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// A hand-stepped clock for testing timing logic deterministically.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: Cell<u64>,
}

impl ManualClock {
    /// Starts at 0 ns.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.ns.set(self.ns.get() + ns);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.get()
    }
}

/// Real elapsed time from a process-monotonic anchor. **Measurement code
/// only** — never construct one inside the deterministic core.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Anchors the clock at the moment of construction.
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        let d = self.origin.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_is_frozen() {
        let c = NullClock;
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn manual_clock_steps() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(5);
        c.advance(10);
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
