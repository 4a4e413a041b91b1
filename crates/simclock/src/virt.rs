//! A shared, monotonic **virtual clock** for deterministic simulation.
//!
//! Unlike the drift-model clocks in this crate — which answer "what would
//! this oscillator read at true time `t`?" — a [`VirtualClock`] *is* the
//! notion of true time for a simulated system: it starts at an origin and
//! moves only when the simulation explicitly advances it. Deadlines,
//! retry-backoff timers, and latency measurements taken against it are
//! therefore fully reproducible: the same schedule of `advance` calls
//! yields the same timestamps, bit for bit, on every run.
//!
//! The clock is an atomic picosecond counter, so any number of simulated
//! actors may read it without locking; advancing is a single atomic max,
//! so interleaved advances compose monotonically.

use crate::time::{Dur, Time};
use std::sync::atomic::{AtomicI64, Ordering};

/// A monotonic simulated clock: reads are free, time moves only on
/// [`advance`](VirtualClock::advance)/[`advance_to`](VirtualClock::advance_to).
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ps: AtomicI64,
}

impl VirtualClock {
    /// A clock at the origin ([`Time::ZERO`]).
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// The current simulated instant.
    pub fn now(&self) -> Time {
        Time::from_ps(self.now_ps.load(Ordering::Acquire))
    }

    /// Advance by `d` (negative spans are ignored — the clock never runs
    /// backwards) and return the new instant.
    pub fn advance(&self, d: Dur) -> Time {
        if d.as_ps() <= 0 {
            return self.now();
        }
        Time::from_ps(self.now_ps.fetch_add(d.as_ps(), Ordering::AcqRel) + d.as_ps())
    }

    /// Move the clock forward to `t` if `t` is in the future (monotonic
    /// max — a target already in the past leaves the clock untouched).
    /// Returns the clock's instant afterwards.
    pub fn advance_to(&self, t: Time) -> Time {
        Time::from_ps(
            self.now_ps
                .fetch_max(t.as_ps(), Ordering::AcqRel)
                .max(t.as_ps()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_origin_and_advances_monotonically() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Time::ZERO);
        assert_eq!(c.advance(Dur::from_us(5)), Time::from_us(5));
        assert_eq!(c.now(), Time::from_us(5));
        // Negative advance is a no-op.
        assert_eq!(c.advance(Dur::from_us(-3)), Time::from_us(5));
    }

    #[test]
    fn advance_to_is_a_monotonic_max() {
        let c = VirtualClock::new();
        c.advance(Dur::from_ms(10));
        assert_eq!(c.advance_to(Time::from_ms(4)), Time::from_ms(10));
        assert_eq!(c.advance_to(Time::from_ms(25)), Time::from_ms(25));
        assert_eq!(c.now(), Time::from_ms(25));
    }
}
