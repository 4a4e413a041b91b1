//! The simulated runtime: `syncd`'s clock seam over a
//! [`simclock::VirtualClock`].
//!
//! Time exists only as the virtual clock's picosecond counter; it moves
//! when the harness (or an injected fault) advances it, never on its own.
//! Deadlines and latency histograms inside the service therefore depend
//! solely on the simulated schedule — two runs of the
//! same schedule read identical timestamps, bit for bit.

use simclock::{Dur, VirtualClock};
use std::time::Duration;

/// A [`syncd::Runtime`] whose `now` is a shared [`VirtualClock`].
///
/// The service sees nanosecond resolution (its seam speaks [`Duration`]);
/// the clock stores picoseconds, so conversions are exact in both
/// directions for every duration the harness produces.
#[derive(Debug, Default)]
pub struct SimRuntime {
    clock: VirtualClock,
}

impl SimRuntime {
    /// A runtime whose clock is at the origin.
    pub fn new() -> Self {
        SimRuntime::default()
    }

    /// The simulated instant as the service sees it.
    pub fn now(&self) -> Duration {
        ps_to_duration(self.clock.now().as_ps())
    }

    /// Advance the clock by `d` and return the new instant.
    pub fn advance(&self, d: Duration) -> Duration {
        ps_to_duration(self.clock.advance(duration_to_dur(d)).as_ps())
    }
}

fn ps_to_duration(ps: i64) -> Duration {
    Duration::from_nanos((ps / 1000).max(0) as u64)
}

fn duration_to_dur(d: Duration) -> Dur {
    Dur::from_ps((d.as_nanos() as i64).saturating_mul(1000))
}

impl syncd::Runtime for SimRuntime {
    fn now(&self) -> Duration {
        SimRuntime::now(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncd::Runtime;

    #[test]
    fn conversions_are_exact_at_nanosecond_resolution() {
        let rt = SimRuntime::new();
        assert_eq!(Runtime::now(&rt), Duration::ZERO);
        rt.advance(Duration::from_nanos(1));
        assert_eq!(Runtime::now(&rt), Duration::from_nanos(1));
        rt.advance(Duration::from_millis(3));
        assert_eq!(Runtime::now(&rt), Duration::from_nanos(3_000_001));
    }
}
