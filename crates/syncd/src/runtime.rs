//! The service's clock-and-scheduling seam.
//!
//! Every place the service touches *time* — stamping a submission,
//! checking a deadline, sleeping out a retry backoff — goes through a
//! [`Runtime`] instead of `std::time` directly. Production uses
//! [`RealRuntime`] (a monotonic `Instant` epoch and real `thread::sleep`);
//! the deterministic simulation harness substitutes a virtual clock so
//! deadlines and backoff timers advance only on simulated ticks. The seam
//! is two virtual calls on paths that are already milliseconds long, so it
//! costs nothing in production — `benchmark/` reports it as
//! `syncd.service_overhead_s`.
//!
//! The second half of the seam is the [`AttemptProbe`]: an extra
//! cancellation source threaded into the pipeline's
//! [`CancelToken`](clocksync::CancelToken) for one attempt. The pipeline
//! polls its token at every cooperative checkpoint (stage boundaries,
//! stream chunks), so each poll is a *yield point* where a simulation can
//! deterministically inject a cancellation, a worker crash (by panicking —
//! the service's `catch_unwind` isolation must contain it), or a virtual
//! clock jump. Production never installs a probe.

use std::time::{Duration, Instant};

/// One extra cancellation source for a single job attempt, polled at every
/// pipeline checkpoint. Return `true` to cancel the attempt there; panic
/// to simulate a worker crash at that yield point.
pub type AttemptProbe = clocksync::CancelProbe;

/// The clock the service schedules against. All instants are [`Duration`]s
/// since the runtime's own epoch, so implementations are free to run on
/// wall-clock time or on simulated ticks.
pub trait Runtime: Send + Sync + 'static {
    /// Monotonic time since the runtime's epoch.
    fn now(&self) -> Duration;
    /// Block the calling executor for `d` (retry backoff). Simulated
    /// runtimes advance their virtual clock instead of blocking.
    fn sleep(&self, d: Duration);
}

/// The production runtime: a monotonic [`Instant`] epoch and real sleeps.
#[derive(Debug)]
pub struct RealRuntime {
    epoch: Instant,
}

impl RealRuntime {
    /// A runtime whose epoch is now.
    pub fn new() -> Self {
        RealRuntime {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealRuntime {
    fn default() -> Self {
        RealRuntime::new()
    }
}

impl Runtime for RealRuntime {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_runtime_is_monotonic() {
        let rt = RealRuntime::new();
        let a = rt.now();
        let b = rt.now();
        assert!(b >= a);
    }

    #[test]
    fn real_runtime_sleep_advances_now() {
        let rt = RealRuntime::new();
        let a = rt.now();
        rt.sleep(Duration::from_millis(2));
        assert!(rt.now() >= a + Duration::from_millis(2));
    }
}
