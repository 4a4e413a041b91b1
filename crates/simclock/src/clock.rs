//! The simulated processor clock.
//!
//! A [`SimClock`] maps simulated *true time* to the local reading a tracing
//! library would obtain on that processor: initial offset + drift integral +
//! measurement noise, floored to the timer resolution and clamped to be
//! monotone (hardware counters never run backwards; tracers additionally
//! enforce monotonicity on software clocks).
//!
//! The paper's clock taxonomy (§II) is mirrored by [`TimerKind`]:
//! cycle counters, hardware timestamp counters (Intel TSC, IBM TB, IBM RTC),
//! software clocks (`gettimeofday()`, `MPI_Wtime()`).

use crate::drift::{ConstantDrift, DriftModel};
use crate::noise::{NoiseSpec, ReadNoise};
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The timer technologies examined in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimerKind {
    /// CPU cycle counter incremented per core clock tick; step size varies
    /// with power management, useful only within one chip.
    CycleCounter,
    /// Intel timestamp counter register (TSC): 64-bit hardware clock with a
    /// separate oscillator, approximately constant drift.
    IntelTsc,
    /// IBM time base register (TB): 64-bit tick counter since reset.
    IbmTimeBase,
    /// IBM real-time clock (RTC): counts seconds and nanoseconds.
    IbmRtc,
    /// `gettimeofday()`: OS system clock, µs resolution, usually
    /// NTP-disciplined.
    Gettimeofday,
    /// `MPI_Wtime()`: software clock; Open MPI's default maps it to
    /// `gettimeofday()`.
    MpiWtime,
}

impl TimerKind {
    /// Whether the timer is a hardware clock in the paper's sense
    /// (separate oscillator, no OS/NTP steering).
    pub fn is_hardware(self) -> bool {
        matches!(
            self,
            TimerKind::IntelTsc | TimerKind::IbmTimeBase | TimerKind::IbmRtc
        )
    }

    /// Human-readable name used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            TimerKind::CycleCounter => "cycle counter",
            TimerKind::IntelTsc => "Intel TSC",
            TimerKind::IbmTimeBase => "IBM time base",
            TimerKind::IbmRtc => "IBM RTC",
            TimerKind::Gettimeofday => "gettimeofday()",
            TimerKind::MpiWtime => "MPI_Wtime()",
        }
    }
}

impl fmt::Display for TimerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A processor-local clock in the simulation.
///
/// Reads are a pure function of true time plus a private noise stream and a
/// monotonicity clamp; two clocks never share state, matching the paper's
/// "local accessibility" scenario on commodity clusters.
pub struct SimClock {
    kind: TimerKind,
    /// Offset of the local axis at true time 0.
    offset0: Dur,
    drift: Arc<dyn DriftModel>,
    noise: ReadNoise,
    /// Last value handed out, for the monotonicity clamp.
    last: Option<Time>,
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimClock")
            .field("kind", &self.kind)
            .field("offset0", &self.offset0)
            .finish_non_exhaustive()
    }
}

impl SimClock {
    /// Assemble a clock from its physical ingredients.
    pub fn new(
        kind: TimerKind,
        offset0: Dur,
        drift: Arc<dyn DriftModel>,
        noise_spec: NoiseSpec,
        noise_seed: u64,
    ) -> Self {
        SimClock {
            kind,
            offset0,
            drift,
            noise: ReadNoise::new(noise_spec, noise_seed),
            last: None,
        }
    }

    /// A perfect clock: no offset, no drift, no noise. The simulated
    /// equivalent of Blue Gene's globally accessible hardware clock.
    pub fn ideal() -> Self {
        SimClock::new(
            TimerKind::IntelTsc,
            Dur::ZERO,
            Arc::new(ConstantDrift::zero()),
            NoiseSpec::noiseless(),
            0,
        )
    }

    /// The timer technology this clock models.
    pub fn kind(&self) -> TimerKind {
        self.kind
    }

    /// Cost of one read in true time (intrusion overhead).
    pub fn read_overhead(&self) -> Dur {
        self.noise.spec().read_overhead
    }

    /// The noiseless local time at true time `t` — offset plus drift
    /// integral. This is the mathematical clock function `L(t)` used by the
    /// deviation experiments; it ignores resolution and jitter.
    pub fn ideal_at(&self, t: Time) -> Time {
        t + self.offset0 + Dur::from_secs_f64(self.drift.integrated(t))
    }

    /// Instantaneous rate error at `t`.
    pub fn rate_at(&self, t: Time) -> f64 {
        self.drift.rate_at(t)
    }

    /// Take a reading at true time `t`, with noise, resolution and the
    /// monotonicity clamp applied. This is what a *single* reader (one
    /// tracer stream) sees.
    pub fn read(&mut self, t: Time) -> Time {
        let raw = self.sample(t);
        let out = match self.last {
            Some(last) => raw.max(last),
            None => raw,
        };
        self.last = Some(out);
        out
    }

    /// Take a reading with noise and resolution but **no** monotonicity
    /// clamp. Use this when several readers (e.g. the ranks sharing a chip
    /// clock) query the clock out of true-time order; each reader must then
    /// clamp its own stream, as real tracing libraries do.
    pub fn sample(&mut self, t: Time) -> Time {
        self.noise.sample(self.ideal_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::{ConstantDrift, PiecewiseLinearDrift};

    #[test]
    fn ideal_clock_reads_true_time() {
        let mut c = SimClock::ideal();
        for i in 0..10 {
            let t = Time::from_ms(i * 7);
            assert_eq!(c.read(t), t);
            assert_eq!(c.ideal_at(t), t);
        }
    }

    #[test]
    fn offset_and_drift_compose() {
        let c = SimClock::new(
            TimerKind::IntelTsc,
            Dur::from_us(100),
            Arc::new(ConstantDrift::new(1e-6)),
            NoiseSpec::noiseless(),
            0,
        );
        // After 10 s: +100 µs offset, +10 µs drift.
        let t = Time::from_secs(10);
        assert_eq!(c.ideal_at(t), t + Dur::from_us(110));
    }

    #[test]
    fn reads_are_monotone_even_with_noise() {
        let spec = NoiseSpec {
            base_sigma: Dur::from_us(2),
            ..NoiseSpec::noiseless()
        };
        let mut c = SimClock::new(
            TimerKind::Gettimeofday,
            Dur::ZERO,
            Arc::new(ConstantDrift::zero()),
            spec,
            17,
        );
        let mut prev = Time::MIN;
        for i in 0..5000 {
            let r = c.read(Time::from_ns(i * 10));
            assert!(r >= prev, "clock ran backwards at read {i}");
            prev = r;
        }
    }

    #[test]
    fn negative_drift_makes_clock_fall_behind() {
        let c = SimClock::new(
            TimerKind::IbmTimeBase,
            Dur::ZERO,
            Arc::new(ConstantDrift::new(-2e-6)),
            NoiseSpec::noiseless(),
            0,
        );
        let t = Time::from_secs(100);
        assert_eq!(c.ideal_at(t), t - Dur::from_us(200));
    }

    #[test]
    fn ntp_style_kink_shows_in_ideal_readings() {
        // Piecewise-constant drift: 1 ppm for 100 s, then 4 ppm.
        let d = PiecewiseLinearDrift::piecewise_constant(vec![
            (Time::ZERO, 1e-6),
            (Time::from_secs(100), 4e-6),
        ]);
        let c = SimClock::new(
            TimerKind::MpiWtime,
            Dur::ZERO,
            Arc::new(d),
            NoiseSpec::noiseless(),
            0,
        );
        let dev100 = c.ideal_at(Time::from_secs(100)) - Time::from_secs(100);
        let dev200 = c.ideal_at(Time::from_secs(200)) - Time::from_secs(200);
        assert_eq!(dev100, Dur::from_us(100));
        assert_eq!(dev200, Dur::from_us(500)); // 100 + 400
    }

    #[test]
    fn timer_taxonomy() {
        assert!(TimerKind::IntelTsc.is_hardware());
        assert!(TimerKind::IbmTimeBase.is_hardware());
        assert!(TimerKind::IbmRtc.is_hardware());
        assert!(!TimerKind::Gettimeofday.is_hardware());
        assert!(!TimerKind::MpiWtime.is_hardware());
        assert!(!TimerKind::CycleCounter.is_hardware());
        assert_eq!(TimerKind::IntelTsc.label(), "Intel TSC");
    }

    #[test]
    fn sample_is_unclamped() {
        let mut c = SimClock::ideal();
        assert_eq!(c.read(Time::from_secs(5)), Time::from_secs(5));
        // `sample` may legitimately return an earlier value.
        assert_eq!(c.sample(Time::from_secs(1)), Time::from_secs(1));
        // And it does not disturb the clamp state of `read`.
        assert_eq!(c.read(Time::from_secs(2)), Time::from_secs(5));
    }
}
