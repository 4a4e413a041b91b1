//! Analytical prediction of clock-condition violations.
//!
//! The paper derives the *requirement* (timestamp error below half the
//! message latency) but measures violation rates empirically. This module
//! closes the loop with a first-order analytical model: given the drift
//! physics (random-walk wander) and the interpolation scheme, the residual
//! deviation at run position `t` is approximately Gaussian with a
//! **Brownian-bridge** standard deviation, and a message's violation
//! probability follows from the Gaussian tail beyond its slack.
//!
//! The model intentionally mirrors the simulator's random-walk drift
//! (`simclock::RandomWalkDrift`): the clock's *rate* takes independent
//! `N(0, σ_step²)` increments every `step_s`. Its time integral (the
//! offset) is then an integrated random walk; anchoring a straight line at
//! both ends (Eq. 3) leaves a bridge-like residual process. Tests validate
//! the prediction against Monte-Carlo simulation of the very drift model
//! the experiments use.

use simclock::Dur;

/// Standard normal cumulative distribution function via the Abramowitz &
/// Stegun erf approximation (|error| < 1.5e-7 — far below the model error).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / core::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t
            - 0.284_496_736)
            * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Drift-physics inputs of the prediction.
#[derive(Debug, Clone, Copy)]
pub struct WanderModel {
    /// Rate random-walk step standard deviation (fractional) per sample.
    pub step_sigma: f64,
    /// Seconds between rate samples.
    pub step_s: f64,
}

impl WanderModel {
    /// Variance of the *free* (unanchored) offset deviation after `t`
    /// seconds, in s².
    ///
    /// The offset is the integral of a rate random walk: after `n = t/Δ`
    /// steps its variance is `σ² Δ² · n³/3` (the standard integrated-walk
    /// growth `∝ t³`).
    pub fn free_variance(&self, t_s: f64) -> f64 {
        let n = (t_s / self.step_s).max(0.0);
        let s = self.step_sigma * self.step_s;
        s * s * n * n * n / 3.0
    }

    /// Standard deviation of the residual at position `t` of a run of
    /// length `T` after two-point linear interpolation (offsets pinned at
    /// both ends), in seconds.
    ///
    /// For an integrated random walk conditioned to zero at both ends, the
    /// exact bridge variance has no elementary closed form; the standard
    /// first-order approximation scales the free variance by the Brownian-
    /// bridge factor evaluated on the cubic growth:
    /// `σ²(t) ≈ σ_free²(t) · (1 − t/T)² + σ_free²(T − t) · (t/T)²` —
    /// symmetric, zero at both anchors, maximal mid-run.
    pub fn bridge_std(&self, t_s: f64, run_s: f64) -> f64 {
        if run_s <= 0.0 || t_s <= 0.0 || t_s >= run_s {
            return 0.0;
        }
        let u = t_s / run_s;
        let var = self.free_variance(t_s) * (1.0 - u) * (1.0 - u)
            + self.free_variance(run_s - t_s) * u * u;
        var.sqrt()
    }

    /// Largest bridge standard deviation across the run (mid-run), seconds.
    pub fn peak_bridge_std(&self, run_s: f64) -> f64 {
        self.bridge_std(run_s / 2.0, run_s)
    }
}

/// Probability that a message with `slack` (recorded transfer minus
/// `l_min`, as it would be with perfect clocks) is violated when the
/// deviation between the two clocks is `N(0, σ²)`:
/// `P(deviation > slack)` in the unfavourable direction.
pub fn violation_probability(deviation_std: Dur, slack: Dur) -> f64 {
    let sigma = deviation_std.as_secs_f64();
    if sigma <= 0.0 {
        return if slack.as_secs_f64() < 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - normal_cdf(slack.as_secs_f64() / sigma)
}

/// The paper's §III accuracy requirement, inverted: the longest run (in
/// seconds) for which two-point interpolation keeps the *expected* mid-run
/// deviation below half the message latency.
pub fn safe_run_length(model: &WanderModel, l_min: Dur) -> f64 {
    let target = l_min.as_secs_f64() / 2.0;
    // Monotone in T: bisect on the peak bridge std.
    let (mut lo, mut hi) = (1.0f64, 1e7f64);
    if model.peak_bridge_std(lo) > target {
        return 0.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if model.peak_bridge_std(mid) > target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simclock::{DriftModel, RandomWalkDrift, Time};

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-5);
        assert!((normal_cdf(-1.0) - 0.158_655_3).abs() < 1e-5);
        assert!((normal_cdf(2.0) - 0.977_249_9).abs() < 1e-5);
        assert!(normal_cdf(6.0) > 0.999_999);
    }

    #[test]
    fn free_variance_matches_monte_carlo() {
        // Simulate the exact drift model the experiments use and compare
        // the offset variance after 300 s with the formula.
        let model = WanderModel { step_sigma: 1e-8, step_s: 10.0 };
        let t = 300.0;
        let n = 400;
        let mut sum_sq = 0.0;
        for seed in 0..n {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = RandomWalkDrift::generate(&mut rng, model.step_sigma, model.step_s, t * 1.1);
            let dev = d.integrated(Time::from_secs_f64(t));
            sum_sq += dev * dev;
        }
        let mc_var = sum_sq / n as f64;
        let pred = model.free_variance(t);
        let ratio = mc_var / pred;
        assert!(
            (0.6..1.6).contains(&ratio),
            "variance prediction off: MC {mc_var:.3e} vs predicted {pred:.3e}"
        );
    }

    #[test]
    fn bridge_is_zero_at_anchors_and_peaks_mid_run() {
        let m = WanderModel { step_sigma: 1e-8, step_s: 10.0 };
        assert_eq!(m.bridge_std(0.0, 3600.0), 0.0);
        assert_eq!(m.bridge_std(3600.0, 3600.0), 0.0);
        let quarter = m.bridge_std(900.0, 3600.0);
        let mid = m.bridge_std(1800.0, 3600.0);
        assert!(mid > quarter);
        assert!(mid > 0.0);
    }

    #[test]
    fn violation_probability_limits() {
        let sigma = Dur::from_us(10);
        // Huge slack: essentially safe.
        assert!(violation_probability(sigma, Dur::from_us(60)) < 1e-6);
        // Zero slack: coin flip.
        let p = violation_probability(sigma, Dur::ZERO);
        assert!((p - 0.5).abs() < 1e-6);
        // Negative slack: likely violated.
        assert!(violation_probability(sigma, Dur::from_us(-30)) > 0.99);
        // Perfect clocks.
        assert_eq!(violation_probability(Dur::ZERO, Dur::from_us(1)), 0.0);
        assert_eq!(violation_probability(Dur::ZERO, Dur::from_us(-1)), 1.0);
    }

    #[test]
    fn safe_run_length_is_monotone_in_wander() {
        let quiet = WanderModel { step_sigma: 1e-9, step_s: 10.0 };
        let noisy = WanderModel { step_sigma: 1e-8, step_s: 10.0 };
        let l = Dur::from_us_f64(4.29);
        let t_quiet = safe_run_length(&quiet, l);
        let t_noisy = safe_run_length(&noisy, l);
        assert!(
            t_quiet > t_noisy,
            "quieter clocks should allow longer runs: {t_quiet} vs {t_noisy}"
        );
        // The paper's observation: with realistic wander the safe window is
        // minutes, not hours.
        assert!(t_noisy < 3600.0, "safe window {t_noisy} s");
        assert!(t_noisy > 10.0);
    }

    #[test]
    fn prediction_tracks_simulated_mid_run_residuals() {
        // Monte-Carlo the full pipeline: draw a random-walk drift, anchor a
        // line at both ends, compare the mid-run residual's RMS with the
        // predicted bridge std.
        let model = WanderModel { step_sigma: 1e-8, step_s: 10.0 };
        let run = 600.0;
        let n = 300;
        let mut sum_sq = 0.0;
        for seed in 100..100 + n {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = RandomWalkDrift::generate(&mut rng, model.step_sigma, model.step_s, run * 1.2);
            let at = |s: f64| d.integrated(Time::from_secs_f64(s));
            let (o0, o1) = (at(0.0), at(run));
            let mid = at(run / 2.0) - (o0 + 0.5 * (o1 - o0));
            sum_sq += mid * mid;
        }
        let mc_rms = (sum_sq / n as f64).sqrt();
        let pred = model.bridge_std(run / 2.0, run);
        let ratio = mc_rms / pred;
        assert!(
            (0.5..2.0).contains(&ratio),
            "bridge prediction off: MC {mc_rms:.3e} vs predicted {pred:.3e}"
        );
    }
}
