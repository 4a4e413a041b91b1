//! Clock-stability metrics: Allan deviation.
//!
//! The Allan variance is the standard way to characterise oscillator
//! stability across averaging intervals τ — exactly the quantity that
//! decides whether a timer's drift can be treated as constant over a run
//! (paper §II/§IV). Different noise types leave distinct signatures:
//! white rate noise falls as `τ^-1/2`, a rate random walk *grows* as
//! `τ^1/2`, and a constant drift alone yields zero Allan deviation.
//! [`allan_deviation`] computes the non-overlapping estimator from evenly
//! sampled clock readings, so simulated clocks can be characterised with
//! the same tooling metrologists use for real ones.

use crate::clock::SimClock;
use crate::time::{Dur, Time};

/// Non-overlapping Allan deviation of fractional frequency, estimated from
/// phase samples `x[k]` (clock offset in seconds) taken every `tau0_s`
/// seconds, at averaging factor `m` (τ = m·τ0):
///
/// `AVAR(τ) = 1/(2(N−2m)) · Σ (x[k+2m] − 2x[k+m] + x[k])² / τ²`
///
/// Returns `None` when fewer than `2m + 1` samples are available.
///
/// ```
/// use simclock::allan_deviation;
///
/// // A perfectly linear phase (constant drift) is perfectly stable.
/// let phase: Vec<f64> = (0..32).map(|k| 1e-6 * k as f64).collect();
/// assert!(allan_deviation(&phase, 1.0, 4).unwrap() < 1e-18);
/// ```
pub fn allan_deviation(phase_s: &[f64], tau0_s: f64, m: usize) -> Option<f64> {
    if m == 0 || phase_s.len() < 2 * m + 1 || tau0_s <= 0.0 {
        return None;
    }
    let tau = m as f64 * tau0_s;
    let n_terms = phase_s.len() - 2 * m;
    let mut acc = 0.0;
    for k in 0..n_terms {
        let d = phase_s[k + 2 * m] - 2.0 * phase_s[k + m] + phase_s[k];
        acc += d * d;
    }
    Some((acc / (2.0 * n_terms as f64 * tau * tau)).sqrt())
}

/// Sample a clock's phase (offset against true time, seconds) every
/// `tau0` over `n` samples, using noiseless readings.
pub fn sample_phase(clock: &SimClock, tau0: Dur, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let t = Time::ZERO + tau0 * k as i64;
            (clock.ideal_at(t) - t).as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimerKind;
    use crate::drift::{ConstantDrift, RandomWalkDrift};
    use crate::noise::NoiseSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn clock_with(drift: Arc<dyn crate::drift::DriftModel>) -> SimClock {
        SimClock::new(TimerKind::IntelTsc, Dur::ZERO, drift, NoiseSpec::noiseless(), 0)
    }

    /// `(tau_s, adev)` of a clock at octave-spaced averaging factors.
    fn octave_adev(clock: &SimClock, tau0: Dur, n_samples: usize) -> Vec<(f64, f64)> {
        let phase = sample_phase(clock, tau0, n_samples);
        let tau0 = tau0.as_secs_f64();
        let octaves = std::iter::successors(Some(1usize), |m| Some(2 * m));
        octaves
            .take_while(|&m| 2 * m < n_samples)
            .filter_map(|m| Some((m as f64 * tau0, allan_deviation(&phase, tau0, m)?)))
            .collect()
    }

    #[test]
    fn constant_drift_has_zero_allan_deviation() {
        // A perfectly constant rate is perfectly stable: second differences
        // of a linear phase vanish.
        let c = clock_with(Arc::new(ConstantDrift::new(5e-6)));
        let curve = octave_adev(&c, Dur::from_secs(1), 128);
        for (tau, adev) in curve {
            assert!(
                adev < 1e-15,
                "constant drift should be invisible to ADEV at tau={tau}: {adev}"
            );
        }
    }

    #[test]
    fn random_walk_adev_grows_with_tau() {
        // Rate random walk: ADEV ∝ τ^{1/2} — the curve must grow.
        let mut rng = StdRng::seed_from_u64(3);
        let d = RandomWalkDrift::generate(&mut rng, 1e-9, 1.0, 3000.0);
        let c = clock_with(Arc::new(d));
        let curve = octave_adev(&c, Dur::from_secs(1), 2048);
        assert!(curve.len() >= 6);
        let first = curve[1].1;
        let last = curve[curve.len() - 1].1;
        assert!(
            last > 2.0 * first,
            "rate random walk should grow with tau: {first} -> {last}"
        );
    }

    #[test]
    fn estimator_matches_hand_computation() {
        // Phase samples with a known second difference.
        let phase = vec![0.0, 0.0, 1.0, 0.0, 0.0];
        // m=1, tau0=1: terms (x2-2x1+x0)=1, (x3-2x2+x1)=-2, (x4-2x3+x2)=1
        // → avar = (1+4+1)/(2·3·1) = 1.0 → adev 1.0.
        let adev = allan_deviation(&phase, 1.0, 1).unwrap();
        assert!((adev - 1.0).abs() < 1e-12, "{adev}");
    }

    #[test]
    fn too_few_samples_is_none() {
        assert!(allan_deviation(&[0.0, 1.0], 1.0, 1).is_none());
        assert!(allan_deviation(&[0.0; 10], 1.0, 0).is_none());
        assert!(allan_deviation(&[0.0; 10], 0.0, 1).is_none());
        assert!(allan_deviation(&[0.0; 10], 1.0, 5).is_none());
    }

    #[test]
    fn platform_tsc_is_more_stable_than_ntp_clock() {
        use crate::platform::Platform;
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let tsc_profile = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, 1200.0);
        let tsc = tsc_profile.build_clock(&mut rng, 0.0, 1.5e-6);
        let gtod_profile =
            Platform::XeonCluster.clock_profile(TimerKind::Gettimeofday, 1200.0);
        let gtod = gtod_profile.build_clock(&mut rng, 0.0, 1.5e-6);
        // Compare ADEV at tau = 64 s.
        let p_tsc = sample_phase(&tsc, Dur::from_secs(1), 1024);
        let p_gtod = sample_phase(&gtod, Dur::from_secs(1), 1024);
        let a_tsc = allan_deviation(&p_tsc, 1.0, 64).unwrap();
        let a_gtod = allan_deviation(&p_gtod, 1.0, 64).unwrap();
        assert!(
            a_gtod > 3.0 * a_tsc,
            "NTP-steered clock should be far less stable: TSC {a_tsc:.2e} vs gettimeofday {a_gtod:.2e}"
        );
    }
}
