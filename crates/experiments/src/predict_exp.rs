//! Model validation: the analytical violation predictor vs. the simulator.
//!
//! [`crate::survey::predict`] models the residual after two-point interpolation
//! as a Brownian-bridge of the integrated rate random walk. This experiment
//! compares, per run position, the predicted residual standard deviation
//! with the deviation actually measured in the simulator (across several
//! seeds), and prints the `safe_run_length` answer to the practical
//! question the paper leaves implicit: *how long may a run be before
//! Eq. 3 stops protecting the clock condition?*

use crate::common::{cluster_one_rank_per_node, measure_deviations, Correction, RunLength};
use crate::survey::predict::{safe_run_length, WanderModel};
use simclock::{Dur, Platform, TimerKind};
use tracefmt::Summary;

/// One comparison row.
#[derive(Debug, Clone)]
pub struct PredictRow {
    /// Run position in seconds.
    pub t_s: f64,
    /// Predicted residual std (µs) from the bridge model.
    pub predicted_us: f64,
    /// Measured residual RMS (µs) across seeds/workers.
    pub measured_us: f64,
}

/// The wander parameters the Xeon TSC profile actually uses.
pub fn xeon_tsc_wander() -> WanderModel {
    let p = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, 60.0);
    WanderModel {
        step_sigma: p.walk_step_sigma,
        step_s: p.walk_step_s,
    }
}

/// Compare prediction with simulation over a run of `duration_s`, averaging
/// the measured residuals over `seeds` independent clusters.
pub fn compare(duration_s: f64, seeds: u64, base_seed: u64) -> Vec<PredictRow> {
    let model = xeon_tsc_wander();
    let positions = 8usize;
    // measured[k]: squared residuals at position k across seeds × workers.
    let mut measured: Vec<Summary> = (0..=positions).map(|_| Summary::new()).collect();
    for s in 0..seeds {
        let mut cluster = cluster_one_rank_per_node(
            Platform::XeonCluster,
            TimerKind::IntelTsc,
            3,
            duration_s * 1.2 + 30.0,
            base_seed + s,
        );
        let len = RunLength {
            duration_s,
            sample_every_s: duration_s / positions as f64,
        };
        let series = measure_deviations(&mut cluster, len, Correction::Linear, 8);
        for w in &series {
            for (k, &(_, dev_us)) in w.points.iter().enumerate() {
                if k <= positions {
                    measured[k].add(dev_us * dev_us);
                }
            }
        }
    }
    (0..=positions)
        .map(|k| {
            let t_s = duration_s * k as f64 / positions as f64;
            PredictRow {
                t_s,
                predicted_us: model.bridge_std(t_s, duration_s) * 1e6,
                measured_us: measured[k].mean().sqrt(),
            }
        })
        .collect()
}

/// Print the comparison plus the safe-run-length answers.
pub fn print_predict(duration_s: f64, seeds: u64, seed: u64) {
    println!("\n## Prediction vs. simulation — interpolation residuals (Xeon TSC, {duration_s} s, {seeds} seeds)");
    println!("{:>10} {:>16} {:>16}", "t [s]", "predicted [us]", "measured [us]");
    for r in compare(duration_s, seeds, seed) {
        println!(
            "{:>10.0} {:>16.3} {:>16.3}",
            r.t_s, r.predicted_us, r.measured_us
        );
    }
    let model = xeon_tsc_wander();
    for (label, l) in [
        ("inter-node (4.29 us)", Dur::from_us_f64(4.29)),
        ("inter-chip (0.86 us)", Dur::from_us_f64(0.86)),
        ("inter-core (0.47 us)", Dur::from_us_f64(0.47)),
    ] {
        let t = safe_run_length(&model, l);
        println!(
            "safe run length for {label}: ~{:.0} s before mid-run residual std exceeds half the latency",
            t
        );
    }
    println!("(the paper's empirical finding — interpolation is only safe for runs of minutes — drops out of the model.)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_tracks_simulation_within_a_factor_of_two() {
        let rows = compare(240.0, 6, 77);
        // Compare at mid-run, where the signal is largest. The measured
        // residual includes thermal wander + probe noise on top of the
        // random walk, so allow a generous band.
        let mid = &rows[rows.len() / 2];
        assert!(mid.predicted_us > 0.0);
        let ratio = mid.measured_us / mid.predicted_us;
        assert!(
            (0.4..3.5).contains(&ratio),
            "prediction off at mid-run: measured {} vs predicted {} (ratio {ratio})",
            mid.measured_us,
            mid.predicted_us
        );
        // Anchored ends: measured residual is small there too.
        assert!(rows[0].measured_us < mid.measured_us.max(1.0));
    }

    #[test]
    fn safe_run_length_orders_by_latency() {
        let m = xeon_tsc_wander();
        let t_node = safe_run_length(&m, Dur::from_us_f64(4.29));
        let t_core = safe_run_length(&m, Dur::from_us_f64(0.47));
        assert!(t_node > t_core, "larger latency budget → longer safe runs");
        // Minutes, not hours — the paper's message.
        assert!(t_node > 30.0 && t_node < 3600.0, "t_node = {t_node}");
    }
}
