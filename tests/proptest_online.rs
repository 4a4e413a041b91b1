//! Property-based invariants on the online synchronization subsystem,
//! plus the differential check against postmortem interpolation.
//!
//! The filter invariants are the load-bearing ones: `syncd` feeds the
//! [`DriftKalman`] whatever probe streams a client ships over the wire,
//! so the state must stay finite under arbitrary (hostile) input, and
//! the corrector's monotonicity guarantee is what keeps corrected traces
//! locally ordered without a postmortem pass.

use drift_lab::experiments::online_exp::static_rows;
use drift_lab::onlinesync::{DriftKalman, KalmanParams, OffsetMeasurement, OnlineLane};
use drift_lab::simclock::{Dur, Time};
use proptest::prelude::*;

// ------------------------------------------------------------ strategies --

fn probe((worker_time_ps, offset_ps, rtt_ps): (i64, i64, i64)) -> OffsetMeasurement {
    OffsetMeasurement::new(
        Time::from_ps(worker_time_ps),
        Dur::from_ps(offset_ps),
        Dur::from_ps(rtt_ps),
    )
}

/// Completely arbitrary probe streams: unsorted times, extreme offsets,
/// zero/negative RTTs. The filter must shrug all of it off.
fn arb_hostile_probes() -> impl Strategy<Value = Vec<OffsetMeasurement>> {
    prop::collection::vec(
        (
            -1_000_000_000_000_000i64..1_000_000_000_000_000,
            -1_000_000_000_000_000i64..1_000_000_000_000_000,
            -1_000_000_000_000i64..1_000_000_000_000,
        )
            .prop_map(probe),
        0..40,
    )
}

/// A well-formed probe lane: sorted sane times, bounded offsets and RTTs.
fn arb_sane_lane() -> impl Strategy<Value = Vec<OffsetMeasurement>> {
    prop::collection::vec(
        (
            0i64..2_000_000_000_000,       // within 2 s
            -500_000_000i64..500_000_000,  // |offset| < 500 µs
            1_000_000i64..50_000_000,      // rtt 1..50 µs
        )
            .prop_map(probe),
        0..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- filter numerical defense ----------------------------------------

    #[test]
    fn filter_state_is_finite_under_arbitrary_probes(probes in arb_hostile_probes()) {
        let mut k = DriftKalman::new(KalmanParams::default());
        for p in probes {
            k.observe(p);
            prop_assert!(k.is_finite(), "non-finite state after probe {p:?}");
        }
        // Extrapolation far outside the observed window must stay finite
        // too — the corrector queries between and beyond probes.
        for t in [i64::MIN / 2, -1, 0, 1, i64::MAX / 2] {
            prop_assert!(k.offset_at_ps(t).is_finite(), "non-finite extrapolation at {t}");
        }
    }

    // --- corrector ordering guarantee -------------------------------------

    #[test]
    fn corrected_output_is_monotone_when_raw_input_is(
        mut probes in arb_sane_lane(),
        raws in prop::collection::vec(0i64..2_000_000_000_000, 1..120),
    ) {
        probes.sort_by_key(|p| p.worker_time);
        let mut lane = OnlineLane::new(probes, KalmanParams::default());
        let mut raw_sorted = raws;
        raw_sorted.sort_unstable();
        let mut last = i64::MIN;
        for raw in raw_sorted {
            let out = lane.map_next(raw);
            prop_assert!(out >= last, "corrected output went backward: {last} -> {out}");
            last = out;
        }
    }

    // --- convergence on the model the filter assumes -----------------------

    #[test]
    fn filter_locks_onto_constant_drift(
        drift_ppm in -80.0f64..80.0,
        offset0_us in -300i64..300,
    ) {
        // Noiseless Cristian probes from an exactly linear offset model,
        // every 10 ms for 2 s.
        let mut k = DriftKalman::new(KalmanParams::default());
        let mut last_t = 0i64;
        for i in 1..=200i64 {
            let t_ps = i * 10_000_000_000;
            let offset = offset0_us * 1_000_000 + (t_ps as f64 * drift_ppm * 1e-6) as i64;
            k.observe(probe((t_ps, offset, 10_000_000)));
            last_t = t_ps;
        }
        let est = k.drift_ppm();
        prop_assert!(
            (est - drift_ppm).abs() < 2.0,
            "drift estimate {est:.2} ppm vs true {drift_ppm:.2} ppm"
        );
        // Half a probe interval ahead the prediction must be within a
        // microsecond of the true offset.
        let ahead = last_t + 5_000_000_000;
        let truth = offset0_us as f64 * 1e6 + ahead as f64 * drift_ppm * 1e-6;
        let err_ps = (k.offset_at_ps(ahead) - truth).abs();
        prop_assert!(err_ps < 1_000_000.0, "extrapolation error {err_ps:.0} ps");
    }
}

// ------------------------------------------------- differential vs. interp --

/// On *constant* drift the paper's endpoint interpolation is the right
/// model, and online must essentially match it; on every non-constant
/// model the online filter must strictly beat it. Two seeds so a lucky
/// trace cannot carry the claim.
#[test]
fn online_differential_against_interpolation() {
    for seed in [2008u64, 77] {
        for row in static_rows(800, seed) {
            assert!(row.raw > 0, "{} (seed {seed}): raw trace has no violations", row.scenario);
            assert!(
                row.online <= row.raw,
                "{} (seed {seed}): online {} worse than raw {}",
                row.scenario,
                row.online,
                row.raw
            );
            if row.scenario == "constant" {
                // Interp nails constant drift (typically 0 residual); the
                // online filter may leave a handful from its convergence
                // window but must land in the same regime.
                assert!(
                    row.online <= row.interp + 8,
                    "constant (seed {seed}): online {} not within 8 of interp {}",
                    row.online,
                    row.interp
                );
            } else {
                assert!(
                    row.online < row.interp,
                    "{} (seed {seed}): online {} not strictly below interp {}",
                    row.scenario,
                    row.online,
                    row.interp
                );
            }
        }
    }
}
