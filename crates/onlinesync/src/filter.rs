//! The recursive per-pair drift/offset estimator.
//!
//! One [`DriftKalman`] tracks one worker clock against the reference
//! (master) clock. Its state is the pair
//!
//! ```text
//! x = [ offset_ps,        master − worker offset at the anchor time
//!       drift_ps_per_s ]  rate of change of that offset (1 ppm = 10⁶ ps/s)
//! ```
//!
//! anchored at the worker-local time of the last processed probe.
//! *Predict* propagates the state over elapsed worker time with a
//! constant-velocity model plus process noise (drift performs a random
//! walk — the non-constant-drift physics the paper measures); *update*
//! corrects it with one two-way Cristian probe whose measurement variance
//! is derived from the probe's round-trip time (half the RTT bounds the
//! asymmetry error, exactly the paper's Eq. 2 error argument).
//!
//! Timestamps stay `i64` picoseconds end to end; only the filter state and
//! covariance are `f64`. The filter is numerically defensive: after every
//! predict/update the state is checked and, if any entry went non-finite
//! (a hostile RTT, an absurd probe), the covariance is re-inflated to the
//! prior and the last finite state is kept — the filter never emits NaN
//! or infinite corrections.

use simclock::{Dur, Time};

/// Picoseconds per second, as f64.
const PS_PER_S: f64 = 1e12;

/// An offset measurement anchored at a worker-local time: "at worker time
/// `worker_time`, the master clock was `offset` ahead" — one Cristian probe
/// reduced to its Eq. 2 estimate, the `(w, o)` pairs of the paper's Eq. 3.
/// The one in-memory spelling of the triple: the filter's observation, the
/// pipeline's init/finalize anchors (`clocksync` re-exports it) and the
/// probe schedules of the churn scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetMeasurement {
    /// Worker-local anchor time.
    pub worker_time: Time,
    /// Master − worker offset at that anchor.
    pub offset: Dur,
    /// Round-trip of the winning probe (quality indicator; half of it
    /// bounds the estimation error).
    pub rtt: Dur,
}

impl OffsetMeasurement {
    /// The measurement `(worker_time, offset, rtt)`.
    pub fn new(worker_time: Time, offset: Dur, rtt: Dur) -> Self {
        OffsetMeasurement { worker_time, offset, rtt }
    }
}

/// The name the frozen `benchmark/src/drive.rs` spells; goes with its next
/// edit.
pub type ProbeFix = OffsetMeasurement;

/// Filter tuning. The defaults are deliberately conservative: they track
/// tens-of-ppm drift excursions with second-scale probe cadences (the
/// regimes the paper's platforms exhibit) without chasing probe noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanParams {
    /// Drift random-walk intensity, ppm² per second of elapsed worker
    /// time. Larger values let the filter follow sharp rate changes (NTP
    /// slews) faster at the cost of more noise in the drift estimate.
    pub drift_noise_ppm2_per_s: f64,
    /// White phase-noise floor of the offset itself, µs² per second.
    pub offset_noise_us2_per_s: f64,
    /// Measurement-noise floor in µs: probe error that the RTT does not
    /// reveal (interrupt latency, timestamping granularity). The
    /// effective probe standard deviation is `max(floor, rtt/2)`.
    pub probe_noise_floor_us: f64,
}

impl Default for KalmanParams {
    fn default() -> Self {
        KalmanParams {
            drift_noise_ppm2_per_s: 4.0,
            offset_noise_us2_per_s: 0.01,
            probe_noise_floor_us: 1.0,
        }
    }
}

impl KalmanParams {
    /// Drift process noise in (ps/s)²/s.
    fn q_drift(&self) -> f64 {
        // 1 ppm = 1e6 ps/s, so 1 ppm² = 1e12 (ps/s)².
        self.drift_noise_ppm2_per_s.max(0.0) * 1e12
    }

    /// Offset process noise in ps²/s.
    fn q_offset(&self) -> f64 {
        // 1 µs = 1e6 ps, so 1 µs² = 1e12 ps².
        self.offset_noise_us2_per_s.max(0.0) * 1e12
    }

    /// Measurement variance for a probe with round-trip `rtt_ps`, in ps².
    fn r_of(&self, rtt_ps: i64) -> f64 {
        let floor = self.probe_noise_floor_us.max(1e-3) * 1e6; // ps
        let half_rtt = (rtt_ps.max(0) as f64) / 2.0;
        let sd = floor.max(half_rtt);
        sd * sd
    }
}

/// Prior standard deviations before the first probe: 10 ms of offset,
/// 200 ppm of drift — generous enough to swallow any realistic clock.
const PRIOR_SD_OFFSET_PS: f64 = 1e10;
const PRIOR_SD_DRIFT_PS_PER_S: f64 = 200e6;

/// The recursive offset/drift filter for one worker↔master pair.
#[derive(Debug, Clone)]
pub struct DriftKalman {
    params: KalmanParams,
    /// Worker-local anchor time of the state, ps.
    anchor_ps: i64,
    /// Estimated master − worker offset at the anchor, ps.
    offset_ps: f64,
    /// Estimated offset rate, ps per second of worker time.
    drift_ps_per_s: f64,
    /// Covariance [[p00, p01], [p01, p11]] in ps², ps²/s, (ps/s)².
    p00: f64,
    p01: f64,
    p11: f64,
    /// Probes absorbed so far.
    updates: u64,
}

impl DriftKalman {
    /// A fresh filter with the identity state (offset 0, drift 0) and the
    /// full prior uncertainty.
    pub fn new(params: KalmanParams) -> Self {
        DriftKalman {
            params,
            anchor_ps: 0,
            offset_ps: 0.0,
            drift_ps_per_s: 0.0,
            p00: PRIOR_SD_OFFSET_PS * PRIOR_SD_OFFSET_PS,
            p01: 0.0,
            p11: PRIOR_SD_DRIFT_PS_PER_S * PRIOR_SD_DRIFT_PS_PER_S,
            updates: 0,
        }
    }

    /// Probes absorbed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current drift estimate in ppm.
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ps_per_s / 1e6
    }

    /// Current offset estimate at the anchor time, ps.
    pub fn offset_ps(&self) -> f64 {
        self.offset_ps
    }

    /// Predicted master − worker offset at worker time `t_ps`, without
    /// mutating the filter (pure extrapolation from the anchor).
    pub fn offset_at_ps(&self, t_ps: i64) -> f64 {
        let dt_s = t_ps.saturating_sub(self.anchor_ps) as f64 / PS_PER_S;
        self.offset_ps + self.drift_ps_per_s * dt_s
    }

    /// Advance the state to worker time `t_ps` (predict step). Elapsed
    /// time is clamped at zero: an out-of-order probe neither rewinds the
    /// anchor nor injects negative process noise.
    fn predict_to(&mut self, t_ps: i64) {
        let dt_s = (t_ps.saturating_sub(self.anchor_ps).max(0) as f64) / PS_PER_S;
        if dt_s > 0.0 {
            let q_d = self.params.q_drift();
            let q_o = self.params.q_offset();
            self.offset_ps += self.drift_ps_per_s * dt_s;
            // P ← F P Fᵀ + Q with F = [[1, dt], [0, 1]] and the
            // integrated white-noise-on-drift Q.
            let p00 = self.p00 + dt_s * (2.0 * self.p01 + dt_s * self.p11)
                + q_o * dt_s
                + q_d * dt_s * dt_s * dt_s / 3.0;
            let p01 = self.p01 + dt_s * self.p11 + q_d * dt_s * dt_s / 2.0;
            let p11 = self.p11 + q_d * dt_s;
            self.p00 = p00;
            self.p01 = p01;
            self.p11 = p11;
            self.anchor_ps = t_ps;
        } else if t_ps > self.anchor_ps {
            self.anchor_ps = t_ps;
        }
        self.sanitize();
    }

    /// Absorb one probe: predict to its worker time, then correct the
    /// state with the measured offset (measurement matrix H = [1, 0]).
    pub fn observe(&mut self, probe: OffsetMeasurement) {
        self.predict_to(probe.worker_time.as_ps());
        let z = probe.offset.as_ps() as f64;
        if self.updates == 0 {
            // First fix: collapse the offset prior onto the measurement
            // (the standard informative-prior shortcut; the drift prior
            // stays wide until a second fix gives the slope information).
            self.offset_ps = z;
            self.p00 = self.params.r_of(probe.rtt.as_ps());
            self.p01 = 0.0;
        } else {
            let r = self.params.r_of(probe.rtt.as_ps());
            let y = z - self.offset_ps;
            let s = self.p00 + r;
            // S ≥ R > 0 by construction, but stay defensive.
            if s > 0.0 && s.is_finite() {
                let k0 = self.p00 / s;
                let k1 = self.p01 / s;
                self.offset_ps += k0 * y;
                self.drift_ps_per_s += k1 * y;
                let p00 = (1.0 - k0) * self.p00;
                let p01 = (1.0 - k0) * self.p01;
                let p11 = self.p11 - k1 * self.p01;
                self.p00 = p00;
                self.p01 = p01;
                self.p11 = p11;
            }
        }
        self.updates += 1;
        self.sanitize();
    }

    /// Restore finiteness and positive-semidefiniteness after an extreme
    /// input. Keeps the last finite state; re-inflates the covariance to
    /// the prior when it degenerated.
    fn sanitize(&mut self) {
        if !self.offset_ps.is_finite() {
            self.offset_ps = 0.0;
            self.p00 = PRIOR_SD_OFFSET_PS * PRIOR_SD_OFFSET_PS;
            self.p01 = 0.0;
        }
        if !self.drift_ps_per_s.is_finite() {
            self.drift_ps_per_s = 0.0;
            self.p11 = PRIOR_SD_DRIFT_PS_PER_S * PRIOR_SD_DRIFT_PS_PER_S;
            self.p01 = 0.0;
        }
        if !(self.p00.is_finite() && self.p01.is_finite() && self.p11.is_finite()) {
            self.p00 = PRIOR_SD_OFFSET_PS * PRIOR_SD_OFFSET_PS;
            self.p01 = 0.0;
            self.p11 = PRIOR_SD_DRIFT_PS_PER_S * PRIOR_SD_DRIFT_PS_PER_S;
        }
        // Diagonal entries are variances; numerical cancellation can push
        // them fractionally below zero.
        self.p00 = self.p00.max(0.0);
        self.p11 = self.p11.max(0.0);
        // Keep the drift physically plausible (|drift| ≤ 1000 ppm): a
        // wildly corrupt probe must not catapult the slope.
        const MAX_DRIFT: f64 = 1000e6;
        self.drift_ps_per_s = self.drift_ps_per_s.clamp(-MAX_DRIFT, MAX_DRIFT);
        // And the offset within ±10⁵ s — far beyond any clock skew, close
        // enough to keep i64 conversions safe.
        const MAX_OFFSET: f64 = 1e17;
        self.offset_ps = self.offset_ps.clamp(-MAX_OFFSET, MAX_OFFSET);
    }

    /// True if every state and covariance entry is finite (always holds
    /// after construction and any sequence of [`observe`] calls — the
    /// proptest suite leans on this).
    ///
    /// [`observe`]: DriftKalman::observe
    pub fn is_finite(&self) -> bool {
        self.offset_ps.is_finite()
            && self.drift_ps_per_s.is_finite()
            && self.p00.is_finite()
            && self.p01.is_finite()
            && self.p11.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(t_us: i64, off_us: i64) -> OffsetMeasurement {
        OffsetMeasurement::new(Time::from_us(t_us), Dur::from_us(off_us), Dur::from_us(10))
    }

    fn ps(worker_time: i64, offset: i64, rtt: i64) -> OffsetMeasurement {
        OffsetMeasurement::new(Time::from_ps(worker_time), Dur::from_ps(offset), Dur::from_ps(rtt))
    }

    #[test]
    fn converges_on_constant_drift() {
        // True offset: 100 µs + 20 ppm · t. Probe every second for 60 s.
        let mut f = DriftKalman::new(KalmanParams::default());
        for k in 0..60i64 {
            let t_us = k * 1_000_000;
            let off_us = 100 + (20e-6 * (t_us as f64)).round() as i64; // 20 ppm in µs/µs
            f.observe(probe(t_us, off_us));
        }
        assert!(f.is_finite());
        assert!(
            (f.drift_ppm() - 20.0).abs() < 1.0,
            "drift estimate {} ppm, want ~20",
            f.drift_ppm()
        );
        // Extrapolate 1 s past the last probe: error well under the probe
        // error bound.
        let t = 61 * 1_000_000 * 1_000_000i64;
        let truth = 100e6 + 20e-6 * t as f64;
        assert!(
            (f.offset_at_ps(t) - truth).abs() < 5e6,
            "predicted {} vs true {truth}",
            f.offset_at_ps(t)
        );
    }

    #[test]
    fn tracks_a_rate_step() {
        // +30 ppm for 30 s, then −30 ppm: the filter must swing its drift
        // estimate across the step within a few probes.
        let mut f = DriftKalman::new(KalmanParams::default());
        let mut off = 0.0f64;
        for k in 0..60i64 {
            let rate = if k < 30 { 30e-6 } else { -30e-6 };
            off += rate * 1e6; // µs gained over this second
            f.observe(probe(k * 1_000_000, off.round() as i64));
        }
        assert!((f.drift_ppm() + 30.0).abs() < 5.0, "drift {} ppm", f.drift_ppm());
    }

    #[test]
    fn hostile_probes_never_produce_nonfinite_state() {
        let mut f = DriftKalman::new(KalmanParams::default());
        let cases = [
            ps(i64::MAX, i64::MAX, i64::MAX),
            ps(i64::MIN, i64::MIN, 0),
            ps(0, 0, -5),
            ps(1, i64::MAX, 1),
        ];
        for (i, c) in cases.iter().enumerate() {
            f.observe(*c);
            assert!(f.is_finite(), "state went non-finite after case {i}");
        }
        assert!(f.offset_at_ps(i64::MAX).is_finite());
    }

    #[test]
    fn out_of_order_probe_does_not_rewind() {
        let mut f = DriftKalman::new(KalmanParams::default());
        f.observe(probe(1_000_000, 50));
        f.observe(probe(2_000_000, 50));
        let anchor = f.anchor_ps;
        f.observe(probe(500_000, 1_000_000)); // stale, absurd
        assert_eq!(f.anchor_ps, anchor, "anchor rewound on stale probe");
        assert!(f.is_finite());
    }

    #[test]
    fn noisy_rtt_probes_are_downweighted() {
        // Clean probes say 100 µs; one garbage probe with a huge RTT says
        // 10 ms. The estimate must stay near 100 µs.
        let mut f = DriftKalman::new(KalmanParams::default());
        for k in 0..10i64 {
            f.observe(probe(k * 1_000_000, 100));
        }
        // 200 ms RTT → ~100 ms error bound
        f.observe(OffsetMeasurement::new(Time::from_secs(10), Dur::from_ms(10), Dur::from_ms(200)));
        let off_us = f.offset_at_ps(10 * 1_000_000 * 1_000_000) / 1e6;
        assert!((off_us - 100.0).abs() < 60.0, "outlier dominated: {off_us} µs");
    }
}
