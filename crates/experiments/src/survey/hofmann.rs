//! Hofmann's interval min/max strategy (paper reference [21]).
//!
//! Instead of forcing a single line through the whole run — which fails
//! exactly when drifts are non-constant — the run is partitioned into time
//! intervals. Within each interval the tightest bounds are extracted (the
//! **max** of the lower bounds and the **min** of the upper bounds) and
//! their midpoint becomes an anchor; anchors connect into a piecewise-
//! linear correction. This simple scheme tracks NTP kinks and thermal
//! wander that defeat Eq. 3, at the cost of needing message traffic spread
//! over the whole run.

use super::Corridor;
use super::PiecewiseInterpolation;
use clocksync::OffsetMeasurement;
use simclock::{Dur, Time};

/// Failure modes of the min/max fitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinMaxError {
    /// Need at least two populated intervals for a piecewise map.
    TooFewIntervals,
    /// The corridor has no two-sided constraints at all.
    EmptyCorridor,
}

impl std::fmt::Display for MinMaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinMaxError::TooFewIntervals => write!(f, "fewer than two populated intervals"),
            MinMaxError::EmptyCorridor => write!(f, "corridor has no constraints"),
        }
    }
}

impl std::error::Error for MinMaxError {}

/// Fit a piecewise-linear correction with `bins` equal-width intervals.
///
/// Intervals that contain bounds from only one direction are skipped (their
/// midpoint would be unbounded on one side).
pub fn minmax_map(c: &Corridor, bins: usize) -> Result<PiecewiseInterpolation, MinMaxError> {
    assert!(bins >= 1, "need at least one interval");
    if c.lower.is_empty() || c.upper.is_empty() {
        return Err(MinMaxError::EmptyCorridor);
    }
    let t_min = c.lower[0].0.min(c.upper[0].0);
    let t_max = c
        .lower
        .last()
        .map(|p| p.0)
        .unwrap_or(t_min)
        .max(c.upper.last().map(|p| p.0).unwrap_or(t_min));
    let span = (t_max - t_min).max(Dur::from_ns(1));
    let width = span / bins as i64;

    #[derive(Clone)]
    struct Bin {
        lo: Option<Dur>,
        hi: Option<Dur>,
        t_sum: i64,
        n: i64,
    }
    let mut acc = vec![
        Bin { lo: None, hi: None, t_sum: 0, n: 0 };
        bins
    ];
    let idx = |t: Time| -> usize {
        let i = ((t - t_min).as_ps() / width.as_ps().max(1)) as usize;
        i.min(bins - 1)
    };
    for &(t, b) in &c.lower {
        let bin = &mut acc[idx(t)];
        bin.lo = Some(bin.lo.map_or(b, |x: Dur| x.max(b)));
        bin.t_sum += t.as_ps();
        bin.n += 1;
    }
    for &(t, b) in &c.upper {
        let bin = &mut acc[idx(t)];
        bin.hi = Some(bin.hi.map_or(b, |x: Dur| x.min(b)));
        bin.t_sum += t.as_ps();
        bin.n += 1;
    }

    let mut anchors = Vec::new();
    for bin in &acc {
        if let (Some(lo), Some(hi)) = (bin.lo, bin.hi) {
            let mid = (lo + hi) / 2;
            let t = Time::from_ps(bin.t_sum / bin.n.max(1));
            anchors.push(OffsetMeasurement {
                worker_time: t,
                offset: mid,
                rtt: (hi - lo).abs(),
            });
        }
    }
    anchors.dedup_by_key(|a| a.worker_time);
    if anchors.len() < 2 {
        return Err(MinMaxError::TooFewIntervals);
    }
    Ok(PiecewiseInterpolation::new(anchors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::TimestampMap;

    /// Corridor around a *kinked* offset (constant drift that doubles
    /// halfway) — the shape a single line cannot fit.
    fn kinked_corridor(n: usize) -> Corridor {
        let mut c = Corridor::default();
        for i in 0..n {
            let t = i as f64; // one point set per second
            let o = if t < 50.0 {
                1e-6 * t
            } else {
                5e-5 + 3e-6 * (t - 50.0)
            };
            c.lower
                .push((Time::from_secs_f64(t), Dur::from_secs_f64(o - 2e-6)));
            c.upper
                .push((Time::from_secs_f64(t), Dur::from_secs_f64(o + 2e-6)));
        }
        c
    }

    #[test]
    fn piecewise_tracks_a_kink() {
        let c = kinked_corridor(100);
        let pw = minmax_map(&c, 10).unwrap();
        // Mid-segment checks on both sides of the kink.
        for &(t_s, o_true) in &[(20.0, 2e-5), (80.0, 5e-5 + 3e-6 * 30.0)] {
            let t = Time::from_secs_f64(t_s);
            let got = (pw.map(t) - t).as_secs_f64();
            assert!(
                (got - o_true).abs() < 5e-6,
                "at {t_s}s: got {got}, want {o_true}"
            );
        }
    }

    #[test]
    fn single_line_cannot_do_what_minmax_does() {
        // Compare against the Duda regression on the same kinked corridor:
        // min/max's error at the kink is much smaller.
        let c = kinked_corridor(100);
        let pw = minmax_map(&c, 10).unwrap();
        let line = super::super::duda::regression_map(&c).unwrap();
        let t = Time::from_secs_f64(50.0);
        let true_o = 5e-5;
        let pw_err = ((pw.map(t) - t).as_secs_f64() - true_o).abs();
        let line_err = ((line.map(t) - t).as_secs_f64() - true_o).abs();
        assert!(
            pw_err * 3.0 < line_err,
            "piecewise {pw_err} should beat line {line_err} at the kink"
        );
    }

    #[test]
    fn one_sided_bins_are_skipped() {
        let mut c = Corridor::default();
        // Only lower bounds early, only upper bounds late, overlap in the
        // middle: just the middle bins qualify → too few anchors.
        for i in 0..10 {
            c.lower.push((Time::from_secs(i), Dur::from_us(-5)));
        }
        for i in 9..19 {
            c.upper.push((Time::from_secs(i), Dur::from_us(5)));
        }
        let res = minmax_map(&c, 10);
        assert!(matches!(res, Err(MinMaxError::TooFewIntervals)));
    }

    #[test]
    fn empty_corridor_rejected() {
        assert!(matches!(
            minmax_map(&Corridor::default(), 4),
            Err(MinMaxError::EmptyCorridor)
        ));
    }
}
