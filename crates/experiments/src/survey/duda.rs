//! Duda's global-time estimation: regression and convex-hull fitting
//! (Duda, Harrus, Haddad, Bernard 1987 — paper reference [19]).
//!
//! Both methods fit a *line* `o(t) = slope·t + intercept` into the offset
//! corridor of a process pair:
//!
//! * **regression** — least-squares lines through the lower-bound and
//!   upper-bound point sets separately, averaged;
//! * **convex hull** — the geometrically tight variant: only hull vertices
//!   can support the best line, so the upper hull of the lower bounds and
//!   the lower hull of the upper bounds are computed and the line is placed
//!   midway between the two hulls' closest approach.

use super::{to_xy, AffineMap, Corridor};
use crate::common::fit_line;

/// Fitting failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two points on one side of the corridor.
    TooFewPoints,
    /// All points share one abscissa (no slope information).
    DegenerateAbscissa,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "too few constraint points"),
            FitError::DegenerateAbscissa => write!(f, "constraints lack time spread"),
        }
    }
}

impl std::error::Error for FitError {}

/// Least-squares corridor midline.
pub fn regression_map(c: &Corridor) -> Result<AffineMap, FitError> {
    if c.lower.len() < 2 || c.upper.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let lo = fit_line(&to_xy(&c.lower)).ok_or(FitError::DegenerateAbscissa)?;
    let hi = fit_line(&to_xy(&c.upper)).ok_or(FitError::DegenerateAbscissa)?;
    Ok(AffineMap::from_offset_line(
        0.5 * (lo.slope + hi.slope),
        0.5 * (lo.intercept + hi.intercept),
    ))
}

/// Monotone-chain upper hull (callers flip signs for the lower hull).
/// Input must be sorted by x.
fn upper_hull(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut hull: Vec<(f64, f64)> = Vec::with_capacity(points.len());
    for &p in points {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // Keep right turns (clockwise) for an upper hull.
            let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
            if cross >= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

fn lower_hull(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let flipped: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x, -y)).collect();
    upper_hull(&flipped)
        .into_iter()
        .map(|(x, y)| (x, -y))
        .collect()
}

/// Evaluate the piecewise-linear hull function at `x` (constant
/// extrapolation outside).
fn hull_at(hull: &[(f64, f64)], x: f64) -> f64 {
    match hull.iter().position(|p| p.0 >= x) {
        Some(0) => hull[0].1,
        None => hull.last().expect("non-empty hull").1,
        Some(i) => {
            let (x0, y0) = hull[i - 1];
            let (x1, y1) = hull[i];
            if x1 == x0 {
                y0.max(y1)
            } else {
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            }
        }
    }
}

/// Convex-hull separating line.
///
/// Computes the upper hull `U` of the lower-bound points and the lower hull
/// `L` of the upper-bound points, evaluates both at the corridor's extreme
/// abscissae, and returns the line through the midpoints of the corridor at
/// those two ends. When measurement noise makes the hulls cross (no exact
/// separating line exists), the midline still minimises the worst-case
/// violation and is returned anyway — matching how the technique degrades
/// on real data.
pub fn convex_hull_map(c: &Corridor) -> Result<AffineMap, FitError> {
    if c.lower.len() < 2 || c.upper.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let lo_pts = to_xy(&c.lower);
    let hi_pts = to_xy(&c.upper);
    let lo_hull = upper_hull(&lo_pts);
    let hi_hull = lower_hull(&hi_pts);
    let lo_span = lo_pts.last().unwrap().0 - lo_pts[0].0;
    let hi_span = hi_pts.last().unwrap().0 - hi_pts[0].0;
    let x_min = lo_pts[0].0.min(hi_pts[0].0);
    let x_max = lo_pts.last().unwrap().0.max(hi_pts.last().unwrap().0);
    if x_max <= x_min || lo_span <= 0.0 || hi_span <= 0.0 {
        return Err(FitError::DegenerateAbscissa);
    }
    // Evaluate the envelopes at interior quantiles: the hull's extreme
    // vertices are simply the first/last input points (with arbitrary
    // slack), whereas the envelope interior interpolates only the tight
    // supporting constraints.
    let x0 = x_min + 0.2 * (x_max - x_min);
    let x1 = x_min + 0.8 * (x_max - x_min);
    let y0 = 0.5 * (hull_at(&lo_hull, x0) + hull_at(&hi_hull, x0));
    let y1 = 0.5 * (hull_at(&lo_hull, x1) + hull_at(&hi_hull, x1));
    let slope = (y1 - y0) / (x1 - x0);
    Ok(AffineMap::from_offset_line(slope, y0 - slope * x0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::TimestampMap;
    use simclock::{Dur, Time};

    /// Corridor around a true offset line o(t) = drift·t + off, with the
    /// lower bounds `margin` below and upper bounds `margin` above.
    fn synthetic_corridor(drift: f64, off: f64, margin: f64, n: usize) -> Corridor {
        let mut c = Corridor::default();
        for i in 0..n {
            let t = i as f64 * 10.0;
            let o = drift * t + off;
            // Jitter the margins asymmetrically but boundedly.
            let jl = margin * (1.0 + 0.3 * ((i * 7 % 11) as f64 / 11.0));
            let ju = margin * (1.0 + 0.3 * ((i * 5 % 13) as f64 / 13.0));
            c.lower.push((Time::from_secs_f64(t), Dur::from_secs_f64(o - jl)));
            c.upper.push((Time::from_secs_f64(t), Dur::from_secs_f64(o + ju)));
        }
        c
    }

    #[test]
    fn regression_recovers_drift_and_offset() {
        let c = synthetic_corridor(2e-6, 5e-4, 3e-6, 50);
        let m = regression_map(&c).unwrap();
        assert!((m.gain - (1.0 + 2e-6)).abs() < 5e-7, "gain {}", m.gain);
        assert!((m.offset_s - 5e-4).abs() < 3e-6, "offset {}", m.offset_s);
    }

    #[test]
    fn convex_hull_recovers_drift_and_offset() {
        let c = synthetic_corridor(-1.5e-6, -2e-4, 3e-6, 50);
        let m = convex_hull_map(&c).unwrap();
        assert!((m.gain - (1.0 - 1.5e-6)).abs() < 5e-7, "gain {}", m.gain);
        assert!((m.offset_s + 2e-4).abs() < 4e-6, "offset {}", m.offset_s);
    }

    #[test]
    fn hull_fit_stays_inside_a_clean_corridor() {
        let c = synthetic_corridor(1e-6, 1e-4, 5e-6, 30);
        let m = convex_hull_map(&c).unwrap();
        for (t, lo) in &c.lower {
            let o = m.map(*t) - *t;
            assert!(o >= *lo - Dur::from_ns(1), "below lower bound at {t:?}");
        }
        for (t, hi) in &c.upper {
            let o = m.map(*t) - *t;
            assert!(o <= *hi + Dur::from_ns(1), "above upper bound at {t:?}");
        }
    }

    #[test]
    fn too_few_points_rejected() {
        let mut c = Corridor::default();
        c.lower.push((Time::ZERO, Dur::ZERO));
        c.upper.push((Time::ZERO, Dur::ZERO));
        assert_eq!(regression_map(&c), Err(FitError::TooFewPoints));
        assert_eq!(convex_hull_map(&c), Err(FitError::TooFewPoints));
    }

    #[test]
    fn degenerate_abscissa_rejected() {
        let mut c = Corridor::default();
        for _ in 0..3 {
            c.lower.push((Time::from_secs(5), Dur::from_us(-1)));
            c.upper.push((Time::from_secs(5), Dur::from_us(1)));
        }
        assert_eq!(regression_map(&c), Err(FitError::DegenerateAbscissa));
    }

    #[test]
    fn hull_helpers_are_correct() {
        let pts = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (4.0, 0.0)];
        let uh = upper_hull(&pts);
        // Upper hull: (0,0) -> (1,2) -> (3,3) -> (4,0).
        assert_eq!(uh, vec![(0.0, 0.0), (1.0, 2.0), (3.0, 3.0), (4.0, 0.0)]);
        let lh = lower_hull(&pts);
        assert_eq!(lh, vec![(0.0, 0.0), (4.0, 0.0)]);
        assert!((hull_at(&uh, 2.0) - 2.5).abs() < 1e-12);
        assert_eq!(hull_at(&uh, -1.0), 0.0);
        assert_eq!(hull_at(&uh, 9.0), 0.0);
    }
}
