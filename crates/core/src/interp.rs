//! Timestamp maps: offset alignment and linear offset interpolation.
//!
//! Given offset measurements `(w, o)` — master-minus-worker offset `o` at
//! worker time `w` — a [`TimestampMap`] converts worker-local timestamps to
//! estimated master time:
//!
//! * [`OffsetAlignment`] uses a single measurement (paper's "offset
//!   alignment only at program initialization"): `m(t) = t + o₁`;
//! * [`LinearInterpolation`] uses two measurements, typically from
//!   `MPI_Init` and `MPI_Finalize` (Scalasca-style), via the paper's Eq. 3:
//!
//! ```text
//! m(t) = t + (o₂ − o₁)/(w₂ − w₁) · (t − w₁) + o₁
//! ```

use crate::offset::OffsetMeasurement;
use simclock::{Dur, Time};
use tracefmt::Trace;

/// A worker-local → master-time mapping.
pub trait TimestampMap {
    /// Map one worker-local timestamp to estimated master time.
    fn map(&self, t: Time) -> Time;
}

/// The identity map (used for the master itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityMap;

impl TimestampMap for IdentityMap {
    fn map(&self, t: Time) -> Time {
        t
    }
}

/// Constant-offset correction from a single measurement.
#[derive(Debug, Clone, Copy)]
pub struct OffsetAlignment {
    /// The measured master − worker offset.
    pub offset: Dur,
}

impl OffsetAlignment {
    /// Alignment from a measurement.
    pub fn new(m: &OffsetMeasurement) -> Self {
        OffsetAlignment { offset: m.offset }
    }
}

impl OffsetAlignment {
    /// Apply the alignment to a dense picosecond column in place: every
    /// element through [`TimestampMap::map`], a saturating integer add.
    pub fn map_col(&self, col: &mut [i64]) {
        for ps in col.iter_mut() {
            *ps = self.map(Time::from_ps(*ps)).as_ps();
        }
    }
}

impl TimestampMap for OffsetAlignment {
    fn map(&self, t: Time) -> Time {
        t.saturating_add(self.offset)
    }
}

/// Eq. 3: linear interpolation between two offset measurements.
///
/// ```
/// use clocksync::{LinearInterpolation, OffsetMeasurement, TimestampMap};
/// use simclock::{Dur, Time};
///
/// // Offset measured as +100 µs at worker time 0 and +300 µs at 100 s:
/// // the worker runs 2 ppm slow relative to the master.
/// let a = OffsetMeasurement {
///     worker_time: Time::ZERO, offset: Dur::from_us(100), rtt: Dur::from_us(9) };
/// let b = OffsetMeasurement {
///     worker_time: Time::from_secs(100), offset: Dur::from_us(300), rtt: Dur::from_us(9) };
/// let map = LinearInterpolation::new(&a, &b);
/// assert_eq!(map.map(Time::from_secs(50)), Time::from_secs(50) + Dur::from_us(200));
/// assert!((map.slope() - 2e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LinearInterpolation {
    w1: Time,
    o1: Dur,
    /// Offset change per second of worker time.
    slope: f64,
}

impl LinearInterpolation {
    /// Build from the two measurements (order is normalised internally).
    ///
    /// # Panics
    /// Panics if both anchors share the same worker time; measurements that
    /// come from outside the program go through [`try_new`](Self::try_new).
    pub fn new(a: &OffsetMeasurement, b: &OffsetMeasurement) -> Self {
        Self::try_new(a, b).expect("interpolation anchors coincide")
    }

    /// [`new`](Self::new), or `None` when both anchors share the same worker
    /// time — no line passes through them.
    pub fn try_new(a: &OffsetMeasurement, b: &OffsetMeasurement) -> Option<Self> {
        let (first, second) = if a.worker_time <= b.worker_time {
            (a, b)
        } else {
            (b, a)
        };
        let dw = second.worker_time.saturating_since(first.worker_time).as_secs_f64();
        (dw > 0.0).then(|| LinearInterpolation {
            w1: first.worker_time,
            o1: first.offset,
            slope: second.offset.saturating_sub(first.offset).as_secs_f64() / dw,
        })
    }

    /// The interpolated offset at worker time `t`, saturating at the `i64`
    /// edges.
    pub fn offset_at(&self, t: Time) -> Dur {
        let ds = t.saturating_since(self.w1).as_secs_f64();
        self.o1.saturating_add(Dur::from_secs_f64(self.slope * ds))
    }

    /// The fitted drift slope (seconds of offset per second — the relative
    /// rate difference between worker and master).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Apply Eq. 3 to a dense picosecond column in place: every element
    /// through [`TimestampMap::map`], with the dispatch on the map's kind
    /// paid once per column instead of once per event.
    pub fn map_col(&self, col: &mut [i64]) {
        for ps in col.iter_mut() {
            *ps = self.map(Time::from_ps(*ps)).as_ps();
        }
    }
}

impl TimestampMap for LinearInterpolation {
    fn map(&self, t: Time) -> Time {
        t.saturating_add(self.offset_at(t))
    }
}

/// Apply per-process maps to a whole trace (`maps[p]` for process `p`).
pub fn apply_maps(trace: &mut Trace, maps: &[Box<dyn TimestampMap>]) {
    assert_eq!(maps.len(), trace.n_procs(), "one map per process required");
    trace.map_times(|p, t| maps[p].map(t));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(w_s: f64, o_us: f64) -> OffsetMeasurement {
        OffsetMeasurement {
            worker_time: Time::from_secs_f64(w_s),
            offset: Dur::from_us_f64(o_us),
            rtt: Dur::from_us(10),
        }
    }

    #[test]
    fn alignment_shifts_constantly() {
        let a = OffsetAlignment::new(&m(0.0, 250.0));
        assert_eq!(a.map(Time::ZERO), Time::from_us(250));
        assert_eq!(
            a.map(Time::from_secs(100)),
            Time::from_secs(100) + Dur::from_us(250)
        );
    }

    #[test]
    fn eq3_is_exact_at_anchors() {
        let m1 = m(10.0, 100.0);
        let m2 = m(110.0, 300.0);
        let li = LinearInterpolation::new(&m1, &m2);
        assert_eq!(li.map(m1.worker_time), m1.worker_time + m1.offset);
        assert_eq!(li.map(m2.worker_time), m2.worker_time + m2.offset);
    }

    #[test]
    fn eq3_interpolates_linearly() {
        // Offset grows 200 µs over 100 s → 2 µs/s; halfway: +200 µs.
        let li = LinearInterpolation::new(&m(0.0, 100.0), &m(100.0, 300.0));
        assert_eq!(li.offset_at(Time::from_secs(50)), Dur::from_us(200));
        assert!((li.slope() - 2e-6).abs() < 1e-12);
        // Extrapolates beyond the anchors (the linear model's whole point).
        assert_eq!(li.offset_at(Time::from_secs(200)), Dur::from_us(500));
        assert_eq!(li.offset_at(Time::from_secs(-50)), Dur::from_us(0));
    }

    #[test]
    fn anchor_order_does_not_matter() {
        let a = LinearInterpolation::new(&m(0.0, 0.0), &m(100.0, 100.0));
        let b = LinearInterpolation::new(&m(100.0, 100.0), &m(0.0, 0.0));
        let t = Time::from_secs(33);
        assert_eq!(a.map(t), b.map(t));
    }

    #[test]
    #[should_panic(expected = "coincide")]
    fn coincident_anchors_panic() {
        let _ = LinearInterpolation::new(&m(5.0, 1.0), &m(5.0, 2.0));
    }

    #[test]
    fn apply_maps_per_process() {
        use tracefmt::{EventKind, RegionId};
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(Time::from_us(10), EventKind::Enter { region: RegionId(0) });
        t.procs[1].push(Time::from_us(10), EventKind::Enter { region: RegionId(0) });
        let maps: Vec<Box<dyn TimestampMap>> = vec![
            Box::new(IdentityMap),
            Box::new(OffsetAlignment { offset: Dur::from_us(5) }),
        ];
        apply_maps(&mut t, &maps);
        assert_eq!(t.procs[0].events[0].time, Time::from_us(10));
        assert_eq!(t.procs[1].events[0].time, Time::from_us(15));
    }

    #[test]
    fn map_col_matches_per_element_map() {
        let li = LinearInterpolation::new(&m(0.0, 100.0), &m(100.0, 300.0));
        let al = OffsetAlignment::new(&m(0.0, 250.0));
        // Negatives, magnitudes spanning ~±17 minutes, and picosecond
        // residues that land near the .5 rounding edge of the seconds→ps
        // conversion.
        let raw: Vec<i64> = (-2000..2000i64).map(|k| k * 499_999_999 + (k % 7)).collect();
        let mut col = raw.clone();
        li.map_col(&mut col);
        for (&r, &got) in raw.iter().zip(&col) {
            assert_eq!(got, li.map(Time::from_ps(r)).as_ps(), "linear at {r}");
        }
        let mut col = raw.clone();
        al.map_col(&mut col);
        for (&r, &got) in raw.iter().zip(&col) {
            assert_eq!(got, al.map(Time::from_ps(r)).as_ps(), "align at {r}");
        }
    }

    #[test]
    fn identity_map_is_identity() {
        let id = IdentityMap;
        assert_eq!(id.map(Time::from_ns(12345)), Time::from_ns(12345));
    }
}
