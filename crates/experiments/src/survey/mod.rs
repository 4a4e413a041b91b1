//! The §V survey: what the evaluation compares the CLC with. None of it is
//! on a synchronizer's path, so none of it ships in `clocksync`.
//!
//! The classic baselines estimate a *correction function* per process pair
//! from the messages exchanged between them: every message bounds the
//! relative clock offset from one side (a receive cannot precede its send
//! plus `l_min`), confining the offset to a **corridor**. They differ in
//! how they fit a function into it: [`duda`] (regression and convex hull,
//! 1987), [`hofmann`] (interval min/max midpoints, 1993), [`jezequel`]
//! (spanning-tree composition, 1989), [`babaoglu`] (full-exchange bounds,
//! 1987). Beside them: [`PiecewiseInterpolation`], Eq. 3 through any
//! number of anchors; and [`truth`], which scores any of them against the
//! true event times the simulator recorded.

pub mod babaoglu;
pub mod duda;
pub mod hofmann;
pub mod jezequel;
pub mod truth;

use clocksync::{LinearInterpolation, OffsetMeasurement, TimestampMap};
use simclock::{Dur, Time};
use tracefmt::{CollFlavor, CollectiveInstance, Matching, MinLatency, Trace};

/// Offset-bound points for one ordered process pair `(ref_proc, worker)`.
///
/// The corridor constrains the correction `o(t)` that maps worker time `t`
/// onto the reference axis (`corrected = t + o(t)`):
/// * messages reference → worker yield **lower** bounds (`o(t_recv) ≥
///   t_send + l_min − t_recv`),
/// * messages worker → reference yield **upper** bounds (`o(t_send) ≤
///   t_recv − l_min − t_send`).
#[derive(Debug, Clone, Default)]
pub struct Corridor {
    /// `(worker_time, bound)` lower-bound points.
    pub lower: Vec<(Time, Dur)>,
    /// `(worker_time, bound)` upper-bound points.
    pub upper: Vec<(Time, Dur)>,
}

impl Corridor {
    /// Both bound directions present (required by most fitters).
    pub fn is_two_sided(&self) -> bool {
        !self.lower.is_empty() && !self.upper.is_empty()
    }

    /// Total number of constraint points.
    pub fn len(&self) -> usize {
        self.lower.len() + self.upper.len()
    }

    /// True if no constraints were found.
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty() && self.upper.is_empty()
    }

    /// Merge another corridor's points (e.g. p2p + collective bounds).
    pub fn merge(&mut self, other: Corridor) {
        self.lower.extend(other.lower);
        self.upper.extend(other.upper);
    }
}

/// Extract the corridor for `(ref_proc, worker)` from matched point-to-point
/// messages.
pub fn corridor_between(
    trace: &Trace,
    matching: &Matching,
    ref_proc: usize,
    worker: usize,
    lmin: &dyn MinLatency,
) -> Corridor {
    let mut c = Corridor::default();
    for m in &matching.messages {
        let bound = lmin.l_min(m.from, m.to);
        if m.send.p() == ref_proc && m.recv.p() == worker {
            // o(recv) >= send + l - recv
            let t = trace.time(m.recv);
            c.lower.push((t, trace.time(m.send) + bound - t));
        } else if m.send.p() == worker && m.recv.p() == ref_proc {
            // o(send) <= recv - l - send
            let t = trace.time(m.send);
            c.upper.push((t, trace.time(m.recv) - bound - t));
        }
    }
    c.lower.sort_by_key(|p| p.0);
    c.upper.sort_by_key(|p| p.0);
    c
}

/// Extract a corridor from collective instances by the flavour mapping
/// (each logical message constrains like a p2p message). This is the data
/// source of the Babaoğlu/Drummond full-exchange technique.
pub fn corridor_from_collectives(
    trace: &Trace,
    insts: &[CollectiveInstance],
    ref_proc: usize,
    worker: usize,
    lmin: &dyn MinLatency,
) -> Corridor {
    let mut c = Corridor::default();
    for inst in insts {
        // Find the two members (if both participate).
        let find = |p: usize| {
            inst.members
                .iter()
                .find(|m| m.begin.p() == p)
                .map(|m| (m.rank, m.begin, m.end))
        };
        let (Some((r_rank, r_begin, r_end)), Some((w_rank, w_begin, w_end))) =
            (find(ref_proc), find(worker))
        else {
            continue;
        };
        // Which logical messages exist depends on the flavour.
        let ref_sends = match inst.op.flavor() {
            CollFlavor::NToN => true,
            CollFlavor::OneToN => inst.root == Some(r_rank),
            CollFlavor::NToOne => inst.root == Some(w_rank),
            CollFlavor::Prefix => r_rank < w_rank,
        };
        let worker_sends = match inst.op.flavor() {
            CollFlavor::NToN => true,
            CollFlavor::OneToN => inst.root == Some(w_rank),
            CollFlavor::NToOne => inst.root == Some(r_rank),
            CollFlavor::Prefix => w_rank < r_rank,
        };
        if ref_sends {
            // ref begin -> worker end: lower bound at worker end time.
            let t = trace.time(w_end);
            c.lower
                .push((t, trace.time(r_begin) + lmin.l_min(r_rank, w_rank) - t));
        }
        if worker_sends {
            // worker begin -> ref end: upper bound at worker begin time.
            let t = trace.time(w_begin);
            c.upper
                .push((t, trace.time(r_end) - lmin.l_min(w_rank, r_rank) - t));
        }
    }
    c.lower.sort_by_key(|p| p.0);
    c.upper.sort_by_key(|p| p.0);
    c
}

/// An affine timestamp map `m(t) = gain·t + offset` — the closed form of
/// every line-based fitter, exactly composable along spanning-tree paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineMap {
    /// Multiplicative rate correction.
    pub gain: f64,
    /// Additive offset in seconds.
    pub offset_s: f64,
}

impl AffineMap {
    /// The identity.
    pub fn identity() -> Self {
        AffineMap {
            gain: 1.0,
            offset_s: 0.0,
        }
    }

    /// From an offset line `o(t) = slope·t + intercept` (the fitters
    /// produce offsets, not absolute maps): `m(t) = t + o(t)`.
    pub fn from_offset_line(slope: f64, intercept_s: f64) -> Self {
        AffineMap {
            gain: 1.0 + slope,
            offset_s: intercept_s,
        }
    }

    /// `self ∘ inner`: apply `inner` first, then `self`.
    pub fn compose(&self, inner: &AffineMap) -> AffineMap {
        AffineMap {
            gain: self.gain * inner.gain,
            offset_s: self.gain * inner.offset_s + self.offset_s,
        }
    }
}

impl TimestampMap for AffineMap {
    fn map(&self, t: Time) -> Time {
        Time::from_secs_f64(self.gain * t.as_secs_f64() + self.offset_s)
    }
}

/// Piecewise-linear interpolation through any number of anchors; constant
/// extrapolation of the boundary segments outside the anchored range.
#[derive(Debug, Clone)]
pub struct PiecewiseInterpolation {
    anchors: Vec<OffsetMeasurement>,
}

impl PiecewiseInterpolation {
    /// Build from measurements (sorted internally by worker time).
    ///
    /// # Panics
    /// Panics when fewer than two anchors are given or two anchors share a
    /// worker time.
    pub fn new(mut anchors: Vec<OffsetMeasurement>) -> Self {
        assert!(anchors.len() >= 2, "need at least two anchors");
        anchors.sort_by_key(|m| m.worker_time);
        for w in anchors.windows(2) {
            assert!(
                w[0].worker_time < w[1].worker_time,
                "duplicate anchor times"
            );
        }
        PiecewiseInterpolation { anchors }
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Always false (construction requires ≥ 2 anchors).
    pub fn is_empty(&self) -> bool {
        false
    }

    fn segment(&self, t: Time) -> (&OffsetMeasurement, &OffsetMeasurement) {
        let n = self.anchors.len();
        let idx = match self.anchors.binary_search_by_key(&t, |m| m.worker_time) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
        .min(n - 2);
        (&self.anchors[idx], &self.anchors[idx + 1])
    }
}

impl TimestampMap for PiecewiseInterpolation {
    fn map(&self, t: Time) -> Time {
        let (a, b) = self.segment(t);
        LinearInterpolation::new(a, b).map(t)
    }
}

/// Convert corridor points to `(seconds, seconds)` pairs for the fitters.
fn to_xy(points: &[(Time, Dur)]) -> Vec<(f64, f64)> {
    points
        .iter()
        .map(|&(t, d)| (t.as_secs_f64(), d.as_secs_f64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::Time;
    use tracefmt::{match_messages, EventKind, Rank, Tag, UniformLatency};

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    /// Two processes, worker clock exactly +100 µs ahead of the reference
    /// (so the correct o = −100 µs), messages both ways with 10 µs true
    /// transfer and l_min = 4 µs.
    fn two_way_trace() -> Trace {
        let mut t = Trace::for_ranks(2);
        // ref sends at 0 (true), worker receives at true 10 → records 110.
        t.procs[0].push(us(0), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(110), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        // worker sends at true 50 → records 150; ref receives at true 60.
        t.procs[1].push(us(150), EventKind::Send { to: Rank(0), tag: Tag(1), bytes: 0 });
        t.procs[0].push(us(60), EventKind::Recv { from: Rank(1), tag: Tag(1), bytes: 0 });
        t
    }

    #[test]
    fn corridor_brackets_the_true_offset() {
        let t = two_way_trace();
        let m = match_messages(&t);
        let c = corridor_between(&t, &m, 0, 1, &UniformLatency(Dur::from_us(4)));
        assert!(c.is_two_sided());
        assert_eq!(c.lower.len(), 1);
        assert_eq!(c.upper.len(), 1);
        // Lower: 0 + 4 - 110 = -106; upper: 60 - 4 - 150 = -94.
        assert_eq!(c.lower[0].1, Dur::from_us(-106));
        assert_eq!(c.upper[0].1, Dur::from_us(-94));
        // True offset -100 µs lies inside.
        assert!(c.lower[0].1 <= Dur::from_us(-100));
        assert!(c.upper[0].1 >= Dur::from_us(-100));
    }

    #[test]
    fn affine_compose_is_function_composition() {
        let a = AffineMap { gain: 2.0, offset_s: 1.0 };
        let b = AffineMap { gain: 0.5, offset_s: -3.0 };
        let t = Time::from_secs(10);
        let via_compose = a.compose(&b).map(t);
        let via_apply = a.map(b.map(t));
        assert_eq!(via_compose, via_apply);
        // Identity composes neutrally.
        assert_eq!(AffineMap::identity().compose(&a), a);
    }

    #[test]
    fn from_offset_line_matches_linear_interpolation_semantics() {
        // o(t) = 2e-6 t + 100 µs.
        let m = AffineMap::from_offset_line(2e-6, 100e-6);
        let t = Time::from_secs(50);
        let expected = t + Dur::from_us(100) + Dur::from_us(100); // 50 s * 2 µs/s
        assert!((m.map(t) - expected).abs() < Dur::from_ns(1));
    }

    #[test]
    fn corridor_merge() {
        let mut a = Corridor::default();
        a.lower.push((us(0), Dur::from_us(1)));
        let mut b = Corridor::default();
        b.upper.push((us(5), Dur::from_us(2)));
        assert!(!a.is_two_sided());
        a.merge(b);
        assert!(a.is_two_sided());
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn piecewise_follows_kinks() {
        // Offset: 0 at t=0, 100 µs at t=100, back to 0 at t=200 — a shape a
        // single line cannot fit.
        let m = |w_s: f64, o_us: f64| OffsetMeasurement {
            worker_time: Time::from_secs_f64(w_s),
            offset: Dur::from_us_f64(o_us),
            rtt: Dur::from_us(10),
        };
        let pw = PiecewiseInterpolation::new(vec![m(0.0, 0.0), m(100.0, 100.0), m(200.0, 0.0)]);
        assert_eq!(pw.len(), 3);
        let at = |s: f64| pw.map(Time::from_secs_f64(s)) - Time::from_secs_f64(s);
        assert_eq!(at(50.0), Dur::from_us(50));
        assert_eq!(at(150.0), Dur::from_us(50));
        assert_eq!(at(100.0), Dur::from_us(100));
        // Boundary-segment extrapolation.
        assert_eq!(at(250.0), Dur::from_us(-50));
    }
}
