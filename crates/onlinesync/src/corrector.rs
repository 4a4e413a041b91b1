//! Online timestamp correction through the current filter state.
//!
//! An [`OnlineLane`] owns one [`DriftKalman`] plus that timeline's probe
//! schedule, sorted by worker time. Events are fed in the order their
//! local clock produced them (per-timeline timestamps are monotone by
//! construction everywhere in this workspace); before correcting an event
//! the lane first absorbs every probe whose worker time is at or before
//! the event — exactly the information an online corrector would have had
//! at that moment. No probe from the future ever influences an event,
//! which is the defining difference from postmortem interpolation.
//!
//! The corrected output is clamped monotone per timeline: the filter
//! state moves when probes arrive, and a downward offset revision between
//! two close events must not reorder a timeline against itself (local
//! event order is ground truth, Lamport's first clock condition).

use crate::filter::{DriftKalman, KalmanParams, OffsetMeasurement};

/// Online correction state for a single timeline (process).
#[derive(Debug, Clone)]
pub struct OnlineLane {
    filter: DriftKalman,
    /// Probe schedule sorted by `worker_time`.
    probes: Vec<OffsetMeasurement>,
    /// Next unconsumed probe.
    next: usize,
    /// Last emitted corrected timestamp, for the monotone clamp.
    last_out: Option<i64>,
}

impl OnlineLane {
    /// Build a lane from this timeline's probe schedule. The schedule is
    /// sorted by worker time internally; an empty schedule yields the
    /// identity correction (the master timeline's lane).
    pub fn new(mut probes: Vec<OffsetMeasurement>, params: KalmanParams) -> Self {
        probes.sort_by_key(|p| p.worker_time);
        OnlineLane {
            filter: DriftKalman::new(params),
            probes,
            next: 0,
            last_out: None,
        }
    }

    /// The filter, for inspection (drift/offset estimates, update count).
    pub fn filter(&self) -> &DriftKalman {
        &self.filter
    }

    /// Correct the next raw timestamp of this timeline. **Must** be called
    /// in nondecreasing raw-timestamp order (the natural per-timeline
    /// event order); the output is then guaranteed nondecreasing too.
    ///
    /// Inlined into its callers' per-event loops: as a call, its first
    /// float instruction (`cvtsi2sd`) can inherit a false dependency on the
    /// previous call's result, which chains the events' divides end to end
    /// and halves the online stage's rate (61 M against 126 M events/s).
    #[inline]
    pub fn map_next(&mut self, raw_ps: i64) -> i64 {
        while self.next < self.probes.len() && self.probes[self.next].worker_time.as_ps() <= raw_ps {
            self.filter.observe(self.probes[self.next]);
            self.next += 1;
        }
        let corr = self.filter.offset_at_ps(raw_ps);
        // The filter clamps its state so `corr` is finite and well inside
        // f64's exact-i64 range; saturate the add anyway for hostile raws.
        let out = raw_ps.saturating_add(simclock::round_ties_away(corr));
        let out = match self.last_out {
            Some(prev) => out.max(prev),
            None => out,
        };
        self.last_out = Some(out);
        out
    }
}

/// Online correction for a whole trace: one [`OnlineLane`] per timeline.
#[derive(Debug, Clone)]
pub struct OnlineCorrector {
    lanes: Vec<OnlineLane>,
}

impl OnlineCorrector {
    /// One lane per timeline, in timeline order. Timelines beyond the end
    /// of `probes` (or with empty schedules) get the identity correction.
    pub fn new(probes: Vec<Vec<OffsetMeasurement>>, params: KalmanParams) -> Self {
        OnlineCorrector {
            lanes: probes
                .into_iter()
                .map(|p| OnlineLane::new(p, params))
                .collect(),
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True if there are no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The lane for timeline `proc`, if it exists.
    pub fn lane(&self, proc: usize) -> Option<&OnlineLane> {
        self.lanes.get(proc)
    }

    /// Mutable lane access; grows the lane vector with identity lanes so
    /// a trace with more timelines than probe schedules still corrects.
    pub fn lane_mut(&mut self, proc: usize) -> &mut OnlineLane {
        if proc >= self.lanes.len() {
            let params = KalmanParams::default();
            self.lanes
                .resize_with(proc + 1, || OnlineLane::new(Vec::new(), params));
        }
        &mut self.lanes[proc]
    }

    /// Correct the next raw timestamp on timeline `proc` (see
    /// [`OnlineLane::map_next`] for the ordering contract).
    pub fn map_next(&mut self, proc: usize, raw_ps: i64) -> i64 {
        self.lane_mut(proc).map_next(raw_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::{Dur, Time};

    fn probe(worker_time_ps: i64, offset_ps: i64, rtt_ps: i64) -> OffsetMeasurement {
        OffsetMeasurement::new(
            Time::from_ps(worker_time_ps),
            Dur::from_ps(offset_ps),
            Dur::from_ps(rtt_ps),
        )
    }

    #[test]
    fn no_probes_is_identity() {
        let mut lane = OnlineLane::new(Vec::new(), KalmanParams::default());
        for raw in [0i64, 17, 1_000_000, 123_456_789_000] {
            assert_eq!(lane.map_next(raw), raw);
        }
    }

    #[test]
    fn constant_offset_probes_shift_by_that_offset() {
        let probes = (0..20)
            // 42 µs fast-forward
            .map(|k| probe(k * 1_000_000_000, 42_000_000, 5_000_000))
            .collect();
        let mut lane = OnlineLane::new(probes, KalmanParams::default());
        // Event well inside the probe window: corrected ≈ raw + 42 µs.
        let out = lane.map_next(10 * 1_000_000_000);
        let err = (out - (10 * 1_000_000_000 + 42_000_000)).abs();
        assert!(err < 1_000_000, "off by {err} ps");
    }

    #[test]
    fn probes_before_event_are_consumed_future_ones_are_not() {
        let probes = vec![
            probe(100, 0, 1000),
            probe(200, 0, 1000),
            probe(900, 0, 1000),
        ];
        let mut lane = OnlineLane::new(probes, KalmanParams::default());
        lane.map_next(250);
        assert_eq!(lane.next, 2);
        lane.map_next(901);
        assert_eq!(lane.next, 3);
    }

    #[test]
    fn output_is_monotone_even_when_offset_estimate_drops() {
        // Probe at t=1s says +100 µs, probe at t=2s says −100 µs: the
        // filter revises downward sharply, yet events at 1.9s then 2.1s
        // must not swap.
        let probes = vec![
            probe(1_000_000_000_000, 100_000_000, 2_000_000),
            probe(2_000_000_000_000, -100_000_000, 2_000_000),
        ];
        let mut lane = OnlineLane::new(probes, KalmanParams::default());
        let mut prev = i64::MIN;
        for raw in (0..30).map(|k| k * 100_000_000_000i64) {
            let out = lane.map_next(raw);
            assert!(out >= prev, "non-monotone at raw={raw}: {out} < {prev}");
            prev = out;
        }
    }

    #[test]
    fn corrector_grows_identity_lanes_on_demand() {
        let mut c = OnlineCorrector::new(vec![Vec::new()], KalmanParams::default());
        assert_eq!(c.len(), 1);
        assert_eq!(c.map_next(3, 777), 777);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn unsorted_probe_schedule_is_sorted_internally() {
        let probes = vec![
            probe(5_000_000_000, 10_000, 1000),
            probe(1_000_000_000, 10_000, 1000),
        ];
        let lane = OnlineLane::new(probes, KalmanParams::default());
        assert!(lane.probes[0].worker_time <= lane.probes[1].worker_time);
    }
}
