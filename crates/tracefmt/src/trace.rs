//! Trace containers.
//!
//! A [`ProcessTrace`] is the event stream of one timeline (process or
//! thread), in the order the events were generated; a [`Trace`] bundles all
//! timelines of a run. Timestamps within one timeline are monotone by
//! construction (the tracer's clock is clamped), but timestamps *across*
//! timelines are exactly as unreliable as the paper describes.

use crate::event::{EventKind, EventRecord};
use crate::ids::{EventId, Location};
use serde::{Deserialize, Serialize};
use simclock::Time;

/// Event stream of one timeline.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProcessTrace {
    /// Which timeline this is.
    pub location: Location,
    /// Events in generation order.
    pub events: Vec<EventRecord>,
}

impl ProcessTrace {
    /// Empty trace for a timeline.
    pub fn new(location: Location) -> Self {
        ProcessTrace {
            location,
            events: Vec::new(),
        }
    }

    /// Append an event.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        self.events.push(EventRecord::new(time, kind));
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Are the local timestamps non-decreasing (they must be, for a real
    /// tracer reading a monotone clock)?
    pub fn is_locally_monotone(&self) -> bool {
        self.events.windows(2).all(|w| w[0].time <= w[1].time)
    }
}

/// All timelines of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// One entry per timeline.
    pub procs: Vec<ProcessTrace>,
}

impl Trace {
    /// Trace with one empty timeline per MPI rank `0..n`.
    pub fn for_ranks(n: usize) -> Self {
        Trace {
            procs: (0..n)
                .map(|r| ProcessTrace::new(Location::rank(r as u32)))
                .collect(),
        }
    }

    /// Trace with one empty timeline per OpenMP thread `0..n` (rank 0).
    pub fn for_threads(n: usize) -> Self {
        Trace {
            procs: (0..n)
                .map(|t| ProcessTrace::new(Location::thread(t as u32)))
                .collect(),
        }
    }

    /// Number of timelines.
    pub fn n_procs(&self) -> usize {
        self.procs.len()
    }

    /// Total number of events across all timelines.
    pub fn n_events(&self) -> usize {
        self.procs.iter().map(|p| p.events.len()).sum()
    }

    /// Number of message-transfer events (sends + receives), the
    /// denominator context of the paper's Fig. 7.
    pub fn n_message_events(&self) -> usize {
        self.procs
            .iter()
            .flat_map(|p| p.events.iter())
            .filter(|e| e.kind.is_message())
            .count()
    }

    /// Look up an event.
    pub fn event(&self, id: EventId) -> &EventRecord {
        &self.procs[id.p()].events[id.i()]
    }

    /// Timestamp of an event.
    pub fn time(&self, id: EventId) -> Time {
        self.event(id).time
    }

    /// Iterate `(EventId, &EventRecord)` over all timelines.
    pub fn iter_events(&self) -> impl Iterator<Item = (EventId, &EventRecord)> {
        self.procs.iter().enumerate().flat_map(|(p, pt)| {
            pt.events
                .iter()
                .enumerate()
                .map(move |(i, e)| (EventId::new(p, i), e))
        })
    }

    /// Apply a per-timeline timestamp mapping: `f(proc_index, old) -> new`.
    /// This is how offset alignment and interpolation are applied postmortem.
    pub fn map_times<F: FnMut(usize, Time) -> Time>(&mut self, mut f: F) {
        for (p, pt) in self.procs.iter_mut().enumerate() {
            for e in &mut pt.events {
                e.time = f(p, e.time);
            }
        }
    }

    /// All timelines locally monotone?
    pub fn is_locally_monotone(&self) -> bool {
        self.procs.iter().all(|p| p.is_locally_monotone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Rank, RegionId, Tag};

    fn sample() -> Trace {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(Time::from_us(1), EventKind::Enter { region: RegionId(1) });
        t.procs[0].push(
            Time::from_us(2),
            EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 8 },
        );
        t.procs[0].push(Time::from_us(3), EventKind::Exit { region: RegionId(1) });
        t.procs[1].push(
            Time::from_us(5),
            EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 8 },
        );
        t
    }

    #[test]
    fn counters() {
        let t = sample();
        assert_eq!(t.n_procs(), 2);
        assert_eq!(t.n_events(), 4);
        assert_eq!(t.n_message_events(), 2);
        assert_eq!(t.iter_events().count(), 4);
    }

    #[test]
    fn map_times_applies_per_proc() {
        let mut t = sample();
        t.map_times(|p, time| {
            if p == 0 {
                time + simclock::Dur::from_us(100)
            } else {
                time
            }
        });
        assert_eq!(t.time(EventId::new(0, 0)), Time::from_us(101));
        assert_eq!(t.time(EventId::new(1, 0)), Time::from_us(5));
    }

    #[test]
    fn monotonicity_check() {
        let mut t = sample();
        assert!(t.is_locally_monotone());
        t.procs[0].events[2].time = Time::from_us(0);
        assert!(!t.is_locally_monotone());
    }

    #[test]
    fn thread_trace_locations() {
        let t = Trace::for_threads(3);
        assert_eq!(t.procs[2].location, Location::thread(2));
    }
}
