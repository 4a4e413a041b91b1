//! Columnar (structure-of-arrays) timestamp storage.
//!
//! A [`Trace`] keeps its events as an array of structs: one
//! [`EventRecord`](crate::EventRecord) per event, timestamp interleaved
//! with the kind/args payload. That layout is convenient for construction
//! and analysis, but the synchronisation pipeline's hot passes — timestamp
//! mapping, violation censuses, CLC amortization — only ever touch the
//! *times*. Walking 40-byte records to read 8-byte timestamps wastes most
//! of every cache line.
//!
//! This module splits the timestamp column out. [`TraceColumns`] holds
//! every timeline's timestamps (picoseconds) in **one contiguous slab**,
//! timeline-major, with a bounds table marking where each column starts
//! (the codec decodes each block's timestamps straight into their run of
//! it). The slab layout is what makes
//! the census kernels zero-copy: the flat gather array they index is the
//! slab itself ([`TraceColumns::flat`]), not a per-round copy, and the CLC
//! kernels snapshot it with a single `memcpy`. Columns are gathered from a
//! trace in one pass, mutated in place as disjoint `&mut [i64]` slices by
//! the pipeline stages, and scattered back when the pipeline is done.
//!
//! The [`TimeSource`] trait abstracts "timestamp of an event" over both
//! layouts so census code is written once and is bit-identical on either.

use crate::ids::EventId;
use crate::trace::Trace;
use simclock::Time;

/// Timestamp of an event, independent of storage layout.
///
/// Implemented by [`Trace`] (array-of-structs: reads
/// `procs[p].events[i].time`) and [`TraceColumns`] (structure-of-arrays:
/// reads `cols[p][i]`). Census code generic over `TimeSource` runs
/// identically on both, which is what lets the per-item reference checks
/// on the records serve as the oracle for the columnar census kernels.
pub trait TimeSource {
    /// Timestamp of the event `id`.
    fn time_of(&self, id: EventId) -> Time;
}

impl TimeSource for Trace {
    #[inline]
    fn time_of(&self, id: EventId) -> Time {
        self.time(id)
    }
}

/// All timestamp columns of a trace in one contiguous slab: `col(p)[i]` is
/// the time of event `(p, i)`, split away from the kind/args payload.
///
/// The slab is timeline-major — column `p` occupies
/// `slab[bounds[p]..bounds[p + 1]]` — which makes the flat event offset of
/// `(p, i)` exactly `bounds[p] + i`. That is the same flat ("gid") indexing
/// the census plans and CSR dependency graphs use, so both gather straight
/// from [`flat`](TraceColumns::flat) with no per-round flatten copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceColumns {
    /// Every timeline's timestamps, timeline-major.
    slab: Vec<i64>,
    /// `n_procs + 1` offsets into `slab`; column `p` is
    /// `slab[bounds[p]..bounds[p + 1]]`.
    bounds: Vec<usize>,
}

impl TraceColumns {
    /// Gather the timestamp column of every timeline in one pass.
    pub fn gather(trace: &Trace) -> Self {
        let mut slab = Vec::with_capacity(trace.n_events());
        let mut bounds = Vec::with_capacity(trace.procs.len() + 1);
        bounds.push(0);
        for p in &trace.procs {
            slab.extend(p.events.iter().map(|e| e.time.as_ps()));
            bounds.push(slab.len());
        }
        TraceColumns { slab, bounds }
    }

    /// All-zero columns of the given lengths, for the codec's decoder to
    /// write each block's run of timestamps into in place.
    pub(crate) fn zeroed(lens: impl IntoIterator<Item = usize>) -> Self {
        let mut bounds = vec![0];
        bounds.extend(lens.into_iter().scan(0, |end, n| {
            *end += n;
            Some(*end)
        }));
        TraceColumns { slab: vec![0; bounds[bounds.len() - 1]], bounds }
    }

    /// Scatter the columns back into the trace's event records.
    ///
    /// # Panics
    /// Panics when the column shape does not match the trace (different
    /// timeline count or lengths) — scattering a mismatched column set
    /// would silently mis-time events.
    pub fn scatter_into(&self, trace: &mut Trace) {
        assert_eq!(
            self.n_procs(),
            trace.procs.len(),
            "column/timeline count mismatch"
        );
        for (p, pt) in trace.procs.iter_mut().enumerate() {
            let col = self.col(p);
            assert_eq!(
                pt.events.len(),
                col.len(),
                "column length mismatch on timeline {}",
                pt.location
            );
            for (e, &ps) in pt.events.iter_mut().zip(col) {
                e.time = Time::from_ps(ps);
            }
        }
    }

    /// Number of timelines.
    pub fn n_procs(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Total timestamps across all timelines.
    pub fn n_events(&self) -> usize {
        self.slab.len()
    }

    /// The column of timeline `p`, as a dense picosecond slice.
    #[inline]
    pub fn col(&self, p: usize) -> &[i64] {
        &self.slab[self.bounds[p]..self.bounds[p + 1]]
    }

    /// Mutable column of timeline `p`.
    #[inline]
    pub fn col_mut(&mut self, p: usize) -> &mut [i64] {
        &mut self.slab[self.bounds[p]..self.bounds[p + 1]]
    }

    /// The whole slab, timeline-major — every timestamp at its flat event
    /// offset. This *is* the census kernels' gather array: no flatten copy
    /// stands between a mutation and the next census.
    #[inline]
    pub fn flat(&self) -> &[i64] {
        &self.slab
    }

    /// Mutable view of the whole slab, for kernels that write every
    /// timestamp back at once (e.g. the CSR forward pass).
    #[inline]
    pub fn flat_mut(&mut self) -> &mut [i64] {
        &mut self.slab
    }

    /// Iterate the columns in timeline order.
    pub fn iter(&self) -> impl Iterator<Item = &[i64]> {
        self.bounds.windows(2).map(|w| &self.slab[w[0]..w[1]])
    }

    /// Iterate the columns mutably, as `(proc index, &mut [i64])` — the
    /// sharding unit of the parallel pipeline. The slices are disjoint
    /// sub-slices of the slab, so scoped threads may own one each.
    pub fn iter_mut_slices(&mut self) -> impl Iterator<Item = (usize, &mut [i64])> {
        let TraceColumns { slab, bounds } = self;
        let mut rest: &mut [i64] = slab;
        bounds.windows(2).enumerate().map(move |(p, w)| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
            rest = tail;
            (p, head)
        })
    }

    /// Timestamp of event `id` (panics when out of range, like
    /// [`Trace::time`]).
    #[inline]
    pub fn time(&self, id: EventId) -> Time {
        Time::from_ps(self.col(id.p())[id.i()])
    }
}

impl TimeSource for TraceColumns {
    #[inline]
    fn time_of(&self, id: EventId) -> Time {
        self.time(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::ids::{Rank, RegionId, Tag};

    fn sample() -> Trace {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(Time::from_us(1), EventKind::Enter { region: RegionId(1) });
        t.procs[0].push(
            Time::from_us(2),
            EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 8 },
        );
        t.procs[1].push(
            Time::from_us(5),
            EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 8 },
        );
        t
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut t = sample();
        let mut cols = TraceColumns::gather(&t);
        assert_eq!(cols.n_procs(), 2);
        assert_eq!(cols.n_events(), 3);
        assert_eq!(cols.time(EventId::new(1, 0)), Time::from_us(5));
        // Mutate through the slice API, scatter back.
        for (_, s) in cols.iter_mut_slices() {
            for ps in s.iter_mut() {
                *ps += Time::from_us(100).as_ps();
            }
        }
        cols.scatter_into(&mut t);
        assert_eq!(t.time(EventId::new(0, 0)), Time::from_us(101));
        assert_eq!(t.time(EventId::new(1, 0)), Time::from_us(105));
        // Kinds untouched.
        assert_eq!(t.procs[0].events[0].kind, EventKind::Enter { region: RegionId(1) });
    }

    #[test]
    fn time_source_agrees_across_layouts() {
        let t = sample();
        let cols = TraceColumns::gather(&t);
        for (id, _) in t.iter_events() {
            assert_eq!(TimeSource::time_of(&t, id), cols.time_of(id));
        }
    }

    #[test]
    fn slab_is_timeline_major_and_flat_indexed() {
        let t = sample();
        let cols = TraceColumns::gather(&t);
        // Column 0 has two events, column 1 has one: flat offsets 0, 1, 2.
        assert_eq!(cols.flat().len(), 3);
        assert_eq!(cols.col(0), &cols.flat()[..2]);
        assert_eq!(cols.col(1), &cols.flat()[2..]);
        assert_eq!(cols.flat()[2], Time::from_us(5).as_ps());
        // The decoder's zeroed slab has the same bounds.
        let zeroed = TraceColumns::zeroed([2, 1]);
        assert_eq!((zeroed.col(0), zeroed.col(1)), (&[0, 0][..], &[0][..]));
    }

    #[test]
    fn iter_mut_slices_are_disjoint_columns() {
        let t = sample();
        let mut cols = TraceColumns::gather(&t);
        let lens: Vec<usize> = cols.iter_mut_slices().map(|(_, s)| s.len()).collect();
        assert_eq!(lens, vec![2, 1]);
        // Mutations through the slices land in the slab.
        for (p, s) in cols.iter_mut_slices() {
            s[0] = p as i64;
        }
        assert_eq!(cols.flat()[0], 0);
        assert_eq!(cols.flat()[2], 1);
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn scatter_shape_mismatch_panics() {
        let mut t = sample();
        let mut shorter = t.clone();
        shorter.procs[0].events.pop();
        let cols = TraceColumns::gather(&shorter);
        cols.scatter_into(&mut t);
    }
}
