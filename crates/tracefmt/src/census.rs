//! Plan-based violation censuses over columnar timestamps.
//!
//! [`check_p2p_messages_at`](crate::violation::check_p2p_messages_at) and
//! [`check_collectives_at`](crate::violation::check_collectives_at) walk
//! the *analysis* structures per census: every message pays a virtual
//! `l_min` call, every collective instance re-derives its logical messages
//! from the flavour mapping, and every check sits behind a branch. The
//! synchronization pipeline runs these censuses up to three times per
//! analysis round over timestamps that change between rounds while the
//! analysis structures do not.
//!
//! A [`CensusPlan`] hoists everything timestamp-independent out of the
//! loop, once per analysis:
//!
//! * event coordinates are resolved to offsets into one *flat* timestamp
//!   array — which is exactly the [`TraceColumns`] slab
//!   ([`TraceColumns::flat`]), so the kernels gather straight from live
//!   pipeline storage with **zero copies** per census round, and a check
//!   is two indexed loads instead of two two-level lookups;
//! * point-to-point `l_min` bounds are frozen per check into a dense `i64`
//!   lane;
//! * collective instances are lowered into a [`CollTable`] — member rows
//!   plus one `l_min` matrix per communicator — and never expanded into
//!   their logical messages (paper §V flavour mapping).
//!
//! The point-to-point kernel runs over struct-of-arrays lanes in
//! fixed-width chunks, accumulating per-chunk violation bitmasks
//! branchlessly; the violation *list* is materialized only for chunks whose
//! mask is nonzero, in message order, so reports are bit-identical to the
//! reference checks — same counts, same violation order. On x86-64 with
//! AVX2 the mask kernel additionally uses 4-lane `i64` gathers and packed
//! compares behind runtime detection; the arithmetic is integer-only, so
//! the specialization cannot change results.
//!
//! The collective kernel is dense: per instance it reads the `k` begin and
//! `k` end times once into two small contiguous buffers and compares them
//! against the instance's latency matrix row by row — the logical messages
//! of one begin (or one end) are a contiguous run of ends (begins) against
//! a contiguous run of bounds, so the inner loop is two sequential streams
//! and a branchless tally. It counts exactly the pairs the reference check
//! visits: those whose members differ in **rank**, which is exclusion by
//! position wherever a communicator's ranks are distinct.

use crate::analysis::{CollectiveInstance, MessageMatch};
use crate::coll::{CollInstRef, CollTable, LatBlock};
use crate::column::TraceColumns;
use crate::event::CollFlavor;
use crate::ids::EventId;
use crate::trace::Trace;
use crate::violation::{CollReport, MinLatency, P2pReport, ViolatedMessage};
use simclock::{Dur, Time};
use std::fmt;
use std::sync::Arc;

/// Width of one census chunk: one `u64` violation bitmask per chunk.
const CHUNK: usize = 64;

/// Why an analysis could not be lowered for a trace shape: an event
/// coordinate referred to a timeline the trace does not have or an event
/// index past the end of its timeline, one event was claimed by two
/// collective instances, or the trace is too large to address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanBuildError {
    /// The offending event id.
    EventOutOfRange(EventId),
    /// An event that two collective instances (or two members of one) list
    /// as their begin or end; an event opens or closes one call.
    SharedMember(EventId),
    /// The trace has more events than the plan's 32-bit flat offsets (and
    /// the AVX2 gather's signed-index form) can address.
    TraceTooLarge,
}

impl fmt::Display for PlanBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanBuildError::EventOutOfRange(id) => {
                write!(f, "event {id} is outside the trace shape the plan was built for")
            }
            PlanBuildError::SharedMember(id) => {
                write!(f, "event {id} is a member of two collective instances")
            }
            PlanBuildError::TraceTooLarge => {
                write!(f, "trace exceeds the plan's 2^31-event addressing limit")
            }
        }
    }
}

impl std::error::Error for PlanBuildError {}

/// One struct-of-arrays lane of clock-condition checks: for check `k`,
/// `transfer = flat[to[k]] - flat[from[k]]` must be `>= bound[k]`. The
/// subtraction saturates: two timelines at opposite `i64` edges are a
/// transfer past the range, not a wrapped one, and `transfer < bound` is
/// decided exactly for every bound above `i64::MIN`.
///
/// Offsets are `u32` deliberately: the sequential lane streams are half
/// the width of the random gather traffic they drive, and the AVX2 path
/// gets the cheaper `i32`-index gather form (`build` rejects traces past
/// `i32::MAX` events, so the signed reinterpretation is lossless).
#[derive(Debug, Clone, Default)]
struct CheckLane {
    from: Vec<u32>,
    to: Vec<u32>,
    bound: Vec<i64>,
}

impl CheckLane {
    fn with_capacity(n: usize) -> Self {
        CheckLane { from: Vec::with_capacity(n), to: Vec::with_capacity(n), bound: Vec::with_capacity(n) }
    }

    fn push(&mut self, from: u32, to: u32, bound: Dur) {
        self.from.push(from);
        self.to.push(to);
        self.bound.push(bound.as_ps());
    }

    fn len(&self) -> usize {
        self.from.len()
    }
}

/// Timestamp-independent census state, frozen once per analysis.
///
/// Build with [`CensusPlan::build`] (or the [`for_columns`]
/// [`CensusPlan::for_columns`] convenience), then run
/// [`p2p_census`](CensusPlan::p2p_census) /
/// [`collective_census`](CensusPlan::collective_census) against the flat
/// timeline-major timestamp array — normally the live [`TraceColumns`]
/// slab via [`flat_of`](CensusPlan::flat_of), which costs nothing to
/// produce. Reports are bit-identical to [`check_p2p_messages_at`] /
/// [`check_collectives_at`] over the same analysis structures.
///
/// [`check_p2p_messages_at`]: crate::violation::check_p2p_messages_at
/// [`check_collectives_at`]: crate::violation::check_collectives_at
#[derive(Debug, Clone)]
pub struct CensusPlan {
    /// The trace shape the plan was built against: timeline `p`'s events
    /// sit at `base[p]..base[p + 1]` of the flat array. A violation's event
    /// ids are read back from its flat offsets through it.
    base: Vec<u32>,
    /// Point-to-point checks, one per matched message, in message order.
    p2p: CheckLane,
    /// The collective instances, as member rows and latency blocks.
    coll: Arc<CollTable>,
}

impl CensusPlan {
    /// Freeze a plan for a trace shape given as per-timeline event counts.
    ///
    /// `lmin` is evaluated once per message and once per rank pair of every
    /// communicator here and never again.
    pub fn build(
        timeline_lens: &[usize],
        messages: &[MessageMatch],
        instances: &[CollectiveInstance],
        lmin: &dyn MinLatency,
    ) -> Result<CensusPlan, PlanBuildError> {
        let coll = Arc::new(CollTable::build(timeline_lens, instances, lmin)?);
        CensusPlan::with_table(timeline_lens, messages, coll, lmin)
    }

    /// [`build`](CensusPlan::build) over an already lowered collective
    /// table — the one a `DepGraph` of the same trace carries — so a job
    /// lowers its collectives once for both consumers.
    ///
    /// # Panics
    /// Panics when `coll` was built for a different event count.
    pub fn with_table(
        timeline_lens: &[usize],
        messages: &[MessageMatch],
        coll: Arc<CollTable>,
        lmin: &dyn MinLatency,
    ) -> Result<CensusPlan, PlanBuildError> {
        let mut base = Vec::with_capacity(timeline_lens.len() + 1);
        let mut end = 0u64;
        base.push(0);
        for &len in timeline_lens {
            end += len as u64;
            if end > i32::MAX as u64 {
                return Err(PlanBuildError::TraceTooLarge);
            }
            base.push(end as u32);
        }
        assert_eq!(coll.n_events() as u64, end, "plan/collective-table event count mismatch");
        let locate = |id: EventId| -> Result<u32, PlanBuildError> {
            match (base.get(id.p()), base.get(id.p() + 1)) {
                (Some(&start), Some(&end)) if id.idx < end - start => Ok(start + id.idx),
                _ => Err(PlanBuildError::EventOutOfRange(id)),
            }
        };

        let mut p2p = CheckLane::with_capacity(messages.len());
        for m in messages {
            p2p.push(locate(m.send)?, locate(m.recv)?, lmin.l_min(m.from, m.to));
        }

        Ok(CensusPlan { base, p2p, coll })
    }

    /// [`build`](CensusPlan::build) against the shape of `cols`.
    pub fn for_columns(
        cols: &TraceColumns,
        messages: &[MessageMatch],
        instances: &[CollectiveInstance],
        lmin: &dyn MinLatency,
    ) -> Result<CensusPlan, PlanBuildError> {
        let lens: Vec<usize> = cols.iter().map(|c| c.len()).collect();
        CensusPlan::build(&lens, messages, instances, lmin)
    }

    /// Number of point-to-point checks (matched messages) in the plan.
    pub fn n_messages(&self) -> usize {
        self.p2p.len()
    }

    /// Number of collective instances in the plan.
    pub fn n_instances(&self) -> usize {
        self.coll.n_instances()
    }

    /// Heap bytes the plan holds, its collective table included.
    pub fn heap_bytes(&self) -> usize {
        4 * self.base.len() + self.p2p.len() * (4 + 4 + 8) + self.coll.heap_bytes()
    }

    /// The event at flat offset `at`.
    fn event_at(&self, at: u32) -> EventId {
        let p = self.base.partition_point(|&start| start <= at) - 1;
        EventId::new(p, (at - self.base[p]) as usize)
    }

    /// Borrow the flat gather array of `cols` — the slab itself. Zero
    /// copies: the kernels read the pipeline's live timestamp storage.
    ///
    /// # Panics
    /// Panics when `cols` does not have the shape the plan was built for —
    /// a mismatched layout would silently census the wrong events.
    pub fn flat_of<'a>(&self, cols: &'a TraceColumns) -> &'a [i64] {
        assert_eq!(cols.n_procs() + 1, self.base.len(), "plan/column timeline count mismatch");
        for (p, col) in cols.iter().enumerate() {
            let len = self.base[p + 1] - self.base[p];
            assert_eq!(col.len() as u32, len, "plan/column length mismatch on timeline {p}");
        }
        cols.flat()
    }

    /// Flatten an array-of-structs trace into the plan's gather layout
    /// (the AoS layout has no slab to borrow, so this one does copy).
    ///
    /// # Panics
    /// Panics on a shape mismatch, like [`flat_of`](CensusPlan::flat_of).
    pub fn flatten_trace(&self, trace: &Trace) -> Vec<i64> {
        assert_eq!(trace.procs.len() + 1, self.base.len(), "plan/trace timeline count mismatch");
        let mut ps = Vec::with_capacity(*self.base.last().expect("one base per timeline, plus the end") as usize);
        for (p, pt) in trace.procs.iter().enumerate() {
            let len = self.base[p + 1] - self.base[p];
            assert_eq!(pt.events.len() as u32, len, "plan/trace length mismatch on timeline {p}");
            ps.extend(pt.events.iter().map(|e| e.time.as_ps()));
        }
        ps
    }

    /// Point-to-point census over all planned messages. `times` is the
    /// flat timeline-major timestamp array
    /// ([`flat_of`](CensusPlan::flat_of)).
    pub fn p2p_census(&self, times: &[i64]) -> P2pReport {
        let hi = self.p2p.len();
        let mut report = P2pReport {
            total: hi,
            ..P2pReport::default()
        };
        let mut k = 0;
        while k < hi {
            let end = (k + CHUNK).min(hi);
            let (vmask, rmask) = lane_masks(&self.p2p, times, k, end);
            report.reversed += (vmask & rmask).count_ones() as usize;
            // Materialize violations in message order — only for chunks
            // that actually have any.
            let mut bits = vmask;
            while bits != 0 {
                let m = k + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (from, to) = (self.p2p.from[m], self.p2p.to[m]);
                report.violations.push(ViolatedMessage {
                    send: self.event_at(from),
                    recv: self.event_at(to),
                    measured_transfer: Time::from_ps(times[to as usize])
                        .saturating_since(Time::from_ps(times[from as usize])),
                    l_min: Dur::from_ps(self.p2p.bound[m]),
                });
            }
            k = end;
        }
        report
    }

    /// Collective census over all planned instances. `times` is the flat
    /// timeline-major timestamp array ([`flat_of`](CensusPlan::flat_of)).
    pub fn collective_census(&self, times: &[i64]) -> CollReport {
        let mut report = CollReport {
            instances: self.coll.n_instances(),
            ..CollReport::default()
        };
        let mut begins: Vec<i64> = Vec::new();
        let mut ends: Vec<i64> = Vec::new();
        for inst in self.coll.instances() {
            begins.clear();
            begins.extend(inst.begins.iter().map(|&g| times[g as usize]));
            ends.clear();
            ends.extend(inst.ends.iter().map(|&g| times[g as usize]));
            // A difference of two `i64`s overflows only when their signs
            // differ: only an instance with times on both sides of zero
            // takes the saturating form.
            let first = begins.first().copied().unwrap_or(0);
            let differ = |times: &[i64]| times.iter().fold(0, |acc, &t| acc | (t ^ first));
            let (total, violated, reversed) = if (differ(&begins) | differ(&ends)) < 0 {
                instance_tally::<true>(&inst, &begins, &ends)
            } else {
                instance_tally::<false>(&inst, &begins, &ends)
            };
            report.logical_total += total;
            report.logical_violated += violated;
            report.logical_reversed += reversed;
            report.instances_affected += usize::from(violated > 0);
        }
        report
    }
}

/// Logical-message counts of one collective instance. With `SATURATE` a
/// transfer is subtracted saturating, like the reference; without, wrapping
/// — the exact difference wherever none overflows, and the form the dense
/// loop vectorizes.
#[derive(Default)]
struct Tally<const SATURATE: bool> {
    total: usize,
    violated: usize,
    reversed: usize,
}

impl<const SATURATE: bool> Tally<SATURATE> {
    /// The logical messages between one fixed event and a run of others,
    /// `bounds[j]` being the `l_min` of the pair `(fixed, others[j])`:
    /// from `fixed` to each of `others` when `outgoing`, the other way
    /// round otherwise.
    #[inline]
    fn run(&mut self, fixed: i64, others: &[i64], bounds: &[i64], outgoing: bool) {
        self.total += others.len();
        for (&other, &bound) in others.iter().zip(bounds) {
            let (from, to) = if outgoing { (fixed, other) } else { (other, fixed) };
            let transfer = if SATURATE { to.saturating_sub(from) } else { to.wrapping_sub(from) };
            let violated = transfer < bound;
            self.violated += usize::from(violated);
            self.reversed += usize::from(violated & (transfer < 0));
        }
    }

    /// [`run`](Tally::run) over every member but those sharing the rank of
    /// member `x` (the member `fixed` belongs to) — the census's exclusion
    /// rule. With distinct ranks that is every position but `x`: two
    /// contiguous runs.
    #[inline]
    fn run_excluding_rank_of(
        &mut self,
        x: usize,
        block: &LatBlock,
        fixed: i64,
        others: &[i64],
        bounds: &[i64],
        outgoing: bool,
    ) {
        if block.ranks_distinct() {
            self.run(fixed, &others[..x], &bounds[..x], outgoing);
            self.run(fixed, &others[x + 1..], &bounds[x + 1..], outgoing);
        } else {
            let ranks = block.ranks();
            for j in (0..others.len()).filter(|&j| ranks[j] != ranks[x]) {
                self.run(fixed, &others[j..=j], &bounds[j..=j], outgoing);
            }
        }
    }
}

/// Census one instance from its gathered begin and end times (by member
/// position): the logical messages of the §V flavour mapping, as the
/// reference [`check_collectives_at`](crate::violation::check_collectives_at)
/// enumerates them. Returns `(total, violated, reversed)`.
fn instance_tally<const SATURATE: bool>(
    inst: &CollInstRef<'_>,
    begins: &[i64],
    ends: &[i64],
) -> (usize, usize, usize) {
    let block = inst.block;
    let mut tally = Tally::<SATURATE>::default();
    match (inst.flavor, inst.root_pos) {
        (CollFlavor::OneToN, Some(r)) => {
            tally.run_excluding_rank_of(r, block, begins[r], ends, block.from_member(r), true);
        }
        (CollFlavor::NToOne, Some(r)) => {
            tally.run_excluding_rank_of(r, block, ends[r], begins, block.to_member(r), false);
        }
        // A rooted instance whose root takes no part constrains nothing.
        (CollFlavor::OneToN | CollFlavor::NToOne, None) => {}
        (CollFlavor::NToN, _) => {
            for (a, &begin) in begins.iter().enumerate() {
                tally.run_excluding_rank_of(a, block, begin, ends, block.from_member(a), true);
            }
        }
        // Every lower member's begin against every higher member's end; no
        // rank exclusion.
        (CollFlavor::Prefix, _) => {
            for (a, &begin) in begins.iter().enumerate() {
                tally.run(begin, &ends[a + 1..], &block.from_member(a)[a + 1..], true);
            }
        }
    }
    (tally.total, tally.violated, tally.reversed)
}

/// Violation and reversal bitmasks for checks `lo..hi` of a lane
/// (`hi - lo <= 64`): bit `k - lo` of the first mask is set when check `k`
/// violates its bound, of the second when its transfer is negative.
fn lane_masks(lane: &CheckLane, times: &[i64], lo: usize, hi: usize) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: gated on runtime AVX2 detection.
            return unsafe { lane_masks_avx2(lane, times, lo, hi) };
        }
    }
    lane_masks_scalar(lane, times, lo, hi)
}

/// Branchless scalar mask kernel — the portable path and the reference the
/// AVX2 specialization must agree with.
fn lane_masks_scalar(lane: &CheckLane, times: &[i64], lo: usize, hi: usize) -> (u64, u64) {
    debug_assert!(hi - lo <= CHUNK);
    let mut vmask = 0u64;
    let mut rmask = 0u64;
    for (bit, k) in (lo..hi).enumerate() {
        let (from, to) = (times[lane.from[k] as usize], times[lane.to[k] as usize]);
        vmask |= u64::from(to.saturating_sub(from) < lane.bound[k]) << bit;
        rmask |= u64::from(from > to) << bit;
    }
    (vmask, rmask)
}

/// Is AVX2 available on this machine? Checked once, cached. Setting
/// `TRACEFMT_NO_AVX2` (to anything) forces the scalar path — the
/// differential tests use it to exercise both kernels on one host.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2")
            && std::env::var_os("TRACEFMT_NO_AVX2").is_none()
    })
}

/// AVX2 mask kernel: 4-lane `i64` gathers of both endpoints, packed
/// subtract and signed compares, mask bits collected via `movemask`.
/// Integer-only arithmetic — bit-identical to [`lane_masks_scalar`]: a
/// difference of two `i64`s overflows only when their signs differ, and a
/// chunk that has such a pair is handed to the scalar kernel, which
/// saturates.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_masks_avx2(lane: &CheckLane, times: &[i64], lo: usize, hi: usize) -> (u64, u64) {
    use std::arch::x86_64::*;
    debug_assert!(hi - lo <= CHUNK);
    let base = times.as_ptr();
    let mut vmask = 0u64;
    let mut rmask = 0u64;
    let mut signs_differ = _mm256_setzero_si256();
    let mut k = lo;
    let mut bit = 0u32;
    // SAFETY (both loops): every offset in the lane was validated against
    // the trace shape at plan build (which also capped the flat size at
    // `i32::MAX`, so the u32→i32 index reinterpretation is lossless), and
    // `flat_of` asserted the same shape on borrow, so all gather indices
    // are in bounds of `times`.
    //
    // Two independent 4-lane groups per iteration: the gathers are the
    // long-latency step, and interleaving two chains keeps more of them
    // in flight than out-of-order execution manages across iterations of
    // a 4-wide loop.
    while k + 8 <= hi {
        let idx_from0 = _mm_loadu_si128(lane.from.as_ptr().add(k).cast());
        let idx_to0 = _mm_loadu_si128(lane.to.as_ptr().add(k).cast());
        let idx_from1 = _mm_loadu_si128(lane.from.as_ptr().add(k + 4).cast());
        let idx_to1 = _mm_loadu_si128(lane.to.as_ptr().add(k + 4).cast());
        let t_from0 = _mm256_i32gather_epi64::<8>(base, idx_from0);
        let t_to0 = _mm256_i32gather_epi64::<8>(base, idx_to0);
        let t_from1 = _mm256_i32gather_epi64::<8>(base, idx_from1);
        let t_to1 = _mm256_i32gather_epi64::<8>(base, idx_to1);
        let bound0 = _mm256_loadu_si256(lane.bound.as_ptr().add(k).cast());
        let bound1 = _mm256_loadu_si256(lane.bound.as_ptr().add(k + 4).cast());
        let differ = _mm256_or_si256(_mm256_xor_si256(t_to0, t_from0), _mm256_xor_si256(t_to1, t_from1));
        signs_differ = _mm256_or_si256(signs_differ, differ);
        let transfer0 = _mm256_sub_epi64(t_to0, t_from0);
        let transfer1 = _mm256_sub_epi64(t_to1, t_from1);
        // transfer < bound  <=>  bound > transfer; reversed: from > to
        let viol0 = _mm256_cmpgt_epi64(bound0, transfer0);
        let viol1 = _mm256_cmpgt_epi64(bound1, transfer1);
        let rev0 = _mm256_cmpgt_epi64(t_from0, t_to0);
        let rev1 = _mm256_cmpgt_epi64(t_from1, t_to1);
        let v0 = _mm256_movemask_pd(_mm256_castsi256_pd(viol0)) as u64;
        let v1 = _mm256_movemask_pd(_mm256_castsi256_pd(viol1)) as u64;
        let r0 = _mm256_movemask_pd(_mm256_castsi256_pd(rev0)) as u64;
        let r1 = _mm256_movemask_pd(_mm256_castsi256_pd(rev1)) as u64;
        vmask |= (v0 | v1 << 4) << bit;
        rmask |= (r0 | r1 << 4) << bit;
        k += 8;
        bit += 8;
    }
    while k + 4 <= hi {
        let idx_from = _mm_loadu_si128(lane.from.as_ptr().add(k).cast());
        let idx_to = _mm_loadu_si128(lane.to.as_ptr().add(k).cast());
        let t_from = _mm256_i32gather_epi64::<8>(base, idx_from);
        let t_to = _mm256_i32gather_epi64::<8>(base, idx_to);
        let bound = _mm256_loadu_si256(lane.bound.as_ptr().add(k).cast());
        signs_differ = _mm256_or_si256(signs_differ, _mm256_xor_si256(t_to, t_from));
        let transfer = _mm256_sub_epi64(t_to, t_from);
        let viol = _mm256_cmpgt_epi64(bound, transfer);
        let rev = _mm256_cmpgt_epi64(t_from, t_to);
        let v = _mm256_movemask_pd(_mm256_castsi256_pd(viol)) as u64;
        let r = _mm256_movemask_pd(_mm256_castsi256_pd(rev)) as u64;
        vmask |= v << bit;
        rmask |= r << bit;
        k += 4;
        bit += 4;
    }
    if _mm256_movemask_pd(_mm256_castsi256_pd(signs_differ)) != 0 {
        return lane_masks_scalar(lane, times, lo, hi);
    }
    for k in k..hi {
        let (from, to) = (times[lane.from[k] as usize], times[lane.to[k] as usize]);
        vmask |= u64::from(to.saturating_sub(from) < lane.bound[k]) << bit;
        rmask |= u64::from(from > to) << bit;
        bit += 1;
    }
    (vmask, rmask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{match_collectives, match_messages};
    use crate::event::{CollOp, EventKind};
    use crate::ids::{CommId, Rank, Tag};
    use crate::violation::{check_collectives_at, check_p2p_messages_at, UniformLatency};
    use simclock::Time;

    /// A trace with a spread of fine, sub-latency, and reversed messages
    /// plus rooted and unrooted collectives.
    fn mixed_trace(ranks: usize, rounds: i64) -> Trace {
        let mut t = Trace::for_ranks(ranks);
        for k in 0..rounds {
            let from = (k % ranks as i64) as usize;
            let to = ((k + 1) % ranks as i64) as usize;
            let skew = (k % 7) * 3 - 9; // some negative transfers
            t.procs[from].push(
                Time::from_us(100 * k),
                EventKind::Send { to: Rank(to as u32), tag: Tag(k as u32), bytes: 8 },
            );
            t.procs[to].push(
                Time::from_us(100 * k + skew),
                EventKind::Recv { from: Rank(from as u32), tag: Tag(k as u32), bytes: 8 },
            );
            if k % 5 == 0 {
                let (op, root) = match k % 3 {
                    0 => (CollOp::Bcast, Some(Rank((k % ranks as i64) as u32))),
                    1 => (CollOp::Reduce, Some(Rank(0))),
                    _ => (CollOp::Barrier, None),
                };
                for p in 0..ranks {
                    let jitter = ((p as i64 + k) % 5) * 4 - 8;
                    t.procs[p].push(
                        Time::from_us(100 * k + 20 + jitter),
                        EventKind::CollBegin { op, comm: CommId::WORLD, root, bytes: 8 },
                    );
                    t.procs[p].push(
                        Time::from_us(100 * k + 30 - jitter),
                        EventKind::CollEnd { op, comm: CommId::WORLD, root, bytes: 8 },
                    );
                }
            }
        }
        t
    }

    fn lens(t: &Trace) -> Vec<usize> {
        t.procs.iter().map(|p| p.events.len()).collect()
    }

    #[test]
    fn p2p_census_is_bit_identical_to_reference() {
        let t = mixed_trace(4, 200);
        let m = match_messages(&t);
        let lmin = UniformLatency(Dur::from_us(4));
        let plan = CensusPlan::build(&lens(&t), &m.messages, &[], &lmin).unwrap();
        let cols = TraceColumns::gather(&t);
        let flat = plan.flat_of(&cols);
        let got = plan.p2p_census(flat);
        let want = check_p2p_messages_at(&cols, &m.messages, &lmin);
        assert_eq!(got.total, want.total);
        assert_eq!(got.reversed, want.reversed);
        assert_eq!(got.violations.len(), want.violations.len());
        assert!(!want.violations.is_empty(), "test trace should violate");
        for (a, b) in got.violations.iter().zip(&want.violations) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn collective_census_is_bit_identical_to_reference() {
        let t = mixed_trace(5, 200);
        let insts = match_collectives(&t).unwrap();
        let lmin = UniformLatency(Dur::from_us(3));
        let plan = CensusPlan::build(&lens(&t), &[], &insts, &lmin).unwrap();
        let cols = TraceColumns::gather(&t);
        let flat = plan.flat_of(&cols);
        let got = plan.collective_census(flat);
        let want = check_collectives_at(&cols, &insts, &lmin);
        assert_eq!(got.instances, want.instances);
        assert_eq!(got.logical_total, want.logical_total);
        assert_eq!(got.logical_violated, want.logical_violated);
        assert_eq!(got.logical_reversed, want.logical_reversed);
        assert_eq!(got.instances_affected, want.instances_affected);
        assert!(want.logical_violated > 0, "test trace should violate");
    }

    #[test]
    fn scalar_and_simd_masks_agree() {
        // Force comparison irrespective of what lane_masks dispatches to.
        let t = mixed_trace(4, 130);
        let m = match_messages(&t);
        let lmin = UniformLatency(Dur::from_us(4));
        let plan = CensusPlan::build(&lens(&t), &m.messages, &[], &lmin).unwrap();
        let cols = TraceColumns::gather(&t);
        let times = plan.flat_of(&cols);
        let n = plan.p2p.len();
        let mut lo = 0;
        while lo < n {
            // Odd chunk ends exercise the SIMD tail path.
            let hi = (lo + 61).min(n);
            let scalar = lane_masks_scalar(&plan.p2p, times, lo, hi);
            let dispatched = lane_masks(&plan.p2p, times, lo, hi);
            assert_eq!(scalar, dispatched);
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                let simd = unsafe { lane_masks_avx2(&plan.p2p, times, lo, hi) };
                assert_eq!(scalar, simd);
            }
            lo = hi;
        }
    }

    /// Every ordered pair of timestamps at and near both `i64` edges is a
    /// check, under bounds from zero to `i64::MAX`: transfers past the range
    /// either way. The scalar kernel, the AVX2 kernel (body, 4-wide step and
    /// tail: chunks of 61) and the dispatched one count what exact `i128`
    /// arithmetic counts.
    #[test]
    fn masks_at_the_i64_edges_equal_an_i128_oracle() {
        let times = [
            i64::MIN, i64::MIN + 1, i64::MIN + 4_000_000, -1, 0, 1,
            i64::MAX - 4_000_000, i64::MAX - 1, i64::MAX,
        ];
        let mut lane = CheckLane::default();
        for from in 0..times.len() as u32 {
            for to in 0..times.len() as u32 {
                for bound in [-5, 0, 1, 4_000_000, i64::MAX] {
                    lane.push(from, to, Dur::from_ps(bound));
                }
            }
        }
        let (n, mut lo) = (lane.len(), 0);
        while lo < n {
            let hi = (lo + 61).min(n);
            let mut want = (0u64, 0u64);
            for (bit, k) in (lo..hi).enumerate() {
                let (from, to) = (times[lane.from[k] as usize], times[lane.to[k] as usize]);
                let transfer = i128::from(to) - i128::from(from);
                want.0 |= u64::from(transfer < i128::from(lane.bound[k])) << bit;
                want.1 |= u64::from(transfer < 0) << bit;
            }
            assert_eq!(lane_masks_scalar(&lane, &times, lo, hi), want, "scalar, checks {lo}..{hi}");
            assert_eq!(lane_masks(&lane, &times, lo, hi), want, "dispatched, checks {lo}..{hi}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: gated on runtime AVX2 detection; every index is
                // below `times.len()`.
                let simd = unsafe { lane_masks_avx2(&lane, &times, lo, hi) };
                assert_eq!(simd, want, "AVX2, checks {lo}..{hi}");
            }
            lo = hi;
        }
    }

    #[test]
    fn flatten_trace_matches_slab_layout() {
        let t = mixed_trace(3, 40);
        let m = match_messages(&t);
        let lmin = UniformLatency(Dur::from_us(2));
        let plan = CensusPlan::build(&lens(&t), &m.messages, &[], &lmin).unwrap();
        let cols = TraceColumns::gather(&t);
        assert_eq!(plan.flat_of(&cols), plan.flatten_trace(&t).as_slice());
    }

    #[test]
    fn out_of_range_event_is_rejected() {
        let t = mixed_trace(2, 10);
        let mut m = match_messages(&t);
        m.messages[0].recv = EventId::new(1, 10_000);
        let err = CensusPlan::build(&lens(&t), &m.messages, &[], &UniformLatency(Dur::ZERO))
            .unwrap_err();
        assert_eq!(err, PlanBuildError::EventOutOfRange(EventId::new(1, 10_000)));
        let mut m2 = match_messages(&t);
        m2.messages[0].send = EventId::new(7, 0);
        assert!(CensusPlan::build(&lens(&t), &m2.messages, &[], &UniformLatency(Dur::ZERO))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn flat_of_shape_mismatch_panics() {
        let t = mixed_trace(2, 10);
        let plan = CensusPlan::build(&lens(&t), &[], &[], &UniformLatency(Dur::ZERO)).unwrap();
        let mut shorter = t.clone();
        shorter.procs[0].events.pop();
        plan.flat_of(&TraceColumns::gather(&shorter));
    }
}
