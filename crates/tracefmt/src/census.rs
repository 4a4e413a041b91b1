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
//! * matched messages are frozen into a [`MessageTable`] — send and
//!   receive offsets and `l_min` as three dense lanes, 16 bytes per
//!   message — which the CLC's dependency graph of the same job reads as
//!   its message edges ([`CensusPlan::with_tables`] shares it, and the
//!   collective table, by `Arc`: a plan beside a graph adds 4 bytes per
//!   timeline);
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
//!
//! An N-to-N instance whose latency block is classed
//! ([`BlockClasses`]) is bounded before it is walked: per end class `b`,
//! `max_a (latest begin of class a + lat(a, b))`, summed with `checked_add`.
//! An end at or above that threshold is at least `l_min` after every begin,
//! so it can be neither violated nor reversed and its row only adds to the
//! total. The other rows, a class whose threshold overflows, and every
//! unclassed instance run the dense loop. A corrected trace clears every
//! threshold: the census after the CLC reads `2k` times and `classes²`
//! latencies per instance instead of `k²` pairs.

use crate::analysis::{CollectiveInstance, MessageMatch};
use crate::coll::{BlockClasses, CollInstRef, CollTable, LatBlock, MAX_CLASSES};
use crate::column::TraceColumns;
use crate::event::CollFlavor;
use crate::ids::EventId;
use crate::violation::{CollReport, MinLatency, P2pReport, ViolatedMessage};
use simclock::{Dur, Time};
use std::fmt;
use std::sync::Arc;

/// Width of one census chunk: one `u64` violation bitmask per chunk.
const CHUNK: usize = 64;

/// Why an analysis could not be lowered for a trace shape: an event
/// coordinate referred to a timeline the trace does not have or an event
/// index past the end of its timeline, one event was claimed twice, or the
/// trace is too large to address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanBuildError {
    /// The offending event id.
    EventOutOfRange(EventId),
    /// An event that two collective members list as their begin or end, or
    /// that a dependency graph's lowering finds claimed twice by its
    /// messages and members: an event opens or closes one call or message.
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
                write!(f, "event {id} is claimed by two collective members or messages")
            }
            PlanBuildError::TraceTooLarge => {
                write!(f, "trace exceeds the plan's 2^31-event addressing limit")
            }
        }
    }
}

impl std::error::Error for PlanBuildError {}

/// The prefix sums of a trace shape's timeline lengths: timeline `p`'s
/// events sit at `base[p]..base[p + 1]` of the flat array, event `i` of it
/// at gid `base[p] + i`. The flat size must fit the `u32` gids every
/// lowering uses.
pub fn bases(timeline_lens: &[usize]) -> Result<Vec<u32>, PlanBuildError> {
    let mut base = Vec::with_capacity(timeline_lens.len() + 1);
    let mut end = 0u32;
    base.push(0);
    for &len in timeline_lens {
        end = u32::try_from(len).ok().and_then(|len| end.checked_add(len)).ok_or(PlanBuildError::TraceTooLarge)?;
        base.push(end);
    }
    Ok(base)
}

/// The flat offset of `id` in a shape given by its [`bases`].
pub(crate) fn locate(base: &[u32], id: EventId) -> Result<u32, PlanBuildError> {
    match (base.get(id.p()), base.get(id.p() + 1)) {
        (Some(&start), Some(&end)) if id.idx < end - start => Ok(start + id.idx),
        _ => Err(PlanBuildError::EventOutOfRange(id)),
    }
}

/// The event at flat offset `gid` in a shape given by its [`bases`].
pub fn event_at(base: &[u32], gid: u32) -> EventId {
    let p = base.partition_point(|&start| start <= gid) - 1;
    EventId::new(p, (gid - base[p]) as usize)
}

/// The matched messages of one trace, frozen once per job for both of
/// their consumers: the census checks message `m` (`transfer =
/// flat[recv[m]] - flat[send[m]]` must be `>= lat[m]`), and the CLC's
/// dependency graph walks it as the receive's in-edge `(send[m], lat[m])`
/// and the send's out-edge `(recv[m], lat[m])`. Struct of arrays in
/// matching order, 16 bytes per message: the gids (flat offsets) of the
/// send and the receive, and `l_min` in picoseconds. Shared by `Arc`, like
/// the [`CollTable`].
///
/// Every gid is inside the shape the table was built for, so a census
/// gathers through it unchecked. The census subtraction saturates: two
/// timelines at opposite `i64` edges are a transfer past the range, not a
/// wrapped one, and `transfer < bound` is decided exactly for every bound
/// above `i64::MIN`.
///
/// Offsets are `u32` deliberately: the sequential lane streams are half
/// the width of the random gather traffic they drive, and the AVX2 path
/// gets the cheaper `i32`-index gather form (a plan refuses shapes past
/// `i32::MAX` events, so the signed reinterpretation is lossless).
#[derive(Debug, Clone, Default)]
pub struct MessageTable {
    /// Events of the trace shape the table was built for.
    n_events: u32,
    send: Vec<u32>,
    recv: Vec<u32>,
    lat: Vec<i64>,
}

impl MessageTable {
    /// Freeze `messages` for a trace shape given as per-timeline event
    /// counts; `lmin` is evaluated once per message.
    pub fn build(
        timeline_lens: &[usize],
        messages: &[MessageMatch],
        lmin: &dyn MinLatency,
    ) -> Result<MessageTable, PlanBuildError> {
        let base = bases(timeline_lens)?;
        let n = messages.len();
        let (send, recv, lat) = (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
        let mut table = MessageTable::from_columns(*base.last().expect("an end"), send, recv, lat);
        for m in messages {
            table.push(locate(&base, m.send)?, locate(&base, m.recv)?, lmin.l_min(m.from, m.to));
        }
        Ok(table)
    }

    /// The table of columns written row by row, one row per message, for
    /// a shape of `n_events` events: every gid must lie inside it.
    pub(crate) fn from_columns(n_events: u32, send: Vec<u32>, recv: Vec<u32>, lat: Vec<i64>) -> MessageTable {
        debug_assert!(send.len() == recv.len() && recv.len() == lat.len(), "one row per message");
        debug_assert!(send.iter().chain(&recv).all(|&gid| gid < n_events), "gids inside the shape");
        MessageTable { n_events, send, recv, lat }
    }

    fn push(&mut self, send: u32, recv: u32, l_min: Dur) {
        self.send.push(send);
        self.recv.push(recv);
        self.lat.push(l_min.as_ps());
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.send.len()
    }

    /// Whether the trace matched no message.
    pub fn is_empty(&self) -> bool {
        self.send.is_empty()
    }

    /// Event count of the trace shape the table was built for.
    pub fn n_events(&self) -> usize {
        self.n_events as usize
    }

    /// The gid of every message's send, in matching order.
    #[inline]
    pub fn sends(&self) -> &[u32] {
        &self.send
    }

    /// The gid of every message's receive, in matching order.
    #[inline]
    pub fn recvs(&self) -> &[u32] {
        &self.recv
    }

    /// Every message's `l_min` in picoseconds, in matching order.
    #[inline]
    pub fn lats(&self) -> &[i64] {
        &self.lat
    }

    /// Heap bytes the table holds: 16 per message.
    pub fn heap_bytes(&self) -> usize {
        self.len() * (4 + 4 + 8)
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
    msgs: Arc<MessageTable>,
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
        let msgs = Arc::new(MessageTable::build(timeline_lens, messages, lmin)?);
        let coll = Arc::new(CollTable::build(timeline_lens, instances, lmin)?);
        CensusPlan::with_tables(timeline_lens, msgs, coll)
    }

    /// [`build`](CensusPlan::build) over already frozen tables — the ones a
    /// `DepGraph` of the same trace walks — so a job lowers its messages
    /// and its collectives once for both consumers.
    ///
    /// # Panics
    /// Panics when a table was built for a different event count.
    pub fn with_tables(
        timeline_lens: &[usize],
        msgs: Arc<MessageTable>,
        coll: Arc<CollTable>,
    ) -> Result<CensusPlan, PlanBuildError> {
        let base = bases(timeline_lens)?;
        let end = *base.last().expect("one base per timeline, plus the end");
        if end > i32::MAX as u32 {
            return Err(PlanBuildError::TraceTooLarge);
        }
        assert_eq!(msgs.n_events(), end as usize, "plan/message-table event count mismatch");
        assert_eq!(coll.n_events(), end as usize, "plan/collective-table event count mismatch");
        Ok(CensusPlan { base, msgs, coll })
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
        self.msgs.len()
    }

    /// Number of collective instances in the plan.
    pub fn n_instances(&self) -> usize {
        self.coll.n_instances()
    }

    /// Heap bytes the plan holds, its two tables included (a caller that
    /// shares them with a `DepGraph` counts them once).
    pub fn heap_bytes(&self) -> usize {
        4 * self.base.len() + self.msgs.heap_bytes() + self.coll.heap_bytes()
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

    /// Point-to-point census over all planned messages. `times` is the
    /// flat timeline-major timestamp array
    /// ([`flat_of`](CensusPlan::flat_of)).
    pub fn p2p_census(&self, times: &[i64]) -> P2pReport {
        let hi = self.msgs.len();
        let mut report = P2pReport {
            total: hi,
            ..P2pReport::default()
        };
        let mut k = 0;
        while k < hi {
            let end = (k + CHUNK).min(hi);
            let (vmask, rmask) = lane_masks(&self.msgs, times, k, end);
            report.reversed += (vmask & rmask).count_ones() as usize;
            // Materialize violations in message order — only for chunks
            // that actually have any.
            let mut bits = vmask;
            while bits != 0 {
                let m = k + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (from, to) = (self.msgs.send[m], self.msgs.recv[m]);
                report.violations.push(ViolatedMessage {
                    send: event_at(&self.base, from),
                    recv: event_at(&self.base, to),
                    measured_transfer: Time::from_ps(times[to as usize])
                        .saturating_since(Time::from_ps(times[from as usize])),
                    l_min: Dur::from_ps(self.msgs.lat[m]),
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

    /// An N-to-N instance over a classed block, end by end. Per end class
    /// `b` the threshold is `max_a (latest begin of class a) + lat(a, b)`,
    /// summed with `checked_add`: an end at or above it is at least `l_min`
    /// after every begin — in exact arithmetic, so the saturating and the
    /// wrapping transfer agree — and is neither violated nor reversed, so
    /// its row only counts. Every other end, and every end of a class whose
    /// threshold overflows, runs dense over the begins. Folding a member's
    /// own begin and a one-member class's diagonal entry into the
    /// threshold only raises it: a row it skips has no violation.
    fn n_to_n_classed(&mut self, block: &LatBlock, classes: &BlockClasses, begins: &[i64], ends: &[i64]) {
        let n = classes.n_classes();
        let mut latest = [i64::MIN; MAX_CLASSES];
        for (a, &begin) in begins.iter().enumerate() {
            let c = classes.of(a);
            latest[c] = latest[c].max(begin);
        }
        // Every class has a member, so every `latest` is a begin.
        let mut threshold = [None; MAX_CLASSES];
        for (b, t) in threshold[..n].iter_mut().enumerate() {
            *t = (0..n).try_fold(i64::MIN, |acc, a| Some(acc.max(latest[a].checked_add(classes.lat(a, b))?)));
        }
        let ranks = block.ranks();
        for (j, &end) in ends.iter().enumerate() {
            match threshold[classes.of(j)] {
                Some(t) if end >= t => {
                    self.total += if block.ranks_distinct() {
                        begins.len() - 1
                    } else {
                        ranks.iter().filter(|&&r| r != ranks[j]).count()
                    };
                }
                _ => self.run_excluding_rank_of(j, block, end, begins, block.to_member(j), false),
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
        (CollFlavor::NToN, _) => match block.classes() {
            Some(classes) => tally.n_to_n_classed(block, classes, begins, ends),
            None => {
                for (a, &begin) in begins.iter().enumerate() {
                    tally.run_excluding_rank_of(a, block, begin, ends, block.from_member(a), true);
                }
            }
        },
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
fn lane_masks(lane: &MessageTable, times: &[i64], lo: usize, hi: usize) -> (u64, u64) {
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
fn lane_masks_scalar(lane: &MessageTable, times: &[i64], lo: usize, hi: usize) -> (u64, u64) {
    debug_assert!(hi - lo <= CHUNK);
    let mut vmask = 0u64;
    let mut rmask = 0u64;
    for (bit, k) in (lo..hi).enumerate() {
        let (from, to) = (times[lane.send[k] as usize], times[lane.recv[k] as usize]);
        vmask |= u64::from(to.saturating_sub(from) < lane.lat[k]) << bit;
        rmask |= u64::from(from > to) << bit;
    }
    (vmask, rmask)
}

/// Is AVX2 available on this machine? Checked once, cached. The unit
/// tests below hold both kernels to an `i128` oracle on one host.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// AVX2 mask kernel: 4-lane `i64` gathers of both endpoints, packed
/// subtract and signed compares, mask bits collected via `movemask`.
/// Integer-only arithmetic — bit-identical to [`lane_masks_scalar`]: a
/// difference of two `i64`s overflows only when their signs differ, and a
/// chunk that has such a pair is handed to the scalar kernel, which
/// saturates.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_masks_avx2(lane: &MessageTable, times: &[i64], lo: usize, hi: usize) -> (u64, u64) {
    use std::arch::x86_64::*;
    debug_assert!(hi - lo <= CHUNK);
    // The SAFETY claim below, checked where it is made in debug builds:
    // the lane loads stay in the lane, the gathers in `times`.
    debug_assert!(hi <= lane.send.len() && hi <= lane.recv.len() && hi <= lane.lat.len());
    debug_assert!((lo..hi).all(|k| {
        (lane.send[k] as usize) < times.len() && (lane.recv[k] as usize) < times.len()
    }));
    let base = times.as_ptr();
    let mut vmask = 0u64;
    let mut rmask = 0u64;
    let mut signs_differ = _mm256_setzero_si256();
    let mut k = lo;
    let mut bit = 0u32;
    // SAFETY (both loops): every offset in the table was validated against
    // its trace shape when the table was built, the plan asserted that
    // shape and capped the flat size at `i32::MAX` (so the u32→i32 index
    // reinterpretation is lossless), and `flat_of` asserted the same shape
    // on borrow, so all gather indices are in bounds of `times`.
    //
    // Two independent 4-lane groups per iteration: the gathers are the
    // long-latency step, and interleaving two chains keeps more of them
    // in flight than out-of-order execution manages across iterations of
    // a 4-wide loop.
    while k + 8 <= hi {
        let idx_from0 = _mm_loadu_si128(lane.send.as_ptr().add(k).cast());
        let idx_to0 = _mm_loadu_si128(lane.recv.as_ptr().add(k).cast());
        let idx_from1 = _mm_loadu_si128(lane.send.as_ptr().add(k + 4).cast());
        let idx_to1 = _mm_loadu_si128(lane.recv.as_ptr().add(k + 4).cast());
        let t_from0 = _mm256_i32gather_epi64::<8>(base, idx_from0);
        let t_to0 = _mm256_i32gather_epi64::<8>(base, idx_to0);
        let t_from1 = _mm256_i32gather_epi64::<8>(base, idx_from1);
        let t_to1 = _mm256_i32gather_epi64::<8>(base, idx_to1);
        let bound0 = _mm256_loadu_si256(lane.lat.as_ptr().add(k).cast());
        let bound1 = _mm256_loadu_si256(lane.lat.as_ptr().add(k + 4).cast());
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
        let idx_from = _mm_loadu_si128(lane.send.as_ptr().add(k).cast());
        let idx_to = _mm_loadu_si128(lane.recv.as_ptr().add(k).cast());
        let t_from = _mm256_i32gather_epi64::<8>(base, idx_from);
        let t_to = _mm256_i32gather_epi64::<8>(base, idx_to);
        let bound = _mm256_loadu_si256(lane.lat.as_ptr().add(k).cast());
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
        let (from, to) = (times[lane.send[k] as usize], times[lane.recv[k] as usize]);
        vmask |= u64::from(to.saturating_sub(from) < lane.lat[k]) << bit;
        rmask |= u64::from(from > to) << bit;
        bit += 1;
    }
    (vmask, rmask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{match_collectives, match_messages, CollMember};
    use crate::event::{CollOp, EventKind};
    use crate::ids::{CommId, Rank, Tag};
    use crate::trace::Trace;
    use crate::violation::{check_collectives_at, check_p2p_messages_at, UniformLatency};
    use proptest::prelude::*;
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

    /// One N-to-N instance per round, member `p` on timeline `p` with rank
    /// `ranks[p]`, its begin and end at the round's times.
    fn barrier_rounds(ranks: &[u32], rounds: &[(Vec<i64>, Vec<i64>)]) -> (Trace, Vec<CollectiveInstance>) {
        let mut t = Trace::for_ranks(ranks.len());
        let mut insts = Vec::new();
        let (op, comm) = (CollOp::Barrier, CommId::WORLD);
        for (begins, ends) in rounds {
            let mut members = Vec::new();
            for (p, (&b, &e)) in begins.iter().zip(ends).enumerate() {
                let at = t.procs[p].events.len();
                t.procs[p].push(Time::from_ps(b), EventKind::CollBegin { op, comm, root: None, bytes: 8 });
                t.procs[p].push(Time::from_ps(e), EventKind::CollEnd { op, comm, root: None, bytes: 8 });
                members.push(CollMember {
                    rank: Rank(ranks[p]),
                    begin: EventId::new(p, at),
                    end: EventId::new(p, at + 1),
                });
            }
            insts.push(CollectiveInstance { op, comm, root: None, members });
        }
        (t, insts)
    }

    /// The plan's census of `rounds` against the reference, field by
    /// field; returns the report and whether the block was classed.
    fn census_against_reference(
        ranks: &[u32],
        rounds: &[(Vec<i64>, Vec<i64>)],
        lmin: &dyn MinLatency,
    ) -> (CollReport, bool) {
        let (t, insts) = barrier_rounds(ranks, rounds);
        let plan = CensusPlan::build(&lens(&t), &[], &insts, lmin).unwrap();
        let cols = TraceColumns::gather(&t);
        let got = plan.collective_census(plan.flat_of(&cols));
        let want = check_collectives_at(&cols, &insts, lmin);
        let ctx = format!("ranks {ranks:?}");
        assert_eq!(got.instances, want.instances, "{ctx}");
        assert_eq!(got.logical_total, want.logical_total, "{ctx}");
        assert_eq!(got.logical_violated, want.logical_violated, "{ctx}");
        assert_eq!(got.logical_reversed, want.logical_reversed, "{ctx}");
        assert_eq!(got.instances_affected, want.instances_affected, "{ctx}");
        let classed = plan.coll.instances().all(|inst| inst.block.classes().is_some());
        (got, classed)
    }

    /// Ranks on nodes of two, nodes under switches of four; between
    /// switches the latency depends on the direction.
    fn switch_tree(from: Rank, to: Rank) -> Dur {
        let (a, b) = (from.0, to.0);
        Dur::from_us(match (a / 2 == b / 2, a / 4 == b / 4) {
            (true, _) => 25,
            (_, true) => 50,
            _ => 90 + i64::from(a / 4 > b / 4),
        })
    }

    /// The class-bounded N-to-N census against the reference walk: uniform
    /// and switch-tree classes, distinct and duplicated ranks, rounds
    /// fine, violated and reversed, and times at the `i64` edges, where
    /// the threshold's `checked_add` overflows and every row runs dense.
    #[test]
    fn classed_n_to_n_census_equals_the_reference() {
        let uniform = UniformLatency(Dur::from_us(40));
        let lmins: [&dyn MinLatency; 2] = [&uniform, &switch_tree];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |span: i64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as i64 % span
        };
        let mut rounds: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        for round in 0..40i64 {
            let at = round * 1_000_000_000;
            // Up to 100 µs of begin skew against ends 0–160 µs after the
            // latest begin: some rows clear every bound, some do not.
            let begins: Vec<i64> = (0..8).map(|_| at + next(100_000_000)).collect();
            let latest = *begins.iter().max().unwrap();
            let ends = (0..8).map(|_| latest + next(160_000_000) - 60_000_000).collect();
            rounds.push((begins, ends));
        }
        rounds.push((vec![i64::MAX - 5; 8], vec![i64::MAX; 8]));
        rounds.push((vec![i64::MAX - 100_000_000; 8], vec![i64::MAX - 30_000_000; 8]));
        rounds.push((vec![i64::MIN; 8], vec![i64::MAX; 8]));
        rounds.push((vec![i64::MAX; 8], vec![i64::MIN; 8]));
        for lmin in lmins {
            for ranks in [[0, 1, 2, 3, 4, 5, 6, 7], [0, 0, 1, 1, 2, 2, 3, 3], [3, 1, 3, 0, 2, 2, 7, 1]] {
                let (report, classed) = census_against_reference(&ranks, &rounds, lmin);
                assert!(classed, "ranks {ranks:?}: the block must be classed");
                assert!(report.logical_violated > 0 && report.logical_reversed > 0, "ranks {ranks:?}");
            }
        }
    }

    /// An end exactly at its class threshold is clear of every begin; one
    /// picosecond under it, it violates the one latest begin.
    #[test]
    fn an_end_at_the_class_threshold_is_clear_and_one_ps_under_is_not() {
        let lmin = UniformLatency(Dur::from_us(3));
        let bound = 100_000_000 + 3_000_000;
        for (end, violated) in [(bound, 0), (bound - 1, 1)] {
            let begins = vec![0, 100_000_000, 50, 7];
            let ends = vec![bound + 9, bound + 9, end, bound];
            let (report, classed) = census_against_reference(&[0, 1, 2, 3], &[(begins, ends)], &lmin);
            assert!(classed);
            assert_eq!((report.logical_total, report.logical_violated), (12, violated), "end {end}");
        }
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
        let n = plan.msgs.len();
        let mut lo = 0;
        while lo < n {
            // Odd chunk ends exercise the SIMD tail path.
            let hi = (lo + 61).min(n);
            let scalar = lane_masks_scalar(&plan.msgs, times, lo, hi);
            let dispatched = lane_masks(&plan.msgs, times, lo, hi);
            assert_eq!(scalar, dispatched);
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                let simd = unsafe { lane_masks_avx2(&plan.msgs, times, lo, hi) };
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
        let mut lane = MessageTable::default();
        for from in 0..times.len() as u32 {
            for to in 0..times.len() as u32 {
                for bound in [-5, 0, 1, 4_000_000, i64::MAX] {
                    lane.push(from, to, Dur::from_ps(bound));
                }
            }
        }
        assert_masks_equal_i128(&lane, &times, 61);
    }

    /// Cut `lane` into chunks of `width` checks and hold the scalar, the
    /// dispatched and — where the CPU has it — the AVX2 kernel to exact
    /// `i128` arithmetic on each.
    fn assert_masks_equal_i128(lane: &MessageTable, times: &[i64], width: usize) {
        let (n, mut lo) = (lane.len(), 0);
        while lo < n {
            let hi = (lo + width).min(n);
            let mut want = (0u64, 0u64);
            for (bit, k) in (lo..hi).enumerate() {
                let (from, to) = (times[lane.send[k] as usize], times[lane.recv[k] as usize]);
                let transfer = i128::from(to) - i128::from(from);
                want.0 |= u64::from(transfer < i128::from(lane.lat[k])) << bit;
                want.1 |= u64::from(transfer < 0) << bit;
            }
            assert_eq!(lane_masks_scalar(lane, times, lo, hi), want, "scalar, checks {lo}..{hi}");
            assert_eq!(lane_masks(lane, times, lo, hi), want, "dispatched, checks {lo}..{hi}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: gated on runtime AVX2 detection; every index is
                // below `times.len()`.
                let simd = unsafe { lane_masks_avx2(lane, times, lo, hi) };
                assert_eq!(simd, want, "AVX2, checks {lo}..{hi}");
            }
            lo = hi;
        }
    }

    /// A value `offset` from zero (`side` 0), from `i64::MIN` (1) or from
    /// `i64::MAX` (2).
    fn near(side: u8, offset: i64) -> i64 {
        match side {
            0 => offset,
            1 => i64::MIN + offset.abs(),
            _ => i64::MAX - offset.abs(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lanes of 1–300 checks, so every tail length occurs, over
        /// times near zero and near both `i64` edges, with bounds from
        /// negative through wide to `i64::MAX` and at the transfer itself
        /// (every bound above `i64::MIN`), cut into chunks of 1–64.
        #[test]
        fn masks_on_random_lanes_equal_an_i128_oracle(
            times in prop::collection::vec((0u8..3, -5_000_000i64..5_000_000), 1..16),
            checks in prop::collection::vec(
                (0usize..1 << 16, 0usize..1 << 16, 0u8..4, -5_000_000i64..5_000_000),
                1..301,
            ),
            width in 1usize..65,
        ) {
            let times: Vec<i64> = times.into_iter().map(|(side, offset)| near(side, offset)).collect();
            let mut lane = MessageTable::default();
            for (from, to, kind, offset) in checks {
                let (from, to) = ((from % times.len()) as u32, (to % times.len()) as u32);
                let bound = match kind {
                    0 => offset,
                    1 => offset.saturating_mul(1 << 40),
                    2 => i64::MAX - offset.abs(),
                    // At the check's own transfer, or one either side —
                    // above `i64::MIN`, where a saturated transfer decides
                    // `transfer < bound` exactly.
                    _ => times[to as usize].saturating_sub(times[from as usize]).saturating_add(offset % 2).max(i64::MIN + 1),
                };
                lane.push(from, to, Dur::from_ps(bound));
            }
            assert_masks_equal_i128(&lane, &times, width);
        }
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
