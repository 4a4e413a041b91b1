//! Incremental windowed CLC: stream corrected timestamps out with bounded
//! resident column memory (DESIGN §15).
//!
//! The batch pipeline gathers every timeline's full `i64` timestamp lane
//! before the CLC runs, so its resident set is O(trace). This engine
//! processes the stream in *epochs* over ring-buffer lanes instead:
//!
//! * the input chunks are indexed once ([`index_columnar_chunks`]) and
//!   re-read on demand through a zero-copy [`ChunkStore`]: each pass below
//!   decodes a timeline's input a block at a time onto a lane it retires
//!   behind its frontier; the trace is never materialized;
//! * one forward sweep crosses timelines, at most `window_events` per
//!   timeline and round-robin epoch (none while the producer its last step
//!   blocked on is pending), onto one ring per timeline; it marks the
//!   events it raises and records every jump (index, size, the time it left
//!   the event at); rings retire and resize in segments `window_events`
//!   wide but never wider than the timeline, so a window off the wire asks
//!   for no memory the input did not pay for;
//! * per-segment read counters (the *carry frontier*) retire a segment once
//!   no remote reader needs it: residency is O(window + dependency skew);
//! * with backward amortization, a second epoch loop *replays* each
//!   timeline's forward values F from its input and the recorded jumps (no
//!   remote read), at most one segment per epoch and only as far as
//!   something waits on; it applies the walks, each stopping before an
//!   event whose consumer is not replayed yet and resuming there, and
//!   advances a *safety frontier* `b` past events no remaining walk can
//!   reach, with a *finality frontier* behind it; F retires behind the
//!   least walked time any `b` has passed;
//! * final blocks are re-encoded by [`FrameWriter`], payload bytes
//!   verbatim, as self-contained chunks whose concatenation is a
//!   well-formed `DTC3` stream.
//!
//! # Bit-identity with the batch engine
//!
//! The arithmetic is the batch engine's own, all of
//! [`crate::clc::columnar`]: [`forward_step`], its [`candidate`],
//! [`backward_walk`] over a [`Walk`] and the [`Moved`] bits. This module
//! owns what differs: the schedule, the storage behind the [`Timeline`]
//! seam, and views walked for every collective end (no `CollPass`: an
//! aggregate would outlive retired segments). The forward pass is
//! confluent, so corrected timestamps, `max_jump`, `events_moved` and the
//! jump *set* are bit-identical for every window size; the report lists
//! jumps in (timeline, index) order, the batch report in discovery order.
//!
//! # Scope
//!
//! The violation censuses are skipped (whole-trace diagnostics: run the
//! batch pipeline for them). Matching, the dependency graph, the recorded
//! jumps and the moved bits stay O(trace) *structural* metadata (3.2 MB
//! for 200 000 events and 100 000 messages); the O(window) bound and its
//! gauge, [`PipelineStats::peak_resident_column_bytes`], cover the `i64`
//! timestamp lanes, which dominate at scale.

use super::{
    build_presync_maps, freeze_inputs, CancelToken, PipelineConfig, PipelineError, PipelineStats,
    PresyncMap, StageStats,
};
use crate::clc::columnar::{
    backward_walk, candidate, forward_step, latest_allowed, Marked, Moved, Timeline, Walk,
};
use crate::clc::graph::DepGraph;
use crate::clc::{ClcError, ClcParams, ClcReport, Jump};
use crate::offset::OffsetMeasurement;
use simclock::{Dur, Time};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracefmt::io::{decode_block_times, index_columnar_chunks, BlockMeta, ChunkStore, FrameWriter, StreamIndex};
use tracefmt::{Capture, EventId, Location, MinLatency, Rank};

/// Outcome of an incremental windowed run: what [`PipelineReport`] is to
/// the batch entry points, minus the censuses (see the module docs).
///
/// [`PipelineReport`]: super::PipelineReport
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// CLC statistics (None when the CLC stage was skipped). Jumps are in
    /// canonical (timeline, index) order.
    pub clc: Option<ClcReport>,
    /// Per-stage instrumentation; `peak_resident_column_bytes` is the
    /// lanes' true high-water mark.
    pub stats: PipelineStats,
    /// Block frames emitted (excluding the magic and trailer chunks).
    pub frames: usize,
    /// Events emitted across all frames.
    pub events: usize,
}

impl IncrementalReport {
    /// View this report in the batch [`PipelineReport`] shape, for callers
    /// (like the `syncd` service) that carry one report type for every job
    /// mode. The censuses are **empty placeholders** — the incremental
    /// engine never runs them (see the module docs) — so `raw`,
    /// `after_presync` and `after_clc` report zero messages inspected, not
    /// zero violations found.
    ///
    /// [`PipelineReport`]: super::PipelineReport
    pub fn to_pipeline_report(&self) -> super::PipelineReport {
        super::PipelineReport {
            raw: Default::default(),
            after_presync: Default::default(),
            after_clc: self.clc.is_some().then(Default::default),
            clc: self.clc.clone(),
            stats: self.stats.clone(),
        }
    }
}

/// High-water gauge over the lanes' ring allocations, shared by every lane
/// of a run (a job is single-threaded: plain cells).
#[derive(Default)]
struct MemGauge {
    cur: Cell<u64>,
    peak: Cell<u64>,
}

impl MemGauge {
    fn alloc(&self, bytes: u64) {
        self.cur.set(self.cur.get() + bytes);
        self.peak.set(self.peak.get().max(self.cur.get()));
    }

    fn free(&self, bytes: u64) {
        self.cur.set(self.cur.get() - bytes);
    }
}

/// An append-only `i64` lane over one ring buffer whose head retires `w`
/// values (a segment) at a time once no frontier needs them. Indices are
/// *logical*; a resident one maps to its slot by one conditional subtract.
/// Reading a retired index is a bug caught by the debug asserts. The
/// capacity, which the gauge counts, is whole segments: a full ring grows
/// to what its span needs plus 1/32 of the old capacity, and gives freed
/// segments back once more than 1/16 of it is free (DESIGN §15.2). A lane
/// other timelines read from also counts the reads each resident segment
/// still owes: `reads[(i − head) / w]`.
struct Lane<'m> {
    mem: &'m MemGauge,
    w: u64,
    /// The slots; its length is the capacity.
    ring: Vec<i64>,
    /// Logical index of the oldest resident value, a multiple of `w`…
    head: u64,
    /// …and its slot.
    at: usize,
    reads: VecDeque<i64>,
    /// Logical length: total values ever pushed.
    len: u64,
}

impl<'m> Lane<'m> {
    /// One lane per timeline of the stream, its segments `window` values
    /// wide but never wider than its own timeline: the window comes off the
    /// wire, the lengths from bytes the caller sent, so an absurd window
    /// allocates nothing the input did not pay for.
    fn per_timeline(index: &StreamIndex, window: usize, mem: &'m MemGauge) -> Vec<Lane<'m>> {
        let lane = |&len: &u64| Lane::new(mem, (window as u64).min(len.max(1)));
        index.proc_lens.iter().map(lane).collect()
    }

    /// An empty lane of segments `w` values wide.
    fn new(mem: &'m MemGauge, w: u64) -> Lane<'m> {
        Lane { mem, w, ring: Vec::new(), head: 0, at: 0, reads: VecDeque::new(), len: 0 }
    }

    /// The slot of resident index `i`.
    #[inline(always)]
    fn slot(&self, i: u64) -> usize {
        let s = self.at + (i - self.head) as usize;
        if s >= self.ring.len() {
            s - self.ring.len()
        } else {
            s
        }
    }

    #[inline(always)]
    fn push(&mut self, v: i64) {
        if self.len - self.head == self.ring.len() as u64 {
            self.grow(1);
        }
        let s = self.slot(self.len);
        self.ring[s] = v;
        self.len += 1;
    }

    /// Push `n` values at once: the (at most two) pieces of ring the caller
    /// fills, in index order.
    #[inline(always)]
    fn push_slices(&mut self, n: u64) -> (&mut [i64], &mut [i64]) {
        if self.len + n - self.head > self.ring.len() as u64 {
            self.grow(n);
        }
        let (at, n) = (self.slot(self.len), n as usize);
        let first = n.min(self.ring.len() - at);
        self.len += n as u64;
        let (wrapped, tail) = self.ring.split_at_mut(at);
        (&mut tail[..first], &mut wrapped[..n - first])
    }

    /// Resident values `lo..hi`, in index order, as at most two slices.
    #[inline(always)]
    fn slices(&self, lo: u64, hi: u64) -> (&[i64], &[i64]) {
        debug_assert!(self.head <= lo && lo <= hi && hi <= self.len, "slice of a non-resident run");
        let (at, n) = (self.slot(lo), (hi - lo) as usize);
        let (wrapped, tail) = self.ring.split_at(at);
        let first = n.min(tail.len());
        (&tail[..first], &wrapped[..n - first])
    }

    /// The first index of resident `lo..hi` whose value is above `bound`,
    /// or `hi`: one find-first over each of the (at most two) slices.
    #[inline(always)]
    fn first_above(&self, lo: u64, hi: u64, bound: i64) -> u64 {
        let (a, b) = self.slices(lo, hi);
        let above = |run: &[i64]| run.iter().position(|&v| v > bound);
        let n = above(a).or_else(|| above(b).map(|k| a.len() + k)).unwrap_or(a.len() + b.len());
        lo + n as u64
    }

    /// Make room for `n` more values (see the type's docs for the margin).
    #[cold]
    fn grow(&mut self, n: u64) {
        let segs = (self.len + n - self.head).div_ceil(self.w);
        self.resize(segs + self.ring.len() as u64 / self.w / 32);
    }

    /// Resize the ring to `segs` segments, the resident span rotated to
    /// its front in place: the one reallocation a lane makes when its span
    /// outgrows the ring or leaves enough of it free.
    #[inline(never)]
    fn resize(&mut self, segs: u64) {
        let (old, cap) = (self.ring.len(), (segs * self.w) as usize);
        self.ring.rotate_left(self.at);
        self.at = 0;
        self.ring.truncate(cap);
        self.ring.shrink_to_fit();
        self.ring.reserve_exact(cap - self.ring.len());
        self.ring.resize(cap, 0);
        self.mem.free(8 * old as u64);
        self.mem.alloc(8 * cap as u64);
    }

    /// Account `delta` pending reads of value `i`.
    #[inline]
    fn owe(&mut self, i: u64, delta: i64) {
        // A segment retires only after its last read, so a read accounted
        // to one that is gone means a segment went while still read: fail
        // loudly in every build rather than drop the read.
        let Some(at) = i.checked_sub(self.head) else {
            panic!("read accounted to a retired segment");
        };
        let at = (at / self.w) as usize;
        if at >= self.reads.len() {
            self.reads.resize(at + 1, 0);
        }
        self.reads[at] += delta;
    }

    /// Retire head segments wholly below `upto` that owe no read, and give
    /// back the freed capacity (see the type's docs for the margin).
    #[inline(always)]
    fn retire(&mut self, upto: u64) {
        debug_assert!(upto <= self.len, "retirement past the lane's end");
        let mut head = self.head;
        while head + self.w <= upto && self.reads.front().is_none_or(|&pending| pending == 0) {
            self.reads.pop_front();
            head += self.w;
        }
        if head != self.head {
            self.at = self.slot(head);
            self.head = head;
            let segs = self.ring.len() as u64 / self.w;
            let need = (self.len - head).div_ceil(self.w);
            if segs - need > segs / 16 {
                self.resize(need);
            }
        }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        self.mem.free(8 * self.ring.len() as u64);
    }
}

/// Reads and in-place writes by logical index: the seam the shared
/// backward walk rewrites a lane through.
impl Timeline for Lane<'_> {
    #[inline(always)]
    fn get(&self, i: u64) -> i64 {
        debug_assert!(i < self.len, "lane read past frontier");
        debug_assert!(i >= self.head, "lane read of retired segment");
        self.ring[self.slot(i)]
    }

    #[inline(always)]
    fn set(&mut self, i: u64, v: i64) {
        debug_assert!(i < self.len, "lane write past frontier");
        debug_assert!(i >= self.head, "lane write to retired segment");
        let s = self.slot(i);
        self.ring[s] = v;
    }
}

/// Visit two equally long runs of values, each at most two slices (as
/// [`Lane::slices`] and [`Lane::push_slices`] give them), pairwise in
/// order: at most three loops, each over contiguous pieces of both.
#[inline(always)]
fn zip_runs((s0, s1): (&[i64], &[i64]), (d0, d1): (&mut [i64], &mut [i64]), mut each: impl FnMut(&mut i64, i64)) {
    let mut run = |s: &[i64], d: &mut [i64]| d.iter_mut().zip(s).for_each(|(d, &s)| each(d, s));
    let cut = s0.len().min(d0.len());
    run(&s0[..cut], &mut d0[..cut]);
    if s0.len() > cut {
        let k = s0.len() - cut;
        run(&s0[cut..], &mut d1[..k]);
        run(s1, &mut d1[k..]);
    } else {
        let k = d0.len() - cut;
        run(&s1[..k], &mut d0[cut..]);
        run(&s1[k..], d1);
    }
}

/// The indexed input stream: its blocks' payload bytes, and their
/// presynchronized times decoded a block at a time onto a lane per
/// timeline that the pass reading them retires behind its frontier.
struct Source<'a> {
    index: &'a StreamIndex,
    store: &'a ChunkStore<'a>,
    maps: Option<&'a [PresyncMap]>,
    /// Per timeline: the next block to decode.
    next_block: Vec<usize>,
    scratch: Vec<u8>,
}

impl<'a> Source<'a> {
    fn new(index: &'a StreamIndex, store: &'a ChunkStore<'a>, maps: Option<&'a [PresyncMap]>) -> Self {
        let next_block = vec![0; index.proc_lens.len()];
        Source { index, store, maps, next_block, scratch: Vec::new() }
    }

    /// Timeline `p`'s block `bm` into `a` then `b`, its presync map applied.
    fn times(&mut self, p: usize, bm: &BlockMeta, a: &mut [i64], b: &mut [i64]) {
        let words = self.store.read(bm.times_off, bm.n_events as usize * 8, &mut self.scratch);
        let (wa, wb) = words.split_at(8 * a.len());
        for (words, times) in [(wa, a), (wb, b)] {
            decode_block_times(words, times);
            if let Some(maps) = self.maps {
                maps[p].map_col(times);
            }
        }
    }

    /// Decode timeline `p`'s blocks onto the end of `lane` until it holds
    /// the first `upto` input times.
    #[inline(always)]
    fn fill(&mut self, p: usize, lane: &mut Lane, upto: u64) {
        while lane.len < upto {
            self.decode_next(p, lane);
        }
    }

    fn decode_next(&mut self, p: usize, lane: &mut Lane) {
        let index = self.index;
        let bm = &index.blocks[index.proc_blocks[p][self.next_block[p]] as usize];
        self.next_block[p] += 1;
        let (a, b) = lane.push_slices(bm.n_events as u64);
        self.times(p, bm, a, b);
    }
}

/// A jump as the sweep found it: the event's index, the jump's size and the
/// corrected time it left the event at — what the replay puts back there
/// and what the jump's [`Walk`] is derived from.
#[derive(Debug, Clone, Copy)]
struct Found {
    k: u64,
    delta: Dur,
    at: Time,
}

impl Found {
    fn walk(&self, params: &ClcParams) -> Walk {
        Walk::new(self.k, self.at, self.delta, params.backward_window_factor)
    }
}

/// The engine's one cross-timeline forward sweep: per-timeline frontiers
/// over output lanes that other timelines read their remote bounds from.
struct Sweep<'a> {
    mu: f64,
    /// Per timeline: events corrected so far.
    frontier: Vec<u64>,
    /// Per timeline: the last corrected event's (input, corrected) pair.
    prev: Vec<Option<(Time, Time)>>,
    /// The input, decoded a block at a time ahead of the frontier.
    input: Vec<Lane<'a>>,
    /// Corrected values, kept while a reader still needs them.
    out: Vec<Lane<'a>>,
    /// Per timeline: `(q, j + 1)` for the producer `(q, j)` its last step
    /// blocked on — nothing moves it before `frontier[q]` reaches `j + 1`.
    wait: Vec<(usize, u64)>,
    /// The events whose corrected time is above their input.
    moved: Moved,
}

impl<'a> Sweep<'a> {
    fn new(mu: f64, n_events: usize, lanes: impl Fn() -> Vec<Lane<'a>>) -> Sweep<'a> {
        let (input, out) = (lanes(), lanes());
        let n = out.len();
        let (frontier, prev, wait) = (vec![0; n], vec![None; n], vec![(0, 0); n]);
        Sweep { mu, frontier, prev, input, out, wait, moved: Moved::new(n_events) }
    }

    /// Correct timeline `p`'s next event, whose input time is `orig` and
    /// whose predecessor left `prev` (as [`forward_step`] takes it); `None`
    /// — only `wait[p]` changed — while one of its producers is pending.
    /// The value owes one read per out-edge; its producers are paid the
    /// read just made, once per in-edge, since a blocked step commits nothing.
    #[inline(always)]
    fn step(
        &mut self, graph: &DepGraph, p: usize, orig: Time, prev: Option<(Time, Time)>,
    ) -> Option<(Time, Option<Dur>)> {
        let i = self.frontier[p];
        let gid = graph.base(p) + i as u32;
        let srcs = graph.in_of(gid);
        let mut jump = None;
        let ready = |src| {
            let (q, j) = graph.locate(src);
            if (j as u64) < self.frontier[q] {
                return Some(self.out[q].get(j as u64));
            }
            self.wait[p] = (q, j as u64 + 1);
            None
        };
        let corrected = forward_step(orig, prev, self.mu, None, srcs, ready, |size| jump = Some(size))?;
        self.out[p].push(corrected.as_ps());
        self.moved.mark(gid as usize, corrected != orig);
        let owed = graph.out_of(gid).len();
        if owed > 0 {
            self.out[p].owe(i, owed as i64);
        }
        for (src, _) in srcs.iter() {
            let (q, j) = graph.locate(src);
            self.out[q].owe(j as u64, -1);
        }
        self.frontier[p] += 1;
        Some((corrected, jump))
    }

    /// Advance timeline `p` until it blocks, reaches `upto` or has taken
    /// `limit` steps, its input read from `src`, each jump recorded in
    /// `found`. Whether it moved.
    #[inline(always)]
    fn advance(
        &mut self, graph: &DepGraph, p: usize, upto: u64, limit: u64, src: &mut Source, found: &mut Vec<Found>,
    ) -> bool {
        let start = self.frontier[p];
        let stop = upto.min(start.saturating_add(limit));
        let mut last = self.prev[p];
        while self.frontier[p] < stop {
            let i = self.frontier[p];
            src.fill(p, &mut self.input[p], i + 1);
            let orig = Time::from_ps(self.input[p].get(i));
            let Some((corrected, jump)) = self.step(graph, p, orig, last) else {
                break;
            };
            last = Some((orig, corrected));
            if let Some(delta) = jump {
                found.push(Found { k: i, delta, at: corrected });
            }
        }
        self.prev[p] = last;
        self.frontier[p] != start
    }
}

/// Run the one cross-timeline forward sweep to the end of every timeline,
/// recording each jump per timeline in index order and marking every event
/// it raises; corrected values are kept while a remote consumer needs them.
/// Without backward amortization they are final, and `emit` sends each
/// block the frontier has passed; with it, [`apply_and_emit`] replays them.
fn forward_sweep(
    src: &mut Source<'_>, mut fwd: Sweep<'_>, graph: &DepGraph, cancel: &CancelToken,
    mut emit: Option<&mut Emitter<'_>>,
) -> Result<(Vec<Vec<Found>>, Moved), PipelineError> {
    let lens = &src.index.proc_lens;
    let n = lens.len();
    let mut found: Vec<Vec<Found>> = vec![Vec::new(); n];

    while (0..n).any(|p| fwd.frontier[p] < lens[p]) {
        cancel.check()?;
        let mut progressed = false;
        for p in 0..n {
            // A timeline whose producer has not moved past what its last
            // step waited on would block again: skip it, but retire.
            let (q, need) = fwd.wait[p];
            if need <= fwd.frontier[q] {
                let burst = fwd.out[p].w;
                progressed |= fwd.advance(graph, p, lens[p], burst, src, &mut found[p]);
            }
            fwd.input[p].retire(fwd.frontier[p]);
            let mut done = fwd.frontier[p];
            if let Some(emit) = emit.as_deref_mut() {
                emit.blocks(p, done, &fwd.out[p], src)?;
                done = emit.emitted[p];
            }
            fwd.out[p].retire(done);
        }
        if !progressed {
            return Err(PipelineError::Clc(ClcError::CyclicTrace));
        }
    }
    Ok((found, fwd.moved))
}

/// The backward path after the sweep (DESIGN §15.3), per timeline: the
/// replay of the forward values F, the walks over C, the safety frontier
/// `b` and the finality frontier behind it.
struct Apply<'a, 'g> {
    graph: &'g DepGraph,
    found: &'g [Vec<Found>],
    params: &'g ClcParams,
    /// The input the replay reads, decoded a block at a time ahead of it.
    input: Vec<Lane<'a>>,
    /// F, the replayed forward values, read by the clamps of walks visiting
    /// their producers: a value retires once, plus `slack`, below what every
    /// safety frontier has passed (DESIGN §15.3).
    fwd: Vec<Lane<'a>>,
    slack: i64,
    /// C, the walked values: the output.
    walked: Vec<Lane<'a>>,
    at: Vec<Frontiers>,
    /// The sweep's moved events, and those the walks raise.
    moved: Moved,
}

#[cfg(test)]
thread_local! {
    /// Walks resumed where they stopped, on this thread.
    static RESUMED: Cell<usize> = const { Cell::new(0) };
}

/// One timeline's frontiers in [`Apply`].
#[derive(Default)]
struct Frontiers {
    replayed: u64,
    /// How far the replay must reach: past the walk holding back the safety
    /// frontier, or a consumer a walk stopped at.
    need: u64,
    /// The last replayed event's (input, F) pair and the next recorded jump.
    replay_prev: Option<(Time, Time)>,
    replay_jump: usize,
    /// The next walk, and where it stopped if it started.
    next_walk: usize,
    resume: Option<(u64, Dur)>,
    /// `sufmin[j]` = min window start over the walks of jumps `j..`, and
    /// the jump it is from: no walk from `j` on writes or visits below it.
    sufmin: Vec<(Time, u64)>,
    /// The safety frontier `b`: every event at or past it is walked to at
    /// least `passed`, the last value it passed (walked values are ordered).
    safe: u64,
    passed: i64,
    /// The finality frontier.
    settled: u64,
}

impl<'a, 'g> Apply<'a, 'g> {
    fn new(
        graph: &'g DepGraph, found: &'g [Vec<Found>], params: &'g ClcParams, slack: i64, moved: Moved,
        lanes: impl Fn() -> Vec<Lane<'a>>,
    ) -> Self {
        let frontiers = |fs: &Vec<Found>| {
            let mut sufmin: Vec<_> = fs.iter().map(|f| (f.walk(params).w_start, f.k)).collect();
            for j in (1..sufmin.len()).rev() {
                sufmin[j - 1] = std::cmp::min_by_key(sufmin[j], sufmin[j - 1], |&(w, _)| w);
            }
            Frontiers { sufmin, passed: i64::MIN, ..Frontiers::default() }
        };
        let at = found.iter().map(frontiers).collect();
        Apply { graph, found, params, input: lanes(), fwd: lanes(), slack, walked: lanes(), at, moved }
    }

    /// Replay timeline `p`'s forward values up to `upto`, one timeline at a
    /// time: an event takes the recorded jump's time where the sweep found
    /// one and its [`candidate`] otherwise — exactly what [`forward_step`]
    /// gave it, with no remote read — onto F and the walked lane; the
    /// input retires behind it. Whether it moved.
    #[inline(always)]
    fn replay(&mut self, p: usize, upto: u64, src: &mut Source) -> bool {
        let at = &mut self.at[p];
        let start = at.replayed;
        if upto <= start {
            return false;
        }
        let (input, fwd, walked) = (&mut self.input[p], &mut self.fwd[p], &mut self.walked[p]);
        src.fill(p, input, upto);
        let (found, mu) = (&self.found[p], self.params.mu);
        let (mut last, mut next) = (at.replay_prev, at.replay_jump);
        // The index of the next recorded jump: a cursor, not a lookup per event.
        let mut jump = found.get(next).map_or(u64::MAX, |f| f.k);
        let mut i = start;
        zip_runs(input.slices(start, upto), fwd.push_slices(upto - start), |f, orig| {
            let orig = Time::from_ps(orig);
            let t = if i == jump {
                next += 1;
                jump = found.get(next).map_or(u64::MAX, |f| f.k);
                found[next - 1].at
            } else {
                candidate(orig, last, mu)
            };
            *f = t.as_ps();
            last = Some((orig, t));
            i += 1;
        });
        zip_runs(fwd.slices(start, upto), walked.push_slices(upto - start), |w, f| *w = f);
        input.retire(upto);
        (at.replayed, at.replay_prev, at.replay_jump) = (upto, last, next);
        true
    }

    /// Timeline `p`'s walks, ascending by jump index (the batch order), each
    /// once the replay has passed its jump and until it stops before an
    /// event whose consumer is not replayed yet, raising that consumer's
    /// `need`; then the safety frontier past events at or below every
    /// remaining walk's window start, raising `need` where it stops.
    /// Whether anything moved.
    fn walk(&mut self, p: usize) -> bool {
        let Apply { graph, found, params, fwd, walked, at, moved, .. } = self;
        let base = graph.base(p);
        let start = (at[p].next_walk, at[p].resume, at[p].safe);
        while let Some(jump) = found[p].get(at[p].next_walk) {
            if at[p].replayed <= jump.k {
                break;
            }
            let walk = jump.walk(params);
            #[cfg(test)]
            RESUMED.with(|n| n.set(n.get() + usize::from(at[p].resume.is_some())));
            let from = at[p].resume.take().unwrap_or((walk.k, walk.delta));
            let mut line = Marked { line: &mut walked[p], base: base as usize, moved: &mut *moved };
            let stop = backward_walk(&walk, from, base, &mut line, |g| {
                let mut known = true;
                let cap = latest_allowed(graph.out_of(g), |dst| {
                    let (q, j) = graph.locate(dst);
                    if (j as u64) < at[q].replayed {
                        return fwd[q].get(j as u64);
                    }
                    at[q].need = at[q].need.max(j as u64 + 1);
                    known = false;
                    i64::MAX
                });
                known.then_some(cap)
            });
            if stop.is_some() {
                at[p].resume = stop;
                break;
            }
            at[p].next_walk += 1;
        }
        let at = &mut at[p];
        let (below, k) = at.sufmin.get(at.next_walk).copied().unwrap_or((Time::MAX, 0));
        let safe = walked[p].first_above(at.safe, at.replayed, below.as_ps());
        if safe > at.safe {
            (at.safe, at.passed) = (safe, walked[p].get(safe - 1));
        }
        if safe < at.replayed {
            at.need = at.need.max(k + 1);
        }
        start != (at.next_walk, at.resume, at.safe)
    }

    /// Retire timeline `p`'s replayed F segments whose values plus `slack`
    /// are below `lo`, the least any safety frontier has passed: no walk
    /// visits their producers again.
    fn retire_fwd(&mut self, p: usize, lo: i64) {
        let (fwd, replayed) = (&mut self.fwd[p], self.at[p].replayed);
        let mut upto = fwd.head;
        while upto + fwd.w <= replayed && fwd.get(upto + fwd.w - 1).saturating_add(self.slack) < lo {
            upto += fwd.w;
        }
        fwd.retire(upto);
    }

    /// Advance timeline `p`'s finality frontier behind the safety frontier
    /// — one event short of it while walks remain, since a walk may still
    /// read its break element — up to the first event walked past `bound`,
    /// the least any safety frontier has passed, so that no timeline's
    /// lanes run ahead of its producers'. Whether it moved.
    #[inline(always)]
    fn settle(&mut self, p: usize, bound: i64) -> bool {
        let at = &mut self.at[p];
        let walks_left = at.next_walk < self.found[p].len();
        let limit = at.safe - u64::from(walks_left && at.safe > 0);
        let start = at.settled;
        at.settled = self.walked[p].first_above(start, limit, bound);
        at.settled != start
    }
}

/// The backward path's epoch loop after the sweep. Per epoch: per timeline,
/// replay as far as emitting the next block or a pending walk needs, and
/// walk; then, per timeline, advance the finality frontier, emit the blocks
/// wholly final and retire what no reader needs: F below what every safety
/// frontier has passed, the walked lane once emitted. Returns the moved set.
fn apply_and_emit(
    src: &mut Source<'_>, mut ap: Apply<'_, '_>, cancel: &CancelToken, emit: &mut Emitter<'_>,
) -> Result<Moved, PipelineError> {
    let index = src.index;
    let lens = &index.proc_lens;
    let n = lens.len();
    while (0..n).any(|p| emit.emitted[p] < lens[p]) {
        cancel.check()?;
        let mut progressed = false;
        for (p, &len) in lens.iter().enumerate() {
            // Emitting the next block needs `b` one past its end.
            let next_end = index.proc_blocks[p].get(emit.next_block[p]).map_or(len, |&b| {
                let bm = &index.blocks[b as usize];
                bm.first_idx + bm.n_events as u64 + 1
            });
            let upto = len.min(next_end.max(ap.at[p].need)).min(ap.at[p].replayed + ap.fwd[p].w);
            progressed |= ap.replay(p, upto.max(ap.at[p].replayed), src);
            progressed |= ap.walk(p);
        }
        // The least walked time any safety frontier has passed.
        let passed = |p: usize| if ap.at[p].safe == lens[p] { i64::MAX } else { ap.at[p].passed };
        let lo = (0..n).map(passed).min().unwrap_or(i64::MAX);
        for p in 0..n {
            progressed |= ap.settle(p, lo);
            progressed |= emit.blocks(p, ap.at[p].settled, &ap.walked[p], src)?;
            ap.retire_fwd(p, lo);
            ap.walked[p].retire(emit.emitted[p]);
        }
        if !progressed {
            // The sweep already refused cyclic traces, and `need` and the
            // next block name what every frontier waits on: an epoch that
            // moves nothing is a stall, failed rather than spun.
            return Err(PipelineError::Clc(ClcError::CyclicTrace));
        }
    }
    Ok(ap.moved)
}

/// Where corrected output chunks go: a consumer called with each chunk, in
/// order, *while the run progresses* — the collecting entry point pushes to
/// a `Vec`, the streaming one numbers the chunks for the caller's sink (the
/// seam the network service streams `CorrectedFrame`s through). The
/// sequence — magic chunk, one chunk per block frame, trailer — is
/// deterministic for a given input. A consumer returning `false` aborts the
/// run with [`PipelineError::Cancelled`] (a stalled consumer cancels *its
/// own* job, never wedges the engine).
///
/// With the CLC, it also tracks per timeline the blocks sent.
struct Emitter<'a> {
    writer: FrameWriter,
    consume: &'a mut dyn FnMut(Vec<u8>) -> bool,
    frames: usize,
    events: u64,
    /// Per timeline: the next block to send, and the events sent.
    next_block: Vec<usize>,
    emitted: Vec<u64>,
    /// Time spent building block frames.
    time: Duration,
    times: Vec<i64>,
    scratch: Vec<u8>,
}

impl<'a> Emitter<'a> {
    /// Open the output stream of `n` timelines: emits the magic chunk.
    fn open(n: usize, consume: &'a mut dyn FnMut(Vec<u8>) -> bool) -> Result<Emitter<'a>, PipelineError> {
        let mut magic = Vec::new();
        let writer = FrameWriter::new(&mut magic);
        let (next_block, emitted, time) = (vec![0; n], vec![0; n], Duration::ZERO);
        let (times, scratch) = (Vec::new(), Vec::new());
        let mut emit = Emitter { writer, consume, frames: 0, events: 0, next_block, emitted, time, times, scratch };
        emit.push(magic)?;
        Ok(emit)
    }

    fn push(&mut self, chunk: Vec<u8>) -> Result<(), PipelineError> {
        (self.consume)(chunk).then_some(()).ok_or(PipelineError::Cancelled)
    }

    /// Re-encode one block with its corrected times, payload bytes verbatim.
    fn frame(&mut self, location: Location, times: &[i64], payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        self.writer.frame(&mut frame, location, times, payload);
        self.frames += 1;
        self.events += times.len() as u64;
        frame
    }

    /// Send timeline `p`'s blocks that lie wholly below `upto`, their
    /// final times read from `lane`, their payloads from `src`. Whether any
    /// went.
    fn blocks(&mut self, p: usize, upto: u64, lane: &Lane, src: &Source) -> Result<bool, PipelineError> {
        let index = src.index;
        let start = self.next_block[p];
        while let Some(&bidx) = index.proc_blocks[p].get(self.next_block[p]) {
            let bm = &index.blocks[bidx as usize];
            let end = bm.first_idx + bm.n_events as u64;
            if end > upto {
                break;
            }
            let te = Instant::now();
            let mut times = std::mem::take(&mut self.times);
            times.clear();
            let (a, b) = lane.slices(bm.first_idx, end);
            times.extend_from_slice(a);
            times.extend_from_slice(b);
            let mut scratch = std::mem::take(&mut self.scratch);
            let payload = src.store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
            let frame = self.frame(index.locations[p], &times, payload);
            (self.times, self.scratch) = (times, scratch);
            self.emitted[p] = end;
            self.next_block[p] += 1;
            self.time += te.elapsed();
            self.push(frame)?;
        }
        Ok(self.next_block[p] != start)
    }

    /// Close the stream: emits the trailer. Returns (frames, events).
    fn close(self) -> Result<(usize, u64), PipelineError> {
        let Emitter { writer, consume, frames, events, .. } = self;
        let mut trailer = Vec::new();
        writer.finish(&mut trailer);
        consume(trailer).then_some((frames, events)).ok_or(PipelineError::Cancelled)
    }
}

/// The CLC-less path: re-emit every block in stream order with its presync
/// map applied; one transient column per block.
fn passthrough_emit(
    src: &mut Source, cancel: &CancelToken, mem: &MemGauge, emit: &mut Emitter<'_>,
) -> Result<(), PipelineError> {
    let (mut times, mut scratch) = (Vec::new(), Vec::new());
    let index = src.index;
    for bm in &index.blocks {
        cancel.check()?;
        let bytes = bm.n_events as u64 * 8;
        mem.alloc(bytes);
        times.resize(bm.n_events as usize, 0);
        let p = bm.timeline as usize;
        src.times(p, bm, &mut times, &mut []);
        let payload = src.store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
        let frame = emit.frame(index.locations[p], &times, payload);
        mem.free(bytes);
        emit.push(frame)?;
    }
    Ok(())
}

/// Run the pipeline incrementally over a chunked columnar stream and
/// stream the corrected trace back out with bounded resident memory.
///
/// The input is the same `DTC3` chunk sequence [`synchronize_stream`]
/// accepts; the output is a chunk sequence of the same format — magic, one
/// chunk per re-encoded block frame, trailer — whose concatenation is a
/// well-formed stream (frames interleave across timelines in finalization
/// order; per-timeline block order is preserved, which is all the format
/// requires). Corrected timestamps are
/// bit-identical to the batch pipeline's for **every** `window_events ≥ 1`;
/// the window only bounds how much column state stays resident
/// ([`PipelineStats::peak_resident_column_bytes`]), and a window wider
/// than a timeline holds no more than that timeline. See the module docs
/// for what the incremental engine skips (the censuses).
///
/// [`synchronize_stream`]: super::synchronize_stream
pub fn synchronize_stream_incremental(
    chunks: &[&[u8]],
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
    window_events: usize,
) -> Result<(Vec<Vec<u8>>, IncrementalReport), PipelineError> {
    let mut out = Vec::new();
    let mut collect = |chunk| {
        out.push(chunk);
        true
    };
    let none = CancelToken::none();
    let report = synchronize_stream_incremental_with_sink(
        chunks, init, fin, lmin, cfg, window_events, &none, &mut collect,
    )?;
    Ok((out, report))
}

/// [`synchronize_stream_incremental`] with a cooperative [`CancelToken`]
/// (polled once per processing epoch and once per passthrough block) that
/// hands the corrected chunks to `consume` as they finalize instead of
/// collecting them: by value, in order, from the magic chunk through the
/// trailer, while the run progresses; the chunk sequence is deterministic
/// for a given input. Returning `false` from `consume` aborts the run with
/// [`PipelineError::Cancelled`] (a stalled consumer cancels *its own* run,
/// never wedges the engine).
/// The returned report's `frames` and `events` count what was emitted.
#[allow(clippy::too_many_arguments)]
pub fn synchronize_stream_incremental_with_sink(
    chunks: &[&[u8]],
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
    window_events: usize,
    cancel: &CancelToken,
    consume: &mut dyn FnMut(Vec<u8>) -> bool,
) -> Result<IncrementalReport, PipelineError> {
    let t_total = Instant::now();
    cancel.check()?;
    if window_events == 0 {
        return Err(PipelineError::BadTrace(
            "incremental window must be at least one event".into(),
        ));
    }
    let t0 = Instant::now();
    let index = index_columnar_chunks(chunks).map_err(PipelineError::Codec)?;
    let store = ChunkStore::new(chunks);
    let n = index.locations.len();
    let n_events = index.n_events() as usize;

    let ranks: Vec<Rank> = index.locations.iter().map(|l| l.rank).collect();
    let table = freeze_inputs(&ranks, init, fin, lmin)?;
    // The windowed engine keeps only O(window) timestamps resident; the
    // online corrector's lanes are stateful over a *whole* timeline and
    // its probe schedule, so the method is batch-only for now.
    if cfg.online().is_some() {
        return Err(PipelineError::Unsupported(
            "SyncMethod::Online is not available on the incremental windowed \
             engine; use the batch entry points"
                .into(),
        ));
    }
    if let Some(params) = cfg.effective_clc() {
        crate::clc::columnar::validate(params).map_err(PipelineError::Clc)?;
    }
    let mut stats = PipelineStats::default();
    stats.stages.push(StageStats::new("index", n_events, t0.elapsed()));
    let maps = build_presync_maps(cfg.presync, init, fin)?;
    let mem = MemGauge::default();
    let mut src = Source::new(&index, &store, maps.as_deref());
    cancel.check()?;

    let (clc, (frames, events)) = match cfg.effective_clc() {
        None => {
            let t0 = Instant::now();
            let mut emit = Emitter::open(n, consume)?;
            passthrough_emit(&mut src, cancel, &mem, &mut emit)?;
            let counts = emit.close()?;
            stats.stages.push(StageStats::new("emit", counts.1 as usize, t0.elapsed()));
            (None, counts)
        }
        Some(params) => {
            let t0 = Instant::now();
            let proc_lens: Vec<usize> = index.proc_lens.iter().map(|&l| l as usize).collect();
            let (msgs, instances) = Capture::of_stream(&index, &store).map_err(PipelineError::Codec)?.finish_table(&table);
            let instances = instances.map_err(PipelineError::BadTrace)?;
            let msgs = msgs.map_err(|e| PipelineError::BadTrace(e.to_string()))?;
            stats.stages.push(StageStats::new("match", n_events, t0.elapsed()));

            let t0 = Instant::now();
            let graph = DepGraph::with_messages(Arc::new(msgs), &instances, &proc_lens, &table)
                .map_err(|e| PipelineError::BadTrace(e.to_string()))?;
            drop(instances);
            stats.stages.push(StageStats::new("lower", n_events, t0.elapsed()));

            let lanes = || Lane::per_timeline(&index, window_events, &mem);
            let sweep = Sweep::new(params.mu, n_events, lanes);
            let mut t0 = Instant::now();
            let mut emit;
            let (found, moved) = if params.backward {
                let (found, moved) = forward_sweep(&mut src, sweep, &graph, cancel, None)?;
                stats.stages.push(StageStats::new("clc:discover", n_events, t0.elapsed()));
                t0 = Instant::now();
                emit = Emitter::open(n, consume)?;
                // The replay decodes the input from its first block again.
                src.next_block.fill(0);
                // A negative latency lets a producer's walked value pass its
                // consumer's F by as much.
                let table = &table;
                let lats = ranks.iter().flat_map(|&a| ranks.iter().map(move |&b| table.l_min(a, b)));
                let slack = lats.min().map_or(0, |l| l.as_ps().saturating_neg().max(0));
                let ap = Apply::new(&graph, &found, params, slack, moved, lanes);
                let moved = apply_and_emit(&mut src, ap, cancel, &mut emit)?;
                (found, moved)
            } else {
                emit = Emitter::open(n, consume)?;
                forward_sweep(&mut src, sweep, &graph, cancel, Some(&mut emit))?
            };
            stats.stages.push(StageStats::new("clc:apply", n_events, t0.elapsed().saturating_sub(emit.time)));
            let mut jumps = Vec::with_capacity(found.iter().map(Vec::len).sum());
            for (p, fs) in found.iter().enumerate() {
                jumps.extend(fs.iter().map(|f| Jump { event: EventId::new(p, f.k as usize), size: f.delta }));
            }
            let max_jump = jumps.iter().map(|j| j.size).max().unwrap_or_default();
            let report = ClcReport { jumps, max_jump, events_moved: moved.count(), events_total: n_events };
            let emit_time = emit.time;
            let counts = emit.close()?;
            stats.stages.push(StageStats::new("emit", counts.1 as usize, emit_time));
            (Some(report), counts)
        }
    };

    debug_assert_eq!(mem.cur.get(), 0, "every lane ring returned to the gauge");
    stats.peak_resident_column_bytes = mem.peak.get();
    stats.total_seconds = t_total.elapsed().as_secs_f64();
    Ok(IncrementalReport { clc, stats, frames, events: events as usize })
}

#[cfg(test)]
mod tests {
    use super::super::{synchronize, PipelineConfig, PreSync};
    use super::*;
    use crate::clc::fixtures::mixed_trace;
    use simclock::Dur;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use tracefmt::io::{from_binary_columnar, to_binary_columnar_v3_blocked};
    use tracefmt::{EventKind, Trace, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    fn cfg(clc: Option<ClcParams>) -> PipelineConfig {
        PipelineConfig {
            presync: PreSync::None,
            clc,
            ..PipelineConfig::default()
        }
    }

    fn run_incremental(
        bytes: &[u8],
        n: usize,
        cfg: &PipelineConfig,
        window: usize,
    ) -> (Trace, IncrementalReport) {
        let chunks: Vec<&[u8]> = bytes.chunks(37).collect();
        let init = vec![None; n];
        let (out, rep) =
            synchronize_stream_incremental(&chunks, &init, None, &LMIN, cfg, window).unwrap();
        let back = from_binary_columnar(out.concat().into()).unwrap();
        (back, rep)
    }

    /// Compare a re-decoded incremental output against the batch-corrected
    /// trace. Output frames interleave in finalization order, so timeline
    /// order can differ — match timelines by location.
    fn assert_times_match(batch: &Trace, back: &Trace, ctx: &str) {
        assert_eq!(batch.n_procs(), back.n_procs(), "{ctx}: proc count");
        for bp in &batch.procs {
            let wp = back
                .procs
                .iter()
                .find(|p| p.location == bp.location)
                .unwrap_or_else(|| panic!("{ctx}: no timeline at {:?}", bp.location));
            assert_eq!(bp.events.len(), wp.events.len(), "{ctx}: events at {:?}", bp.location);
            for (i, (a, b)) in bp.events.iter().zip(&wp.events).enumerate() {
                assert_eq!(a.kind, b.kind, "{ctx}: kind {i} at {:?}", bp.location);
                assert_eq!(a.time, b.time, "{ctx}: time {i} at {:?}", bp.location);
            }
        }
    }

    /// Every window size against the batch engine, bit for bit. Beside a
    /// small mixed trace: skewed mixed traces, and the same with one
    /// timeline's first half moved 2⁶⁰ ps back, a span no `f64` gap keeps
    /// exact.
    #[test]
    fn windowed_matches_batch_for_every_window_size() {
        let cfg = cfg(Some(ClcParams::default()));
        let mut cases = vec![(mixed_trace(4, 12), 5, vec![1usize, 2, 3, 7, 64, 65_536])];
        for (procs, rounds) in [(2, 9), (5, 17), (8, 23)] {
            let skewed = mixed_trace(procs, rounds);
            let mut split = skewed.clone();
            let half = split.procs[1].events.len() / 2;
            for e in &mut split.procs[1].events[..half] {
                e.time = e.time.saturating_sub(Dur::from_ps(1 << 60));
            }
            cases.push((skewed, 4, vec![1, 7, 64, 65_536]));
            cases.push((split, 4, vec![1, 7, 64, 65_536]));
        }

        for (base, block, windows) in cases {
            let n = base.n_procs();
            let bytes = to_binary_columnar_v3_blocked(&base, block);
            let mut batch = base.clone();
            let brep = synchronize(&mut batch, &vec![None; n], None, &LMIN, &cfg).unwrap();
            let bclc = brep.clc.unwrap();
            let mut bjumps = bclc.jumps.clone();
            bjumps.sort_by_key(|j| (j.event.p(), j.event.i()));

            for window in windows {
                let ctx = format!("{n} timelines, window {window}");
                let (back, rep) = run_incremental(&bytes, n, &cfg, window);
                assert_times_match(&batch, &back, &ctx);
                let c = rep.clc.expect("clc ran");
                assert_eq!(c.n_jumps(), bjumps.len(), "{ctx}: jump count");
                for (a, b) in c.jumps.iter().zip(&bjumps) {
                    assert_eq!(a.event, b.event, "{ctx}");
                    assert_eq!(a.size, b.size, "{ctx}");
                }
                assert_eq!(c.max_jump, bclc.max_jump, "{ctx}");
                assert_eq!(c.events_moved, bclc.events_moved, "{ctx}");
                assert_eq!(c.events_total, bclc.events_total, "{ctx}");
                assert_eq!(rep.events, base.n_events(), "{ctx}");
                assert!(rep.stats.stage("clc:discover").is_some());
                assert!(rep.stats.stage("emit").is_some());
            }
        }
    }

    /// A walk stops before an event whose consumer is not replayed yet and
    /// resumes there in a later epoch: at windows 1 and 2 some do, and the
    /// output is batch's — times, the sorted jumps and `events_moved`, which
    /// counts the events that end above their input.
    #[test]
    fn walks_resume_where_an_unreplayed_consumer_stopped_them() {
        let cfg = cfg(Some(ClcParams::default()));
        let times = |t: &Trace| t.procs.iter().flat_map(|p| &p.events).map(|e| e.time).collect::<Vec<_>>();
        let jumps = |c: &ClcReport| c.jumps.iter().map(|j| (j.event.p(), j.event.i(), j.size)).collect::<BTreeSet<_>>();
        for window in [1usize, 2] {
            RESUMED.with(|n| n.set(0));
            for (procs, rounds) in [(4, 12), (5, 17), (8, 23)] {
                let (ctx, base) = (format!("{procs}x{rounds}, window {window}"), mixed_trace(procs, rounds));
                let mut batch = base.clone();
                let bclc = synchronize(&mut batch, &vec![None; procs], None, &LMIN, &cfg).unwrap().clc.unwrap();
                let (back, rep) = run_incremental(&to_binary_columnar_v3_blocked(&base, 4), procs, &cfg, window);
                let c = rep.clc.expect("clc ran");
                assert_times_match(&batch, &back, &ctx);
                assert_eq!((jumps(&c), c.events_moved), (jumps(&bclc), bclc.events_moved), "{ctx}");
                let raised = times(&base).iter().zip(&times(&batch)).filter(|(a, b)| a != b).count();
                assert_eq!(c.events_moved, raised, "{ctx}: events moved against the input");
            }
            assert!(RESUMED.with(Cell::get) > 0, "window {window}: no walk stopped and resumed");
        }
    }

    #[test]
    fn forward_only_matches_batch() {
        let base = mixed_trace(3, 10);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        let params = ClcParams { backward: false, ..ClcParams::default() };
        let cfg = cfg(Some(params));

        let mut batch = base.clone();
        let bclc = synchronize(&mut batch, &[None; 3], None, &LMIN, &cfg).unwrap().clc.unwrap();

        for window in [1usize, 6, 1000] {
            let (back, rep) = run_incremental(&bytes, 3, &cfg, window);
            assert_times_match(&batch, &back, &format!("fwd window {window}"));
            assert_eq!(rep.clc.unwrap().events_moved, bclc.events_moved, "fwd window {window}");
            assert!(rep.stats.stage("clc:discover").is_none(), "no discover sweep");
        }
    }

    #[test]
    fn passthrough_without_clc_preserves_the_trace() {
        let base = mixed_trace(3, 6);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        let (back, rep) = run_incremental(&bytes, 3, &cfg(None), 8);
        assert_times_match(&base, &back, "no-clc passthrough");
        assert!(rep.clc.is_none());
        assert!(rep.frames > 0);
        assert_eq!(rep.events, base.n_events());
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let base = mixed_trace(2, 3);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        let mut taken = 0;
        let err = synchronize_stream_incremental_with_sink(
            &[&bytes[..]],
            &[None, None],
            None,
            &LMIN,
            &cfg(Some(ClcParams::default())),
            16,
            &CancelToken::none().with_flag(Arc::new(AtomicBool::new(true))),
            &mut |_| {
                taken += 1;
                true
            },
        );
        assert!(matches!(err, Err(PipelineError::Cancelled)));
        assert_eq!(taken, 0, "a cancelled run emitted chunks");
    }

    /// A job cancelled in a service queue relies on the cancel check
    /// coming before the decoder: bytes that do not decode are `Cancelled`.
    #[test]
    fn cancelled_token_is_checked_before_the_bytes() {
        let run = |token: &CancelToken| {
            let (bytes, cfg) = ([&b"not a trace"[..]], cfg(None));
            synchronize_stream_incremental_with_sink(&bytes, &[None], None, &LMIN, &cfg, 16, token, &mut |_| true)
        };
        assert!(matches!(run(&CancelToken::none()), Err(PipelineError::Codec(_))));
        let cancelled = CancelToken::none().with_flag(Arc::new(AtomicBool::new(true)));
        assert!(matches!(run(&cancelled), Err(PipelineError::Cancelled)));
    }

    /// A consumer that refuses its k-th chunk stops the run there, with
    /// and without the CLC: `Cancelled`, and not one chunk more offered.
    #[test]
    fn a_refused_chunk_cancels_the_run() {
        let base = mixed_trace(3, 4);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        for clc in [Some(ClcParams::default()), None] {
            let (all, _) =
                synchronize_stream_incremental(&[&bytes[..]], &[None; 3], None, &LMIN, &cfg(clc), 8)
                    .unwrap();
            assert!(all.len() > 3, "fixture emits too few chunks");
            for refuse_at in 0..all.len() {
                let mut offered = Vec::new();
                let err = synchronize_stream_incremental_with_sink(
                    &[&bytes[..]],
                    &[None; 3],
                    None,
                    &LMIN,
                    &cfg(clc),
                    8,
                    &CancelToken::none(),
                    &mut |chunk| {
                        offered.push(chunk);
                        offered.len() <= refuse_at
                    },
                );
                assert!(matches!(err, Err(PipelineError::Cancelled)), "refused at {refuse_at}");
                assert_eq!(offered[..], all[..=refuse_at], "refused at {refuse_at}");
            }
        }
    }

    #[test]
    fn small_windows_keep_less_column_state_resident() {
        let base = mixed_trace(4, 200);
        let bytes = to_binary_columnar_v3_blocked(&base, 8);
        let cfg = cfg(Some(ClcParams::default()));
        let (_, small) = run_incremental(&bytes, 4, &cfg, 16);
        let (_, large) = run_incremental(&bytes, 4, &cfg, 65_536);
        let sp = small.stats.peak_resident_column_bytes;
        let lp = large.stats.peak_resident_column_bytes;
        assert!(sp > 0 && lp > 0);
        assert!(
            sp * 4 < lp,
            "expected a much smaller resident peak: window 16 → {sp} B, window 65536 → {lp} B"
        );
    }

    /// A lane of 4-value segments driven through growth, wrap and
    /// retirement — 70 values kept behind its end, so it holds more than
    /// sixteen segments and retires without shrinking, one segment held
    /// back by a pending read for a while, and a backward walk after every
    /// burst — holds what a plain `Vec` given the same pushes and walks
    /// holds, and the gauge reads its capacity.
    #[test]
    fn ring_lane_matches_a_vec_model() {
        let mem = MemGauge::default();
        let mut lane = Lane::new(&mem, 4);
        let mut model: Vec<i64> = Vec::new();
        let (mut wrapped, mut crossed, mut grew, mut shrank) = (false, false, false, false);
        for round in 0..40 {
            // A burst of 7: singly or as two ring pieces.
            let burst: Vec<i64> = (model.len() as i64..).take(7).map(|i| 1_000 * i).collect();
            let cap = lane.ring.len();
            if round % 2 == 0 {
                burst.iter().for_each(|&v| lane.push(v));
            } else {
                let (a, b) = lane.push_slices(7);
                a.copy_from_slice(&burst[..a.len()]);
                b.copy_from_slice(&burst[a.len()..]);
            }
            grew |= cap < lane.ring.len();
            model.extend(&burst);
            // A jump at the last event walks back ~5 events.
            let k = lane.len - 1;
            let walk = Walk::new(k, Time::from_ps(model[k as usize]), Dur::from_ps(1_500), 2.5);
            crossed |= lane.slot(k - 5) > lane.slot(k);
            backward_walk(&walk, (k, walk.delta), 0, &mut lane, |_| Some(None));
            backward_walk(&walk, (k, walk.delta), 0, &mut model[..], |_| Some(None));
            // Value 150 owes a read from round 20 to round 34.
            match round {
                20 => lane.owe(150, 1),
                34 => lane.owe(150, -1),
                _ => {}
            }
            let cap = lane.ring.len();
            lane.retire(lane.len.saturating_sub(70));
            shrank |= cap > lane.ring.len();
            if (20..34).contains(&round) {
                assert!(lane.head <= 148, "round {round}: retired a segment owing a read");
            }
            let (a, b) = lane.slices(lane.head, lane.len);
            wrapped |= !b.is_empty();
            assert_eq!([a, b].concat(), model[lane.head as usize..], "round {round}");
            for i in lane.head..lane.len {
                assert_eq!(lane.get(i), model[i as usize], "round {round}: value {i}");
            }
            assert_eq!(mem.cur.get(), 8 * lane.ring.len() as u64, "round {round}");
        }
        assert!(wrapped && crossed, "slices wrap {wrapped}, walks cross the wrap {crossed}");
        assert!(grew && shrank, "grow {grew}, shrink {shrank}");
        assert!(lane.head > 148, "the held segment retired once released");
    }

    /// A read accounted to a retired segment means the segment went while
    /// still read: a panic in every build (the service turns it into a
    /// failed job), never a dropped read.
    #[test]
    #[should_panic(expected = "read accounted to a retired segment")]
    fn a_read_of_a_retired_segment_panics() {
        let mem = MemGauge::default();
        let mut lane = Lane::new(&mem, 4);
        (0..12).for_each(|v| lane.push(v));
        lane.retire(8);
        assert_eq!(lane.head, 8);
        lane.owe(3, 1);
    }

    #[test]
    fn doubled_coll_end_is_a_typed_bad_trace() {
        use tracefmt::{CollOp, CommId};
        let (op, comm, root, bytes) = (CollOp::Barrier, CommId::WORLD, None, 0);
        let mut t = Trace::for_ranks(1);
        t.procs[0].push(simclock::Time::ZERO, EventKind::CollBegin { op, comm, root, bytes });
        t.procs[0].push(simclock::Time::ZERO, EventKind::CollEnd { op, comm, root, bytes });
        t.procs[0].push(simclock::Time::ZERO, EventKind::CollEnd { op, comm, root, bytes });
        // One event per block: the second end arrives in a block of its own.
        let bytes = to_binary_columnar_v3_blocked(&t, 1);
        let cfg = cfg(Some(ClcParams::default()));
        let err = synchronize_stream_incremental(&[&bytes[..]], &[None], None, &LMIN, &cfg, 16);
        assert!(
            matches!(&err, Err(PipelineError::BadTrace(m)) if m.contains("CollEnd without")),
            "{err:?}"
        );
    }
}
