//! Incremental windowed CLC: stream corrected timestamps out with bounded
//! resident column memory.
//!
//! The batch pipeline gathers every timeline's full `i64` timestamp lane
//! before the CLC runs, so its resident set is O(trace). This engine
//! processes the stream in *epochs* over ring-buffer lanes instead:
//!
//! * the input chunks are indexed once ([`index_columnar_chunks`]) — block
//!   offsets, per-timeline lengths — and re-read on demand through a
//!   zero-copy [`ChunkStore`]; the trace is never materialized;
//! * the forward pass advances each timeline at most `window_events` per
//!   round-robin epoch, decoding input blocks lazily into one ring per
//!   timeline and appending corrected times to others; rings retire and
//!   resize in segments `window_events` wide, but never wider than the
//!   timeline itself, so the window (a number off the wire) can ask for
//!   no more memory than the input stream paid for;
//! * a *carry frontier* of per-segment read counters tracks which corrected
//!   values remote consumers still need; a segment is retired the moment
//!   its frontier clears, and the ring gives its capacity back, so
//!   steady-state residency is O(window + dependency skew), not O(trace);
//! * with backward amortization enabled, a first sweep discovers every
//!   jump's backward-walk window so a second sweep can tell when a prefix
//!   of a timeline is *final* — no remaining walk can reach below the
//!   safety frontier `b` — and run the second forward pass and emission
//!   behind it;
//! * finalized blocks are re-encoded by [`FrameWriter`] with their payload
//!   bytes passed through verbatim and streamed out as self-contained
//!   chunks whose concatenation is a well-formed `DTC3` stream.
//!
//! # Bit-identity with the batch engine
//!
//! The arithmetic is the batch engine's own: every sweep here steps through
//! [`forward_step`], every walk is a [`backward_walk`] over a [`Walk`]
//! derived by the same constructor, all of [`crate::clc::columnar`]. What
//! this module owns is what differs — the schedule (bounded per-epoch
//! bursts and a safety frontier instead of run-to-block), the storage
//! (lanes that retire, behind the [`Timeline`] seam, instead of one slab in
//! place) and views walked for every collective end (no `CollPass`: an
//! aggregate would outlive retired segments). The forward pass is
//! confluent — every event's corrected time is a function of its already
//! corrected dependencies, not of visit order — so corrected timestamps,
//! `max_jump`, `events_moved` and the jump *set* are bit-identical for
//! every window size; the report's jump order is canonicalized to
//! (timeline, index), whereas the batch report lists discovery order.
//! `tests/windowed_differential.rs` compares both sorted.
//!
//! # Scope
//!
//! The violation censuses are skipped (they are whole-trace diagnostics;
//! run the batch pipeline when they are needed). Message matching
//! and the CSR dependency graph remain O(trace) *structural* metadata, as
//! do the discovered walk windows; the O(window) bound — and the
//! [`PipelineStats::peak_resident_column_bytes`] gauge enforcing it in CI —
//! covers the `i64` timestamp lanes, which dominate at scale.

use super::{
    build_presync_maps, freeze_inputs, CancelToken, PipelineConfig, PipelineError, PipelineStats,
    PresyncMap, StageStats, TraceAnalysis,
};
use crate::clc::columnar::{
    backward_walk, count_moved, forward_step, latest_allowed, Timeline, Walk,
};
use crate::clc::graph::DepGraph;
use crate::clc::{ClcError, ClcParams, ClcReport, Jump};
use crate::offset::OffsetMeasurement;
use simclock::{Dur, Time};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tracefmt::io::{
    decode_block_kinds, decode_block_times, index_columnar_chunks, ChunkStore, FrameWriter,
    StreamIndex,
};
use tracefmt::{Capture, EventId, EventKind, Location, MinLatency, Rank};

/// A finalized-chunk consumer for the streaming entry point: called with
/// `(index, chunk)` in dense order; returning `false` aborts the run.
pub type FrameSink<'a> = dyn Fn(u64, &[u8]) -> bool + 'a;

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
        let empty = || super::StageReport {
            p2p: Default::default(),
            coll: Default::default(),
        };
        super::PipelineReport {
            raw: empty(),
            after_presync: empty(),
            after_clc: self.clc.is_some().then(empty),
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
/// Reading a retired index is a bug caught by the debug asserts.
///
/// The capacity, which the gauge counts, is whole segments: a full ring
/// grows to what its span needs plus 1/32 of the old capacity, and gives
/// freed segments back once more than 1/16 of it is free — exactly the
/// segments the span touches below sixteen, and a linear number of copies
/// however long a backlog grows (DESIGN §15.2).
///
/// A lane other timelines read from also counts the reads each resident
/// segment still owes: `reads[(i − head) / w]`, running sums — a read may
/// be released before the value it targets is pushed (the counters grow
/// ahead of the lane) or before the segment's own additions land (an entry
/// may dip negative until its frontier passes).
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
    /// One lane per timeline of the stream. Its segments are `window`
    /// values wide but never wider than its own timeline: the window comes
    /// from the caller (off the wire, for a served job), the timeline
    /// lengths from bytes the caller actually sent, so an absurd window
    /// allocates nothing the input did not pay for — and a timeline that
    /// fits one segment is scheduled the same whatever the window says.
    fn per_timeline(index: &StreamIndex, window: usize, mem: &'m MemGauge) -> Vec<Lane<'m>> {
        let lane = |&len: &u64| Lane {
            mem,
            w: (window as u64).min(len.max(1)),
            ring: Vec::new(),
            head: 0,
            at: 0,
            reads: VecDeque::new(),
            len: 0,
        };
        index.proc_lens.iter().map(lane).collect()
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
        // A segment retires only after its last read, so nothing is ever
        // accounted to one that is gone.
        let Some(at) = i.checked_sub(self.head) else {
            debug_assert!(false, "read accounted to a retired segment");
            return;
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

/// The pre-CLC side of a sweep: the presynchronized input times, decoded
/// from the indexed stream one block at a time as a frontier reaches them.
struct Source<'a> {
    index: &'a StreamIndex,
    store: &'a ChunkStore<'a>,
    maps: Option<&'a [PresyncMap]>,
    orig: Vec<Lane<'a>>,
    next_block: Vec<usize>,
    scratch: Vec<u8>,
}

impl Source<'_> {
    /// The input time of event `i` of timeline `p`, at most one past what
    /// is decoded: that read ingests the timeline's next block.
    #[inline(always)]
    fn get(&mut self, p: usize, i: u64) -> i64 {
        if i == self.orig[p].len {
            self.ingest_block(p);
        }
        self.orig[p].get(i)
    }

    /// Decode timeline `p`'s next block straight into its lane and apply
    /// its presync map there.
    fn ingest_block(&mut self, p: usize) {
        let list = &self.index.proc_blocks[p];
        debug_assert!(self.next_block[p] < list.len(), "index accounts for every event");
        let bm = &self.index.blocks[list[self.next_block[p]] as usize];
        self.next_block[p] += 1;
        let seg = self.store.read(bm.times_off, bm.n_events as usize * 8, &mut self.scratch);
        let (a, b) = self.orig[p].push_slices(bm.n_events as u64);
        let (seg_a, seg_b) = seg.split_at(8 * a.len());
        decode_block_times(seg_a, a);
        decode_block_times(seg_b, b);
        if let Some(maps) = self.maps {
            maps[p].map_col(a);
            maps[p].map_col(b);
        }
    }
}

/// Reconstruct the communication structure straight from the indexed
/// stream: the streamed twin of [`TraceAnalysis::capture`], feeding the
/// same one-scan [`Capture`] block by block — one decode per block,
/// timelines in order — so the analysis, and any error in it, is
/// bit-identical to the batch analysis of the decoded trace.
pub(super) fn capture_analysis_streamed(
    index: &StreamIndex,
    store: &ChunkStore,
) -> Result<TraceAnalysis, PipelineError> {
    let ranks = index.locations.iter().map(|l| l.rank);
    let mut capture = Capture::new(ranks, index.n_events() as usize);
    let mut scratch = Vec::new();
    let mut kinds: Vec<EventKind> = Vec::new();
    for (p, blocks) in index.proc_blocks.iter().enumerate() {
        for &bidx in blocks {
            let bm = &index.blocks[bidx as usize];
            kinds.clear();
            let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
            decode_block_kinds(payload, bm.n_events as usize, &mut kinds)
                .map_err(PipelineError::Codec)?;
            for (j, kind) in kinds.iter().enumerate() {
                capture.feed(p, bm.first_idx as usize + j, kind);
            }
        }
    }
    let (matching, instances) = capture.finish();
    Ok(TraceAnalysis { matching, instances: instances.map_err(PipelineError::BadTrace)? })
}

/// One forward sweep of the windowed engine: per-timeline frontiers over
/// output lanes that other timelines read their remote bounds from. The
/// engine runs three — discovery, the forward pass proper, the μ = 1
/// re-sweep — that differ in where an event's input comes from and what is
/// done with its outcome, never in the step, which is [`forward_step`].
struct Sweep<'a> {
    mu: f64,
    /// Whether an event's value also owes one read per *in*-edge: the
    /// clamp of a backward walk visiting the producer.
    arm_in_edges: bool,
    /// Per timeline: events corrected so far.
    frontier: Vec<u64>,
    /// Per timeline: the last corrected event's (input, corrected) pair.
    prev: Vec<Option<(Time, Time)>>,
    /// Corrected values, kept while a reader still needs them.
    out: Vec<Lane<'a>>,
}

impl<'a> Sweep<'a> {
    fn new(mu: f64, arm_in_edges: bool, out: Vec<Lane<'a>>) -> Sweep<'a> {
        let n = out.len();
        Sweep { mu, arm_in_edges, frontier: vec![0; n], prev: vec![None; n], out }
    }

    /// Account `delta` pending reads of the corrected value of `gid`.
    #[inline(always)]
    fn owe(&mut self, graph: &DepGraph, gid: u32, delta: i64) {
        let (p, i) = graph.locate(gid);
        self.out[p].owe(i as u64, delta);
    }

    /// Whether `gid` is corrected: its timeline's frontier has passed it.
    #[inline(always)]
    fn passed(&self, graph: &DepGraph, gid: u32) -> bool {
        let (p, i) = graph.locate(gid);
        (i as u64) < self.frontier[p]
    }

    /// The corrected value of `gid`.
    #[inline(always)]
    fn value(&self, graph: &DepGraph, gid: u32) -> i64 {
        let (p, i) = graph.locate(gid);
        self.out[p].get(i as u64)
    }

    /// Correct timeline `p`'s next event, whose input time is `orig` and
    /// whose predecessor left `prev` (as [`forward_step`] takes it); `None`
    /// — nothing changed — while one of its producers is pending.
    /// The event's value now owes one read per out-edge (its consumers'
    /// remote bounds); the producers' values are paid the read just made —
    /// exactly one per in-edge, never repeated, since a blocked step
    /// commits nothing.
    #[inline(always)]
    fn step(
        &mut self,
        graph: &DepGraph,
        p: usize,
        orig: Time,
        prev: Option<(Time, Time)>,
    ) -> Option<(Time, Option<Dur>)> {
        let i = self.frontier[p];
        let gid = graph.base(p) + i as u32;
        let srcs = graph.in_of(gid);
        let mut jump = None;
        let ready = |src| {
            let (q, j) = graph.locate(src);
            ((j as u64) < self.frontier[q]).then(|| self.out[q].get(j as u64))
        };
        let corrected =
            forward_step(orig, prev, self.mu, None, srcs, ready, |size| jump = Some(size))?;
        self.out[p].push(corrected.as_ps());
        let owed = graph.out_of(gid).len() + if self.arm_in_edges { srcs.len() } else { 0 };
        if owed > 0 {
            self.out[p].owe(i, owed as i64);
        }
        for (src, _) in srcs.iter() {
            self.owe(graph, src, -1);
        }
        self.frontier[p] += 1;
        Some((corrected, jump))
    }

    /// Advance timeline `p` until it blocks, reaches `upto` or has taken
    /// `limit` steps: `input(i)` supplies event `i`'s input time,
    /// `on_event(i, corrected, jump)` sees each outcome. Whether it moved.
    #[inline(always)]
    fn advance(
        &mut self,
        graph: &DepGraph,
        p: usize,
        upto: u64,
        limit: u64,
        mut input: impl FnMut(u64) -> i64,
        mut on_event: impl FnMut(u64, Time, Option<Dur>),
    ) -> bool {
        let start = self.frontier[p];
        let stop = upto.min(start.saturating_add(limit));
        let mut last = self.prev[p];
        while self.frontier[p] < stop {
            let i = self.frontier[p];
            let orig = Time::from_ps(input(i));
            let Some((corrected, jump)) = self.step(graph, p, orig, last) else {
                break;
            };
            last = Some((orig, corrected));
            on_event(i, corrected, jump);
        }
        self.prev[p] = last;
        self.frontier[p] != start
    }
}

/// Sweep 1 (backward path only): run the forward pass once, with bounded
/// lookback, purely to *discover* every jump's backward walk. Corrected
/// values are kept only while a remote consumer still needs them (the
/// per-segment read counters); nothing is emitted.
fn discover_walks(
    mut src: Source<'_>,
    mut fwd: Sweep<'_>,
    graph: &DepGraph,
    params: &ClcParams,
    cancel: &CancelToken,
) -> Result<Vec<Vec<Walk>>, PipelineError> {
    let lens = &src.index.proc_lens;
    let n = lens.len();
    let mut walks: Vec<Vec<Walk>> = vec![Vec::new(); n];

    while (0..n).any(|p| fwd.frontier[p] < lens[p]) {
        cancel.check()?;
        let mut progressed = false;
        for p in 0..n {
            let burst = fwd.out[p].w;
            let record = |i, at, jump| {
                if let (Some(delta), true) = (jump, i > 0) {
                    walks[p].push(Walk::new(i, at, delta, params.backward_window_factor));
                }
            };
            progressed |= fwd.advance(graph, p, lens[p], burst, |i| src.get(p, i), record);
            src.orig[p].retire(fwd.frontier[p]);
            fwd.out[p].retire(fwd.frontier[p]);
        }
        if !progressed {
            return Err(PipelineError::Clc(ClcError::CyclicTrace));
        }
    }
    Ok(walks)
}

/// Where corrected output chunks go: a consumer called with each chunk, in
/// order, *while the run progresses* — the collecting entry points push to
/// a `Vec`, the streaming one numbers the chunks for the caller's sink (the
/// seam the network service streams `CorrectedFrame`s through). The
/// sequence — magic chunk, one chunk per block frame, trailer — is
/// deterministic for a given input. A consumer returning `false` aborts the
/// run with [`PipelineError::Cancelled`] (a stalled consumer cancels *its
/// own* job, never wedges the engine).
struct Emitter<'a> {
    writer: FrameWriter,
    consume: &'a mut dyn FnMut(Vec<u8>) -> bool,
    frames: usize,
    events: u64,
}

impl<'a> Emitter<'a> {
    /// Open the output stream: emits the magic chunk.
    fn open(consume: &'a mut dyn FnMut(Vec<u8>) -> bool) -> Result<Emitter<'a>, PipelineError> {
        let mut magic = Vec::new();
        let writer = FrameWriter::new(&mut magic);
        let mut emit = Emitter { writer, consume, frames: 0, events: 0 };
        emit.push(magic)?;
        Ok(emit)
    }

    fn push(&mut self, chunk: Vec<u8>) -> Result<(), PipelineError> {
        if (self.consume)(chunk) {
            Ok(())
        } else {
            Err(PipelineError::Cancelled)
        }
    }

    /// Re-encode one block with its corrected times, payload bytes verbatim.
    fn frame(&mut self, location: Location, times: &[i64], payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        self.writer.frame(&mut frame, location, times, payload);
        self.frames += 1;
        self.events += times.len() as u64;
        frame
    }

    /// Close the stream: emits the trailer. Returns (frames, events).
    fn close(self) -> Result<(usize, u64), PipelineError> {
        let Emitter { writer, consume, frames, events } = self;
        let mut trailer = Vec::new();
        writer.finish(&mut trailer);
        if consume(trailer) {
            Ok((frames, events))
        } else {
            Err(PipelineError::Cancelled)
        }
    }
}

/// Sweep 2: the full windowed CLC with emission. Per epoch and timeline,
/// in order: (1) advance the forward sweep `fwd` (into the snapshot lane,
/// duplicated into the walk lane on the backward path); (2) advance
/// `rwalk`, the prefix whose out-edge targets are all corrected (a walk
/// for jump `k` may clamp against any of them); (3) apply every walk whose
/// preconditions cleared, ascending; (4) advance the safety frontier `b`
/// past events at or below every *remaining* walk's window start — final
/// values no walk will touch again; (5) advance the μ = 1 re-sweep `refwd`
/// over the walked values behind `b`; (6) emit blocks wholly behind the
/// finalization horizon; (7) retire cleared segments.
///
/// Without backward amortization, steps 2–5 vanish and the horizon is the
/// forward frontier itself. Returns the CLC report and the time spent
/// building frames.
#[allow(clippy::too_many_arguments)]
fn apply_and_emit<'a>(
    mut src: Source<'a>,
    mut fwd: Sweep<'a>,
    mut walked: Vec<Lane<'a>>,
    mut refwd: Sweep<'a>,
    graph: &DepGraph,
    walks: &[Vec<Walk>],
    cancel: &CancelToken,
    emit: &mut Emitter<'_>,
) -> Result<(ClcReport, Duration), PipelineError> {
    let (index, store) = (src.index, src.store);
    let lens = &index.proc_lens;
    let n = lens.len();
    // The forward sweep arms in-edge reads exactly when walks will clamp
    // through them.
    let backward = fwd.arm_in_edges;

    // Backward-path frontiers of steps 2–4, then emission state.
    let mut rwalk = vec![0u64; n];
    let mut next_walk = vec![0usize; n];
    let mut b = vec![0u64; n];
    let mut emit_block = vec![0usize; n];
    let mut emitted = vec![0u64; n];

    // sufmin[p][j] = min window start over walks[p][j..]: while walk j is
    // the next unapplied one, every event at or below sufmin[p][j] is
    // final (no remaining walk writes it or clamps through its out-edges).
    let sufmin: Vec<Vec<Time>> = walks
        .iter()
        .map(|ws| {
            let mut m = vec![Time::MAX; ws.len()];
            let mut cur = Time::MAX;
            for j in (0..ws.len()).rev() {
                cur = cur.min(ws[j].w_start);
                m[j] = cur;
            }
            m
        })
        .collect();

    let mut report = ClcReport::default();
    let mut emit_time = Duration::ZERO;
    let mut scratch = Vec::new();
    let mut times: Vec<i64> = Vec::new();

    loop {
        cancel.check()?;
        let mut progressed = false;
        for p in 0..n {
            let gbase = graph.base(p);

            // (1) Forward frontier. On the backward path each event also
            // arms one potential clamp read per in-edge, released when the
            // safety frontier passes the *source* (step 4): a walk visiting
            // the source would read this event's snapshot value.
            let burst = fwd.out[p].w;
            progressed |= fwd.advance(graph, p, lens[p], burst, |i| src.get(p, i), |i, at, jump| {
                if let Some(size) = jump {
                    report.jumps.push(Jump { event: EventId::new(p, i as usize), size });
                    report.max_jump = report.max_jump.max(size);
                }
                if backward {
                    walked[p].push(at.as_ps());
                }
            });

            if backward {
                // (2) rwalk: prefix of events whose out-edge targets are
                // all corrected — a walk may clamp through any of them.
                while rwalk[p] < fwd.frontier[p]
                    && graph.out_of(gbase + rwalk[p] as u32).iter().all(|(dst, _)| fwd.passed(graph, dst))
                {
                    rwalk[p] += 1;
                    progressed = true;
                }

                // (3) Apply ready walks, ascending by jump index — the
                // batch per-timeline application order.
                while let Some(wj) = walks[p].get(next_walk[p]) {
                    if !(fwd.frontier[p] > wj.k && rwalk[p] >= wj.k) {
                        break;
                    }
                    backward_walk(wj, gbase, &mut walked[p], |g| {
                        latest_allowed(graph.out_of(g), |dst| fwd.value(graph, dst))
                    });
                    next_walk[p] += 1;
                    progressed = true;
                }

                // (4) Safety frontier: an event at or below every
                // remaining walk's window start is never written again and
                // never visited, so its pending clamp reads (one per
                // out-edge) will not happen — release them.
                let cur_sufmin = sufmin[p].get(next_walk[p]).copied().unwrap_or(Time::MAX);
                while b[p] < fwd.frontier[p] && Time::from_ps(walked[p].get(b[p])) <= cur_sufmin {
                    for (dst, _) in graph.out_of(gbase + b[p] as u32).iter() {
                        fwd.owe(graph, dst, -1);
                    }
                    b[p] += 1;
                    progressed = true;
                }

                // (5) Second forward pass behind the safety frontier: its
                // inputs are the walked values, mu = 1.
                progressed |=
                    refwd.advance(graph, p, b[p], u64::MAX, |i| walked[p].get(i), |_, _, _| {});
            }

            // (6) Emit blocks wholly behind the finalization horizon.
            let done = if backward { &refwd } else { &fwd };
            while let Some(&bidx) = index.proc_blocks[p].get(emit_block[p]) {
                let bm = &index.blocks[bidx as usize];
                let end = bm.first_idx + bm.n_events as u64;
                if end > done.frontier[p] {
                    break;
                }
                let te = Instant::now();
                times.clear();
                let (a, b) = done.out[p].slices(bm.first_idx, end);
                times.extend_from_slice(a);
                times.extend_from_slice(b);
                let (a, b) = src.orig[p].slices(bm.first_idx, end);
                let (ta, tb) = times.split_at(a.len());
                report.events_moved += count_moved(ta, a) + count_moved(tb, b);
                let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
                let frame = emit.frame(index.locations[p], &times, payload);
                emitted[p] = end;
                emit_block[p] += 1;
                emit_time += te.elapsed();
                emit.push(frame)?;
                progressed = true;
            }

            // (7) Retirement: originals once emitted (the moved-event
            // comparison was their last read); the snapshot once its
            // frontier passed and the carry counter cleared (and, without
            // the backward path, once emitted — it is the emission lane);
            // the walk lane once re-forwarded and strictly behind the
            // safety frontier (a walk may still *read* its break element);
            // the re-sweep's lane once emitted and drained by remote
            // consumers.
            src.orig[p].retire(emitted[p]);
            fwd.out[p].retire(if backward { fwd.frontier[p] } else { emitted[p] });
            if backward {
                walked[p].retire(refwd.frontier[p].min(b[p].saturating_sub(1)));
                refwd.out[p].retire(emitted[p]);
            }
        }

        if (0..n).all(|p| emitted[p] == lens[p]) {
            break;
        }
        if !progressed {
            // Only an unsatisfiable forward dependency can wedge every
            // frontier at once: the walk/safety/re-forward/emission chain
            // always drains once the forward sweep completes.
            return Err(PipelineError::Clc(ClcError::CyclicTrace));
        }
    }

    report.events_total = index.n_events() as usize;
    report.jumps.sort_by_key(|j| (j.event.p(), j.event.i()));
    Ok((report, emit_time))
}

/// The CLC-less path: re-emit every block in stream order with its presync
/// map applied; one transient column per block.
fn passthrough_emit(
    index: &StreamIndex,
    store: &ChunkStore,
    maps: Option<&[PresyncMap]>,
    cancel: &CancelToken,
    mem: &MemGauge,
    emit: &mut Emitter<'_>,
) -> Result<(), PipelineError> {
    let mut scratch = Vec::new();
    let mut times: Vec<i64> = Vec::new();
    for bm in &index.blocks {
        cancel.check()?;
        let bytes = bm.n_events as u64 * 8;
        mem.alloc(bytes);
        times.resize(bm.n_events as usize, 0);
        let seg = store.read(bm.times_off, bm.n_events as usize * 8, &mut scratch);
        decode_block_times(seg, &mut times);
        let p = bm.timeline as usize;
        if let Some(maps) = maps {
            maps[p].map_col(&mut times);
        }
        let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
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
    synchronize_stream_incremental_with_cancel(
        chunks,
        init,
        fin,
        lmin,
        cfg,
        window_events,
        &CancelToken::none(),
    )
}

/// [`synchronize_stream_incremental`] with a cooperative [`CancelToken`],
/// polled once per processing epoch and once per passthrough block.
#[allow(clippy::too_many_arguments)]
pub fn synchronize_stream_incremental_with_cancel(
    chunks: &[&[u8]],
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
    window_events: usize,
    cancel: &CancelToken,
) -> Result<(Vec<Vec<u8>>, IncrementalReport), PipelineError> {
    let mut out = Vec::new();
    let mut collect = |chunk| {
        out.push(chunk);
        true
    };
    let report = run_incremental(chunks, init, fin, lmin, cfg, window_events, cancel, &mut collect)?;
    Ok((out, report))
}

/// [`synchronize_stream_incremental_with_cancel`] that *streams* the
/// corrected chunks to `sink` as they finalize instead of accumulating
/// them: `sink(index, chunk)` is called with dense indices from 0 (the
/// magic chunk) through the trailer, in order, while the run progresses.
/// The chunk sequence is deterministic for a given input, so a retried
/// run re-emits identical chunks at identical indices — a sink can resume
/// from a high-water mark. Returning `false` from the sink aborts the run
/// with [`PipelineError::Cancelled`]. The returned report's `frames` and
/// `events` count what was emitted; no chunks are retained in memory.
#[allow(clippy::too_many_arguments)]
pub fn synchronize_stream_incremental_with_sink(
    chunks: &[&[u8]],
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
    window_events: usize,
    cancel: &CancelToken,
    sink: &FrameSink<'_>,
) -> Result<IncrementalReport, PipelineError> {
    let mut next = 0u64;
    let mut numbered = |chunk: Vec<u8>| {
        let taken = sink(next, &chunk);
        next += 1;
        taken
    };
    run_incremental(chunks, init, fin, lmin, cfg, window_events, cancel, &mut numbered)
}

#[allow(clippy::too_many_arguments)]
fn run_incremental(
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
    let maps = maps.as_deref();
    cancel.check()?;

    let mem = MemGauge::default();
    let (clc, (frames, events)) = match cfg.effective_clc() {
        None => {
            let t0 = Instant::now();
            let mut emit = Emitter::open(consume)?;
            passthrough_emit(&index, &store, maps, cancel, &mem, &mut emit)?;
            let counts = emit.close()?;
            stats.stages.push(StageStats::new("emit", counts.1 as usize, t0.elapsed()));
            (None, counts)
        }
        Some(params) => {
            let t0 = Instant::now();
            let analysis = capture_analysis_streamed(&index, &store)?;
            stats
                .stages
                .push(StageStats::new("match", n_events, t0.elapsed()));

            let t0 = Instant::now();
            let proc_lens: Vec<usize> = index.proc_lens.iter().map(|&l| l as usize).collect();
            let graph =
                DepGraph::try_build(&analysis.matching, &analysis.instances, &proc_lens, &table)
                    .map_err(|e| PipelineError::BadTrace(e.to_string()))?;
            stats
                .stages
                .push(StageStats::new("lower", n_events, t0.elapsed()));

            let lanes = || Lane::per_timeline(&index, window_events, &mem);
            let source = || Source {
                index: &index,
                store: &store,
                maps,
                orig: lanes(),
                next_block: vec![0; n],
                scratch: Vec::new(),
            };
            let walks = if params.backward {
                let t0 = Instant::now();
                let fwd = Sweep::new(params.mu, false, lanes());
                let walks = discover_walks(source(), fwd, &graph, params, cancel)?;
                stats
                    .stages
                    .push(StageStats::new("clc:discover", n_events, t0.elapsed()));
                walks
            } else {
                vec![Vec::new(); n]
            };

            let t0 = Instant::now();
            let mut emit = Emitter::open(consume)?;
            let fwd = Sweep::new(params.mu, params.backward, lanes());
            let refwd = Sweep::new(1.0, false, lanes());
            let (report, emit_time) =
                apply_and_emit(source(), fwd, lanes(), refwd, &graph, &walks, cancel, &mut emit)?;
            let counts = emit.close()?;
            let apply_time = t0.elapsed().saturating_sub(emit_time);
            stats.stages.push(StageStats::new("clc:apply", n_events, apply_time));
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
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use tracefmt::io::{from_binary_columnar, to_binary_columnar_v3_blocked};
    use tracefmt::{Trace, UniformLatency};

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

    #[test]
    fn windowed_matches_batch_for_every_window_size() {
        let base = mixed_trace(4, 12);
        let bytes = to_binary_columnar_v3_blocked(&base, 5);
        let cfg = cfg(Some(ClcParams::default()));

        let mut batch = base.clone();
        let brep = synchronize(&mut batch, &[None; 4], None, &LMIN, &cfg).unwrap();
        let bclc = brep.clc.unwrap();
        let mut bjumps = bclc.jumps.clone();
        bjumps.sort_by_key(|j| (j.event.p(), j.event.i()));

        for window in [1usize, 2, 3, 7, 64, 65_536] {
            let (back, rep) = run_incremental(&bytes, 4, &cfg, window);
            assert_times_match(&batch, &back, &format!("window {window}"));
            let c = rep.clc.expect("clc ran");
            assert_eq!(c.n_jumps(), bjumps.len(), "window {window}: jump count");
            for (a, b) in c.jumps.iter().zip(&bjumps) {
                assert_eq!(a.event, b.event, "window {window}");
                assert_eq!(a.size, b.size, "window {window}");
            }
            assert_eq!(c.max_jump, bclc.max_jump, "window {window}");
            assert_eq!(c.events_moved, bclc.events_moved, "window {window}");
            assert_eq!(c.events_total, bclc.events_total, "window {window}");
            assert_eq!(rep.events, base.n_events(), "window {window}");
            assert!(rep.stats.stage("clc:discover").is_some());
            assert!(rep.stats.stage("emit").is_some());
        }
    }

    #[test]
    fn forward_only_matches_batch() {
        let base = mixed_trace(3, 10);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        let params = ClcParams { backward: false, ..ClcParams::default() };
        let cfg = cfg(Some(params));

        let mut batch = base.clone();
        synchronize(&mut batch, &[None; 3], None, &LMIN, &cfg).unwrap();

        for window in [1usize, 6, 1000] {
            let (back, rep) = run_incremental(&bytes, 3, &cfg, window);
            assert_times_match(&batch, &back, &format!("fwd window {window}"));
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
    fn zero_window_is_rejected() {
        let base = mixed_trace(2, 3);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        let chunks: Vec<&[u8]> = vec![&bytes];
        let err = synchronize_stream_incremental(
            &chunks,
            &[None, None],
            None,
            &LMIN,
            &cfg(Some(ClcParams::default())),
            0,
        );
        assert!(matches!(err, Err(PipelineError::BadTrace(_))));
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let base = mixed_trace(2, 3);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        let chunks: Vec<&[u8]> = vec![&bytes];
        let err = synchronize_stream_incremental_with_cancel(
            &chunks,
            &[None, None],
            None,
            &LMIN,
            &cfg(Some(ClcParams::default())),
            16,
            &CancelToken::none().with_flag(Arc::new(AtomicBool::new(true))),
        );
        assert!(matches!(err, Err(PipelineError::Cancelled)));
    }

    #[test]
    fn empty_stream_yields_an_empty_stream() {
        let base = Trace::for_ranks(0);
        let bytes = to_binary_columnar_v3_blocked(&base, 4);
        let chunks: Vec<&[u8]> = vec![&bytes];
        let (out, rep) = synchronize_stream_incremental(
            &chunks,
            &[],
            None,
            &LMIN,
            &cfg(Some(ClcParams::default())),
            16,
        )
        .unwrap();
        assert_eq!(rep.frames, 0);
        assert_eq!(rep.events, 0);
        let back = from_binary_columnar(out.concat().into()).unwrap();
        assert_eq!(back.n_procs(), 0);
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
        let mut lane = Lane {
            mem: &mem,
            w: 4,
            ring: Vec::new(),
            head: 0,
            at: 0,
            reads: VecDeque::new(),
            len: 0,
        };
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
            backward_walk(&walk, 0, &mut lane, |_| None);
            backward_walk(&walk, 0, &mut model[..], |_| None);
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

    #[test]
    fn local_cycle_is_reported_not_looped() {
        use simclock::Time;
        use tracefmt::{EventKind, Tag};
        let mut t = Trace::for_ranks(1);
        t.procs[0].push(
            Time::from_us(5),
            EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 },
        );
        t.procs[0].push(
            Time::from_us(10),
            EventKind::Send { to: Rank(0), tag: Tag(0), bytes: 0 },
        );
        let bytes = to_binary_columnar_v3_blocked(&t, 4);
        let chunks: Vec<&[u8]> = vec![&bytes];
        let err = synchronize_stream_incremental(
            &chunks,
            &[None],
            None,
            &LMIN,
            &cfg(Some(ClcParams::default())),
            16,
        );
        assert!(matches!(err, Err(PipelineError::Clc(ClcError::CyclicTrace))));
    }
}
