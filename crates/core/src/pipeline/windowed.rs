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
//! * one forward sweep crosses timelines: it advances each timeline at most
//!   `window_events` per round-robin epoch, decoding input blocks lazily
//!   into one ring per timeline and appending corrected times to another,
//!   and records every jump — its index, its size and the time it left the
//!   event at; rings retire and resize in segments `window_events` wide, but
//!   never wider than the timeline itself, so the window (a number off the
//!   wire) can ask for no more memory than the input stream paid for;
//! * a *carry frontier* of per-segment read counters tracks which values
//!   remote readers still need; a segment is retired the moment its
//!   frontier clears, and the ring gives its capacity back, so steady-state
//!   residency is O(window + dependency skew), not O(trace);
//! * with backward amortization enabled, a second epoch loop *replays* each
//!   timeline's forward values locally — the amortized candidate from the
//!   input, or the recorded jump's time; no remote read — as far as the
//!   next block's emission or a pending walk needs, at most one segment
//!   per epoch; it applies the walks, advances a *safety frontier* `b` past
//!   events no remaining walk can reach, and behind it, to a fixpoint
//!   across timelines once per epoch, a *finality frontier* that certifies
//!   the μ = 1 pass per event: an event is final at its walked time if its
//!   predecessor and producers are final, it is not below its predecessor,
//!   the gap from it is under 2⁵² ps and no producer's value plus latency
//!   exceeds it; an event the certificate refuses takes the μ = 1 step in
//!   place (a `clc:resweep` stage row counts them);
//! * final blocks are re-encoded by [`FrameWriter`] with their payload
//!   bytes passed through verbatim and streamed out as self-contained
//!   chunks whose concatenation is a well-formed `DTC3` stream; a block's
//!   input times are decoded again to count the events it moved, so no
//!   lane keeps them past the pass that read them.
//!
//! # Bit-identity with the batch engine
//!
//! The arithmetic is the batch engine's own: the sweep steps through
//! [`forward_step`], the replay through its [`candidate`], every walk is a
//! [`backward_walk`] over a [`Walk`] derived by the same constructor, all
//! of [`crate::clc::columnar`]. What this module owns is what differs — the
//! schedule (bounded per-epoch bursts and two frontiers instead of
//! run-to-block), the storage (lanes that retire, behind the [`Timeline`]
//! seam, instead of one slab in place) and views walked for every
//! collective end (no `CollPass`: an aggregate would outlive retired
//! segments). The forward pass is confluent — every event's corrected time
//! is a function of its already corrected dependencies, not of visit order
//! — so corrected timestamps, `max_jump`, `events_moved` and the jump *set*
//! are bit-identical for every window size; the report's jump order is
//! canonicalized to (timeline, index), whereas the batch report lists
//! discovery order. `tests/windowed_differential.rs` compares both sorted.
//!
//! # Scope
//!
//! The violation censuses are skipped (they are whole-trace diagnostics;
//! run the batch pipeline when they are needed). Message matching and the
//! dependency graph remain O(trace) *structural* metadata, as do the
//! recorded jumps: while it matches, the capture keeps a 24-byte record per
//! send and receive (its column sized by the stream's event count); the
//! graph then keeps 8 bytes per event (a timeline and a link) and 16 per
//! message (the message table) — 3.2 MB for a 200 000-event stream of
//! 100 000 messages. The O(window) bound — and the
//! [`PipelineStats::peak_resident_column_bytes`] gauge enforcing it in CI —
//! covers the `i64` timestamp lanes, which dominate at scale.

use super::{
    build_presync_maps, freeze_inputs, CancelToken, PipelineConfig, PipelineError, PipelineStats,
    PresyncMap, StageStats,
};
use crate::clc::columnar::{
    backward_walk, candidate, count_moved, forward_step, latest_allowed, Timeline, Walk,
};
use crate::clc::graph::{DepGraph, Edges};
use crate::clc::{ClcError, ClcParams, ClcReport, Jump};
use crate::offset::OffsetMeasurement;
use simclock::{Dur, Time};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracefmt::io::{
    decode_block_kinds, decode_block_times, index_columnar_chunks, BlockMeta, ChunkStore,
    FrameWriter, StreamIndex,
};
use tracefmt::{Capture, EventId, EventKind, Location, MinLatency, Rank};

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
        let lane = |&len: &u64| Lane::new(mem, (window as u64).min(len.max(1)));
        index.proc_lens.iter().map(lane).collect()
    }

    /// An empty lane of segments `w` values wide.
    fn new(mem: &'m MemGauge, w: u64) -> Lane<'m> {
        Lane {
            mem,
            w,
            ring: Vec::new(),
            head: 0,
            at: 0,
            reads: VecDeque::new(),
            len: 0,
        }
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

/// The indexed input stream: its blocks' presynchronized times and their
/// payload bytes, read on demand.
struct Stream<'a> {
    index: &'a StreamIndex,
    store: &'a ChunkStore<'a>,
    maps: Option<&'a [PresyncMap]>,
    scratch: Vec<u8>,
}

impl Stream<'_> {
    /// Timeline `p`'s block `bm` into `a` then `b`, its presync map applied.
    fn times(&mut self, p: usize, bm: &BlockMeta, a: &mut [i64], b: &mut [i64]) {
        let seg = self.store.read(bm.times_off, bm.n_events as usize * 8, &mut self.scratch);
        let (seg_a, seg_b) = seg.split_at(8 * a.len());
        decode_block_times(seg_a, a);
        decode_block_times(seg_b, b);
        if let Some(maps) = self.maps {
            maps[p].map_col(a);
            maps[p].map_col(b);
        }
    }
}

/// The pre-CLC side of a pass: the input times, decoded one block at a time
/// as a frontier reaches them into a lane per timeline that the pass
/// retires behind its frontier.
struct Source<'a> {
    stream: Stream<'a>,
    input: Vec<Lane<'a>>,
    next_block: Vec<usize>,
}

impl Source<'_> {
    /// The input time of event `i` of timeline `p`, at most one past what
    /// is decoded: that read decodes the timeline's next block.
    #[inline(always)]
    fn get(&mut self, p: usize, i: u64) -> i64 {
        if i == self.input[p].len {
            self.decode_next(p);
        }
        self.input[p].get(i)
    }

    /// Decode timeline `p`'s blocks until its first `upto` input times are.
    fn decode_to(&mut self, p: usize, upto: u64) {
        while self.input[p].len < upto {
            self.decode_next(p);
        }
    }

    fn decode_next(&mut self, p: usize) {
        let index = self.stream.index;
        let list = &index.proc_blocks[p];
        debug_assert!(self.next_block[p] < list.len(), "index accounts for every event");
        let bm = &index.blocks[list[self.next_block[p]] as usize];
        self.next_block[p] += 1;
        let (a, b) = self.input[p].push_slices(bm.n_events as u64);
        self.stream.times(p, bm, a, b);
    }
}

/// Feed every event of the indexed stream to the one-scan [`Capture`],
/// block by block — one decode per block, timelines in order: the
/// streamed twin of [`Capture::of`], so what it finishes into, and any
/// error in it, is bit-identical to the capture of the decoded trace.
pub(super) fn capture_streamed(index: &StreamIndex, store: &ChunkStore) -> Result<Capture, PipelineError> {
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
    Ok(capture)
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
    /// Corrected values, kept while a reader still needs them.
    out: Vec<Lane<'a>>,
}

impl<'a> Sweep<'a> {
    fn new(mu: f64, out: Vec<Lane<'a>>) -> Sweep<'a> {
        let n = out.len();
        Sweep { mu, frontier: vec![0; n], prev: vec![None; n], out }
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
    /// `limit` steps, its input read from `src`;
    /// `on_jump(i, corrected, size)` sees each jump. Whether it moved.
    #[inline(always)]
    fn advance(
        &mut self,
        graph: &DepGraph,
        p: usize,
        upto: u64,
        limit: u64,
        src: &mut Source,
        mut on_jump: impl FnMut(u64, Time, Dur),
    ) -> bool {
        let start = self.frontier[p];
        let stop = upto.min(start.saturating_add(limit));
        let mut last = self.prev[p];
        while self.frontier[p] < stop {
            let i = self.frontier[p];
            let orig = Time::from_ps(src.get(p, i));
            let Some((corrected, jump)) = self.step(graph, p, orig, last) else {
                break;
            };
            last = Some((orig, corrected));
            if let Some(size) = jump {
                on_jump(i, corrected, size);
            }
        }
        self.prev[p] = last;
        self.frontier[p] != start
    }
}

/// Run the one cross-timeline forward sweep to the end of every timeline,
/// recording each jump per timeline in index order. Corrected values are
/// kept only while a remote consumer still needs them (the per-segment
/// read counters). Without backward amortization they are final, and
/// `emit` sends each block the frontier has passed; with it, nothing is
/// emitted here — [`apply_and_emit`] replays the values from the jumps.
fn forward_sweep(
    src: &mut Source<'_>,
    mut fwd: Sweep<'_>,
    graph: &DepGraph,
    cancel: &CancelToken,
    mut emit: Option<&mut Emitter<'_>>,
) -> Result<Vec<Vec<Found>>, PipelineError> {
    let lens = &src.stream.index.proc_lens;
    let n = lens.len();
    let mut found: Vec<Vec<Found>> = vec![Vec::new(); n];

    while (0..n).any(|p| fwd.frontier[p] < lens[p]) {
        cancel.check()?;
        let mut progressed = false;
        for p in 0..n {
            let burst = fwd.out[p].w;
            let record = |k, at, delta| found[p].push(Found { k, delta, at });
            progressed |= fwd.advance(graph, p, lens[p], burst, src, record);
            src.input[p].retire(fwd.frontier[p]);
            let mut done = fwd.frontier[p];
            if let Some(emit) = emit.as_deref_mut() {
                emit.blocks(p, done, &fwd.out[p], &mut src.stream)?;
                done = emit.emitted[p];
            }
            fwd.out[p].retire(done);
        }
        if !progressed {
            return Err(PipelineError::Clc(ClcError::CyclicTrace));
        }
    }
    Ok(found)
}

/// The finality check — the batch engine's μ = 1 certificate (DESIGN
/// §11.1) per event: whether the μ = 1 step would leave an event at its
/// walked time `c`, given its predecessor's (walked, final) pair `prev`
/// and its producers' final values (`None` while one is not final). It
/// would when the predecessor is final at its walked time, `c` is not below
/// it, the gap is under 2⁵² ps (below that `Dur::scale(1.0)` is exact) and
/// no producer's value plus its edge latency exceeds `c`.
#[inline(always)]
fn certified(
    c: Time,
    prev: Option<(Time, Time)>,
    srcs: Edges<'_>,
    value: impl Fn(u32) -> Option<i64>,
) -> Option<bool> {
    let mut holds = prev.is_none_or(|(walked, fin)| {
        walked == fin
            && c >= walked
            && c.saturating_since(walked) < Dur::from_ps(1 << 52)
    });
    for (src, lat) in srcs.iter() {
        holds &= Time::from_ps(value(src)?).saturating_add(Dur::from_ps(lat)) <= c;
    }
    Some(holds)
}

/// The backward path after the sweep (DESIGN §15.3), per timeline: the
/// replay of the forward values F, the walks over C, the safety frontier
/// `b` and the finality frontier behind it.
struct Apply<'a, 'g> {
    graph: &'g DepGraph,
    found: &'g [Vec<Found>],
    params: &'g ClcParams,
    /// F, the replayed forward values; a value owes one read per in-edge —
    /// the clamp of a walk visiting the producer — released when the
    /// producer's safety frontier passes it.
    fwd: Vec<Lane<'a>>,
    /// C, the walked values, rewritten in place where the certificate
    /// fails; a final value owes one read per out-edge (a consumer's
    /// finality check).
    walked: Vec<Lane<'a>>,
    at: Vec<Frontiers>,
    /// Events the certificate refused, and the time their μ = 1 steps took.
    resteps: usize,
    restep_time: Duration,
}

/// One timeline's frontiers in [`Apply`].
#[derive(Default)]
struct Frontiers {
    replayed: u64,
    /// How far the replay must reach for a walk to apply: the walk holding
    /// back the safety frontier, or an out-edge target `rwalk` waits on.
    need: u64,
    /// The last replayed event's (input, F) pair, and the next recorded
    /// jump the replay puts back.
    replay_prev: Option<(Time, Time)>,
    replay_jump: usize,
    /// Prefix whose out-edge targets are all replayed: a walk may clamp
    /// through any of them.
    rwalk: u64,
    next_walk: usize,
    /// `sufmin[j]` = min window start over the walks of the timeline's
    /// jumps `j..` and the jump index of the walk it is from: while walk
    /// `j` is the next unapplied one, every event at or below it is never
    /// written again and never visited.
    sufmin: Vec<(Time, u64)>,
    /// The safety frontier `b`.
    safe: u64,
    /// The finality frontier and its last event's (walked, final) pair.
    settled: u64,
    settle_prev: Option<(Time, Time)>,
}

impl<'a, 'g> Apply<'a, 'g> {
    fn new(
        graph: &'g DepGraph,
        found: &'g [Vec<Found>],
        params: &'g ClcParams,
        lanes: impl Fn() -> Vec<Lane<'a>>,
    ) -> Self {
        let at = found
            .iter()
            .map(|fs| {
                let mut sufmin: Vec<_> =
                    fs.iter().rev().map(|f| (f.walk(params).w_start, f.k)).collect();
                for j in 1..sufmin.len() {
                    sufmin[j] = std::cmp::min_by_key(sufmin[j - 1], sufmin[j], |&(w, _)| w);
                }
                sufmin.reverse();
                Frontiers { sufmin, ..Frontiers::default() }
            })
            .collect();
        Apply {
            graph,
            found,
            params,
            fwd: lanes(),
            walked: lanes(),
            at,
            resteps: 0,
            restep_time: Duration::ZERO,
        }
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
        src.decode_to(p, upto);
        let (graph, found, mu) = (self.graph, &self.found[p], self.params.mu);
        let (input, fwd, walked) = (&mut src.input[p], &mut self.fwd[p], &mut self.walked[p]);
        let base = graph.base(p);
        let (mut last, mut next) = (at.replay_prev, at.replay_jump);
        // Clamp reads armed per segment: one account per segment crossed.
        let (mut seg_end, mut owed) = ((start / fwd.w + 1) * fwd.w, 0i64);
        for i in start..upto {
            let orig = Time::from_ps(input.get(i));
            let f = match found.get(next) {
                Some(jump) if jump.k == i => {
                    next += 1;
                    jump.at
                }
                _ => candidate(orig, last, mu),
            };
            fwd.push(f.as_ps());
            walked.push(f.as_ps());
            if i == seg_end {
                fwd.owe(i - 1, owed);
                (seg_end, owed) = (seg_end + fwd.w, 0);
            }
            owed += graph.in_of(base + i as u32).len() as i64;
            last = Some((orig, f));
        }
        fwd.owe(upto - 1, owed);
        input.retire(upto);
        (at.replayed, at.replay_prev, at.replay_jump) = (upto, last, next);
        true
    }

    /// Timeline `p`'s walks: advance `rwalk`, apply every walk whose
    /// preconditions cleared (ascending by jump index, the batch
    /// application order), then advance the safety frontier past events at
    /// or below every remaining walk's window start — their clamp reads
    /// will not happen, so they are released. What holds either frontier
    /// back raises the replay's `need`. Whether anything moved.
    fn walk(&mut self, p: usize) -> bool {
        let graph = self.graph;
        let base = graph.base(p);
        let start = (self.at[p].rwalk, self.at[p].next_walk, self.at[p].safe);
        'rwalk: while self.at[p].rwalk < self.at[p].replayed {
            for (dst, _) in graph.out_of(base + self.at[p].rwalk as u32).iter() {
                let (q, j) = graph.locate(dst);
                if j as u64 >= self.at[q].replayed {
                    self.at[q].need = self.at[q].need.max(j as u64 + 1);
                    break 'rwalk;
                }
            }
            self.at[p].rwalk += 1;
        }
        while let Some(jump) = self.found[p].get(self.at[p].next_walk) {
            if !(self.at[p].replayed > jump.k && self.at[p].rwalk >= jump.k) {
                break;
            }
            let fwd = &self.fwd;
            backward_walk(&jump.walk(self.params), base, &mut self.walked[p], |g| {
                latest_allowed(graph.out_of(g), |dst| {
                    let (q, j) = graph.locate(dst);
                    fwd[q].get(j as u64)
                })
            });
            self.at[p].next_walk += 1;
        }
        let (below, k) = self.at[p].sufmin.get(self.at[p].next_walk).copied().unwrap_or((Time::MAX, 0));
        while self.at[p].safe < self.at[p].replayed {
            if Time::from_ps(self.walked[p].get(self.at[p].safe)) > below {
                self.at[p].need = self.at[p].need.max(k + 1);
                break;
            }
            for (dst, _) in graph.out_of(base + self.at[p].safe as u32).iter() {
                let (q, j) = graph.locate(dst);
                self.fwd[q].owe(j as u64, -1);
            }
            self.at[p].safe += 1;
        }
        start != (self.at[p].rwalk, self.at[p].next_walk, self.at[p].safe)
    }

    /// Advance timeline `p`'s finality frontier behind the safety frontier
    /// — one event short of it while walks remain, since a walk may still
    /// read its break element — until an event's producers are not all
    /// final. An event the certificate holds for is final at its walked
    /// time; one it refuses takes the μ = 1 step ([`Apply::restep`]).
    /// Whether it moved.
    #[inline(always)]
    fn settle(&mut self, p: usize) -> bool {
        let graph = self.graph;
        let base = graph.base(p);
        let walks_left = self.at[p].next_walk < self.found[p].len();
        let limit = self.at[p].safe - u64::from(walks_left && self.at[p].safe > 0);
        let start = self.at[p].settled;
        let mut last = self.at[p].settle_prev;
        while self.at[p].settled < limit {
            let i = self.at[p].settled;
            let gid = base + i as u32;
            let srcs = graph.in_of(gid);
            let c = Time::from_ps(self.walked[p].get(i));
            let value = |src| {
                let (q, j) = graph.locate(src);
                ((j as u64) < self.at[q].settled).then(|| self.walked[q].get(j as u64))
            };
            let Some(holds) = certified(c, last, srcs, value) else {
                break;
            };
            let fin = if holds { c } else { self.restep(p, i, c, last) };
            last = Some((c, fin));
            let owed = graph.out_of(gid).len();
            if owed > 0 {
                self.walked[p].owe(i, owed as i64);
            }
            for (src, _) in srcs.iter() {
                let (q, j) = graph.locate(src);
                self.walked[q].owe(j as u64, -1);
            }
            self.at[p].settled += 1;
        }
        self.at[p].settle_prev = last;
        self.at[p].settled != start
    }

    /// The μ = 1 step for event `i` of timeline `p`, walked to `c`, whose
    /// producers are final: what the batch engine's re-sweep gives it,
    /// written over the walked value in place.
    #[cold]
    #[inline(never)]
    fn restep(&mut self, p: usize, i: u64, c: Time, prev: Option<(Time, Time)>) -> Time {
        let t0 = Instant::now();
        let graph = self.graph;
        let srcs = graph.in_of(graph.base(p) + i as u32);
        let value = |src| {
            let (q, j) = graph.locate(src);
            Some(self.walked[q].get(j as u64))
        };
        let fin = forward_step(c, prev, 1.0, None, srcs, value, |_| {})
            .expect("a certified event's producers are final");
        self.walked[p].set(i, fin.as_ps());
        self.resteps += 1;
        self.restep_time += t0.elapsed();
        fin
    }
}

/// The backward path's epoch loop after the sweep. Per epoch: per timeline,
/// replay as far as emitting the next block or applying a pending walk
/// needs, and walk; then the finality frontiers to a fixpoint across
/// timelines; then, per timeline, emit the blocks wholly final and retire
/// what no reader needs: F once replayed and its clamp reads are released,
/// the walked lane once emitted and its finality reads are paid. Returns
/// the events the certificate refused and the time their steps took.
fn apply_and_emit(
    src: &mut Source<'_>,
    mut ap: Apply<'_, '_>,
    cancel: &CancelToken,
    emit: &mut Emitter<'_>,
) -> Result<(usize, Duration), PipelineError> {
    let index = src.stream.index;
    let lens = &index.proc_lens;
    let n = lens.len();
    // Extra reach past what the frontiers ask for, doubled by an epoch that
    // moves nothing: a safety net, since `need` and the next block name
    // what every frontier waits on.
    let mut reach = 0u64;
    while (0..n).any(|p| emit.emitted[p] < lens[p]) {
        cancel.check()?;
        let mut progressed = false;
        for (p, &len) in lens.iter().enumerate() {
            // Emitting the next block needs `b` one past its end.
            let next_end = index.proc_blocks[p].get(emit.next_block[p]).map_or(len, |&b| {
                let bm = &index.blocks[b as usize];
                bm.first_idx + bm.n_events as u64 + 1
            });
            let want = next_end.max(ap.at[p].need).saturating_add(reach);
            let upto = len.min(want).min(ap.at[p].replayed + ap.fwd[p].w);
            progressed |= ap.replay(p, upto.max(ap.at[p].replayed), src);
            progressed |= ap.walk(p);
        }
        while (0..n).fold(false, |moved, p| ap.settle(p) | moved) {
            progressed = true;
        }
        for p in 0..n {
            progressed |= emit.blocks(p, ap.at[p].settled, &ap.walked[p], &mut src.stream)?;
            ap.fwd[p].retire(ap.at[p].replayed);
            ap.walked[p].retire(emit.emitted[p]);
        }
        if !progressed {
            // The sweep already refused cyclic traces; with every timeline
            // replayed, the walks, frontiers and emission always drain.
            if (0..n).all(|p| ap.at[p].replayed == lens[p]) {
                return Err(PipelineError::Clc(ClcError::CyclicTrace));
            }
            reach = reach.max(1).saturating_mul(2);
        }
    }
    Ok((ap.resteps, ap.restep_time))
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
/// With the CLC, it also tracks per timeline the blocks sent and counts the
/// moved events of each against its input, decoded again.
struct Emitter<'a> {
    writer: FrameWriter,
    consume: &'a mut dyn FnMut(Vec<u8>) -> bool,
    frames: usize,
    events: u64,
    /// Per timeline: the next block to send, and the events sent.
    next_block: Vec<usize>,
    emitted: Vec<u64>,
    moved: usize,
    /// Time spent building block frames.
    time: Duration,
    times: Vec<i64>,
    input: Vec<i64>,
    scratch: Vec<u8>,
}

impl<'a> Emitter<'a> {
    /// Open the output stream of `n` timelines: emits the magic chunk.
    fn open(
        n: usize,
        consume: &'a mut dyn FnMut(Vec<u8>) -> bool,
    ) -> Result<Emitter<'a>, PipelineError> {
        let mut magic = Vec::new();
        let writer = FrameWriter::new(&mut magic);
        let mut emit = Emitter {
            writer,
            consume,
            frames: 0,
            events: 0,
            next_block: vec![0; n],
            emitted: vec![0; n],
            moved: 0,
            time: Duration::ZERO,
            times: Vec::new(),
            input: Vec::new(),
            scratch: Vec::new(),
        };
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

    /// Send timeline `p`'s blocks that lie wholly below `upto`, their
    /// final times read from `lane`, counting the events each moved against
    /// its input decoded again from `stream` (one transient block column,
    /// counted by the gauge). Whether any went.
    fn blocks(
        &mut self,
        p: usize,
        upto: u64,
        lane: &Lane,
        stream: &mut Stream,
    ) -> Result<bool, PipelineError> {
        let index = stream.index;
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
            let bytes = 8 * bm.n_events as u64;
            lane.mem.alloc(bytes);
            self.input.resize(bm.n_events as usize, 0);
            stream.times(p, bm, &mut self.input, &mut []);
            self.moved += count_moved(&times, &self.input);
            lane.mem.free(bytes);
            let mut scratch = std::mem::take(&mut self.scratch);
            let payload = stream.store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
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
        if consume(trailer) {
            Ok((frames, events))
        } else {
            Err(PipelineError::Cancelled)
        }
    }
}

/// The CLC-less path: re-emit every block in stream order with its presync
/// map applied; one transient column per block.
fn passthrough_emit(
    stream: &mut Stream,
    cancel: &CancelToken,
    mem: &MemGauge,
    emit: &mut Emitter<'_>,
) -> Result<(), PipelineError> {
    let mut scratch = Vec::new();
    let mut times: Vec<i64> = Vec::new();
    let index = stream.index;
    for bm in &index.blocks {
        cancel.check()?;
        let bytes = bm.n_events as u64 * 8;
        mem.alloc(bytes);
        times.resize(bm.n_events as usize, 0);
        let p = bm.timeline as usize;
        stream.times(p, bm, &mut times, &mut []);
        let payload = stream.store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
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
    let mut stream = Stream { index: &index, store: &store, maps: maps.as_deref(), scratch: Vec::new() };
    cancel.check()?;

    let mem = MemGauge::default();
    let (clc, (frames, events)) = match cfg.effective_clc() {
        None => {
            let t0 = Instant::now();
            let mut emit = Emitter::open(n, consume)?;
            passthrough_emit(&mut stream, cancel, &mem, &mut emit)?;
            let counts = emit.close()?;
            stats.stages.push(StageStats::new("emit", counts.1 as usize, t0.elapsed()));
            (None, counts)
        }
        Some(params) => {
            let t0 = Instant::now();
            let proc_lens: Vec<usize> = index.proc_lens.iter().map(|&l| l as usize).collect();
            let (msgs, instances) = capture_streamed(&index, &store)?.finish_table(&proc_lens, &table);
            let instances = instances.map_err(PipelineError::BadTrace)?;
            let msgs = msgs.map_err(|e| PipelineError::BadTrace(e.to_string()))?;
            stats
                .stages
                .push(StageStats::new("match", n_events, t0.elapsed()));

            let t0 = Instant::now();
            let graph = DepGraph::with_messages(Arc::new(msgs), &instances, &proc_lens, &table)
                .map_err(|e| PipelineError::BadTrace(e.to_string()))?;
            drop(instances);
            stats
                .stages
                .push(StageStats::new("lower", n_events, t0.elapsed()));

            let lanes = || Lane::per_timeline(&index, window_events, &mem);
            let sweep = Sweep::new(params.mu, lanes());
            let mut src = Source { stream, input: lanes(), next_block: vec![0; n] };
            let t0 = Instant::now();
            let (found, emit) = if params.backward {
                let found = forward_sweep(&mut src, sweep, &graph, cancel, None)?;
                stats.stages.push(StageStats::new("clc:discover", n_events, t0.elapsed()));
                let t0 = Instant::now();
                let mut emit = Emitter::open(n, consume)?;
                // The replay decodes the input from its first block again.
                (src.input, src.next_block) = (lanes(), vec![0; n]);
                let ap = Apply::new(&graph, &found, params, lanes);
                let (resteps, restep_time) = apply_and_emit(&mut src, ap, cancel, &mut emit)?;
                let apply_time = t0.elapsed().saturating_sub(emit.time + restep_time);
                stats.stages.push(StageStats::new("clc:apply", n_events, apply_time));
                if resteps > 0 {
                    stats.stages.push(StageStats::new("clc:resweep", resteps, restep_time));
                }
                (found, emit)
            } else {
                let mut emit = Emitter::open(n, consume)?;
                let found = forward_sweep(&mut src, sweep, &graph, cancel, Some(&mut emit))?;
                let apply_time = t0.elapsed().saturating_sub(emit.time);
                stats.stages.push(StageStats::new("clc:apply", n_events, apply_time));
                (found, emit)
            };
            let mut report = ClcReport::default();
            for (p, jumps) in found.iter().enumerate() {
                for jump in jumps {
                    report.jumps.push(Jump { event: EventId::new(p, jump.k as usize), size: jump.delta });
                    report.max_jump = report.max_jump.max(jump.delta);
                }
            }
            report.events_total = n_events;
            report.events_moved = emit.moved;
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

    /// Every window size against the batch engine, bit for bit. Beside a
    /// small mixed trace: the skewed mixed traces of the batch re-sweep's
    /// certificate test, where the per-event certificate holds everywhere,
    /// and the same with one timeline's first half moved 2⁶⁰ ps back, where
    /// it fails at the split and the μ = 1 step takes over (`clc:resweep`).
    #[test]
    fn windowed_matches_batch_for_every_window_size() {
        let cfg = cfg(Some(ClcParams::default()));
        let mut cases = vec![(mixed_trace(4, 12), 5, vec![1usize, 2, 3, 7, 64, 65_536], false)];
        for (procs, rounds) in [(2, 9), (5, 17), (8, 23)] {
            let skewed = mixed_trace(procs, rounds);
            let mut split = skewed.clone();
            let half = split.procs[1].events.len() / 2;
            for e in &mut split.procs[1].events[..half] {
                e.time = e.time.saturating_sub(Dur::from_ps(1 << 60));
            }
            cases.push((skewed, 4, vec![1, 7, 64, 65_536], false));
            cases.push((split, 4, vec![1, 7, 64, 65_536], true));
        }

        for (base, block, windows, resweeps) in cases {
            let n = base.n_procs();
            let bytes = to_binary_columnar_v3_blocked(&base, block);
            let mut batch = base.clone();
            let brep = synchronize(&mut batch, &vec![None; n], None, &LMIN, &cfg).unwrap();
            let bclc = brep.clc.unwrap();
            let mut bjumps = bclc.jumps.clone();
            bjumps.sort_by_key(|j| (j.event.p(), j.event.i()));

            for window in windows {
                let ctx = format!("{n} timelines, window {window}, resweeps {resweeps}");
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
                assert_eq!(rep.stats.stage("clc:resweep").is_some(), resweeps, "{ctx}");
            }
        }
    }

    /// The finality check refuses an event below its predecessor — no walk
    /// leaves one — with no producer and a small gap: the μ = 1 step would
    /// lift it to the predecessor. At or above it, the same event is final.
    #[test]
    fn an_unordered_event_is_not_final() {
        let mut t = Trace::for_ranks(1);
        t.procs[0].push(Time::ZERO, EventKind::Enter { region: tracefmt::RegionId(0) });
        let (matching, insts) = Capture::of(&t).finish();
        let graph = DepGraph::from_trace(&t, &matching, &insts.unwrap(), &LMIN);
        let edges = graph.in_of(0);
        let at = Time::from_us;
        let prev = Some((at(10), at(10)));
        assert_eq!(certified(at(9), prev, edges, |_| None), Some(false));
        assert_eq!(certified(at(10), prev, edges, |_| None), Some(true));
        assert_eq!(certified(at(11), prev, edges, |_| None), Some(true));
        // A predecessor the step moved leaves no successor final.
        assert_eq!(certified(at(11), Some((at(10), at(12))), edges, |_| None), Some(false));
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
