//! Incremental windowed CLC: stream corrected timestamps out with bounded
//! resident column memory.
//!
//! The batch pipeline gathers every timeline's full `i64` timestamp lane
//! before the CLC runs, so its resident set is O(trace). This engine
//! processes the stream in *epochs* over segment-backed lanes instead:
//!
//! * the input chunks are indexed once ([`index_columnar_chunks`]) — block
//!   offsets, per-timeline lengths — and re-read on demand through a
//!   zero-copy [`ChunkStore`]; the trace is never materialized;
//! * the forward pass advances each timeline at most `window_events` per
//!   round-robin epoch, ingesting blocks lazily and appending corrected
//!   times to fixed-width lane segments;
//! * a *carry frontier* of per-segment read counters tracks which corrected
//!   values remote consumers still need; a segment is retired (freed) the
//!   moment its frontier clears, so steady-state residency is
//!   O(window + dependency skew), not O(trace);
//! * with backward amortization enabled, a first sweep discovers every
//!   jump's backward-walk window so a second sweep can tell when a prefix
//!   of a timeline is *final* — no remaining walk can reach below the
//!   safety frontier `b` — and run the second forward pass and emission
//!   behind it;
//! * finalized blocks are re-encoded by [`FrameWriter`] with their payload
//!   bytes passed through verbatim and streamed out as self-contained
//!   chunks whose concatenation is a well-formed `DTC2`/`DTC3` stream.
//!
//! # Bit-identity with the batch engine
//!
//! The forward, backward and re-forward kernels are statement-level copies
//! of [`crate::clc::columnar`]'s; only the schedule differs (bounded
//! per-epoch bursts instead of run-to-block). The forward pass is
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
use crate::clc::graph::DepGraph;
use crate::clc::{ClcError, ClcParams, ClcReport, Jump};
use crate::offset::OffsetMeasurement;
use simclock::{Dur, Time};
use std::collections::VecDeque;
use std::time::Instant;
use tracefmt::io::{
    decode_block_kinds, decode_block_times, index_columnar_chunks, ChunkStore, FrameWriter,
    StreamIndex,
};
use tracefmt::{
    assemble_collective_instances, group_calls_by_comm, CollectiveScanner, EventId, EventKind,
    MessageMatcher, MinLatency, Rank,
};

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

/// High-water gauge over the lane segments' allocations.
#[derive(Default)]
struct MemGauge {
    cur: u64,
    peak: u64,
}

impl MemGauge {
    fn alloc(&mut self, bytes: u64) {
        self.cur += bytes;
        if self.cur > self.peak {
            self.peak = self.cur;
        }
    }

    fn free(&mut self, bytes: u64) {
        self.cur -= bytes;
    }
}

/// An append-only `i64` lane stored as fixed-width segments that can be
/// retired from the front once no frontier needs them. Indices are
/// *logical* (stable across retirement); reading a retired index is a bug
/// caught by the debug assert.
struct Lane {
    w: u64,
    first_seg: u64,
    segs: VecDeque<Box<[i64]>>,
    /// Logical length: total values ever pushed.
    len: u64,
}

impl Lane {
    fn new(window: usize) -> Lane {
        Lane { w: window as u64, first_seg: 0, segs: VecDeque::new(), len: 0 }
    }

    fn push(&mut self, v: i64, mem: &mut MemGauge) {
        if self.len.is_multiple_of(self.w) {
            self.segs.push_back(vec![0i64; self.w as usize].into_boxed_slice());
            mem.alloc(8 * self.w);
        }
        let seg = (self.len / self.w - self.first_seg) as usize;
        self.segs[seg][(self.len % self.w) as usize] = v;
        self.len += 1;
    }

    fn get(&self, i: u64) -> i64 {
        debug_assert!(i < self.len, "lane read past frontier");
        debug_assert!(i / self.w >= self.first_seg, "lane read of retired segment");
        self.segs[(i / self.w - self.first_seg) as usize][(i % self.w) as usize]
    }

    fn set(&mut self, i: u64, v: i64) {
        debug_assert!(i < self.len, "lane write past frontier");
        debug_assert!(i / self.w >= self.first_seg, "lane write to retired segment");
        self.segs[(i / self.w - self.first_seg) as usize][(i % self.w) as usize] = v;
    }

    /// Logical end index of the head (oldest retained) segment.
    fn head_end(&self) -> Option<u64> {
        if self.segs.is_empty() {
            None
        } else {
            Some((self.first_seg + 1) * self.w)
        }
    }

    fn pop_head(&mut self, mem: &mut MemGauge) {
        self.segs.pop_front().expect("pop of empty lane");
        self.first_seg += 1;
        mem.free(8 * self.w);
    }

    fn drain(&mut self, mem: &mut MemGauge) {
        while !self.segs.is_empty() {
            self.pop_head(mem);
        }
    }
}

/// Reads still pending on each resident segment of one lane: a deque
/// aligned with the lane's segments, `reads[seg − first_seg]`. Running
/// sums — a read may be released before the segment it targets is pushed
/// (the deque grows ahead of the lane) or before the segment's own
/// additions land (an entry may dip negative until its frontier passes).
#[derive(Clone, Default)]
struct SegReads {
    first_seg: u64,
    reads: VecDeque<i64>,
}

impl SegReads {
    #[inline]
    fn add(&mut self, seg: u64, delta: i64) {
        // A segment retires only after its last read, so nothing is ever
        // accounted to one that is gone.
        let Some(at) = seg.checked_sub(self.first_seg) else {
            debug_assert!(false, "read accounted to a retired segment");
            return;
        };
        let at = at as usize;
        if at >= self.reads.len() {
            self.reads.resize(at + 1, 0);
        }
        self.reads[at] += delta;
    }
}

/// Retire head segments up to `upto` once their outstanding-read counter
/// clears.
fn retire_counted(lane: &mut Lane, upto: u64, cnt: &mut SegReads, mem: &mut MemGauge) {
    while let Some(end) = lane.head_end() {
        debug_assert_eq!(cnt.first_seg, lane.first_seg);
        if end <= upto && cnt.reads.front().is_none_or(|&pending| pending == 0) {
            cnt.reads.pop_front();
            cnt.first_seg += 1;
            lane.pop_head(mem);
        } else {
            break;
        }
    }
}

/// Retire head segments wholly below `upto` (no read accounting).
fn retire_plain(lane: &mut Lane, upto: u64, mem: &mut MemGauge) {
    while lane.head_end().is_some_and(|end| end <= upto) {
        lane.pop_head(mem);
    }
}

/// One backward walk discovered by the first sweep: everything the second
/// sweep needs to run [`backward_pass`] for a jump without re-deriving it.
#[derive(Debug, Clone, Copy)]
struct WJump {
    /// Timeline-local index of the jump event (always > 0; index-0 jumps
    /// have no walk).
    k: u64,
    /// Jump size.
    delta: Dur,
    /// Amortization window (`delta × backward_window_factor`).
    window: Dur,
    /// Window start in ps: `r − delta − window` with the batch kernel's
    /// exact saturation sequence. Events at or below this time are never
    /// written by the walk.
    w_start: i64,
}

/// Decode timeline `p`'s next block, apply its presync map, and append the
/// times to `orig`. Returns false when the timeline has no blocks left.
#[allow(clippy::too_many_arguments)]
fn ingest_block(
    index: &StreamIndex,
    store: &ChunkStore,
    maps: Option<&[PresyncMap]>,
    p: usize,
    next_block: &mut usize,
    orig: &mut Lane,
    mem: &mut MemGauge,
    scratch: &mut Vec<u8>,
    tmp: &mut Vec<i64>,
) -> bool {
    let list = &index.proc_blocks[p];
    if *next_block >= list.len() {
        return false;
    }
    let bm = &index.blocks[list[*next_block] as usize];
    *next_block += 1;
    tmp.clear();
    let seg = store.read(bm.times_off, bm.n_events as usize * 8, scratch);
    decode_block_times(index.version, seg, tmp);
    if let Some(maps) = maps {
        maps[p].map_col(tmp);
    }
    for &v in tmp.iter() {
        orig.push(v, mem);
    }
    true
}

/// Reconstruct the communication structure straight from the indexed
/// stream: the streamed twin of [`TraceAnalysis::capture`], feeding the
/// same order-based matcher and scanner block by block — one decode per
/// block, timelines in order — so the analysis is bit-identical to the
/// batch analysis of the decoded trace.
pub(super) fn capture_analysis_streamed(
    index: &StreamIndex,
    store: &ChunkStore,
) -> Result<TraceAnalysis, PipelineError> {
    let n = index.locations.len();
    let mut matcher = MessageMatcher::new();
    let mut per_timeline = Vec::with_capacity(n);
    let mut scratch = Vec::new();
    let mut kinds: Vec<EventKind> = Vec::new();

    for p in 0..n {
        let rank = index.locations[p].rank;
        let mut scanner = CollectiveScanner::new(p, rank);
        for &bidx in &index.proc_blocks[p] {
            let bm = &index.blocks[bidx as usize];
            kinds.clear();
            let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
            decode_block_kinds(index.version, payload, bm.n_events as usize, &mut kinds)
                .map_err(PipelineError::Codec)?;
            for (j, kind) in kinds.iter().enumerate() {
                let i = bm.first_idx as usize + j;
                matcher.feed(rank, p, i, kind);
                scanner.feed(i, kind).map_err(PipelineError::BadTrace)?;
            }
        }
        per_timeline.push(scanner.finish());
    }
    let mut instances = Vec::new();
    for (comm, lists) in group_calls_by_comm(per_timeline) {
        instances.extend(
            assemble_collective_instances(comm, &lists).map_err(PipelineError::BadTrace)?,
        );
    }
    Ok(TraceAnalysis { matching: matcher.finish(), instances })
}

/// Sweep 1 (backward path only): run the forward pass once, with bounded
/// lookback, purely to *discover* every jump's backward walk. Corrected
/// values are kept only while a remote consumer still needs them (the
/// per-segment read counters); nothing is emitted.
#[allow(clippy::too_many_arguments)]
fn discover_walks(
    index: &StreamIndex,
    store: &ChunkStore,
    maps: Option<&[PresyncMap]>,
    graph: &DepGraph,
    params: &ClcParams,
    window: usize,
    cancel: &CancelToken,
    mem: &mut MemGauge,
) -> Result<Vec<Vec<WJump>>, PipelineError> {
    let n = index.locations.len();
    let w = window as u64;
    let lens = &index.proc_lens;
    let mut orig: Vec<Lane> = (0..n).map(|_| Lane::new(window)).collect();
    let mut corr: Vec<Lane> = (0..n).map(|_| Lane::new(window)).collect();
    let mut f1 = vec![0u64; n];
    let mut next_block = vec![0usize; n];
    let mut prev_orig = vec![Time::MIN; n];
    let mut prev_corr = vec![Time::MIN; n];
    let mut cnt = vec![SegReads::default(); n];
    let mut walks: Vec<Vec<WJump>> = vec![Vec::new(); n];
    let mut scratch = Vec::new();
    let mut tmp = Vec::new();

    loop {
        cancel.check()?;
        let mut progressed = false;
        for p in 0..n {
            let gbase = graph.base(p);
            let mut burst = 0u64;
            'events: while f1[p] < lens[p] && burst < w {
                if f1[p] == orig[p].len {
                    let ok = ingest_block(
                        index, store, maps, p, &mut next_block[p], &mut orig[p], mem,
                        &mut scratch, &mut tmp,
                    );
                    debug_assert!(ok, "index accounts for every event");
                    if !ok {
                        break 'events;
                    }
                }
                let i = f1[p];
                let gid = gbase + i as u32;
                let orig_t = Time::from_ps(orig[p].get(i));

                // Remote constraint: max over in-edge producers, in
                // dependency-dispatch order (same blocking producer as the
                // batch kernel).
                let mut remote: Option<Time> = None;
                let srcs = graph.in_of(gid);
                for (src, lat) in srcs.iter() {
                    let ps = graph.proc_of(src);
                    let si = (src - graph.base(ps)) as u64;
                    if si >= f1[ps] {
                        break 'events; // producer not yet corrected
                    }
                    let c = Time::from_ps(corr[ps].get(si)).saturating_add(Dur::from_ps(lat));
                    remote = Some(remote.map_or(c, |b: Time| b.max(c)));
                }

                let candidate = if i == 0 {
                    orig_t
                } else {
                    let gap = orig_t.saturating_since(prev_orig[p]).max(Dur::ZERO);
                    orig_t.max(prev_corr[p].saturating_add(gap.scale(params.mu)))
                };
                let corrected = match remote {
                    Some(r) if r > candidate => {
                        let size = r.saturating_since(candidate);
                        if i > 0 {
                            // Precompute the walk window with the batch
                            // kernel's exact saturation sequence: at walk
                            // time `col[k]` still holds this forward value
                            // `r`, so `w_start = (r − delta) − window`.
                            let wdur = size.scale(params.backward_window_factor);
                            let w_start = r.saturating_sub(size).saturating_sub(wdur);
                            walks[p].push(WJump {
                                k: i,
                                delta: size,
                                window: wdur,
                                w_start: w_start.as_ps(),
                            });
                        }
                        r
                    }
                    _ => candidate,
                };

                corr[p].push(corrected.as_ps(), mem);
                let out_deg = graph.out_of(gid).len() as i64;
                if out_deg > 0 {
                    cnt[p].add(i / w, out_deg);
                }
                // The remote reads above are now accountable: exactly one
                // per in-edge, never repeated (a blocked scan commits
                // nothing).
                for (src, _) in srcs.iter() {
                    let ps = graph.proc_of(src);
                    let si = (src - graph.base(ps)) as u64;
                    cnt[ps].add(si / w, -1);
                }
                prev_orig[p] = orig_t;
                prev_corr[p] = corrected;
                f1[p] += 1;
                burst += 1;
                progressed = true;
            }
            retire_plain(&mut orig[p], f1[p], mem);
            retire_counted(&mut corr[p], f1[p], &mut cnt[p], mem);
        }
        if (0..n).all(|p| f1[p] == lens[p]) {
            break;
        }
        if !progressed {
            return Err(PipelineError::Clc(ClcError::CyclicTrace));
        }
    }
    for p in 0..n {
        orig[p].drain(mem);
        corr[p].drain(mem);
    }
    Ok(walks)
}

/// One backward walk over the lanes: the statement-level twin of the batch
/// `backward_pass_csr` body for a single jump. `postb` is the timeline's
/// mutable post-forward lane; `snap` holds every timeline's immutable
/// forward snapshot for the clamp reads.
fn backward_walk(p: usize, wj: &WJump, graph: &DepGraph, postb: &mut [Lane], snap: &[Lane]) {
    let gbase = graph.base(p);
    let w_start = Time::from_ps(wj.w_start);
    let mut shift_above = wj.delta;
    let mut i = wj.k;
    while i > 0 {
        i -= 1;
        let t_i = Time::from_ps(postb[p].get(i));
        if t_i <= w_start {
            break;
        }
        let frac = t_i.saturating_since(w_start).as_ps() as f64
            / wj.window.as_ps().max(1) as f64;
        let ramp = wj.delta.scale(frac.clamp(0.0, 1.0));
        let mut cap = Dur::MAX;
        for (dst, lat) in graph.out_of(gbase + i as u32).iter() {
            let pd = graph.proc_of(dst);
            let di = (dst - graph.base(pd)) as u64;
            cap = cap.min(
                Time::from_ps(snap[pd].get(di))
                    .saturating_sub(Dur::from_ps(lat))
                    .saturating_since(t_i),
            );
        }
        let shift = ramp.min(cap).min(shift_above).max(Dur::ZERO);
        postb[p].set(i, t_i.saturating_add(shift).as_ps());
        shift_above = shift;
        if shift == Dur::ZERO {
            break;
        }
    }
}

/// Where corrected output chunks go: accumulated in memory (the default),
/// or handed to a caller sink chunk by chunk *while the run progresses* —
/// the seam the network service streams `CorrectedFrame`s through. Chunk
/// indices are dense from 0 (the magic chunk) through the trailer, and the
/// sequence is deterministic for a given input, so a retried run re-emits
/// identical chunks at identical indices and the sink can deduplicate with
/// a high-water mark. A sink returning `false` aborts the run with
/// [`PipelineError::Cancelled`] (a stalled consumer cancels *its own* job,
/// never wedges the engine).
enum Emit<'a> {
    Collect(Vec<Vec<u8>>),
    Sink {
        sink: &'a (dyn Fn(u64, &[u8]) -> bool + 'a),
        next: u64,
    },
}

impl Emit<'_> {
    fn push(&mut self, chunk: Vec<u8>) -> Result<(), PipelineError> {
        match self {
            Emit::Collect(out) => out.push(chunk),
            Emit::Sink { sink, next } => {
                if !sink(*next, &chunk) {
                    return Err(PipelineError::Cancelled);
                }
                *next += 1;
            }
        }
        Ok(())
    }

    fn into_chunks(self) -> Vec<Vec<u8>> {
        match self {
            Emit::Collect(out) => out,
            Emit::Sink { .. } => Vec::new(),
        }
    }
}

/// Everything [`apply_and_emit`] returns besides the stats its caller
/// records.
struct ApplyOutcome {
    out: Vec<Vec<u8>>,
    report: ClcReport,
    frames: usize,
    events: u64,
    emit_seconds: f64,
}

/// Sweep 2: the full windowed CLC with emission. Per epoch and timeline,
/// in order: (1) advance the forward frontier `f1` (into the snapshot
/// lane, duplicated into the walk lane on the backward path); (2) advance
/// `rwalk`, the prefix whose out-edge targets are all corrected (a walk
/// for jump `k` may clamp against any of them); (3) apply every walk whose
/// preconditions cleared, ascending; (4) advance the safety frontier `b`
/// past events at or below every *remaining* walk's window start — final
/// values no walk will touch again; (5) re-run the forward pass `f2` with
/// `mu = 1` over the walked values behind `b`; (6) emit blocks wholly
/// behind the finalization horizon; (7) retire cleared segments.
///
/// Without backward amortization, steps 2–5 vanish and the horizon is `f1`
/// itself.
#[allow(clippy::too_many_arguments)]
fn apply_and_emit(
    index: &StreamIndex,
    store: &ChunkStore,
    maps: Option<&[PresyncMap]>,
    graph: &DepGraph,
    params: &ClcParams,
    walks: &[Vec<WJump>],
    window: usize,
    cancel: &CancelToken,
    mem: &mut MemGauge,
    sink: Option<&FrameSink<'_>>,
) -> Result<ApplyOutcome, PipelineError> {
    let n = index.locations.len();
    let w = window as u64;
    let backward = params.backward;
    let lens = &index.proc_lens;

    let mut orig: Vec<Lane> = (0..n).map(|_| Lane::new(window)).collect();
    let mut snap: Vec<Lane> = (0..n).map(|_| Lane::new(window)).collect();
    let mut postb: Vec<Lane> = (0..n).map(|_| Lane::new(window)).collect();
    let mut f2v: Vec<Lane> = (0..n).map(|_| Lane::new(window)).collect();
    let mut f1 = vec![0u64; n];
    let mut next_block = vec![0usize; n];
    let mut prev_orig = vec![Time::MIN; n];
    let mut prev_corr = vec![Time::MIN; n];
    let mut cnt_snap = vec![SegReads::default(); n];
    // Backward-path frontiers.
    let mut rwalk = vec![0u64; n];
    let mut next_walk = vec![0usize; n];
    let mut b = vec![0u64; n];
    let mut f2 = vec![0u64; n];
    let mut prev_post = vec![Time::MIN; n];
    let mut prev_f2 = vec![Time::MIN; n];
    let mut cnt_f2 = vec![SegReads::default(); n];
    // Emission state.
    let mut emit_block = vec![0usize; n];
    let mut emitted = vec![0u64; n];

    // sufmin[p][j] = min window start over walks[p][j..]: while walk j is
    // the next unapplied one, every event at or below sufmin[p][j] is
    // final (no remaining walk writes it or clamps through its out-edges).
    let sufmin: Vec<Vec<i64>> = walks
        .iter()
        .map(|ws| {
            let mut m = vec![0i64; ws.len()];
            let mut cur = i64::MAX;
            for j in (0..ws.len()).rev() {
                cur = cur.min(ws[j].w_start);
                m[j] = cur;
            }
            m
        })
        .collect();

    let mut report = ClcReport::default();
    let mut magic = Vec::new();
    let mut writer = FrameWriter::new(index.version, &mut magic);
    let mut out = match sink {
        Some(sink) => Emit::Sink { sink, next: 0 },
        None => Emit::Collect(Vec::new()),
    };
    out.push(magic)?;
    let mut frames = 0usize;
    let mut events = 0u64;
    let mut emit_seconds = 0f64;
    let mut scratch = Vec::new();
    let mut tmp = Vec::new();
    let mut times: Vec<i64> = Vec::new();

    loop {
        cancel.check()?;
        let mut progressed = false;
        for p in 0..n {
            let gbase = graph.base(p);

            // (1) Forward frontier — the same kernel as sweep 1, writing
            // the snapshot lane (and its walk copy). On the backward path
            // each event also arms one potential clamp read per in-edge,
            // released when the safety frontier passes the *source* (step
            // 4): a walk visiting the source would read this event's
            // snapshot value.
            let mut burst = 0u64;
            'events: while f1[p] < lens[p] && burst < w {
                if f1[p] == orig[p].len {
                    let ok = ingest_block(
                        index, store, maps, p, &mut next_block[p], &mut orig[p], mem,
                        &mut scratch, &mut tmp,
                    );
                    debug_assert!(ok, "index accounts for every event");
                    if !ok {
                        break 'events;
                    }
                }
                let i = f1[p];
                let gid = gbase + i as u32;
                let orig_t = Time::from_ps(orig[p].get(i));

                let mut remote: Option<Time> = None;
                let srcs = graph.in_of(gid);
                for (src, lat) in srcs.iter() {
                    let ps = graph.proc_of(src);
                    let si = (src - graph.base(ps)) as u64;
                    if si >= f1[ps] {
                        break 'events;
                    }
                    let c = Time::from_ps(snap[ps].get(si)).saturating_add(Dur::from_ps(lat));
                    remote = Some(remote.map_or(c, |b: Time| b.max(c)));
                }

                let candidate = if i == 0 {
                    orig_t
                } else {
                    let gap = orig_t.saturating_since(prev_orig[p]).max(Dur::ZERO);
                    orig_t.max(prev_corr[p].saturating_add(gap.scale(params.mu)))
                };
                let corrected = match remote {
                    Some(r) if r > candidate => {
                        let size = r.saturating_since(candidate);
                        report.jumps.push(Jump { event: EventId::new(p, i as usize), size });
                        report.max_jump = report.max_jump.max(size);
                        r
                    }
                    _ => candidate,
                };

                snap[p].push(corrected.as_ps(), mem);
                if backward {
                    postb[p].push(corrected.as_ps(), mem);
                }
                let gid_u32 = gid;
                let out_deg = graph.out_of(gid_u32).len() as i64;
                let in_deg = srcs.len() as i64;
                let adds = out_deg + if backward { in_deg } else { 0 };
                if adds > 0 {
                    cnt_snap[p].add(i / w, adds);
                }
                for (src, _) in srcs.iter() {
                    let ps = graph.proc_of(src);
                    let si = (src - graph.base(ps)) as u64;
                    cnt_snap[ps].add(si / w, -1);
                }
                prev_orig[p] = orig_t;
                prev_corr[p] = corrected;
                f1[p] += 1;
                burst += 1;
                progressed = true;
            }

            if backward {
                // (2) rwalk: prefix of events whose out-edge targets are
                // all corrected — a walk may clamp through any of them.
                'rw: while rwalk[p] < f1[p] {
                    for (dst, _) in graph.out_of(gbase + rwalk[p] as u32).iter() {
                        let pd = graph.proc_of(dst);
                        if ((dst - graph.base(pd)) as u64) >= f1[pd] {
                            break 'rw;
                        }
                    }
                    rwalk[p] += 1;
                    progressed = true;
                }

                // (3) Apply ready walks, ascending by jump index — the
                // batch per-timeline application order.
                while next_walk[p] < walks[p].len() {
                    let wj = walks[p][next_walk[p]];
                    if !(f1[p] > wj.k && rwalk[p] >= wj.k) {
                        break;
                    }
                    backward_walk(p, &wj, graph, &mut postb, &snap);
                    next_walk[p] += 1;
                    progressed = true;
                }

                // (4) Safety frontier: an event at or below every
                // remaining walk's window start is never written again and
                // never visited, so its pending clamp reads (one per
                // out-edge) will not happen — release them.
                let cur_sufmin = if next_walk[p] < walks[p].len() {
                    sufmin[p][next_walk[p]]
                } else {
                    i64::MAX
                };
                while b[p] < f1[p] && postb[p].get(b[p]) <= cur_sufmin {
                    for (dst, _) in graph.out_of(gbase + b[p] as u32).iter() {
                        let pd = graph.proc_of(dst);
                        let di = (dst - graph.base(pd)) as u64;
                        cnt_snap[pd].add(di / w, -1);
                    }
                    b[p] += 1;
                    progressed = true;
                }

                // (5) Second forward pass behind the safety frontier:
                // originals are the walked values, mu = 1 (the literal
                // `scale(1.0)` of the batch kernel, for float identity).
                'f2: while f2[p] < b[p] {
                    let i = f2[p];
                    let gid = gbase + i as u32;
                    let orig_t = Time::from_ps(postb[p].get(i));

                    let mut remote: Option<Time> = None;
                    let srcs = graph.in_of(gid);
                    for (src, lat) in srcs.iter() {
                        let ps = graph.proc_of(src);
                        let si = (src - graph.base(ps)) as u64;
                        if si >= f2[ps] {
                            break 'f2;
                        }
                        let c =
                            Time::from_ps(f2v[ps].get(si)).saturating_add(Dur::from_ps(lat));
                        remote = Some(remote.map_or(c, |bnd: Time| bnd.max(c)));
                    }

                    let candidate = if i == 0 {
                        orig_t
                    } else {
                        let gap = orig_t.saturating_since(prev_post[p]).max(Dur::ZERO);
                        orig_t.max(prev_f2[p].saturating_add(gap.scale(1.0)))
                    };
                    let corrected = match remote {
                        Some(r) if r > candidate => r,
                        _ => candidate,
                    };

                    f2v[p].push(corrected.as_ps(), mem);
                    let out_deg = graph.out_of(gid).len() as i64;
                    if out_deg > 0 {
                        cnt_f2[p].add(i / w, out_deg);
                    }
                    for (src, _) in srcs.iter() {
                        let ps = graph.proc_of(src);
                        let si = (src - graph.base(ps)) as u64;
                        cnt_f2[ps].add(si / w, -1);
                    }
                    prev_post[p] = orig_t;
                    prev_f2[p] = corrected;
                    f2[p] += 1;
                    progressed = true;
                }
            }

            // (6) Emit blocks wholly behind the finalization horizon,
            // payload bytes verbatim.
            let done = if backward { f2[p] } else { f1[p] };
            while emit_block[p] < index.proc_blocks[p].len() {
                let bm = &index.blocks[index.proc_blocks[p][emit_block[p]] as usize];
                let end = bm.first_idx + bm.n_events as u64;
                if end > done {
                    break;
                }
                let te = Instant::now();
                times.clear();
                let lane = if backward { &f2v[p] } else { &snap[p] };
                for j in bm.first_idx..end {
                    let v = lane.get(j);
                    if v != orig[p].get(j) {
                        report.events_moved += 1;
                    }
                    times.push(v);
                }
                let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
                let mut frame = Vec::new();
                writer.frame(&mut frame, index.locations[p], &times, payload);
                frames += 1;
                events += bm.n_events as u64;
                emitted[p] = end;
                emit_block[p] += 1;
                emit_seconds += te.elapsed().as_secs_f64();
                out.push(frame)?;
                progressed = true;
            }

            // (7) Retirement: originals once emitted (the moved-event
            // comparison was their last read); the snapshot once its
            // frontier passed and the carry counter cleared (and, without
            // the backward path, once emitted — it is the emission lane);
            // the walk lane once re-forwarded and strictly behind the
            // safety frontier (a walk may still *read* its break element);
            // the f2 lane once emitted and drained by remote consumers.
            retire_plain(&mut orig[p], emitted[p], mem);
            let snap_upto = if backward { f1[p] } else { emitted[p] };
            retire_counted(&mut snap[p], snap_upto, &mut cnt_snap[p], mem);
            if backward {
                retire_plain(&mut postb[p], f2[p].min(b[p].saturating_sub(1)), mem);
                retire_counted(&mut f2v[p], emitted[p], &mut cnt_f2[p], mem);
            }
        }

        if (0..n).all(|p| emitted[p] == lens[p]) {
            break;
        }
        if !progressed {
            // Only an unsatisfiable forward dependency can wedge every
            // frontier at once: the walk/safety/re-forward/emission chain
            // always drains once `f1` completes.
            return Err(PipelineError::Clc(ClcError::CyclicTrace));
        }
    }

    let mut trailer = Vec::new();
    writer.finish(&mut trailer);
    out.push(trailer)?;
    for p in 0..n {
        orig[p].drain(mem);
        snap[p].drain(mem);
        postb[p].drain(mem);
        f2v[p].drain(mem);
    }
    report.events_total = index.n_events() as usize;
    report.jumps.sort_by_key(|j| (j.event.p(), j.event.i()));
    Ok(ApplyOutcome { out: out.into_chunks(), report, frames, events, emit_seconds })
}

/// The CLC-less path: re-emit every block in stream order with its presync
/// map applied; one transient column per block.
fn passthrough_emit(
    index: &StreamIndex,
    store: &ChunkStore,
    maps: Option<&[PresyncMap]>,
    cancel: &CancelToken,
    mem: &mut MemGauge,
    sink: Option<&FrameSink<'_>>,
) -> Result<(Vec<Vec<u8>>, usize, u64), PipelineError> {
    let mut magic = Vec::new();
    let mut writer = FrameWriter::new(index.version, &mut magic);
    let mut out = match sink {
        Some(sink) => Emit::Sink { sink, next: 0 },
        None => Emit::Collect(Vec::new()),
    };
    out.push(magic)?;
    let mut frames = 0usize;
    let mut events = 0u64;
    let mut scratch = Vec::new();
    let mut times: Vec<i64> = Vec::new();
    for bm in &index.blocks {
        cancel.check()?;
        let bytes = bm.n_events as u64 * 8;
        mem.alloc(bytes);
        times.clear();
        let seg = store.read(bm.times_off, bm.n_events as usize * 8, &mut scratch);
        decode_block_times(index.version, seg, &mut times);
        let p = bm.timeline as usize;
        if let Some(maps) = maps {
            maps[p].map_col(&mut times);
        }
        let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
        let mut frame = Vec::new();
        writer.frame(&mut frame, index.locations[p], &times, payload);
        frames += 1;
        events += bm.n_events as u64;
        mem.free(bytes);
        out.push(frame)?;
    }
    let mut trailer = Vec::new();
    writer.finish(&mut trailer);
    out.push(trailer)?;
    Ok((out.into_chunks(), frames, events))
}

/// Run the pipeline incrementally over a chunked columnar stream and
/// stream the corrected trace back out with bounded resident memory.
///
/// The input is the same `DTC2`/`DTC3` chunk sequence
/// [`synchronize_stream`] accepts; the output is a chunk sequence of the
/// same version — magic, one chunk per re-encoded block frame, trailer —
/// whose concatenation is a well-formed stream (frames interleave across
/// timelines in finalization order; per-timeline block order is
/// preserved, which is all the format requires). Corrected timestamps are
/// bit-identical to the batch pipeline's for **every** `window_events ≥ 1`;
/// the window only bounds how much column state stays resident
/// ([`PipelineStats::peak_resident_column_bytes`]). See the module docs
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
    run_incremental(chunks, init, fin, lmin, cfg, window_events, cancel, None)
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
    run_incremental(chunks, init, fin, lmin, cfg, window_events, cancel, Some(sink))
        .map(|(_, report)| report)
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
    sink: Option<&FrameSink<'_>>,
) -> Result<(Vec<Vec<u8>>, IncrementalReport), PipelineError> {
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

    let mut mem = MemGauge::default();
    let (out, clc, frames, events) = match cfg.effective_clc() {
        None => {
            let t0 = Instant::now();
            let (out, frames, events) =
                passthrough_emit(&index, &store, maps, cancel, &mut mem, sink)?;
            stats.stages.push(StageStats::new("emit", events as usize, t0.elapsed()));
            (out, None, frames, events)
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

            let walks = if params.backward {
                let t0 = Instant::now();
                let walks = discover_walks(
                    &index, &store, maps, &graph, params, window_events, cancel, &mut mem,
                )?;
                stats
                    .stages
                    .push(StageStats::new("clc:discover", n_events, t0.elapsed()));
                walks
            } else {
                vec![Vec::new(); n]
            };

            let t0 = Instant::now();
            let oc = apply_and_emit(
                &index, &store, maps, &graph, params, &walks, window_events, cancel, &mut mem,
                sink,
            )?;
            stats.stages.push(StageStats {
                name: "clc:apply",
                items: n_events,
                seconds: (t0.elapsed().as_secs_f64() - oc.emit_seconds).max(0.0),
                shards: 1,
            });
            stats.stages.push(StageStats {
                name: "emit",
                items: oc.events as usize,
                seconds: oc.emit_seconds,
                shards: 1,
            });
            (oc.out, Some(oc.report), oc.frames, oc.events)
        }
    };

    debug_assert_eq!(mem.cur, 0, "every lane segment returned to the gauge");
    stats.peak_resident_column_bytes = mem.peak;
    stats.total_seconds = t_total.elapsed().as_secs_f64();
    Ok((
        out,
        IncrementalReport { clc, stats, frames, events: events as usize },
    ))
}

#[cfg(test)]
mod tests {
    use super::super::{synchronize, PipelineConfig, PreSync};
    use super::*;
    use crate::clc::fixtures::mixed_trace;
    use simclock::Dur;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use tracefmt::io::{
        from_binary_columnar, to_binary_columnar_blocked, to_binary_columnar_v3_blocked,
    };
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
    fn v2_stream_roundtrips_through_the_windowed_engine() {
        let base = mixed_trace(3, 8);
        let bytes = to_binary_columnar_blocked(&base, 4);
        let cfg = cfg(Some(ClcParams::default()));

        let mut batch = base.clone();
        synchronize(&mut batch, &[None; 3], None, &LMIN, &cfg).unwrap();

        let (back, _) = run_incremental(&bytes, 3, &cfg, 3);
        assert_times_match(&batch, &back, "v2 window 3");
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
