//! Admission charges what a job pins: `syncd::estimate_job_cost` against
//! the peak live heap of the job it prices, counted rather than timed.
//!
//! A job pins its input stream and everything it allocates on top of it,
//! so the estimate must cover the stream's bytes plus the job's peak above
//! them. Two jobs, the benchmark's shapes: the `pop_batch` input encoded as
//! `DTC3` through `synchronize_stream`, and a 16-timeline
//! 100 000-message point-to-point stream through the windowed engine. The
//! same test holds the windowed job's dependency graph to its structural
//! budget. One `#[test]` on purpose: the counters are process-wide, and a
//! second test running on another thread would allocate into them.

use drift_lab::clocksync::{
    synchronize_stream, synchronize_stream_incremental, CancelToken, ClcParams, DepGraph,
    OffsetMeasurement, PipelineConfig, PreSync, TraceAnalysis,
};
use drift_lab::experiments::fig7::{pop_program, traced_run};
use drift_lab::simclock::{Dur, Time};
use drift_lab::syncd::{chunked, estimate_job_cost, JobInput};
use drift_lab::tracefmt::io::to_binary_columnar_v3_blocked;
use drift_lab::tracefmt::{EventKind, LatencyTable, MinLatency, Rank, Tag, Trace, UniformLatency};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
/// `realloc` keeps the trait's default (allocate, copy, free), so a move
/// counts the old and the new block together, as the heap holds them.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's block size and chunk size for encoded inputs.
const BLOCK_EVENTS: usize = 1024;
const CHUNK: usize = 64 * 1024;

/// Bytes the windowed job's dependency graph may hold on the 16-timeline
/// 100 000-message stream: 8 per event (timeline and link) and 16 per
/// message (the message table), 3.2 MB.
const WINDOWED_GRAPH_BYTES: usize = 3_300_000;

/// `job`'s peak live heap above what was live when it started.
fn peak_of<T>(job: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = job();
    (PEAK.load(Relaxed) - base, out)
}

/// What admission charges `input`, held against the stream's bytes plus
/// the job's peak above them.
fn assert_charge_covers(name: &str, input: &JobInput, events: usize, peak: usize) {
    let chunks = match input {
        JobInput::Stream(chunks) | JobInput::StreamIncremental { chunks, .. } => chunks,
    };
    let pinned = chunks.iter().map(Vec::len).sum::<usize>() + peak;
    let charged = estimate_job_cost(input).bytes as usize;
    println!(
        "{name}: pins {pinned} B ({:.1} B per event), admission charges {charged} B ({:.1} B per event)",
        pinned as f64 / events as f64,
        charged as f64 / events as f64
    );
    assert!(
        charged >= pinned,
        "{name}: admission charges {charged} B for a job that pins {pinned} B"
    );
}

/// `stream_windowed`'s shape: `procs` timelines exchanging `msgs` messages
/// between random pairs, every event a send or a receive, per-timeline
/// clock offsets of up to ±400 µs so the CLC has work.
fn p2p_trace(procs: usize, msgs: usize) -> Trace {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |span: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % span
    };
    let offsets: Vec<i64> = (0..procs)
        .map(|p| if p == 0 { 0 } else { next(800) as i64 - 400 })
        .collect();
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    for m in 0..msgs {
        let from = next(procs as u64) as usize;
        let to = (from + 1 + next(procs as u64 - 1) as usize) % procs;
        let send = now[from] + 5 + next(35) as i64;
        now[from] = send;
        let recv = send.max(now[to]) + 4 + next(20) as i64;
        now[to] = recv;
        let (tag, bytes) = (Tag(m as u32), 64);
        trace.procs[from].push(
            Time::from_us(send + offsets[from]),
            EventKind::Send {
                to: Rank(to as u32),
                tag,
                bytes,
            },
        );
        trace.procs[to].push(
            Time::from_us(recv + offsets[to]),
            EventKind::Recv {
                from: Rank(from as u32),
                tag,
                bytes,
            },
        );
    }
    trace
}

fn stream_of(trace: &Trace) -> Vec<Vec<u8>> {
    chunked(&to_binary_columnar_v3_blocked(trace, BLOCK_EVENTS), CHUNK)
}

#[test]
fn admission_charges_cover_the_jobs_they_price() {
    // The batch stream job: `pop_batch`'s input, Eq. 3 and then the CLC.
    let (program, duration, compression) = pop_program(20);
    let run = traced_run(&program, duration, compression, 2008);
    let ranks: Vec<Rank> = (0..run.trace.n_procs() as u32).map(Rank).collect();
    let cluster = &run.cluster;
    let lmin = LatencyTable::freeze(&|a: Rank, b: Rank| cluster.l_min(a, b, 0), &ranks);
    let cfg = PipelineConfig {
        presync: PreSync::Linear,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let events = run.trace.n_events();
    let input = JobInput::Stream(stream_of(&run.trace));
    drop(run.trace);
    let JobInput::Stream(chunks) = &input else {
        unreachable!()
    };
    let (peak, done) = peak_of(|| {
        let chunks = chunks.iter().map(Vec::as_slice);
        synchronize_stream(
            chunks,
            &run.init,
            Some(&run.fin),
            &lmin,
            &cfg,
            &CancelToken::none(),
        )
    });
    let (_, report) = done.expect("pop_batch synchronizes from its stream");
    assert_eq!(
        report
            .after_clc
            .expect("the job runs the CLC")
            .total_violations(),
        0
    );
    assert_charge_covers("pop_batch stream", &input, events, peak);

    // The windowed job: 16 timelines, 100 000 messages, uniform 1 µs.
    let trace = p2p_trace(16, 100_000);
    let events = trace.n_events();
    let lmin = UniformLatency(Dur::from_us(1));
    let analysis = TraceAnalysis::capture(&trace).expect("p2p traces analyse");
    let graph = DepGraph::from_trace(&trace, &analysis.matching, &analysis.instances, &lmin);
    assert!(
        graph.heap_bytes() <= WINDOWED_GRAPH_BYTES,
        "the windowed job's graph holds {} B, over its {WINDOWED_GRAPH_BYTES} B budget",
        graph.heap_bytes()
    );
    drop((graph, analysis));
    let chunks = stream_of(&trace);
    drop(trace);
    let cfg = PipelineConfig {
        presync: PreSync::None,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let none: Vec<Option<OffsetMeasurement>> = vec![None; 16];
    let (peak, done) = peak_of(|| {
        let chunks: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        synchronize_stream_incremental(
            &chunks,
            &none,
            None,
            &lmin as &dyn MinLatency,
            &cfg,
            BLOCK_EVENTS,
        )
    });
    let (_, report) = done.expect("the p2p stream synchronizes incrementally");
    assert_eq!(report.events, events);
    let input = JobInput::StreamIncremental {
        chunks,
        window_events: BLOCK_EVENTS,
    };
    assert_charge_covers("p2p windowed stream", &input, events, peak);
}
