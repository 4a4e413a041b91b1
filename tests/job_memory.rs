//! One batch job's heap budget, counted rather than timed.
//!
//! A job starts from a trimmed heap, so every byte a stage allocates is a
//! page it faults in: the peak the job adds to its input is what this test
//! holds, on any host, beside what the job's graph and census plan hold.
//! The input is the benchmark's `pop_batch` job (the POP-like program at
//! 32 ranks, seed 2008, Eq. 3 and then the CLC). One
//! `#[test]` on purpose: the counters are process-wide, and a second test
//! running on another thread would allocate into them.

use drift_lab::clocksync::{synchronize, ClcParams, DepGraph, PipelineConfig, PreSync, TraceAnalysis};
use drift_lab::experiments::fig7::{pop_program, traced_run};
use drift_lab::tracefmt::{CensusPlan, LatencyTable, Rank};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

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

/// Bytes per event the job may add to its input at its peak. The CLC that
/// copied the whole slab twice (a rollback copy and the backward pass's
/// snapshot) peaked at 55 B per event on this input; without them, and with
/// the snapshot kept only where a backward cap reads it, about 41. With one
/// message table for the census and the graph, one link word per event in
/// place of three offset words, the capture's call records grown a chunk at
/// a time and its message records freed before the collective instances
/// are assembled, 29.2: the peak was the capture's, whose 24-byte record
/// column is reserved for every event (capacity never written costs no
/// page, but this allocator counts it). With 12-byte records that fill the
/// message table row by row, the capture peaks at 17.7 and the job at 26.2
/// once it lowers the graph and runs the CLC.
const PEAK_BYTES_PER_EVENT: usize = 27;

/// Bytes the job's dependency graph and census plan hold together on this
/// input, each shared table counted once: 8 per event (timeline and link),
/// 16 per message (the message table), the collective member table, and
/// the plan's per-timeline bases: 1.80 MB.
const LOWERED_BYTES: usize = 1_900_000;

#[test]
fn pop_batch_job_peaks_under_its_per_event_budget() {
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
    let mut trace = run.trace.clone();
    let events = trace.n_events();
    assert_eq!(events, 166_400, "the benchmark's pop_batch input");

    let lowered = {
        let analysis = TraceAnalysis::capture(&trace).expect("pop_batch analyses");
        let graph = DepGraph::from_trace(&trace, &analysis.matching, &analysis.instances, &lmin);
        let lens: Vec<usize> = trace.procs.iter().map(|p| p.events.len()).collect();
        let (msgs, coll) = (Arc::clone(graph.messages()), Arc::clone(graph.coll_table()));
        let shared = msgs.heap_bytes() + coll.heap_bytes();
        let plan = CensusPlan::with_tables(&lens, msgs, coll).expect("the plan fits");
        graph.heap_bytes() + plan.heap_bytes() - shared
    };
    println!("graph and plan hold {lowered} B ({:.1} B per event; budget {LOWERED_BYTES} B)", lowered as f64 / events as f64);
    assert!(lowered <= LOWERED_BYTES, "graph and plan hold {lowered} B, over their {LOWERED_BYTES} B budget");

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let report = synchronize(&mut trace, &run.init, Some(&run.fin), &lmin, &cfg).expect("pop_batch synchronizes");
    let peak = PEAK.load(Relaxed) - base;
    let after = report.after_clc.as_ref().expect("the job runs the CLC");
    assert_eq!(after.total_violations(), 0);
    let budget = PEAK_BYTES_PER_EVENT * events;
    println!("job peak {peak} B above its input for {events} events ({:.1} B each; budget {budget} B)", peak as f64 / events as f64);
    assert!(peak <= budget, "the job peaked at {peak} B above its input, over its {budget} B budget");
}
