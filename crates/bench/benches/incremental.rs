//! Incremental windowed engine: throughput and the O(window) residency
//! claim, measured.
//!
//! The same skewed message workload is run at 1x and 10x the event count
//! through [`synchronize_stream_incremental`] with a fixed 1024-event
//! window. Two things are recorded per scale:
//!
//! * corrected-stream throughput (events/sec end to end: index, CLC with
//!   backward amortization, frame re-encode);
//! * the engine's true resident-column high-water mark
//!   ([`peak_resident_column_bytes`]), against the batch engine's
//!   analytic `8 x n_events`.
//!
//! The bench fails if the windowed high-water mark is not (near) flat
//! under the 10x growth — that is the whole contract of the engine — and
//! `scripts/ci.sh` re-checks the written report with the same rule so a
//! regression cannot hide behind a stale JSON.
//!
//! Run with `cargo bench -p bench --bench incremental` (add `-- --test`
//! for the CI smoke run: fewer repetitions, same report). Either way the
//! summary is written to `BENCH_incremental.json` at the repository root.
//!
//! [`peak_resident_column_bytes`]: clocksync::PipelineStats::peak_resident_column_bytes

use clocksync::{
    synchronize_stream_incremental, ClcParams, IncrementalReport, PipelineConfig, PreSync,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::time::{Duration, Instant};
use tracefmt::io::to_binary_columnar_v3_blocked;
use tracefmt::{EventKind, Rank, Tag, Trace, UniformLatency};

const PROCS: usize = 8;
const WINDOW: usize = 1024;
const STREAM_CHUNK: usize = 256 * 1024;

/// A causally valid message trace with skewed clocks (same shape as the
/// ingest bench) — the skews produce real clock-condition violations, so
/// the CLC does real forward *and* backward work.
fn skewed_trace(msgs: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<i64> = (0..PROCS)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-500i64..500) })
        .collect();
    let mut trace = Trace::for_ranks(PROCS);
    let mut now = [0i64; PROCS];
    for m in 0..msgs {
        let from = rng.gen_range(0usize..PROCS);
        let to = (from + rng.gen_range(1usize..PROCS)) % PROCS;
        let send_true = now[from] + rng.gen_range(5i64..40);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + 4 + rng.gen_range(0i64..20);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(send_true + offsets[from]),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(recv_true + offsets[to]),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
    }
    trace
}

/// Best-of-N wall time (minimum is the least noisy estimator for a
/// deterministic workload); also returns the last run's report.
fn best_of(
    iters: usize,
    mut f: impl FnMut() -> (Vec<Vec<u8>>, IncrementalReport),
) -> (Duration, IncrementalReport) {
    let mut best = Duration::MAX;
    let mut report = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let (frames, rep) = f();
        let dt = t0.elapsed();
        std::hint::black_box(frames);
        if dt < best {
            best = dt;
        }
        report = Some(rep);
    }
    (best, report.expect("at least one iteration"))
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let iters = if test_mode { 3 } else { 10 };

    let cfg = PipelineConfig {
        presync: PreSync::None,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let init = vec![None; PROCS];
    let lmin = UniformLatency(Dur::from_us(1));

    let mut scales = Vec::new();
    for (label, msgs) in [("small", 20_000usize), ("large", 200_000)] {
        let trace = skewed_trace(msgs, 11);
        let n_events = trace.n_events();
        let bytes = to_binary_columnar_v3_blocked(&trace, 1024);
        let (took, rep) = best_of(iters, || {
            let chunks: Vec<&[u8]> = bytes.chunks(STREAM_CHUNK).collect();
            synchronize_stream_incremental(&chunks, &init, None, &lmin, &cfg, WINDOW)
                .expect("incremental run succeeds")
        });
        let eps = n_events as f64 / took.as_secs_f64();
        let peak = rep.stats.peak_resident_column_bytes;
        let batch_peak = 8 * n_events as u64;
        println!(
            "incremental {label}: {n_events} events, {eps:>12.0} events/s ({took:?}), \
             peak columns {peak} B (batch would pin {batch_peak} B)"
        );
        assert!(
            rep.clc.as_ref().is_some_and(|c| !c.jumps.is_empty()),
            "{label}: the workload produced no jumps — the CLC leg is not being exercised"
        );
        scales.push((n_events, eps, peak, batch_peak));
    }

    let (small_n, small_eps, small_peak, _) = scales[0];
    let (large_n, large_eps, large_peak, large_batch_peak) = scales[1];
    let growth = large_peak as f64 / small_peak as f64;
    let batch_over_windowed = large_batch_peak as f64 / large_peak as f64;
    println!("  residency growth under 10x events: {growth:.3}x (flat = 1.0x)");
    println!("  batch/windowed resident columns at 10x: {batch_over_windowed:.1}x");

    let json = format!(
        "{{\n  \"window_events\": {WINDOW},\n  \
         \"small_n_events\": {small_n},\n  \
         \"large_n_events\": {large_n},\n  \
         \"small_events_per_sec\": {small_eps:.0},\n  \
         \"large_events_per_sec\": {large_eps:.0},\n  \
         \"small_peak_resident_bytes\": {small_peak},\n  \
         \"large_peak_resident_bytes\": {large_peak},\n  \
         \"residency_growth_under_10x\": {growth:.3},\n  \
         \"batch_over_windowed_resident\": {batch_over_windowed:.1}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(out, json).expect("write BENCH_incremental.json");
    println!("wrote {out}");

    assert!(
        large_n >= 9 * small_n,
        "the large scale did not actually grow: {small_n} -> {large_n} events"
    );
    assert!(
        growth < 2.0,
        "windowed residency must stay (near) flat under 10x events, grew {growth:.2}x"
    );
    assert!(
        batch_over_windowed >= 4.0,
        "windowed residency must undercut the batch gather by >=4x at 10x scale, \
         got {batch_over_windowed:.1}x"
    );
}
