//! Ingest throughput: how fast trace bytes become a pipeline-ready trace.
//!
//! Both layouts of the columnar format are decoded from the same
//! ≥100k-event trace, each run ending in the state the pipeline starts
//! from (a [`Trace`] plus its gathered timestamp [`TraceColumns`]):
//!
//! * `v2_full` / `v3_full` — one call over one contiguous buffer;
//! * `v2_streamed` / `v3_streamed` — the same bytes fed to the incremental
//!   [`StreamDecoder`] in bounded chunks, the way `synchronize_stream`
//!   ingests: timestamp columns fall out of the block frames directly.
//!
//! The rates are report-only: what they feed is the facts table of
//! DESIGN.md §14 (which layout stays is an open question there), and the
//! end-to-end benchmark judges the decoder where it sits in a job. What
//! this run *asserts* holds on any host: every decode path returns the
//! source trace and its columns, and v3 costs 25–40 % more bytes than v2.
//!
//! Run with `cargo bench -p bench --bench ingest` (add `-- --test` for the
//! CI smoke run: fewer repetitions, same report). Either way the summary is
//! written to `BENCH_ingest.json` at the repository root.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::Time;
use std::time::{Duration, Instant};
use tracefmt::io::{
    from_binary_columnar, to_binary_columnar, to_binary_columnar_v3, StreamDecoder, TraceBuilder,
};
use tracefmt::{EventKind, Rank, Tag, Trace, TraceColumns};

const PROCS: usize = 16;
const MSGS: usize = 60_000; // ≥120k events
const STREAM_CHUNK: usize = 256 * 1024;

/// A causally valid message trace with skewed clocks (same shape as the
/// pipeline benchmarks; drift detail is irrelevant to decode speed).
fn big_trace(seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<i64> = (0..PROCS)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-500i64..500) })
        .collect();
    let mut trace = Trace::for_ranks(PROCS);
    let mut now = [0i64; PROCS];
    for m in 0..MSGS {
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

/// Best-of-N wall time of `f` (minimum is the least noisy estimator for a
/// deterministic workload).
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        std::hint::black_box(out);
        if dt < best {
            best = dt;
        }
    }
    best
}

fn events_per_sec(n_events: usize, took: Duration) -> f64 {
    n_events as f64 / took.as_secs_f64()
}

fn same_trace(a: &Trace, b: &Trace) -> bool {
    a.procs.len() == b.procs.len()
        && a.procs.iter().zip(&b.procs).all(|(x, y)| {
            x.location == y.location && x.events == y.events
        })
}

/// The streamed decode path: bounded chunks through the incremental
/// decoder; the timestamp columns come straight out of the block frames.
fn streamed(bytes: &[u8]) -> (Trace, TraceColumns) {
    let mut dec = StreamDecoder::new();
    let mut builder = TraceBuilder::new();
    for chunk in bytes.chunks(STREAM_CHUNK) {
        dec.feed_into(chunk, &mut builder).expect("stream decodes");
    }
    dec.finish().expect("stream complete");
    builder.finish_parts()
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let iters = if test_mode { 3 } else { 15 };

    let trace = big_trace(7);
    let n_events = trace.n_events();
    assert!(n_events >= 100_000, "bench trace too small: {n_events}");
    let columns = TraceColumns::gather(&trace);
    let v2_bytes = to_binary_columnar(&trace);
    let v3_bytes = to_binary_columnar_v3(&trace);

    // Machine-independent facts first: every path decodes to the source.
    for (layout, bytes) in [("v2", &v2_bytes), ("v3", &v3_bytes)] {
        let full = from_binary_columnar(bytes.clone()).expect("columnar decodes");
        assert!(same_trace(&full, &trace), "{layout} full decode differs from the source trace");
        let (chunked, cols) = streamed(bytes);
        assert!(same_trace(&chunked, &trace), "{layout} streamed decode differs from the source");
        assert!(cols == columns, "{layout} streamed columns differ from a gather of the source");
    }
    let byte_ratio = v3_bytes.len() as f64 / v2_bytes.len() as f64;
    assert!(
        (1.25..=1.40).contains(&byte_ratio),
        "v3 must cost 25-40 % more bytes than v2 on a message trace, got {byte_ratio:.3}x"
    );

    let full = |bytes: &_| {
        let took = best_of(iters, || from_binary_columnar(Clone::clone(bytes)).expect("decodes"));
        events_per_sec(n_events, took)
    };
    let chunked = |bytes: &[u8]| events_per_sec(n_events, best_of(iters, || streamed(bytes)));
    let (eps_v2_full, eps_v2_stream) = (full(&v2_bytes), chunked(&v2_bytes));
    let (eps_v3_full, eps_v3_stream) = (full(&v3_bytes), chunked(&v3_bytes));

    println!(
        "ingest: {n_events} events, v2 {} bytes, v3 {} bytes ({byte_ratio:.3}x)",
        v2_bytes.len(),
        v3_bytes.len()
    );
    println!("  v2_full      {eps_v2_full:>12.0} events/s");
    println!("  v2_streamed  {eps_v2_stream:>12.0} events/s");
    println!("  v3_full      {eps_v3_full:>12.0} events/s");
    println!("  v3_streamed  {eps_v3_stream:>12.0} events/s");

    let json = format!(
        "{{\n  \"n_events\": {n_events},\n  \"v2_bytes\": {},\n  \"v3_bytes\": {},\n  \
         \"v3_over_v2_bytes\": {byte_ratio:.3},\n  \
         \"v2_full_events_per_sec\": {eps_v2_full:.0},\n  \
         \"v2_streamed_events_per_sec\": {eps_v2_stream:.0},\n  \
         \"v3_full_events_per_sec\": {eps_v3_full:.0},\n  \
         \"v3_streamed_events_per_sec\": {eps_v3_stream:.0}\n}}\n",
        v2_bytes.len(),
        v3_bytes.len(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(out, json).expect("write BENCH_ingest.json");
    println!("wrote {out}");
}
