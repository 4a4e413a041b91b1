//! Ingest throughput: how fast trace bytes become a pipeline-ready trace.
//!
//! A ≥100k-event trace is encoded as `DTC3` and decoded two ways, each run
//! ending in the state the pipeline starts from (a [`Trace`] plus its
//! gathered timestamp [`TraceColumns`]):
//!
//! * `v3_full` — one call over one contiguous buffer;
//! * `v3_streamed` — the same bytes fed to the incremental
//!   [`StreamDecoder`] in bounded chunks, the way `synchronize_stream`
//!   ingests: timestamp columns fall out of the block frames directly.
//!
//! The rates are report-only (DESIGN.md §14 keeps them); the end-to-end
//! benchmark judges the decoder where it sits in a job. What this run
//! *asserts* holds on any host: both decode paths return the source trace
//! and its columns.
//!
//! Run with `cargo bench -p bench --bench ingest` (add `-- --test` for the
//! CI smoke run: fewer repetitions, same report).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tracefmt::io::{from_binary_columnar, to_binary_columnar_v3, StreamDecoder, TraceBuilder};
use tracefmt::{Trace, TraceColumns};
use workloads::skewed_p2p;

const PROCS: usize = 16;
const MSGS: usize = 60_000; // ≥120k events
const STREAM_CHUNK: usize = 256 * 1024;

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

    let (trace, ..) = skewed_p2p(&mut StdRng::seed_from_u64(7), PROCS, MSGS, 500);
    let n_events = trace.n_events();
    assert!(n_events >= 100_000, "bench trace too small: {n_events}");
    let columns = TraceColumns::gather(&trace);
    let bytes = to_binary_columnar_v3(&trace);

    // Machine-independent facts first: both paths decode to the source.
    let full = from_binary_columnar(bytes.clone()).expect("columnar decodes");
    assert!(same_trace(&full, &trace), "full decode differs from the source trace");
    let (chunked, cols) = streamed(&bytes);
    assert!(same_trace(&chunked, &trace), "streamed decode differs from the source");
    assert!(cols == columns, "streamed columns differ from a gather of the source");

    let took = best_of(iters, || from_binary_columnar(bytes.clone()).expect("decodes"));
    let eps_full = events_per_sec(n_events, took);
    let eps_stream = events_per_sec(n_events, best_of(iters, || streamed(&bytes)));

    println!(
        "ingest: {n_events} events, {} bytes ({:.1} B/event)",
        bytes.len(),
        bytes.len() as f64 / n_events as f64
    );
    println!("  v3_full      {eps_full:>12.0} events/s");
    println!("  v3_streamed  {eps_stream:>12.0} events/s");
}
