//! Ingest throughput: how fast trace bytes become a pipeline-ready trace.
//!
//! A ≥100k-event trace is encoded as `DTC3` and read back the way
//! `synchronize_stream` ingests — the chunks indexed where they lie, then
//! every block decoded through the index — ending in the state the
//! pipeline starts from (a [`Trace`] plus its timestamp [`TraceColumns`]).
//! Two input shapes:
//!
//! * `one_buffer` — the stream as one contiguous buffer;
//! * `chunks_256k` — the same bytes as 256 KiB chunks (a read buffer, a
//!   network upload): frames that straddle two chunks are assembled in a
//!   scratch buffer.
//!
//! The rates are report-only (DESIGN.md §14 keeps them); the end-to-end
//! benchmark judges the decoder where it sits in a job. What this run
//! *asserts* holds on any host: both shapes decode to the source trace and
//! its columns.
//!
//! Run with `cargo bench -p bench --bench ingest` (add `-- --test` for the
//! CI smoke run: fewer repetitions, same report).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tracefmt::io::{decode_indexed, index_columnar_chunks, to_binary_columnar_v3, ChunkStore};
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

/// Ingest as the pipeline does: index the chunks, decode every block.
fn ingest(chunks: &[&[u8]]) -> (Trace, TraceColumns) {
    let index = index_columnar_chunks(chunks).expect("stream indexes");
    decode_indexed(&index, &ChunkStore::new(chunks)).expect("stream decodes")
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let iters = if test_mode { 3 } else { 15 };

    let (trace, ..) = skewed_p2p(&mut StdRng::seed_from_u64(7), PROCS, MSGS, 500);
    let n_events = trace.n_events();
    assert!(n_events >= 100_000, "bench trace too small: {n_events}");
    let columns = TraceColumns::gather(&trace);
    let bytes = to_binary_columnar_v3(&trace);

    let shapes: [(&str, Vec<&[u8]>); 2] =
        [("one_buffer", vec![&bytes[..]]), ("chunks_256k", bytes.chunks(STREAM_CHUNK).collect())];
    // Machine-independent facts first: both shapes decode to the source.
    for (name, chunks) in &shapes {
        let (back, cols) = ingest(chunks);
        assert!(same_trace(&back, &trace), "{name}: decode differs from the source trace");
        assert!(cols == columns, "{name}: columns differ from a gather of the source");
    }

    println!(
        "ingest: {n_events} events, {} bytes ({:.1} B/event)",
        bytes.len(),
        bytes.len() as f64 / n_events as f64
    );
    for (name, chunks) in &shapes {
        let eps = events_per_sec(n_events, best_of(iters, || ingest(chunks)));
        println!("  {name:<12} {eps:>12.0} events/s");
    }
}
