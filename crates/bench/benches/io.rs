//! Trace I/O throughput: the columnar codec, and the analyses that
//! reconstruct messages and collectives.

use bench::skewed_trace;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tracefmt::io::{from_binary_columnar, to_binary_columnar_v3};
use tracefmt::{EventKind, Tag};

fn bench_codecs(c: &mut Criterion) {
    let (_, trace) = skewed_trace(8, 200, 29);
    let events = trace.n_events() as u64;
    let mut g = c.benchmark_group("codecs");
    g.throughput(Throughput::Elements(events));
    g.bench_function("columnar_encode", |b| b.iter(|| to_binary_columnar_v3(&trace).len()));
    let bin = to_binary_columnar_v3(&trace);
    g.bench_function("columnar_decode", |b| {
        b.iter(|| from_binary_columnar(bin.clone()).unwrap().n_events())
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let (_, trace) = skewed_trace(16, 300, 37);
    let events = trace.n_events() as u64;
    let mut g = c.benchmark_group("analysis");
    g.throughput(Throughput::Elements(events));
    g.bench_function("match_messages", |b| {
        b.iter(|| tracefmt::match_messages(&trace).messages.len())
    });
    // The other tag regime: every message carries its own tag (the shape
    // `workloads::churn_scenario` and the service benches produce), where
    // a per-(from, to, tag) queue matcher pays one map entry and one queue
    // allocation per message. Same trace, same pairs, retagged.
    let mut unique = trace.clone();
    for (k, m) in tracefmt::match_messages(&trace).messages.iter().enumerate() {
        for id in [m.send, m.recv] {
            if let EventKind::Send { tag, .. } | EventKind::Recv { tag, .. } =
                &mut unique.procs[id.p()].events[id.i()].kind
            {
                *tag = Tag(k as u32);
            }
        }
    }
    g.bench_function("match_messages_unique_tags", |b| {
        b.iter(|| tracefmt::match_messages(&unique).messages.len())
    });
    g.bench_function("match_collectives", |b| {
        b.iter(|| tracefmt::match_collectives(&trace).unwrap().len())
    });
    g.finish();
}

criterion_group!(benches, bench_codecs, bench_analysis);
criterion_main!(benches);
