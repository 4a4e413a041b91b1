//! Performance and ablation benches for the timestamp-correction
//! algorithms: the CLC across trace sizes, forward amortization factor and
//! backward amortization on/off. (The §V survey's methods are timed by
//! `experiments clc`, in its `time [ms]` column.)
//!
//! `clc_scaling/serial` and `clc_ablations` call the public
//! `controlled_logical_clock`, so each iteration times the whole
//! lowering — match, lower, gather, the CSR kernel, scatter — not the
//! kernel alone (`engine`'s `clc/` group times the pipeline stage).
//! `clc/engines` holds the windowed engine against the batch one, whole
//! jobs on the same `DTC3` bytes.

use bench::{lmin_table, skewed_trace};
use clocksync::{
    controlled_logical_clock, synchronize_stream, synchronize_stream_incremental, CancelToken, ClcParams,
    OffsetMeasurement,
    PipelineConfig, PreSync,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::cell::RefCell;
use std::time::Instant;
use tracefmt::io::to_binary_columnar_v3_blocked;
use tracefmt::{EventKind, LatencyTable, Rank, Tag, Trace};

fn bench_clc_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("clc_scaling");
    g.sample_size(10);
    for &(ranks, iters) in &[(8usize, 100u32), (16, 200), (32, 300)] {
        let (cluster, trace) = skewed_trace(ranks, iters, 11);
        let lmin = lmin_table(&cluster, ranks);
        let events = trace.n_events() as u64;
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(
            BenchmarkId::new("serial", format!("{ranks}r_{events}ev")),
            &trace,
            |b, t| {
                b.iter(|| {
                    let mut t = t.clone();
                    controlled_logical_clock(&mut t, &lmin, &ClcParams::default()).unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_clc_ablations(c: &mut Criterion) {
    let (cluster, trace) = skewed_trace(16, 150, 13);
    let lmin = lmin_table(&cluster, 16);
    let mut g = c.benchmark_group("clc_ablations");
    g.sample_size(10);
    for (name, params) in [
        ("mu_1.00_no_backward", ClcParams { mu: 1.0, backward: false, ..Default::default() }),
        ("mu_0.99_no_backward", ClcParams { mu: 0.99, backward: false, ..Default::default() }),
        ("mu_0.90_no_backward", ClcParams { mu: 0.90, backward: false, ..Default::default() }),
        ("mu_0.99_backward", ClcParams::default()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut t = trace.clone();
                controlled_logical_clock(&mut t, &lmin, &params).unwrap()
            })
        });
    }
    g.finish();
}

/// One job's input: the trace's `DTC3` bytes at the end-to-end benchmark's
/// block size, its offset measurements, latencies and configuration.
struct Job {
    bytes: Vec<u8>,
    init: Vec<Option<OffsetMeasurement>>,
    fin: Option<Vec<Option<OffsetMeasurement>>>,
    lmin: LatencyTable,
    cfg: PipelineConfig,
}

impl Job {
    fn new(trace: &Trace, init: Vec<Option<OffsetMeasurement>>, fin: Option<Vec<Option<OffsetMeasurement>>>, lmin: LatencyTable, presync: PreSync) -> Job {
        let cfg = PipelineConfig { presync, clc: Some(ClcParams::default()), ..PipelineConfig::default() };
        let bytes = to_binary_columnar_v3_blocked(trace, 1024).to_vec();
        Job { bytes, init, fin, lmin, cfg }
    }

    /// The end-to-end benchmark's 64 KiB chunks.
    fn chunks(&self) -> Vec<&[u8]> {
        self.bytes.chunks(64 * 1024).collect()
    }

    /// Batch `synchronize_stream`: jumps and moved events.
    fn batch(&self) -> (usize, usize) {
        let none = CancelToken::none();
        let (_, rep) = synchronize_stream(self.chunks(), &self.init, self.fin.as_deref(), &self.lmin, &self.cfg, &none)
            .expect("batch engine");
        let clc = rep.clc.expect("clc configured");
        (clc.n_jumps(), clc.events_moved)
    }

    /// The windowed engine: jumps and moved events, and its discover,
    /// apply and emit stage seconds.
    fn windowed(&self, window: usize) -> ((usize, usize), [f64; 3]) {
        let (_, rep) = synchronize_stream_incremental(&self.chunks(), &self.init, self.fin.as_deref(), &self.lmin, &self.cfg, window)
            .expect("windowed engine");
        let stage = |name| rep.stats.stage(name).map_or(0.0, |s| s.seconds);
        let clc = rep.clc.expect("clc configured");
        ((clc.n_jumps(), clc.events_moved), [stage("clc:discover"), stage("clc:apply"), stage("emit")])
    }
}

/// The POP-like run of `pop_batch`: 32 ranks, halo exchange and allreduce,
/// Eq. 3 presync.
fn pop_job() -> Job {
    let (program, duration, compression) = experiments::fig7::pop_program(20);
    let run = experiments::fig7::traced_run(&program, duration, compression, 2008);
    let ranks: Vec<Rank> = (0..run.trace.n_procs() as u32).map(Rank).collect();
    let lmin = LatencyTable::freeze(&|a: Rank, b: Rank| run.cluster.l_min(a, b, 0), &ranks);
    Job::new(&run.trace, run.init, Some(run.fin), lmin, PreSync::Linear)
}

/// The shape of `stream_windowed`: 16 processes, 100 000 messages from a
/// random sender to a random other process, clocks off by up to ±400 µs,
/// a uniform 1 µs `l_min`.
fn p2p_job() -> Job {
    let (procs, msgs) = (16, 100_000);
    let mut rng = StdRng::seed_from_u64(2008);
    let offsets: Vec<i64> = (0..procs).map(|p| if p == 0 { 0 } else { rng.gen_range(-400i64..400) }).collect();
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    for m in 0..msgs {
        let from = rng.gen_range(0usize..procs);
        let to = (from + rng.gen_range(1usize..procs)) % procs;
        let send = now[from] + rng.gen_range(5i64..40);
        now[from] = send;
        let recv = send.max(now[to]) + 4 + rng.gen_range(0i64..20);
        now[to] = recv;
        let (tag, bytes, (s, r)) = (Tag(m as u32), 64, (Rank(from as u32), Rank(to as u32)));
        trace.procs[from].push(Time::from_us(send + offsets[from]), EventKind::Send { to: r, tag, bytes });
        trace.procs[to].push(Time::from_us(recv + offsets[to]), EventKind::Recv { from: s, tag, bytes });
    }
    let ranks: Vec<Rank> = (0..procs as u32).map(Rank).collect();
    let lmin = LatencyTable::freeze(&tracefmt::UniformLatency(Dur::from_us(1)), &ranks);
    Job::new(&trace, vec![None; procs], None, lmin, PreSync::None)
}

/// The windowed engine at the batch engine's price (ROADMAP item 18):
/// whole jobs of batch `synchronize_stream` and of the windowed engine at
/// 1 024 events and at a window wider than any timeline, on both inputs,
/// in strictly alternating rounds (one job of each per round; the bench
/// line times a round). The group prints each windowed engine's median
/// job over batch's, with the quartiles of the per-round ratio, and its
/// median discover, apply and emit stages. Every job must agree with
/// batch on the jumps and the moved events.
fn bench_clc_engines(c: &mut Criterion) {
    const WINDOWS: [(&str, usize); 2] = [("windowed_1024", 1024), ("windowed_unbounded", usize::MAX)];
    let mut g = c.benchmark_group("clc/engines");
    g.sample_size(15);
    for (input, job) in [("pop", pop_job()), ("p2p", p2p_job())] {
        let want = job.batch();
        // Per round: batch's seconds, then each window's seconds and its
        // discover, apply and emit stages.
        let rounds = RefCell::new(Vec::new());
        g.bench_function(input, |b| {
            b.iter_custom(|iters| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    let t = Instant::now();
                    assert_eq!(job.batch(), want, "{input}: batch is deterministic");
                    let batch = t.elapsed().as_secs_f64();
                    let windowed = WINDOWS.map(|(name, window)| {
                        let t = Instant::now();
                        let (out, [discover, apply, emit]) = job.windowed(window);
                        assert_eq!(out, want, "{input}/{name}: jumps and moved events");
                        [t.elapsed().as_secs_f64(), discover, apply, emit]
                    });
                    rounds.borrow_mut().push((batch, windowed));
                }
                t0.elapsed()
            })
        });
        let rounds = rounds.into_inner();
        if rounds.is_empty() {
            continue; // filtered out
        }
        let quantile = |mut v: Vec<f64>, q: f64| {
            v.sort_by(f64::total_cmp);
            v.get(((v.len() - 1) as f64 * q).round() as usize).copied().unwrap_or(f64::NAN)
        };
        let batch_ms = quantile(rounds.iter().map(|r| r.0 * 1e3).collect(), 0.5);
        for (k, (name, _)) in WINDOWS.iter().enumerate() {
            let ratio: Vec<f64> = rounds.iter().map(|r| r.1[k][0] / r.0).collect();
            let ms = |c: usize| quantile(rounds.iter().map(|r| 1e3 * r.1[k][c]).collect(), 0.5);
            println!(
                "    {input}/{name} / batch: {:.2}x (quartiles {:.2}-{:.2}, {} rounds; {:.2} / {:.2} ms); discover {:.2} ms, apply {:.2} ms, emit {:.2} ms",
                quantile(ratio.clone(), 0.5),
                quantile(ratio.clone(), 0.25),
                quantile(ratio, 0.75),
                rounds.len(),
                ms(0),
                batch_ms,
                ms(1),
                ms(2),
                ms(3),
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_clc_scaling,
    bench_clc_ablations,
    bench_clc_engines
);
criterion_main!(benches);
