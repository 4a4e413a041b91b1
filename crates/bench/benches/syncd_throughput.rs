//! Throughput and latency of the `syncd` service under a multi-tenant job
//! mix: a batch of medium synchronization jobs (trace and stream inputs
//! mixed) pushed through the service, measured as jobs/sec end-to-end,
//! with per-job latency quantiles from the service's own histogram, and a
//! service-vs-direct overhead comparison on the same job set.
//!
//! Run with `cargo bench -p bench --bench syncd_throughput` (add
//! `-- --test` for the CI smoke run: fewer jobs, same report). Either way
//! the summary is written to `BENCH_syncd.json` at the repository root.
//! Timings are the median of three strictly alternating direct/service
//! rounds (arXiv:1505.07734's methodology), so one noisy round cannot
//! fail the gate.
//!
//! The overhead gate is CPU-aware like the other pipeline benches: with
//! multiple cores the service's concurrent executors should come out
//! *ahead* of running the same jobs back-to-back; on a single-core host
//! the executors only time-slice one core, so the gate only bounds the
//! scheduling overhead to a small constant factor.

use clocksync::{OffsetMeasurement, PipelineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::sync::Arc;
use std::time::Instant;
use syncd::{chunked, Counter, JobInput, JobSpec, Priority, ServiceConfig, SyncService};
use tracefmt::io::to_binary_columnar_blocked;
use tracefmt::{EventKind, MinLatency, Rank, Tag, Trace, UniformLatency};

const PROCS: usize = 8;

type Measurements = Vec<Option<OffsetMeasurement>>;

/// A causally valid trace with skewed linear clocks plus measurements.
fn job_trace(seed: u64, msgs: usize) -> (Trace, Measurements, Measurements) {
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<i64> = (0..PROCS)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-400i64..400) })
        .collect();
    let local = |p: usize, t: i64| t + offsets[p];
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
            Time::from_us(local(from, send_true)),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(local(to, recv_true)),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
    }
    let end = *now.iter().max().expect("non-empty") + 100;
    let measure = |p: usize, t: i64| -> Option<OffsetMeasurement> {
        (p != 0).then(|| OffsetMeasurement {
            worker_time: Time::from_us(local(p, t)),
            offset: Dur::from_us(-offsets[p] + 2),
            rtt: Dur::from_us(10),
        })
    };
    let init: Vec<_> = (0..PROCS).map(|p| measure(p, 0)).collect();
    let fin: Vec<_> = (0..PROCS).map(|p| measure(p, end)).collect();
    (trace, init, fin)
}

struct JobSet {
    specs: Vec<(Trace, Measurements, Measurements, bool)>,
    events: usize,
}

fn job_set(jobs: usize, msgs: usize) -> JobSet {
    let mut specs = Vec::with_capacity(jobs);
    let mut events = 0;
    for j in 0..jobs {
        let (trace, init, fin) = job_trace(1000 + j as u64, msgs);
        events += trace.n_events();
        // Every third job arrives as a DTC2 stream.
        specs.push((trace, init, fin, j % 3 == 2));
    }
    JobSet { specs, events }
}

fn make_spec(
    (trace, init, fin, as_stream): &(Trace, Measurements, Measurements, bool),
    lmin: &Arc<dyn MinLatency + Send + Sync>,
) -> JobSpec {
    let input = if *as_stream {
        JobInput::Stream(chunked(&to_binary_columnar_blocked(trace, 1024), 8192))
    } else {
        JobInput::Trace(trace.clone())
    };
    JobSpec::new(
        input,
        init.clone(),
        Some(fin.clone()),
        Arc::clone(lmin),
        PipelineConfig::default(),
    )
    .with_priority(Priority::Normal)
}

/// One direct-baseline pass: the same jobs back-to-back through the
/// pipeline, no service in between.
fn run_direct(set: &JobSet, lmin: &Arc<dyn MinLatency + Send + Sync>) -> f64 {
    let t0 = Instant::now();
    for spec in &set.specs {
        let s = make_spec(spec, lmin);
        let mut work = match s.input {
            JobInput::Trace(t) => t,
            JobInput::StreamIncremental { .. } => {
                unreachable!("this bench workload submits only trace and stream jobs")
            }
            JobInput::Stream(chunks) => {
                let (t, _) = clocksync::synchronize_stream(
                    chunks.iter().map(|c| c.as_slice()),
                    &s.init,
                    s.fin.as_deref(),
                    &*s.lmin,
                    &s.pipeline,
                )
                .expect("direct stream run");
                std::hint::black_box(&t);
                continue;
            }
        };
        clocksync::synchronize(&mut work, &s.init, s.fin.as_deref(), &*s.lmin, &s.pipeline)
            .expect("direct run");
        std::hint::black_box(&work);
    }
    t0.elapsed().as_secs_f64()
}

/// One service pass: submit everything to a fresh service, wait for all
/// outcomes. Returns the wall time and latency quantiles from the
/// service's own histogram.
fn run_service(
    set: &JobSet,
    lmin: &Arc<dyn MinLatency + Send + Sync>,
    jobs: usize,
) -> (f64, f64, f64) {
    let service = SyncService::start(ServiceConfig {
        queue_capacity: jobs.max(64),
        ..ServiceConfig::default()
    });
    let t0 = Instant::now();
    let handles: Vec<_> = set
        .specs
        .iter()
        .map(|spec| service.submit(make_spec(spec, lmin)).expect("admitted"))
        .collect();
    for h in handles {
        h.wait().expect("bench job succeeds");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let m = service.metrics();
    service.shutdown();
    assert_eq!(m.counter(Counter::Completed), jobs as u64);
    assert_eq!(m.counter(Counter::Failed), 0);
    assert_eq!(m.counter(Counter::ServiceCrashes), 0);
    (elapsed, m.job_latency.quantile(0.5), m.job_latency.quantile(0.99))
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    xs[xs.len() / 2]
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (jobs, msgs) = if test_mode { (24, 800) } else { (96, 2500) };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lmin: Arc<dyn MinLatency + Send + Sync> = Arc::new(UniformLatency(Dur::from_us(4)));

    let set = job_set(jobs, msgs);
    println!("syncd: {jobs} jobs, {} events total, {cpus} cpu(s)", set.events);

    // Median of 3 rounds, sides strictly alternating (direct, service,
    // direct, service, ...): alternation puts both sides under the same
    // slowly-varying host conditions (thermal state, cache pollution from
    // neighbours) instead of giving one side a quiet machine and the
    // other a busy one, and the median discards a single noisy round
    // rather than averaging it in — the measurement methodology argued
    // for in "Reliable benchmarking: requirements and solutions"
    // (arXiv:1505.07734).
    const ROUNDS: usize = 3;
    let mut direct_times = Vec::with_capacity(ROUNDS);
    let mut service_times = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    let (mut p50, mut p99) = (0.0, 0.0);
    for round in 0..ROUNDS {
        let d = run_direct(&set, &lmin);
        let (s, r50, r99) = run_service(&set, &lmin, jobs);
        println!(
            "  round {}: direct {:.3}s, service {:.3}s, ratio {:.3}x",
            round + 1,
            d,
            s,
            d / s
        );
        direct_times.push(d);
        service_times.push(s);
        ratios.push(d / s);
        // Quantiles from the last round (any round is representative; the
        // histogram resets with its service).
        p50 = r50;
        p99 = r99;
    }
    let t_direct = median(&mut direct_times);
    let t_service = median(&mut service_times);
    // The gated ratio is the median of the *per-round* ratios, not the
    // ratio of medians: each round's sides ran adjacently, so their
    // quotient cancels that round's host conditions.
    let speedup = median(&mut ratios);

    let jobs_per_sec = jobs as f64 / t_service;
    let direct_jobs_per_sec = jobs as f64 / t_direct;
    let events_per_sec = set.events as f64 / t_service;

    println!("  direct baseline  {direct_jobs_per_sec:>9.1} jobs/s  (median {t_direct:.3}s)");
    println!("  service          {jobs_per_sec:>9.1} jobs/s  (median {t_service:.3}s)");
    println!("  service          {events_per_sec:>9.0} events/s");
    println!("  service/direct throughput ratio: {speedup:.2}x (median of {ROUNDS} rounds)");
    println!("  job latency p50 {p50:.4}s  p99 {p99:.4}s");

    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"events\": {},\n  \"cpus\": {cpus},\n  \
         \"rounds\": {ROUNDS},\n  \
         \"direct_jobs_per_sec\": {direct_jobs_per_sec:.2},\n  \
         \"service_jobs_per_sec\": {jobs_per_sec:.2},\n  \
         \"service_events_per_sec\": {events_per_sec:.0},\n  \
         \"service_over_direct_ratio\": {speedup:.3},\n  \
         \"job_latency_p50_seconds\": {p50:.6},\n  \
         \"job_latency_p99_seconds\": {p99:.6}\n}}\n",
        set.events,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_syncd.json");
    std::fs::write(out, json).expect("write BENCH_syncd.json");
    println!("wrote {out}");

    // Quantile sanity from the service's own histogram.
    assert!(p50 <= p99, "p50 {p50} above p99 {p99}");
    assert!(p99 > 0.0, "histogram recorded nothing");

    // CPU-aware overhead gate.
    if cpus >= 4 {
        assert!(
            speedup >= 1.2,
            "service with concurrent executors must beat back-to-back direct runs \
             on {cpus} cpus, got {speedup:.2}x"
        );
    } else if cpus >= 2 {
        assert!(
            speedup >= 0.9,
            "service fell behind direct runs on {cpus} cpus: {speedup:.2}x"
        );
    } else {
        println!(
            "  (single-cpu host: concurrency gain impossible; overhead floor only)"
        );
        assert!(
            speedup >= 0.7,
            "service scheduling overhead above 30% on one cpu: {speedup:.2}x"
        );
    }
}
