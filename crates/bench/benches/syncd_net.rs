//! Wire-protocol overhead: the same job set pushed through `syncd`
//! in-process versus over a real loopback socket through `syncd-client`.
//!
//! The socket path pays for everything the in-process path skips — frame
//! encode/decode, two kernel copies per direction, credit round-trips,
//! and re-encoding the corrected trace for the reply — so it cannot win;
//! the gate bounds how much it may lose. Timings are the median of three
//! strictly alternating rounds (in-process, socket, in-process, …; the
//! arXiv:1505.07734 methodology, same as the `syncd_throughput` bench),
//! and the report also carries the *minimum* ratio across rounds so a
//! regression cannot hide behind one lucky round.
//!
//! Two job classes. The small one (1 600 events in test mode, DTC2) is
//! the gated one, and it is blind to anything that happens *between the
//! reads of one frame*: its whole stream is one `Chunk` frame of ~52 KB,
//! which arrives in a single 64 KiB socket read, so no read of it ever
//! ends mid-frame. The connection driver once backed off 500 µs after
//! every such read — 64 KiB per 0.55 ms, a 115 MB/s ceiling on ingest —
//! and this bench could not see it. The large class (40 000 events, DTC3,
//! 1.3 MB: five 256 KiB frames of at least four reads each, and past the
//! default 1 MiB `ingest_window`, so it also waits for a credit re-grant)
//! is where read granularity shows. It is report-only:
//! `large_socket_over_inproc_ratio`, and `large_upload_mb_per_s` from an
//! upload-only probe (see [`upload_mb_per_s`]); what gates the behaviour
//! is a count (`NetIdleSleeps <= NetIdleReads`, `scripts/ci.sh`).
//!
//! Run with `cargo bench -p bench --bench syncd_net` (add `-- --test`
//! for the CI smoke run). Writes `BENCH_syncd_net.json` at the repo
//! root; `scripts/ci.sh` gates on `socket_over_inproc_ratio >= 0.7`.

use clocksync::{OffsetMeasurement, PipelineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::sync::Arc;
use std::time::Instant;
use syncd::{
    chunked, JobInput, JobSpec, NetServer, NetServerConfig, ServiceConfig, SyncService,
    TenantConfig,
};
use syncd_client::{JobRequest, SyncClient};
use syncd_wire::{WireJobConfig, WireLatency};
use tracefmt::io::{to_binary_columnar_blocked, to_binary_columnar_v3_blocked};
use tracefmt::{EventKind, MinLatency, Rank, Tag, Trace, UniformLatency};

const PROCS: usize = 8;

type Measurements = Vec<Option<OffsetMeasurement>>;

/// Same causally-valid skewed-clock generator as the throughput bench.
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

/// One job, pre-encoded both ways: as a service `JobSpec` (stream input,
/// so both sides run the identical decode) and as a wire request.
struct BenchJob {
    init: Measurements,
    fin: Measurements,
    bytes: Vec<u8>,
}

fn job_set(jobs: usize, msgs: usize, v3: bool) -> (Vec<BenchJob>, usize) {
    let mut events = 0;
    let set = (0..jobs)
        .map(|j| {
            let (trace, init, fin) = job_trace(2000 + j as u64, msgs);
            events += trace.n_events();
            let bytes = if v3 {
                to_binary_columnar_v3_blocked(&trace, 1024).to_vec()
            } else {
                to_binary_columnar_blocked(&trace, 1024).to_vec()
            };
            BenchJob { init, fin, bytes }
        })
        .collect();
    (set, events)
}

fn wire_request(j: &BenchJob, lmin: UniformLatency) -> JobRequest {
    let config =
        WireJobConfig::new(&PipelineConfig::default(), WireLatency::Uniform(lmin.0.as_ps()))
            .with_measurements(&j.init, Some(&j.fin));
    JobRequest { config, chunks: vec![j.bytes.clone()] }
}

/// In-process side: submit every job to a fresh service as a stream
/// input, wait for all outcomes. Seconds of wall time.
fn run_inproc(set: &[BenchJob], lmin: &Arc<dyn MinLatency + Send + Sync>) -> f64 {
    let service = SyncService::start(ServiceConfig {
        queue_capacity: set.len().max(64),
        ..ServiceConfig::default()
    });
    let t0 = Instant::now();
    let handles: Vec<_> = set
        .iter()
        .map(|j| {
            let spec = JobSpec::new(
                JobInput::Stream(chunked(&j.bytes, 256 * 1024)),
                j.init.clone(),
                Some(j.fin.clone()),
                Arc::clone(lmin),
                PipelineConfig::default(),
            );
            service.submit(spec).expect("admitted")
        })
        .collect();
    for h in handles {
        h.wait().expect("in-process job succeeds");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    service.shutdown();
    elapsed
}

/// Socket side: `clients` connections submit the job set round-robin
/// through the framed protocol against a fresh loopback server.
fn run_socket(
    set: &[BenchJob],
    lmin: UniformLatency,
    clients: usize,
    ingest_window: u64,
) -> f64 {
    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("bench")],
        ingest_window,
        service: ServiceConfig {
            queue_capacity: set.len().max(64),
            ..ServiceConfig::default()
        },
    })
    .expect("bind loopback");
    let addr = server.local_addr();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let set = &set;
            scope.spawn(move || {
                let mut client = SyncClient::connect(addr, "bench").expect("connect");
                for j in set.iter().skip(c).step_by(clients) {
                    let req = wire_request(j, lmin);
                    let out = client.submit(&req).expect("socket job succeeds");
                    assert!(!out.stream.is_empty(), "corrected stream came back");
                    std::hint::black_box(&out);
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    elapsed
}

/// Ingest rate of the upload path alone, in MB/s of stream bytes: the job
/// goes up `samples` times through a tenant whose per-job quota its *last*
/// chunk busts. The server answers `QuotaExceeded` the moment it has read
/// that chunk — the whole stream — so one round trip times credit, framing
/// and the reads, with no admission, no job and no reply stream in it. The
/// error ends the connection, so every sample connects afresh (outside the
/// timed part).
fn upload_mb_per_s(
    job: &BenchJob,
    samples: usize,
    lmin: UniformLatency,
    ingest_window: u64,
) -> f64 {
    let len = job.bytes.len();
    let req = wire_request(job, lmin);
    let server = NetServerConfig {
        tenants: vec![TenantConfig {
            max_job_bytes: len as u64 - 1,
            ..TenantConfig::new("bench")
        }],
        ingest_window,
        service: ServiceConfig::default(),
    };
    let server = NetServer::start_loopback(server).expect("bind loopback");
    let mut secs: Vec<f64> = (0..samples)
        .map(|_| {
            let mut client = SyncClient::connect(server.local_addr(), "bench").expect("connect");
            let t0 = Instant::now();
            // Typed, unless the server's close overtakes the error frame.
            assert!(client.submit(&req).is_err(), "the quota must refuse the job");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    server.shutdown();
    len as f64 / 1e6 / median(&mut secs)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    xs[xs.len() / 2]
}

const ROUNDS: usize = 3;

/// One job set raced in process against the socket over [`ROUNDS`]
/// strictly alternating rounds: median seconds of each side, and the
/// median and minimum of the per-round in-process/socket ratios.
struct Race {
    inproc_s: f64,
    socket_s: f64,
    ratio: f64,
    ratio_min: f64,
}

fn race(set: &[BenchJob], lmin: UniformLatency, clients: usize, ingest_window: u64) -> Race {
    let lmin_arc: Arc<dyn MinLatency + Send + Sync> = Arc::new(lmin);
    let mut inproc_times = Vec::with_capacity(ROUNDS);
    let mut socket_times = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let i = run_inproc(set, &lmin_arc);
        let s = run_socket(set, lmin, clients, ingest_window);
        println!(
            "  round {}: in-process {i:.3}s, socket {s:.3}s, ratio {:.3}x",
            round + 1,
            i / s
        );
        inproc_times.push(i);
        socket_times.push(s);
        ratios.push(i / s);
    }
    let ratio = median(&mut ratios);
    let ratio_min = ratios.first().copied().expect("rounds ran"); // sorted by median()
    Race {
        inproc_s: median(&mut inproc_times),
        socket_s: median(&mut socket_times),
        ratio,
        ratio_min,
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (jobs, msgs) = if test_mode { (24, 800) } else { (96, 2500) };
    let large_jobs = if test_mode { 8 } else { 24 };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = cpus.clamp(1, 4);
    let lmin = UniformLatency(Dur::from_us(4));

    let (set, events) = job_set(jobs, msgs, false);
    println!(
        "syncd_net: {jobs} jobs, {events} events total, {clients} client(s), {cpus} cpu(s)"
    );
    let Race { inproc_s: t_inproc, socket_s: t_socket, ratio, ratio_min } =
        race(&set, lmin, clients, 4 << 20);

    // The large class runs against the default 1 MiB window, like any
    // server nobody tuned: its stream does not fit one grant.
    let window = NetServerConfig::default().ingest_window;
    let (large_set, large_events) = job_set(large_jobs, 20_000, true);
    let large_bytes = large_set[0].bytes.len();
    assert!(large_bytes as u64 > window, "large class must outgrow one credit window");
    println!(
        "syncd_net large class: {large_jobs} jobs, {large_events} events total, \
         {large_bytes} B each"
    );
    let large = race(&large_set, lmin, clients, window);
    let large_ratio = large.ratio;
    let large_upload = upload_mb_per_s(&large_set[0], large_jobs, lmin, window);

    let inproc_jps = jobs as f64 / t_inproc;
    let socket_jps = jobs as f64 / t_socket;
    println!("  in-process  {inproc_jps:>9.1} jobs/s  (median {t_inproc:.3}s)");
    println!("  socket      {socket_jps:>9.1} jobs/s  (median {t_socket:.3}s)");
    println!("  socket/in-process ratio: median {ratio:.3}x, min {ratio_min:.3}x");
    let large_socket_ms = large.socket_s / large_jobs as f64 * 1e3;
    println!(
        "  large class: socket {large_socket_ms:.2} ms/job, ratio {large_ratio:.3}x, \
         upload {large_upload:.0} MB/s"
    );

    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"events\": {events},\n  \"cpus\": {cpus},\n  \
         \"clients\": {clients},\n  \"rounds\": {ROUNDS},\n  \
         \"inproc_jobs_per_sec\": {inproc_jps:.2},\n  \
         \"socket_jobs_per_sec\": {socket_jps:.2},\n  \
         \"socket_over_inproc_ratio\": {ratio:.3},\n  \
         \"socket_over_inproc_ratio_min\": {ratio_min:.3},\n  \
         \"large_jobs\": {large_jobs},\n  \"large_job_bytes\": {large_bytes},\n  \
         \"large_socket_ms_per_job\": {large_socket_ms:.2},\n  \
         \"large_socket_over_inproc_ratio\": {large_ratio:.3},\n  \
         \"large_upload_mb_per_s\": {large_upload:.1}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_syncd_net.json");
    std::fs::write(out, json).expect("write BENCH_syncd_net.json");
    println!("wrote {out}");

    // CPU-aware floor. On one CPU the socket path time-slices with the
    // executors and pays serialization on the critical path: allow 30%.
    // With real cores the framing work overlaps job execution, so the
    // wire should cost little — but keep the same floor and let the JSON
    // trend line catch soft regressions; hard-failing CI on loopback
    // scheduler noise costs more than it protects.
    assert!(
        ratio >= 0.7,
        "socket path below 0.7x of in-process throughput on {cpus} cpu(s): {ratio:.3}x"
    );
}
