//! The driver surface: **every** call the benchmark makes into the repo's
//! crates lives in this file, so a refactor of the public API (ROADMAP
//! item 2's single `synchronize` entry point, for one) knows exactly which
//! signatures the frozen benchmark depends on. The README lists them.
//!
//! Three groups:
//!
//! * generators — `simclock`/`netsim`/`mpisim`/`workloads`/`experiments`
//!   reached through `experiments::fig7` and `workloads::churn_scenario`,
//!   plus one local p2p generator; they only ever run inside `setup_s`;
//! * jobs — the public calls whose wall time is the job span;
//! * layer probes — one public function each, timed from outside on the
//!   workload's own input during the traced run.
//!
//! The program under test receives only generated inputs: nothing below
//! the generators sees the seed or a workload name.

use clocksync::{
    apply_maps, controlled_logical_clock, synchronize, synchronize_stream_incremental, ClcParams,
    DepGraph, LinearInterpolation, OnlineSpec, PipelineReport, PipelineStats, PreSync, SyncMethod,
    TimestampMap, TraceAnalysis,
};
use experiments::fig7::{pop_program, traced_run};
use onlinesync::{DriftKalman, KalmanParams, NetworkConfig, OnlineCorrector, ProbeFix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::sync::Arc;
use std::time::Instant;
use syncd::{
    chunked, estimate_job_cost, JobInput, JobSpec, NetServerConfig, ServiceConfig, SyncService,
    TenantConfig,
};
use syncd_client::JobRequest;
use syncd_wire::{Frame, FrameScanner, WireJobConfig, WireLatency, CHUNK_PAYLOAD};
use tracefmt::io::{from_binary_columnar, to_binary_columnar_v3_blocked};
use tracefmt::{
    check_collectives_at, check_p2p_messages_at, CensusPlan, EventKind, LatencyTable, MinLatency,
    Rank, Tag, TraceColumns,
};
use workloads::churn_scenario;

pub use clocksync::{OffsetMeasurement, PipelineConfig};
pub use syncd::NetServer;
pub use syncd_client::SyncClient;
pub use tracefmt::Trace;

/// One offset measurement slot per process (`None` for the reference).
pub type Measurements = Vec<Option<OffsetMeasurement>>;

/// `DTC3` block size every encoded input uses.
pub const BLOCK_EVENTS: usize = 1024;
/// Chunk size `stream_windowed` feeds the incremental engine with.
pub const STREAM_CHUNK: usize = 64 * 1024;
/// Window of the incremental engine.
pub const WINDOW_EVENTS: usize = 1024;
/// Auth token of the one benchmark tenant.
const TENANT: &str = "bench";

/// What a job hands back to the harness, whatever entry point ran it.
#[derive(Debug, Clone, Default)]
pub struct JobOut {
    /// Events in the corrected output.
    pub events: u64,
    /// `(stage name, seconds, items)` rows of the `PipelineStats` the call
    /// returned (empty over the wire, which carries no stage table).
    pub stages: Vec<(&'static str, f64, u64)>,
    /// CLC corrections applied (0 without a CLC).
    pub jumps: u64,
    /// Events whose timestamp the CLC changed.
    pub events_moved: u64,
    /// `PipelineStats::peak_resident_column_bytes`.
    pub peak_column_bytes: u64,
    /// Frames the incremental engine emitted (0 on batch paths).
    pub frames: u64,
    /// Violations the program's own census found before correction.
    pub raw_violations: u64,
    /// Violations the program's own census found in its final output
    /// (`None` where the entry point runs no census).
    pub final_violations: Option<u64>,
    /// Service-reported time queued, seconds (service paths only).
    pub queue_wait_s: f64,
    /// Service-reported run time, seconds (service paths only).
    pub run_s: f64,
}

fn stage_rows(stats: &PipelineStats) -> Vec<(&'static str, f64, u64)> {
    stats
        .stages
        .iter()
        .map(|s| (s.name, s.seconds, s.items as u64))
        .collect()
}

fn job_out_of_report(report: &PipelineReport, events: usize) -> JobOut {
    let last = report.after_clc.as_ref().unwrap_or(&report.after_presync);
    JobOut {
        events: events as u64,
        stages: stage_rows(&report.stats),
        jumps: report.clc.as_ref().map_or(0, |c| c.n_jumps() as u64),
        events_moved: report.clc.as_ref().map_or(0, |c| c.events_moved as u64),
        peak_column_bytes: report.stats.peak_resident_column_bytes,
        raw_violations: report.raw.total_violations() as u64,
        final_violations: Some(last.total_violations() as u64),
        ..JobOut::default()
    }
}

// ---------------------------------------------------------------------
// Inputs and generators (setup only)
// ---------------------------------------------------------------------

/// An in-memory batch job: everything `clocksync::synchronize` takes.
pub struct BatchInput {
    /// Raw trace (cloned per job, untimed).
    pub trace: Trace,
    /// Init measurements.
    pub init: Measurements,
    /// Finalize measurements (`None` where the workload runs without).
    pub fin: Option<Measurements>,
    /// Frozen `l_min` model.
    pub lmin: LatencyTable,
    /// Pipeline configuration.
    pub cfg: PipelineConfig,
}

fn freeze_uniform(lmin: Dur, n: usize) -> LatencyTable {
    let ranks: Vec<Rank> = (0..n as u32).map(Rank).collect();
    LatencyTable::freeze(&tracefmt::UniformLatency(lmin), &ranks)
}

/// `pop_batch`: the example's POP-like run — 32 ranks, halo p2p +
/// allreduce, ~166 k events — with `PreSync::Linear` + CLC, sequential.
pub fn gen_pop(seed: u64) -> BatchInput {
    let (program, duration, compression) = pop_program(20);
    let run = traced_run(&program, duration, compression, seed);
    let n = run.trace.n_procs();
    let ranks: Vec<Rank> = (0..n as u32).map(Rank).collect();
    let cluster = &run.cluster;
    let lmin = LatencyTable::freeze(&|a: Rank, b: Rank| cluster.l_min(a, b, 0), &ranks);
    BatchInput {
        trace: run.trace,
        init: run.init,
        fin: Some(run.fin),
        lmin,
        cfg: PipelineConfig {
            presync: PreSync::Linear,
            clc: Some(ClcParams::default()),
            parallel: None,
            ..PipelineConfig::default()
        },
    }
}

/// The two `BENCH_online.json` churn configurations.
fn churn_config(which: usize) -> NetworkConfig {
    match which {
        0 => NetworkConfig::default(),
        _ => NetworkConfig {
            nodes: 12,
            clusters: 3,
            joins: 2,
            leaves: 2,
            ..NetworkConfig::default()
        },
    }
}

/// `online_churn`: a dynamic-membership trace of at least `min_events`
/// events, corrected by `SyncMethod::Online` over the full probe
/// schedules. The horizon is raised until the generator places enough
/// traffic between co-alive pairs.
pub fn gen_churn(which: usize, min_events: usize, seed: u64) -> BatchInput {
    let mut cfg = churn_config(which);
    let msgs = min_events / 2 + min_events / 20;
    let scenario = loop {
        let s = churn_scenario(cfg.clone(), msgs, seed);
        if s.trace.n_events() >= min_events {
            break s;
        }
        cfg.horizon_s *= 1.5;
    };
    let conv = |m: &workloads::ProbeMeasurement| OffsetMeasurement {
        worker_time: m.worker_time,
        offset: m.offset,
        rtt: m.rtt,
    };
    let n = scenario.trace.n_procs();
    let probes: Vec<Vec<_>> = scenario
        .probes
        .iter()
        .map(|ps| ps.iter().map(conv).collect())
        .collect();
    BatchInput {
        init: scenario.init.iter().map(|m| m.as_ref().map(conv)).collect(),
        fin: Some(scenario.fin.iter().map(|m| m.as_ref().map(conv)).collect()),
        lmin: freeze_uniform(scenario.lmin.0, n),
        cfg: PipelineConfig {
            method: SyncMethod::Online(OnlineSpec::new(probes)),
            parallel: None,
            ..PipelineConfig::default()
        },
        trace: scenario.trace,
    }
}

/// A causally valid p2p message trace with constant per-process clock
/// offsets (the shape of the repo's service and ingest benches): the
/// skews produce real violations, so the CLC does forward and backward
/// work. Measurements undo the offsets to within 2 µs.
pub fn gen_p2p(procs: usize, msgs: usize, seed: u64) -> (Trace, Measurements, Measurements) {
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<i64> = (0..procs)
        .map(|p| {
            if p == 0 {
                0
            } else {
                rng.gen_range(-400i64..400)
            }
        })
        .collect();
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    for m in 0..msgs {
        let from = rng.gen_range(0usize..procs);
        let to = (from + rng.gen_range(1usize..procs)) % procs;
        let send = now[from] + rng.gen_range(5i64..40);
        now[from] = send;
        let recv = send.max(now[to]) + 4 + rng.gen_range(0i64..20);
        now[to] = recv;
        trace.procs[from].push(
            Time::from_us(send + offsets[from]),
            EventKind::Send {
                to: Rank(to as u32),
                tag: Tag(m as u32),
                bytes: 64,
            },
        );
        trace.procs[to].push(
            Time::from_us(recv + offsets[to]),
            EventKind::Recv {
                from: Rank(from as u32),
                tag: Tag(m as u32),
                bytes: 64,
            },
        );
    }
    let end = now.iter().copied().max().unwrap_or(0) + 100;
    let measure = |p: usize, t: i64| {
        (p != 0).then(|| OffsetMeasurement {
            worker_time: Time::from_us(t + offsets[p]),
            offset: Dur::from_us(-offsets[p] + 2),
            rtt: Dur::from_us(10),
        })
    };
    let init = (0..procs).map(|p| measure(p, 0)).collect();
    let fin = (0..procs).map(|p| measure(p, end)).collect();
    (trace, init, fin)
}

/// A chunked `DTC3` stream for the incremental engine.
pub struct StreamInput {
    /// The source trace and pipeline pieces: `PreSync::None` + CLC,
    /// sequential, no measurements, uniform 1 µs `l_min`. Batch
    /// `synchronize` on it is what the decoded frames must equal.
    pub batch: BatchInput,
    /// The encoded stream in [`STREAM_CHUNK`]-byte chunks.
    pub chunks: Vec<Vec<u8>>,
}

/// `stream_windowed`: 16 processes, `msgs` p2p messages, encoded once.
pub fn gen_stream(msgs: usize, seed: u64) -> StreamInput {
    const PROCS: usize = 16;
    let (trace, _, _) = gen_p2p(PROCS, msgs, seed);
    StreamInput {
        chunks: chunked(&encode_v3(&trace), STREAM_CHUNK),
        batch: BatchInput {
            trace,
            init: vec![None; PROCS],
            fin: None,
            lmin: freeze_uniform(Dur::from_us(1), PROCS),
            cfg: PipelineConfig {
                presync: PreSync::None,
                clc: Some(ClcParams::default()),
                parallel: None,
                ..PipelineConfig::default()
            },
        },
    }
}

/// `tracefmt::io::to_binary_columnar_v3_blocked` at [`BLOCK_EVENTS`].
pub fn encode_v3(trace: &Trace) -> Vec<u8> {
    to_binary_columnar_v3_blocked(trace, BLOCK_EVENTS).to_vec()
}

/// `tracefmt::io::from_binary_columnar` over a chunk list, timelines
/// sorted by location: the incremental engine emits frames in
/// finalization order, so the decoder meets timelines in another order
/// than the source trace holds them.
pub fn decode_stream(chunks: &[Vec<u8>]) -> Result<Trace, String> {
    let mut trace = from_binary_columnar(chunks.concat().into()).map_err(|e| e.to_string())?;
    trace.procs.sort_by_key(|p| p.location);
    Ok(trace)
}

/// One `net_mixed` job class: the wire request plus the same job as
/// in-memory pieces (reference, in-process twin and layer probes).
pub struct NetInput {
    /// Source trace, measurements, uniform 4 µs `l_min` and
    /// `PipelineConfig::default()`.
    pub batch: BatchInput,
    /// The encoded `DTC3` stream.
    pub bytes: Vec<u8>,
    /// The wire request carrying `bytes` and the same configuration.
    pub request: JobRequest,
}

const NET_PROCS: usize = 8;
const NET_LMIN: Dur = Dur::from_us(4);

/// A `net_mixed` job class of `msgs` messages over 8 processes.
pub fn gen_net(msgs: usize, seed: u64) -> NetInput {
    let (trace, init, fin) = gen_p2p(NET_PROCS, msgs, seed);
    let bytes = encode_v3(&trace);
    let cfg = PipelineConfig::default();
    let config = WireJobConfig::new(&cfg, WireLatency::Uniform(NET_LMIN.as_ps()))
        .with_measurements(&init, Some(&fin));
    let request = JobRequest {
        config,
        chunks: vec![bytes.clone()],
    };
    let lmin = freeze_uniform(NET_LMIN, NET_PROCS);
    NetInput {
        batch: BatchInput {
            trace,
            init,
            fin: Some(fin),
            lmin,
            cfg,
        },
        bytes,
        request,
    }
}

// ---------------------------------------------------------------------
// Jobs (the timed calls)
// ---------------------------------------------------------------------

/// `clocksync::synchronize` on a fresh clone of the input's trace.
pub fn batch_job(input: &BatchInput, trace: &mut Trace) -> Result<JobOut, String> {
    let report = synchronize(
        trace,
        &input.init,
        input.fin.as_deref(),
        &input.lmin,
        &input.cfg,
    )
    .map_err(|e| e.to_string())?;
    Ok(job_out_of_report(&report, trace.n_events()))
}

/// `clocksync::synchronize_stream_incremental` over the chunked stream.
pub fn windowed_job(input: &StreamInput) -> Result<(Vec<Vec<u8>>, JobOut), String> {
    let chunks: Vec<&[u8]> = input.chunks.iter().map(Vec::as_slice).collect();
    let b = &input.batch;
    let (frames, rep) = synchronize_stream_incremental(
        &chunks,
        &b.init,
        b.fin.as_deref(),
        &b.lmin,
        &b.cfg,
        WINDOW_EVENTS,
    )
    .map_err(|e| e.to_string())?;
    let out = JobOut {
        events: rep.events as u64,
        stages: stage_rows(&rep.stats),
        jumps: rep.clc.as_ref().map_or(0, |c| c.n_jumps() as u64),
        events_moved: rep.clc.as_ref().map_or(0, |c| c.events_moved as u64),
        peak_column_bytes: rep.stats.peak_resident_column_bytes,
        frames: rep.frames as u64,
        ..JobOut::default()
    };
    Ok((frames, out))
}

/// A loopback `NetServer` with the default `ServiceConfig`.
pub fn net_server_start() -> Result<NetServer, String> {
    NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new(TENANT)],
        ..NetServerConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// `NetServer::shutdown`.
pub fn net_server_stop(server: NetServer) {
    server.shutdown();
}

/// `SyncClient::connect` to the loopback server.
pub fn net_connect(server: &NetServer) -> Result<SyncClient, String> {
    SyncClient::connect(server.local_addr(), TENANT).map_err(|e| e.to_string())
}

/// `SyncClient::submit`: upload, wait, download. Returns the corrected
/// stream chunks alongside the summary.
pub fn net_job(
    client: &mut SyncClient,
    input: &NetInput,
) -> Result<(Vec<Vec<u8>>, JobOut), String> {
    let out = client.submit(&input.request).map_err(|e| e.to_string())?;
    let s = &out.summary;
    let job = JobOut {
        events: s.events_total,
        jumps: s.n_jumps,
        events_moved: s.events_moved,
        raw_violations: s.raw_violations,
        final_violations: s.census_present.then_some(s.after_clc_violations),
        queue_wait_s: s.queue_wait_us as f64 * 1e-6,
        run_s: s.run_time_us as f64 * 1e-6,
        ..JobOut::default()
    };
    Ok((out.stream, job))
}

/// `SyncService::start` with the default configuration.
pub fn service_start() -> SyncService {
    SyncService::start(ServiceConfig::default())
}

/// `SyncService::shutdown`.
pub fn service_stop(service: SyncService) {
    service.shutdown();
}

/// The in-process twin of [`net_job`]: the same stream input through
/// `SyncService::submit` → `JobHandle::wait`. Returns the start and wall
/// seconds of that span (building the spec copies the input and is not
/// in it).
pub fn service_job(
    service: &SyncService,
    input: &NetInput,
) -> Result<(Instant, f64, JobOut), String> {
    let lmin: Arc<dyn MinLatency + Send + Sync> = Arc::new(tracefmt::UniformLatency(NET_LMIN));
    let spec = JobSpec::new(
        JobInput::Stream(chunked(&input.bytes, CHUNK_PAYLOAD)),
        input.batch.init.clone(),
        input.batch.fin.clone(),
        lmin,
        input.batch.cfg.clone(),
    );
    let start = Instant::now();
    let handle = service.submit(spec).map_err(|e| e.to_string())?;
    let done = handle.wait().map_err(|f| f.error.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = job_out_of_report(&done.report, done.trace.n_events());
    out.queue_wait_s = done.queue_wait.as_secs_f64();
    out.run_s = done.run_time.as_secs_f64();
    Ok((start, wall_s, out))
}

// ---------------------------------------------------------------------
// Verification helpers that read the repo's types
// ---------------------------------------------------------------------

/// Every timestamp of `trace` in picoseconds, timeline-major.
pub fn timestamps(trace: &Trace) -> impl Iterator<Item = i64> + '_ {
    trace
        .procs
        .iter()
        .flat_map(|p| p.events.iter().map(|e| e.time.as_ps()))
}

/// `Trace::n_events`.
pub fn n_events(trace: &Trace) -> usize {
    trace.n_events()
}

/// Bytes of event records an in-memory job is handed.
pub fn trace_bytes(trace: &Trace) -> u64 {
    (trace.n_events() * std::mem::size_of::<tracefmt::EventRecord>()) as u64
}

/// `Trace::is_locally_monotone`.
pub fn is_monotone(trace: &Trace) -> bool {
    trace.is_locally_monotone()
}

/// The benchmark's own Eq. 1 census of a (corrected) trace: p2p plus
/// logical collective messages, through the reference per-item checks
/// rather than the planned kernels the pipeline runs.
pub fn count_violations(trace: &Trace, lmin: &LatencyTable) -> Result<u64, String> {
    let analysis = TraceAnalysis::capture(trace)?;
    let p2p = check_p2p_messages_at(trace, &analysis.matching.messages, lmin);
    let coll = check_collectives_at(trace, &analysis.instances, lmin);
    Ok((p2p.violations.len() + coll.logical_violated) as u64)
}

// ---------------------------------------------------------------------
// Layer probes: one public function each, timed from outside
// ---------------------------------------------------------------------

/// Median of `reps` self-timed samples.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..reps.max(1)).map(|_| f()).collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall time of `reps` calls of `f`.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median_of(reps, || {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64()
    })
}

/// `tracefmt` probes every workload can run on its own trace.
pub fn probe_tracefmt(input: &BatchInput, reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let trace = &input.trace;
    out.push((
        "tracefmt.match_s",
        timed(reps, || TraceAnalysis::capture(trace)),
    ));
    let Ok(analysis) = TraceAnalysis::capture(trace) else {
        return;
    };
    let cols = TraceColumns::gather(trace);
    let plan = || {
        CensusPlan::for_columns(
            &cols,
            &analysis.matching.messages,
            &analysis.instances,
            &input.lmin,
        )
    };
    out.push(("tracefmt.plan_s", timed(reps, plan)));
    if let Ok(plan) = plan() {
        let flat = plan.flat_of(&cols);
        out.push((
            "tracefmt.census_s",
            timed(reps, || {
                (plan.p2p_census(flat), plan.collective_census(flat))
            }),
        ));
    }
}

/// Codec probes: `DTC3` encode of the trace and decode of the result.
pub fn probe_codec(trace: &Trace, reps: usize, out: &mut Vec<(&'static str, f64)>) {
    out.push(("tracefmt.encode_v3_s", timed(reps, || encode_v3(trace))));
    let bytes = encode_v3(trace);
    out.push((
        "tracefmt.decode_v3_s",
        timed(reps, || from_binary_columnar(bytes.clone().into())),
    ));
}

/// `clocksync` probes for the CLC workloads: presync (`apply_maps` with
/// the Eq. 3 maps, where the workload has finalize measurements), the CSR
/// lowering, and the serial CLC on the presynced clone.
pub fn probe_clocksync(input: &BatchInput, reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let mut presynced = input.trace.clone();
    if let (PreSync::Linear, Some(fin)) = (input.cfg.presync, &input.fin) {
        let maps: Vec<Box<dyn TimestampMap>> = input
            .init
            .iter()
            .zip(fin)
            .map(|(a, b)| -> Box<dyn TimestampMap> {
                match (a, b) {
                    (Some(a), Some(b)) => Box::new(LinearInterpolation::new(a, b)),
                    _ => Box::new(clocksync::IdentityMap),
                }
            })
            .collect();
        out.push((
            "clocksync.presync_s",
            median_of(reps, || {
                let mut t = input.trace.clone();
                let t0 = Instant::now();
                apply_maps(&mut t, &maps);
                t0.elapsed().as_secs_f64()
            }),
        ));
        apply_maps(&mut presynced, &maps);
    }
    let Ok(analysis) = TraceAnalysis::capture(&input.trace) else {
        return;
    };
    out.push((
        "clocksync.lower_s",
        timed(reps, || {
            DepGraph::from_trace(
                &input.trace,
                &analysis.matching,
                &analysis.instances,
                &input.lmin,
            )
        }),
    ));
    let Some(params) = input.cfg.clc else { return };
    out.push((
        "clocksync.clc_serial_s",
        median_of(reps, || {
            let mut t = presynced.clone();
            let t0 = Instant::now();
            let _ = std::hint::black_box(controlled_logical_clock(&mut t, &input.lmin, &params));
            t0.elapsed().as_secs_f64()
        }),
    ));
}

/// `onlinesync` probes on the workload's own probe schedules and trace:
/// raw filter updates per second and corrector events per second.
pub fn probe_onlinesync(input: &BatchInput, reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let SyncMethod::Online(spec) = &input.cfg.method else {
        return;
    };
    let lanes: Vec<Vec<ProbeFix>> = spec
        .probes
        .iter()
        .map(|ps| {
            ps.iter()
                .map(|m| ProbeFix::new(m.worker_time, m.offset, m.rtt))
                .collect()
        })
        .collect();
    let n_probes: usize = lanes.iter().map(Vec::len).sum();
    // The schedules are short; loop them so the timer has something to see.
    let loops = (200_000 / n_probes.max(1)).max(1);
    let t_filter = timed(reps, || {
        let mut updates = 0u64;
        for _ in 0..loops {
            for lane in &lanes {
                let mut k = DriftKalman::new(KalmanParams::default());
                for p in lane {
                    k.observe(*p);
                }
                updates += k.updates();
            }
        }
        updates
    });
    out.push((
        "onlinesync.filter_updates_per_s",
        (loops * n_probes) as f64 / t_filter.max(1e-12),
    ));
    let cols = TraceColumns::gather(&input.trace);
    let t_corr = timed(reps, || {
        let mut corr = OnlineCorrector::new(lanes.clone(), spec.kalman);
        let mut acc = 0i64;
        for (p, col) in cols.iter().enumerate() {
            let lane = corr.lane_mut(p);
            for &t in col {
                acc = acc.wrapping_add(lane.map_next(t));
            }
        }
        acc
    });
    out.push((
        "onlinesync.corrector_events_per_s",
        cols.n_events() as f64 / t_corr.max(1e-12),
    ));
}

/// Wire and admission probes on one `net_mixed` job class: frame encode
/// of the whole upload, a scan of those bytes, and the admission
/// estimate of the stream.
pub fn probe_wire(input: &NetInput, reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let encode = || {
        let mut wire = Frame::JobConfig(Box::new(input.request.config.clone())).encode();
        for slice in input.bytes.chunks(CHUNK_PAYLOAD) {
            wire.extend_from_slice(&Frame::Chunk(slice.to_vec()).encode());
        }
        wire.extend_from_slice(&Frame::ChunkEnd.encode());
        wire
    };
    out.push(("syncd-wire.encode_s", timed(reps, encode)));
    let wire = encode();
    out.push((
        "syncd-wire.scan_s",
        timed(reps, || {
            let mut scanner = FrameScanner::new();
            wire.chunks(64 * 1024)
                .map(|c| scanner.feed(c).map_or(0, |f| f.len()))
                .sum::<usize>()
        }),
    ));
    let job = JobInput::Stream(chunked(&input.bytes, CHUNK_PAYLOAD));
    out.push((
        "syncd.admission_estimate_s",
        timed(reps, || estimate_job_cost(&job)),
    ));
}
