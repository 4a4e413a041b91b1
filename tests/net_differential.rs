//! Differential guarantees for the network layer: a job submitted through
//! `syncd-client` over a real loopback socket produces **bit-identical**
//! output — corrected timestamps, jump set, max jump, typed errors — to
//! the reference chain (`common::reference_synchronize`) across the
//! presync grid and for the online method, and to the same job
//! run in process for incremental mode, under contention, and around
//! mid-job client disconnects.

mod common;

use common::{assert_identical, drifted_trace, reference_synchronize};
use drift_lab::clocksync::{
    synchronize, synchronize_stream_incremental, OffsetMeasurement, PipelineConfig, PreSync,
};
use drift_lab::syncd::{
    chunked, Counter, Fault, FaultInjector, NetServer, NetServerConfig, ServiceConfig,
    TenantConfig,
};
use drift_lab::syncd_client::{ClientError, JobRequest, SyncClient};
use drift_lab::syncd_wire::{ErrorCode, WireJobConfig, WireLatency, WireMode};
use drift_lab::tracefmt::io::{
    from_binary_columnar, to_binary_columnar_blocked, to_binary_columnar_v3_blocked,
};
use drift_lab::tracefmt::UniformLatency;
use std::time::Duration;

const PRESYNCS: [PreSync; 2] = [PreSync::AlignOnly, PreSync::Linear];

fn configs() -> Vec<(String, PipelineConfig)> {
    PRESYNCS
        .iter()
        .map(|&presync| {
            (format!("{presync:?}"), PipelineConfig { presync, ..PipelineConfig::default() })
        })
        .collect()
}

fn request(
    cfg: &PipelineConfig,
    lmin: UniformLatency,
    init: &[Option<OffsetMeasurement>],
    fin: &[Option<OffsetMeasurement>],
    mode: WireMode,
    chunks: Vec<Vec<u8>>,
) -> JobRequest {
    let config = WireJobConfig {
        mode,
        ..WireJobConfig::new(cfg, WireLatency::Uniform(lmin.0.as_ps()))
            .with_measurements(init, Some(fin))
    };
    JobRequest { config, chunks }
}

fn test_server() -> NetServer {
    NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("tok")],
        ingest_window: 1 << 20,
        service: ServiceConfig {
            executors: 2,
            ..ServiceConfig::default()
        },
    })
    .expect("bind loopback")
}

/// Batch jobs over the socket across the whole grid: the returned stream
/// decodes to exactly the oracle's corrected trace, and the summary's
/// census and jump statistics equal the oracle's (jumps in canonical
/// order: the reference CLC lists them in its own discovery order).
#[test]
fn loopback_batch_matches_direct_across_the_grid() {
    let (trace, init, fin, lmin) = drifted_trace(4, 300, "sinusoid", 42);
    let v2 = to_binary_columnar_blocked(&trace, 32).to_vec();
    let server = test_server();
    let mut client = SyncClient::connect(server.local_addr(), "tok").expect("connect");

    let mut legs = 0usize;
    for (label, cfg) in configs() {
        let mut direct = trace.clone();
        let (raw, _, _, clc) = reference_synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg);

        let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![v2.clone()]);
        let out = client
            .submit(&req)
            .unwrap_or_else(|e| panic!("{label}: socket job failed: {e}"));

        let returned = from_binary_columnar(out.stream.concat().into())
            .unwrap_or_else(|e| panic!("{label}: returned stream does not decode: {e}"));
        assert_identical(&direct, &returned, &format!("{label} (over socket)"));

        assert!(out.summary.census_present, "{label}: batch runs censuses");
        assert_eq!(
            out.summary.raw_violations as usize,
            raw.total_violations(),
            "{label}: raw census"
        );
        let clc = clc.expect("default config runs the CLC");
        assert_eq!(out.summary.n_jumps as usize, clc.jumps.len(), "{label}: jump count");
        assert_eq!(out.summary.max_jump_ps, clc.max_jump.as_ps(), "{label}: max jump");
        let canonical = |mut v: Vec<(u32, u32, i64)>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            canonical(out.jumps.iter().map(|w| (w.proc, w.idx, w.size_ps)).collect()),
            canonical(
                clc.jumps.iter().map(|j| (j.event.proc, j.event.idx, j.size.as_ps())).collect()
            ),
            "{label}: jump frames"
        );
        legs += 1;
    }
    assert_eq!(legs, PRESYNCS.len(), "grid collapsed");
    server.shutdown();
}

/// The reply echoes the upload's wire version however the upload was
/// framed: a `DTC3` stream whose first `Chunk` carries two bytes — too few
/// to hold a magic — is answered in `DTC3`, with the bytes the one-chunk
/// upload gets.
#[test]
fn loopback_reply_version_survives_a_split_magic() {
    let (trace, init, fin, lmin) = drifted_trace(3, 120, "sinusoid", 17);
    let v3 = to_binary_columnar_v3_blocked(&trace, 32).to_vec();
    let cfg = PipelineConfig::default();
    let server = test_server();
    let mut client = SyncClient::connect(server.local_addr(), "tok").expect("connect");
    let mut reply = |chunks: Vec<Vec<u8>>| {
        let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, chunks);
        client.submit(&req).expect("socket job").stream.concat()
    };
    let whole = reply(vec![v3.clone()]);
    let split = reply(vec![v3[..2].to_vec(), v3[2..].to_vec()]);
    assert!(split.starts_with(b"DTC3"), "a DTC3 upload answered as {:?}", &split[..4]);
    assert_eq!(split, whole, "the reply depends on how the upload was chunked");
    let mut direct = trace.clone();
    synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct run");
    let returned = from_binary_columnar(split.into()).expect("the reply decodes");
    assert_identical(&direct, &returned, "split-magic upload (over socket)");
    server.shutdown();
}

/// Incremental jobs stream corrected frames back while running; their
/// concatenation must be byte-identical to the in-process incremental
/// engine's output, for both DTC2 and DTC3 inputs.
#[test]
fn loopback_incremental_streams_identical_bytes() {
    let (trace, init, fin, lmin) = drifted_trace(3, 400, "randomwalk", 9);
    let inputs = [
        ("v2", to_binary_columnar_blocked(&trace, 64).to_vec()),
        ("v3", to_binary_columnar_v3_blocked(&trace, 64).to_vec()),
    ];
    let server = test_server();
    let mut client = SyncClient::connect(server.local_addr(), "tok").expect("connect");

    // `u64::MAX` is what a hostile `JobConfig` can put on the wire: the
    // engine sizes its lanes by the timelines, so the job is answered like
    // any other — and the jobs after it find the server alive.
    for window in [128u64, u64::MAX, 1024] {
        for (which, bytes) in &inputs {
            let label = format!("{which}/win{window}");
            let cfg = PipelineConfig::default();
            let refs = [bytes.as_slice()];
            let (direct_frames, direct_rep) = synchronize_stream_incremental(
                &refs,
                &init,
                Some(&fin),
                &lmin,
                &cfg,
                window as usize,
            )
            .unwrap_or_else(|e| panic!("{label}: direct incremental failed: {e}"));

            let req = request(
                &cfg,
                lmin,
                &init,
                &fin,
                WireMode::Incremental { window_events: window },
                vec![bytes.clone()],
            );
            let out = client
                .submit(&req)
                .unwrap_or_else(|e| panic!("{label}: socket job failed: {e}"));

            assert_eq!(
                out.stream.concat(),
                direct_frames.concat(),
                "{label}: streamed bytes diverge from the in-process engine"
            );
            assert_eq!(
                out.summary.frames as usize,
                direct_frames.len(),
                "{label}: frame count"
            );
            assert!(!out.summary.census_present, "{label}: incremental skips censuses");
            if let Some(clc) = &direct_rep.clc {
                assert_eq!(out.summary.n_jumps as usize, clc.jumps.len(), "{label}: jumps");
                assert_eq!(out.summary.max_jump_ps, clc.max_jump.as_ps(), "{label}: max");
            }
        }
    }
    server.shutdown();
}

/// Concurrent clients contending for the same small executor pool all get
/// bit-identical results, and sequential jobs reuse one connection.
#[test]
fn loopback_contention_and_connection_reuse() {
    let (trace, init, fin, lmin) = drifted_trace(3, 200, "constant", 77);
    let bytes = to_binary_columnar_blocked(&trace, 32).to_vec();
    let cfg = PipelineConfig::default();
    let mut direct = trace.clone();
    synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct");

    let server = test_server();
    let addr = server.local_addr();
    let threads: Vec<_> = (0..3)
        .map(|_| {
            let (bytes, init, fin, cfg) = (bytes.clone(), init.clone(), fin.clone(), cfg.clone());
            std::thread::spawn(move || {
                let mut client = SyncClient::connect(addr, "tok").expect("connect");
                let mut streams = Vec::new();
                // Two sequential jobs per connection: credit must carry over.
                for _ in 0..2 {
                    let req =
                        request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![bytes.clone()]);
                    streams.push(client.submit(&req).expect("job").stream.concat());
                }
                streams
            })
        })
        .collect();
    for t in threads {
        for stream in t.join().expect("client thread") {
            let returned = from_binary_columnar(stream.into()).expect("decode");
            assert_identical(&direct, &returned, "contended socket job");
        }
    }
    let m = server.metrics();
    assert_eq!(m.counter(Counter::NetJobs), 6);
    assert_eq!(m.counter(Counter::NetAuthFailures), 0);
    server.shutdown();
}

/// A job of several full-size `Chunk` frames over a real socket: each
/// 256 KiB frame straddles the server's 64 KiB reads, so the upload is
/// mostly reads that complete no frame — and none of them may cost a
/// back-off (`NetIdleSleeps <= NetIdleReads`; a driver that sleeps on a
/// partial read takes ≥ 14 of them here on no idle read at all). Counts,
/// not times: they hold however the kernel slices the stream. The reply
/// is still the direct call's bits.
#[test]
fn loopback_upload_never_sleeps_on_progress() {
    let (trace, init, fin, lmin) = drifted_trace(8, 18_000, "sinusoid", 5);
    let bytes = to_binary_columnar_v3_blocked(&trace, 1024).to_vec();
    assert!(bytes.len() > 1_250_000, "stream is only {} bytes", bytes.len());
    let cfg = PipelineConfig::default();
    let mut direct = trace.clone();
    synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct");
    // Built before connecting: the upload is not paced by the encoder.
    let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![bytes]);

    let server = test_server();
    let mut client = SyncClient::connect(server.local_addr(), "tok").expect("connect");
    let out = client.submit(&req).expect("socket job");
    let returned = from_binary_columnar(out.stream.concat().into()).expect("reply decodes");
    assert_identical(&direct, &returned, "large job over socket");

    let m = server.shutdown();
    let (partial, idle, sleeps) = (
        m.counter(Counter::NetPartialReads),
        m.counter(Counter::NetIdleReads),
        m.counter(Counter::NetIdleSleeps),
    );
    assert!(partial >= 4, "only {partial} partial reads on a multi-frame upload");
    assert!(sleeps <= idle, "{sleeps} back-offs on {idle} idle reads ({partial} partial reads)");
}

/// Typed failures cross the wire as typed error frames: auth, malformed
/// input (a poisoned stream fails its retry budget), and tenant quotas.
#[test]
fn loopback_errors_are_typed() {
    let (trace, init, fin, lmin) = drifted_trace(2, 120, "constant", 5);
    let bytes = to_binary_columnar_blocked(&trace, 16).to_vec();
    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![
            TenantConfig::new("tok"),
            TenantConfig {
                token: "small".into(),
                max_job_bytes: 256,
                max_connections: 64,
            },
        ],
        ingest_window: 1 << 20,
        service: ServiceConfig {
            executors: 1,
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    })
    .expect("bind");
    let addr = server.local_addr();

    // Unknown token.
    match SyncClient::connect(addr, "wrong") {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::AuthFailed),
        Err(other) => panic!("expected AuthFailed, got {other:?}"),
        Ok(_) => panic!("expected AuthFailed, got a connection"),
    }

    // Poisoned stream: admission lets a subtly corrupt stream through and
    // the pipeline fails typed after its retries.
    let poisoned = FaultInjector::new()
        .with(Fault::FlipByte { at: bytes.len() / 2, xor: 0x40 })
        .apply(&chunked(&bytes, 64));
    let mut client = SyncClient::connect(addr, "tok").expect("connect");
    let cfg = PipelineConfig::default();
    let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, poisoned);
    match client.submit(&req) {
        Err(ClientError::Remote { code, .. }) => {
            assert!(
                matches!(code, ErrorCode::Pipeline | ErrorCode::Panicked | ErrorCode::Malformed),
                "poisoned job must fail typed, got {code:?}"
            );
        }
        other => panic!("expected typed remote error, got {other:?}"),
    }

    // Coincident init/finalize anchors: the measurements come off the wire
    // unchecked, so the pipeline answers for them — typed, without an
    // executor panic — and the server serves the next job.
    let panics_before = server.metrics().counter(Counter::JobPanics);
    let mut coincident = fin.clone();
    coincident[1].as_mut().expect("worker").worker_time = init[1].expect("worker").worker_time;
    let mut client = SyncClient::connect(addr, "tok").expect("connect");
    let req = request(&cfg, lmin, &init, &coincident, WireMode::Batch, vec![bytes.clone()]);
    match client.submit(&req) {
        Err(ClientError::Remote { code, detail }) => {
            assert_eq!(code, ErrorCode::Pipeline, "{detail}");
            assert!(detail.contains("process 1:"), "{detail}");
        }
        other => panic!("expected a typed pipeline error, got {other:?}"),
    }
    assert_eq!(server.metrics().counter(Counter::JobPanics), panics_before);
    let mut client = SyncClient::connect(addr, "tok").expect("connect");
    let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![bytes.clone()]);
    let mut direct = trace.clone();
    synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct");
    let served = client.submit(&req).expect("the next job is served");
    let served = from_binary_columnar(served.stream.concat().into()).expect("reply decodes");
    assert_identical(&direct, &served, "job after the refused one");

    // Tenant upload quota.
    let mut client = SyncClient::connect(addr, "small").expect("connect");
    let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![bytes.clone()]);
    match client.submit(&req) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
        // The server closes after the error frame; a racing writer can see
        // the close first.
        Err(ClientError::Io(_)) => {}
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }

    let m = server.metrics();
    assert!(m.counter(Counter::NetAuthFailures) >= 1);
    server.shutdown();
}

/// A client that vanishes mid-upload or mid-download never leaks an
/// admission charge and never wedges an executor; the server keeps
/// serving new clients with bit-identical results.
#[test]
fn loopback_mid_job_disconnects_release_everything() {
    let (trace, init, fin, lmin) = drifted_trace(3, 300, "sinusoid", 11);
    let bytes = to_binary_columnar_blocked(&trace, 32).to_vec();
    let cfg = PipelineConfig::default();
    let mut direct = trace.clone();
    synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct");

    let server = test_server();
    let addr = server.local_addr();

    // Vanish mid-upload (no ChunkEnd ever sent).
    let client = SyncClient::connect(addr, "tok").expect("connect");
    let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![bytes.clone()]);
    client
        .submit_truncated(&req, bytes.len() / 2)
        .expect("truncated upload");

    // Vanish mid-download of an incremental job's corrected stream.
    let client = SyncClient::connect(addr, "tok").expect("connect");
    let req = request(
        &cfg,
        lmin,
        &init,
        &fin,
        WireMode::Incremental { window_events: 64 },
        vec![bytes.clone()],
    );
    client.submit_abandon_result(&req, 1).expect("abandoned download");

    // Both disconnects must be noticed and fully released.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let m = server.metrics();
        if m.counter(Counter::NetDisconnects) >= 2 && m.admitted_bytes == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "disconnects not fully released: disconnects={} admitted={}",
            m.counter(Counter::NetDisconnects),
            m.admitted_bytes
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The service is healthy: a fresh client gets a bit-identical result.
    let mut client = SyncClient::connect(addr, "tok").expect("connect");
    let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![bytes]);
    let out = client.submit(&req).expect("job after disconnects");
    let returned = from_binary_columnar(out.stream.concat().into()).expect("decode");
    assert_identical(&direct, &returned, "job after disconnects");
    server.shutdown();
}

/// An online-method job over the socket: the method byte, Kalman tuning
/// and per-process probe schedules survive the wire round trip, and the
/// returned stream is bit-identical to the oracle's `SyncMethod::Online`
/// run (`OnlineCorrector::map_next` over the records). The online path
/// runs no CLC, so the summary must report zero jumps.
#[test]
fn loopback_online_method_matches_direct() {
    use drift_lab::clocksync::{OnlineSpec, SyncMethod};

    let (trace, init, fin, lmin) = drifted_trace(4, 300, "sinusoid", 42);
    // Minimal but real probe schedules: the endpoint fixes per process.
    let probes: Vec<Vec<OffsetMeasurement>> = init
        .iter()
        .zip(&fin)
        .map(|(i, f)| i.iter().chain(f.iter()).copied().collect())
        .collect();
    let cfg = PipelineConfig {
        method: SyncMethod::Online(OnlineSpec::new(probes)),
        ..PipelineConfig::default()
    };

    let mut direct = trace.clone();
    let (raw, ..) = reference_synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg);

    let v2 = to_binary_columnar_blocked(&trace, 32).to_vec();
    let server = test_server();
    let mut client = SyncClient::connect(server.local_addr(), "tok").expect("connect");
    let req = request(&cfg, lmin, &init, &fin, WireMode::Batch, vec![v2]);
    let out = client.submit(&req).expect("socket online job");

    let returned =
        from_binary_columnar(out.stream.concat().into()).expect("returned stream decodes");
    assert_identical(&direct, &returned, "online method (over socket)");
    assert_eq!(
        out.summary.raw_violations as usize,
        raw.total_violations(),
        "online: raw census over the wire"
    );
    assert_eq!(out.summary.n_jumps, 0, "online runs no CLC, so no jumps");
    assert!(out.jumps.is_empty(), "online: no jump frames");
    server.shutdown();
}
