//! `syncd` over the wire: a loopback network server and a client speaking
//! the framed protocol.
//!
//! ```sh
//! cargo run --release --example net_service
//! ```
//!
//! Three acts, each asserting what it demonstrates:
//!
//! 1. **batch over TCP** — upload a drifted trace as a `DTC3` stream,
//!    get the corrected trace back, and check it is *bit-identical* to
//!    running the pipeline in-process;
//! 2. **incremental streaming** — the same job in windowed mode, with
//!    corrected frames arriving while the job runs;
//! 3. **typed rejection** — a wrong token fails the handshake with
//!    `AuthFailed`, not a dropped connection.
//!
//! The CI smoke step runs this binary headless; a non-zero exit fails
//! the gate.

use clocksync::PipelineConfig;
use drift_lab::prelude::*;
use drift_lab::syncd::{Counter, NetServer, NetServerConfig, TenantConfig};
use drift_lab::syncd_client::{ClientError, JobRequest, SyncClient};
use drift_lab::syncd_wire::{ErrorCode, WireJobConfig, WireLatency, WireMode};
use drift_lab::tracefmt::io::{from_binary_columnar, to_binary_columnar_v3_blocked};
use drift_lab::workloads::skewed_p2p;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bit-identity: every timestamp and event kind equal, rank by rank.
fn same_bits(a: &Trace, b: &Trace) -> bool {
    a.n_procs() == b.n_procs()
        && a.procs.iter().zip(&b.procs).all(|(pa, pb)| {
            pa.events.len() == pb.events.len()
                && pa
                    .events
                    .iter()
                    .zip(&pb.events)
                    .all(|(ea, eb)| ea.time == eb.time && ea.kind == eb.kind)
        })
}

fn main() {
    let lmin = UniformLatency(Dur::from_us(4));
    let cfg = PipelineConfig::default();
    // Large enough that the upload is more than one 256 KiB `Chunk` frame.
    let (trace, init, fin) = skewed_p2p(&mut StdRng::seed_from_u64(7), 6, 6000, 300);
    let bytes = to_binary_columnar_v3_blocked(&trace, 1024).to_vec();
    println!(
        "fixture: {} ranks, {} events, {} DTC3 bytes",
        trace.n_procs(),
        trace.n_events(),
        bytes.len()
    );

    // The in-process answer every network path must reproduce exactly.
    let mut direct = trace.clone();
    let report = clocksync::synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg)
        .expect("direct run");

    // ---- act 1: batch over a real loopback socket --------------------
    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("demo")],
        ..NetServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("\nserver listening on {addr}");

    let mut client = SyncClient::connect(addr, "demo").expect("handshake");
    let wire_cfg = WireJobConfig::new(&cfg, WireLatency::Uniform(lmin.0.as_ps()))
        .with_measurements(&init, Some(&fin));
    let out = client
        .submit(&JobRequest { config: wire_cfg.clone(), chunks: vec![bytes.clone()] })
        .expect("batch job over TCP");
    let corrected = from_binary_columnar(out.stream.concat().into()).expect("reply decodes");
    assert!(same_bits(&corrected, &direct), "wire result must match in-process bits");
    println!(
        "batch over TCP: {} jumps, {}/{} events moved, {} µs run — bit-identical to in-process",
        out.summary.n_jumps, out.summary.events_moved, out.summary.events_total,
        out.summary.run_time_us
    );
    let clc = report.clc.as_ref().expect("default config runs the CLC");
    assert_eq!(out.summary.n_jumps, clc.jumps.len() as u64);

    // ---- act 2: incremental streaming --------------------------------
    let out = client
        .submit(&JobRequest {
            config: WireJobConfig {
                mode: WireMode::Incremental { window_events: 256 },
                ..wire_cfg.clone()
            },
            chunks: vec![bytes.clone()],
        })
        .expect("incremental job over TCP");
    println!(
        "incremental:    {} corrected frames streamed while the job ran",
        out.summary.frames
    );
    assert!(out.summary.frames > 1, "windowed mode must stream multiple frames");

    // ---- act 3: a wrong token fails typed ----------------------------
    match SyncClient::connect(addr, "not-a-tenant") {
        Err(ClientError::Remote { code, detail }) => {
            assert_eq!(code, ErrorCode::AuthFailed);
            println!("bad token:      rejected typed — {code:?}: {detail}");
        }
        Err(other) => panic!("expected a typed AuthFailed, got {other}"),
        Ok(_) => panic!("the server accepted an unknown tenant"),
    }
    let snapshot = server.shutdown();
    assert_eq!(snapshot.counter(Counter::NetJobs), 2);
    assert_eq!(snapshot.counter(Counter::NetAuthFailures), 1);
    assert_eq!(snapshot.counter(Counter::ServiceCrashes), 0);
    // How the sessions' bytes arrived, and what the connections did about
    // it: they back off only after a read that had nothing to give.
    let (partial, idle, sleeps) = (
        snapshot.counter(Counter::NetPartialReads),
        snapshot.counter(Counter::NetIdleReads),
        snapshot.counter(Counter::NetIdleSleeps),
    );
    println!("reads:          {partial} partial, {idle} idle, {sleeps} idle back-offs");
    assert!(partial > 0, "a 256 KiB frame cannot arrive in one 64 KiB read");
    assert!(sleeps <= idle, "a connection slept on a read that made progress");
    println!("\nall network-path invariants held");
}
