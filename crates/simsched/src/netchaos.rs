//! Seeded connection-fault campaigns against the network layer.
//!
//! The scheduler campaigns ([`crate::harness`]) shake the service from
//! the *inside* — executor interleavings, pipeline faults, clock jumps.
//! This module shakes it from the *edge*: every connection a peer could
//! mishandle, replayed deterministically from one seed over the
//! in-memory [`ScriptedTransport`] (no sockets, no kernel timing):
//!
//! * **partial writes** — sessions arrive fragmented at arbitrary byte
//!   boundaries (`read_limit`), so frame headers and payloads straddle
//!   reads;
//! * **slow senders** — `idle_every` interleaves empty polls, stretching
//!   an upload across many scheduler turns;
//! * **mid-stream disconnects** — the inbound script is truncated at a
//!   seeded byte offset (client vanished), or writes start failing with
//!   `BrokenPipe` after a seeded quota (client vanished while the server
//!   streamed results at it);
//! * **corruption** — a seeded byte flip anywhere in the session.
//!
//! Invariants checked per campaign:
//!
//! 1. **no leaks** — after every connection closes, the service's
//!    admitted-byte gauge returns to zero;
//! 2. **no crashes** — the executor crash counter stays zero; a hostile
//!    connection can fail only *itself*;
//! 3. **typed endings** — every server reply stream parses as well-formed
//!    frames (a clean session ends in `JobResult`, a faulted one in a
//!    typed `Error` or a silent disconnect — never garbage bytes);
//! 4. **bit-identity survives chaos** — clean sessions interleaved with
//!    the hostile ones return exactly the direct pipeline's corrected
//!    trace;
//! 5. **no sleep on progress** — the connections' idle back-offs never
//!    outnumber the reads on which the transport had nothing
//!    (`NetIdleSleeps <= NetIdleReads`): a read that consumed bytes,
//!    however few, is followed by the next read.

use crate::invariant::traces_identical;
use clocksync::{synchronize, PipelineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::Dur;
use syncd::{Counter, NetServer, NetServerConfig, ScriptedTransport, ServiceConfig, TenantConfig};
use syncd_wire::{encode_frame, Frame, FrameScanner, WireJobConfig, WireLatency, MAGIC, VERSION};
use tracefmt::io::{from_binary_columnar, to_binary_columnar_blocked};
use tracefmt::UniformLatency;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct NetChaosConfig {
    /// Connections per campaign (each is one scripted session).
    pub connections: usize,
    /// Server-side per-connection upload credit window.
    pub ingest_window: u64,
    /// Bytes per read of every session; `None` draws one per session
    /// from the seed.
    pub read_limit: Option<usize>,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig { connections: 12, ingest_window: 1 << 20, read_limit: None }
    }
}

/// What one campaign did and found.
#[derive(Debug)]
pub struct NetChaosReport {
    /// Connections driven.
    pub connections: usize,
    /// Clean sessions that ran a job to a verified bit-identical result.
    pub clean_ok: usize,
    /// Sessions with an injected connection fault.
    pub faulted: usize,
    /// First broken invariant, if any.
    pub violation: Option<String>,
}

/// The connection-level fault classes the campaign draws from.
#[derive(Debug, Clone, Copy)]
enum ConnFault {
    /// No fault: the session must succeed bit-identically.
    None,
    /// Client vanishes mid-upload: session bytes cut at `at`.
    TruncateUpload { per_mille: u32 },
    /// One byte of the session flipped.
    FlipByte { per_mille: u32, xor: u8 },
    /// Client vanishes mid-download: server writes fail after `bytes`.
    DropDownload { bytes: u64 },
}

/// Run one seeded connection-chaos campaign. Deterministic given
/// `(seed, cfg)` up to the executor's internal timing, which none of the
/// checked invariants depend on.
pub fn run_net_chaos(seed: u64, cfg: &NetChaosConfig) -> NetChaosReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_7463_6861_6f73); // "netchaos"
    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("chaos")],
        ingest_window: cfg.ingest_window,
        service: ServiceConfig {
            executors: 2,
            max_retries: 1,
            retry_backoff: std::time::Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    })
    .expect("bind loopback");

    let mut report = NetChaosReport {
        connections: 0,
        clean_ok: 0,
        faulted: 0,
        violation: None,
    };

    for c in 0..cfg.connections {
        let procs = rng.gen_range(2usize..5);
        let msgs = rng.gen_range(4usize..40);
        let (trace, init, fin) = workloads::skewed_p2p(&mut rng, procs, msgs, 400);
        let lmin = UniformLatency(Dur::from_us(4));
        let pipeline = PipelineConfig::default();
        let bytes = to_binary_columnar_blocked(&trace, 16);

        let mut session = encode_frame(&Frame::Hello {
            magic: MAGIC,
            version: VERSION,
            token: "chaos".into(),
        });
        let config = WireJobConfig::new(&pipeline, WireLatency::Uniform(lmin.0.as_ps()))
            .with_measurements(&init, Some(&fin));
        session.extend(encode_frame(&Frame::JobConfig(Box::new(config))));
        for chunk in bytes.chunks(1024) {
            session.extend(encode_frame(&Frame::Chunk(chunk.to_vec())));
        }
        session.extend(encode_frame(&Frame::ChunkEnd));

        let fault = match rng.gen_range(0u8..8) {
            0..=2 => ConnFault::None,
            3 | 4 => ConnFault::TruncateUpload { per_mille: rng.gen_range(0..1000) },
            5 | 6 => ConnFault::FlipByte {
                per_mille: rng.gen_range(0..1000),
                xor: rng.gen_range(1u8..=255),
            },
            _ => ConnFault::DropDownload { bytes: rng.gen_range(0u64..512) },
        };

        match fault {
            ConnFault::None => {}
            ConnFault::TruncateUpload { per_mille } => {
                let cut = (session.len() as u64 * per_mille as u64 / 1000) as usize;
                session.truncate(cut.max(1));
            }
            ConnFault::FlipByte { per_mille, xor } => {
                let at = (session.len() as u64 * per_mille as u64 / 1000) as usize;
                let at = at.min(session.len() - 1);
                session[at] ^= xor;
            }
            ConnFault::DropDownload { .. } => {}
        }

        // Every session gets fragmented reads and a randomly slow sender.
        // The limit is drawn even when the campaign fixes it, so a seed
        // means the same sessions either way.
        let drawn_limit = [3usize, 17, 256, 4096, usize::MAX][rng.gen_range(0usize..5)];
        let mut t = ScriptedTransport::new(session)
            .read_limit(cfg.read_limit.unwrap_or(drawn_limit))
            .idle_every([0usize, 2, 5][rng.gen_range(0usize..3)]);
        match fault {
            // A clean or corrupted-but-connected peer waits for its
            // verdict instead of hanging up at end-of-upload; the poll
            // cap bounds sessions the server can neither finish nor fail
            // (a corruption ate the end-of-stream marker).
            ConnFault::None | ConnFault::FlipByte { .. } => {
                t = t.close_after_reply(4_000);
            }
            ConnFault::TruncateUpload { .. } => {}
            ConnFault::DropDownload { bytes } => {
                t = t.close_after_reply(4_000).fail_writes_after(bytes);
            }
        }
        server.serve_transport(&mut t);
        report.connections += 1;

        // Invariant 3: whatever happened, the reply stream is well-formed
        // frames.
        let mut scanner = FrameScanner::new();
        let frames = match scanner.feed(t.outbound()) {
            Ok(f) => f,
            Err(e) => {
                report.violation =
                    Some(format!("seed {seed} conn {c}: server wrote malformed frames: {e}"));
                break;
            }
        };

        if matches!(fault, ConnFault::None) {
            // Invariant 4: the corrected stream is bit-identical to the
            // direct pipeline call on the same input.
            let mut direct = trace.clone();
            if let Err(e) = synchronize(&mut direct, &init, Some(&fin), &lmin, &pipeline) {
                report.violation =
                    Some(format!("seed {seed} conn {c}: direct oracle failed: {e}"));
                break;
            }
            if !matches!(frames.last(), Some(Frame::JobResult(_))) {
                report.violation = Some(format!(
                    "seed {seed} conn {c}: clean session did not end in JobResult: {:?}",
                    frames.last().map(|f| f.kind())
                ));
                break;
            }
            let out: Vec<u8> = frames
                .iter()
                .filter_map(|f| match f {
                    Frame::Chunk(b) => Some(b.as_slice()),
                    _ => None,
                })
                .collect::<Vec<_>>()
                .concat();
            match from_binary_columnar(out.into()) {
                Ok(got) if traces_identical(&got, &direct) => report.clean_ok += 1,
                Ok(_) => {
                    report.violation = Some(format!(
                        "seed {seed} conn {c}: corrected trace diverges from the direct call"
                    ));
                    break;
                }
                Err(e) => {
                    report.violation = Some(format!(
                        "seed {seed} conn {c}: returned stream does not decode: {e}"
                    ));
                    break;
                }
            }
        } else {
            report.faulted += 1;
        }
    }

    // Invariant 5: every back-off followed a read that had nothing.
    if report.violation.is_none() {
        let m = server.metrics();
        let (sleeps, idle) =
            (m.counter(Counter::NetIdleSleeps), m.counter(Counter::NetIdleReads));
        if sleeps > idle {
            report.violation = Some(format!(
                "seed {seed}: {sleeps} idle back-offs on {idle} idle reads: \
                 a connection slept on a read that made progress"
            ));
        }
    }

    // Invariants 1 and 2 at quiescence: nothing admitted, nothing crashed.
    if report.violation.is_none() {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let m = server.metrics();
            if m.admitted_bytes == 0 {
                if m.counter(Counter::ServiceCrashes) != 0 {
                    report.violation = Some(format!(
                        "seed {seed}: {} executor crash(es) under connection chaos",
                        m.counter(Counter::ServiceCrashes)
                    ));
                }
                break;
            }
            if std::time::Instant::now() >= deadline {
                report.violation = Some(format!(
                    "seed {seed}: admission charge leaked: {} bytes still admitted",
                    m.admitted_bytes
                ));
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_holds_every_invariant_across_seeds() {
        for seed in 0..6 {
            let rep = run_net_chaos(seed, &NetChaosConfig::default());
            assert!(rep.violation.is_none(), "{}", rep.violation.unwrap());
            assert_eq!(rep.connections, 12);
            assert_eq!(rep.clean_ok + rep.faulted, rep.connections);
        }
    }

    #[test]
    fn campaign_mixes_clean_and_faulted_sessions() {
        let mut clean = 0;
        let mut faulted = 0;
        for seed in 0..4 {
            let rep = run_net_chaos(seed, &NetChaosConfig::default());
            clean += rep.clean_ok;
            faulted += rep.faulted;
        }
        assert!(clean > 0, "some sessions must run clean");
        assert!(faulted > 0, "some sessions must be faulted");
    }

    #[test]
    fn tiny_window_starves_but_never_leaks() {
        // A window far below one chunk forces the credit path into its
        // halving fallback; jobs may fail typed, but nothing may leak.
        // Fed byte by byte as well: every read is a partial one, and the
        // per-read checks of the upload loop still run on each.
        for read_limit in [None, Some(1)] {
            let rep = run_net_chaos(
                1,
                &NetChaosConfig { connections: 4, ingest_window: 64 * 1024, read_limit },
            );
            assert!(rep.violation.is_none(), "{}", rep.violation.unwrap());
            assert_eq!(rep.connections, 4);
        }
    }
}
