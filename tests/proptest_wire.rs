//! Robustness of the wire codec and the server's protocol driver against
//! hostile bytes.
//!
//! The frame layer is the network edge of `syncd`'s isolation story:
//! whatever a peer writes into the socket, the scanner and decoders must
//! come back with complete frames or a *typed* [`WireError`] — never a
//! panic, never an unbounded allocation — and the server must release
//! every admission charge it took on behalf of a connection that turns
//! hostile or vanishes. These properties drive random frame sequences
//! through [`FrameScanner`] under adversarial chunkings, truncate and
//! corrupt them at every boundary, forge oversized headers, and replay
//! whole mutated *sessions* (handshake + job) against a live server over
//! the in-memory [`ScriptedTransport`].

mod common;

use common::drifted_trace;
use drift_lab::syncd::{
    Counter, MetricsSnapshot, NetServer, NetServerConfig, ScriptedTransport, ServiceConfig,
    TenantConfig,
};
use drift_lab::syncd_client::{JobRequest, SyncClient};
use drift_lab::syncd_wire::{
    encode_frame, ErrorCode, Frame, FrameScanner, WireError, WireJobConfig, WireJump,
    WireLatency, WireMode, CHUNK_PAYLOAD, MAGIC, MAX_FRAME_PAYLOAD, VERSION,
};
use drift_lab::tracefmt::io::to_binary_columnar_v3_blocked;
use drift_lab::clocksync::PipelineConfig;
use proptest::prelude::*;
use std::time::{Duration, Instant};

const CODES: [ErrorCode; 13] = [
    ErrorCode::AuthFailed,
    ErrorCode::VersionMismatch,
    ErrorCode::Protocol,
    ErrorCode::Malformed,
    ErrorCode::QueueFull,
    ErrorCode::OverBudget,
    ErrorCode::Shutdown,
    ErrorCode::Pipeline,
    ErrorCode::Panicked,
    ErrorCode::Cancelled,
    ErrorCode::DeadlineExceeded,
    ErrorCode::QuotaExceeded,
    ErrorCode::Internal,
];

/// One representative frame of every kind, parameterized so proptest
/// explores payload shapes (empty chunks, long tokens, jump batches…).
fn sample_frames(seed: u64, chunk_len: usize, jumps: usize) -> Vec<Frame> {
    let cfg = WireJobConfig {
        mode: if seed.is_multiple_of(2) {
            WireMode::Batch
        } else {
            WireMode::Incremental { window_events: 1 + seed % 4096 }
        },
        ..WireJobConfig::new(
            &PipelineConfig::default(),
            WireLatency::Uniform(1 + seed as i64 % 1_000_000),
        )
    };
    vec![
        Frame::Hello {
            magic: MAGIC,
            version: VERSION,
            token: format!("tenant-{seed}"),
        },
        Frame::HelloAck { version: VERSION, credit: seed },
        Frame::JobConfig(Box::new(cfg)),
        Frame::Chunk((0..chunk_len).map(|i| (i as u64 ^ seed) as u8).collect()),
        Frame::ChunkEnd,
        Frame::CorrectedFrame {
            index: seed,
            bytes: (0..chunk_len / 2).map(|i| (i as u64 + seed) as u8).collect(),
        },
        Frame::Jumps(
            (0..jumps)
                .map(|i| WireJump {
                    proc: i as u32,
                    idx: (seed as u32).wrapping_add(i as u32),
                    size_ps: seed as i64 - i as i64 * 17,
                })
                .collect(),
        ),
        Frame::Error {
            code: CODES[(seed as usize) % CODES.len()],
            detail: format!("detail {seed}"),
        },
        Frame::Credit { grant: seed.wrapping_mul(31) },
        Frame::Cancel,
    ]
}

/// Feed `bytes` to a fresh scanner in `step`-sized chunks, collecting
/// every decoded frame; any typed error ends the feed.
fn scan_chunked(bytes: &[u8], step: usize) -> (Vec<Frame>, Option<WireError>, FrameScanner) {
    let mut scanner = FrameScanner::new();
    let mut frames = Vec::new();
    for chunk in bytes.chunks(step.max(1)) {
        match scanner.feed(chunk) {
            Ok(batch) => frames.extend(batch),
            Err(e) => return (frames, Some(e), scanner),
        }
    }
    (frames, None, scanner)
}

/// An encoded frame with `extra` spliced in at payload offset `at` and its
/// length prefix grown to match.
fn with_payload_bytes(mut bytes: Vec<u8>, at: usize, extra: &[u8]) -> Vec<u8> {
    bytes.splice(4 + 1 + at..4 + 1 + at, extra.iter().copied());
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) + extra.len() as u32;
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    bytes
}

/// Re-encode a `JobConfig` frame in the protocol-version-4 layout: a `u32`
/// retry budget after `deadline`, i.e. at payload offset mode(1+8) +
/// priority(1) + deadline(8) = 18.
fn v4_layout(frame: &Frame, retries: u32) -> Vec<u8> {
    with_payload_bytes(encode_frame(frame), 18, &retries.to_le_bytes())
}

/// Re-encode a `JobConfig` frame in the protocol-version-2 layout: the
/// version-4 one with a `storage` byte after `presync`, i.e. at payload
/// offset 18 + retries(4) + presync(1) = 23.
fn v2_layout(frame: &Frame, storage: u8) -> Vec<u8> {
    with_payload_bytes(v4_layout(frame, u32::MAX), 23, &[storage])
}

/// Re-encode a `JobConfig` frame that runs a CLC in the protocol-version-3
/// layout: the version-4 one with a `parallel` section after `clc`, i.e.
/// at payload offset 23 + clc(1+17) = 41 — a zero flag byte, or a one and
/// `workers` and `shard_size` as `u32`s.
fn v3_layout(frame: &Frame, workers: Option<u32>) -> Vec<u8> {
    let mut section = vec![u8::from(workers.is_some())];
    if let Some(w) = workers {
        section.extend(w.to_le_bytes());
        section.extend(8192u32.to_le_bytes());
    }
    with_payload_bytes(v4_layout(frame, u32::MAX), 41, &section)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A version-2 `JobConfig` payload is not a current one: every field
    /// after `presync` is read one byte early, and the decode ends in a
    /// typed payload error — never a panic, never a frame — whichever
    /// value the old byte had and however the bytes arrive.
    #[test]
    fn v2_layout_job_configs_fail_typed(
        seed in 0u64..10_000,
        storage in 0u8..2,
        step in 1usize..64,
    ) {
        let config = &sample_frames(seed, 0, 0)[2];
        prop_assert!(matches!(config, Frame::JobConfig(_)));
        let (decoded, err, _) = scan_chunked(&v2_layout(config, storage), step);
        prop_assert!(decoded.is_empty(), "v2 layout decoded as {decoded:?}");
        prop_assert!(
            matches!(err, Some(WireError::BadPayload(_))),
            "expected a typed payload error, got {err:?}"
        );
    }

    /// Nor is a version-3 one, with or without its `parallel` section set:
    /// the latency model is read from the old flag byte on.
    #[test]
    fn v3_layout_job_configs_fail_typed(
        seed in 0u64..10_000,
        workers in 0u32..64,
        step in 1usize..64,
    ) {
        let config = &sample_frames(seed, 0, 0)[2];
        prop_assert!(matches!(config, Frame::JobConfig(c) if c.clc.is_some()));
        // Zero stands for "section not set": the flag byte alone.
        let workers = (workers > 0).then_some(workers);
        let (decoded, err, _) = scan_chunked(&v3_layout(config, workers), step);
        prop_assert!(decoded.is_empty(), "v3 layout decoded as {decoded:?}");
        prop_assert!(
            matches!(err, Some(WireError::BadPayload(_))),
            "expected a typed payload error, got {err:?}"
        );
    }

    /// Nor is a version-4 one, whatever retry budget it carries: every
    /// field after `deadline` is read four bytes early.
    #[test]
    fn v4_layout_job_configs_fail_typed(
        seed in 0u64..10_000,
        pick in 0usize..3,
        raw in 0u32..u32::MAX,
        step in 1usize..64,
    ) {
        // The "service default" budget most clients sent, a small one, any.
        let retries = [u32::MAX, raw % 8, raw][pick];
        let config = &sample_frames(seed, 0, 0)[2];
        prop_assert!(matches!(config, Frame::JobConfig(_)));
        let (decoded, err, _) = scan_chunked(&v4_layout(config, retries), step);
        prop_assert!(decoded.is_empty(), "v4 layout decoded as {decoded:?}");
        prop_assert!(
            matches!(err, Some(WireError::BadPayload(_))),
            "expected a typed payload error, got {err:?}"
        );
    }

    /// Every frame kind survives encode → arbitrary-chunked scan → decode
    /// bit-exactly, for any read fragmentation down to one byte.

    #[test]
    fn frames_roundtrip_under_any_chunking(
        seed in 0u64..10_000,
        chunk_len in 0usize..4096,
        jumps in 0usize..200,
        step in 1usize..600,
    ) {
        let frames = sample_frames(seed, chunk_len, jumps);
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let (decoded, err, scanner) = scan_chunked(&bytes, step);
        prop_assert!(err.is_none(), "intact stream errored: {err:?}");
        prop_assert_eq!(&decoded, &frames);
        prop_assert!(scanner.finish().is_ok(), "intact stream ends at a boundary");
        prop_assert_eq!(scanner.frames(), frames.len() as u64);
    }

    /// Truncation at *every* byte offset: the scanner yields exactly the
    /// frames that fit before the cut, and `finish` reports `Truncated`
    /// iff the cut fell mid-frame. Never a panic, never a phantom frame.
    #[test]
    fn truncation_at_every_boundary_fails_typed(
        seed in 0u64..10_000,
        chunk_len in 0usize..512,
        cut_per_mille in 0u32..1000,
        step in 1usize..97,
    ) {
        let frames = sample_frames(seed, chunk_len, 3);
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        let bytes: Vec<u8> = encoded.concat();
        let cut = (bytes.len() as u64 * cut_per_mille as u64 / 1000) as usize;

        let (decoded, err, scanner) = scan_chunked(&bytes[..cut], step);
        prop_assert!(err.is_none(), "a clean prefix never errors: {err:?}");

        // Which whole frames fit in the prefix?
        let mut fit = 0usize;
        let mut at = 0usize;
        while fit < encoded.len() && at + encoded[fit].len() <= cut {
            at += encoded[fit].len();
            fit += 1;
        }
        prop_assert_eq!(&decoded, &frames[..fit]);
        match scanner.finish() {
            Ok(()) => prop_assert_eq!(at, cut, "clean finish ⇔ cut on a frame boundary"),
            Err(WireError::Truncated) => prop_assert!(at < cut || cut == 0),
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// One flipped byte anywhere in a valid stream: the scan either still
    /// produces (possibly different) well-formed frames or fails with a
    /// typed error — and the total scanned volume never exceeds the input
    /// (no runaway buffering from a corrupt length prefix).
    #[test]
    fn corrupted_streams_never_panic(
        seed in 0u64..10_000,
        chunk_len in 0usize..512,
        at_per_mille in 0u32..1000,
        xor in 1u8..255,
        step in 1usize..300,
    ) {
        let frames = sample_frames(seed, chunk_len, 5);
        let mut bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let at = (bytes.len() as u64 * at_per_mille as u64 / 1000) as usize;
        let at = at.min(bytes.len() - 1);
        bytes[at] ^= xor;

        let (decoded, err, scanner) = scan_chunked(&bytes, step);
        // Reaching here without a panic is most of the property; the
        // rest: errors are typed and accounting stays exact.
        if let Some(e) = err {
            let _typed: &dyn std::error::Error = &e;
        }
        prop_assert!(scanner.consumed() <= bytes.len() as u64);
        prop_assert!(decoded.len() <= frames.len() + bytes.len() / 5);
    }

    /// A forged header declaring an oversized (or zero) length is rejected
    /// the moment the four length bytes arrive — before any payload is
    /// buffered, no matter how the header is fragmented.
    #[test]
    fn oversized_lengths_rejected_before_buffering(
        which in 0usize..4,
        step in 1usize..5,
        prefix_frames in 0usize..3,
    ) {
        let over = [
            0u64,
            1 + MAX_FRAME_PAYLOAD as u64 + 1,
            u32::MAX as u64 / 2,
            u32::MAX as u64,
        ][which];
        // Some valid traffic first, then the hostile header.
        let mut bytes: Vec<u8> = sample_frames(7, 32, 1)[..prefix_frames]
            .iter()
            .flat_map(encode_frame)
            .collect();
        bytes.extend_from_slice(&(over as u32).to_le_bytes());
        // No payload follows — the four header bytes alone must trip it.
        let (_, err, _) = scan_chunked(&bytes, step);
        match err {
            Some(WireError::Oversized { declared }) => {
                prop_assert_eq!(declared, over.min(u32::MAX as u64));
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Whole-session robustness: mutated sessions against a live server.
// ---------------------------------------------------------------------

/// Encode a complete valid client session: handshake, job config, the
/// trace stream as chunk frames, end-of-stream.
fn session_bytes(trace_bytes: &[u8], mode: WireMode) -> Vec<u8> {
    session_bytes_chunked(trace_bytes, mode, 4096)
}

/// [`session_bytes`] with `chunk` stream bytes per `Chunk` frame.
fn session_bytes_chunked(trace_bytes: &[u8], mode: WireMode, chunk: usize) -> Vec<u8> {
    let (_, init, fin, lmin) = drifted_trace(3, 20, "constant", 3);
    let config = WireJobConfig {
        mode,
        ..WireJobConfig::new(
            &PipelineConfig::default(),
            WireLatency::Uniform(lmin.0.as_ps()),
        )
        .with_measurements(&init, Some(&fin))
    };
    let mut out = encode_frame(&Frame::Hello {
        magic: MAGIC,
        version: VERSION,
        token: "tok".into(),
    });
    out.extend(encode_frame(&Frame::JobConfig(Box::new(config))));
    for chunk in trace_bytes.chunks(chunk) {
        out.extend(encode_frame(&Frame::Chunk(chunk.to_vec())));
    }
    out.extend(encode_frame(&Frame::ChunkEnd));
    out
}

/// Drive one scripted inbound stream through a fresh single-executor
/// server; afterwards every admission charge must be back to zero and the
/// server must still complete an intact session.
fn assert_no_leak(hostile: Vec<u8>, read_limit: usize, write_quota: Option<u64>) {
    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("tok")],
        ingest_window: 1 << 20,
        service: ServiceConfig { executors: 1, ..ServiceConfig::default() },
    })
    .expect("bind");

    let mut t = ScriptedTransport::new(hostile).read_limit(read_limit);
    if let Some(q) = write_quota {
        t = t.fail_writes_after(q);
    }
    server.serve_transport(&mut t);

    // The executor releases a running job's charge a beat after the
    // connection driver returns; poll briefly rather than race it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.metrics().admitted_bytes == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "admission charge leaked: {} bytes still admitted",
            server.metrics().admitted_bytes
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The server survived: an intact follow-up session over a *real*
    // socket runs to a result.
    let (trace, init, fin, lmin) = drifted_trace(3, 20, "constant", 3);
    let config = WireJobConfig::new(
        &PipelineConfig::default(),
        WireLatency::Uniform(lmin.0.as_ps()),
    )
    .with_measurements(&init, Some(&fin));
    let req = JobRequest {
        config,
        chunks: vec![to_binary_columnar_v3_blocked(&trace, 16).to_vec()],
    };
    let mut client =
        SyncClient::connect(server.local_addr(), "tok").expect("server still accepts");
    let out = client.submit(&req).expect("follow-up session succeeds");
    assert!(!out.stream.is_empty(), "follow-up job returns a corrected stream");
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sessions truncated at any byte (client vanishes), corrupted by a
    /// byte flip, or fed through a peer that hangs up while the server is
    /// writing: the server must end the connection typed, leak nothing,
    /// and keep serving.
    #[test]
    fn mutated_sessions_never_leak_admission_charges(
        seed in 0u64..1000,
        cut_per_mille in 0u32..1001,
        xor in 0u8..255,
        limit_ix in 0usize..4,
        fail_writes_raw in 0u64..512,
    ) {
        let read_limit = [7usize, 64, 1024, usize::MAX][limit_ix];
        // Upper half of the range means "writes never fail".
        let fail_writes = (fail_writes_raw < 256).then_some(fail_writes_raw);
        let (trace, ..) = drifted_trace(3, 30, "sinusoid", seed);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let mut session = session_bytes(&bytes, WireMode::Batch);
        let cut = (session.len() as u64 * cut_per_mille as u64 / 1000) as usize;
        session.truncate(cut.max(1));
        if xor != 0 && !session.is_empty() {
            let at = (seed as usize * 7919) % session.len();
            session[at] ^= xor;
        }
        assert_no_leak(session, read_limit, fail_writes);
    }

    /// A job whose stream is two streams glued together is malformed by
    /// construction; admission prices it like any other, and the run must
    /// fail it with a typed error frame, never panic, never leak.
    #[test]
    fn glued_streams_fail_typed(
        seed in 0u64..1000,
        incremental_raw in 0u8..2,
    ) {
        let incremental = incremental_raw == 1;
        let (trace, ..) = drifted_trace(3, 25, "randomwalk", seed);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let glued = [&bytes[..], &bytes[..]].concat();
        let mode = if incremental {
            WireMode::Incremental { window_events: 64 }
        } else {
            WireMode::Batch
        };
        let session = session_bytes(&glued, mode);

        let server = NetServer::start_loopback(NetServerConfig {
            tenants: vec![TenantConfig::new("tok")],
            ingest_window: 1 << 20,
            service: ServiceConfig { executors: 1, ..ServiceConfig::default() },
        })
        .expect("bind");
        // The scripted peer stays connected (Idle, not Eof) until the
        // server delivers its verdict, so a job that only fails at decode
        // time still reports typed instead of racing a disconnect.
        let mut t = ScriptedTransport::new(session).close_after_reply(20_000);
        server.serve_transport(&mut t);

        let (frames, err, _) = scan_chunked(t.outbound(), usize::MAX);
        prop_assert!(err.is_none(), "server wrote malformed frames: {err:?}");
        match frames.last() {
            Some(Frame::Error { code, .. }) => prop_assert!(
                matches!(
                    code,
                    ErrorCode::Malformed | ErrorCode::Pipeline | ErrorCode::Panicked
                ),
                "a glued stream must fail as a codec/pipeline error, got {code:?}"
            ),
            other => prop_assert!(false, "expected a typed error frame, got {other:?}"),
        }

        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics().admitted_bytes != 0 {
            prop_assert!(Instant::now() < deadline, "admission charge leaked");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }
}

/// Clients of an earlier protocol version are refused typed. One that
/// handshakes first (as `syncd-client` does) gets `VersionMismatch` for its
/// `Hello`; one that pipelines its old-layout `JobConfig` behind the
/// `Hello` in the same burst may instead be told the burst is `Malformed` —
/// the scanner decodes what it was fed before the driver looks at the
/// first frame. Either way: one error frame, no `HelloAck`, no admission
/// charge, server still up.
fn assert_old_sessions_refused(version: u16, old_layout: impl Fn(&Frame) -> Vec<u8>) {
    let (trace, ..) = drifted_trace(3, 20, "constant", 3);
    let session = session_bytes(&to_binary_columnar_v3_blocked(&trace, 16), WireMode::Batch);
    let (frames, err, _) = scan_chunked(&session, usize::MAX);
    assert!(err.is_none());
    let hello = encode_frame(&Frame::Hello { magic: MAGIC, version, token: "tok".into() });
    let mut pipelined = hello.clone();
    pipelined.extend(old_layout(&frames[1]));
    for f in &frames[2..] {
        pipelined.extend(encode_frame(f));
    }

    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("tok")],
        ingest_window: 1 << 20,
        service: ServiceConfig { executors: 1, ..ServiceConfig::default() },
    })
    .expect("bind");
    for (session, allowed) in [
        (hello, &[ErrorCode::VersionMismatch][..]),
        (pipelined, &[ErrorCode::VersionMismatch, ErrorCode::Malformed][..]),
    ] {
        let mut t = ScriptedTransport::new(session).close_after_reply(20_000);
        server.serve_transport(&mut t);
        let (replies, err, _) = scan_chunked(t.outbound(), usize::MAX);
        assert!(err.is_none(), "server wrote malformed frames: {err:?}");
        assert!(
            matches!(replies.as_slice(), [Frame::Error { code, .. }] if allowed.contains(code)),
            "expected exactly one error frame out of {allowed:?}, got {replies:?}"
        );
        assert_eq!(server.metrics().admitted_bytes, 0);
    }
    server.shutdown();
}

#[test]
fn v2_sessions_are_refused_typed() {
    assert_old_sessions_refused(2, |config| v2_layout(config, 1));
}

#[test]
fn v3_sessions_are_refused_typed() {
    assert_old_sessions_refused(3, |config| v3_layout(config, None));
    assert_old_sessions_refused(3, |config| v3_layout(config, Some(2)));
}

#[test]
fn v4_sessions_are_refused_typed() {
    assert_old_sessions_refused(4, |config| v4_layout(config, u32::MAX));
}

// ---------------------------------------------------------------------
// The driver sleeps on idle reads only, however the bytes arrive.
// ---------------------------------------------------------------------

/// Replay a healthy session on a fresh server: its reply frames (the two
/// clock readings of the summary zeroed: they are the only bytes that may
/// differ between two runs of one job) and its final metrics.
fn replay(session: &[u8], read_limit: usize, idle_every: usize) -> (Vec<Frame>, MetricsSnapshot) {
    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("tok")],
        ingest_window: 1 << 20,
        service: ServiceConfig { executors: 1, ..ServiceConfig::default() },
    })
    .expect("bind");
    let mut t = ScriptedTransport::new(session.to_vec())
        .read_limit(read_limit)
        .idle_every(idle_every)
        .close_after_reply(20_000);
    server.serve_transport(&mut t);
    let metrics = server.shutdown();

    let (mut frames, err, _) = scan_chunked(t.outbound(), usize::MAX);
    assert!(err.is_none(), "server wrote malformed frames: {err:?}");
    match frames.last_mut() {
        Some(Frame::JobResult(r)) => (r.queue_wait_us, r.run_time_us) = (0, 0),
        other => panic!("healthy session must end in JobResult, got {other:?}"),
    }
    (frames, metrics)
}

/// One healthy session replayed under every fragmentation and sender
/// pace: the reply never depends on how the bytes arrived, a back-off is
/// taken only after a read that had nothing (`NetIdleSleeps <=
/// NetIdleReads`), and a read limit below the frame size shows up as
/// partial reads. Sleeping on a partial read, as the driver once did,
/// breaks the inequality on every leg with a partial read in it.
#[test]
fn scripted_upload_never_sleeps_on_progress() {
    const LIMITS: [usize; 5] = [1, 7, 4096, 65_536, usize::MAX];
    const IDLE_EVERY: [usize; 3] = [0, 2, 5];

    // Several full-size `Chunk` frames, as `syncd-client` frames a stream.
    let (trace, ..) = drifted_trace(3, 4500, "sinusoid", 11);
    let stream = to_binary_columnar_v3_blocked(&trace, 1024);
    assert!(stream.len() >= 300 * 1024, "stream is only {} bytes", stream.len());
    let large = session_bytes_chunked(&stream, WireMode::Batch, CHUNK_PAYLOAD);
    // The same shape at a few KiB, where even a one-byte read limit under
    // the slowest sender is a fraction of a second of back-offs.
    let (trace, ..) = drifted_trace(3, 30, "sinusoid", 11);
    let small = session_bytes(&to_binary_columnar_v3_blocked(&trace, 16), WireMode::Batch);

    // The small session runs the whole grid; the large one the eleven
    // legs the rule below leaves it.
    for (label, session, want_legs) in [("small", &small, 15), ("large", &large, 11)] {
        let largest_frame = scan_chunked(session, usize::MAX)
            .0
            .iter()
            .map(|f| encode_frame(f).len())
            .max()
            .expect("session has frames");
        let mut reference: Option<Vec<Frame>> = None;
        let mut legs = 0usize;
        for read_limit in LIMITS {
            for idle_every in IDLE_EVERY {
                // A slow sender idles once per `idle_every` polls and each
                // idle read costs the 500 µs back-off: minutes for the
                // large session in reads of a few bytes. (The driver reads
                // at most 64 KiB at a time whatever the limit.)
                let reads = session.len() / read_limit.min(64 * 1024);
                if idle_every > 0 && reads > 4096 {
                    continue;
                }
                let leg = format!("{label}: read_limit {read_limit}, idle_every {idle_every}");
                let (frames, m) = replay(session, read_limit, idle_every);
                let (partial, idle, sleeps) = (
                    m.counter(Counter::NetPartialReads),
                    m.counter(Counter::NetIdleReads),
                    m.counter(Counter::NetIdleSleeps),
                );
                assert!(
                    sleeps <= idle,
                    "{leg}: {sleeps} back-offs on {idle} idle reads ({partial} partial reads)"
                );
                if read_limit < largest_frame {
                    assert!(partial > 0, "{leg}: no partial read counted");
                }
                if idle_every > 0 {
                    assert!(idle > 0, "{leg}: no idle read counted");
                }
                match &reference {
                    None => reference = Some(frames),
                    Some(want) => assert!(*want == frames, "{leg}: reply differs"),
                }
                legs += 1;
            }
        }
        assert_eq!(legs, want_legs, "{label}: grid collapsed");
    }
}
