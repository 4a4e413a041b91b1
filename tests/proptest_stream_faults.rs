//! Robustness of the streaming ingest path against hostile bytes.
//!
//! The `syncd` service's isolation story starts one layer down: whatever a
//! tenant feeds [`synchronize_stream`], the pipeline must come back with
//! `Ok` or a *typed* error — never a panic, never an absurd allocation.
//! These properties drive mutated `DTC3` streams (bit flips, truncations,
//! dropped chunks, injected garbage, and pure garbage) through the full
//! pipeline under random chunkings, and also pin down that the header-only
//! cost estimator used by admission control never overstates a valid
//! stream and never panics on a corrupt one, and that the three readers of
//! the frame grammar — indexer, estimator, and the decoder behind the
//! index — answer one typed verdict for one input. Two named inputs add
//! what no run can record but bytes can claim: a dependency cycle across
//! timelines, which every driver, the service and the server must answer
//! typed instead of waiting on it.

mod common;

use common::{assert_identical, drifted_trace};
use drift_lab::clocksync::{
    synchronize, synchronize_stream, synchronize_stream_incremental, CancelToken, ClcError,
    PipelineConfig, PipelineError,
};
use drift_lab::prelude::*;
use drift_lab::syncd::{
    chunked, Fault, FaultInjector, JobError, JobInput, JobSpec, NetServer, NetServerConfig,
    ServiceConfig, SyncService, TenantConfig,
};
use drift_lab::syncd_client::{ClientError, JobRequest, SyncClient};
use drift_lab::syncd_wire::{ErrorCode, WireJobConfig, WireLatency};
use drift_lab::tracefmt::io::{
    decode_indexed, estimate_columnar_stream, from_binary_columnar, index_columnar_chunks,
    to_binary_columnar_v3_blocked, ChunkStore, CodecError,
};
use drift_lab::tracefmt::MinLatency;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The decoder behind the index over `chunks`.
fn decode(chunks: &[&[u8]]) -> Result<Trace, CodecError> {
    let index = index_columnar_chunks(chunks)?;
    decode_indexed(&index, &ChunkStore::new(chunks)).map(|(trace, _)| trace)
}

/// Feed a (possibly corrupt) chunked stream through the whole pipeline.
/// The property under test is simply that this returns — `Ok` for intact
/// streams, a typed error for broken ones.
fn run_stream(chunks: &[Vec<u8>], seed: u64) {
    // Measurements from the *same* generator seed intentionally may not
    // match the corrupted stream's process count — that mismatch is one
    // of the typed-error paths under test.
    let (_, init, fin, lmin) = drifted_trace(4, 8, "constant", seed);
    let result = synchronize_stream(
        chunks.iter().map(|c| c.as_slice()),
        &init,
        Some(&fin),
        &lmin,
        &PipelineConfig::default(),
        &CancelToken::none(),
    );
    // Either outcome is fine; reaching here without a panic is the test.
    let _ = result.map(|(t, _)| t.n_events());
}

/// Two ranks, each receiving before the send the other waits for: four
/// well-formed events whose dependencies form a cycle across timelines.
fn p2p_cycle() -> Trace {
    let mut t = Trace::for_ranks(2);
    for (p, peer) in [(0, Rank(1)), (1, Rank(0))] {
        t.procs[p].push(Time::from_us(10), EventKind::Recv { from: peer, tag: Tag(0), bytes: 8 });
        t.procs[p].push(Time::from_us(20), EventKind::Send { to: peer, tag: Tag(0), bytes: 8 });
    }
    t
}

/// The collective twin, the classic MPI deadlock: two barriers on two
/// communicators over the same two ranks, entered in opposite order.
fn barrier_cycle() -> Trace {
    let mut t = Trace::for_ranks(2);
    for (p, comms) in [(0, [CommId(1), CommId(2)]), (1, [CommId(2), CommId(1)])] {
        for (k, comm) in comms.into_iter().enumerate() {
            let (op, root, at) = (CollOp::Barrier, None, 20 * k as i64);
            t.procs[p].push(Time::from_us(at), EventKind::CollBegin { op, comm, root, bytes: 0 });
            t.procs[p].push(Time::from_us(at + 5), EventKind::CollEnd { op, comm, root, bytes: 0 });
        }
    }
    t
}

/// `body` on a thread of its own, failing the test when it has not
/// returned after five seconds (a job waiting on a cycle never does).
fn within_deadline<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(body()));
    rx.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what}: no answer within 5 s"))
}

#[test]
fn cyclic_traces_fail_typed_from_every_driver_service_and_server() {
    let cyclic = |r: Result<(), PipelineError>, ctx: &str| {
        assert!(matches!(r, Err(PipelineError::Clc(ClcError::CyclicTrace))), "{ctx}: got {r:?}");
    };
    let lmin = UniformLatency(Dur::from_us(2));
    let cfg = PipelineConfig { presync: PreSync::None, ..PipelineConfig::default() };
    let init = vec![None; 2];
    let (healthy, ..) = drifted_trace(2, 20, "constant", 3);
    for (name, trace) in [("p2p cycle", p2p_cycle()), ("barrier cycle", barrier_cycle())] {
        let bytes = to_binary_columnar_v3_blocked(&trace, 2).to_vec();
        let chunks: Vec<&[u8]> = bytes.chunks(32).collect();

        let mut batch = trace.clone();
        cyclic(synchronize(&mut batch, &init, None, &lmin, &cfg).map(drop), name);
        assert_identical(&trace, &batch, &format!("{name}: timestamps as submitted"));
        let none = CancelToken::none();
        let streamed = synchronize_stream(chunks.iter().copied(), &init, None, &lmin, &cfg, &none);
        cyclic(streamed.map(drop), &format!("{name}, streamed"));
        for window in [1, 64] {
            let windowed = synchronize_stream_incremental(&chunks, &init, None, &lmin, &cfg, window);
            cyclic(windowed.map(drop), &format!("{name}, window {window}"));
        }

        // One executor, no retries: the job after the cyclic one is served
        // by the thread that answered it.
        let service_cfg = ServiceConfig { executors: 1, max_retries: 0, ..ServiceConfig::default() };
        let spec = move |input, cfg: &PipelineConfig| {
            let lmin: Arc<dyn MinLatency + Send + Sync> = Arc::new(lmin);
            JobSpec::new(input, vec![None; 2], None, lmin, cfg.clone())
        };
        let next = chunked(&to_binary_columnar_v3_blocked(&healthy, 16), 64);
        let (stream, pipeline) = (chunked(&bytes, 32), cfg.clone());
        let service = SyncService::start(service_cfg.clone());
        within_deadline(&format!("{name}, in-process service"), move || {
            let failure = service
                .submit(spec(JobInput::Stream(stream), &pipeline))
                .expect("admitted")
                .wait()
                .expect_err("a cyclic trace cannot succeed");
            let is_cyclic = matches!(
                failure.error,
                JobError::Pipeline(PipelineError::Clc(ClcError::CyclicTrace))
            );
            assert!(is_cyclic, "got {:?}", failure.error);
            let served = service.submit(spec(JobInput::Stream(next), &pipeline)).expect("admitted");
            served.wait().expect("the executor serves the next job");
            service.shutdown();
        });

        let config = WireJobConfig::new(&cfg, WireLatency::Uniform(lmin.0.as_ps()))
            .with_measurements(&init, None);
        let request = |chunks| JobRequest { config: config.clone(), chunks };
        let (cyclic_req, next_req) = (
            request(vec![bytes.clone()]),
            request(vec![to_binary_columnar_v3_blocked(&healthy, 16).to_vec()]),
        );
        within_deadline(&format!("{name}, loopback server"), move || {
            let server = NetServer::start_loopback(NetServerConfig {
                tenants: vec![TenantConfig::new("tok")],
                ingest_window: 1 << 20,
                service: service_cfg,
            })
            .expect("bind loopback");
            let mut client = SyncClient::connect(server.local_addr(), "tok").expect("connect");
            match client.submit(&cyclic_req) {
                Err(ClientError::Remote { code, detail }) => {
                    assert_eq!(code, ErrorCode::Pipeline, "{detail}");
                    assert!(detail.contains("cyclic"), "{detail}");
                }
                other => panic!("expected a typed error frame, got {other:?}"),
            }
            let mut client = SyncClient::connect(server.local_addr(), "tok").expect("reconnect");
            client.submit(&next_req).expect("the executor serves the next job");
            server.shutdown();
        });
    }
}

/// `DTC2`, the big-endian layout this format replaced, is not a second
/// dialect: a stream that opens with its magic is refused at the magic, by
/// the decoder, the indexer and the admission estimator alike.
#[test]
fn a_dtc2_stream_is_refused_at_its_magic_by_every_reader() {
    let (trace, ..) = drifted_trace(2, 10, "constant", 1);
    let bytes = [&b"DTC2"[..], &to_binary_columnar_v3_blocked(&trace, 4)[4..]].concat();
    let want = CodecError::BadField("magic".into());
    for chunk in [1, 3, bytes.len()] {
        let chunks = chunked(&bytes, chunk);
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        assert_eq!(decode(&refs).err(), Some(want.clone()), "decoder, chunks of {chunk}");
        let indexed = index_columnar_chunks(&refs).err();
        assert_eq!(indexed, Some(want.clone()), "indexer, chunks of {chunk}");
        let est = estimate_columnar_stream(refs.iter().copied());
        assert_eq!(est.error, Some(want.clone()), "estimator, chunks of {chunk}");
        assert_eq!((est.events, est.complete), (0, false), "estimator, chunks of {chunk}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-fault streams: one flip, one truncation, or one dropped
    /// chunk anywhere in a valid stream must fail typed or still decode.
    #[test]
    fn single_fault_streams_never_panic(
        seed in 0u64..1000,
        msgs in 8usize..120,
        block in 4usize..64,
        chunk in 8usize..256,
        at_per_mille in 0u32..1000,
        xor in 1u8..255,
        which in 0usize..3,
    ) {
        let (trace, ..) = drifted_trace(4, msgs, "sinusoid", seed);
        let bytes = to_binary_columnar_v3_blocked(&trace, block);
        let at = (bytes.len() as u64 * at_per_mille as u64 / 1000) as usize;
        let chunks = chunked(&bytes, chunk);
        let fault = match which {
            0 => Fault::FlipByte { at, xor },
            1 => Fault::Truncate { at },
            _ => Fault::DropChunk { index: at / chunk.max(1) },
        };
        let mutated = FaultInjector::new().with(fault).apply(&chunks);
        run_stream(&mutated, seed);
        // The admission estimator must also survive the same bytes.
        let est = estimate_columnar_stream(mutated.iter().map(|c| c.as_slice()));
        prop_assert!(est.bytes <= bytes.len() as u64);
    }

    /// One frame grammar, one verdict: for an intact, truncated,
    /// bit-flipped, glued or garbage-tailed stream the indexer and the
    /// admission estimator answer alike, at any chunking — `Ok` together,
    /// the same typed error together — and a stream all three accept is
    /// priced from exactly the events and blocks it decodes to. The header
    /// walk's verdict comes first: where the indexer refuses a stream, the
    /// decoder behind it answers the same error. The decoder alone reads
    /// payloads, so a payload error (a flipped kind or collective code) is
    /// its to report, and only where the indexer accepted the stream.
    #[test]
    fn readers_agree_on_every_single_fault_stream(
        seed in 0u64..1000,
        msgs in 8usize..80,
        block in 1usize..48,
        chunk in 1usize..200,
        // Six mutations.
        which in 0usize..6,
        at_per_mille in 0u32..1000,
        xor in 1u8..255,
        garbage in prop::collection::vec(0u8..255, 1..40),
    ) {
        let (trace, ..) = drifted_trace(3, msgs, "sinusoid", seed);
        let bytes = to_binary_columnar_v3_blocked(&trace, block).to_vec();
        let at = (bytes.len() as u64 * u64::from(at_per_mille) / 1000) as usize;
        // Whatever follows the trailer — a second stream, its magic alone,
        // garbage — is trailing data.
        let after = CodecError::BadField("data after end-of-stream trailer".into());
        let tailed = |tail: &[u8]| {
            (chunked(&[&bytes[..], tail].concat(), chunk), Some(Err(after.clone())))
        };
        let inject = |fault| FaultInjector::new().with(fault).apply(&chunked(&bytes, chunk));
        // The mutated stream and, where the mutation fixes it, the verdict.
        let (chunks, want) = match which {
            0 => (chunked(&bytes, chunk), Some(Ok(()))),
            1 => (inject(Fault::Truncate { at }), Some(Err(CodecError::Truncated))),
            2 => (inject(Fault::FlipByte { at, xor }), None),
            3 => tailed(&bytes),
            4 => tailed(&bytes[..garbage.len().min(4)]),
            _ => tailed(&garbage),
        };
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();

        let est = estimate_columnar_stream(refs.iter().copied());
        let indexed = index_columnar_chunks(&refs);
        let decoded = decode(&refs);
        let verdict = decoded.as_ref().map(drop).map_err(Clone::clone);
        let one_buffer = from_binary_columnar(refs.concat().into()).map(drop);

        prop_assert_eq!(&one_buffer, &verdict, "chunking changed the decoder's verdict");
        prop_assert_eq!(indexed.as_ref().err(), est.error.as_ref(), "indexer vs estimator");
        if let Some(want) = want {
            prop_assert_eq!(&verdict, &want, "decoder, mutation {}", which);
            prop_assert_eq!(indexed.as_ref().map(drop).map_err(Clone::clone), want, "indexer");
        }
        match (&indexed, &decoded) {
            (Ok(index), Ok(trace)) => {
                prop_assert!(est.complete && est.trailing_bytes == 0);
                prop_assert_eq!(est.events, trace.n_events() as u64);
                prop_assert_eq!(est.blocks, index.blocks.len() as u64);
            }
            (Err(walk), Err(decoder)) => {
                prop_assert_eq!(decoder, walk, "the header walk's verdict comes first")
            }
            (Ok(_), Err(decoder)) => prop_assert!(
                matches!(decoder, CodecError::UnknownKind(_)),
                "the decoder says {:?} of a stream the header walk accepts", decoder
            ),
            (Err(walk), Ok(_)) => {
                prop_assert!(false, "decoder accepted what the walk calls {:?}", walk)
            }
        }
    }

    /// Stacked faults plus injected garbage chunks: still no panic.
    #[test]
    fn stacked_faults_and_garbage_never_panic(
        seed in 0u64..1000,
        msgs in 8usize..80,
        chunk in 8usize..128,
        flips in prop::collection::vec((0usize..6000, 1u8..255), 0..6),
        cut_per_mille in 0u32..1001,
        garbage in prop::collection::vec(0u8..255, 0..200),
        garbage_pos in 0usize..8,
    ) {
        let (trace, ..) = drifted_trace(3, msgs, "randomwalk", seed);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let mut inj = FaultInjector::new();
        for (at, xor) in flips {
            inj = inj.with(Fault::FlipByte { at, xor });
        }
        let cut = (bytes.len() as u64 * cut_per_mille as u64 / 1000) as usize;
        inj = inj.with(Fault::Truncate { at: cut });
        let mut mutated = inj.apply(&chunked(&bytes, chunk));
        if !garbage.is_empty() {
            let pos = garbage_pos.min(mutated.len());
            mutated.insert(pos, garbage);
        }
        run_stream(&mutated, seed);
    }

    /// Well-formed bytes, hostile *structure*: every timeline carries a
    /// random sequence of collective begins and ends over three
    /// communicators — unbalanced, doubled, crossed, ops and roots that
    /// disagree between timelines. The analysis rejects most of these and
    /// the lowering (`DepGraph::try_build`) whatever is left that does not
    /// fit the trace shape; what analyses runs. Batch, streamed and
    /// windowed drivers must all come back typed — the lowering's panics
    /// for hand-built analyses are out of a tenant's reach.
    #[test]
    fn hostile_collective_structure_never_panics(
        timelines in 1usize..5,
        events in prop::collection::vec((0usize..5, 0u8..12, 0u32..3, 0u32..6, 0i64..50), 0..60),
        sane_prefix in 0usize..4,
    ) {
        let ops = [CollOp::Barrier, CollOp::Bcast, CollOp::Reduce, CollOp::Scan, CollOp::Allreduce, CollOp::Alltoall];
        let mut trace = Trace::for_ranks(timelines);
        let mut at = vec![0i64; timelines];
        // A few sane world barriers first, so that instances exist when
        // the scrambled tail confuses the per-communicator call lists.
        for _ in 0..sane_prefix {
            for (p, at) in at.iter_mut().enumerate() {
                let (op, comm, root) = (CollOp::Barrier, CommId(0), None);
                trace.procs[p].push(Time::from_us(*at), EventKind::CollBegin { op, comm, root, bytes: 0 });
                *at += 3;
                trace.procs[p].push(Time::from_us(*at), EventKind::CollEnd { op, comm, root, bytes: 0 });
            }
        }
        for (p, kind, comm, op, dt) in events {
            let p = p % timelines;
            at[p] += dt - 10; // timestamps may run backwards, too
            let op = ops[op as usize % ops.len()];
            let root = op.has_root().then_some(Rank(u32::from(kind) % 7));
            let comm = CommId(comm);
            let kind = match kind % 4 {
                0 | 1 => EventKind::CollBegin { op, comm, root, bytes: 8 },
                2 => EventKind::CollEnd { op, comm, root, bytes: 8 },
                _ => EventKind::Send { to: Rank(comm.0), tag: Tag(0), bytes: 1 },
            };
            trace.procs[p].push(Time::from_us(at[p]), kind);
        }
        let init = vec![None; timelines];
        let lmin = UniformLatency(Dur::from_us(2));
        let cfg = PipelineConfig { presync: PreSync::None, ..PipelineConfig::default() };
        let bytes = to_binary_columnar_v3_blocked(&trace, 8);
        let chunks: Vec<&[u8]> = bytes.chunks(64).collect();
        let batch = synchronize(&mut trace.clone(), &init, None, &lmin, &cfg);
        let none = CancelToken::none();
        let streamed = synchronize_stream(chunks.iter().copied(), &init, None, &lmin, &cfg, &none);
        let windowed = synchronize_stream_incremental(&chunks, &init, None, &lmin, &cfg, 4);
        // One analysis, one lowering: the drivers agree on the verdict.
        prop_assert_eq!(batch.is_ok(), streamed.is_ok());
        prop_assert_eq!(batch.is_ok(), windowed.is_ok());
    }

    /// Pure garbage — no magic, no structure — fails typed at any
    /// chunking, and its admission estimate is never zero-cost.
    #[test]
    fn pure_garbage_fails_typed(
        garbage in prop::collection::vec(0u8..255, 1..2048),
        chunk in 1usize..257,
    ) {
        let chunks = chunked(&garbage, chunk);
        run_stream(&chunks, 7);
        let est = estimate_columnar_stream(chunks.iter().map(|c| c.as_slice()));
        prop_assert_eq!(est.bytes, garbage.len() as u64);
    }

    /// Control: the untouched stream still decodes and synchronizes to
    /// exactly what the in-memory path produces, and the estimator sees
    /// its true event count — mutation hardening must not tax the happy
    /// path.
    #[test]
    fn intact_streams_still_match_the_direct_path(
        seed in 0u64..1000,
        msgs in 8usize..80,
        block in 4usize..64,
        chunk in 8usize..256,
    ) {
        let (trace, init, fin, lmin) = drifted_trace(4, msgs, "constant", seed);
        let bytes = to_binary_columnar_v3_blocked(&trace, block);
        let cfg = PipelineConfig::default();

        let mut direct = trace.clone();
        synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct path");

        let chunks = chunked(&bytes, chunk);
        let (streamed, _) = synchronize_stream(
            chunks.iter().map(|c| c.as_slice()),
            &init,
            Some(&fin),
            &lmin,
            &cfg,
            &CancelToken::none(),
        )
        .expect("intact stream synchronizes");
        assert_identical(&direct, &streamed, "stream vs direct");

        let est = estimate_columnar_stream(chunks.iter().map(|c| c.as_slice()));
        prop_assert!(est.complete);
        prop_assert_eq!(est.events, trace.n_events() as u64);
    }
}
