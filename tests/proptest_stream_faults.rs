//! Robustness of the streaming ingest path against hostile bytes.
//!
//! The `syncd` service's isolation story starts one layer down: whatever a
//! tenant feeds [`synchronize_stream`], the pipeline must come back with
//! `Ok` or a *typed* error — never a panic, never an absurd allocation.
//! These properties drive mutated DTC2 streams (bit flips, truncations,
//! dropped chunks, injected garbage, and pure garbage) through the full
//! pipeline under random chunkings, and also pin down that the header-only
//! cost estimator used by admission control never overstates a valid
//! stream and never panics on a corrupt one.

mod common;

use common::{assert_identical, drifted_trace};
use drift_lab::clocksync::{synchronize, synchronize_stream, PipelineConfig};
use drift_lab::syncd::{chunked, Fault, FaultInjector};
use drift_lab::tracefmt::io::{estimate_columnar_stream, to_binary_columnar_blocked};
use proptest::prelude::*;

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
    );
    // Either outcome is fine; reaching here without a panic is the test.
    let _ = result.map(|(t, _)| t.n_events());
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
        let bytes = to_binary_columnar_blocked(&trace, block);
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
        let bytes = to_binary_columnar_blocked(&trace, 16);
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
        use drift_lab::clocksync::synchronize_stream_incremental;
        use drift_lab::prelude::*;
        use drift_lab::tracefmt::CollOp;
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
        let bytes = to_binary_columnar_blocked(&trace, 8);
        let chunks: Vec<&[u8]> = bytes.chunks(64).collect();
        let batch = synchronize(&mut trace.clone(), &init, None, &lmin, &cfg);
        let streamed = synchronize_stream(chunks.iter().copied(), &init, None, &lmin, &cfg);
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
        let bytes = to_binary_columnar_blocked(&trace, block);
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
        )
        .expect("intact stream synchronizes");
        assert_identical(&direct, &streamed, "stream vs direct");

        let est = estimate_columnar_stream(chunks.iter().map(|c| c.as_slice()));
        prop_assert!(est.complete);
        prop_assert_eq!(est.events, trace.n_events() as u64);
    }
}
