//! Differential guarantee of the batch driver: for every drift model and
//! pre-synchronisation variant, [`synchronize`] must produce **bit-identical** corrected timestamps and identical violation
//! reports to the reference chain composed from the public per-stage
//! functions (`common::reference_synchronize`) — and the streaming-ingest
//! entry point [`synchronize_stream`] must reproduce the same results again
//! from the chunked `DTC3` binary encoding.

mod common;

use common::{
    assert_identical, assert_report_matches_reference, drifted_trace, reference_synchronize,
    totals,
};
use drift_lab::clocksync::{
    synchronize, synchronize_stream, CancelToken, ClcParams, PipelineConfig, PipelineError,
    PreSync,
};
use drift_lab::tracefmt::io::to_binary_columnar_v3_blocked;

/// The full matrix: trace sizes × drift models × PreSync variants. The
/// oracle is the reference; the driver must reproduce it bit for bit —
/// corrected timestamps, violation lists and CLC jumps.
#[test]
fn columnar_is_bit_identical_across_the_config_matrix() {
    let sizes: &[(usize, usize)] = &[(3, 60), (5, 400), (8, 1500)];
    let models = ["constant", "sinusoid", "randomwalk"];
    let presyncs = [PreSync::None, PreSync::AlignOnly, PreSync::Linear];
    let mut legs = 0usize;
    for (si, &(procs, msgs)) in sizes.iter().enumerate() {
        for (mi, model) in models.iter().enumerate() {
            let seed = 9000 + (si * 10 + mi) as u64;
            let (base, init, fin, lmin) = drifted_trace(procs, msgs, model, seed);
            for presync in presyncs {
                let ctx = format!("{procs}p/{msgs}m {model} {presync:?}");
                let cfg = PipelineConfig {
                    presync,
                    clc: Some(ClcParams::default()),
                    ..PipelineConfig::default()
                };
                let mut ref_trace = base.clone();
                let reference =
                    reference_synchronize(&mut ref_trace, &init, Some(&fin), &lmin, &cfg);
                let mut trace = base.clone();
                let rep = synchronize(&mut trace, &init, Some(&fin), &lmin, &cfg)
                    .unwrap_or_else(|e| panic!("{ctx}: pipeline failed: {e}"));

                assert_identical(&ref_trace, &trace, &ctx);
                assert_report_matches_reference(&reference, &rep, &ctx);
                // The driver reports its layout conversions.
                assert!(rep.stats.stage("gather").is_some(), "{ctx}: no gather stage");
                assert!(rep.stats.stage("scatter").is_some(), "{ctx}: no scatter stage");
                legs += 1;
            }
        }
    }
    // The matrix must not silently collapse after a refactor.
    let floor = sizes.len() * models.len() * presyncs.len();
    assert!(legs >= floor, "differential matrix ran only {legs} legs (expected {floor})");
}

/// Streaming ingest end-to-end: encode the drifted trace into the blocked
/// columnar binary format, feed it through [`synchronize_stream`] in small
/// chunks, and require bit-identity with the in-memory pipeline run — plus
/// an `"ingest"` stage (and no `"gather"` stage, since the decoder's
/// columns feed the engine directly).
#[test]
fn streamed_ingest_matches_in_memory_pipeline() {
    for (model, chunk) in [("constant", 7usize), ("sinusoid", 64), ("randomwalk", 4096)] {
        let (base, init, fin, lmin) = drifted_trace(6, 900, model, 31337);
        let cfg = PipelineConfig::default();
        let mut mem_trace = base.clone();
        let mem = synchronize(&mut mem_trace, &init, Some(&fin), &lmin, &cfg)
            .expect("in-memory pipeline runs");

        let bytes = to_binary_columnar_v3_blocked(&base, 256);
        let (stream_trace, stream) = synchronize_stream(
            bytes.chunks(chunk),
            &init,
            Some(&fin),
            &lmin,
            &cfg,
            &CancelToken::none(),
        )
        .expect("streamed pipeline runs");

        let ctx = format!("{model} chunk={chunk}");
        assert_identical(&mem_trace, &stream_trace, &ctx);
        assert_eq!(
            mem.after_clc.as_ref().map(totals),
            stream.after_clc.as_ref().map(totals),
            "{ctx}: post-CLC census diverges"
        );
        let ingest = stream.stats.stage("ingest").expect("ingest stage recorded");
        assert_eq!(ingest.items, base.n_events(), "{ctx}: ingest event accounting");
        assert!(ingest.shards > 0, "{ctx}: ingest block accounting");
        assert!(
            stream.stats.stage("gather").is_none(),
            "{ctx}: decoder columns must skip the gather stage"
        );
    }
}

/// A truncated stream must surface as a codec error from the pipeline, not
/// a panic or a silently shorter trace.
#[test]
fn streamed_ingest_rejects_truncated_input() {
    let (base, init, fin, lmin) = drifted_trace(3, 100, "constant", 7);
    let bytes = to_binary_columnar_v3_blocked(&base, 64);
    let cut = &bytes[..bytes.len() - 1];
    let err = synchronize_stream(
        cut.chunks(16),
        &init,
        Some(&fin),
        &lmin,
        &PipelineConfig::default(),
        &CancelToken::none(),
    );
    assert!(
        matches!(err, Err(PipelineError::Codec(_))),
        "expected a codec error, got {err:?}"
    );
}

/// Zero-copy streamed ingest against one-shot decode + synchronize, both
/// against the oracle, across drift models × presync (see
/// `common::ingest_differential_matrix`; widened by `DRIFT_STRESS=1`).
/// It runs the census kernel the host CPU selects (AVX2 where present);
/// `tracefmt`'s census unit tests hold both kernels to an `i128` oracle.
#[test]
fn streamed_ingest_is_bit_identical_to_one_shot_decode() {
    common::ingest_differential_matrix();
}
