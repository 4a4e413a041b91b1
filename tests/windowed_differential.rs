//! Differential matrix for the incremental windowed engine: for every
//! window size × drift model × pre-synchronisation mode, streaming a columnar trace through
//! [`synchronize_stream_incremental`] and re-decoding the emitted frames
//! must be *bit-identical* to the reference chain
//! (`common::reference_synchronize`) on the whole trace — corrected
//! timestamps, the jump set (compared in canonical order; the reference
//! CLC lists discovery order), `max_jump`, and the moved/total event
//! counts.
//!
//! `DRIFT_STRESS=1` widens the matrix with a 6000-message trace size.

mod common;

use common::{drifted_trace, drifted_zoo_trace, reference_synchronize, zoo_latencies};
use drift_lab::clocksync::{
    synchronize, synchronize_stream_incremental, ClcParams, PipelineConfig, PreSync,
};
use drift_lab::prelude::*;
use drift_lab::tracefmt::io::{
    from_binary_columnar, to_binary_columnar_blocked, to_binary_columnar_v3_blocked,
};
use drift_lab::tracefmt::MinLatency;

/// Run the incremental engine over `bytes` in awkward 4096-byte chunks and
/// re-decode the concatenated output frames.
fn run_windowed(
    bytes: &[u8],
    init: &[Option<OffsetMeasurement>],
    fin: &[Option<OffsetMeasurement>],
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
    window: usize,
    ctx: &str,
) -> (Trace, drift_lab::clocksync::IncrementalReport) {
    let chunks: Vec<&[u8]> = bytes.chunks(4096).collect();
    let (out, rep) =
        synchronize_stream_incremental(&chunks, init, Some(fin), lmin, cfg, window)
            .unwrap_or_else(|e| panic!("{ctx}: incremental run failed: {e}"));
    let back = from_binary_columnar(out.concat().into())
        .unwrap_or_else(|e| panic!("{ctx}: emitted frames do not decode: {e}"));
    (back, rep)
}

/// Frames are emitted in finalization order, so the re-decoded trace's
/// timeline order can differ from the input's — match timelines by
/// location, then require event-for-event identity.
fn assert_times_match(batch: &Trace, back: &Trace, ctx: &str) {
    assert_eq!(batch.n_procs(), back.n_procs(), "{ctx}: proc count");
    for bp in &batch.procs {
        let wp = back
            .procs
            .iter()
            .find(|p| p.location == bp.location)
            .unwrap_or_else(|| panic!("{ctx}: no timeline at {:?}", bp.location));
        assert_eq!(
            bp.events.len(),
            wp.events.len(),
            "{ctx}: event count at {:?}",
            bp.location
        );
        for (i, (a, b)) in bp.events.iter().zip(&wp.events).enumerate() {
            assert_eq!(a.kind, b.kind, "{ctx}: kind {i} at {:?}", bp.location);
            assert_eq!(a.time, b.time, "{ctx}: time {i} at {:?}", bp.location);
        }
    }
}

/// Compare the incremental CLC report against the reference one. Jump order
/// is schedule-dependent (the reference report lists discovery order, the
/// incremental report canonical (timeline, index) order), so both sides
/// are sorted before comparison; values must then be bit-identical.
fn assert_clc_match(
    batch: &drift_lab::clocksync::ClcReport,
    inc: &drift_lab::clocksync::ClcReport,
    ctx: &str,
) {
    let mut want = batch.jumps.clone();
    want.sort_by_key(|j| (j.event.p(), j.event.i()));
    assert_eq!(inc.jumps.len(), want.len(), "{ctx}: jump count");
    for (a, b) in inc.jumps.iter().zip(&want) {
        assert_eq!(a.event, b.event, "{ctx}: jump site");
        assert_eq!(a.size, b.size, "{ctx}: jump size at {:?}", a.event);
    }
    assert_eq!(inc.max_jump, batch.max_jump, "{ctx}: max_jump");
    assert_eq!(inc.events_moved, batch.events_moved, "{ctx}: events_moved");
    assert_eq!(inc.events_total, batch.events_total, "{ctx}: events_total");
}

#[test]
fn windowed_engine_differential_matrix() {
    let stress = std::env::var("DRIFT_STRESS").is_ok_and(|v| v == "1");
    let sizes: &[(usize, usize)] = if stress {
        &[(3, 60), (5, 400), (8, 1500), (10, 6000)]
    } else {
        &[(3, 60), (5, 400), (8, 1500)]
    };
    let models = ["constant", "sinusoid", "randomwalk"];
    let presyncs = [PreSync::None, PreSync::AlignOnly, PreSync::Linear];
    let mut legs = 0usize;
    for (si, &(procs, msgs)) in sizes.iter().enumerate() {
        for (mi, model) in models.iter().enumerate() {
            let seed = 73_000 + (si * 10 + mi) as u64;
            let (base, init, fin, lmin) = drifted_trace(procs, msgs, model, seed);
            let v3 = to_binary_columnar_v3_blocked(&base, 256);
            let n = base.n_events();
            // One sub-block window, two mid windows, one ≥ whole trace.
            let windows = [1usize, 64, 4096, n.max(1)];
            for presync in presyncs {
                let cfg = PipelineConfig {
                    presync,
                    clc: Some(ClcParams::default()),
                    ..PipelineConfig::default()
                };
                let mut batch = base.clone();
                let (.., bclc) = reference_synchronize(&mut batch, &init, Some(&fin), &lmin, &cfg);
                let bclc = bclc.as_ref().expect("clc configured");
                for window in windows {
                    let ctx = format!("{procs}p/{msgs}m {model} {presync:?} window={window}");
                    let (back, rep) = run_windowed(&v3, &init, &fin, &lmin, &cfg, window, &ctx);
                    assert_times_match(&batch, &back, &ctx);
                    let iclc = rep.clc.as_ref().expect("clc ran");
                    assert_clc_match(bclc, iclc, &ctx);
                    legs += 1;
                }
            }
        }
    }
    // The collective zoo at the two extreme windows: every flavour's view,
    // on three communicators, walked one event per epoch and in one epoch —
    // under a latency model with no class table, and under a node/switch
    // tree, where the reference the windowed walk must equal was produced
    // by the batch engine's aggregated N-to-N ends.
    for (li, (lname, lmin)) in zoo_latencies().iter().enumerate() {
        let lmin: &dyn MinLatency = &**lmin;
        for (mi, model) in models.iter().enumerate() {
            let seed = 73_500 + (li * 10 + mi) as u64;
            let (base, init, fin) = drifted_zoo_trace(6, 400, model, seed, lmin);
            let v3 = to_binary_columnar_v3_blocked(&base, 256);
            let cfg =
                PipelineConfig { clc: Some(ClcParams::default()), ..PipelineConfig::default() };
            let mut batch = base.clone();
            let (.., bclc) = reference_synchronize(&mut batch, &init, Some(&fin), lmin, &cfg);
            let bclc = bclc.as_ref().expect("clc configured");
            assert!(bclc.n_jumps() > 0, "zoo/{lname} {model}: nothing to fix");
            let mut aggregated = base.clone();
            synchronize(&mut aggregated, &init, Some(&fin), lmin, &cfg).expect("batch engine");
            assert_times_match(&batch, &aggregated, &format!("zoo/{lname} {model} batch"));
            for window in [1usize, base.n_events()] {
                let ctx = format!("zoo/{lname} {model} window={window}");
                let (back, rep) = run_windowed(&v3, &init, &fin, lmin, &cfg, window, &ctx);
                assert_times_match(&batch, &back, &ctx);
                assert_clc_match(bclc, rep.clc.as_ref().expect("clc ran"), &ctx);
                legs += 1;
            }
        }
    }
    // The matrix must not silently collapse after a refactor.
    let floor = sizes.len() * models.len() * presyncs.len() * 4 + 2 * models.len() * 2;
    assert!(legs >= floor, "windowed matrix ran only {legs} legs (expected {floor})");
}

#[test]
fn windowed_engine_handles_v2_streams_in_the_matrix() {
    for (mi, model) in ["constant", "sinusoid", "randomwalk"].iter().enumerate() {
        let (base, init, fin, lmin) = drifted_trace(4, 200, model, 74_000 + mi as u64);
        let v2 = to_binary_columnar_blocked(&base, 64);
        let cfg = PipelineConfig {
            presync: PreSync::Linear,
            clc: Some(ClcParams::default()),
            ..PipelineConfig::default()
        };
        let mut batch = base.clone();
        let (.., bclc) = reference_synchronize(&mut batch, &init, Some(&fin), &lmin, &cfg);
        let bclc = bclc.as_ref().expect("clc configured");
        for window in [3usize, 128] {
            let ctx = format!("v2 {model} window={window}");
            let (back, rep) = run_windowed(&v2, &init, &fin, &lmin, &cfg, window, &ctx);
            assert_times_match(&batch, &back, &ctx);
            assert_clc_match(bclc, rep.clc.as_ref().expect("clc ran"), &ctx);
            // The emitted stream must re-announce itself as v2.
            // (run_windowed already proved it decodes.)
            assert!(rep.frames > 0, "{ctx}: no frames emitted");
        }
    }
}

#[test]
fn windowed_residency_stays_bounded_while_batch_grows() {
    // Same drift model and window, 10× the messages: the windowed engine's
    // column high-water mark must stay (near) flat while the batch
    // engine's O(trace) residency scales with the input — far enough to
    // leave the windowed engine a quarter of it at most.
    let cfg = PipelineConfig {
        presync: PreSync::Linear,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let mut peaks = Vec::new();
    for msgs in [400usize, 4000] {
        let (base, init, fin, lmin) = drifted_trace(4, msgs, "sinusoid", 75_001);
        let v3 = to_binary_columnar_v3_blocked(&base, 64);
        let ctx = format!("residency msgs={msgs}");
        let (_, rep) = run_windowed(&v3, &init, &fin, &lmin, &cfg, 64, &ctx);
        let mut batch = base.clone();
        let brep = synchronize(&mut batch, &init, Some(&fin), &lmin, &cfg).unwrap();
        assert_eq!(
            brep.stats.peak_resident_column_bytes,
            8 * base.n_events() as u64,
            "{ctx}: batch residency is O(trace) by construction"
        );
        peaks.push((rep.stats.peak_resident_column_bytes, base.n_events() as u64));
    }
    let (small_peak, small_n) = peaks[0];
    let (large_peak, large_n) = peaks[1];
    assert!(large_n >= 9 * small_n, "trace did not actually grow");
    // 10× the events must cost well under 2× the resident columns.
    assert!(
        large_peak < small_peak * 2,
        "windowed residency grew with the trace: {small_peak} B @ {small_n} events -> \
         {large_peak} B @ {large_n} events"
    );
    assert!(
        4 * large_peak <= 8 * large_n,
        "windowed residency {large_peak} B is not 4× below the batch engine's {} B",
        8 * large_n
    );
}

/// The window arrives off the wire as a `u64`; a lane segment sized by it
/// alone was a 64 GiB gauge reading at `1 << 30` and an aborted process at
/// `1 << 40`. Segments are as wide as their timeline at most, so every
/// window a timeline fits in is the same run.
#[test]
fn oversized_window_holds_no_more_than_the_timelines() {
    let mut t = Trace::for_ranks(2);
    t.procs[0].push(Time::from_us(9), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
    t.procs[1].push(Time::from_us(3), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
    let bytes = to_binary_columnar_v3_blocked(&t, 4);
    let lmin = UniformLatency(Dur::from_us(4));
    let cfg = PipelineConfig {
        presync: PreSync::None,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let run = |window| {
        synchronize_stream_incremental(&[&bytes[..]], &[None, None], None, &lmin, &cfg, window)
            .unwrap_or_else(|e| panic!("window {window}: {e}"))
    };
    let (narrow, _) = run(1);
    for window in [1usize << 30, 1 << 40, usize::MAX] {
        let (frames, rep) = run(window);
        assert_eq!(frames, narrow, "window {window}");
        assert_eq!(rep.clc.expect("clc ran").n_jumps(), 1, "window {window}");
        let peak = rep.stats.peak_resident_column_bytes;
        assert!(peak <= 1024, "window {window}: {peak} B resident for two events");
    }
}
