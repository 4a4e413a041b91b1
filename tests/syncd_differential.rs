//! Differential guarantees for the `syncd` service: a job run through the
//! service — any presync, the trace's `DTC3` bytes in any chunking, alone
//! or in a contended mixed batch with a poisoned neighbour — produces
//! **bit-identical** timestamps to calling `clocksync::synchronize` directly
//! on the same trace with the same configuration, and to the reference
//! chain (`common::reference_synchronize`) across the config grid.

mod common;

use common::{assert_identical, drifted_trace, reference_synchronize};
use drift_lab::clocksync::{synchronize, PipelineConfig, PipelineError, PreSync};
use drift_lab::syncd::{
    chunked, Counter, Fault, FaultInjector, JobError, JobInput, JobSpec, Priority,
    ServiceConfig, SyncService,
};
use drift_lab::tracefmt::io::to_binary_columnar_v3_blocked;
use drift_lab::tracefmt::{MinLatency, Trace, UniformLatency};
use std::sync::Arc;

const PRESYNCS: [PreSync; 2] = [PreSync::AlignOnly, PreSync::Linear];

fn configs() -> Vec<(String, PipelineConfig)> {
    PRESYNCS
        .iter()
        .map(|&presync| {
            (format!("{presync:?}"), PipelineConfig { presync, ..PipelineConfig::default() })
        })
        .collect()
}

fn submit(
    service: &SyncService,
    input: JobInput,
    init: &[Option<drift_lab::clocksync::OffsetMeasurement>],
    fin: &[Option<drift_lab::clocksync::OffsetMeasurement>],
    lmin: UniformLatency,
    cfg: PipelineConfig,
) -> drift_lab::syncd::JobHandle {
    let lmin: Arc<dyn MinLatency + Send + Sync> = Arc::new(lmin);
    service
        .submit(JobSpec::new(
            input,
            init.to_vec(),
            Some(fin.to_vec()),
            lmin,
            cfg,
        ))
        .expect("admission accepts the job")
}

/// Every presync, two chunkings of one stream, one shared service: each
/// job's output must equal a direct `synchronize` and the oracle's.
#[test]
fn service_matches_direct_across_the_config_grid() {
    let (trace, init, fin, lmin) = drifted_trace(4, 300, "sinusoid", 42);
    let bytes = to_binary_columnar_v3_blocked(&trace, 32);
    let service = SyncService::start(ServiceConfig {
        executors: 2,
        ..ServiceConfig::default()
    });

    // Submit everything up front so jobs genuinely contend for executors.
    let mut jobs = Vec::new();
    for (label, cfg) in configs() {
        let mut direct = trace.clone();
        synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct run");
        let mut oracle = trace.clone();
        reference_synchronize(&mut oracle, &init, Some(&fin), &lmin, &cfg);
        assert_identical(&oracle, &direct, &format!("{label} (direct vs oracle)"));
        let handles = [chunked(&bytes, 128), vec![bytes.to_vec()]]
            .map(|chunks| submit(&service, JobInput::Stream(chunks), &init, &fin, lmin, cfg.clone()));
        jobs.push((label, direct, handles));
    }

    for (label, direct, handles) in jobs {
        for (h, chunking) in handles.into_iter().zip(["128-byte chunks", "one chunk"]) {
            let ok = h
                .wait()
                .unwrap_or_else(|f| panic!("{label}: {chunking} job failed: {}", f.error));
            assert_identical(&direct, &ok.trace, &format!("{label} ({chunking})"));
        }
    }

    let m = service.metrics();
    // Every presync, each in two chunkings: the grid must not silently
    // collapse.
    let grid = PRESYNCS.len() as u64;
    assert_eq!(m.counter(Counter::Completed), grid * 2);
    assert_eq!(m.counter(Counter::Failed), 0);
    assert_eq!(m.counter(Counter::ServiceCrashes), 0);
    service.shutdown();
}

/// A mixed batch: healthy jobs interleaved with one poisoned stream. The
/// poisoned job fails typed on its one run and affects nothing else.
#[test]
fn poisoned_neighbour_cannot_corrupt_healthy_jobs() {
    let (trace, init, fin, lmin) = drifted_trace(3, 200, "randomwalk", 7);
    let cfg = PipelineConfig::default();
    let mut direct = trace.clone();
    synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct run");

    let bytes = to_binary_columnar_v3_blocked(&trace, 16);
    let poisoned = FaultInjector::new()
        .with(Fault::FlipByte { at: bytes.len() / 3, xor: 0x40 })
        .with(Fault::Truncate { at: bytes.len() - 7 })
        .apply(&chunked(&bytes, 96));

    let service = SyncService::start(ServiceConfig {
        executors: 2,
        ..ServiceConfig::default()
    });

    // Interleave: healthy, healthy, poisoned, healthy, healthy.
    let h1 = submit(&service, JobInput::Stream(vec![bytes.to_vec()]), &init, &fin, lmin, cfg.clone());
    let h2 = submit(&service, JobInput::Stream(chunked(&bytes, 96)), &init, &fin, lmin, cfg.clone());
    let bad = submit(&service, JobInput::Stream(poisoned), &init, &fin, lmin, cfg.clone());
    let h3 = submit(&service, JobInput::Stream(chunked(&bytes, 7)), &init, &fin, lmin, cfg.clone());
    let h4 = submit(&service, JobInput::Stream(chunked(&bytes, 32)), &init, &fin, lmin, cfg);

    let failure = bad.wait().expect_err("poisoned job must fail");
    assert!(
        matches!(failure.error, JobError::Pipeline(_) | JobError::Panicked(_)),
        "poisoned job must fail typed, got {:?}",
        failure.error
    );

    for (i, h) in [h1, h2, h3, h4].into_iter().enumerate() {
        let ok = h.wait().unwrap_or_else(|f| {
            panic!("healthy job {i} failed next to a poisoned one: {}", f.error)
        });
        assert_identical(&direct, &ok.trace, &format!("healthy job {i}"));
    }

    let m = service.metrics();
    assert_eq!(m.counter(Counter::Completed), 4);
    assert_eq!(m.counter(Counter::Failed), 1);
    assert_eq!(m.counter(Counter::ServiceCrashes), 0);
    assert_eq!(m.admitted_bytes, 0, "all budget charges released");
    service.shutdown();
}

/// Init and finalize anchors at one worker time are the tenant's bad
/// measurements, whichever engine the job asked for: a typed pipeline error
/// naming the process, and no executor ever panics over it.
#[test]
fn coincident_anchors_fail_typed_without_a_panic() {
    let (trace, init, mut fin, lmin) = drifted_trace(2, 1, "constant", 3);
    fin[1].as_mut().expect("worker").worker_time = init[1].expect("worker").worker_time;
    let bytes = to_binary_columnar_v3_blocked(&trace, 16);
    let service = SyncService::start(ServiceConfig::default());
    let inputs = [
        JobInput::Stream(vec![bytes.to_vec()]),
        JobInput::Stream(chunked(&bytes, 64)),
        JobInput::StreamIncremental { chunks: chunked(&bytes, 64), window_events: 8 },
    ];
    for input in inputs {
        let kind = input.kind();
        let failure = submit(&service, input, &init, &fin, lmin, PipelineConfig::default())
            .wait()
            .expect_err("coincident anchors must fail the job");
        assert!(
            matches!(&failure.error, JobError::Pipeline(PipelineError::BadMeasurements(m))
                if m.starts_with("process 1:")),
            "{kind}: expected BadMeasurements naming process 1, got {:?}",
            failure.error
        );
    }
    let m = service.metrics();
    assert_eq!(m.counter(Counter::JobPanics), 0);
    assert_eq!(m.counter(Counter::ServiceCrashes), 0);
    assert_eq!(m.admitted_bytes, 0, "all budget charges released");
    service.shutdown();
}

/// Priorities only reorder execution — they never change results, even on
/// an empty-measurement census-only job mixed with full pipeline runs.
#[test]
fn priorities_and_contention_do_not_change_bits() {
    let (trace, init, fin, lmin) = drifted_trace(4, 150, "constant", 99);
    let cfg = PipelineConfig::default();
    let mut direct = trace.clone();
    synchronize(&mut direct, &init, Some(&fin), &lmin, &cfg).expect("direct run");

    let bytes = to_binary_columnar_v3_blocked(&trace, 16);
    let service = SyncService::start(ServiceConfig {
        executors: 1, // force strict queueing so priority order matters
        ..ServiceConfig::default()
    });
    let mut handles = Vec::new();
    for (i, prio) in [Priority::Low, Priority::High, Priority::Normal, Priority::High]
        .into_iter()
        .enumerate()
    {
        let lmin_arc: Arc<dyn MinLatency + Send + Sync> = Arc::new(lmin);
        let h = service
            .submit(
                JobSpec::new(
                    JobInput::Stream(chunked(&bytes, 256)),
                    init.clone(),
                    Some(fin.clone()),
                    lmin_arc,
                    cfg.clone(),
                )
                .with_priority(prio),
            )
            .expect("admitted");
        handles.push((i, h));
    }
    for (i, h) in handles {
        let ok = h.wait().unwrap_or_else(|f| panic!("job {i} failed: {}", f.error));
        assert_identical(&direct, &ok.trace, &format!("job {i}"));
    }
    let m = service.metrics();
    assert_eq!(m.counter(Counter::Completed), 4);
    assert_eq!(m.counter(Counter::ServiceCrashes), 0);
    // Stage totals folded from all four runs account for every event the
    // jobs processed (presync runs once per job on every timeline).
    let presync = m.stages.get("presync").expect("presync stage folded");
    assert_eq!(presync.items, 4 * trace.n_events() as u64);
    service.shutdown();
}

/// An all-empty trace through the service, as a degenerate-input control.
#[test]
fn empty_trace_job_completes() {
    let cfg = PipelineConfig {
        presync: PreSync::None,
        clc: None,
        ..PipelineConfig::default()
    };
    let service = SyncService::start_default();
    let lmin: Arc<dyn MinLatency + Send + Sync> =
        Arc::new(UniformLatency(drift_lab::simclock::Dur::from_us(1)));
    let h = service
        .submit(JobSpec::new(
            JobInput::Stream(vec![to_binary_columnar_v3_blocked(&Trace::for_ranks(3), 16).to_vec()]),
            vec![None, None, None],
            None,
            lmin,
            cfg,
        ))
        .expect("admitted");
    let ok = h.wait().expect("empty job completes");
    assert_eq!(ok.trace.n_events(), 0);
    service.shutdown();
}
