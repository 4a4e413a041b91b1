//! `syncd` as a multi-tenant service: trace two application twins (a
//! POP-like ocean model and an SMG2000-like solver), submit the `DTC3`
//! bytes their tracer writes to one shared `SyncService` — POP twice, once
//! through the batch engine and once through the windowed one — alongside
//! a *poisoned* stream (corrupted mid-flight) and a tight-quota tenant
//! whose submission admission control bounces, then print the service's
//! metrics exporter.
//!
//! ```sh
//! cargo run --release --example sync_service
//! ```
//!
//! The CI smoke step runs this binary headless and asserts on two
//! exporter lines: exactly one job failed, the poisoned one, on its only
//! run (`syncd_jobs_failed_total 1`), and no panic ever escaped an
//! executor (`syncd_service_crashes_total 0`).

use drift_lab::clocksync::PipelineConfig;
use drift_lab::experiments::fig7::{pop_program, smg_program, traced_run};
use drift_lab::prelude::*;
use drift_lab::syncd::{
    chunked, Counter, Fault, FaultInjector, JobInput, JobSpec, Priority, ServiceConfig,
    SyncService,
};
use drift_lab::tracefmt::io::to_binary_columnar_v3_blocked;
use drift_lab::tracefmt::{LatencyTable, MinLatency};
use std::sync::Arc;

type Measurements = Vec<Option<drift_lab::clocksync::OffsetMeasurement>>;

/// Trace one application twin and freeze everything a job spec needs.
fn traced_job(
    name: &str,
    program: &drift_lab::mpisim::Program,
    dur: f64,
    comp: f64,
    seed: u64,
) -> (Trace, Measurements, Measurements, Arc<dyn MinLatency + Send + Sync>) {
    let tr = traced_run(program, dur, comp, seed);
    println!(
        "traced {name}: {} ranks, {} events ({} message events)",
        tr.trace.n_procs(),
        tr.trace.n_events(),
        tr.trace.n_message_events()
    );
    let ranks: Vec<Rank> = (0..tr.trace.n_procs() as u32).map(Rank).collect();
    let model = |a: Rank, b: Rank| tr.cluster.l_min(a, b, 0);
    let lmin = LatencyTable::freeze(&model, &ranks);
    (tr.trace, tr.init, tr.fin, Arc::new(lmin))
}

fn main() {
    // Two tenants' workloads, deliberately small scales so the example
    // runs in seconds.
    let (pop_prog, pop_dur, pop_comp) = pop_program(8);
    let (pop, pop_init, pop_fin, pop_lmin) = traced_job("POP", &pop_prog, pop_dur, pop_comp, 11);
    let (smg_prog, smg_dur, smg_comp) = smg_program(8);
    let (smg, smg_init, smg_fin, smg_lmin) = traced_job("SMG2000", &smg_prog, smg_dur, smg_comp, 23);

    let service = SyncService::start_default();
    let cfg = PipelineConfig::default();

    // Tenant 1: POP as a chunked `DTC3` byte stream — what a remote tracer
    // sends — through the batch engine, high priority.
    let pop_bytes = to_binary_columnar_v3_blocked(&pop, 4096);
    let pop_job = service
        .submit(
            JobSpec::new(
                JobInput::Stream(chunked(&pop_bytes, 64 * 1024)),
                pop_init.clone(),
                Some(pop_fin.clone()),
                Arc::clone(&pop_lmin),
                cfg.clone(),
            )
            .with_priority(Priority::High),
        )
        .expect("POP job admitted");

    // Tenant 1 again: the same bytes through the windowed engine, which
    // keeps O(window) timestamps resident and answers in corrected frames.
    let pop_windowed_job = service
        .submit(JobSpec::new(
            JobInput::StreamIncremental {
                chunks: chunked(&pop_bytes, 64 * 1024),
                window_events: 1024,
            },
            pop_init.clone(),
            Some(pop_fin),
            pop_lmin,
            cfg.clone(),
        ))
        .expect("POP windowed job admitted");

    // Tenant 2: SMG2000, normal priority.
    let smg_bytes = to_binary_columnar_v3_blocked(&smg, 4096);
    let smg_job = service
        .submit(JobSpec::new(
            JobInput::Stream(chunked(&smg_bytes, 64 * 1024)),
            smg_init.clone(),
            Some(smg_fin),
            Arc::clone(&smg_lmin),
            cfg.clone(),
        ))
        .expect("SMG job admitted");

    // A hostile tenant: the POP stream corrupted mid-flight. Its one run
    // fails typed — a second would fail the same way on the same bytes —
    // no executor dies, nobody else's job is touched.
    let poisoned = FaultInjector::new()
        .with(Fault::FlipByte { at: pop_bytes.len() / 2, xor: 0x80 })
        .with(Fault::Truncate { at: pop_bytes.len() - 11 })
        .apply(&chunked(&pop_bytes, 64 * 1024));
    let poisoned_job = service
        .submit(JobSpec::new(
            JobInput::Stream(poisoned),
            pop_init.clone(),
            None,
            smg_lmin,
            cfg.clone(),
        ))
        .expect("poisoned stream passes admission (headers look plausible)");

    // A tenant on a tight quota: its dedicated service instance carries a
    // 4 MB memory budget, and the POP stream's header-only cost estimate
    // (computed without decoding a single payload byte) prices it out at
    // the door.
    let quota_service = SyncService::start(ServiceConfig {
        memory_budget_bytes: 4 << 20,
        ..ServiceConfig::default()
    });
    match quota_service.submit(JobSpec::new(
        JobInput::Stream(chunked(&pop_bytes, 64 * 1024)),
        pop_init,
        None,
        Arc::new(UniformLatency(Dur::from_us(1))),
        cfg,
    )) {
        Err(e) => println!("over-quota submission rejected: {e}"),
        Ok(_) => println!("over-quota submission unexpectedly admitted"),
    }
    assert_eq!(
        quota_service.metrics().counter(Counter::RejectedOverBudget),
        1,
        "the tight-quota tenant must bounce the stream"
    );
    quota_service.shutdown();

    // Collect the outcomes. The batch engine reports its censuses; the
    // windowed one skips them and answers in corrected frames.
    for (name, job) in [("POP", pop_job), ("POP/window", pop_windowed_job), ("SMG2000", smg_job)] {
        let out = job.wait().expect("healthy job succeeds");
        let clc = out.report.clc.as_ref().expect("CLC ran");
        let result = if out.frames.is_empty() {
            let after = out.report.after_clc.as_ref().expect("CLC census ran");
            format!("{} residual violations", after.total_violations())
        } else {
            let bytes: usize = out.frames.iter().map(Vec::len).sum();
            format!("{} corrected frames, {bytes} bytes", out.frames.len())
        };
        println!(
            "{name:<11} ok: {:?} run, {} jumps, {result}",
            out.run_time,
            clc.n_jumps()
        );
    }
    match poisoned_job.wait() {
        Err(failure) => println!("poisoned    failed typed: {}", failure.error),
        Ok(_) => println!("poisoned    unexpectedly succeeded"),
    }

    let snapshot = service.metrics();
    service.shutdown();

    println!("\n--- metrics exporter ---");
    print!("{}", snapshot.render_text());

    assert_eq!(
        snapshot.counter(Counter::Failed),
        1,
        "the poisoned job, and only it, must fail"
    );
    assert_eq!(
        snapshot.counter(Counter::ServiceCrashes),
        0,
        "no panic may escape an executor"
    );
}
