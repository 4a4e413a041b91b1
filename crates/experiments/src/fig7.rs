//! Fig. 7 — clock-condition violations in realistic application traces.
//!
//! POP-like and SMG2000-like runs with 32 processes on the simulated Xeon
//! cluster, default (scheduler-chosen) pinning, Scalasca-style linear
//! offset interpolation anchored at `MPI_Init`/`MPI_Finalize` probes. The
//! front row of the paper's chart is the percentage of messages whose send
//! and receive order is *reversed* after interpolation (logical messages
//! from collectives included); the back row is the fraction of message
//! transfer events among all trace events. Numbers are averaged over three
//! runs, as in the paper.

use crate::common::{print_claims, Claim};
use clocksync::{
    estimate_offset, synchronize, OffsetMeasurement, PipelineConfig, PreSync, ProbeSample,
};
use mpisim::{probe_all_workers, run, Cluster, RunOptions};
use netsim::{Placement, Topology};
use simclock::{ClockDomain, ClockEnsemble, Dur, Platform, Time, TimerKind};
use tracefmt::{Rank, Trace};
use workloads::{PopConfig, SmgConfig};

/// One application's Fig. 7 measurement.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Application label.
    pub app: &'static str,
    /// % of (physical + logical) messages reversed, averaged over runs.
    pub reversed_pct: f64,
    /// % of (physical + logical) messages violating the clock condition.
    pub violated_pct: f64,
    /// % of message transfer events among all events.
    pub message_event_pct: f64,
    /// Runs averaged.
    pub runs: usize,
}

/// A traced run with its interpolation anchors, ready for synchronisation
/// experiments.
pub struct TracedRun {
    /// The cluster (for `l_min` models).
    pub cluster: Cluster,
    /// The recorded trace (raw local timestamps).
    pub trace: Trace,
    /// Each event's true (simulator) time, indexed like `trace`.
    pub truth: Vec<Vec<Time>>,
    /// Init offset measurements per proc (None for the master).
    pub init: Vec<Option<OffsetMeasurement>>,
    /// Finalize offset measurements per proc.
    pub fin: Vec<Option<OffsetMeasurement>>,
    /// Periodic mid-run measurements (Doleschal-style internal timer
    /// synchronisation, paper reference [17]): one vector per probe epoch.
    pub mid: Vec<Vec<Option<OffsetMeasurement>>>,
}

fn probe_measurements(
    cluster: &mut Cluster,
    n: usize,
    at: Time,
) -> (Vec<Option<OffsetMeasurement>>, Time) {
    let (sessions, end) =
        probe_all_workers(cluster, Rank(0), 20, at, Dur::from_us(100));
    let mut out = vec![None; n];
    for s in sessions {
        let rounds: Vec<ProbeSample> = s
            .rounds
            .iter()
            .map(|r| ProbeSample { t1: r.t1, t0: r.t0, t2: r.t2 })
            .collect();
        out[s.worker.idx()] = estimate_offset(&rounds);
    }
    (out, end)
}

/// Execute a 32-rank application on the Xeon cluster with Scalasca-style
/// offset probes around it.
///
/// `time_compression` compensates for running a shortened workload: when a
/// 25-minute application is scaled down by a factor k, boosting the
/// random-walk wander by k^1.5 and compressing the thermal period by k (at
/// k-fold amplitude) preserves the *deviation magnitudes* the full-length
/// run would have accumulated, so violation statistics stay representative.
/// Pass 1.0 for unscaled workloads.
pub fn traced_run(
    program: &mpisim::Program,
    expected_duration_s: f64,
    time_compression: f64,
    seed: u64,
) -> TracedRun {
    let ranks = program.n_ranks();
    let nodes = ranks.div_ceil(8); // 8 cores per Xeon node
    let shape = Platform::XeonCluster.shape(nodes);
    let horizon = expected_duration_s * 1.6 + 60.0;
    let mut profile = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, horizon);
    if time_compression > 1.0 {
        let k = time_compression;
        profile.walk_step_sigma *= k.powf(1.5);
        profile.walk_step_s = (profile.walk_step_s / k).max(1.0);
        profile.thermal_amp *= k;
        profile.thermal_period_s = (
            (profile.thermal_period_s.0 / k).max(20.0),
            (profile.thermal_period_s.1 / k).max(40.0),
        );
    }
    let clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);
    // "We refrained from using a specific process pinning … and let the
    // scheduler choose".
    let placement = Placement::scheduler_default(shape, ranks, seed ^ 0xABCD);
    let mut cluster = Cluster::new(
        placement,
        Topology::FatTree { leaf_radix: 16 },
        crate::common::latency_of(Platform::XeonCluster),
        clocks,
        seed,
    );

    let (init, after_init) = probe_measurements(&mut cluster, ranks, Time::ZERO);
    let opts = RunOptions {
        start_time: after_init + Dur::from_ms(1),
        ..RunOptions::default()
    };
    let out = run(&mut cluster, program, &opts).expect("application runs");
    let end = out.stats.end_time;
    let (fin, _) = probe_measurements(&mut cluster, ranks, end + Dur::from_ms(1));
    // Periodic interior probes for the Doleschal-style method (paper [17]):
    // eight epochs spread across the run. On a real system these piggyback
    // on global synchronisation operations; the simulated probes read the
    // same clocks the tracer used.
    let mut mid = Vec::new();
    for k in 1..=8 {
        let frac = k as f64 / 9.0;
        let at = opts.start_time
            + Dur::from_secs_f64((end - opts.start_time).as_secs_f64() * frac);
        let (m, _) = probe_measurements(&mut cluster, ranks, at);
        mid.push(m);
    }
    TracedRun {
        cluster,
        trace: out.trace,
        truth: out.truth,
        init,
        fin,
        mid,
    }
}

/// Census of one interpolated trace.
pub struct ViolationCensus {
    /// % messages (physical + logical) reversed.
    pub reversed_pct: f64,
    /// % messages (physical + logical) violating Eq. 1.
    pub violated_pct: f64,
    /// % of message transfer events among all events.
    pub message_event_pct: f64,
}

/// Apply linear interpolation to a traced run and count violations.
pub fn census_after_interpolation(run: &mut TracedRun) -> ViolationCensus {
    let cfg = PipelineConfig {
        presync: PreSync::Linear,
        clc: None,
        ..Default::default()
    };
    let lmin = run.cluster.l_min_model();
    let report = synchronize(
        &mut run.trace,
        &run.init,
        Some(&run.fin),
        &lmin,
        &cfg,
    )
    .expect("pipeline runs");
    let stage = &report.after_presync;
    let total = stage.p2p.total + stage.coll.logical_total;
    let reversed = stage.p2p.reversed + stage.coll.logical_reversed;
    let violated = stage.p2p.violations.len() + stage.coll.logical_violated;
    ViolationCensus {
        reversed_pct: pct(reversed, total),
        violated_pct: pct(violated, total),
        message_event_pct: pct(run.trace.n_message_events(), run.trace.n_events()),
    }
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// The POP-like program at a given scale divisor; returns the program, its
/// expected duration, and the matching time-compression factor.
pub fn pop_program(scale: usize) -> (mpisim::Program, f64, f64) {
    let cfg = PopConfig::mref_like(8, 4, scale);
    let per_iter_s = cfg.compute.as_secs_f64() * (1.0 + 6.0 / 20.0) + 0.001;
    let dur = cfg.iterations as f64 * per_iter_s;
    (cfg.build(), dur, scale as f64)
}

/// The SMG2000-like program at a given padding divisor; returns program,
/// expected duration, and time-compression factor.
pub fn smg_program(pad_scale: usize) -> (mpisim::Program, f64, f64) {
    let cfg = SmgConfig::paper_like(32, pad_scale);
    let dur = 2.0 * cfg.padding.as_secs_f64()
        + cfg.iterations as f64 * 2.0 * cfg.levels as f64 * 0.05;
    (cfg.build(), dur, pad_scale as f64)
}

/// Run Fig. 7: both applications, `runs` repetitions each.
pub fn fig7(scale: usize, runs: usize, seed: u64) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for (app, make) in [
        ("SMG2000", Box::new(move || smg_program(scale * 3)) as Box<dyn Fn() -> (mpisim::Program, f64, f64)>),
        ("POP", Box::new(move || pop_program(scale))),
    ] {
        let mut rev = 0.0;
        let mut vio = 0.0;
        let mut msg = 0.0;
        for r in 0..runs {
            let (prog, dur, k) = make();
            let mut tr = traced_run(&prog, dur, k, seed + 31 * r as u64);
            let c = census_after_interpolation(&mut tr);
            rev += c.reversed_pct;
            vio += c.violated_pct;
            msg += c.message_event_pct;
        }
        let n = runs.max(1) as f64;
        rows.push(Fig7Row {
            app,
            reversed_pct: rev / n,
            violated_pct: vio / n,
            message_event_pct: msg / n,
            runs,
        });
    }
    rows
}

/// Fig. 7's claim: a non-zero share of messages is reversed in every
/// application.
pub fn claims(rows: &[Fig7Row]) -> Vec<Claim> {
    vec![Claim::new(
        "fig7",
        !rows.is_empty() && rows.iter().all(|r| r.reversed_pct > 0.0),
        "a significant non-zero share of messages is reversed after interpolation in both applications",
    )]
}

/// Print precomputed Fig. 7 rows and their claim.
pub fn print_rows(rows: &[Fig7Row]) -> Vec<Claim> {
    let runs = rows.first().map_or(0, |r| r.runs);
    println!("\n## Fig. 7 — Xeon cluster: reversed messages after Scalasca-style interpolation (32 procs, avg of {runs} runs)");
    println!(
        "{:<10} {:>16} {:>16} {:>22}",
        "app", "reversed [%]", "violated [%]", "msg events/total [%]"
    );
    for r in rows {
        println!(
            "{:<10} {:>16.2} {:>16.2} {:>22.2}",
            r.app, r.reversed_pct, r.violated_pct, r.message_event_pct
        );
    }
    print_claims(claims(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_claim_holds_and_messages_are_a_large_fraction() {
        // Heavily scaled down for the test suite; the effect survives
        // because the interpolation window geometry is preserved.
        let rows = fig7(30, 1, 9);
        assert_eq!(rows.len(), 2);
        let claims = claims(&rows);
        assert!(claims[0].holds, "{claims:?}");
        for r in &rows {
            assert!(
                r.violated_pct > 0.5,
                "{}: expected violations after interpolation, got {:.2}%",
                r.app,
                r.violated_pct
            );
            assert!(
                r.message_event_pct > 5.0,
                "{}: message events should be a sizable fraction, got {:.2}%",
                r.app,
                r.message_event_pct
            );
        }
        let mut none = rows.clone();
        none[1].reversed_pct = 0.0;
        assert!(!super::claims(&none)[0].holds, "one application without reversals");
    }

    #[test]
    fn interpolation_reduces_raw_reversals() {
        // Without any correction the raw trace has gross violations
        // (offsets are milliseconds); interpolation removes most.
        let (prog, dur, k) = pop_program(60);
        let mut tr = traced_run(&prog, dur, k, 4);
        let raw = {
            let lmin = tr.cluster.l_min_model();
            let m = tracefmt::match_messages(&tr.trace);
            tracefmt::check_p2p(&tr.trace, &m, &lmin)
        };
        let census = census_after_interpolation(&mut tr);
        let raw_pct = pct(raw.violations.len(), raw.total.max(1));
        assert!(
            census.violated_pct < raw_pct,
            "interpolation should reduce violations: raw {raw_pct:.1}% vs {:.1}%",
            census.violated_pct
        );
    }
}
