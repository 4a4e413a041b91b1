//! Ablation studies on the design choices DESIGN.md calls out.
//!
//! 1. **Probe count** — Cristian's min-round-trip filter: how the offset
//!    estimation error shrinks as more request/reply rounds are exchanged
//!    (paper §III.b: "the process must be repeated several times").
//! 2. **Anchor count** — piecewise interpolation with mid-run measurements
//!    (the paper's "piecewise" alternative and reference [17]): residual
//!    deviation vs. number of anchors on a long Xeon TSC run.
//! 3. **Amortization factor μ** — the CLC's interval-preservation knob:
//!    violations are always zero, but how much do local interval lengths
//!    distort as μ decreases?
//! 4. **Network load** — the paper's §III.c warning that "network topology
//!    and load may adversely affect the predictability of message
//!    latencies, an important prerequisite for network-based
//!    synchronization": offset-probe accuracy under increasing background
//!    load waves.

use crate::common::cluster_one_rank_per_node;
use crate::survey::truth::interval_distortion;
use crate::survey::PiecewiseInterpolation;
use clocksync::{
    controlled_logical_clock, estimate_offset, ClcParams, OffsetMeasurement, ProbeSample,
    TimestampMap,
};
use mpisim::probe_worker;
use simclock::{Dur, Platform, Time, TimerKind};
use tracefmt::{EventKind, Rank, Summary, Tag, Trace, UniformLatency};

/// One probe-count ablation row.
#[derive(Debug, Clone)]
pub struct ProbeRow {
    /// Rounds per measurement.
    pub probes: usize,
    /// Mean absolute estimation error (µs) over many measurements.
    pub mean_abs_err_us: f64,
    /// Worst error (µs).
    pub max_abs_err_us: f64,
}

/// Sweep the number of Cristian rounds per offset measurement.
pub fn probe_count_ablation(reps: usize, seed: u64) -> Vec<ProbeRow> {
    [1usize, 2, 5, 10, 20, 50]
        .iter()
        .map(|&probes| {
            let mut errs = Summary::new();
            let mut worst = 0.0f64;
            for r in 0..reps {
                let mut cluster = cluster_one_rank_per_node(
                    Platform::XeonCluster,
                    TimerKind::IntelTsc,
                    2,
                    10.0,
                    seed + r as u64,
                );
                let true_off = {
                    let m = cluster.clocks.ideal_at(cluster.placement.core_of(0), Time::ZERO);
                    let w = cluster.clocks.ideal_at(cluster.placement.core_of(1), Time::ZERO);
                    m - w
                };
                let session = probe_worker(
                    &mut cluster,
                    Rank(0),
                    Rank(1),
                    probes,
                    Time::ZERO,
                    Dur::from_us(50),
                );
                let rounds: Vec<ProbeSample> = session
                    .rounds
                    .iter()
                    .map(|r| ProbeSample { t1: r.t1, t0: r.t0, t2: r.t2 })
                    .collect();
                let est = estimate_offset(&rounds).expect("non-empty");
                let err = (est.offset - true_off).abs().as_us_f64();
                errs.add(err);
                worst = worst.max(err);
            }
            ProbeRow {
                probes,
                mean_abs_err_us: errs.mean(),
                max_abs_err_us: worst,
            }
        })
        .collect()
}

/// One anchor-count ablation row.
#[derive(Debug, Clone)]
pub struct AnchorRow {
    /// Number of interpolation anchors (2 = the paper's Eq. 3).
    pub anchors: usize,
    /// Max residual deviation across the run, µs.
    pub max_residual_us: f64,
}

/// Sweep the number of piecewise-interpolation anchors over a long Xeon
/// TSC run.
pub fn anchor_count_ablation(duration_s: f64, seed: u64) -> Vec<AnchorRow> {
    // One cluster, probed densely once; anchor subsets are then evaluated
    // against the dense reference measurements.
    let mut cluster = cluster_one_rank_per_node(
        Platform::XeonCluster,
        TimerKind::IntelTsc,
        2,
        duration_s * 1.2 + 30.0,
        seed,
    );
    let samples = 64usize;
    let mut dense: Vec<OffsetMeasurement> = Vec::with_capacity(samples + 1);
    for k in 0..=samples {
        let at = Time::from_secs_f64(duration_s * k as f64 / samples as f64);
        let session = probe_worker(&mut cluster, Rank(0), Rank(1), 10, at, Dur::from_us(50));
        let rounds: Vec<ProbeSample> = session
            .rounds
            .iter()
            .map(|r| ProbeSample { t1: r.t1, t0: r.t0, t2: r.t2 })
            .collect();
        dense.push(estimate_offset(&rounds).expect("non-empty"));
    }

    [2usize, 3, 5, 9, 17, 33]
        .iter()
        .map(|&anchors| {
            // Evenly spaced anchor subset.
            let picked: Vec<OffsetMeasurement> = (0..anchors)
                .map(|i| dense[i * samples / (anchors - 1)])
                .collect();
            let pw = PiecewiseInterpolation::new(picked);
            let mut worst = 0.0f64;
            for m in &dense {
                let corrected = pw.map(m.worker_time);
                let reference = m.worker_time + m.offset;
                worst = worst.max((corrected - reference).abs().as_us_f64());
            }
            AnchorRow {
                anchors,
                max_residual_us: worst,
            }
        })
        .collect()
}

/// One μ-ablation row.
#[derive(Debug, Clone)]
pub struct MuRow {
    /// Amortization factor.
    pub mu: f64,
    /// Violations after the CLC (must be 0 for every μ).
    pub violations: usize,
    /// Mean relative distortion of local intervals (percent).
    pub mean_interval_distortion_pct: f64,
}

/// Sweep the CLC amortization factor on a skewed ring trace and measure
/// how much local interval lengths distort.
pub fn mu_ablation(seed: u64) -> Vec<MuRow> {
    // A deterministic skewed trace: two procs exchange messages; proc 1's
    // clock is 200 µs behind, so every second message is violated.
    let build = || {
        let mut t = Trace::for_ranks(2);
        let skew = -200i64;
        let mut now = 0i64;
        for i in 0..60u32 {
            now += 40 + (i as i64 * 7) % 23;
            t.procs[0].push(
                Time::from_us(now),
                EventKind::Send { to: Rank(1), tag: Tag(i), bytes: 0 },
            );
            now += 15;
            t.procs[1].push(
                Time::from_us(now + skew),
                EventKind::Recv { from: Rank(0), tag: Tag(i), bytes: 0 },
            );
            now += 25;
            t.procs[1].push(
                Time::from_us(now + skew),
                EventKind::Enter { region: tracefmt::RegionId(0) },
            );
        }
        t
    };
    let _ = seed;
    let lmin = UniformLatency(Dur::from_us(4));

    [1.0f64, 0.999, 0.99, 0.9, 0.5]
        .iter()
        .map(|&mu| {
            let before = build();
            let mut after = before.clone();
            controlled_logical_clock(
                &mut after,
                &lmin,
                &ClcParams { mu, backward: false, ..ClcParams::default() },
            )
            .expect("CLC runs");
            let m = tracefmt::match_messages(&after);
            let violations = tracefmt::check_p2p(&after, &m, &lmin).violations.len();
            // Interval distortion on proc 1 (the corrected side). Its skew
            // is constant, so its true intervals are its raw ones.
            let distortion = interval_distortion(
                before.procs[1].events.iter().map(|e| e.time),
                after.procs[1].events.iter().map(|e| e.time),
            );
            MuRow {
                mu,
                violations,
                mean_interval_distortion_pct: distortion.mean(),
            }
        })
        .collect()
}

/// One network-load ablation row.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Peak congestion queueing delay, µs.
    pub amplitude: f64,
    /// Mean absolute offset-estimation error, µs.
    pub mean_abs_err_us: f64,
    /// Worst error, µs.
    pub max_abs_err_us: f64,
}

/// Sweep background network load (asymmetric congestion, µs of peak
/// queueing delay) and measure Cristian-probe accuracy (10 rounds per
/// measurement, min-RTT filtered). Each measurement starts at a random
/// phase of the load wave.
pub fn network_load_ablation(reps: usize, seed: u64) -> Vec<LoadRow> {
    use rand::Rng as _;
    use rand::SeedableRng as _;
    [0.0f64, 2.0, 5.0, 10.0, 20.0]
        .iter()
        .map(|&congestion_us| {
            let mut errs = Summary::new();
            let mut worst = 0.0f64;
            let mut phase_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x4c4f_4144);
            for r in 0..reps {
                let mut cluster = cluster_one_rank_per_node(
                    Platform::XeonCluster,
                    TimerKind::IntelTsc,
                    2,
                    10.0,
                    seed + r as u64,
                );
                let period_s = 0.37;
                cluster.latency.load = Some(netsim::LoadWave {
                    amplitude: 1.0,
                    period_s,
                    congestion: Dur::from_us_f64(congestion_us),
                    asymmetry: 0.2,
                });
                // The probe train is sub-millisecond — much shorter than the
                // load period — so each measurement sees one phase; sample
                // the phase uniformly. The reference offset is evaluated at
                // the same instant (drift between t=0 and the probe train
                // must not pollute the measurement-error metric).
                let start = Time::from_secs_f64(phase_rng.gen::<f64>() * period_s);
                let true_off = {
                    let m = cluster.clocks.ideal_at(cluster.placement.core_of(0), start);
                    let w = cluster.clocks.ideal_at(cluster.placement.core_of(1), start);
                    m - w
                };
                let session = probe_worker(
                    &mut cluster,
                    Rank(0),
                    Rank(1),
                    10,
                    start,
                    Dur::from_us(50),
                );
                let rounds: Vec<ProbeSample> = session
                    .rounds
                    .iter()
                    .map(|r| ProbeSample { t1: r.t1, t0: r.t0, t2: r.t2 })
                    .collect();
                let est = estimate_offset(&rounds).expect("non-empty");
                let err = (est.offset - true_off).abs().as_us_f64();
                errs.add(err);
                worst = worst.max(err);
            }
            LoadRow {
                amplitude: congestion_us,
                mean_abs_err_us: errs.mean(),
                max_abs_err_us: worst,
            }
        })
        .collect()
}

/// Print all four ablations.
pub fn print_ablations(seed: u64) {
    println!("\n## Ablation 1 — Cristian probe count vs. offset estimation error");
    println!("{:>8} {:>18} {:>16}", "probes", "mean |err| [us]", "max |err| [us]");
    for r in probe_count_ablation(40, seed) {
        println!("{:>8} {:>18.3} {:>16.3}", r.probes, r.mean_abs_err_us, r.max_abs_err_us);
    }

    println!("\n## Ablation 2 — interpolation anchors vs. residual (Xeon TSC, 600 s)");
    println!("{:>8} {:>20}", "anchors", "max residual [us]");
    for r in anchor_count_ablation(600.0, seed + 1) {
        println!("{:>8} {:>20.3}", r.anchors, r.max_residual_us);
    }
    println!("2 anchors = the paper's Eq. 3; more anchors = the piecewise option / Doleschal [17].");

    println!("\n## Ablation 3 — CLC amortization factor μ");
    println!("{:>8} {:>12} {:>28}", "mu", "violations", "interval distortion [%]");
    for r in mu_ablation(seed + 2) {
        println!(
            "{:>8.3} {:>12} {:>28.3}",
            r.mu, r.violations, r.mean_interval_distortion_pct
        );
    }
    println!("every μ restores the clock condition; larger μ preserves intervals at the cost of longer-lasting shifts.");

    println!("\n## Ablation 4 — background network load vs. probe accuracy");
    println!("{:>12} {:>18} {:>16}", "congest[us]", "mean |err| [us]", "max |err| [us]");
    for r in network_load_ablation(40, seed + 3) {
        println!(
            "{:>12.1} {:>18.3} {:>16.3}",
            r.amplitude, r.mean_abs_err_us, r.max_abs_err_us
        );
    }
    println!("load stretches latency tails asymmetrically; even min-RTT filtering degrades — the paper's \"predictability of message latencies\" caveat.");

    println!("\n## Ablation 5 — OpenMP thread placement at 4 threads (the pinning the paper's Itanium lacked)");
    println!("{:<28} {:>18}", "placement", "regions w/ any [%]");
    for (name, pct) in workloads::placement_ablation(4, 200, 3, seed + 4) {
        println!("{name:<28} {pct:>18.1}");
    }
    println!("packing the team onto one chip (one clock) would have eliminated the Fig. 8 violations entirely.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_probes_reduce_error() {
        let rows = probe_count_ablation(25, 3);
        let one = rows.iter().find(|r| r.probes == 1).unwrap();
        let many = rows.iter().find(|r| r.probes == 20).unwrap();
        assert!(
            many.mean_abs_err_us <= one.mean_abs_err_us,
            "20 probes ({}) should beat 1 probe ({})",
            many.mean_abs_err_us,
            one.mean_abs_err_us
        );
    }

    #[test]
    fn more_anchors_reduce_residual() {
        let rows = anchor_count_ablation(300.0, 4);
        let two = rows.iter().find(|r| r.anchors == 2).unwrap();
        let many = rows.iter().find(|r| r.anchors == 33).unwrap();
        assert!(
            many.max_residual_us < two.max_residual_us,
            "33 anchors ({}) should beat 2 anchors ({})",
            many.max_residual_us,
            two.max_residual_us
        );
    }

    #[test]
    fn all_mu_values_restore_condition_and_distortion_grows_as_mu_falls() {
        let rows = mu_ablation(5);
        for r in &rows {
            assert_eq!(r.violations, 0, "mu={} left violations", r.mu);
        }
        let at = |mu: f64| {
            rows.iter()
                .find(|r| (r.mu - mu).abs() < 1e-9)
                .unwrap()
                .mean_interval_distortion_pct
        };
        // μ=1 preserves intervals perfectly (no decay => pure shift).
        assert!(at(1.0) < 1e-6, "mu=1 distortion {}", at(1.0));
        // Lower μ compresses intervals more.
        assert!(at(0.5) > at(0.99), "distortion should grow as mu falls");
    }
}
