//! Figures 4–6 — measured clock deviations under different timers,
//! platforms and corrections.
//!
//! * **Fig. 4** — Xeon cluster, offset alignment only: (a) `MPI_Wtime()`
//!   diverges >200 µs within a short run with abrupt NTP turning points,
//!   (b) `gettimeofday()` behaves alike, (c) the Intel TSC keeps an
//!   approximately constant drift over a full hour.
//! * **Fig. 5** — residual deviations after linear offset interpolation
//!   over 3600 s: Xeon TSC, PowerPC time base, Opteron `gettimeofday()`
//!   (the worst).
//! * **Fig. 6** — even a short 300 s Xeon TSC run slightly exceeds the
//!   Xeon inter-node latency after interpolation.

use crate::common::{
    cluster_one_rank_per_node, measure_deviations, print_claims, print_series, Claim, Correction,
    DeviationSeries, RunLength,
};
use simclock::{Platform, TimerKind};

/// A deviation experiment's output plus shape metrics.
pub struct DeviationOutcome {
    /// Per-worker deviation series.
    pub series: Vec<DeviationSeries>,
    /// Max |deviation| across workers, µs.
    pub max_abs_us: f64,
    /// Linearity R² pooled over the workers, `1 − Σ SS_res / Σ SS_tot` of
    /// one line per worker: a worker whose drift is near zero has a flat,
    /// wander-only series whose own R² says nothing about linearity, and
    /// pooling weighs it by the deviation it has.
    pub r2: f64,
    /// Total detected kinks across workers.
    pub kinks: usize,
}

fn run(
    platform: Platform,
    timer: TimerKind,
    nodes: usize,
    length: RunLength,
    correction: Correction,
    seed: u64,
) -> DeviationOutcome {
    let mut cluster =
        cluster_one_rank_per_node(platform, timer, nodes, length.duration_s * 1.1 + 30.0, seed);
    let series = measure_deviations(&mut cluster, length, correction, 8);
    let max_abs_us = series.iter().map(|s| s.max_abs_us()).fold(0.0, f64::max);
    let (mut res, mut tot) = (0.0, 0.0);
    for s in &series {
        let mean = s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len().max(1) as f64;
        let ss = s.points.iter().map(|p| (p.1 - mean).powi(2)).sum::<f64>();
        res += (1.0 - s.linearity_r2()) * ss;
        tot += ss;
    }
    let r2 = if tot == 0.0 { 1.0 } else { 1.0 - res / tot };
    let kinks = series.iter().map(|s| s.count_kinks(0.05)).sum();
    DeviationOutcome { series, max_abs_us, r2, kinks }
}

/// Fig. 4(a): `MPI_Wtime()` on the Xeon cluster, short run, align only.
pub fn fig4a(length: RunLength, seed: u64) -> DeviationOutcome {
    run(Platform::XeonCluster, TimerKind::MpiWtime, 4, length, Correction::AlignOnly, seed)
}

/// Fig. 4(b): `gettimeofday()` on the Xeon cluster, medium run, align only.
pub fn fig4b(length: RunLength, seed: u64) -> DeviationOutcome {
    run(Platform::XeonCluster, TimerKind::Gettimeofday, 4, length, Correction::AlignOnly, seed)
}

/// Fig. 4(c): Intel TSC on the Xeon cluster, long run, align only.
pub fn fig4c(length: RunLength, seed: u64) -> DeviationOutcome {
    run(Platform::XeonCluster, TimerKind::IntelTsc, 4, length, Correction::AlignOnly, seed)
}

/// Fig. 5(a): Xeon TSC after linear interpolation, long run.
pub fn fig5a(length: RunLength, seed: u64) -> DeviationOutcome {
    run(Platform::XeonCluster, TimerKind::IntelTsc, 4, length, Correction::Linear, seed)
}

/// Fig. 5(b): PowerPC time base after linear interpolation, long run.
pub fn fig5b(length: RunLength, seed: u64) -> DeviationOutcome {
    run(Platform::PowerPcCluster, TimerKind::IbmTimeBase, 4, length, Correction::Linear, seed)
}

/// Fig. 5(c): Opteron `gettimeofday()` after linear interpolation, long run.
pub fn fig5c(length: RunLength, seed: u64) -> DeviationOutcome {
    run(Platform::OpteronCluster, TimerKind::Gettimeofday, 4, length, Correction::Linear, seed)
}

/// Fig. 6: Xeon TSC after linear interpolation, short run.
pub fn fig6(length: RunLength, seed: u64) -> DeviationOutcome {
    run(Platform::XeonCluster, TimerKind::IntelTsc, 4, length, Correction::Linear, seed)
}

/// Fig. 4 at the paper's run lengths: (a) short, (b) medium, (c) long.
pub fn fig4(seed: u64) -> [DeviationOutcome; 3] {
    [
        fig4a(RunLength::short(), seed),
        fig4b(RunLength::medium(), seed + 1),
        fig4c(RunLength::long(), seed + 2),
    ]
}

/// Fig. 4's claims on its three outcomes.
pub fn fig4_claims([a, b, c]: &[DeviationOutcome; 3]) -> Vec<Claim> {
    vec![
        Claim::new(
            "fig4a",
            a.max_abs_us > 200.0 && a.kinks >= 1,
            "MPI_Wtime() deviates by more than 200 us within a short run, with abrupt slope changes",
        ),
        Claim::new("fig4b", b.kinks >= 1, "gettimeofday() shows the same abrupt slope changes"),
        Claim::new(
            "fig4c",
            c.r2 >= 0.97,
            "the Intel TSC drifts at an approximately constant rate (pooled R^2 >= 0.97)",
        ),
    ]
}

/// Print the Fig. 4 family and its claims.
pub fn print_fig4(outcomes: &[DeviationOutcome; 3]) -> Vec<Claim> {
    let titles = [
        "Fig. 4(a) — MPI_Wtime(), short run, after initial offset alignment",
        "Fig. 4(b) — gettimeofday(), medium run, after initial offset alignment",
        "Fig. 4(c) — Intel TSC, long run, after initial offset alignment",
    ];
    for (title, o) in titles.iter().zip(outcomes) {
        print_series(title, &o.series, 12);
        println!("max |dev| {:.1} us, kinks {}, pooled R^2 {:.4}", o.max_abs_us, o.kinks, o.r2);
    }
    print_claims(fig4_claims(outcomes))
}

/// Fig. 5 at the paper's long run length: Xeon TSC, PowerPC time base,
/// Opteron `gettimeofday()`.
pub fn fig5(seed: u64) -> [DeviationOutcome; 3] {
    [
        fig5a(RunLength::long(), seed),
        fig5b(RunLength::long(), seed + 1),
        fig5c(RunLength::long(), seed + 2),
    ]
}

/// Fig. 5's claims on its three outcomes, each residual held against its
/// platform's inter-node latency (µs, in the same order).
pub fn fig5_claims(outcomes: &[DeviationOutcome; 3], latency_us: &[f64; 3]) -> Vec<Claim> {
    let [xeon, powerpc, opteron] = outcomes.each_ref().map(|o| o.max_abs_us);
    vec![
        Claim::new(
            "fig5.latency",
            outcomes.iter().zip(latency_us).all(|(o, &l)| o.max_abs_us > l),
            "after linear interpolation every platform's residual exceeds its inter-node latency",
        ),
        Claim::new(
            "fig5.worst",
            opteron > xeon && opteron > powerpc,
            "Opteron gettimeofday() is the worst of the three",
        ),
    ]
}

/// Print the Fig. 5 family and its claims against each platform's
/// inter-node latency (µs: Xeon, PowerPC, Opteron).
pub fn print_fig5(outcomes: &[DeviationOutcome; 3], latency_us: &[f64; 3]) -> Vec<Claim> {
    let titles = [
        "Fig. 5(a) — Xeon TSC after linear interpolation (3600 s)",
        "Fig. 5(b) — PowerPC time base after linear interpolation (3600 s)",
        "Fig. 5(c) — Opteron gettimeofday() after linear interpolation (3600 s)",
    ];
    for ((title, o), latency) in titles.iter().zip(outcomes).zip(latency_us) {
        print_series(title, &o.series, 12);
        println!("max |dev| {:.1} us vs inter-node latency {latency:.2} us", o.max_abs_us);
    }
    print_claims(fig5_claims(outcomes, latency_us))
}

/// Fig. 6's claim: the residual is of the order of the Xeon inter-node
/// latency (µs), within [0.5, 3] × it.
pub fn fig6_claims(o: &DeviationOutcome, latency_us: f64) -> Vec<Claim> {
    let ratio = o.max_abs_us / latency_us;
    vec![Claim::new(
        "fig6",
        (0.5..=3.0).contains(&ratio),
        "a short Xeon TSC run slightly exceeds the inter-node latency after interpolation (0.5-3x)",
    )]
}

/// Print Fig. 6 and its claim against the Xeon inter-node latency (µs).
pub fn print_fig6(o: &DeviationOutcome, latency_us: f64) -> Vec<Claim> {
    print_series("Fig. 6 — Xeon TSC after linear interpolation, short run (300 s)", &o.series, 12);
    println!("max |dev| {:.2} us vs inter-node latency {latency_us:.2} us", o.max_abs_us);
    print_claims(fig6_claims(o, latency_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shortened runs keep the suite fast; the full-length shapes are the
    // `experiments` binary's, checked against its golden output.

    fn short(duration_s: f64, sample_every_s: f64) -> RunLength {
        RunLength { duration_s, sample_every_s }
    }

    /// An outcome with the given shape metrics and no series.
    fn outcome(max_abs_us: f64, r2: f64, kinks: usize) -> DeviationOutcome {
        DeviationOutcome { series: Vec::new(), max_abs_us, r2, kinks }
    }

    fn verdicts(claims: &[Claim]) -> Vec<bool> {
        claims.iter().map(|c| c.holds).collect()
    }

    #[test]
    fn fig4_claims_hold_on_short_runs() {
        let o = [
            fig4a(RunLength::short(), 5),
            fig4b(short(300.0, 2.0), 6),
            fig4c(short(400.0, 4.0), 6),
        ];
        let claims = fig4_claims(&o);
        assert!(claims.iter().all(|c| c.holds), "{claims:?}");
        // Every TSC worker alone is near-linear too, with ppm-scale drift:
        // hundreds of µs over 400 s.
        let min_r2 = o[2].series.iter().map(|s| s.linearity_r2()).fold(1.0, f64::min);
        assert!(min_r2 > 0.96, "TSC deviation should be almost a straight line, R^2 {min_r2}");
        assert!(o[2].max_abs_us > 50.0);
    }

    #[test]
    fn fig4_claims_fail_on_counterexamples() {
        let linear = [outcome(150.0, 0.5, 3), outcome(900.0, 0.2, 0), outcome(900.0, 0.96, 0)];
        assert_eq!(verdicts(&fig4_claims(&linear)), [false, false, false]);
        let smooth = [outcome(450.0, 1.0, 0), outcome(900.0, 0.2, 4), outcome(900.0, 0.99, 0)];
        assert_eq!(verdicts(&fig4_claims(&smooth)), [false, true, true]);
    }

    #[test]
    fn fig5_claims_hold_on_short_runs() {
        let len = short(900.0, 10.0);
        let o = [fig5a(len, 7), fig5b(len, 8), fig5c(len, 9)];
        let claims = fig5_claims(&o, &[4.29, 6.46, 5.40]);
        assert!(claims.iter().all(|c| c.holds), "{claims:?}");
    }

    #[test]
    fn fig5_claims_fail_on_counterexamples() {
        let latency = [4.29, 6.46, 5.40];
        let under = [outcome(131.9, 0.0, 0), outcome(5.0, 0.0, 0), outcome(5089.8, 0.0, 0)];
        assert_eq!(verdicts(&fig5_claims(&under, &latency)), [false, true]);
        let powerpc_worst = [outcome(131.9, 0.0, 0), outcome(9000.0, 0.0, 0), outcome(5089.8, 0.0, 0)];
        assert_eq!(verdicts(&fig5_claims(&powerpc_worst, &latency)), [true, false]);
    }

    #[test]
    fn fig6_claim_holds_on_the_short_run() {
        let claims = fig6_claims(&fig6(RunLength::short(), 8), 4.29);
        assert!(claims[0].holds, "{claims:?}");
        assert!(!fig6_claims(&outcome(2.0, 0.0, 0), 4.29)[0].holds);
        assert!(!fig6_claims(&outcome(13.0, 0.0, 0), 4.29)[0].holds);
    }
}
