//! Tables I and II — pinning configurations and measured latencies on the
//! Xeon cluster.

use crate::common::{print_claims, Claim};
use mpisim::Cluster;
use netsim::{HierarchicalLatency, Placement, Topology};
use simclock::{
    allan_deviation, sample_phase, ClockDomain, ClockEnsemble, ClockProfile, Dur, Platform,
    TimerKind,
};
use workloads::{measure_allreduce_latency, measure_p2p_latency, LatencyMeasurement};

/// Table I rows: the three pinning setups.
pub fn table1() -> Vec<(&'static str, String)> {
    vec![
        ("Inter node", "4 nodes, 1 process per node".into()),
        ("Inter chip", "1 node, 2 chips per node, 1 process per chip".into()),
        ("Inter core", "1 node, 1 chip per node, 4 processes per chip".into()),
    ]
}

/// Print Table I.
pub fn print_table1() {
    println!("\n## Table I — Xeon cluster: process pinning for the measurements");
    for (name, desc) in table1() {
        println!("{name:<12} {desc}");
    }
}

/// One Table II row: setup name, paper value, measured mean/std.
pub struct Table2Row {
    /// Setup label.
    pub setup: &'static str,
    /// The paper's measured mean in µs.
    pub paper_mean_us: f64,
    /// Our measured latency.
    pub measured: LatencyMeasurement,
}

fn xeon_cluster_with(placement: Placement, seed: u64) -> Cluster {
    let shape = placement.shape();
    let clocks = ClockEnsemble::build(
        shape,
        ClockDomain::Global,
        &ClockProfile::bare(TimerKind::IntelTsc),
        seed,
    );
    Cluster::new(
        placement,
        Topology::FatTree { leaf_radix: 16 },
        HierarchicalLatency::xeon_infiniband(),
        clocks,
        seed,
    )
}

/// Run the Table II measurements (`reps` repetitions per row).
pub fn table2(reps: usize, seed: u64) -> Vec<Table2Row> {
    let shape = Platform::XeonCluster.shape(4);
    let mut rows = Vec::new();

    let mut c = xeon_cluster_with(Placement::one_per_node(shape, 4), seed);
    rows.push(Table2Row {
        setup: "Inter node message latency",
        paper_mean_us: 4.29,
        measured: measure_p2p_latency(&mut c, reps, 0).expect("ping-pong runs"),
    });

    let mut c = xeon_cluster_with(Placement::one_per_chip(shape, 2), seed + 1);
    rows.push(Table2Row {
        setup: "Inter chip message latency",
        paper_mean_us: 0.86,
        measured: measure_p2p_latency(&mut c, reps, 0).expect("ping-pong runs"),
    });

    let mut c = xeon_cluster_with(Placement::one_per_core(shape, 4), seed + 2);
    rows.push(Table2Row {
        setup: "Inter core message latency",
        paper_mean_us: 0.47,
        measured: measure_p2p_latency(&mut c, reps, 0).expect("ping-pong runs"),
    });

    let mut c = xeon_cluster_with(Placement::one_per_node(shape, 4), seed + 3);
    rows.push(Table2Row {
        setup: "Inter node collective latency",
        paper_mean_us: 12.86,
        measured: measure_allreduce_latency(&mut c, 4, reps, 8).expect("allreduce runs"),
    });

    rows
}

/// Table II's claim: every measured mean within 2 % of the paper's, in
/// the paper's order core < chip < node < collective (`rows` in
/// [`table2`]'s order: node, chip, core, collective).
pub fn table2_claims(rows: &[Table2Row]) -> Vec<Claim> {
    let close = rows.iter().all(|r| {
        (r.measured.mean_us() - r.paper_mean_us).abs() <= 0.02 * r.paper_mean_us
    });
    let mean: Vec<f64> = rows.iter().map(|r| r.measured.mean_us()).collect();
    let ordered = matches!(mean[..], [node, chip, core, coll] if core < chip && chip < node && node < coll);
    vec![Claim::new(
        "table2",
        close && ordered,
        "latencies within 2 % of the paper's means, ordered core < chip < node < collective",
    )]
}

/// Print Table II next to the paper's values, and its claim.
pub fn print_table2(rows: &[Table2Row]) -> Vec<Claim> {
    println!("\n## Table II — Xeon cluster: measured message and collective latencies");
    println!(
        "{:<32} {:>12} {:>12} {:>12}",
        "setup", "paper[us]", "mean[us]", "stddev[us]"
    );
    for r in rows {
        println!(
            "{:<32} {:>12.2} {:>12.2} {:>12.2e}",
            r.setup,
            r.paper_mean_us,
            r.measured.mean_us(),
            r.measured.std_us()
        );
    }
    print_claims(table2_claims(rows))
}

/// The §II timer taxonomy as a measured table: for each timer technology on
/// the Xeon platform, its resolution, read overhead, NTP steering, and the
/// Allan deviation at τ = 64 s of a representative clock (the stability
/// number that decides interpolation-friendliness).
pub fn print_timer_taxonomy(seed: u64) {
    use rand::SeedableRng as _;
    println!("\n## §II — timer taxonomy (Xeon platform, ADEV at tau = 64 s)");
    println!(
        "{:<18} {:>9} {:>12} {:>14} {:>6} {:>12}",
        "timer", "hardware", "resolution", "overhead[ns]", "NTP", "ADEV@64s"
    );
    for timer in [
        TimerKind::IntelTsc,
        TimerKind::Gettimeofday,
        TimerKind::MpiWtime,
    ] {
        let profile = Platform::XeonCluster.clock_profile(timer, 1200.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clock = profile.build_clock(&mut rng, 0.0, 1.5e-6);
        let phase = sample_phase(&clock, Dur::from_secs(1), 1024);
        let adev = allan_deviation(&phase, 1.0, 64).unwrap_or(f64::NAN);
        println!(
            "{:<18} {:>9} {:>12} {:>14} {:>6} {:>12.2e}",
            timer.label(),
            timer.is_hardware(),
            format!("{}", profile.noise.resolution),
            profile.noise.read_overhead.as_ns_f64(),
            profile.ntp.is_some(),
            adev
        );
    }
    println!("hardware clocks: stable (interpolation-friendly); NTP-steered software clocks: orders of magnitude noisier at long tau.");
}

/// Cross-platform extension of Table II: inter-node message latency on all
/// three of the paper's clusters (the paper prints only the Xeon numbers),
/// in the order Xeon, PowerPC, Opteron — the platforms of Fig. 5.
pub fn table2_platforms(reps: usize, seed: u64) -> [(Platform, LatencyMeasurement); 3] {
    [Platform::XeonCluster, Platform::PowerPcCluster, Platform::OpteronCluster].map(|platform| {
        let shape = platform.shape(4);
        let clocks = ClockEnsemble::build(
            shape,
            ClockDomain::Global,
            &ClockProfile::bare(TimerKind::IntelTsc),
            seed,
        );
        let mut cluster = Cluster::new(
            Placement::one_per_node(shape, 4),
            crate::common::topology_of(platform, 4),
            crate::common::latency_of(platform),
            clocks,
            seed,
        );
        (platform, measure_p2p_latency(&mut cluster, reps, 0).expect("ping-pong runs"))
    })
}

/// Print the cross-platform extension of Table II.
pub fn print_table2_platforms(rows: &[(Platform, LatencyMeasurement)]) {
    println!("\n## Table II extension — inter-node message latency per platform");
    println!("{:<22} {:>12} {:>12}", "platform", "mean[us]", "stddev[us]");
    for (platform, m) in rows {
        println!("{:<22} {:>12.2} {:>12.2e}", platform.label(), m.mean_us(), m.std_us());
    }
    println!("(Myrinet slowest, SeaStar torus pays per-hop costs; the paper only tabulates the Xeon values.)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefmt::Summary;

    #[test]
    fn table2_claim_holds_on_a_short_run() {
        let claims = table2_claims(&table2(2000, 3));
        assert!(claims[0].holds, "{claims:?}");
    }

    #[test]
    fn table2_claim_fails_on_counterexamples() {
        let row = |setup, paper_mean_us, mean: f64| {
            let mut summary = Summary::new();
            summary.add(mean);
            Table2Row { setup, paper_mean_us, measured: LatencyMeasurement { summary } }
        };
        let rows = |chip| {
            vec![row("node", 4.29, 4.29), row("chip", 0.86, chip), row("core", 0.47, 0.47), row("coll", 12.86, 12.9)]
        };
        assert!(table2_claims(&rows(0.87))[0].holds);
        assert!(!table2_claims(&rows(0.90))[0].holds, "5 % off the paper");
        let mut swapped = rows(0.87);
        swapped[1].paper_mean_us = 0.46;
        swapped[1].measured = row("chip", 0.46, 0.46).measured;
        assert!(!table2_claims(&swapped)[0].holds, "chip below core");
    }

    #[test]
    fn table1_has_three_setups() {
        assert_eq!(table1().len(), 3);
    }

    #[test]
    fn cross_platform_latency_ordering() {
        // Myrinet inter-node > SeaStar > InfiniBand per our models.
        let [xeon, ppc, opt] = table2_platforms(300, 1).map(|(_, m)| m.mean_us());
        assert!(xeon < opt && opt < ppc, "unexpected ordering: {xeon} {opt} {ppc}");
    }
}
