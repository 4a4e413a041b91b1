//! Integration tests for the beyond-the-paper extensions, chained across
//! crates: diffing, POMP/domain CLC, prediction.

use drift_lab::clocksync::{
    controlled_logical_clock, controlled_logical_clock_pomp,
    controlled_logical_clock_with_domains, domain_misalignment, ClcParams,
};
use drift_lab::prelude::*;
use drift_lab::tracefmt::diff_traces;
use drift_lab::workloads::SweepConfig;

fn sweep_cluster(seed: u64) -> Cluster {
    let shape = MachineShape::new(8, 2, 1);
    let profile = drift_lab::simclock::ClockProfile::bare(TimerKind::IntelTsc)
        .with_node_spread(150e-6, 2e-6)
        .with_horizon(10.0);
    let clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);
    Cluster::new(
        Placement::round_robin(shape, 16),
        Topology::Dragonfly { nodes_per_router: 2, routers_per_group: 2 },
        HierarchicalLatency::xeon_infiniband(),
        clocks,
        seed,
    )
}

#[test]
fn diff_clc_chain_on_a_wavefront() {
    // A Sweep3D-like wavefront on a dragonfly with skewed clocks violates
    // the clock condition; the CLC removes every violation, and the diff
    // against the raw trace counts exactly the events the CLC moved.
    let cfg = SweepConfig::small();
    let mut cluster = sweep_cluster(3);
    let raw = run(&mut cluster, &cfg.build(), &RunOptions::default()).unwrap().trace;
    let lmin = UniformLatency(Dur::from_us(4));
    assert!(!check_p2p(&raw, &match_messages(&raw), &lmin).violations.is_empty());

    let mut fixed = raw.clone();
    let rep = controlled_logical_clock(&mut fixed, &lmin, &ClcParams::default()).unwrap();
    assert!(check_p2p(&fixed, &match_messages(&fixed), &lmin).violations.is_empty());
    assert_eq!(diff_traces(&raw, &fixed).unwrap().moved(), rep.events_moved);
}

#[test]
fn domain_clc_on_simulated_cluster_respects_chip_domains() {
    // Ranks sharing a chip share a clock; the domain-aware CLC must keep
    // them rigid where the plain CLC tears them apart.
    let cfg = SweepConfig::small();
    let mut cluster = sweep_cluster(9);
    let out = run(&mut cluster, &cfg.build(), &RunOptions::default()).unwrap();
    let raw = out.trace;
    let shape = cluster.placement.shape();
    let domains: Vec<usize> = (0..16)
        .map(|r| shape.chip_of(cluster.placement.core_of(r)))
        .collect();
    let lmin = UniformLatency(Dur::from_us(4));

    let mut plain = raw.clone();
    controlled_logical_clock(&mut plain, &lmin, &ClcParams::default()).unwrap();
    let mut aware = raw.clone();
    controlled_logical_clock_with_domains(&mut aware, &lmin, &ClcParams::default(), &domains)
        .unwrap();

    let mis_plain = domain_misalignment(&raw, &plain, &domains, Dur::from_us(50));
    let mis_aware = domain_misalignment(&raw, &aware, &domains, Dur::from_us(50));
    assert!(
        mis_aware <= mis_plain,
        "domain-aware ({mis_aware:?}) should not be worse than plain ({mis_plain:?})"
    );
    // Both restore the condition.
    for t in [&plain, &aware] {
        let m = match_messages(t);
        assert!(check_p2p(t, &m, &lmin).violations.is_empty());
    }
}

#[test]
fn pomp_clc_fixes_a_full_openmp_benchmark_run() {
    let trace = drift_lab::workloads::run_benchmark(4, 150, 21);
    let regions = match_parallel_regions(&trace).unwrap();
    let before = check_pomp(&trace, &regions);
    assert!(before.any_violations > 0, "4-thread run should violate");

    let mut fixed = trace.clone();
    controlled_logical_clock_pomp(&mut fixed, Dur::from_ns(100), &ClcParams::default())
        .unwrap();
    let regions = match_parallel_regions(&fixed).unwrap();
    assert_eq!(check_pomp(&fixed, &regions).any_violations, 0);
    // The diff shows the corrections were bounded (µs scale, not wild).
    let d = diff_traces(&trace, &fixed).unwrap();
    assert!(d.moved() > 0);
    assert!(d.max_abs_shift_us() < 100.0, "shift {}", d.max_abs_shift_us());
}

#[test]
fn prediction_module_agrees_with_platform_parameters() {
    use drift_lab::clocksync::predict::WanderModel;
    let p = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, 60.0);
    let m = WanderModel { step_sigma: p.walk_step_sigma, step_s: p.walk_step_s };
    // The safe run length for the paper's inter-node latency must be in the
    // minutes range — consistent with both Fig. 6 and our Fig. 7 setups.
    let safe = drift_lab::clocksync::safe_run_length(&m, Dur::from_us_f64(4.29));
    assert!(safe > 60.0 && safe < 1800.0, "safe window {safe} s");
}
