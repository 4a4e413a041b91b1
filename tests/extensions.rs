//! Integration tests for the beyond-the-paper extensions, chained across
//! crates: the CLC on a wavefront.

use drift_lab::clocksync::{controlled_logical_clock, ClcParams};
use drift_lab::prelude::*;
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

/// Each event's shift from `before` to `after`, µs, timeline by timeline.
fn shifts_us<'a>(before: &'a Trace, after: &'a Trace) -> impl Iterator<Item = f64> + 'a {
    let events = |t: &'a Trace| t.procs.iter().flat_map(|p| &p.events);
    events(before).zip(events(after)).map(|(b, a)| (a.time - b.time).as_us_f64())
}

#[test]
fn diff_clc_chain_on_a_wavefront() {
    // A Sweep3D-like wavefront on a dragonfly with skewed clocks violates
    // the clock condition; the CLC removes every violation, and the events
    // whose timestamps differ from the raw trace's are exactly the ones it
    // reports moved.
    let cfg = SweepConfig::small();
    let mut cluster = sweep_cluster(3);
    let raw = run(&mut cluster, &cfg.build(), &RunOptions::default()).unwrap().trace;
    let lmin = UniformLatency(Dur::from_us(4));
    assert!(!check_p2p(&raw, &match_messages(&raw), &lmin).violations.is_empty());

    let mut fixed = raw.clone();
    let rep = controlled_logical_clock(&mut fixed, &lmin, &ClcParams::default()).unwrap();
    assert!(check_p2p(&fixed, &match_messages(&fixed), &lmin).violations.is_empty());
    assert_eq!(shifts_us(&raw, &fixed).filter(|&s| s != 0.0).count(), rep.events_moved);
}
