//! The simulator's truth as an adversary of the lowering and the CLC.
//!
//! Every event a simulated run records carries its true time
//! (`RunOutput::truth`, `TracedRun::truth`, `ChurnScenario::truth`). Real
//! time satisfies every constraint a trace implies: a receive completes at
//! least `l_min` after its send, a collective ends after its members began.
//! So a trace stamped with its truth must show no violation in the census,
//! hold every constraint the CLC's lowering derives, and give the CLC
//! nothing to move. The truth comes from the simulator, not from the
//! matcher or the lowering: a mis-matched message, a wrong collective
//! flavour or a wrong link fails it.
//!
//! Beside it, a property of the CLC measured against the truth: it moves
//! no event further from the truth than Eq. 3 had its worst one, plus its
//! largest jump.

use drift_lab::clocksync::DepGraph;
use drift_lab::experiments::fig7::{pop_program, smg_program, traced_run, TracedRun};
use drift_lab::experiments::survey::truth::{eq3_frame, TruthReport};
use drift_lab::prelude::*;
use drift_lab::tracefmt::{EventId, MinLatency};
use drift_lab::workloads::{churn_scenario, SweepConfig};

/// `trace` with every event stamped at its true time.
fn stamped(trace: &Trace, truth: &[Vec<Time>]) -> Trace {
    let mut t = trace.clone();
    assert_eq!(truth.len(), t.n_procs());
    for (p, times) in t.procs.iter_mut().zip(truth) {
        assert_eq!(times.len(), p.events.len());
        for (e, &at) in p.events.iter_mut().zip(times) {
            e.time = at;
        }
    }
    t
}

/// Census, lowering and CLC on the truth-stamped trace: nothing violated,
/// every lowered constraint held in both directions, nothing moved.
fn assert_truth_is_feasible(name: &str, trace: &Trace, truth: &[Vec<Time>], lmin: &dyn MinLatency) {
    let t = stamped(trace, truth);
    let matching = match_messages(&t);
    assert!(matching.is_complete(), "{name}: unmatched messages");
    let p2p = check_p2p(&t, &matching, lmin);
    assert_eq!(p2p.violations.len(), 0, "{name}: messages violated at their true times");
    let insts = match_collectives(&t).expect("well-formed collectives");
    let coll = check_collectives(&t, &insts, lmin);
    assert_eq!(coll.logical_violated, 0, "{name}: logical messages violated at their true times");
    assert!(p2p.total + coll.logical_total > 0, "{name}: nothing to check");
    let graph = DepGraph::from_trace(&t, &matching, &insts, lmin);
    let at = |id: EventId| t.procs[id.p()].events[id.i()].time;
    for (p, proc) in t.procs.iter().enumerate() {
        for i in 0..proc.len() {
            let v = EventId::new(p, i);
            for (u, lat) in graph.in_deps(v) {
                assert!(at(v) >= at(u) + lat, "{name}: lowered {u:?} -> {v:?} ({lat:?}) fails at the truth");
            }
            for (w, lat) in graph.out_deps(v) {
                assert!(at(w) >= at(v) + lat, "{name}: lowered {v:?} -> {w:?} ({lat:?}) fails at the truth");
            }
        }
    }
    let mut fixed = t.clone();
    let rep = controlled_logical_clock(&mut fixed, lmin, &ClcParams::default()).expect("acyclic");
    assert_eq!(rep.events_moved, 0, "{name}: the CLC moved events off their true times");
}

fn pop() -> TracedRun {
    let (program, duration, compression) = pop_program(20);
    traced_run(&program, duration, compression, 2008)
}

fn smg() -> TracedRun {
    let (program, duration, compression) = smg_program(90);
    traced_run(&program, duration, compression, 2008)
}

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

/// Every collective flavour, rooted ones off rank 0, over unbalanced
/// ranks: the rooted and prefix rules are where a wrong member row shows.
fn flavours() -> Program {
    let rooted = [
        (CollOp::Reduce, Some(Rank(0))),
        (CollOp::Bcast, Some(Rank(5))),
        (CollOp::Gather, Some(Rank(3))),
        (CollOp::Scatter, Some(Rank(0))),
        (CollOp::Scan, None),
        (CollOp::Allreduce, None),
        (CollOp::Barrier, None),
    ];
    Program::build(16, |r| {
        let mut p = RankProgram::new();
        for round in 0..4u64 {
            for (op, root) in rooted {
                let wait = Dur::from_us(1 + ((r.0 as i64 * 7 + round as i64 * 3) % 16) * 5);
                p = p.compute_jitter(wait, 0.3).coll(op, CommId::WORLD, root, 64);
            }
        }
        p
    })
}

#[test]
fn traces_stamped_with_their_truth_are_feasible() {
    for (name, run) in [("POP", pop()), ("SMG", smg())] {
        assert_truth_is_feasible(name, &run.trace, &run.truth, &run.cluster.l_min_model());
    }

    let mut cluster = sweep_cluster(3);
    let out = run(&mut cluster, &SweepConfig::small().build(), &RunOptions::default()).unwrap();
    assert_truth_is_feasible("sweep", &out.trace, &out.truth, &cluster.l_min_model());

    let mut cluster = sweep_cluster(5);
    let out = run(&mut cluster, &flavours(), &RunOptions::default()).unwrap();
    assert_truth_is_feasible("collective flavours", &out.trace, &out.truth, &cluster.l_min_model());

    let churn = churn_scenario(NetworkConfig::default(), 2_000, 2008);
    assert_truth_is_feasible("churn", &churn.trace, &churn.truth, &churn.lmin);
}

#[test]
fn the_clc_stays_within_its_largest_jump_of_eq3_against_truth() {
    for (name, run) in [("POP", pop()), ("SMG", smg())] {
        let (truth, bound) = eq3_frame(&run);
        let lmin = run.cluster.l_min_model();
        let correct = |clc: Option<ClcParams>| {
            let mut t = run.trace.clone();
            let cfg = PipelineConfig { presync: PreSync::Linear, clc, ..Default::default() };
            let rep = synchronize(&mut t, &run.init, Some(&run.fin), &lmin, &cfg).unwrap();
            (t, rep)
        };
        let (eq3, _) = correct(None);
        let (clc, rep) = correct(Some(ClcParams::default()));
        let max_jump = rep.clc.expect("the CLC ran").max_jump.as_us_f64();
        let before = TruthReport::new(&run.trace, &eq3, &truth, bound);
        let after = TruthReport::new(&eq3, &clc, &truth, bound);
        assert!(
            after.max_abs_us <= before.max_abs_us + max_jump,
            "{name}: CLC max |error| {} us over Eq. 3's {} us + max jump {max_jump} us",
            after.max_abs_us,
            before.max_abs_us
        );
        assert!(after.moved_closer + after.moved_further > 0, "{name}: the CLC moved nothing");
    }
}
