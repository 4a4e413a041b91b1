//! Cross-crate integration: the full pipeline from clock physics through
//! simulation, tracing, probing, interpolation and CLC correction.

use drift_lab::clocksync::{
    synchronize, ClcParams, PipelineConfig, PreSync, ProbeSample,
};
use drift_lab::prelude::*;

/// Build a 8-rank Xeon-like cluster over 4 nodes with drifting clocks.
fn cluster(seed: u64, horizon_s: f64) -> Cluster {
    let shape = Platform::XeonCluster.shape(4);
    let profile = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, horizon_s);
    let clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);
    Cluster::new(
        Placement::round_robin(shape, 8),
        Topology::FatTree { leaf_radix: 16 },
        HierarchicalLatency::xeon_infiniband(),
        clocks,
        seed,
    )
}

fn ring_program(iters: u32) -> Program {
    Program::build(8, |r| {
        let next = Rank((r.0 + 1) % 8);
        let prev = Rank((r.0 + 7) % 8);
        let mut p = RankProgram::new();
        for i in 0..iters {
            p = p
                .compute_jitter(Dur::from_us(200), 0.1)
                .send(next, Tag(i), 256)
                .recv(prev, Tag(i));
            if i % 5 == 0 {
                p = p.allreduce(CommId::WORLD, 8);
            }
        }
        p
    })
}

fn lmin_of(cluster: &Cluster, n: usize) -> impl Fn(Rank, Rank) -> Dur {
    let table: Vec<Vec<Dur>> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| cluster.l_min(Rank(a as u32), Rank(b as u32), 0))
                .collect()
        })
        .collect();
    move |a: Rank, b: Rank| table[a.idx()][b.idx()]
}

#[test]
fn full_pipeline_on_probed_measurements() {
    let mut c = cluster(1, 60.0);
    // Probe offsets at init.
    let (init_sessions, t0) =
        probe_all_workers(&mut c, Rank(0), 15, Time::ZERO, Dur::from_us(100));
    let mut init = vec![None; 8];
    for s in &init_sessions {
        let rounds: Vec<ProbeSample> = s
            .rounds
            .iter()
            .map(|r| ProbeSample { t1: r.t1, t0: r.t0, t2: r.t2 })
            .collect();
        init[s.worker.idx()] = drift_lab::clocksync::estimate_offset(&rounds);
    }
    // Run the application.
    let opts = RunOptions {
        start_time: t0 + Dur::from_ms(1),
        ..RunOptions::default()
    };
    let out = run(&mut c, &ring_program(100), &opts).unwrap();
    // Probe at finalize.
    let (fin_sessions, _) = probe_all_workers(
        &mut c,
        Rank(0),
        15,
        out.stats.end_time + Dur::from_ms(1),
        Dur::from_us(100),
    );
    let mut fin = vec![None; 8];
    for s in &fin_sessions {
        let rounds: Vec<ProbeSample> = s
            .rounds
            .iter()
            .map(|r| ProbeSample { t1: r.t1, t0: r.t0, t2: r.t2 })
            .collect();
        fin[s.worker.idx()] = drift_lab::clocksync::estimate_offset(&rounds);
    }

    let lmin = lmin_of(&c, 8);
    let mut trace = out.trace;
    let report = synchronize(
        &mut trace,
        &init,
        Some(&fin),
        &lmin,
        &PipelineConfig {
            presync: PreSync::Linear,
            clc: Some(ClcParams::default()),
            ..Default::default()
        },
    )
    .unwrap();

    // Raw trace has gross violations (clock offsets are milliseconds).
    assert!(report.raw.total_violations() > 0);
    // Interpolation helps massively.
    assert!(report.after_presync.total_violations() < report.raw.total_violations() / 2);
    // The CLC clears everything.
    assert_eq!(report.after_clc.unwrap().total_violations(), 0);
    // Local order survived all corrections.
    assert!(trace.is_locally_monotone());
}

#[test]
fn codecs_round_trip_a_real_simulation_trace() {
    let mut c = cluster(3, 30.0);
    let out = run(&mut c, &ring_program(30), &RunOptions::default()).unwrap();
    let text = drift_lab::tracefmt::io::to_text(&out.trace);
    let from_text = drift_lab::tracefmt::io::from_text(&text).unwrap();
    assert_eq!(from_text.n_events(), out.trace.n_events());
    let bin = drift_lab::tracefmt::io::to_binary_columnar_v3(&out.trace);
    let from_bin = drift_lab::tracefmt::io::from_binary_columnar(bin).unwrap();
    assert_eq!(from_bin.n_events(), out.trace.n_events());
    for p in 0..8 {
        assert_eq!(out.trace.procs[p].events, from_bin.procs[p].events);
        assert_eq!(out.trace.procs[p].events, from_text.procs[p].events);
    }
}

#[test]
fn determinism_across_identical_runs() {
    let run_once = |seed: u64| {
        let mut c = cluster(seed, 30.0);
        let out = run(&mut c, &ring_program(40), &RunOptions::default()).unwrap();
        drift_lab::tracefmt::io::to_binary_columnar_v3(&out.trace)
    };
    assert_eq!(run_once(9), run_once(9), "same seed must give identical traces");
    assert_ne!(run_once(9), run_once(10), "different seeds should differ");
}

/// A timeline that receives its own *later* send has no logical order. The
/// Lamport walk used to exempt same-timeline sends from the wait and stamp
/// the receive below its send; the vector walk panicked. One walk, one
/// typed answer.
#[test]
fn receive_of_its_own_later_send_is_a_typed_cycle_for_both_logical_clocks() {
    use drift_lab::clocksync::{lamport_timestamps, vector_timestamps, ClcError};
    let recv = EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 };
    let send = EventKind::Send { to: Rank(0), tag: Tag(0), bytes: 0 };
    let mut t = Trace::for_ranks(1);
    t.procs[0].push(Time::from_us(1), recv);
    t.procs[0].push(Time::from_us(2), send);
    assert_eq!(lamport_timestamps(&t), Err(ClcError::CyclicTrace));
    assert_eq!(vector_timestamps(&t), Err(ClcError::CyclicTrace));

    // The other way round is an ordinary message.
    let mut t = Trace::for_ranks(1);
    t.procs[0].push(Time::from_us(1), send);
    t.procs[0].push(Time::from_us(2), recv);
    assert_eq!(lamport_timestamps(&t).expect("acyclic")[0], vec![1, 2]);
    let v = vector_timestamps(&t).expect("acyclic");
    assert!(v[0][0].happened_before(&v[0][1]));
}

#[test]
fn logical_clocks_agree_with_vector_clocks_on_simulated_traces() {
    let mut c = cluster(5, 30.0);
    let out = run(&mut c, &ring_program(20), &RunOptions::default()).unwrap();
    let lamport = drift_lab::clocksync::lamport_timestamps(&out.trace).expect("acyclic");
    let vectors = drift_lab::clocksync::vector_timestamps(&out.trace).expect("acyclic");
    let matching = match_messages(&out.trace);
    for m in &matching.messages {
        assert!(
            lamport[m.send.p()][m.send.i()] < lamport[m.recv.p()][m.recv.i()],
            "Lamport condition broken"
        );
        assert!(
            vectors[m.send.p()][m.send.i()]
                .happened_before(&vectors[m.recv.p()][m.recv.i()]),
            "vector-clock condition broken"
        );
    }
}

#[test]
fn partial_tracing_tolerates_unmatched_messages() {
    // Tracing switches on mid-stream: receives without sends appear. The
    // whole analysis chain (matching, checking, CLC) must cope.
    let prog = Program::build(2, |r| {
        let peer = Rank(1 - r.0);
        if r.0 == 0 {
            // Rank 0's first five sends go untraced.
            let mut p = RankProgram::new().trace_off();
            for i in 0..5u32 {
                p = p.send(peer, Tag(i), 8);
            }
            p = p.trace_on();
            for i in 5..10u32 {
                p = p.send(peer, Tag(i), 8);
            }
            p
        } else {
            let mut p = RankProgram::new();
            for i in 0..10u32 {
                p = p.recv(peer, Tag(i));
            }
            p
        }
    });
    let mut c = cluster(7, 30.0);
    let out = run(&mut c, &prog, &RunOptions::default()).unwrap();
    let m = match_messages(&out.trace);
    assert!(!m.unmatched_recvs.is_empty(), "expected dangling receives");
    // CLC still runs and leaves matched constraints satisfied.
    let lmin = lmin_of(&c, 2);
    let mut trace = out.trace;
    drift_lab::clocksync::controlled_logical_clock(&mut trace, &lmin, &ClcParams::default())
        .unwrap();
    let m = match_messages(&trace);
    let rep = check_p2p(&trace, &m, &lmin);
    assert!(rep.violations.is_empty());
}
