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
    let bin = drift_lab::tracefmt::io::to_binary_columnar_v3(&out.trace);
    let from_bin = drift_lab::tracefmt::io::from_binary_columnar(bin).unwrap();
    assert_eq!(from_bin.n_events(), out.trace.n_events());
    for p in 0..8 {
        assert_eq!(out.trace.procs[p].events, from_bin.procs[p].events);
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

/// A timeline that receives its own *later* send has no causal order: the
/// receive would wait for an event behind it on its own timeline. The CLC
/// answers a typed cycle, batch and windowed, and writes nothing; the other
/// order is an ordinary message.
#[test]
fn receive_of_its_own_later_send_is_a_typed_cycle_for_the_clc() {
    use drift_lab::clocksync::{
        controlled_logical_clock, synchronize_stream_incremental, ClcError, PipelineError,
    };
    let recv = EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 };
    let send = EventKind::Send { to: Rank(0), tag: Tag(0), bytes: 0 };
    let lmin = UniformLatency(Dur::from_us(4));
    let cfg = PipelineConfig {
        presync: PreSync::None,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let one_timeline = |first, second| {
        let mut t = Trace::for_ranks(1);
        t.procs[0].push(Time::from_us(1), first);
        t.procs[0].push(Time::from_us(2), second);
        t
    };
    let windowed = |t: &Trace| {
        let bytes = drift_lab::tracefmt::io::to_binary_columnar_v3(t);
        synchronize_stream_incremental(&[&bytes[..]], &[None], None, &lmin, &cfg, 64)
            .map(|(frames, _)| drift_lab::tracefmt::io::from_binary_columnar(frames.concat().into()))
    };

    let cyclic = one_timeline(recv, send);
    let mut batch = cyclic.clone();
    let err = controlled_logical_clock(&mut batch, &lmin, &ClcParams::default());
    assert_eq!(err.unwrap_err(), ClcError::CyclicTrace);
    assert_eq!(batch.procs[0].events, cyclic.procs[0].events);
    let err = windowed(&cyclic);
    assert!(matches!(err, Err(PipelineError::Clc(ClcError::CyclicTrace))), "{err:?}");

    // Send first: a message one µs long, moved out to l_min.
    let ordinary = one_timeline(send, recv);
    let mut batch = ordinary.clone();
    let rep = controlled_logical_clock(&mut batch, &lmin, &ClcParams::default()).unwrap();
    assert_eq!(rep.n_jumps(), 1);
    assert_eq!(batch.procs[0].events[1].time, Time::from_us(5));
    let streamed = windowed(&ordinary).expect("acyclic").expect("decodes");
    assert_eq!(streamed.procs[0].events, batch.procs[0].events);
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

// ------------------------------------------------- simulator fingerprints --
//
// What `mpisim::run` records, pinned: the event stream of four programs on
// one fixed drifting-clock cluster, so that a change to the scheduler that
// moves one timestamp, reorders one RNG draw or drops one wrapper event
// turns a pin red. The cluster is built here, not by the experiments'
// `traced_run`, so a change to the time compression never moves a pin.

/// One event kind as five fixed words: a code, then its fields.
fn kind_words(kind: EventKind) -> [i64; 5] {
    let root = |r: Option<Rank>| r.map_or(-1, |r| i64::from(r.0));
    match kind {
        EventKind::Enter { region } => [0, i64::from(region.0), 0, 0, 0],
        EventKind::Exit { region } => [1, i64::from(region.0), 0, 0, 0],
        EventKind::Send { to, tag, bytes } => [2, i64::from(to.0), i64::from(tag.0), bytes as i64, 0],
        EventKind::Recv { from, tag, bytes } => {
            [3, i64::from(from.0), i64::from(tag.0), bytes as i64, 0]
        }
        EventKind::CollBegin { op, comm, root: r, bytes } => {
            [4, op as i64, i64::from(comm.0), root(r), bytes as i64]
        }
        EventKind::CollEnd { op, comm, root: r, bytes } => {
            [5, op as i64, i64::from(comm.0), root(r), bytes as i64]
        }
        other => panic!("the MPI simulator records no {other:?}"),
    }
}

/// FNV-1a-64 over every (timeline, time, kind) of a trace, as
/// little-endian `i64` words.
fn simulator_fingerprint(trace: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (p, pt) in trace.procs.iter().enumerate() {
        for e in &pt.events {
            let head = [p as i64, e.time.as_ps()];
            for w in head.into_iter().chain(kind_words(e.kind)) {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn simulate(program: &Program, opts: &RunOptions) -> Trace {
    run(&mut cluster(2008, 60.0), program, opts).unwrap().trace
}

#[test]
fn simulator_pin_pop_wrapped() {
    let trace = simulate(&PopConfig::mref_like(4, 2, 300).build(), &RunOptions::default());
    assert_eq!(trace.n_events(), 2912);
    assert_eq!(simulator_fingerprint(&trace), 0x33d8_e6ef_3b06_9cc5);
}

#[test]
fn simulator_pin_smg_wrapped() {
    let trace = simulate(&SmgConfig::paper_like(8, 600).build(), &RunOptions::default());
    assert_eq!(trace.n_events(), 4080);
    assert_eq!(simulator_fingerprint(&trace), 0xdbc6_714c_87df_5708);
}

/// Table II's ping-pong: rank 0 and rank 1, no wrapper events.
#[test]
fn simulator_pin_pingpong_unwrapped() {
    let program = Program::build(2, |r| {
        let mut p = RankProgram::new();
        for i in 0..200u32 {
            p = if r.0 == 0 {
                p.send(Rank(1), Tag(i), 0).recv(Rank(1), Tag(i))
            } else {
                p.recv(Rank(0), Tag(i)).send(Rank(0), Tag(i), 0)
            };
        }
        p
    });
    let opts = RunOptions { wrap_mpi_calls: false, ..RunOptions::default() };
    let trace = simulate(&program, &opts);
    assert_eq!(trace.n_events(), 800);
    assert_eq!(simulator_fingerprint(&trace), 0xf4f9_038b_a425_e3b0);
}

/// Non-blocking traffic: a ring posted with `irecv`/`isend` and completed by
/// `wait` and `waitall`, a `recv` posted long before its send leaves (the
/// sender computes first), and a `sendrecv` ring.
#[test]
fn simulator_pin_nonblocking_mix() {
    use drift_lab::mpisim::ReqId;
    let program = Program::build(8, |r| {
        let next = Rank((r.0 + 1) % 8);
        let prev = Rank((r.0 + 7) % 8);
        let mut p = RankProgram::new();
        for i in 0..6u32 {
            p = p
                .irecv(prev, Tag(i), ReqId(0))
                .isend(next, Tag(i), 512, ReqId(1))
                .compute_jitter(Dur::from_us(50), 0.2)
                .wait(ReqId(0))
                .irecv(next, Tag(100 + i), ReqId(2))
                .isend(prev, Tag(100 + i), 64, ReqId(3))
                .waitall();
            p = if r.0 % 2 == 0 {
                p.recv(Rank(r.0 + 1), Tag(200 + i))
            } else {
                p.compute(Dur::from_us(300)).send(Rank(r.0 - 1), Tag(200 + i), 8)
            };
            p = p.sendrecv(next, Tag(300 + i), 128, prev, Tag(300 + i));
        }
        p
    });
    let trace = simulate(&program, &RunOptions::default());
    assert_eq!(trace.n_events(), 1296);
    assert_eq!(simulator_fingerprint(&trace), 0x1f4e_476e_2038_b72b);
}
