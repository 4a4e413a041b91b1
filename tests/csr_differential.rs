//! Differential guarantee of the CSR dependency-graph lowering: the flat
//! offsets/edges arrays built by [`DepGraph`] must encode exactly the edge
//! set implied by the reconstructed communication analysis — every matched
//! message and every collective begin→end constraint, with the correct
//! `l_min` latency, and nothing else — and the CLC must produce
//! bit-identical output whether it walks the map-based dependency
//! structure (the oracle of `tests/common/clc_reference.rs`, run by
//! `common::reference_synchronize`) or the CSR graph: the kernel inside the
//! pipeline, and the same kernel behind the public
//! `controlled_logical_clock` lowering. (The fixture
//! generators live in `tests/common/mod.rs`.)

mod common;

use common::{
    assert_adapter_matches_oracle, assert_identical, assert_report_matches_reference,
    assert_windowed_matches_oracle,
    clc_reference, directed_latency, drifted_trace, drifted_zoo_trace,
    graph_edges, mixed_trace, reference_edges, reference_synchronize, run_windowed_clc,
    zoo_latencies,
};
use drift_lab::clocksync::{
    controlled_logical_clock, synchronize, ClcError, ClcParams, DepGraph, PipelineConfig, PreSync,
    TraceAnalysis,
};
use drift_lab::simclock::{Dur, Time};
use drift_lab::tracefmt::{
    check_collectives_at, CensusPlan, CollOp, CommId, EventKind, Location, MinLatency,
    ProcessTrace, Rank, ThreadId, Trace, TraceColumns, UniformLatency,
};

// ----------------------------------------------------------------- tests --

/// CSR lowering vs the analysis-implied edge set, across drift models and
/// trace sizes: no dropped edges, no phantom edges, correct latencies, and
/// the in-edge and out-edge views agree with each other.
#[test]
fn csr_edge_set_matches_analysis_across_models() {
    let sizes: &[(usize, usize)] = &[(3, 80), (5, 500), (8, 1500)];
    let models = ["constant", "sinusoid", "randomwalk"];
    for (si, &(procs, msgs)) in sizes.iter().enumerate() {
        for (mi, model) in models.iter().enumerate() {
            let seed = 4000 + (si * 10 + mi) as u64;
            let (trace, _, _, lmin) = drifted_trace(procs, msgs, model, seed);
            let ctx = format!("{procs}p/{msgs}m {model}");
            let analysis = TraceAnalysis::capture(&trace).expect("well-formed trace");
            let graph =
                DepGraph::from_trace(&trace, &analysis.matching, &analysis.instances, &lmin);
            let want = reference_edges(&analysis, &lmin);
            let (via_in, via_out) = graph_edges(&trace, &graph);
            assert_eq!(via_in, want, "{ctx}: in-edge view diverges from analysis");
            assert_eq!(via_out, want, "{ctx}: out-edge view diverges from analysis");
            assert_eq!(graph.n_edges(), want.len(), "{ctx}: edge count");
        }
    }
}

/// Every collective flavour lowers correctly: a hand-built trace with one
/// instance of each data-flow class (1-to-N, N-to-1, N-to-N, prefix).
#[test]
fn csr_lowers_every_collective_flavour() {
    let procs = 4;
    let mut t = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    let ops = [
        (CollOp::Bcast, Some(Rank(1))),
        (CollOp::Reduce, Some(Rank(2))),
        (CollOp::Allreduce, None),
        (CollOp::Scan, None),
    ];
    for (op, root) in ops {
        for (p, t_p) in now.iter_mut().enumerate() {
            *t_p += 10 + p as i64;
            t.procs[p].push(
                Time::from_us(*t_p),
                EventKind::CollBegin { op, comm: CommId::WORLD, root, bytes: 8 },
            );
            *t_p += 5;
            t.procs[p].push(
                Time::from_us(*t_p),
                EventKind::CollEnd { op, comm: CommId::WORLD, root, bytes: 8 },
            );
        }
    }
    let lmin = UniformLatency(Dur::from_us(3));
    let analysis = TraceAnalysis::capture(&t).expect("well-formed trace");
    let graph = DepGraph::from_trace(&t, &analysis.matching, &analysis.instances, &lmin);
    let want = reference_edges(&analysis, &lmin);
    let (via_in, via_out) = graph_edges(&t, &graph);
    assert_eq!(via_in, want);
    assert_eq!(via_out, want);
    // Flavour arithmetic over 4 members: Bcast 3 + Reduce 3 + Allreduce
    // 4·3 + Scan (0+1+2+3) edges.
    assert_eq!(graph.n_edges(), 3 + 3 + 12 + 6);
}

/// The CLC excludes a member's own begin by *position*, the census
/// excludes pairs of equal *rank*; the two read one member table and must
/// not borrow each other's rule. Three timelines, two of them threads of
/// rank 1, in one communicator: a barrier is 3·2 = 6 edges for the CLC
/// (each end waits on both other begins, the same-rank one included) but
/// 4 logical messages for the census (the 1↔1 pairs are no messages), and
/// a broadcast from rank 1 — rooted at its first holder — is 2 edges but
/// 1 logical message.
#[test]
fn shared_rank_timelines_keep_position_and_rank_rules_apart() {
    let mut t = Trace {
        procs: [(0, 0), (1, 0), (1, 1)]
            .map(|(rank, thread)| {
                ProcessTrace::new(Location { rank: Rank(rank), thread: ThreadId(thread) })
            })
            .into(),
    };
    for (round, (op, root)) in
        [(CollOp::Barrier, None), (CollOp::Bcast, Some(Rank(1))), (CollOp::Reduce, Some(Rank(1)))]
            .into_iter()
            .enumerate()
    {
        for p in 0..3 {
            let at = 100 * round as i64 + 7 * p as i64;
            t.procs[p].push(
                Time::from_us(at),
                EventKind::CollBegin { op, comm: CommId::WORLD, root, bytes: 8 },
            );
            t.procs[p].push(
                Time::from_us(at + 2),
                EventKind::CollEnd { op, comm: CommId::WORLD, root, bytes: 8 },
            );
        }
    }
    let lmin = directed_latency(3);
    let analysis = TraceAnalysis::capture(&t).expect("well-formed trace");

    // Position rule, against the edge oracle.
    let graph = DepGraph::from_trace(&t, &analysis.matching, &analysis.instances, &lmin);
    let want = reference_edges(&analysis, &lmin);
    let (via_in, via_out) = graph_edges(&t, &graph);
    assert_eq!(via_in, want);
    assert_eq!(via_out, want);
    assert_eq!(graph.n_edges(), 6 + 2 + 2);

    // Rank rule, against the reference check.
    let cols = TraceColumns::gather(&t);
    let plan = CensusPlan::for_columns(&cols, &[], &analysis.instances, &lmin).expect("plan");
    let got = plan.collective_census(plan.flat_of(&cols));
    let reference = check_collectives_at(&cols, &analysis.instances, &lmin);
    assert_eq!(got.logical_total, 4 + 1 + 1);
    assert_eq!(got.logical_total, reference.logical_total);
    assert_eq!(got.logical_violated, reference.logical_violated);
    assert_eq!(got.logical_reversed, reference.logical_reversed);
    assert_eq!(got.instances_affected, reference.instances_affected);
    assert!(reference.logical_violated > 0, "the fixture should violate");
    assert_ne!(graph.n_edges(), got.logical_total, "the two rules must differ here");
}

/// The CLC is bit-identical through the map-based reference (the oracle)
/// and the pipeline's CSR kernels over the full drift-model × PreSync
/// matrix, and again on the collective zoo under a direction-dependent
/// latency model.
#[test]
fn clc_is_bit_identical_through_maps_and_csr() {
    let models = ["constant", "sinusoid", "randomwalk"];
    let presyncs = [PreSync::None, PreSync::AlignOnly, PreSync::Linear];
    let mut legs = 0usize;
    for (mi, model) in models.iter().enumerate() {
        let (base, init, fin, lmin) = drifted_trace(6, 700, model, 7000 + mi as u64);
        for presync in presyncs {
            let ctx = format!("{model} {presync:?}");
            let cfg = PipelineConfig {
                presync,
                clc: Some(ClcParams::default()),
                ..PipelineConfig::default()
            };
            let mut ref_trace = base.clone();
            let reference = reference_synchronize(&mut ref_trace, &init, Some(&fin), &lmin, &cfg);
            let mut t = base.clone();
            let rep = synchronize(&mut t, &init, Some(&fin), &lmin, &cfg)
                .unwrap_or_else(|e| panic!("{ctx}: pipeline failed: {e}"));
            assert_identical(&ref_trace, &t, &ctx);
            assert_report_matches_reference(&reference, &rep, &ctx);
            legs += 1;
        }
    }
    // The zoo legs: all four flavours, rotating roots, overlapping
    // communicators, a shared rank, an empty timeline — under a latency
    // model that is nowhere symmetric (a transposed or misplaced latency
    // block moves jumps and censuses; no class table, every N-to-N end
    // walks its view) and under a node/switch tree (class tables, N-to-N
    // ends evaluated in aggregate).
    for (li, (lname, lmin)) in zoo_latencies().iter().enumerate() {
        let lmin: &dyn MinLatency = &**lmin;
        let (base, init, fin) = drifted_zoo_trace(6, 600, "sinusoid", 7100 + li as u64, lmin);
        let analysis = TraceAnalysis::capture(&base).expect("well-formed trace");
        let graph = DepGraph::from_trace(&base, &analysis.matching, &analysis.instances, lmin);
        let classed = graph.coll_table().instances().filter(|i| i.block.classes().is_some()).count();
        match *lname {
            "tree" => assert_eq!(classed, analysis.instances.len(), "every block is classed"),
            // Two timelines of one rank are one class; the sub-communicator
            // of distinct ranks has none.
            _ => assert!(classed < analysis.instances.len(), "a block must stay unclassed"),
        }
        for presync in presyncs {
            let ctx = format!("zoo/{lname} {presync:?}");
            let cfg = PipelineConfig {
                presync,
                clc: Some(ClcParams::default()),
                ..PipelineConfig::default()
            };
            let mut ref_trace = base.clone();
            let reference = reference_synchronize(&mut ref_trace, &init, Some(&fin), lmin, &cfg);
            let (raw, .., clc) = &reference;
            assert!(raw.coll.logical_violated > 0, "{ctx}: nothing to census");
            assert!(clc.as_ref().is_some_and(|c| c.n_jumps() > 0), "{ctx}: nothing to fix");
            let mut t = base.clone();
            let rep = synchronize(&mut t, &init, Some(&fin), lmin, &cfg)
                .unwrap_or_else(|e| panic!("{ctx}: pipeline failed: {e}"));
            assert_identical(&ref_trace, &t, &ctx);
            assert_report_matches_reference(&reference, &rep, &ctx);
            // The kernel finds the jumps in the reference's order,
            // aggregated ends or not.
            let order = |c: &drift_lab::clocksync::ClcReport| {
                c.jumps.iter().map(|j| (j.event, j.size)).collect::<Vec<_>>()
            };
            assert_eq!(rep.clc.as_ref().map(order), clc.as_ref().map(order), "{ctx}: jump order");
            legs += 1;
        }
    }
    let floor = (models.len() + 2) * presyncs.len();
    assert!(legs >= floor, "CLC matrix ran only {legs} legs (expected {floor})");
}

// ------------------------------------- the kernel against the map oracle --
//
// `controlled_logical_clock` is match → lower → CSR kernel → scatter; the
// oracle is the map walker of `common::clc_reference`. These ran inside
// `clocksync` while it shipped both.

/// Ranks on nodes of `node`, nodes under switches of `switch` ranks; between
/// switches the latency depends on the direction. Longer than the fixtures'
/// collectives last, so an end bounded by its *own* begin would jump.
fn tree_latency(node: u32, switch: u32) -> impl Fn(Rank, Rank) -> Dur {
    move |from, to| {
        let (a, b) = (from.0, to.0);
        Dur::from_us(match (a / node == b / node, a / switch == b / switch) {
            (true, _) => 25,
            (_, true) => 50,
            _ => 90 + i64::from(a / switch > b / switch),
        })
    }
}

const LMIN_4US: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

#[test]
fn adapter_matches_the_oracle_on_mixed_traces() {
    for (procs, rounds) in [(2, 8), (5, 17), (8, 25)] {
        let base = mixed_trace(procs, rounds);
        let ctx = format!("{procs}x{rounds}");
        let rep = assert_adapter_matches_oracle(&base, &LMIN_4US, &ClcParams::default(), &ctx);
        assert!(rep.expect("mixed traces are acyclic").n_jumps() > 0, "{ctx}: nothing to correct");
    }
}

#[test]
fn adapter_matches_the_oracle_forward_only() {
    let params = ClcParams { backward: false, ..ClcParams::default() };
    assert_adapter_matches_oracle(&mixed_trace(4, 12), &LMIN_4US, &params, "4x12 forward only")
        .expect("acyclic");
}

/// Timestamps pinned to the `i64` edges: the remote bound, the
/// amortized-gap arithmetic and the backward-window extrapolation all
/// overflow plain `i64` ops here. Both engines saturate, and agree — and so
/// does the windowed engine, fed the same trace as a `DTC3` stream.
#[test]
fn i64_edge_timestamps_do_not_panic_and_engines_agree() {
    use drift_lab::tracefmt::{RegionId, Tag};
    let enter = EventKind::Enter { region: RegionId(0) };
    let mut t = Trace::for_ranks(2);
    t.procs[0].push(Time::from_ps(i64::MIN + 3), enter);
    t.procs[0].push(Time::from_ps(i64::MAX - 2), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
    t.procs[1].push(Time::from_ps(i64::MIN), enter);
    t.procs[1].push(
        Time::from_ps(i64::MIN + 10),
        EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 },
    );
    t.procs[1].push(Time::from_ps(i64::MAX - 1), EventKind::Exit { region: RegionId(0) });
    let rep = assert_adapter_matches_oracle(&t, &LMIN_4US, &ClcParams::default(), "i64 edges");
    assert_eq!(rep.expect("acyclic").n_jumps(), 1);
    assert_windowed_matches_oracle(&t, &LMIN_4US, &ClcParams::default(), "i64 edges");
}

/// A trace without a message gives the CLC nothing to correct, however
/// far its timelines span: a gap of 2⁵³ + 3 ps (the double 2⁵³ + 4, which
/// a closing μ = 1 pass's `Dur::scale(1.0)` rounded up by 1 ps) and a
/// region from `i64::MIN` to `i64::MAX`. The batch kernel, the reference
/// and the windowed engine leave every time as it is.
#[test]
fn a_trace_without_messages_is_left_as_it_is_at_any_span() {
    use drift_lab::tracefmt::RegionId;
    let region = |enter: i64, exit: i64| {
        let mut t = Trace::for_ranks(1);
        t.procs[0].push(Time::from_ps(enter), EventKind::Enter { region: RegionId(0) });
        t.procs[0].push(Time::from_ps(exit), EventKind::Exit { region: RegionId(0) });
        t
    };
    let cases = [("2^53 + 3 ps gap", region(0, (1 << 53) + 3)), ("i64::MIN to i64::MAX", region(i64::MIN, i64::MAX))];
    let params = ClcParams::default();
    for (name, t) in cases {
        let rep = assert_adapter_matches_oracle(&t, &LMIN_4US, &params, name).expect("acyclic");
        assert_eq!((rep.n_jumps(), rep.events_moved), (0, 0), "{name}");
        for window in [1, 2] {
            let (back, wrep) = run_windowed_clc(&t, &LMIN_4US, &params, window, name);
            assert_eq!(wrep.events_moved, 0, "{name}, window {window}");
            assert_identical(&t, &back, &format!("{name}, window {window}"));
        }
    }
}

/// A remote bound equal to the local candidate is no jump: a receive
/// recorded exactly `l_min` after its send stays where it is and is not
/// reported.
#[test]
fn a_tie_is_not_a_jump() {
    use drift_lab::tracefmt::Tag;
    let mut t = Trace::for_ranks(2);
    t.procs[0].push(Time::from_us(10), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
    t.procs[1].push(Time::from_us(14), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
    let rep = assert_adapter_matches_oracle(&t, &LMIN_4US, &ClcParams::default(), "tie").expect("acyclic");
    assert_eq!((rep.n_jumps(), rep.events_moved), (0, 0));
}

/// Every allreduce of these cases is evaluated in aggregate by the kernel
/// (the in-crate twin of this test compares that against the view walk);
/// the oracle dispatches each end over `deps_of_end`.
#[test]
fn aggregated_ends_equal_the_reference() {
    let flat = |_: Rank, _: Rank| Dur::from_us(40);
    let cases: [(usize, usize, &dyn MinLatency); 4] = [
        (2, 9, &flat),
        (6, 21, &tree_latency(2, 4)),
        (9, 30, &tree_latency(3, 6)),
        (24, 13, &tree_latency(4, 8)),
    ];
    for (procs, rounds, lmin) in cases {
        let base = mixed_trace(procs, rounds);
        let analysis = TraceAnalysis::capture(&base).expect("well-formed trace");
        let graph = DepGraph::from_trace(&base, &analysis.matching, &analysis.instances, lmin);
        let classed = graph.coll_table().instances().filter(|i| i.block.classes().is_some()).count();
        assert_eq!(classed, analysis.instances.len(), "{procs}x{rounds}: every allreduce is classed");
        for backward in [true, false] {
            let params = ClcParams { backward, ..ClcParams::default() };
            let ctx = format!("{procs}x{rounds} backward {backward}");
            let rep = assert_adapter_matches_oracle(&base, lmin, &params, &ctx).expect("acyclic");
            assert!(rep.n_jumps() > 0, "{ctx}: nothing to correct");
        }
    }
}

/// An allreduce over one timeline per entry of `begins`, each end
/// `after[p]` behind its begin (saturating), then on timeline 0 a receive
/// 1 µs after its end of a send the last timeline makes `late` after its
/// own: a jump whose backward walk reaches timeline 0's begin.
fn allreduce_then_late_send(begins: &[i64], after: &[i64], late: i64) -> Trace {
    use drift_lab::tracefmt::Tag;
    let (op, comm, root, bytes) = (CollOp::Allreduce, CommId::WORLD, None, 0);
    let last = begins.len() - 1;
    let mut t = Trace::for_ranks(begins.len());
    for (p, (&at, &after)) in begins.iter().zip(after).enumerate() {
        t.procs[p].push(Time::from_ps(at), EventKind::CollBegin { op, comm, root, bytes });
        let end = Time::from_ps(at.saturating_add(after));
        t.procs[p].push(end, EventKind::CollEnd { op, comm, root, bytes });
    }
    let end = |t: &Trace, p: usize| t.procs[p].events[1].time;
    let sent = end(&t, last).saturating_add(Dur::from_ps(late));
    t.procs[last].push(sent, EventKind::Send { to: Rank(0), tag: Tag(0), bytes });
    let received = end(&t, 0).saturating_add(Dur::from_us(1));
    t.procs[0].push(received, EventKind::Recv { from: Rank(last as u32), tag: Tag(0), bytes });
    t
}

/// The backward pass caps a classed allreduce's begins in aggregate, from
/// each class's two lowest ends: against the oracle's walk over every end
/// on ties at a class minimum, on a begin whose own end is its class's
/// unique lowest (it may move up to the next one), and with ends at both
/// `i64` edges, where the caps saturate.
#[test]
fn aggregated_begin_caps_equal_the_reference() {
    let flat = |_: Rank, _: Rank| Dur::from_us(40);
    let us = |v: i64| v * 1_000_000;
    let near = i64::MAX / 100;
    let edges = [i64::MIN + 1, i64::MIN + near, i64::MAX - near, i64::MAX - 3, 17];
    let staggered = [us(500), us(600), us(700), us(800), us(900)];
    let tree = tree_latency(2, 4);
    let cases: [(Trace, &dyn MinLatency, &str); 4] = [
        (allreduce_then_late_send(&[0; 4], &[us(500); 4], us(20_000)), &flat, "tied ends"),
        (allreduce_then_late_send(&[0; 4], &staggered[..4], us(20_000)), &flat, "own end lowest"),
        // Nodes {0, 1}, {2, 3} and {4}: three classes, one of one member.
        (allreduce_then_late_send(&[0; 5], &staggered, us(20_000)), &tree, "a lone class"),
        (allreduce_then_late_send(&edges, &[5, us(30), 5, us(30), 5], 0), &tree, "i64 edges"),
    ];
    for (t, lmin, ctx) in &cases {
        let rep = assert_adapter_matches_oracle(t, *lmin, &ClcParams::default(), ctx).expect("acyclic");
        assert!(rep.n_jumps() > 0, "{ctx}: nothing to correct");
        assert_windowed_matches_oracle(t, *lmin, &ClcParams::default(), ctx);
    }
}

/// Collective begins within 1 % of the `i64` edges: the class maximum plus
/// latency saturates exactly where the oracle's per-edge terms do; the
/// windowed engine walks the same ends' views and must land there too.
#[test]
fn aggregated_ends_saturate_like_the_reference() {
    let near = i64::MAX / 100;
    let begins = [i64::MAX - 3, i64::MIN + near, i64::MAX - near, i64::MIN + 1, 17];
    let mut t = Trace::for_ranks(begins.len());
    for (p, &at) in begins.iter().enumerate() {
        let (op, comm, root) = (CollOp::Alltoall, CommId::WORLD, None);
        t.procs[p].push(Time::from_ps(at), EventKind::CollBegin { op, comm, root, bytes: 0 });
        t.procs[p].push(
            Time::from_ps(at.saturating_add(5)),
            EventKind::CollEnd { op, comm, root, bytes: 0 },
        );
    }
    let lmin = tree_latency(2, 4);
    for backward in [true, false] {
        let params = ClcParams { backward, ..ClcParams::default() };
        assert_adapter_matches_oracle(&t, &lmin, &params, "i64 edges").expect("acyclic");
        assert_windowed_matches_oracle(&t, &lmin, &params, "i64 edges");
        let mut fixed = t.clone();
        controlled_logical_clock(&mut fixed, &lmin, &params).expect("acyclic");
        assert_eq!(fixed.procs[4].events[1].time, Time::MAX, "the late begins saturate the early end");
    }
}

/// A cycle is the same error from both; the adapter's trace comes back
/// untouched (asserted by the helper), the oracle's half-corrected.
#[test]
fn cyclic_trace_is_the_same_error_from_adapter_and_oracle() {
    use drift_lab::tracefmt::Tag;
    let send = |to, tag| EventKind::Send { to: Rank(to), tag: Tag(tag), bytes: 0 };
    let recv = |from, tag| EventKind::Recv { from: Rank(from), tag: Tag(tag), bytes: 0 };
    let mut t = Trace::for_ranks(2);
    for (p, at, kind) in [
        (0, 100, send(1, 0)),
        (0, 110, recv(1, 1)),
        (0, 120, send(1, 2)),
        (1, 50, recv(0, 0)),
        (1, 60, recv(0, 2)),
        (1, 70, send(0, 1)),
    ] {
        t.procs[p].push(Time::from_us(at), kind);
    }
    let err = assert_adapter_matches_oracle(&t, &LMIN_4US, &ClcParams::default(), "cycle");
    assert_eq!(err.unwrap_err(), ClcError::CyclicTrace);
}

/// The graph's public views against the edges the oracle's dependency maps
/// imply: each receive's message edge plus each collective end's
/// `deps_of_end` begins — in-edge view, out-edge view and edge count.
#[test]
fn csr_edges_match_deps_reference() {
    use std::collections::BTreeSet;
    for (procs, rounds) in [(2, 5), (4, 12), (7, 21)] {
        let t = mixed_trace(procs, rounds);
        let analysis = TraceAnalysis::capture(&t).expect("well-formed trace");
        let graph = DepGraph::from_trace(&t, &analysis.matching, &analysis.instances, &LMIN_4US);
        let deps = clc_reference::deps_from_parts(&analysis.matching, &analysis.instances);
        let rank_of = |id: drift_lab::tracefmt::EventId| t.procs[id.p()].location.rank;
        let mut want: BTreeSet<common::Edge> = BTreeSet::new();
        for (&recv, &(send, from)) in &deps.send_of {
            let lat = LMIN_4US.l_min(from, rank_of(recv)).as_ps();
            want.insert((send.proc, send.idx, recv.proc, recv.idx, lat));
        }
        for (&end, &(inst, pos)) in &deps.end_info {
            let inst = &deps.insts[inst];
            for j in inst.deps_of_end(pos) {
                let (jrank, jbegin, _) = inst.members[j];
                let lat = LMIN_4US.l_min(jrank, rank_of(end)).as_ps();
                want.insert((jbegin.proc, jbegin.idx, end.proc, end.idx, lat));
            }
        }
        let (via_in, via_out) = graph_edges(&t, &graph);
        assert_eq!(via_in, want, "{procs}x{rounds} in-edge set");
        assert_eq!(via_out, want, "{procs}x{rounds} out-edge set");
        assert_eq!(graph.n_edges(), want.len());
    }
}

/// `pop_batch`'s own input (the benchmark's seed-2008 POP run, linearly
/// presynced; 166 400 events) under the three parameter sets the callers
/// outside the pipeline use.
#[test]
fn adapter_matches_the_oracle_on_the_pop_batch_input() {
    use drift_lab::clocksync::{apply_maps, LinearInterpolation, TimestampMap};
    use drift_lab::experiments::fig7::{pop_program, traced_run};
    // `benchmark/src/workloads.rs::derive(2008, 1)`.
    let seed = {
        let golden = 0x9E37_79B9_7F4A_7C15u64;
        let mut z = (2008 ^ golden).wrapping_add(golden);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (program, duration, compression) = pop_program(20);
    let run = traced_run(&program, duration, compression, seed);
    let cluster = &run.cluster;
    let lmin = |a: Rank, b: Rank| cluster.l_min(a, b, 0);
    let maps: Vec<Box<dyn TimestampMap>> = run
        .init
        .iter()
        .zip(&run.fin)
        .map(|pair| -> Box<dyn TimestampMap> {
            match pair {
                (Some(a), Some(b)) => Box::new(LinearInterpolation::new(a, b)),
                _ => Box::new(drift_lab::clocksync::IdentityMap),
            }
        })
        .collect();
    let mut presynced = run.trace;
    apply_maps(&mut presynced, &maps);
    assert_eq!(presynced.n_events(), 166_400);
    // 8 407 is also the benchmark's `clc.jumps` for this workload.
    for (name, params, jumps) in [
        ("default", ClcParams::default(), 8_407),
        ("forward only", ClcParams { backward: false, ..ClcParams::default() }, 8_407),
        ("mu 1", ClcParams { mu: 1.0, ..ClcParams::default() }, 935),
    ] {
        let rep = assert_adapter_matches_oracle(&presynced, &lmin, &params, name).expect("acyclic");
        assert_eq!(rep.n_jumps(), jumps, "{name}");
    }
}
