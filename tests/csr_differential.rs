//! Differential guarantee of the CSR dependency-graph lowering: the flat
//! offsets/edges arrays built by [`DepGraph`] must encode exactly the edge
//! set implied by the reconstructed communication analysis — every matched
//! message and every collective begin→end constraint, with the correct
//! `l_min` latency, and nothing else — and the CLC must produce
//! bit-identical output whether it walks the map-based dependency
//! structure (the reference `controlled_logical_clock`, run by
//! `common::reference_synchronize`) or the CSR graph (the pipeline's serial
//! kernels and batched-ring replay). (The fixture generator lives in
//! `tests/common/mod.rs`.)

mod common;

use common::{
    assert_identical, assert_report_matches_reference, directed_latency, drifted_trace,
    drifted_zoo_trace, graph_edges, reference_edges, reference_synchronize, zoo_latencies,
};
use drift_lab::clocksync::{
    synchronize, ClcParams, DepGraph, PipelineConfig, PreSync, TraceAnalysis,
};
use drift_lab::simclock::Time;
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
    let lmin = UniformLatency(drift_lab::simclock::Dur::from_us(3));
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
