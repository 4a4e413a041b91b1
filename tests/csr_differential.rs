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
    assert_identical, assert_report_matches_reference, drifted_trace, graph_edges,
    reference_edges, reference_synchronize,
};
use drift_lab::clocksync::{
    synchronize, ClcParams, DepGraph, ParallelConfig, PipelineConfig, PreSync, TraceAnalysis,
};
use drift_lab::simclock::Time;
use drift_lab::tracefmt::{CollOp, CommId, EventKind, Rank, Trace, UniformLatency};

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
            assert!(graph.local_cycle().is_none(), "{ctx}: spurious cycle");
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

/// The CLC is bit-identical through the map-based reference (the oracle)
/// and every CSR-backed path of the pipeline — serial kernels and replay —
/// over the full drift-model × PreSync × workers matrix.
#[test]
fn clc_is_bit_identical_through_maps_and_csr() {
    let models = ["constant", "sinusoid", "randomwalk"];
    let presyncs = [PreSync::None, PreSync::AlignOnly, PreSync::Linear];
    let worker_counts = [None, Some(1usize), Some(2), Some(4)];
    let mut legs = 0usize;
    for (mi, model) in models.iter().enumerate() {
        let (base, init, fin, lmin) = drifted_trace(6, 700, model, 7000 + mi as u64);
        for presync in presyncs {
            let seq = PipelineConfig {
                presync,
                clc: Some(ClcParams::default()),
                ..PipelineConfig::default()
            };
            let mut ref_trace = base.clone();
            let reference = reference_synchronize(&mut ref_trace, &init, Some(&fin), &lmin, &seq);
            for workers in worker_counts {
                let ctx = format!("{model} {presync:?} workers={workers:?}");
                let cfg = PipelineConfig {
                    parallel: workers.map(|w| ParallelConfig { workers: w, shard_size: 64 }),
                    ..seq.clone()
                };
                let mut t = base.clone();
                let rep = synchronize(&mut t, &init, Some(&fin), &lmin, &cfg)
                    .unwrap_or_else(|e| panic!("{ctx}: pipeline failed: {e}"));
                assert_identical(&ref_trace, &t, &ctx);
                assert_report_matches_reference(&reference, &rep, &ctx);
                legs += 1;
            }
        }
    }
    let floor = models.len() * presyncs.len() * worker_counts.len();
    assert!(legs >= floor, "CLC matrix ran only {legs} legs (expected {floor})");
}
