//! Property-based round-trip guarantees for the dependency-graph lowering
//! and its census twin: over random traces — including traces rebuilt from
//! chunked *and truncated* streamed ingest — every edge the communication
//! analysis implies must come back out of the graph's views with its
//! correct `l_min` latency, no phantom edge may appear, the logical edge
//! count must be the one the edge set implies, and the plan-based
//! collective census must report what the reference check reports.
//!
//! Two trace families: world collectives of one flavour under a uniform
//! latency (where a truncated stream still analyses), and the collective
//! zoo of `tests/common` — all four flavours with rotating roots on three
//! overlapping communicators, two timelines sharing a rank, an empty
//! timeline — under a per-pair latency model that is nowhere symmetric, so
//! a transposed latency block or a block taken from the wrong communicator
//! cannot hide.

mod common;

use common::{
    arb_skewed_trace, arb_skewed_trace_with_barriers, assert_adapter_matches_oracle,
    assert_identical, collective_zoo_trace, directed_latency, graph_edges, hierarchical_latency,
    reference_edges, reference_synchronize, run_windowed_clc,
};
use drift_lab::clocksync::{ClcParams, ClcReport, DepGraph, PipelineConfig, PreSync, TraceAnalysis};
use drift_lab::prelude::*;
use drift_lab::tracefmt::io::{
    decode_indexed, index_columnar_chunks, to_binary_columnar_v3, BlockMeta, ChunkStore,
    StreamIndex,
};
use drift_lab::tracefmt::{check_collectives_at, CensusPlan, CollOp, MinLatency, ProcessTrace, TraceColumns};
use proptest::prelude::*;

/// `index` cut back to the block frames that end at or before byte `cut`,
/// and to the timelines they carry: what a reader of a stream truncated
/// there could decode. Timelines are numbered in first-seen order, so
/// those are a prefix of the locations.
fn arrived_by(index: &StreamIndex, cut: u64) -> StreamIndex {
    let arrived = |b: &&BlockMeta| b.payload_off + u64::from(b.payload_len) <= cut;
    let blocks: Vec<BlockMeta> = index.blocks.iter().take_while(arrived).copied().collect();
    let n = blocks.iter().map(|b| b.timeline as usize + 1).max().unwrap_or(0);
    let (mut proc_blocks, mut proc_lens) = (vec![Vec::new(); n], vec![0; n]);
    for (k, b) in blocks.iter().enumerate() {
        proc_blocks[b.timeline as usize].push(k as u32);
        proc_lens[b.timeline as usize] += u64::from(b.n_events);
    }
    let locations = index.locations[..n].to_vec();
    StreamIndex { locations, blocks, proc_blocks, proc_lens, total_bytes: cut }
}

// ------------------------------------------------------------ strategies --

/// A random causally valid trace mixing point-to-point rounds with
/// occasional world collectives of every data-flow flavour, recorded
/// through per-process clock skews.
fn arb_mixed_trace() -> impl Strategy<Value = (Trace, i64)> {
    (
        2usize..6,
        4usize..30,
        prop::collection::vec(-200i64..200, 6),
        1i64..15,
        0usize..5,
    )
        .prop_map(|(procs, rounds, skews, lmin_us, coll_kind)| {
            let mut trace = Trace::for_ranks(procs);
            let mut now = vec![0i64; procs];
            for m in 0..rounds {
                let from = m % procs;
                let to = (m * 5 + 1) % procs;
                if from != to {
                    let send_true = now[from] + 8 + (m as i64 * 11) % 40;
                    now[from] = send_true;
                    let recv_true = send_true.max(now[to]) + lmin_us + (m as i64 * 3) % 25;
                    now[to] = recv_true;
                    trace.procs[from].push(
                        Time::from_us(send_true + skews[from]),
                        EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 8 },
                    );
                    trace.procs[to].push(
                        Time::from_us(recv_true + skews[to]),
                        EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 8 },
                    );
                }
                if m % 4 == 3 {
                    let (op, root) = match coll_kind {
                        0 => (CollOp::Barrier, None),
                        1 => (CollOp::Bcast, Some(Rank((m % procs) as u32))),
                        2 => (CollOp::Reduce, Some(Rank((m % procs) as u32))),
                        3 => (CollOp::Scan, None),
                        _ => (CollOp::Allreduce, None),
                    };
                    let enter = *now.iter().max().expect("non-empty");
                    for (p, t_p) in now.iter_mut().enumerate() {
                        let my_enter = enter + (p as i64 * 3) % 7;
                        let exit = my_enter + 4 + (p as i64) % 5;
                        trace.procs[p].push(
                            Time::from_us(my_enter + skews[p]),
                            EventKind::CollBegin { op, comm: CommId::WORLD, root, bytes: 8 },
                        );
                        trace.procs[p].push(
                            Time::from_us(exit + skews[p]),
                            EventKind::CollEnd { op, comm: CommId::WORLD, root, bytes: 8 },
                        );
                        *t_p = exit;
                    }
                }
            }
            (trace, lmin_us)
        })
}

/// The collective zoo recorded through static per-timeline skews, with the
/// base of its directed latency model.
fn arb_zoo_trace() -> impl Strategy<Value = (Trace, i64)> {
    (3usize..7, 5usize..70, 0u64..1_000_000, prop::collection::vec(-200i64..200, 9), 1i64..15)
        .prop_map(|(procs, rounds, seed, skews, base_us)| {
            let lmin = directed_latency(base_us);
            (collective_zoo_trace(procs, rounds, seed, &lmin, &|p, t| t + skews[p]), base_us)
        })
}

/// Edge-set equality between the lowering and the analysis-implied
/// reference on `trace`; also checks the in/out views against each other
/// and the logical edge count. Panics on any divergence; silently returns when the trace does not analyse (a
/// truncated trace can legitimately cut a collective in half — the
/// pipeline rejects it before any lowering would run).
fn assert_round_trip(trace: &Trace, lmin: &dyn MinLatency) {
    let analysis = match TraceAnalysis::capture(trace) {
        Ok(a) => a,
        Err(_) => return,
    };
    let graph = DepGraph::from_trace(trace, &analysis.matching, &analysis.instances, lmin);
    let want = reference_edges(&analysis, lmin);
    let (via_in, via_out) = graph_edges(trace, &graph);
    assert_eq!(via_in, want, "in-edge view diverges from the analysis");
    assert_eq!(via_out, want, "out-edge view diverges from the analysis");
    assert_eq!(graph.n_edges(), want.len(), "edge count diverges");
    assert_eq!(graph.n_events(), trace.n_events());
}

/// The plan-based collective census against the reference check on the
/// trace's recorded timestamps.
fn assert_collective_census(trace: &Trace, lmin: &dyn MinLatency) {
    let analysis = TraceAnalysis::capture(trace).expect("zoo traces analyse");
    let cols = TraceColumns::gather(trace);
    let plan = CensusPlan::for_columns(&cols, &[], &analysis.instances, lmin).expect("plan builds");
    let want = check_collectives_at(&cols, &analysis.instances, lmin);
    let fields = |r: &drift_lab::tracefmt::CollReport| {
        (r.instances, r.logical_total, r.logical_violated, r.logical_reversed, r.instances_affected)
    };
    let flat = plan.flat_of(&cols);
    assert_eq!(fields(&plan.collective_census(flat)), fields(&want), "whole census");
}

/// The latency families of the class-table property, by `kind`: uniform,
/// two levels, three levels (direction-dependent on top), three levels
/// with one cell off, and the nowhere-symmetric [`directed_latency`].
fn latency_family(kind: u8, node: u32, fan: u32, base_us: i64, dent: (u32, u32)) -> Box<dyn MinLatency + Sync> {
    let tree = hierarchical_latency(node, node * fan, base_us);
    match kind {
        0 => Box::new(UniformLatency(Dur::from_us(base_us))),
        1 => Box::new(hierarchical_latency(node, u32::MAX, base_us)),
        2 => Box::new(tree),
        3 => Box::new(move |from: Rank, to: Rank| {
            tree(from, to) + Dur::from_us(i64::from((from.0, to.0) == dent))
        }),
        _ => Box::new(directed_latency(base_us)),
    }
}

/// Aggregated N-to-N ends ≡ the view walk ≡ the map-based reference: the
/// batch pipeline (serial CSR kernels, which aggregate wherever a block is
/// classed), the windowed engine (which always walks views) and
/// `reference_synchronize` on one zoo trace under `lmin`. Timestamps, the
/// jump set, and — batch against reference — the order jumps are found in.
fn assert_classed_walked_and_reference_agree(
    trace: &Trace,
    lmin: &dyn MinLatency,
    expect_classed: &dyn Fn(&drift_lab::tracefmt::LatBlock) -> Option<bool>,
) {
    use drift_lab::clocksync::{synchronize, synchronize_stream_incremental};
    use drift_lab::tracefmt::io::{from_binary_columnar, to_binary_columnar_v3_blocked};

    // A class table, when a block has one, is the matrix off the diagonal.
    let analysis = TraceAnalysis::capture(trace).expect("zoo traces analyse");
    let graph = DepGraph::from_trace(trace, &analysis.matching, &analysis.instances, lmin);
    for inst in graph.coll_table().instances() {
        let (block, k) = (inst.block, inst.block.k());
        if let Some(want) = expect_classed(block) {
            assert_eq!(block.classes().is_some(), want, "block of ranks {:?}", block.ranks());
        }
        let Some(classes) = block.classes() else { continue };
        assert!(classes.n_classes() < k && classes.n_classes() <= 8);
        for i in 0..k {
            for j in (0..k).filter(|&j| j != i) {
                assert_eq!(
                    classes.lat(classes.of(i), classes.of(j)),
                    block.from_member(i)[j],
                    "class table cell {i} -> {j} of a {k}-member block"
                );
            }
        }
    }

    let cfg = PipelineConfig {
        presync: PreSync::None,
        clc: Some(ClcParams::default()),
        ..PipelineConfig::default()
    };
    let init = vec![None; trace.n_procs()];
    let mut want = trace.clone();
    let (.., reference) = reference_synchronize(&mut want, &init, None, lmin, &cfg);
    let reference = reference.expect("clc configured");

    let in_order = |c: &ClcReport| c.jumps.iter().map(|j| (j.event, j.size)).collect::<Vec<_>>();
    let mut batch = trace.clone();
    let rep = synchronize(&mut batch, &init, None, lmin, &cfg).expect("batch pipeline");
    assert_identical(&want, &batch, "batch vs reference");
    assert_eq!(in_order(rep.clc.as_ref().expect("clc ran")), in_order(&reference), "jump order");

    let v3 = to_binary_columnar_v3_blocked(trace, 64);
    let chunks: Vec<&[u8]> = v3.chunks(4096).collect();
    let (out, wrep) =
        synchronize_stream_incremental(&chunks, &init, None, lmin, &cfg, trace.n_events().max(1))
            .expect("windowed engine");
    let back = from_binary_columnar(out.concat().into()).expect("emitted frames decode");
    for p in &want.procs {
        let q = back.procs.iter().find(|q| q.location == p.location).expect("timeline emitted");
        assert_eq!(p.events, q.events, "windowed vs reference at {:?}", p.location);
    }
    let mut sorted = in_order(&reference);
    sorted.sort_by_key(|(event, _)| (event.p(), event.i()));
    assert_eq!(in_order(wrep.clc.as_ref().expect("clc ran")), sorted, "windowed jump set");
}

/// `trace` slid onto the `i64` edges, timeline by timeline as `placement`
/// says: 0 stays, 1 ends `inset` below `i64::MAX`, 2 starts `inset` above
/// `i64::MIN`, and 3 splits — its first half at the low edge, the rest at
/// the high one, a span no `f64` gap keeps exact.
fn onto_i64_edges(trace: &Trace, placement: &[u8], inset: i64) -> Trace {
    let mut edged = trace.clone();
    for (p, line) in edged.procs.iter_mut().enumerate() {
        let times = || line.events.iter().map(|e| e.time.as_ps());
        let (Some(lo), Some(hi)) = (times().min(), times().max()) else { continue };
        let half = line.events.len() / 2;
        for (i, e) in line.events.iter_mut().enumerate() {
            let t = e.time.as_ps();
            let (low, high) = (i64::MIN + inset + (t - lo), i64::MAX - inset + (t - hi));
            e.time = Time::from_ps(match placement[p % placement.len()] {
                1 => high,
                2 => low,
                3 if i < half => low,
                3 => high,
                _ => t,
            });
        }
    }
    edged
}

/// `trace`, whose timeline `p` is rank `p`'s, with every rank `r`
/// relabelled `perm[r]`: timeline `p` moves to index `perm[p]`, and each
/// message names its peer by the new label.
fn relabelled(trace: &Trace, perm: &[usize]) -> Trace {
    let mut out = trace.clone();
    for (p, line) in trace.procs.iter().enumerate() {
        assert_eq!(line.location.rank, Rank(p as u32), "one timeline per rank, in rank order");
        let new = |r: &mut Rank| *r = Rank(perm[r.idx()] as u32);
        let moved = &mut out.procs[perm[p]];
        *moved = line.clone();
        new(&mut moved.location.rank);
        for e in &mut moved.events {
            match &mut e.kind {
                EventKind::Send { to, .. } => new(to),
                EventKind::Recv { from, .. } => new(from),
                _ => {}
            }
        }
    }
    out
}

/// The §V mapping of one collective call on two timelines, member by
/// member: the timeline its begin sends to and the one its end receives
/// from, `None` where the mapping leaves the event unconstrained.
type Fan = [(Option<u32>, Option<u32>); 2];

/// Every flavour on two timelines, rooted ones at either root, with the
/// messages the mapping names: N-to-N each begin to the other's end,
/// 1-to-N the root's begin to the other's end, N-to-1 the other's begin
/// to the root's end, prefix member 0's begin to member 1's end.
const FANS: [(CollOp, Option<u32>, Fan); 6] = [
    (CollOp::Barrier, None, [(Some(1), Some(1)), (Some(0), Some(0))]),
    (CollOp::Bcast, Some(0), [(Some(1), None), (None, Some(0))]),
    (CollOp::Bcast, Some(1), [(None, Some(1)), (Some(0), None)]),
    (CollOp::Reduce, Some(0), [(None, Some(1)), (Some(0), None)]),
    (CollOp::Reduce, Some(1), [(Some(1), None), (None, Some(0))]),
    (CollOp::Scan, None, [(Some(1), None), (None, Some(0))]),
];

/// Two timelines with `pre[p]` local events, one call of `op`, then
/// `post[p]` local events, true times advancing by `gaps` and recorded on
/// timeline `p` shifted by `skews[p]` — and its twin, the same events
/// with the call re-kinded as the messages of `fan`: a send or receive
/// where the mapping names one, an `Enter` / `Exit` where it does not.
fn collective_and_twin(
    (op, root, fan): (CollOp, Option<u32>, Fan),
    pre: &[usize],
    post: &[usize],
    skews: &[i64],
    gaps: &[i64],
) -> (Trace, Trace) {
    let region = RegionId(0);
    let local = |k: usize| if k.is_multiple_of(2) { EventKind::Enter { region } } else { EventKind::Exit { region } };
    let (comm, root_rank) = (CommId::WORLD, root.map(Rank));
    let mut gap = gaps.iter().copied().cycle();
    let (mut coll, mut twin) = (Trace::for_ranks(2), Trace::for_ranks(2));
    let mut push = |p: usize, true_us: i64, kind: EventKind, twin_kind: EventKind| {
        let at = Time::from_us(true_us + skews[p]);
        coll.procs[p].push(at, kind);
        twin.procs[p].push(at, twin_kind);
    };
    let mut now = [0i64; 2];
    for p in 0..2 {
        for k in 0..pre[p] {
            now[p] += gap.next().expect("cycled");
            push(p, now[p], local(k), local(k));
        }
        now[p] += gap.next().expect("cycled");
        let begin = EventKind::CollBegin { op, comm, root: root_rank, bytes: 8 };
        let send = fan[p].0.map_or(EventKind::Enter { region }, |to| EventKind::Send { to: Rank(to), tag: Tag(0), bytes: 8 });
        push(p, now[p], begin, send);
    }
    let last_begin = now[0].max(now[1]);
    for p in 0..2 {
        now[p] = last_begin + 40 + gap.next().expect("cycled");
        let end = EventKind::CollEnd { op, comm, root: root_rank, bytes: 8 };
        let recv = fan[p].1.map_or(EventKind::Exit { region }, |from| EventKind::Recv { from: Rank(from), tag: Tag(0), bytes: 8 });
        push(p, now[p], end, recv);
        for k in 0..post[p] {
            now[p] += gap.next().expect("cycled");
            push(p, now[p], local(k), local(k));
        }
    }
    (coll, twin)
}

/// What a CLC run leaves, per engine: batch `synchronize`, then the
/// windowed engine at window 1 and at an unbounded window — timestamps by
/// rank, the sorted jump set and `events_moved`.
type ClcOutcome = (Vec<Vec<Time>>, Vec<(usize, usize, Dur)>, usize);

fn clc_by_engine(trace: &Trace, lmin: &dyn MinLatency, ctx: &str) -> Vec<ClcOutcome> {
    let outcome = |t: &Trace, rep: &ClcReport| {
        let mut lines: Vec<_> = t.procs.iter().map(|l| (l.location.rank, l.events.iter().map(|e| e.time).collect())).collect();
        lines.sort_by_key(|(rank, _)| *rank);
        let mut jumps: Vec<_> = rep.jumps.iter().map(|j| (j.event.p(), j.event.i(), j.size)).collect();
        jumps.sort_unstable();
        (lines.into_iter().map(|(_, times)| times).collect(), jumps, rep.events_moved)
    };
    let params = ClcParams::default();
    let cfg = PipelineConfig { presync: PreSync::None, clc: Some(params), ..PipelineConfig::default() };
    let mut batch = trace.clone();
    let rep = synchronize(&mut batch, &vec![None; trace.n_procs()], None, lmin, &cfg)
        .unwrap_or_else(|e| panic!("{ctx}: batch: {e}"));
    let mut out = vec![outcome(&batch, &rep.clc.expect("the CLC ran"))];
    for window in [1, usize::MAX] {
        let (back, rep) = run_windowed_clc(trace, lmin, &params, window, ctx);
        out.push(outcome(&back, &rep));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batch CLC against the map-based reference, on skewed traces —
    /// with and without world barriers, whose begins the backward pass caps
    /// in aggregate — and on the same traces slid onto the `i64` edges,
    /// where split timelines span more than any `f64` gap keeps exact and
    /// saturation meets every clamp: every timestamp, the jump sequence,
    /// `max_jump` and `events_moved` agree, and both outputs meet the
    /// reference's postcondition.
    #[test]
    fn clc_equals_the_reference_on_skewed_and_i64_edge_traces(
        (trace, lmin_us) in arb_skewed_trace(),
        (barriers, barrier_lmin_us) in arb_skewed_trace_with_barriers(Some(3)),
        placement in prop::collection::vec(0u8..4, 6),
        inset in 0..i64::MAX / 200,
    ) {
        let params = ClcParams::default();
        for (base, lmin_us, name) in [(trace, lmin_us, "skewed"), (barriers, barrier_lmin_us, "barriers")] {
            let lmin = UniformLatency(Dur::from_us(lmin_us));
            assert_adapter_matches_oracle(&base, &lmin, &params, name).expect("acyclic");
            let edged = onto_i64_edges(&base, &placement, inset);
            assert_adapter_matches_oracle(&edged, &lmin, &params, &format!("{name} at the i64 edges"))
                .expect("acyclic");
        }
    }

    /// Relabelling the ranks, with the latency model permuted alongside,
    /// permutes the output: under a per-pair model nowhere symmetric, the
    /// batch and windowed engines give timeline `perm[p]` of the relabelled
    /// trace the times timeline `p` got, report the jump set moved the same
    /// way, and move as many events.
    #[test]
    fn relabelled_ranks_permute_the_output(
        (trace, lmin_us) in arb_skewed_trace(),
        keys in prop::collection::vec(0u32..1_000, 6),
    ) {
        let n = trace.n_procs();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&r| (keys[r], r));
        let mut inverse = vec![0; n];
        for (r, &to) in perm.iter().enumerate() {
            inverse[to] = r;
        }
        let lmin = directed_latency(lmin_us);
        let permuted = |a: Rank, b: Rank| lmin(Rank(inverse[a.idx()] as u32), Rank(inverse[b.idx()] as u32));
        let relabelled_trace = relabelled(&trace, &perm);
        let params = ClcParams::default();
        // A report's jumps as a sorted set, timeline `p` named `label[p]`.
        let jumps = |r: &ClcReport, label: &[usize]| {
            let mut set: Vec<_> = r.jumps.iter().map(|j| (label[j.event.p()], j.event.i(), j.size)).collect();
            set.sort_unstable();
            set
        };
        let same: Vec<usize> = (0..n).collect();
        let times = |line: &ProcessTrace| line.events.iter().map(|e| e.time).collect::<Vec<_>>();

        let mut want = trace.clone();
        let want_rep = controlled_logical_clock(&mut want, &lmin, &params).expect("acyclic");
        let mut got = relabelled_trace.clone();
        let got_rep = controlled_logical_clock(&mut got, &permuted, &params).expect("acyclic");
        for (p, line) in want.procs.iter().enumerate() {
            prop_assert_eq!(times(&got.procs[perm[p]]), times(line), "batch: timeline {}", p);
        }
        prop_assert_eq!(jumps(&got_rep, &same), jumps(&want_rep, &perm));
        prop_assert_eq!((got_rep.max_jump, got_rep.events_moved), (want_rep.max_jump, want_rep.events_moved));

        for window in [1, 3] {
            let (back, rep) = run_windowed_clc(&relabelled_trace, &permuted, &params, window, "relabelled");
            for (p, line) in want.procs.iter().enumerate() {
                let at = back.procs.iter().find(|q| q.location.rank == Rank(perm[p] as u32)).expect("timeline emitted");
                prop_assert_eq!(times(at), times(line), "windowed {}: timeline {}", window, p);
            }
            prop_assert_eq!(jumps(&rep, &same), jumps(&want_rep, &perm), "windowed {}", window);
            prop_assert_eq!((rep.max_jump, rep.events_moved), (want_rep.max_jump, want_rep.events_moved));
        }
    }

    /// A collective and its §V twin in messages give the same output: for
    /// every flavour on two timelines, under random skews and a latency
    /// model that differs by direction (the member rows walk their views)
    /// and one that does not (a barrier is evaluated in aggregate), batch
    /// `synchronize` and the windowed engine at windows 1 and ∞ give the
    /// call and its twin the same timestamps, jump set and `events_moved`
    /// — the member-table path against the message-table path.
    #[test]
    fn a_collective_and_its_p2p_twin_give_the_same_timestamps(
        pre in prop::collection::vec(0usize..4, 2),
        post in prop::collection::vec(0usize..4, 2),
        skews in prop::collection::vec(-300i64..300, 2),
        gaps in prop::collection::vec(1i64..60, 12),
        (forth_us, extra_us) in (1i64..20, 1i64..20),
    ) {
        let directed = move |from: Rank, to: Rank| Dur::from_us(forth_us + if from < to { 0 } else { extra_us });
        let symmetric = move |_: Rank, _: Rank| Dur::from_us(forth_us);
        prop_assert_ne!(directed(Rank(0), Rank(1)), directed(Rank(1), Rank(0)));
        for fan in FANS {
            let (coll, twin) = collective_and_twin(fan, &pre, &post, &skews, &gaps);
            for (name, lmin) in [("directed", &directed as &dyn MinLatency), ("symmetric", &symmetric)] {
                let ctx = format!("{:?} rooted at {:?}, {name} latency", fan.0, fan.1);
                let want = clc_by_engine(&coll, lmin, &ctx);
                prop_assert_eq!(&clc_by_engine(&twin, lmin, &ctx), &want, "{}", ctx);
                prop_assert!(want.iter().all(|got| got == &want[0]), "{}: engines disagree", ctx);
            }
        }
    }

    /// Random communicator widths up to 24 ranks, latency matrices of every
    /// family: whatever the lowering classes is exact, what it cannot class
    /// it leaves to the view walk, and all three engines agree either way.
    #[test]
    fn aggregated_collectives_equal_the_view_walk_and_the_reference(
        procs in 3usize..25,
        rounds in 5usize..60,
        seed in 0u64..1_000_000,
        skews in prop::collection::vec(-200i64..200, 26),
        (kind, node, fan, base_us) in (0u8..5, 3u32..7, 2u32..4, 1i64..15),
        dent in (0u32..24, 0u32..24),
    ) {
        // The directed model repeats itself every 8 ranks: keep it where
        // it is nowhere symmetric.
        let procs = if kind == 4 { procs.min(7) } else { procs };
        let lmin = latency_family(kind, node, fan, base_us, dent);
        let lmin: &dyn MinLatency = &*lmin;
        let trace = collective_zoo_trace(procs, rounds, seed, lmin, &|p, t| t + skews[p]);
        // Uniform latency classes every block; a tree over nodes of ≥ 3
        // at least WORLD (a member per rank, rank 1 twice); one dented
        // cell may cost a block its table; the directed model classes
        // nothing but what the shared rank makes alike.
        let expect = |block: &drift_lab::tracefmt::LatBlock| match kind {
            0 => Some(block.k() >= 2),
            1 | 2 => (block.k() == procs + 1).then_some(true),
            3 => None,
            _ => block.ranks_distinct().then_some(false),
        };
        assert_classed_walked_and_reference_agree(&trace, lmin, &expect);
    }

    /// Direct round trip: lower a random trace into CSR and read every
    /// edge back out — nothing dropped, nothing invented.
    #[test]
    fn csr_recovers_every_edge_and_no_phantoms(
        (trace, lmin_us) in arb_mixed_trace(),
        (zoo, base_us) in arb_zoo_trace(),
    ) {
        assert_round_trip(&trace, &UniformLatency(Dur::from_us(lmin_us)));
        assert_round_trip(&zoo, &directed_latency(base_us));
    }

    /// The census twin of the round trip: the dense collective kernel
    /// counts exactly the logical messages the reference check visits —
    /// pairs of different *rank* — with the bound of the right direction,
    /// and the skews leave plenty of them violated and reversed.
    #[test]
    fn collective_census_equals_the_reference_check((zoo, base_us) in arb_zoo_trace()) {
        assert_collective_census(&zoo, &directed_latency(base_us));
    }

    /// The same round trip on a trace rebuilt from *streamed* ingest of
    /// bounded chunks, and on a trace rebuilt from only the frames a
    /// truncated prefix of the byte stream holds in full (the stream's
    /// index cut back to them, the partial tail frame never read).
    /// Whatever events survive truncation must lower to exactly the edges
    /// their analysis implies.
    #[test]
    fn csr_round_trips_streamed_and_truncated_ingest(
        (trace, lmin_us) in arb_mixed_trace(),
        chunk in 16usize..512,
        keep_per_mille in 100u32..1001,
    ) {
        let bytes = to_binary_columnar_v3(&trace);
        let chunks: Vec<&[u8]> = bytes.chunks(chunk).collect();
        let index = index_columnar_chunks(&chunks).expect("stream indexes");
        let store = ChunkStore::new(&chunks);

        // Full stream, chunked: must reproduce the trace exactly.
        let (streamed, _cols) = decode_indexed(&index, &store).expect("stream decodes");
        prop_assert_eq!(streamed.n_events(), trace.n_events());
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        assert_round_trip(&streamed, &lmin);

        // Truncated prefix: the frames that arrived in full.
        let cut = bytes.len() as u64 * u64::from(keep_per_mille) / 1000;
        let (truncated, _cols) =
            decode_indexed(&arrived_by(&index, cut), &store).expect("whole frames decode");
        prop_assert!(truncated.n_events() <= trace.n_events());
        assert_round_trip(&truncated, &lmin);
    }
}
