//! Shared fixture generator for the differential integration tests.
//!
//! The traces here are generated the way real violations arise: messages
//! and barriers are laid out on a *true* timeline, then each process's
//! recorded timestamps are corrupted by a simclock drift model (constant
//! rate error, thermal sinusoid, or random-walk wander). Offset
//! measurements handed to the pipeline carry a small asymmetric probe
//! error, so interpolation stays imperfect and the CLC has real work to do.

// Each test crate compiles this module independently and uses a different
// subset of it.
#![allow(dead_code)]

pub mod clc_reference;

use drift_lab::clocksync::{OffsetMeasurement, StageReport};
use drift_lab::prelude::*;
use drift_lab::simclock::{ConstantDrift, DriftModel, RandomWalkDrift, SinusoidalDrift};
use drift_lab::tracefmt::{CollOp, CommId, MinLatency};
use rand::rngs::StdRng;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Per-process clock: a static offset plus an integrated drift error.
struct ProcClock {
    offset_us: i64,
    drift: Option<Box<dyn DriftModel>>,
}

impl ProcClock {
    /// Local clock reading at true time `true_us` (microseconds).
    fn local_at(&self, true_us: i64) -> i64 {
        let wander_us = match &self.drift {
            None => 0,
            Some(d) => (d.integrated(Time::from_us(true_us)) * 1e6).round() as i64,
        };
        true_us + self.offset_us + wander_us
    }
}

/// Build one clock per process. Process 0 is the (perfect) master; workers
/// get a static offset plus the requested drift model.
fn clocks(procs: usize, model: &str, rng: &mut StdRng) -> Vec<ProcClock> {
    (0..procs)
        .map(|p| {
            if p == 0 {
                return ProcClock { offset_us: 0, drift: None };
            }
            let drift: Box<dyn DriftModel> = match model {
                "constant" => Box::new(ConstantDrift::new(rng.gen_range(-40e-6..40e-6))),
                "sinusoid" => Box::new(SinusoidalDrift::new(
                    rng.gen_range(1e-6..20e-6),
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.0..1.0),
                )),
                "randomwalk" => Box::new(RandomWalkDrift::generate(
                    rng,
                    15e-6,
                    0.25,
                    // Generous horizon: the true timelines here stay well
                    // under two minutes.
                    240.0,
                )),
                other => panic!("unknown drift model {other}"),
            };
            ProcClock {
                offset_us: rng.gen_range(-800i64..800),
                drift: Some(drift),
            }
        })
        .collect()
}

/// A causally valid trace on a true timeline, recorded through drifting
/// clocks, plus init/finalize offset measurements with probe error.
pub fn drifted_trace(
    procs: usize,
    msgs: usize,
    model: &str,
    seed: u64,
) -> (
    Trace,
    Vec<Option<OffsetMeasurement>>,
    Vec<Option<OffsetMeasurement>>,
    UniformLatency,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cl = clocks(procs, model, &mut rng);
    let lmin_us = rng.gen_range(2i64..15);
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs]; // true time per process
    for m in 0..msgs {
        let from = rng.gen_range(0usize..procs);
        let to = (from + rng.gen_range(1usize..procs)) % procs;
        let send_true = now[from] + rng.gen_range(5i64..80);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + lmin_us + rng.gen_range(0i64..40);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(cl[from].local_at(send_true)),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(cl[to].local_at(recv_true)),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
        // A barrier every 64 messages exercises the collective census
        // (and its logical-message constraints) in both execution paths.
        if m % 64 == 63 {
            let enter = *now.iter().max().expect("non-empty");
            for (p, t) in now.iter_mut().enumerate() {
                let my_enter = enter + rng.gen_range(0i64..10);
                let exit = my_enter + 5 + rng.gen_range(0i64..5);
                trace.procs[p].push(
                    Time::from_us(cl[p].local_at(my_enter)),
                    EventKind::CollBegin {
                        op: CollOp::Barrier,
                        comm: CommId(0),
                        root: None,
                        bytes: 0,
                    },
                );
                trace.procs[p].push(
                    Time::from_us(cl[p].local_at(exit)),
                    EventKind::CollEnd {
                        op: CollOp::Barrier,
                        comm: CommId(0),
                        root: None,
                        bytes: 0,
                    },
                );
                *t = exit;
            }
        }
    }
    let end = *now.iter().max().expect("non-empty") + 100;
    let (init, fin) = probe_measurements(&cl, end, &mut rng);
    (trace, init, fin, UniformLatency(Dur::from_us(lmin_us)))
}

/// Offset probes of every clock at init (true time 0) and finalize (`end`):
/// `offset` is master − worker at the probe instant, deliberately off by a
/// few µs of asymmetry error.
fn probe_measurements(
    cl: &[ProcClock],
    end: i64,
    rng: &mut StdRng,
) -> (Vec<Option<OffsetMeasurement>>, Vec<Option<OffsetMeasurement>>) {
    let measure = |p: usize, true_us: i64, err_us: i64| -> Option<OffsetMeasurement> {
        if p == 0 {
            return None;
        }
        let local = cl[p].local_at(true_us);
        Some(OffsetMeasurement {
            worker_time: Time::from_us(local),
            offset: Dur::from_us(true_us - local + err_us),
            rtt: Dur::from_us(12),
        })
    };
    let errs: Vec<i64> = (0..cl.len()).map(|_| rng.gen_range(-6i64..6)).collect();
    let init = (0..cl.len()).map(|p| measure(p, 0, errs[p])).collect();
    let fin = (0..cl.len()).map(|p| measure(p, end, -errs[p])).collect();
    (init, fin)
}

// ------------------------------------------------------- collective zoo --

/// A per-pair latency model that is nowhere symmetric and, below rank 7,
/// nowhere equal for two different rank pairs — by whole microseconds, the
/// granularity of the fixtures' timestamps: under it a transposed latency
/// matrix, a wrong matrix, or `l_min(b, a)` for `l_min(a, b)` all change
/// results, which [`UniformLatency`] hides.
pub fn directed_latency(base_us: i64) -> impl Fn(Rank, Rank) -> Dur + Sync {
    move |from: Rank, to: Rank| {
        Dur::from_us(base_us + 7 * i64::from(from.0 % 8) + i64::from(to.0 % 8))
    }
}

/// The latency model of a machine: ranks on nodes of `node`, nodes under
/// switches of `switch` ranks, one latency per level — except between
/// switches, where it depends on the direction. What [`directed_latency`]
/// is not: a few classes of members explain every pair, so the lowering
/// finds a class table and N-to-N ends are evaluated in aggregate.
pub fn hierarchical_latency(node: u32, switch: u32, base_us: i64) -> impl Fn(Rank, Rank) -> Dur + Sync {
    move |from: Rank, to: Rank| {
        let (a, b) = (from.0, to.0);
        Dur::from_us(base_us + match (a / node == b / node, a / switch == b / switch) {
            (true, _) => 0,
            (_, true) => 4,
            _ => 9 + i64::from(a / switch > b / switch),
        })
    }
}

/// The latency models every collective-zoo leg runs under: one that admits
/// no class table (the view walk) and one that does (the aggregate).
pub fn zoo_latencies() -> [(&'static str, Box<dyn MinLatency + Sync>); 2] {
    [("directed", Box::new(directed_latency(3))), ("tree", Box::new(hierarchical_latency(2, 4, 3)))]
}

/// A causally valid trace exercising everything the collective lowering
/// distinguishes, recorded through `local_at(timeline, true_us)`:
///
/// * `procs ≥ 3` timelines with ranks `0..procs` exchanging point-to-point
///   messages, one *empty* timeline (index 1, so it shifts every later
///   timeline's flat offsets) and one extra timeline sharing rank 1 (a
///   second thread; it takes part in collectives only);
/// * collectives of all four data-flow flavours with the root rotating
///   over the member *ranks* — so the shared rank is the root at times —
///   on `WORLD` and on two overlapping sub-communicators.
///
/// On the true timeline every constraint holds with only a few µs to spare
/// over `lmin`, so small clock errors already violate it.
pub fn collective_zoo_trace(
    procs: usize,
    rounds: usize,
    seed: u64,
    lmin: &dyn MinLatency,
    local_at: &dyn Fn(usize, i64) -> i64,
) -> Trace {
    use drift_lab::tracefmt::{Location, ProcessTrace, ThreadId};
    assert!(procs >= 3);
    let mut rng = StdRng::seed_from_u64(seed);
    // Timeline → rank: 0, the empty one, 1..procs, then rank 1 again.
    let mut ranks: Vec<u32> = vec![0, procs as u32];
    ranks.extend(1..procs as u32);
    ranks.push(1);
    let n = ranks.len();
    let mut trace = Trace {
        procs: (0..n)
            .map(|p| {
                ProcessTrace::new(Location { rank: Rank(ranks[p]), thread: ThreadId((p == n - 1) as u32) })
            })
            .collect(),
    };
    let live: Vec<usize> = (0..n).filter(|&p| p != 1).collect();
    let p2p: Vec<usize> = live[..live.len() - 1].to_vec();
    // Every other live timeline plus both holders of rank 1.
    let mut evens: Vec<usize> = live.iter().copied().step_by(2).chain([2, n - 1]).collect();
    evens.sort_unstable();
    evens.dedup();
    let comms: [(CommId, Vec<usize>); 3] = [
        (CommId::WORLD, live.clone()),
        (CommId(1), evens),
        (CommId(2), live[live.len() / 3..].to_vec()),
    ];
    let ops = [
        CollOp::Barrier,
        CollOp::Bcast,
        CollOp::Reduce,
        CollOp::Scan,
        CollOp::Allreduce,
        CollOp::Gather,
        CollOp::Scatter,
        CollOp::Alltoall,
    ];
    let mut now = vec![0i64; n];
    let mut n_colls = 0usize;
    for m in 0..rounds {
        let from = p2p[rng.gen_range(0usize..p2p.len())];
        let to = p2p[(p2p.iter().position(|&p| p == from).expect("member")
            + rng.gen_range(1usize..p2p.len()))
            % p2p.len()];
        let send_true = now[from] + rng.gen_range(5i64..80);
        now[from] = send_true;
        let l_us = |a: usize, b: usize| lmin.l_min(Rank(ranks[a]), Rank(ranks[b])).as_ps() / 1_000_000 + 1;
        let recv_true = (send_true + l_us(from, to)).max(now[to] + 1) + rng.gen_range(0i64..8);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(local_at(from, send_true)),
            EventKind::Send { to: Rank(ranks[to]), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(local_at(to, recv_true)),
            EventKind::Recv { from: Rank(ranks[from]), tag: Tag(m as u32), bytes: 64 },
        );
        if m % 5 == 4 {
            let op = ops[n_colls % ops.len()];
            let (comm, members) = &comms[n_colls % comms.len()];
            let root = op
                .has_root()
                .then(|| Rank(ranks[members[(n_colls / 3) % members.len()]]));
            n_colls += 1;
            let enters: Vec<i64> =
                members.iter().map(|&p| now[p] + rng.gen_range(1i64..30)).collect();
            for (&p, &my_enter) in members.iter().zip(&enters) {
                // Out no sooner than every member's begin has reached us.
                let reached = members.iter().zip(&enters).map(|(&q, &t)| t + l_us(q, p));
                let exit = reached.max().expect("non-empty").max(my_enter + 1)
                    + rng.gen_range(0i64..5);
                trace.procs[p].push(
                    Time::from_us(local_at(p, my_enter)),
                    EventKind::CollBegin { op, comm: *comm, root, bytes: 8 },
                );
                trace.procs[p].push(
                    Time::from_us(local_at(p, exit)),
                    EventKind::CollEnd { op, comm: *comm, root, bytes: 8 },
                );
                now[p] = exit;
            }
        }
    }
    trace
}

/// [`collective_zoo_trace`] recorded through drifting clocks, with probe
/// measurements for the pre-synchronisation stage — the zoo counterpart of
/// [`drifted_trace`].
pub fn drifted_zoo_trace(
    procs: usize,
    rounds: usize,
    model: &str,
    seed: u64,
    lmin: &dyn MinLatency,
) -> (Trace, Vec<Option<OffsetMeasurement>>, Vec<Option<OffsetMeasurement>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cl = clocks(procs + 2, model, &mut rng);
    let trace = collective_zoo_trace(procs, rounds, seed, lmin, &|p, t| cl[p].local_at(t));
    let end = 100 + 400 * rounds as i64;
    let (init, fin) = probe_measurements(&cl, end, &mut rng);
    (trace, init, fin)
}

/// Mixed p2p + collective ring trace with injected per-proc skew (the
/// fixture of `clocksync`'s own CLC unit tests, `clc::fixtures::mixed_trace`):
/// each round every proc sends to its right neighbour then receives
/// from its left one, and every fourth round ends in an Allreduce.
pub fn mixed_trace(procs: usize, rounds: usize) -> Trace {
    let mut t = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    for round in 0..rounds {
        for (p, now_p) in now.iter_mut().enumerate() {
            let next = (p + 1) % procs;
            *now_p += 7 + ((round * 13 + p * 5) % 40) as i64;
            let skew = ((p * 37) % 90) as i64 - 45;
            t.procs[p].push(
                Time::from_us(*now_p + skew),
                EventKind::Send { to: Rank(next as u32), tag: Tag(round as u32), bytes: 8 },
            );
        }
        for (p, now_p) in now.iter_mut().enumerate() {
            let prev = (p + procs - 1) % procs;
            *now_p += 6 + ((round * 11 + p * 3) % 30) as i64;
            let skew = ((p * 37) % 90) as i64 - 45;
            t.procs[p].push(
                Time::from_us(*now_p + skew),
                EventKind::Recv { from: Rank(prev as u32), tag: Tag(round as u32), bytes: 8 },
            );
        }
        if round % 4 == 0 {
            let base = *now.iter().max().unwrap();
            for (p, now_p) in now.iter_mut().enumerate() {
                let skew = ((p * 37) % 90) as i64 - 45;
                *now_p = base + ((p * 3) % 10) as i64;
                t.procs[p].push(
                    Time::from_us(*now_p + skew),
                    EventKind::CollBegin {
                        op: CollOp::Allreduce,
                        comm: CommId::WORLD,
                        root: None,
                        bytes: 8,
                    },
                );
                *now_p += 12 + ((p * 7) % 9) as i64;
                t.procs[p].push(
                    Time::from_us(*now_p + skew),
                    EventKind::CollEnd {
                        op: CollOp::Allreduce,
                        comm: CommId::WORLD,
                        root: None,
                        bytes: 8,
                    },
                );
            }
        }
    }
    t
}

/// Assert two traces agree event-for-event (timestamps and kinds).
pub fn assert_identical(seq: &Trace, par: &Trace, ctx: &str) {
    assert_eq!(seq.n_procs(), par.n_procs(), "{ctx}: proc count");
    for (p, (a, b)) in seq.procs.iter().zip(&par.procs).enumerate() {
        assert_eq!(a.events.len(), b.events.len(), "{ctx}: proc {p} length");
        for (i, (ea, eb)) in a.events.iter().zip(&b.events).enumerate() {
            assert_eq!(
                ea.time, eb.time,
                "{ctx}: proc {p} event {i} timestamps diverge"
            );
            assert_eq!(ea.kind, eb.kind, "{ctx}: proc {p} event {i} kinds diverge");
        }
    }
}

// ---------------------------------------------------- CSR edge references --

/// An event-dependency edge as a comparable tuple: (src proc, src idx,
/// dst proc, dst idx, latency in ps).
pub type Edge = (u32, u32, u32, u32, i64);

/// The edge set a communication analysis implies, built *independently* of
/// both the CSR lowering and the CLC's internal dependency maps, straight
/// from the paper's collective semantics (§V data-flow flavours).
pub fn reference_edges(
    analysis: &drift_lab::clocksync::TraceAnalysis,
    lmin: &dyn drift_lab::tracefmt::MinLatency,
) -> std::collections::BTreeSet<Edge> {
    use drift_lab::tracefmt::CollFlavor;
    let mut edges = std::collections::BTreeSet::new();
    for m in &analysis.matching.messages {
        edges.insert((
            m.send.proc,
            m.send.idx,
            m.recv.proc,
            m.recv.idx,
            lmin.l_min(m.from, m.to).as_ps(),
        ));
    }
    for inst in &analysis.instances {
        let root_pos = inst
            .root
            .and_then(|r| inst.members.iter().position(|m| m.rank == r));
        for (pos, me) in inst.members.iter().enumerate() {
            // Which members' *begin* events this member's *end* waits on.
            let feeds_me = |j: usize| match inst.op.flavor() {
                CollFlavor::OneToN => Some(pos) != root_pos && Some(j) == root_pos,
                CollFlavor::NToOne => Some(pos) == root_pos && Some(j) != root_pos,
                CollFlavor::NToN => j != pos,
                CollFlavor::Prefix => j < pos,
            };
            for (j, other) in inst.members.iter().enumerate() {
                if feeds_me(j) {
                    edges.insert((
                        other.begin.proc,
                        other.begin.idx,
                        me.end.proc,
                        me.end.idx,
                        lmin.l_min(other.rank, me.rank).as_ps(),
                    ));
                }
            }
        }
    }
    edges
}

/// Collect a CSR graph's edges through both of its public views (the
/// in-edge and out-edge iterators must describe the same relation).
pub fn graph_edges(
    trace: &Trace,
    graph: &drift_lab::clocksync::DepGraph,
) -> (
    std::collections::BTreeSet<Edge>,
    std::collections::BTreeSet<Edge>,
) {
    let mut via_in = std::collections::BTreeSet::new();
    let mut via_out = std::collections::BTreeSet::new();
    for (id, _) in trace.iter_events() {
        for (src, lat) in graph.in_deps(id) {
            via_in.insert((src.proc, src.idx, id.proc, id.idx, lat.as_ps()));
        }
        for (dst, lat) in graph.out_deps(id) {
            via_out.insert((id.proc, id.idx, dst.proc, dst.idx, lat.as_ps()));
        }
    }
    (via_in, via_out)
}

// ------------------------------------------------------ pipeline oracle --

/// What [`reference_synchronize`] returns: the raw census, the census after
/// presync (or after the online correction), and — when the CLC ran — the
/// census after it and its report.
pub type Reference = (
    StageReport,
    StageReport,
    Option<StageReport>,
    Option<drift_lab::clocksync::ClcReport>,
);

/// The reference the production driver is compared against: the paper's
/// chain composed from per-stage reference functions, one after another on
/// the event records — boxed [`TimestampMap`]s through `apply_maps`, the
/// per-item `check_*_at` censuses, `OnlineCorrector::map_next`, all public
/// library functions, and the map-based CLC of [`clc_reference`] (the
/// library's own `controlled_logical_clock` runs the kernel under test).
/// Sequential; no `DepGraph`, no `CensusPlan`, no `TraceColumns`, no frozen
/// latency table.
/// Rewrites `trace` in place like `synchronize` does; panics on input the
/// pipeline would reject.
pub fn reference_synchronize(
    trace: &mut Trace,
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
) -> Reference {
    use drift_lab::clocksync::{apply_maps, IdentityMap, TraceAnalysis};
    use drift_lab::tracefmt::{check_collectives_at, check_p2p_messages_at};

    let analysis = TraceAnalysis::capture(trace).expect("oracle: well-formed trace");
    let census = |t: &Trace| StageReport {
        p2p: check_p2p_messages_at(t, &analysis.matching.messages, lmin),
        coll: check_collectives_at(t, &analysis.instances, lmin),
    };
    let raw = census(trace);

    if let SyncMethod::Online(spec) = &cfg.method {
        let mut corr = OnlineCorrector::new(spec.probes.to_vec(), spec.kalman);
        trace.map_times(|p, t| Time::from_ps(corr.map_next(p, t.as_ps())));
        return (raw, census(trace), None, None);
    }

    let after_presync = if cfg.presync == PreSync::None {
        raw.clone()
    } else {
        let maps: Vec<Box<dyn TimestampMap>> = (0..trace.n_procs())
            .map(|p| -> Box<dyn TimestampMap> {
                let fin = fin.and_then(|f| f[p].as_ref());
                match (cfg.presync, init[p].as_ref(), fin) {
                    (PreSync::AlignOnly, Some(a), _) => Box::new(OffsetAlignment::new(a)),
                    (PreSync::Linear, Some(a), Some(b)) => Box::new(LinearInterpolation::new(a, b)),
                    _ => Box::new(IdentityMap),
                }
            })
            .collect();
        apply_maps(trace, &maps);
        census(trace)
    };

    match (&cfg.method, &cfg.clc) {
        (SyncMethod::Clc, Some(params)) => {
            let clc = clc_reference::controlled_logical_clock_reference(trace, lmin, params)
                .expect("oracle: CLC runs");
            (raw, after_presync, Some(census(trace)), Some(clc))
        }
        _ => (raw, after_presync, None, None),
    }
}

/// Run the library's CLC — the CSR kernel behind its public adapter — and
/// the map-based oracle on clones of `base` and assert they agree: on the
/// error, or on every timestamp, the jump sequence in discovery order,
/// `max_jump`, `events_moved` and `events_total`. On an error the adapter
/// must also hand its trace back untouched (the oracle does not). Returns
/// the adapter's result.
pub fn assert_adapter_matches_oracle(
    base: &Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    ctx: &str,
) -> Result<drift_lab::clocksync::ClcReport, drift_lab::clocksync::ClcError> {
    let mut adapted = base.clone();
    let got = controlled_logical_clock(&mut adapted, lmin, params);
    let mut oracle = base.clone();
    let want = clc_reference::controlled_logical_clock_reference(&mut oracle, lmin, params);
    match (&got, &want) {
        (Ok(got), Ok(want)) => {
            assert_clc_postcondition(&adapted, lmin, ctx);
            assert_identical(&oracle, &adapted, ctx);
            let jumps = |r: &drift_lab::clocksync::ClcReport| {
                r.jumps.iter().map(|j| (j.event, j.size)).collect::<Vec<_>>()
            };
            assert_eq!(jumps(got), jumps(want), "{ctx}: jump sequence");
            assert_eq!(
                (got.max_jump, got.events_moved, got.events_total),
                (want.max_jump, want.events_moved, want.events_total),
                "{ctx}: report"
            );
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{ctx}: error");
            assert_identical(base, &adapted, &format!("{ctx}: trace after {got}"));
        }
        _ => panic!("{ctx}: adapter {got:?}, oracle {want:?}"),
    }
    got
}

/// The reference's postcondition ([`clc_reference::assert_postcondition`])
/// on a trace the library corrected.
pub fn assert_clc_postcondition(trace: &Trace, lmin: &dyn MinLatency, ctx: &str) {
    let deps = clc_reference::extract_deps(trace).expect("a trace the CLC ran on analyses");
    clc_reference::assert_postcondition(trace, &deps, lmin, &format!("{ctx}: the library's CLC"));
}

/// Corrected timestamps per location, sorted by location: what two runs of
/// one trace must agree on however each stored or emitted its timelines.
pub type ByLocation = Vec<(drift_lab::tracefmt::Location, Vec<Time>)>;

pub fn times_by_location(trace: &Trace) -> ByLocation {
    let mut lines: ByLocation = trace
        .procs
        .iter()
        .map(|p| (p.location, p.events.iter().map(|e| e.time).collect()))
        .collect();
    lines.sort_by_key(|(location, _)| *location);
    lines
}

/// The `DTC3` encoding of `base` through the incremental windowed engine:
/// the re-decoded output and the engine's CLC report. `PreSync::None`, so
/// the CLC is the only stage that moves a timestamp.
pub fn run_windowed_clc(
    base: &Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    window: usize,
    ctx: &str,
) -> (Trace, drift_lab::clocksync::ClcReport) {
    use drift_lab::tracefmt::io::{from_binary_columnar, to_binary_columnar_v3_blocked};
    let bytes = to_binary_columnar_v3_blocked(base, 2);
    let cfg = PipelineConfig { presync: PreSync::None, clc: Some(*params), ..PipelineConfig::default() };
    let (out, rep) = drift_lab::clocksync::synchronize_stream_incremental(
        &[&bytes[..]],
        &vec![None; base.n_procs()],
        None,
        lmin,
        &cfg,
        window,
    )
    .unwrap_or_else(|e| panic!("{ctx}: windowed engine, window {window}: {e}"));
    let back = from_binary_columnar(out.concat().into())
        .unwrap_or_else(|e| panic!("{ctx}: window {window}: emitted frames do not decode: {e}"));
    (back, rep.clc.expect("the CLC ran"))
}

/// Hold the windowed engine to the oracle on `base`, at windows 1, 3 and
/// one wider than the trace: timestamps per location, the jump set (the
/// engine reports canonical (timeline, index) order, the oracle discovery
/// order), `max_jump` and the moved / total counts.
pub fn assert_windowed_matches_oracle(
    base: &Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    ctx: &str,
) {
    let mut oracle = base.clone();
    let want = clc_reference::controlled_logical_clock_reference(&mut oracle, lmin, params)
        .unwrap_or_else(|e| panic!("{ctx}: oracle: {e}"));
    let mut want_jumps: Vec<_> = want.jumps.iter().map(|j| (j.event, j.size)).collect();
    want_jumps.sort_by_key(|(event, _)| (event.p(), event.i()));
    for window in [1, 3, base.n_events() + 1] {
        let ctx = format!("{ctx}: windowed, window {window}");
        let (back, got) = run_windowed_clc(base, lmin, params, window, &ctx);
        assert_clc_postcondition(&back, lmin, &ctx);
        assert_eq!(times_by_location(&back), times_by_location(&oracle), "{ctx}: timestamps");
        let got_jumps: Vec<_> = got.jumps.iter().map(|j| (j.event, j.size)).collect();
        assert_eq!(got_jumps, want_jumps, "{ctx}: jump set");
        assert_eq!(
            (got.max_jump, got.events_moved, got.events_total),
            (want.max_jump, want.events_moved, want.events_total),
            "{ctx}: report"
        );
    }
}

/// One trace through the three shipped drivers of the CLC kernel — batch
/// `synchronize`, `synchronize_stream` over the `DTC3` encoding, and the
/// windowed engine (window 3) over the same stream — each answering
/// [`times_by_location`]. `PreSync::None` throughout.
pub fn clc_drivers(
    base: &Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
) -> [(&'static str, ByLocation); 3] {
    use drift_lab::tracefmt::io::to_binary_columnar_v3_blocked;
    let cfg = PipelineConfig { presync: PreSync::None, clc: Some(*params), ..PipelineConfig::default() };
    let init = vec![None; base.n_procs()];
    let mut batch = base.clone();
    synchronize(&mut batch, &init, None, lmin, &cfg).expect("batch driver");
    let bytes = to_binary_columnar_v3_blocked(base, 2);
    let none = drift_lab::clocksync::CancelToken::none();
    let (streamed, _) =
        drift_lab::clocksync::synchronize_stream([&bytes[..]], &init, None, lmin, &cfg, &none)
            .expect("streamed driver");
    let (windowed, _) = run_windowed_clc(base, lmin, params, 3, "windowed driver");
    [
        ("batch", times_by_location(&batch)),
        ("streamed", times_by_location(&streamed)),
        ("windowed", times_by_location(&windowed)),
    ]
}

/// Census totals of one stage, comparable without `PartialEq` on reports.
pub fn totals(r: &StageReport) -> (usize, usize, usize) {
    (r.p2p.violations.len(), r.p2p.reversed, r.coll.logical_violated)
}

/// Assert a production report equals the oracle's: the raw violation list,
/// the presync (or online) and post-CLC census totals, and the jump count.
/// (Corrected timestamps are compared separately, trace against trace.)
pub fn assert_report_matches_reference(
    reference: &Reference,
    got: &drift_lab::clocksync::PipelineReport,
    ctx: &str,
) {
    let (raw, after_presync, after_clc, clc) = reference;
    assert_eq!(
        raw.p2p.violations, got.raw.p2p.violations,
        "{ctx}: raw p2p violation lists diverge"
    );
    assert_eq!(totals(raw), totals(&got.raw), "{ctx}: raw census diverges");
    assert_eq!(
        totals(after_presync),
        totals(&got.after_presync),
        "{ctx}: presync census diverges"
    );
    assert_eq!(
        after_clc.as_ref().map(totals),
        got.after_clc.as_ref().map(totals),
        "{ctx}: post-CLC census diverges"
    );
    assert_eq!(
        clc.as_ref().map(|c| c.n_jumps()),
        got.clc.as_ref().map(|c| c.n_jumps()),
        "{ctx}: CLC jump counts diverge"
    );
}

/// The one-shot vs streamed `DTC3` differential matrix: for every drift
/// model × [`PreSync`], one-shot decode followed by [`synchronize`] and the
/// zero-copy streamed ingest must both be bit-identical to
/// [`reference_synchronize`] on the decoded trace — corrected timestamps
/// and every stage census.
///
/// Run by `columnar_differential.rs`, on the census kernel the host's CPU
/// selects (the census unit tests hold both kernels to one oracle).
/// `DRIFT_STRESS=1` widens the matrix with a 6000-message trace size.
pub fn ingest_differential_matrix() {
    use drift_lab::clocksync::{synchronize_stream, CancelToken};
    use drift_lab::tracefmt::io::{from_binary_columnar, to_binary_columnar_v3_blocked};

    let none = CancelToken::none();
    let stress = std::env::var("DRIFT_STRESS").is_ok_and(|v| v == "1");
    let sizes: &[(usize, usize)] = if stress {
        &[(3, 60), (5, 400), (8, 1500), (10, 6000)]
    } else {
        &[(3, 60), (5, 400), (8, 1500)]
    };
    let models = ["constant", "sinusoid", "randomwalk"];
    let presyncs = [PreSync::None, PreSync::AlignOnly, PreSync::Linear];
    let mut legs = 0usize;
    for (si, &(procs, msgs)) in sizes.iter().enumerate() {
        for (mi, model) in models.iter().enumerate() {
            let seed = 41_000 + (si * 10 + mi) as u64;
            let (base, init, fin, lmin) = drifted_trace(procs, msgs, model, seed);
            let v3 = to_binary_columnar_v3_blocked(&base, 256);
            let decoded = from_binary_columnar(v3.clone())
                .unwrap_or_else(|e| panic!("{procs}p/{msgs}m {model}: decode failed: {e}"));
            for presync in presyncs {
                let ctx = format!("{procs}p/{msgs}m {model} {presync:?}");
                let cfg = PipelineConfig {
                    presync,
                    clc: Some(ClcParams::default()),
                    ..PipelineConfig::default()
                };
                let mut ref_trace = decoded.clone();
                let reference =
                    reference_synchronize(&mut ref_trace, &init, Some(&fin), &lmin, &cfg);

                // One-shot decode, then synchronize.
                let mut one_shot = decoded.clone();
                let one_shot_rep = synchronize(&mut one_shot, &init, Some(&fin), &lmin, &cfg)
                    .unwrap_or_else(|e| panic!("{ctx}: one-shot pipeline failed: {e}"));
                assert_identical(&ref_trace, &one_shot, &format!("{ctx} (one-shot decode)"));
                assert_report_matches_reference(&reference, &one_shot_rep, &ctx);

                // Zero-copy streamed ingest, awkward chunk size on
                // purpose.
                let (v3_trace, v3_rep) =
                    synchronize_stream(v3.chunks(4096), &init, Some(&fin), &lmin, &cfg, &none)
                        .unwrap_or_else(|e| panic!("{ctx}: v3 pipeline failed: {e}"));
                assert_identical(&ref_trace, &v3_trace, &format!("{ctx} (v3 stream)"));
                assert_report_matches_reference(&reference, &v3_rep, &ctx);
                legs += 1;
            }
        }
    }
    // The collective zoo under the directed latency model: every flavour,
    // overlapping communicators, a shared rank and an empty timeline, where
    // a transposed or misplaced latency block changes censuses and jumps.
    // Once with no class table (N-to-N ends walk their views), once with a
    // node/switch tree (they are evaluated in aggregate).
    for (li, (lname, lmin)) in zoo_latencies().iter().enumerate() {
        let lmin: &dyn MinLatency = &**lmin;
        for (mi, model) in models.iter().enumerate() {
            let seed = 42_000 + (li * 10 + mi) as u64;
            let (base, init, fin) = drifted_zoo_trace(6, 400, model, seed, lmin);
            let v3 = to_binary_columnar_v3_blocked(&base, 256);
            let ctx = format!("zoo/{lname} {model}");
            let cfg =
                PipelineConfig { clc: Some(ClcParams::default()), ..PipelineConfig::default() };
            let mut ref_trace = base.clone();
            let reference = reference_synchronize(&mut ref_trace, &init, Some(&fin), lmin, &cfg);
            let mut trace = base.clone();
            let rep = synchronize(&mut trace, &init, Some(&fin), lmin, &cfg)
                .unwrap_or_else(|e| panic!("{ctx}: pipeline failed: {e}"));
            assert_identical(&ref_trace, &trace, &ctx);
            assert_report_matches_reference(&reference, &rep, &ctx);
            let (v3_trace, v3_rep) =
                synchronize_stream(v3.chunks(4096), &init, Some(&fin), lmin, &cfg, &none)
                    .unwrap_or_else(|e| panic!("{ctx}: v3 pipeline failed: {e}"));
            assert_identical(&ref_trace, &v3_trace, &format!("{ctx} (v3 stream)"));
            assert_report_matches_reference(&reference, &v3_rep, &ctx);
            legs += 1;
        }
    }
    // The matrix must not silently collapse after a refactor.
    let floor = sizes.len() * models.len() * presyncs.len() + 2 * models.len();
    assert!(legs >= floor, "differential matrix ran only {legs} legs (expected {floor})");
}

// ------------------------------------------------ message-matching oracle --

/// Message matching as MPI states it, kept as the reference the sort-based
/// production matcher is compared against: every send queues, in
/// `(timeline, index)` order, under its `(source, destination, tag)` key;
/// every receive, in the same order, pops the front of its key's queue.
pub fn fifo_match_messages(trace: &Trace) -> drift_lab::tracefmt::Matching {
    use drift_lab::tracefmt::{EventId, Matching, MessageMatch};
    use std::collections::{HashMap, VecDeque};

    let mut pending: HashMap<(Rank, Rank, u32), VecDeque<(EventId, u64)>> = HashMap::new();
    for (p, pt) in trace.procs.iter().enumerate() {
        for (i, e) in pt.events.iter().enumerate() {
            if let EventKind::Send { to, tag, bytes } = e.kind {
                pending
                    .entry((pt.location.rank, to, tag.0))
                    .or_default()
                    .push_back((EventId::new(p, i), bytes));
            }
        }
    }
    let mut out = Matching::default();
    for (p, pt) in trace.procs.iter().enumerate() {
        let to = pt.location.rank;
        for (i, e) in pt.events.iter().enumerate() {
            if let EventKind::Recv { from, tag, .. } = e.kind {
                let recv = EventId::new(p, i);
                match pending.get_mut(&(from, to, tag.0)).and_then(VecDeque::pop_front) {
                    Some((send, bytes)) => {
                        out.messages.push(MessageMatch { send, recv, from, to, bytes })
                    }
                    None => out.unmatched_recvs.push(recv),
                }
            }
        }
    }
    out.unmatched_sends = pending.values().flatten().map(|&(id, _)| id).collect();
    out.unmatched_sends.sort();
    out
}

/// A random but *causally valid* two-to-six-process message trace: messages
/// are generated on a true timeline, then per-process clock skews corrupt
/// the recorded timestamps (which is exactly how real violations arise).
pub fn arb_skewed_trace() -> impl Strategy<Value = (Trace, i64)> {
    arb_skewed_trace_with_barriers(None)
}

/// [`arb_skewed_trace`] with a world barrier after every `barrier_every`-th
/// message, entered and left on the same true timeline.
pub fn arb_skewed_trace_with_barriers(
    barrier_every: Option<usize>,
) -> impl Strategy<Value = (Trace, i64)> {
    (
        2usize..6,
        5usize..40,
        prop::collection::vec(-300i64..300, 6),
        1i64..20,
    )
        .prop_map(move |(procs, msgs, skews, lmin_us)| {
            let mut trace = Trace::for_ranks(procs);
            let mut now = vec![0i64; procs];
            for m in 0..msgs {
                let from = m % procs;
                let to = (m * 7 + 1) % procs;
                if from == to {
                    continue;
                }
                let send_true = now[from] + 10 + (m as i64 * 13) % 50;
                now[from] = send_true;
                let recv_true = send_true.max(now[to]) + lmin_us + (m as i64 * 5) % 30;
                now[to] = recv_true;
                trace.procs[from].push(
                    Time::from_us(send_true + skews[from]),
                    EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 8 },
                );
                trace.procs[to].push(
                    Time::from_us(recv_true + skews[to]),
                    EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 8 },
                );
                if barrier_every.is_some_and(|every| m % every == every - 1) {
                    let (op, comm, root, bytes) = (CollOp::Barrier, CommId::WORLD, None, 0);
                    let last_in = *now.iter().max().expect("non-empty") + 1 + (m as i64 * 3) % 7;
                    for (p, now_p) in now.iter_mut().enumerate() {
                        let begin = (*now_p + 1).max(last_in - (p as i64 * 11) % 9);
                        *now_p = last_in + lmin_us + (p as i64 * 5) % 4;
                        trace.procs[p].push(
                            Time::from_us(begin + skews[p]),
                            EventKind::CollBegin { op, comm, root, bytes },
                        );
                        trace.procs[p].push(
                            Time::from_us(*now_p + skews[p]),
                            EventKind::CollEnd { op, comm, root, bytes },
                        );
                    }
                }
            }
            (trace, lmin_us)
        })
}
