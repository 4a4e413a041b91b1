//! CLC extension to shared-memory (OpenMP/POMP) traces.
//!
//! The paper names this as an open limitation of the CLC (§VI: "current
//! limitations … include the non-observance of shared-memory clock
//! conditions related to OpenMP constructs"). This module closes it: the
//! POMP happened-before rules of a thread team —
//!
//! * every event of a parallel region happens after the **fork**,
//! * the **join** happens after every event of the region,
//! * every barrier **exit** happens after every other thread's barrier
//!   **enter**,
//!
//! — are lowered into the graph the message CLC's forward kernel walks,
//! which enforces them. Fork → first event and last event → join are two
//! stored edges per thread (per-thread monotonicity, which the forward pass
//! maintains anyway, orders the interior). A team barrier is exactly the
//! N-to-N collective of the paper's §V mapping, so each region's barrier is
//! one N-to-N instance of the collective member table — one member row per
//! thread, `BarrierEnter` its begin and `BarrierExit` its end — which the
//! forward pass evaluates once per instance instead of walking `k·(k−1)`
//! edges. Because threads of one SMP node communicate through shared
//! memory, the minimum "latency" of every rule is the synchronisation cost
//! `d_min`, typically tens to hundreds of nanoseconds.

use super::columnar::controlled_logical_clock_columnar_csr;
use super::graph::DepGraph;
use super::{proc_lens, ClcError, ClcParams, ClcReport};
use simclock::Dur;
use std::sync::Arc;
use tracefmt::{
    match_parallel_regions, CollMember, CollOp, CollectiveInstance, CommId, EventId, MessageTable,
    Trace, TraceColumns, UniformLatency,
};

/// Lower the POMP rules of a thread-team trace into the dependency graph
/// the CLC's forward kernel walks.
///
/// `d_min` is the minimum shared-memory synchronisation latency (the
/// shared-memory analogue of the paper's `l_min`). Fork and join rules are
/// stored edges; each region's barrier is one N-to-N collective instance,
/// so [`DepGraph::n_edges`] still counts its `k·(k−1)` logical edges while
/// the graph holds `k` member rows. A region in which some thread records
/// a barrier exit but no barrier enter has no member row to give that
/// thread: its barrier rules stay stored edges, every enter before every
/// other thread's exit.
pub fn pomp_constraints(trace: &Trace, d_min: Dur) -> Result<DepGraph, ClcError> {
    let regions = match_parallel_regions(trace).map_err(ClcError::BadCollectives)?;
    let bound = d_min.as_ps();
    let mut edges = Vec::new();
    let mut barriers = Vec::new();
    for reg in &regions {
        for th in &reg.threads {
            let first = EventId::new(th.proc, th.first as usize);
            let last = EventId::new(th.proc, th.last as usize);
            if first != reg.fork {
                edges.push((reg.fork, first, bound));
            }
            if last != reg.join {
                edges.push((last, reg.join, bound));
            }
        }
        let members: Option<Vec<CollMember>> = reg
            .threads
            .iter()
            .map(|th| {
                let rank = trace.procs[th.proc].location.rank;
                Some(CollMember { rank, begin: th.barrier_enter?, end: th.barrier_exit? })
            })
            .collect();
        match members {
            Some(members) => barriers.push(CollectiveInstance {
                op: CollOp::Barrier,
                comm: CommId::WORLD,
                root: None,
                members,
            }),
            None => {
                for exit in reg.threads.iter().filter_map(|th| th.barrier_exit) {
                    for enter in reg.threads.iter().filter_map(|th| th.barrier_enter) {
                        if enter.p() != exit.p() {
                            edges.push((enter, exit, bound));
                        }
                    }
                }
            }
        }
    }
    let (lens, lmin) = (proc_lens(trace), UniformLatency(d_min));
    MessageTable::build(&lens, &[], &lmin)
        .and_then(|none| DepGraph::lower(Arc::new(none), &edges, &barriers, &lens, &lmin))
        .map_err(|e| ClcError::BadCollectives(e.to_string()))
}

/// Restore the POMP shared-memory clock conditions in an OpenMP trace: the
/// forward pass of the CLC over [`pomp_constraints`], in saturating
/// arithmetic. Forward amortization only: `params.backward` and
/// `params.backward_window_factor` are not read. A team whose rules
/// contradict its threads' program order is [`ClcError::CyclicTrace`].
pub fn controlled_logical_clock_pomp(
    trace: &mut Trace,
    d_min: Dur,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    let graph = pomp_constraints(trace, d_min)?;
    let mut cols = TraceColumns::gather(trace);
    let forward_only = ClcParams { backward: false, ..*params };
    let report = controlled_logical_clock_columnar_csr(&mut cols, &graph, &forward_only)?;
    cols.scatter_into(trace);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::fixtures::assert_untouched;
    use simclock::Time;
    use tracefmt::{check_pomp, EventKind, RegionId};

    const R: RegionId = RegionId(0);
    const FORK: EventKind = EventKind::Fork { region: R };
    const JOIN: EventKind = EventKind::Join { region: R };
    const ENTER: EventKind = EventKind::Enter { region: R };
    const EXIT: EventKind = EventKind::Exit { region: R };
    const B_IN: EventKind = EventKind::BarrierEnter { region: R };
    const B_OUT: EventKind = EventKind::BarrierExit { region: R };

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    /// A team trace: each `(thread, µs, kind)` appended to its timeline.
    fn team(threads: usize, events: &[(usize, i64, EventKind)]) -> Trace {
        let mut t = Trace::for_threads(threads);
        for &(p, at, kind) in events {
            t.procs[p].push(us(at), kind);
        }
        t
    }

    /// A 2-thread region with every POMP rule violated by skewed clocks:
    /// worker events before the fork, barrier non-overlap, events after the
    /// join. The master's clock is right, the worker's 90 µs behind.
    fn broken_trace() -> Trace {
        team(2, &[
            (0, 100, FORK), (0, 101, ENTER), (0, 150, EXIT), (0, 150, B_IN), (0, 181, B_OUT),
            (0, 182, JOIN),
            (1, 12, ENTER), (1, 90, EXIT), (1, 90, B_IN), (1, 91, B_OUT),
        ])
    }

    fn pomp_violations(t: &Trace) -> usize {
        check_pomp(t, &match_parallel_regions(t).unwrap()).any_violations
    }

    #[test]
    fn pomp_clc_restores_all_rules() {
        let mut t = broken_trace();
        assert!(pomp_violations(&t) > 0, "fixture must violate");
        let d_min = Dur::from_ns(100);
        let rep = controlled_logical_clock_pomp(&mut t, d_min, &ClcParams::default()).unwrap();
        assert!(rep.n_jumps() > 0);
        assert_eq!(pomp_violations(&t), 0);
        assert!(t.is_locally_monotone());
    }

    /// Fork → first and last → join are stored, two per thread; the barrier
    /// is one member row per thread, counted as its 2 logical edges.
    #[test]
    fn a_region_lowers_to_two_edges_and_one_member_row_per_thread() {
        let t = broken_trace();
        let g = pomp_constraints(&t, Dur::from_ns(100)).unwrap();
        let coll = g.coll_table();
        assert_eq!((coll.n_instances(), coll.n_members()), (1, 2));
        assert_eq!(g.n_edges(), 2 * 2 + 2);
        let inst = coll.instance(0);
        assert_eq!(inst.n_logical_by_position(), 2);
        // Begins are the barrier enters, ends the exits, in thread order.
        assert_eq!((inst.begins, inst.ends), (&[3, 8][..], &[4, 9][..]));
        let deps = |p, i| g.in_deps(EventId::new(p, i)).collect::<Vec<_>>();
        let d = Dur::from_ns(100);
        assert_eq!(deps(1, 0), [(EventId::new(0, 0), d)]);
        assert_eq!(deps(0, 5), [(EventId::new(0, 4), d), (EventId::new(1, 3), d)]);
        assert_eq!(deps(1, 3), [(EventId::new(0, 3), d)]);
    }

    #[test]
    fn consistent_trace_untouched() {
        let mut t = team(2, &[
            (0, 0, FORK), (0, 10, B_IN), (0, 30, B_OUT), (0, 40, JOIN),
            (1, 5, ENTER), (1, 12, EXIT), (1, 12, B_IN), (1, 31, B_OUT),
        ]);
        let before = t.clone();
        let rep =
            controlled_logical_clock_pomp(&mut t, Dur::from_ns(100), &ClcParams::default())
                .unwrap();
        assert_eq!(rep.n_jumps(), 0);
        assert_untouched(&t, &before);
    }

    #[test]
    fn repairs_a_simulated_openmp_run() {
        // End-to-end: the Fig. 8 benchmark at 4 threads is full of
        // violations; the POMP CLC must clear them all. A synthetic
        // multi-region trace, with per-chip clock offsets applied by hand.
        let shape = simclock::Platform::ItaniumSmp.shape(1);
        let profile = simclock::Platform::ItaniumSmp
            .clock_profile(simclock::TimerKind::CycleCounter, 60.0);
        let clocks =
            simclock::ClockEnsemble::build(shape, simclock::ClockDomain::PerChip, &profile, 3);
        let mut t = Trace::for_threads(4);
        let offs: Vec<Dur> = (0..4)
            .map(|chip| {
                let c = shape.core(0, chip, 0);
                clocks.ideal_at(c, Time::ZERO) - Time::ZERO
            })
            .collect();
        for k in 0..20i64 {
            let base = k * 1000;
            t.procs[0].push(us(base) + offs[0], FORK);
            #[allow(clippy::needless_range_loop)]
            for th in 0..4usize {
                for (at, kind) in [(2, ENTER), (50, EXIT), (50, B_IN), (52, B_OUT)] {
                    t.procs[th].push(us(base + at) + offs[th], kind);
                }
            }
            t.procs[0].push(us(base + 53) + offs[0], JOIN);
        }
        assert!(pomp_violations(&t) > 0, "chip offsets should violate");
        controlled_logical_clock_pomp(&mut t, Dur::from_ns(100), &ClcParams::default())
            .unwrap();
        assert_eq!(pomp_violations(&t), 0);
    }

    /// Two regions of a 3-thread team. In the first, thread 2 records its
    /// barrier exit but no enter: no member row can stand for it, so that
    /// barrier stays four stored edges. The second is an ordinary member
    /// table instance. Both are repaired, and the output — timestamps and
    /// jump sequence — is what the all-stored-edges lowering produced,
    /// recorded before the barriers became member rows.
    #[test]
    fn a_thread_without_a_barrier_enter_keeps_its_region_on_stored_edges() {
        let mut t = team(3, &[
            (0, 100, FORK), (0, 101, ENTER), (0, 140, B_IN), (0, 160, B_OUT), (0, 161, JOIN),
            (1, 62, ENTER), (1, 95, B_IN), (1, 121, B_OUT),
            (2, 133, ENTER), (2, 189, B_OUT),
            (0, 200, FORK), (0, 201, ENTER), (0, 230, B_IN), (0, 250, B_OUT), (0, 251, JOIN),
            (1, 162, ENTER), (1, 185, B_IN), (1, 211, B_OUT),
            (2, 233, ENTER), (2, 290, B_IN), (2, 300, B_OUT),
        ]);
        assert_eq!(pomp_violations(&t), 2);

        let g = pomp_constraints(&t, Dur::from_ns(100)).unwrap();
        assert_eq!((g.coll_table().n_instances(), g.coll_table().n_members()), (1, 3));
        // 2 × 2 × 3 fork/join edges, 4 stored barrier edges, 3 × 2 logical.
        assert_eq!(g.n_edges(), 12 + 4 + 6);
        // Stored in the first region, member rows in the second.
        let n_deps = |p: usize, i: usize| g.in_deps(EventId::new(p, i)).count();
        assert_eq!((n_deps(2, 1), n_deps(0, 3), n_deps(0, 8)), (2, 1, 2));

        let rep = controlled_logical_clock_pomp(&mut t, Dur::from_ns(100), &ClcParams::default())
            .unwrap();
        assert_eq!(pomp_violations(&t), 0);
        // Everything below in ns.
        let times = |p: usize| t.procs[p].events.iter().map(|e| e.time).collect::<Vec<_>>();
        let at = |ns: &[i64]| ns.iter().map(|&n| Time::from_ns(n)).collect::<Vec<_>>();
        assert_eq!(
            times(0),
            at(&[100_000, 101_000, 140_000, 160_000, 189_100, 227_710, 228_700, 257_410, 290_100, 300_100])
        );
        assert_eq!(times(1), at(&[100_100, 132_770, 158_510, 227_810, 250_580, 290_100]));
        assert_eq!(times(2), at(&[133_000, 189_000, 233_000, 290_000, 300_000]));
        let jumps: Vec<_> = rep.jumps.iter().map(|j| (j.event.p(), j.event.i(), j.size)).collect();
        let ns = Dur::from_ns;
        assert_eq!(
            jumps,
            [(1, 0, ns(38_100)), (0, 4, ns(28_100)), (1, 3, ns(28_710)), (0, 8, ns(12_890)), (1, 5, ns(13_780)), (0, 9, ns(9_010))]
        );
        assert_eq!((rep.events_moved, rep.max_jump), (12, Dur::from_ns(38_100)));
    }

    /// A master that records its region's barrier after the join asks the
    /// join to wait for an event behind it: a cycle, reported typed, and
    /// the trace is written on `Ok` only.
    #[test]
    fn rules_against_program_order_are_a_typed_cycle() {
        let mut t = team(2, &[
            (0, 10, FORK), (0, 20, JOIN), (0, 15, B_IN), (0, 16, B_OUT),
            (1, 5, B_IN), (1, 6, B_OUT),
        ]);
        let before = t.clone();
        let err = controlled_logical_clock_pomp(&mut t, Dur::from_ns(100), &ClcParams::default());
        assert_eq!(err.unwrap_err(), ClcError::CyclicTrace);
        assert_untouched(&t, &before);
    }

    /// A team at the `i64` edges: the master within `d_min` of the top, the
    /// worker at the bottom. Fork → first, the barrier's aggregated bounds
    /// and the worker's jump all overflow plain `i64` arithmetic; the kernel
    /// and the member-table evaluation saturate, nothing panics, nothing
    /// wraps.
    #[test]
    fn i64_edge_timestamps_saturate() {
        let mut t = Trace::for_threads(2);
        let (top, bottom) = (i64::MAX, i64::MIN);
        for (p, ps, kind) in [
            (0, top - 10, FORK), (0, top - 9, B_IN), (0, top - 8, B_OUT), (0, top - 7, JOIN),
            (1, bottom + 5, B_IN), (1, bottom + 6, B_OUT),
        ] {
            t.procs[p].push(Time::from_ps(ps), kind);
        }
        let rep = controlled_logical_clock_pomp(&mut t, Dur::from_ns(100), &ClcParams::default())
            .unwrap();
        assert_eq!((rep.n_jumps(), rep.max_jump), (2, Dur::MAX));
        let times = |p: usize| t.procs[p].events.iter().map(|e| e.time).collect::<Vec<_>>();
        assert_eq!(times(0), [Time::from_ps(top - 10), Time::MAX, Time::MAX, Time::MAX]);
        assert_eq!(times(1), [Time::MAX, Time::MAX]);
    }
}
