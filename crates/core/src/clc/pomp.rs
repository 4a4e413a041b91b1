//! CLC extension to shared-memory (OpenMP/POMP) traces.
//!
//! The paper names this as an open limitation of the CLC (§VI: "current
//! limitations … include the non-observance of shared-memory clock
//! conditions related to OpenMP constructs"). This module closes it: the
//! POMP happened-before rules are expressed as generic timing constraints —
//!
//! * every event of a parallel region happens after the **fork**,
//! * the **join** happens after every event of the region,
//! * every barrier **exit** happens after every barrier **enter**,
//!
//! — and lowered as the edges of the graph the message CLC's forward
//! kernel walks, which enforces them. Because threads of one SMP node
//! communicate through shared memory, the minimum "latency" of these
//! constraints is the synchronisation cost `d_min`, typically tens to
//! hundreds of nanoseconds.

use super::columnar::{check_mu, forward_pass_csr};
use super::graph::DepGraph;
use super::{commit, proc_lens, ClcError, ClcParams, ClcReport};
use simclock::Dur;
use tracefmt::{match_parallel_regions, EventId, Trace, TraceColumns};

/// One happened-before constraint: `time(to) ≥ time(from) + bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraint {
    /// The earlier event.
    pub from: EventId,
    /// The later event.
    pub to: EventId,
    /// Minimum separation.
    pub bound: Dur,
}

/// Extract the POMP constraints from a thread-team trace.
///
/// `d_min` is the minimum shared-memory synchronisation latency (the
/// shared-memory analogue of the paper's `l_min`).
pub fn pomp_constraints(trace: &Trace, d_min: Dur) -> Result<Vec<Constraint>, ClcError> {
    let regions = match_parallel_regions(trace).map_err(ClcError::BadCollectives)?;
    let mut out = Vec::new();
    for reg in &regions {
        let mut barrier_enters = Vec::new();
        let mut barrier_exits = Vec::new();
        for th in &reg.threads {
            // Fork precedes the thread's first event; the thread's last
            // event precedes the join. (Interior events are ordered by the
            // per-thread monotonicity the forward pass maintains anyway.)
            let first = EventId::new(th.proc, th.first as usize);
            let last = EventId::new(th.proc, th.last as usize);
            if first != reg.fork {
                out.push(Constraint { from: reg.fork, to: first, bound: d_min });
            }
            if last != reg.join {
                out.push(Constraint { from: last, to: reg.join, bound: d_min });
            }
            if let Some(be) = th.barrier_enter {
                barrier_enters.push(be);
            }
            if let Some(bx) = th.barrier_exit {
                barrier_exits.push(bx);
            }
        }
        // Barrier overlap: no thread leaves before every thread entered.
        for &exit in &barrier_exits {
            for &enter in &barrier_enters {
                if enter.p() != exit.p() {
                    out.push(Constraint { from: enter, to: exit, bound: d_min });
                }
            }
        }
    }
    Ok(out)
}

/// Apply the CLC forward pass to an arbitrary constraint set.
///
/// The constraints are lowered as the edges of a [`DepGraph`] — an event's
/// in-edges in list order — and corrected by the forward kernel the message
/// CLC runs, in saturating arithmetic. Forward amortization only:
/// `params.backward` and `params.backward_window_factor` are not read.
///
/// Constraints must be acyclic when combined with per-timeline program
/// order (true for POMP rules and any happened-before relation); a cycle
/// yields [`ClcError::CyclicTrace`], an endpoint that is no event of
/// `trace` [`ClcError::BadParams`].
pub fn controlled_logical_clock_generic(
    trace: &mut Trace,
    constraints: &[Constraint],
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    check_mu(params.mu)?;
    let edges = constraints.iter().map(|c| (c.from, c.to, c.bound));
    let graph = DepGraph::try_from_edges(edges, &proc_lens(trace))
        .map_err(|e| ClcError::BadParams(format!("constraint list: {e}")))?;
    let mut cols = TraceColumns::gather(trace);
    let report = forward_pass_csr(&mut cols, &graph, params.mu)?;
    Ok(commit(&cols, trace, report))
}

/// Restore the POMP shared-memory clock conditions in an OpenMP trace:
/// [`pomp_constraints`] through [`controlled_logical_clock_generic`], so
/// forward amortization only.
pub fn controlled_logical_clock_pomp(
    trace: &mut Trace,
    d_min: Dur,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    let constraints = pomp_constraints(trace, d_min)?;
    controlled_logical_clock_generic(trace, &constraints, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::fixtures::assert_untouched;
    use simclock::Time;
    use tracefmt::{check_pomp, EventKind, RegionId};

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    /// A 2-thread region with every POMP rule violated by skewed clocks:
    /// worker events before the fork, barrier non-overlap, events after the
    /// join.
    fn broken_trace() -> Trace {
        let r = RegionId(0);
        let mut t = Trace::for_threads(2);
        // Master (thread 0), "correct" clock.
        t.procs[0].push(us(100), EventKind::Fork { region: r });
        t.procs[0].push(us(101), EventKind::Enter { region: r });
        t.procs[0].push(us(150), EventKind::Exit { region: r });
        t.procs[0].push(us(150), EventKind::BarrierEnter { region: r });
        t.procs[0].push(us(181), EventKind::BarrierExit { region: r });
        t.procs[0].push(us(182), EventKind::Join { region: r });
        // Worker (thread 1), clock 90 µs behind: everything looks early.
        t.procs[1].push(us(12), EventKind::Enter { region: r });
        t.procs[1].push(us(90), EventKind::Exit { region: r });
        t.procs[1].push(us(90), EventKind::BarrierEnter { region: r });
        t.procs[1].push(us(91), EventKind::BarrierExit { region: r });
        t
    }

    #[test]
    fn pomp_clc_restores_all_rules() {
        let mut t = broken_trace();
        let regions = match_parallel_regions(&t).unwrap();
        let before = check_pomp(&t, &regions);
        assert!(before.any_violations > 0, "fixture must violate");

        let d_min = Dur::from_ns(100);
        let rep = controlled_logical_clock_pomp(&mut t, d_min, &ClcParams::default()).unwrap();
        assert!(rep.n_jumps() > 0);

        let regions = match_parallel_regions(&t).unwrap();
        let after = check_pomp(&t, &regions);
        assert_eq!(after.any_violations, 0, "{after:?}");
        assert!(t.is_locally_monotone());
    }

    #[test]
    fn constraint_extraction_shapes() {
        let t = broken_trace();
        let cs = pomp_constraints(&t, Dur::from_ns(100)).unwrap();
        // fork -> first event of each thread (master's first is its Enter),
        // last events -> join, and 2 cross-thread barrier pairs... plus the
        // master's own fork->enter and exit->join edges.
        assert!(cs.len() >= 5, "{} constraints", cs.len());
        // Every constraint's endpoints are valid events.
        for c in &cs {
            assert!(c.from.i() < t.procs[c.from.p()].events.len());
            assert!(c.to.i() < t.procs[c.to.p()].events.len());
        }
    }

    #[test]
    fn consistent_trace_untouched() {
        let r = RegionId(0);
        let mut t = Trace::for_threads(2);
        t.procs[0].push(us(0), EventKind::Fork { region: r });
        t.procs[0].push(us(10), EventKind::BarrierEnter { region: r });
        t.procs[0].push(us(30), EventKind::BarrierExit { region: r });
        t.procs[0].push(us(40), EventKind::Join { region: r });
        t.procs[1].push(us(5), EventKind::Enter { region: r });
        t.procs[1].push(us(12), EventKind::Exit { region: r });
        t.procs[1].push(us(12), EventKind::BarrierEnter { region: r });
        t.procs[1].push(us(31), EventKind::BarrierExit { region: r });
        let before = t.clone();
        let rep =
            controlled_logical_clock_pomp(&mut t, Dur::from_ns(100), &ClcParams::default())
                .unwrap();
        assert_eq!(rep.n_jumps(), 0);
        for p in 0..2 {
            assert_eq!(t.procs[p].events, before.procs[p].events);
        }
    }

    #[test]
    fn repairs_a_simulated_openmp_run() {
        // End-to-end: the Fig. 8 benchmark at 4 threads is full of
        // violations; the POMP CLC must clear them all.
        let shape = simclock::Platform::ItaniumSmp.shape(1);
        let profile = simclock::Platform::ItaniumSmp
            .clock_profile(simclock::TimerKind::CycleCounter, 60.0);
        let clocks =
            simclock::ClockEnsemble::build(shape, simclock::ClockDomain::PerChip, &profile, 3);
        // (mpisim is a dev-dependency of clocksync? No — construct manually.)
        // Build a small synthetic multi-region trace instead, with per-chip
        // clock offsets applied by hand.
        let r = RegionId(0);
        let mut t = Trace::for_threads(4);
        let offs: Vec<Dur> = (0..4)
            .map(|chip| {
                let c = shape.core(0, chip, 0);
                clocks.ideal_at(c, Time::ZERO) - Time::ZERO
            })
            .collect();
        for k in 0..20i64 {
            let base = k * 1000;
            t.procs[0].push(us(base) + offs[0], EventKind::Fork { region: r });
            #[allow(clippy::needless_range_loop)]
            for th in 0..4usize {
                t.procs[th].push(us(base + 2) + offs[th], EventKind::Enter { region: r });
                t.procs[th].push(us(base + 50) + offs[th], EventKind::Exit { region: r });
                t.procs[th].push(us(base + 50) + offs[th], EventKind::BarrierEnter { region: r });
                t.procs[th].push(us(base + 52) + offs[th], EventKind::BarrierExit { region: r });
            }
            t.procs[0].push(us(base + 53) + offs[0], EventKind::Join { region: r });
        }
        let regions = match_parallel_regions(&t).unwrap();
        let before = check_pomp(&t, &regions);
        assert!(before.any_violations > 0, "chip offsets should violate");
        controlled_logical_clock_pomp(&mut t, Dur::from_ns(100), &ClcParams::default())
            .unwrap();
        let regions = match_parallel_regions(&t).unwrap();
        let after = check_pomp(&t, &regions);
        assert_eq!(after.any_violations, 0, "{after:?}");
    }

    fn local_events(times: &[&[i64]]) -> Trace {
        let mut t = Trace::for_ranks(times.len());
        for (p, col) in times.iter().enumerate() {
            for &ps in *col {
                t.procs[p].push(Time::from_ps(ps), EventKind::Enter { region: RegionId(0) });
            }
        }
        t
    }

    /// A cycle between two timelines, found after the first constraint has
    /// already moved `(1, 0)`: the error is typed and the trace is written
    /// on `Ok` only.
    #[test]
    fn cyclic_constraints_detected() {
        let mut t = local_events(&[&[100, 110], &[50, 60]]);
        let before = t.clone();
        let c = |from: (usize, usize), to: (usize, usize)| Constraint {
            from: EventId::new(from.0, from.1),
            to: EventId::new(to.0, to.1),
            bound: Dur::from_ps(7),
        };
        let cs = [c((0, 0), (1, 0)), c((1, 1), (0, 1)), c((0, 1), (1, 1))];
        let err = controlled_logical_clock_generic(&mut t, &cs, &ClcParams::default());
        assert_eq!(err.unwrap_err(), ClcError::CyclicTrace);
        assert_untouched(&t, &before);
        // Without the cycle the same list does move (1, 0).
        controlled_logical_clock_generic(&mut t, &cs[..1], &ClcParams::default()).unwrap();
        assert_eq!(t.procs[1].events[0].time, Time::from_ps(107));
    }

    /// Timestamps at the `i64` edges: the local gap, the remote bound and
    /// the jump size all overflow plain `i64` arithmetic. The kernel
    /// saturates; nothing panics, nothing wraps.
    #[test]
    fn i64_edge_timestamps_saturate() {
        let mut t = local_events(&[&[i64::MIN + 5, i64::MAX - 5], &[i64::MIN + 5, i64::MAX - 5]]);
        let cs = [Constraint {
            from: EventId::new(0, 1),
            to: EventId::new(1, 0),
            bound: Dur::from_ns(100),
        }];
        let rep = controlled_logical_clock_generic(&mut t, &cs, &ClcParams::default()).unwrap();
        assert_eq!(rep.n_jumps(), 1);
        assert_eq!(rep.max_jump, Dur::MAX);
        assert_eq!(t.procs[0].events[1].time, Time::from_ps(i64::MAX - 5));
        assert_eq!(t.procs[1].events[0].time, Time::MAX);
        assert_eq!(t.procs[1].events[1].time, Time::MAX);
        assert!(t.is_locally_monotone());
    }

    /// A constraint naming an event the trace does not have — past its
    /// timeline's end, or on a timeline that does not exist — is the
    /// caller's mistake, reported as such: not a cycle, not a panic.
    #[test]
    fn out_of_range_endpoints_are_a_typed_error() {
        let mut t = local_events(&[&[10, 20], &[10, 20]]);
        let before = t.clone();
        for (from, to) in [((0, 2), (1, 0)), ((1, 0), (0, 2)), ((2, 0), (1, 0)), ((1, 0), (7, 0))] {
            let cs = [Constraint {
                from: EventId::new(from.0, from.1),
                to: EventId::new(to.0, to.1),
                bound: Dur::from_ns(1),
            }];
            let err = controlled_logical_clock_generic(&mut t, &cs, &ClcParams::default());
            assert!(matches!(err, Err(ClcError::BadParams(_))), "{from:?} -> {to:?}: {err:?}");
            assert_untouched(&t, &before);
        }
    }
}
