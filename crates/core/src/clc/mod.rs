//! The Controlled Logical Clock (CLC) algorithm.
//!
//! Rabenseifner's CLC ([28], [29] in the paper) retroactively restores the
//! clock condition in an event trace: whenever a receive appears earlier
//! than its send plus the minimum message latency, the receive is moved
//! forward in time. To preserve the *lengths of intervals* between local
//! events — the quantity performance analysis actually consumes — the
//! correction is amortized:
//!
//! * **forward amortization** — events following a corrected event are
//!   dragged forward too, by an amount that decays as local time passes
//!   (controlled by the amortization factor `μ`: the corrected clock always
//!   advances at least `μ ×` the original interval);
//! * **backward amortization** — events *preceding* the correction are
//!   shifted forward along a linear ramp inside a bounded window, so the
//!   jump does not appear as a sudden local gap; each shifted event is
//!   clamped so that no message it sends becomes violated.
//!
//! The extension of [30] maps collective operations onto point-to-point
//! semantics (1-to-N, N-to-1, N-to-N) so realistic MPI traces can be
//! corrected. The replay-based parallel implementation the paper cites
//! as [31] is not part of this crate (DESIGN §9.2).
//!
//! # One walker, several lowerings
//!
//! How a constraint set becomes corrected timestamps is decided in one
//! place: the kernels of `columnar` over a [`graph::DepGraph`]. The
//! variants of the algorithm differ only in *which happened-before edges
//! carry which minimum latency*, so each is a lowering onto that graph:
//!
//! * [`controlled_logical_clock`] — matched messages as stored edges,
//!   collectives as the member table the §V flavour mapping is derived from;
//! * [`pomp`] — fork/join rules of a thread team as stored edges, its
//!   barriers as N-to-N member rows, forward pass only.
//!
//! **Dispatch order.** The forward pass visits timelines round-robin and,
//! on each, corrects events in program order until one must wait. An event
//! waits on its in-edges in a fixed order — a receive on its one matched
//! send, a collective end on the begins of the other members in increasing
//! member position (restricted by flavour), a POMP event on its stored
//! edges in lowering order — and the pass leaves the timeline at the
//! *first* producer not yet corrected. That schedule fixes the order jumps
//! are discovered in, so every engine that keeps it (the batch kernel, the
//! windowed engine, the map-based reference under `tests/common/`) reports
//! the same [`Jump`] sequence, not just the same timestamps. A round in
//! which no timeline advances is a dependency cycle:
//! [`ClcError::CyclicTrace`].
//!
//! Every function here rewrites its trace only when it returns `Ok`.

pub(crate) mod columnar;
pub mod graph;
pub mod pomp;

use simclock::Dur;
use tracefmt::{Capture, EventId, MinLatency, Trace, TraceColumns};

/// Tuning of the CLC.
#[derive(Debug, Clone, Copy)]
pub struct ClcParams {
    /// Amortization factor `μ ∈ (0, 1]`: the corrected clock advances at
    /// least `μ ×` each original local interval. `1.0` disables forward
    /// decay (corrections persist as constant shifts); `0.99` lets a 100 µs
    /// correction fade after ≈10 ms of local time.
    pub mu: f64,
    /// Apply backward amortization.
    pub backward: bool,
    /// Backward window length as a multiple of the jump size (window
    /// `W = factor × Δ` of corrected local time before the jump).
    pub backward_window_factor: f64,
}

impl Default for ClcParams {
    fn default() -> Self {
        ClcParams {
            mu: 0.99,
            backward: true,
            backward_window_factor: 50.0,
        }
    }
}

/// One correction applied by the forward pass.
#[derive(Debug, Clone, Copy)]
pub struct Jump {
    /// The corrected (receive or collective-end) event.
    pub event: EventId,
    /// How far the event had to move beyond its amortized position.
    pub size: Dur,
}

/// Statistics of a CLC application.
#[derive(Debug, Clone, Default)]
pub struct ClcReport {
    /// Corrections applied (clock-condition violations found).
    pub jumps: Vec<Jump>,
    /// Largest single correction.
    pub max_jump: Dur,
    /// Events whose timestamp changed at all.
    pub events_moved: usize,
    /// Events inspected.
    pub events_total: usize,
}

impl ClcReport {
    /// Number of corrections.
    pub fn n_jumps(&self) -> usize {
        self.jumps.len()
    }
}

/// CLC failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClcError {
    /// The message/collective structure contains a dependency cycle
    /// (malformed trace).
    CyclicTrace,
    /// Collective reconstruction failed.
    BadCollectives(String),
    /// Parameters out of range.
    BadParams(String),
}

impl std::fmt::Display for ClcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClcError::CyclicTrace => write!(f, "cyclic dependency structure in trace"),
            ClcError::BadCollectives(s) => write!(f, "collective reconstruction failed: {s}"),
            ClcError::BadParams(s) => write!(f, "bad CLC parameters: {s}"),
        }
    }
}

impl std::error::Error for ClcError {}

/// Apply the CLC to `trace` in place, returning correction statistics.
///
/// `lmin` supplies the minimum latency between rank pairs (the paper's
/// `l_min`); the trace's timestamps should already be pre-synchronised
/// (offset alignment or linear interpolation) — the CLC thrives on weak
/// pre-synchronisation (paper §V).
///
/// ```
/// use clocksync::{controlled_logical_clock, ClcParams};
/// use simclock::{Dur, Time};
/// use tracefmt::{EventKind, Rank, Tag, Trace, UniformLatency};
///
/// // A message received "before" it was sent — the paper's Fig. 2(b).
/// let mut trace = Trace::for_ranks(2);
/// trace.procs[0].push(Time::from_us(100),
///     EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
/// trace.procs[1].push(Time::from_us(90),
///     EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
///
/// let lmin = UniformLatency(Dur::from_us(4));
/// let report = controlled_logical_clock(&mut trace, &lmin, &ClcParams::default()).unwrap();
/// assert_eq!(report.n_jumps(), 1);
/// // The receive was moved to send + l_min.
/// assert_eq!(trace.procs[1].events[0].time, Time::from_us(104));
/// ```
pub fn controlled_logical_clock(
    trace: &mut Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    let graph = lower(trace, lmin)?;
    let mut cols = TraceColumns::gather(trace);
    let report = columnar::controlled_logical_clock_columnar_csr(&mut cols, &graph, params)?;
    cols.scatter_into(trace);
    Ok(report)
}

/// Reconstruct the trace's messages and collectives and lower them into
/// the graph the kernels walk, `lmin` baked into its edges. Matching reads
/// event order and kinds only, so the graph outlives any timestamp rewrite.
fn lower(trace: &Trace, lmin: &dyn MinLatency) -> Result<graph::DepGraph, ClcError> {
    let (matching, instances) = Capture::of(trace).finish();
    let instances = instances.map_err(ClcError::BadCollectives)?;
    graph::DepGraph::try_build(&matching, &instances, &proc_lens(trace), lmin)
        .map_err(|e| ClcError::BadCollectives(e.to_string()))
}

pub(crate) fn proc_lens(trace: &Trace) -> Vec<usize> {
    trace.procs.iter().map(|p| p.events.len()).collect()
}

/// Write corrected columns back into the trace — until here still holding
/// the timestamps the run started from — and count against those.
pub(crate) fn commit(cols: &TraceColumns, trace: &mut Trace, mut report: ClcReport) -> ClcReport {
    report.events_total = cols.n_events();
    report.events_moved = trace
        .iter_events()
        .zip(cols.flat())
        .filter(|((_, e), &corrected)| e.time.as_ps() != corrected)
        .count();
    cols.scatter_into(trace);
    report
}

/// Deterministic test traces shared by the CLC engine test suites.
#[cfg(test)]
pub(crate) mod fixtures {
    use simclock::Time;
    use tracefmt::{CollOp, CommId, EventKind, Rank, Tag, Trace};

    /// Two timelines whose receives wait on each other's later sends, behind
    /// a late send that forces a jump on timeline 1 first: a forward pass
    /// finds the cycle with a correction already written.
    pub(crate) fn cyclic_after_a_jump() -> Trace {
        let send = |to, tag| EventKind::Send { to: Rank(to), tag: Tag(tag), bytes: 0 };
        let recv = |from, tag| EventKind::Recv { from: Rank(from), tag: Tag(tag), bytes: 0 };
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(Time::from_us(100), send(1, 0));
        t.procs[0].push(Time::from_us(110), recv(1, 1));
        t.procs[0].push(Time::from_us(120), send(1, 2));
        t.procs[1].push(Time::from_us(50), recv(0, 0));
        t.procs[1].push(Time::from_us(60), recv(0, 2));
        t.procs[1].push(Time::from_us(70), send(0, 1));
        t
    }

    /// Every event record of `t` is what it is in `before`.
    pub(crate) fn assert_untouched(t: &Trace, before: &Trace) {
        for (got, was) in t.procs.iter().zip(&before.procs) {
            assert_eq!(got.events, was.events);
        }
    }

    /// Mixed p2p + collective ring trace with injected per-proc skew:
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::Time;
    use tracefmt::{
        check_collectives, check_p2p, CollOp, CommId, EventKind, Rank, RegionId, Tag,
        UniformLatency,
    };

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000)); // 4 µs

    fn assert_condition_holds(trace: &Trace) {
        let (m, insts) = Capture::of(trace).finish();
        let r = check_p2p(trace, &m, &LMIN);
        assert!(r.violations.is_empty(), "p2p violations remain: {r:?}");
        let insts = insts.unwrap();
        let c = check_collectives(trace, &insts, &LMIN);
        assert_eq!(c.logical_violated, 0, "collective violations remain");
    }

    #[test]
    fn consistent_trace_is_untouched() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(0), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(10), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        let before = t.clone();
        let rep = controlled_logical_clock(&mut t, &LMIN, &ClcParams::default()).unwrap();
        assert_eq!(rep.n_jumps(), 0);
        assert_eq!(rep.events_moved, 0);
        assert_eq!(t.procs[0].events, before.procs[0].events);
        assert_eq!(t.procs[1].events, before.procs[1].events);
    }

    #[test]
    fn reversed_message_is_repaired() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(100), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(90), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(95), EventKind::Enter { region: RegionId(0) });
        let rep = controlled_logical_clock(&mut t, &LMIN, &ClcParams::default()).unwrap();
        assert_eq!(rep.n_jumps(), 1);
        assert_condition_holds(&t);
        // The recv moved to send + l_min.
        assert_eq!(t.procs[1].events[0].time, us(104));
        // Forward amortization dragged the follower along, preserving most
        // of the 5 µs interval.
        let follow_gap = t.procs[1].events[1].time - t.procs[1].events[0].time;
        assert!(follow_gap >= Dur::from_us(4));
        assert!(follow_gap <= Dur::from_us(5));
    }

    #[test]
    fn forward_amortization_decays() {
        // After a 100 µs jump, events far in the local future should drift
        // back toward their original times at rate (1-μ).
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(1000), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(900), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        // A long run of local events, 100 µs apart.
        for i in 1..=200 {
            t.procs[1].push(us(900 + i * 100), EventKind::Enter { region: RegionId(0) });
        }
        let params = ClcParams { mu: 0.99, backward: false, ..ClcParams::default() };
        let rep = controlled_logical_clock(&mut t, &LMIN, &params).unwrap();
        assert_eq!(rep.n_jumps(), 1);
        // Jump size: corrected recv = 1004, original 900 → 104 µs.
        let first_shift = t.procs[1].events[0].time - us(900);
        assert_eq!(first_shift, Dur::from_us(104));
        // After 200 intervals of 100 µs, decay is 1% each: shift shrinks by
        // 1 µs per interval until the original time dominates.
        let last = t.procs[1].events.last().unwrap().time;
        let last_shift = last - us(900 + 200 * 100);
        assert_eq!(last_shift, Dur::ZERO, "shift should fully decay");
        // Midway (after ~50 intervals) some shift remains.
        let mid = t.procs[1].events[50].time - us(900 + 50 * 100);
        assert!(mid > Dur::ZERO);
    }

    #[test]
    fn mu_one_preserves_shift_forever() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(1000), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(900), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(10_900), EventKind::Enter { region: RegionId(0) });
        let params = ClcParams { mu: 1.0, backward: false, ..ClcParams::default() };
        controlled_logical_clock(&mut t, &LMIN, &params).unwrap();
        // Interval fully preserved: still exactly 10 ms after the recv.
        assert_eq!(
            t.procs[1].events[1].time - t.procs[1].events[0].time,
            Dur::from_ms(10)
        );
    }

    #[test]
    fn backward_amortization_smooths_the_approach() {
        let mut t = Trace::for_ranks(2);
        // Receiver has closely spaced local events before the violated recv.
        for i in 0..10 {
            t.procs[1].push(us(80 + i * 2), EventKind::Enter { region: RegionId(0) });
        }
        t.procs[0].push(us(200), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(100), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        let params = ClcParams { mu: 1.0, backward: true, backward_window_factor: 1.0 };
        controlled_logical_clock(&mut t, &LMIN, &params).unwrap();
        assert_condition_holds(&t);
        // Events just before the jump moved forward; earlier ones less so —
        // shifts are non-decreasing toward the jump.
        let shifts: Vec<Dur> = (0..10)
            .map(|i| t.procs[1].events[i].time - us(80 + (i as i64) * 2))
            .collect();
        for w in shifts.windows(2) {
            assert!(w[0] <= w[1], "backward shifts must ramp up: {shifts:?}");
        }
        assert!(*shifts.last().unwrap() > Dur::ZERO, "window saw no shift");
        // Local order intact.
        assert!(t.is_locally_monotone());
    }

    #[test]
    fn backward_amortization_never_violates_outgoing_messages() {
        // The event inside the backward window is itself a send whose recv
        // is tight; clamping must keep it below recv - l_min.
        let mut t = Trace::for_ranks(3);
        // p1 sends to p2 at 95; p2 receives at exactly 99 (= 95 + l_min).
        t.procs[1].push(us(95), EventKind::Send { to: Rank(2), tag: Tag(0), bytes: 0 });
        t.procs[2].push(us(99), EventKind::Recv { from: Rank(1), tag: Tag(0), bytes: 0 });
        // p0 sends to p1 at 200; p1's recv at 100 is violated by 104 µs.
        t.procs[0].push(us(200), EventKind::Send { to: Rank(1), tag: Tag(1), bytes: 0 });
        t.procs[1].push(us(100), EventKind::Recv { from: Rank(0), tag: Tag(1), bytes: 0 });
        let params = ClcParams { mu: 1.0, backward: true, backward_window_factor: 100.0 };
        controlled_logical_clock(&mut t, &LMIN, &params).unwrap();
        assert_condition_holds(&t);
    }

    #[test]
    fn collective_one_to_n_repair() {
        // Bcast root begins at 100; a member's end at 50 is impossible.
        let mut t = Trace::for_ranks(3);
        let mk = |op, root| (op, CommId::WORLD, root);
        let (op, comm, root) = mk(CollOp::Bcast, Some(Rank(0)));
        t.procs[0].push(us(100), EventKind::CollBegin { op, comm, root, bytes: 8 });
        t.procs[0].push(us(110), EventKind::CollEnd { op, comm, root, bytes: 8 });
        t.procs[1].push(us(40), EventKind::CollBegin { op, comm, root, bytes: 8 });
        t.procs[1].push(us(50), EventKind::CollEnd { op, comm, root, bytes: 8 });
        t.procs[2].push(us(90), EventKind::CollBegin { op, comm, root, bytes: 8 });
        t.procs[2].push(us(120), EventKind::CollEnd { op, comm, root, bytes: 8 });
        let rep = controlled_logical_clock(&mut t, &LMIN, &ClcParams::default()).unwrap();
        assert!(rep.n_jumps() >= 1);
        assert_condition_holds(&t);
        // Member 1's end moved to root begin + l_min.
        assert!(t.procs[1].events[1].time >= us(104));
        // The root's own events are untouched (nothing constrains them).
        assert_eq!(t.procs[0].events[0].time, us(100));
    }

    #[test]
    fn collective_n_to_n_repair() {
        let mut t = Trace::for_ranks(3);
        let op = CollOp::Barrier;
        let comm = CommId::WORLD;
        // Rank 2 enters late (at 200); ranks 0/1 claim to leave at 100.
        for (p, (b, e)) in [(0usize, (90, 100)), (1, (95, 100)), (2, (200, 210))] {
            t.procs[p].push(us(b), EventKind::CollBegin { op, comm, root: None, bytes: 0 });
            t.procs[p].push(us(e), EventKind::CollEnd { op, comm, root: None, bytes: 0 });
        }
        controlled_logical_clock(&mut t, &LMIN, &ClcParams::default()).unwrap();
        assert_condition_holds(&t);
        // Everyone's end is now ≥ 204.
        for p in 0..3 {
            assert!(t.procs[p].events[1].time >= us(204));
        }
    }

    #[test]
    fn chains_of_violations_propagate() {
        // A violated recv is followed by a send whose recv then needs
        // correcting too.
        let mut t = Trace::for_ranks(3);
        t.procs[0].push(us(1000), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(500), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(510), EventKind::Send { to: Rank(2), tag: Tag(0), bytes: 0 });
        t.procs[2].push(us(520), EventKind::Recv { from: Rank(1), tag: Tag(0), bytes: 0 });
        let rep = controlled_logical_clock(&mut t, &LMIN, &ClcParams::default()).unwrap();
        assert_condition_holds(&t);
        assert_eq!(rep.n_jumps(), 2);
        // p1 recv → 1004, p1 send dragged to ≥ 1013.9 (μ≈0.99 of 10 µs),
        // p2 recv → p1 send + 4.
        let p1_send = t.procs[1].events[1].time;
        assert!(p1_send >= us(1013));
        assert_eq!(t.procs[2].events[0].time, p1_send + Dur::from_us(4));
    }

    #[test]
    fn bad_params_rejected() {
        let mut t = Trace::for_ranks(1);
        assert!(matches!(
            controlled_logical_clock(&mut t, &LMIN, &ClcParams { mu: 0.0, ..Default::default() }),
            Err(ClcError::BadParams(_))
        ));
        assert!(matches!(
            controlled_logical_clock(
                &mut t,
                &LMIN,
                &ClcParams { mu: 1.5, ..Default::default() }
            ),
            Err(ClcError::BadParams(_))
        ));
        assert!(matches!(
            controlled_logical_clock(
                &mut t,
                &LMIN,
                &ClcParams { backward_window_factor: 0.0, ..Default::default() }
            ),
            Err(ClcError::BadParams(_))
        ));
    }

    #[test]
    fn idempotent_on_second_application() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(100), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(90), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        controlled_logical_clock(&mut t, &LMIN, &ClcParams::default()).unwrap();
        let snapshot = t.clone();
        let rep2 = controlled_logical_clock(&mut t, &LMIN, &ClcParams::default()).unwrap();
        assert_eq!(rep2.n_jumps(), 0);
        assert_eq!(t.procs[1].events, snapshot.procs[1].events);
    }
}
