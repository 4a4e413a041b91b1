//! Clock-condition violation detection.
//!
//! The clock condition (paper Eq. 1) requires `t_recv >= t_send + l_min` for
//! every message, where `l_min` is the minimum latency between the two
//! locations. This module checks it for
//!
//! * matched point-to-point messages ([`check_p2p`]),
//! * *logical* messages derived from collective operations by the paper's
//!   flavour mapping ([`check_collectives`]): 1-to-N (root begin → member
//!   ends), N-to-1 (member begins → root end), N-to-N (every begin → every
//!   other end),
//! * the POMP shared-memory rules of Fig. 8 ([`check_pomp`]): the fork event
//!   must come first, the join event last, and barrier executions of all
//!   threads must overlap.
//!
//! Everything is reported both as raw violation counts and as the
//! percentages the paper plots.

use crate::analysis::{CollectiveInstance, Matching, MessageMatch, ParallelRegion};
use crate::column::TimeSource;
use crate::event::CollFlavor;
use crate::ids::{EventId, Rank};
use crate::trace::Trace;
use simclock::Dur;

/// Minimum-latency model used as the `l_min` of the clock condition.
pub trait MinLatency {
    /// Minimum message latency from `from` to `to`.
    fn l_min(&self, from: Rank, to: Rank) -> Dur;
}

/// The same minimum latency between every pair of ranks.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency(pub Dur);

impl MinLatency for UniformLatency {
    fn l_min(&self, _from: Rank, _to: Rank) -> Dur {
        self.0
    }
}

impl<F: Fn(Rank, Rank) -> Dur> MinLatency for F {
    fn l_min(&self, from: Rank, to: Rank) -> Dur {
        self(from, to)
    }
}

/// A dense `l_min` table frozen from any [`MinLatency`] model.
///
/// Latency models are often closures over simulator state and may be costly
/// to query; the synchronization pipeline evaluates `l_min` once per rank
/// pair up front and reads this table in every later stage. The table is
/// plain data, hence `Send + Sync` — worker threads of the parallel
/// pipeline share one reference.
#[derive(Debug, Clone)]
pub struct LatencyTable {
    n: usize,
    entries: Vec<Dur>,
}

impl LatencyTable {
    /// Freeze `lmin` for all pairs of `ranks`. The table covers rank
    /// indices `0..=max(ranks)`; pairs not listed read whatever `lmin`
    /// returned for them during construction.
    pub fn freeze(lmin: &dyn MinLatency, ranks: &[Rank]) -> Self {
        let n = ranks.iter().map(|r| r.idx() + 1).max().unwrap_or(0);
        let mut entries = vec![Dur::ZERO; n * n];
        for a in 0..n {
            for b in 0..n {
                entries[a * n + b] = lmin.l_min(Rank(a as u32), Rank(b as u32));
            }
        }
        LatencyTable { n, entries }
    }

    /// Number of ranks covered.
    pub fn n_ranks(&self) -> usize {
        self.n
    }
}

impl MinLatency for LatencyTable {
    fn l_min(&self, from: Rank, to: Rank) -> Dur {
        self.entries[from.idx() * self.n + to.idx()]
    }
}

/// One violated point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolatedMessage {
    /// The send event.
    pub send: EventId,
    /// The receive event.
    pub recv: EventId,
    /// `t_recv - t_send` as recorded (negative when the order is reversed).
    pub measured_transfer: Dur,
    /// The `l_min` that applied to this message.
    pub l_min: Dur,
}

/// Outcome of the point-to-point clock-condition check.
#[derive(Debug, Clone, Default)]
pub struct P2pReport {
    /// Number of matched messages inspected.
    pub total: usize,
    /// Messages violating `t_recv >= t_send + l_min`.
    pub violations: Vec<ViolatedMessage>,
    /// Subset of `violations` where the order is outright reversed
    /// (`t_recv < t_send`) — the paper's Fig. 7 front row.
    pub reversed: usize,
}

impl P2pReport {
    /// Fraction of messages violating the clock condition, in percent.
    pub fn violation_pct(&self) -> f64 {
        pct(self.violations.len(), self.total)
    }

    /// Fraction of messages whose send/receive order is reversed, percent.
    pub fn reversed_pct(&self) -> f64 {
        pct(self.reversed, self.total)
    }
}

/// Check the clock condition on all matched messages.
pub fn check_p2p(trace: &Trace, matching: &Matching, lmin: &dyn MinLatency) -> P2pReport {
    check_p2p_messages_at(trace, &matching.messages, lmin)
}

/// [`check_p2p`] on a slice of matched messages over any timestamp layout
/// — the same census runs on an AoS [`Trace`] or a columnar
/// [`TraceColumns`](crate::column::TraceColumns), producing bit-identical
/// reports.
pub fn check_p2p_messages_at<S: TimeSource + ?Sized>(
    times: &S,
    messages: &[MessageMatch],
    lmin: &dyn MinLatency,
) -> P2pReport {
    let mut report = P2pReport {
        total: messages.len(),
        ..P2pReport::default()
    };
    for m in messages {
        let ts = times.time_of(m.send);
        let tr = times.time_of(m.recv);
        let bound = lmin.l_min(m.from, m.to);
        let transfer = tr - ts;
        if transfer < bound {
            if transfer < Dur::ZERO {
                report.reversed += 1;
            }
            report.violations.push(ViolatedMessage {
                send: m.send,
                recv: m.recv,
                measured_transfer: transfer,
                l_min: bound,
            });
        }
    }
    report
}

/// Outcome of the collective (logical-message) check.
#[derive(Debug, Clone, Default)]
pub struct CollReport {
    /// Collective instances inspected.
    pub instances: usize,
    /// Logical messages derived from the flavour mapping.
    pub logical_total: usize,
    /// Logical messages violating the clock condition.
    pub logical_violated: usize,
    /// Logical messages whose order is outright reversed.
    pub logical_reversed: usize,
    /// Instances with at least one violated logical message.
    pub instances_affected: usize,
}

impl CollReport {
    /// Percentage of logical messages violated.
    pub fn violation_pct(&self) -> f64 {
        pct(self.logical_violated, self.logical_total)
    }

    /// Percentage of logical messages reversed.
    pub fn reversed_pct(&self) -> f64 {
        pct(self.logical_reversed, self.logical_total)
    }
}

/// Check logical messages derived from collectives.
///
/// The flavour mapping follows the paper's §V: a collective is decomposed
/// into point-to-point semantics — 1-to-N: the root's begin must precede
/// every member's end by `l_min`; N-to-1: every member's begin must precede
/// the root's end; N-to-N: every member's begin must precede every *other*
/// member's end.
pub fn check_collectives(
    trace: &Trace,
    instances: &[CollectiveInstance],
    lmin: &dyn MinLatency,
) -> CollReport {
    check_collectives_at(trace, instances, lmin)
}

/// [`check_collectives`] over any timestamp layout (AoS trace or columnar
/// store) — bit-identical reports either way.
pub fn check_collectives_at<S: TimeSource + ?Sized>(
    times: &S,
    instances: &[CollectiveInstance],
    lmin: &dyn MinLatency,
) -> CollReport {
    let mut report = CollReport {
        instances: instances.len(),
        ..CollReport::default()
    };
    for inst in instances {
        let mut violated_here = 0usize;
        let mut check = |from: Rank, t_from, to: Rank, t_to| {
            report.logical_total += 1;
            let bound = lmin.l_min(from, to);
            let transfer = t_to - t_from;
            if transfer < bound {
                report.logical_violated += 1;
                violated_here += 1;
                if transfer < Dur::ZERO {
                    report.logical_reversed += 1;
                }
            }
        };
        match inst.op.flavor() {
            CollFlavor::OneToN => {
                if let Some(root) = inst.root_member().copied() {
                    let t_root = times.time_of(root.begin);
                    for m in &inst.members {
                        if m.rank != root.rank {
                            check(root.rank, t_root, m.rank, times.time_of(m.end));
                        }
                    }
                }
            }
            CollFlavor::NToOne => {
                if let Some(root) = inst.root_member().copied() {
                    let t_root_end = times.time_of(root.end);
                    for m in &inst.members {
                        if m.rank != root.rank {
                            check(m.rank, times.time_of(m.begin), root.rank, t_root_end);
                        }
                    }
                }
            }
            CollFlavor::NToN => {
                for a in &inst.members {
                    let t_a = times.time_of(a.begin);
                    for b in &inst.members {
                        if a.rank != b.rank {
                            check(a.rank, t_a, b.rank, times.time_of(b.end));
                        }
                    }
                }
            }
            CollFlavor::Prefix => {
                // Rank i's end depends on every lower rank's begin (data
                // flows up the prefix order). Member lists are in rank
                // order by construction.
                for (ai, a) in inst.members.iter().enumerate() {
                    let t_a = times.time_of(a.begin);
                    for b in inst.members.iter().skip(ai + 1) {
                        check(a.rank, t_a, b.rank, times.time_of(b.end));
                    }
                }
            }
        }
        if violated_here > 0 {
            report.instances_affected += 1;
        }
    }
    report
}

/// Outcome of the POMP shared-memory check (paper Fig. 8).
#[derive(Debug, Clone, Default)]
pub struct PompReport {
    /// Parallel-region instances inspected.
    pub regions: usize,
    /// Regions where the fork event is not the earliest event.
    pub entry_violations: usize,
    /// Regions where the join event is not the latest event.
    pub exit_violations: usize,
    /// Regions whose implicit-barrier executions do not overlap
    /// (some thread's exit precedes another thread's enter).
    pub barrier_violations: usize,
    /// Regions with at least one violation of any kind.
    pub any_violations: usize,
}

impl PompReport {
    /// Percentage of regions with entry violations.
    pub fn entry_pct(&self) -> f64 {
        pct(self.entry_violations, self.regions)
    }

    /// Percentage of regions with exit violations.
    pub fn exit_pct(&self) -> f64 {
        pct(self.exit_violations, self.regions)
    }

    /// Percentage of regions with barrier violations.
    pub fn barrier_pct(&self) -> f64 {
        pct(self.barrier_violations, self.regions)
    }

    /// Percentage of regions with any violation.
    pub fn any_pct(&self) -> f64 {
        pct(self.any_violations, self.regions)
    }
}

/// Check the POMP happened-before rules on reconstructed parallel regions:
/// all events of a region must be enclosed by its fork and join, and barrier
/// executions of all threads must overlap.
pub fn check_pomp(trace: &Trace, regions: &[ParallelRegion]) -> PompReport {
    check_pomp_at(trace, regions)
}

/// [`check_pomp`] over any timestamp layout (AoS trace or columnar store)
/// — bit-identical reports either way.
pub fn check_pomp_at<S: TimeSource + ?Sized>(times: &S, regions: &[ParallelRegion]) -> PompReport {
    let mut report = PompReport {
        regions: regions.len(),
        ..PompReport::default()
    };
    for reg in regions {
        let t_fork = times.time_of(reg.fork);
        let t_join = times.time_of(reg.join);
        let mut entry = false;
        let mut exit = false;
        let mut bar_enter_max = None::<simclock::Time>;
        let mut bar_exit_min = None::<simclock::Time>;
        for th in &reg.threads {
            for i in th.first as usize..=th.last as usize {
                let t = times.time_of(EventId::new(th.proc, i));
                if t < t_fork {
                    entry = true;
                }
                if t > t_join {
                    exit = true;
                }
            }
            if let Some(be) = th.barrier_enter {
                let t = times.time_of(be);
                bar_enter_max = Some(bar_enter_max.map_or(t, |m| m.max(t)));
            }
            if let Some(bx) = th.barrier_exit {
                let t = times.time_of(bx);
                bar_exit_min = Some(bar_exit_min.map_or(t, |m| m.min(t)));
            }
        }
        let barrier = match (bar_enter_max, bar_exit_min) {
            // Violated when some thread left before another entered.
            (Some(enter_max), Some(exit_min)) => exit_min < enter_max,
            _ => false,
        };
        if entry {
            report.entry_violations += 1;
        }
        if exit {
            report.exit_violations += 1;
        }
        if barrier {
            report.barrier_violations += 1;
        }
        if entry || exit || barrier {
            report.any_violations += 1;
        }
    }
    report
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{match_collectives, match_messages, match_parallel_regions};
    use crate::event::{CollOp, EventKind};
    use crate::ids::{CommId, RegionId, Tag};
    use simclock::Time;

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    fn two_rank_message(t_send: i64, t_recv: i64) -> Trace {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(t_send), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 8 });
        t.procs[1].push(us(t_recv), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 8 });
        t
    }

    #[test]
    fn consistent_message_passes() {
        let t = two_rank_message(0, 10);
        let m = match_messages(&t);
        let r = check_p2p(&t, &m, &UniformLatency(Dur::from_us(4)));
        assert_eq!(r.total, 1);
        assert!(r.violations.is_empty());
        assert_eq!(r.violation_pct(), 0.0);
    }

    #[test]
    fn reversed_message_detected() {
        // Fig. 2(b): received before sent.
        let t = two_rank_message(10, 5);
        let m = match_messages(&t);
        let r = check_p2p(&t, &m, &UniformLatency(Dur::from_us(4)));
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.reversed, 1);
        assert_eq!(r.reversed_pct(), 100.0);
        assert!(r.violations[0].measured_transfer.is_negative());
    }

    #[test]
    fn sub_latency_transfer_violates_but_is_not_reversed() {
        let t = two_rank_message(0, 2); // 2 µs transfer, l_min 4 µs
        let m = match_messages(&t);
        let r = check_p2p(&t, &m, &UniformLatency(Dur::from_us(4)));
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.reversed, 0);
    }

    #[test]
    fn closure_latency_model() {
        let t = two_rank_message(0, 2);
        let m = match_messages(&t);
        let model = |_from: Rank, _to: Rank| Dur::from_us(1);
        let r = check_p2p(&t, &m, &model);
        assert!(r.violations.is_empty());
    }

    fn collective_trace(op: CollOp, root: Option<Rank>, times: &[(i64, i64)]) -> Trace {
        let mut t = Trace::for_ranks(times.len());
        for (p, &(b, e)) in times.iter().enumerate() {
            t.procs[p].push(
                us(b),
                EventKind::CollBegin { op, comm: CommId::WORLD, root, bytes: 8 },
            );
            t.procs[p].push(
                us(e),
                EventKind::CollEnd { op, comm: CommId::WORLD, root, bytes: 8 },
            );
        }
        t
    }

    #[test]
    fn bcast_logical_messages() {
        // Root 0 begins at 10; rank 1 ends at 5 (violated), rank 2 at 20 (ok).
        let t = collective_trace(CollOp::Bcast, Some(Rank(0)), &[(10, 21), (0, 5), (0, 20)]);
        let insts = match_collectives(&t).unwrap();
        let r = check_collectives(&t, &insts, &UniformLatency(Dur::from_us(2)));
        assert_eq!(r.logical_total, 2); // root -> 2 members
        assert_eq!(r.logical_violated, 1);
        assert_eq!(r.logical_reversed, 1);
        assert_eq!(r.instances_affected, 1);
    }

    #[test]
    fn reduce_logical_messages() {
        // Root 0 ends at 3; members begin at 1 and 2 -> both violated with
        // l_min 2 (3-1=2 ok boundary? transfer must be >= l_min; 2>=2 ok, 3-2=1 violated).
        let t = collective_trace(CollOp::Reduce, Some(Rank(0)), &[(0, 3), (1, 4), (2, 5)]);
        let insts = match_collectives(&t).unwrap();
        let r = check_collectives(&t, &insts, &UniformLatency(Dur::from_us(2)));
        assert_eq!(r.logical_total, 2);
        assert_eq!(r.logical_violated, 1);
        assert_eq!(r.logical_reversed, 0);
    }

    #[test]
    fn barrier_n_to_n_counts_pairs() {
        // 3 ranks: 3*2 = 6 logical messages. All begins at 0, ends at 10:
        // no violations with l_min 2.
        let t = collective_trace(CollOp::Barrier, None, &[(0, 10), (0, 10), (0, 10)]);
        let insts = match_collectives(&t).unwrap();
        let r = check_collectives(&t, &insts, &UniformLatency(Dur::from_us(2)));
        assert_eq!(r.logical_total, 6);
        assert_eq!(r.logical_violated, 0);
        // Now one rank "exits" before another "enters": rank 2 ends at 1
        // while rank 0 begins at 5.
        let t = collective_trace(CollOp::Barrier, None, &[(5, 10), (0, 10), (0, 1)]);
        let insts = match_collectives(&t).unwrap();
        let r = check_collectives(&t, &insts, &UniformLatency(Dur::from_us(2)));
        assert!(r.logical_violated >= 1);
        assert!(r.logical_reversed >= 1);
        assert_eq!(r.instances_affected, 1);
    }

    fn pomp_trace(
        fork: i64,
        join: i64,
        worker_first: i64,
        worker_bar: (i64, i64),
        master_bar: (i64, i64),
    ) -> Trace {
        let r = RegionId(0);
        let mut t = Trace::for_threads(2);
        t.procs[0].push(us(fork), EventKind::Fork { region: r });
        t.procs[0].push(us(master_bar.0), EventKind::BarrierEnter { region: r });
        t.procs[0].push(us(master_bar.1), EventKind::BarrierExit { region: r });
        t.procs[0].push(us(join), EventKind::Join { region: r });
        t.procs[1].push(us(worker_first), EventKind::Enter { region: r });
        t.procs[1].push(us(worker_first + 1), EventKind::Exit { region: r });
        t.procs[1].push(us(worker_bar.0), EventKind::BarrierEnter { region: r });
        t.procs[1].push(us(worker_bar.1), EventKind::BarrierExit { region: r });
        t
    }

    #[test]
    fn consistent_pomp_region() {
        let t = pomp_trace(0, 100, 5, (10, 20), (10, 20));
        let regions = match_parallel_regions(&t).unwrap();
        let r = check_pomp(&t, &regions);
        assert_eq!(r.regions, 1);
        assert_eq!(r.any_violations, 0);
    }

    #[test]
    fn entry_violation_fork_not_first() {
        // Worker appears to start *before* the fork (Fig. 8 "region entry").
        let t = pomp_trace(4, 100, 2, (10, 20), (10, 20));
        let regions = match_parallel_regions(&t).unwrap();
        let r = check_pomp(&t, &regions);
        assert_eq!(r.entry_violations, 1);
        assert_eq!(r.exit_violations, 0);
        assert_eq!(r.any_violations, 1);
    }

    #[test]
    fn exit_violation_join_not_last() {
        let t = pomp_trace(0, 15, 5, (10, 20), (10, 14));
        let regions = match_parallel_regions(&t).unwrap();
        let r = check_pomp(&t, &regions);
        assert_eq!(r.exit_violations, 1);
    }

    #[test]
    fn latency_table_matches_model() {
        let model = |from: Rank, to: Rank| Dur::from_us((from.0 as i64 + 1) * (to.0 as i64 + 2));
        let ranks = [Rank(0), Rank(1), Rank(2)];
        let table = LatencyTable::freeze(&model, &ranks);
        assert_eq!(table.n_ranks(), 3);
        for &a in &ranks {
            for &b in &ranks {
                assert_eq!(table.l_min(a, b), model(a, b));
            }
        }
    }

    #[test]
    fn latency_table_empty_ranks() {
        let table = LatencyTable::freeze(&UniformLatency(Dur::from_us(1)), &[]);
        assert_eq!(table.n_ranks(), 0);
    }

    #[test]
    fn barrier_violation_no_overlap() {
        // Fig. 2(d): master's barrier is over (8) before the worker enters (10).
        let t = pomp_trace(0, 100, 5, (10, 20), (6, 8));
        let regions = match_parallel_regions(&t).unwrap();
        let r = check_pomp(&t, &regions);
        assert_eq!(r.barrier_violations, 1);
        assert!(r.barrier_pct() > 99.0);
    }
}
