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

pub(crate) mod columnar;
pub mod domains;
pub mod graph;
pub mod pomp;

use simclock::{Dur, Time};
use tracefmt::{
    match_collectives, match_messages, CollFlavor, EventId, EventKind, MinLatency, Rank, Trace,
};

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

/// Pre-extracted dependency structure of a trace.
pub(crate) struct Deps {
    /// recv event -> (send event, sender rank).
    pub send_of: std::collections::HashMap<EventId, (EventId, Rank)>,
    /// Collective instances.
    pub insts: Vec<CollInst>,
    /// CollEnd event -> (instance index, member position).
    pub end_info: std::collections::HashMap<EventId, (usize, usize)>,
    /// CollBegin event -> (instance index, member position).
    pub begin_info: std::collections::HashMap<EventId, (usize, usize)>,
    /// send event -> recv event (for backward clamping).
    pub recv_of: std::collections::HashMap<EventId, (EventId, Rank)>,
}

/// One collective instance in dependency form.
pub(crate) struct CollInst {
    pub flavor: CollFlavor,
    pub root_pos: Option<usize>,
    /// (rank, begin, end) per member.
    pub members: Vec<(Rank, EventId, EventId)>,
}

impl CollInst {
    /// Member positions whose *begin* the end at `pos` depends on.
    pub fn deps_of_end(&self, pos: usize) -> DepsOfEnd<'_> {
        DepsOfEnd { inst: self, pos, cur: 0 }
    }

    /// Member positions whose *end* depends on the begin at `pos`.
    pub fn dependents_of_begin(&self, pos: usize) -> Vec<usize> {
        match self.flavor {
            CollFlavor::OneToN => {
                if Some(pos) == self.root_pos {
                    (0..self.members.len()).filter(|&j| j != pos).collect()
                } else {
                    Vec::new()
                }
            }
            CollFlavor::NToOne => {
                if Some(pos) == self.root_pos {
                    Vec::new()
                } else {
                    vec![self.root_pos.expect("rooted flavour")]
                }
            }
            CollFlavor::NToN => (0..self.members.len()).filter(|&j| j != pos).collect(),
            // Prefix: begin at pos feeds every higher member's end.
            CollFlavor::Prefix => (pos + 1..self.members.len()).collect(),
        }
    }
}

/// Iterator over the begin-dependencies of one member's end event.
pub(crate) struct DepsOfEnd<'a> {
    inst: &'a CollInst,
    pos: usize,
    cur: usize,
}

impl Iterator for DepsOfEnd<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        let n = self.inst.members.len();
        loop {
            if self.cur >= n {
                return None;
            }
            let j = self.cur;
            self.cur += 1;
            let dep = match self.inst.flavor {
                // Non-root ends depend on the root's begin only.
                CollFlavor::OneToN => {
                    Some(self.pos) != self.inst.root_pos && Some(j) == self.inst.root_pos
                }
                // The root's end depends on every non-root begin.
                CollFlavor::NToOne => {
                    Some(self.pos) == self.inst.root_pos && Some(j) != self.inst.root_pos
                }
                // Every end depends on every other begin.
                CollFlavor::NToN => j != self.pos,
                // Prefix: end at pos depends on every lower begin.
                CollFlavor::Prefix => j < self.pos,
            };
            if dep {
                return Some(j);
            }
        }
    }
}

pub(crate) fn extract_deps(trace: &Trace) -> Result<Deps, ClcError> {
    let matching = match_messages(trace);
    let raw = match_collectives(trace).map_err(ClcError::BadCollectives)?;
    Ok(deps_from_parts(&matching, &raw))
}

/// Build the dependency structure from an already-reconstructed
/// communication analysis (the pipeline computes matching once and shares
/// it across every stage, including the CLC).
pub(crate) fn deps_from_parts(
    matching: &tracefmt::Matching,
    raw: &[tracefmt::CollectiveInstance],
) -> Deps {
    let mut send_of = std::collections::HashMap::with_capacity(matching.messages.len());
    let mut recv_of = std::collections::HashMap::with_capacity(matching.messages.len());
    for m in &matching.messages {
        send_of.insert(m.recv, (m.send, m.from));
        recv_of.insert(m.send, (m.recv, m.to));
    }
    let mut insts = Vec::with_capacity(raw.len());
    let mut end_info = std::collections::HashMap::new();
    let mut begin_info = std::collections::HashMap::new();
    for (idx, inst) in raw.iter().enumerate() {
        let root_pos = inst
            .root
            .and_then(|r| inst.members.iter().position(|m| m.rank == r));
        let members: Vec<(Rank, EventId, EventId)> = inst
            .members
            .iter()
            .map(|m| (m.rank, m.begin, m.end))
            .collect();
        for (pos, m) in members.iter().enumerate() {
            begin_info.insert(m.1, (idx, pos));
            end_info.insert(m.2, (idx, pos));
        }
        insts.push(CollInst {
            flavor: inst.op.flavor(),
            root_pos,
            members,
        });
    }
    Deps {
        send_of,
        insts,
        end_info,
        begin_info,
        recv_of,
    }
}

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
    let deps = extract_deps(trace)?;
    controlled_logical_clock_with_deps(trace, &deps, lmin, params)
}

/// [`controlled_logical_clock`] on a pre-extracted dependency structure,
/// so callers that already reconstructed the communication analysis (the
/// pipeline) skip the re-matching pass.
pub(crate) fn controlled_logical_clock_with_deps(
    trace: &mut Trace,
    deps: &Deps,
    lmin: &dyn MinLatency,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    if !(params.mu > 0.0 && params.mu <= 1.0) {
        return Err(ClcError::BadParams(format!("mu = {}", params.mu)));
    }
    if params.backward && params.backward_window_factor <= 0.0 {
        return Err(ClcError::BadParams("non-positive backward window".into()));
    }
    let originals: Vec<Vec<Time>> = trace
        .procs
        .iter()
        .map(|p| p.events.iter().map(|e| e.time).collect())
        .collect();
    let mut report = forward_pass(trace, &originals, deps, lmin, params.mu)?;
    if params.backward {
        backward_amortization(trace, deps, lmin, params, &report.jumps);
        // Safety net: backward clamping is designed to preserve every
        // constraint, but a final μ=1 forward sweep guarantees the
        // postcondition even if future latency models interact badly.
        let post: Vec<Vec<Time>> = trace
            .procs
            .iter()
            .map(|p| p.events.iter().map(|e| e.time).collect())
            .collect();
        let _ = forward_pass(trace, &post, deps, lmin, 1.0)?;
    }
    report.events_total = trace.n_events();
    report.events_moved = trace
        .procs
        .iter()
        .zip(&originals)
        .map(|(p, orig)| {
            p.events
                .iter()
                .zip(orig)
                .filter(|(e, &o)| e.time != o)
                .count()
        })
        .sum();
    Ok(report)
}

/// The forward pass: assign corrected times in dependency order.
pub(crate) fn forward_pass(
    trace: &mut Trace,
    originals: &[Vec<Time>],
    deps: &Deps,
    lmin: &dyn MinLatency,
    mu: f64,
) -> Result<ClcReport, ClcError> {
    let n = trace.n_procs();
    let mut pc = vec![0usize; n];
    let mut prev_orig = vec![Time::MIN; n];
    let mut prev_corr = vec![Time::MIN; n];
    let mut report = ClcReport::default();

    loop {
        let mut progressed = false;
        for p in 0..n {
            'events: while pc[p] < trace.procs[p].events.len() {
                let i = pc[p];
                let id = EventId::new(p, i);
                let orig = originals[p][i];
                let my_rank = trace.procs[p].location.rank;

                // Remote constraint, if any.
                let mut remote: Option<Time> = None;
                match trace.procs[p].events[i].kind {
                    EventKind::Recv { .. } => {
                        if let Some(&(send, from)) = deps.send_of.get(&id) {
                            if send.i() >= pc[send.p()] {
                                break 'events; // send not yet corrected
                            }
                            remote = Some(
                                trace.time(send).saturating_add(lmin.l_min(from, my_rank)),
                            );
                        }
                    }
                    EventKind::CollEnd { .. } => {
                        if let Some(&(inst_idx, pos)) = deps.end_info.get(&id) {
                            let inst = &deps.insts[inst_idx];
                            let mut bound: Option<Time> = None;
                            for j in inst.deps_of_end(pos) {
                                let (jrank, jbegin, _) = inst.members[j];
                                if jbegin.i() >= pc[jbegin.p()] {
                                    break 'events; // dependency pending
                                }
                                let c = trace
                                    .time(jbegin)
                                    .saturating_add(lmin.l_min(jrank, my_rank));
                                bound = Some(bound.map_or(c, |b: Time| b.max(c)));
                            }
                            remote = bound;
                        }
                    }
                    _ => {}
                }

                // Amortized local candidate. Saturating arithmetic: traces
                // may carry timestamps at the `i64` edges, where plain ops
                // debug-panic; saturation equals the plain result whenever
                // no overflow occurs.
                let candidate = if i == 0 {
                    orig
                } else {
                    let gap = orig.saturating_since(prev_orig[p]).max(Dur::ZERO);
                    orig.max(prev_corr[p].saturating_add(gap.scale(mu)))
                };
                let corrected = match remote {
                    Some(r) if r > candidate => {
                        let size = r.saturating_since(candidate);
                        report.jumps.push(Jump { event: id, size });
                        report.max_jump = report.max_jump.max(size);
                        r
                    }
                    _ => candidate,
                };
                trace.procs[p].events[i].time = corrected;
                prev_orig[p] = orig;
                prev_corr[p] = corrected;
                pc[p] += 1;
                progressed = true;
            }
        }
        if (0..n).all(|p| pc[p] == trace.procs[p].events.len()) {
            return Ok(report);
        }
        if !progressed {
            return Err(ClcError::CyclicTrace);
        }
    }
}

/// Backward amortization: smooth each jump over a window of preceding
/// events with a linear ramp, clamped so no outgoing message or collective
/// contribution becomes violated.
///
/// Remote constraint times (the receives of outgoing messages, the ends
/// depending on collective begins) are read from a **snapshot** taken after
/// the forward pass: the result is independent of process order, and since
/// backward shifts only ever move events *forward*, snapshot-based slacks
/// are conservative.
fn backward_amortization(
    trace: &mut Trace,
    deps: &Deps,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    jumps: &[Jump],
) {
    let snapshot: Vec<Vec<Time>> = trace
        .procs
        .iter()
        .map(|p| p.events.iter().map(|e| e.time).collect())
        .collect();
    // Group jumps per process, in event order.
    let mut per_proc: Vec<Vec<Jump>> = vec![Vec::new(); trace.n_procs()];
    for j in jumps {
        per_proc[j.event.p()].push(*j);
    }
    for list in per_proc.iter_mut() {
        list.sort_by_key(|j| j.event.i());
    }
    for (p, pt) in trace.procs.iter_mut().enumerate() {
        backward_pass_proc(p, pt, &per_proc[p], deps, lmin, params, &snapshot);
    }
}

/// The per-process backward kernel. `snapshot` supplies remote times for
/// slack clamping.
fn backward_pass_proc(
    p: usize,
    pt: &mut tracefmt::ProcessTrace,
    jumps: &[Jump],
    deps: &Deps,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    snapshot: &[Vec<Time>],
) {
    let my_rank = pt.location.rank;
    for jump in jumps {
        let k = jump.event.i();
        if k == 0 {
            continue;
        }
        let delta = jump.size;
        let t_pre = pt.events[k].time.saturating_sub(delta);
        let window = delta.scale(params.backward_window_factor);
        let w_start = t_pre.saturating_sub(window);
        // Walk backward applying min(ramp, cap, shift_of_successor).
        let mut shift_above = delta;
        for i in (0..k).rev() {
            let t_i = pt.events[i].time;
            if t_i <= w_start {
                break;
            }
            let frac = t_i.saturating_since(w_start).as_ps() as f64
                / window.as_ps().max(1) as f64;
            let ramp = delta.scale(frac.clamp(0.0, 1.0));
            let id = EventId::new(p, i);
            let mut cap = Dur::MAX;
            if let Some(&(recv, to)) = deps.recv_of.get(&id) {
                cap = cap.min(
                    snapshot[recv.p()][recv.i()]
                        .saturating_sub(lmin.l_min(my_rank, to))
                        .saturating_since(t_i),
                );
            }
            if let Some(&(inst_idx, pos)) = deps.begin_info.get(&id) {
                let inst = &deps.insts[inst_idx];
                for j in inst.dependents_of_begin(pos) {
                    let (jrank, _, jend) = inst.members[j];
                    cap = cap.min(
                        snapshot[jend.p()][jend.i()]
                            .saturating_sub(lmin.l_min(my_rank, jrank))
                            .saturating_since(t_i),
                    );
                }
            }
            let shift = ramp.min(cap).min(shift_above).max(Dur::ZERO);
            pt.events[i].time = t_i.saturating_add(shift);
            shift_above = shift;
            if shift == Dur::ZERO {
                break;
            }
        }
    }
}

/// Deterministic test traces shared by the CLC engine test suites.
#[cfg(test)]
pub(crate) mod fixtures {
    use simclock::Time;
    use tracefmt::{CollOp, CommId, EventKind, Rank, Tag, Trace};

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
        check_collectives, check_p2p, match_collectives as mc, match_messages as mm, CollOp,
        CommId, Rank, RegionId, Tag, UniformLatency,
    };

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000)); // 4 µs

    fn assert_condition_holds(trace: &Trace) {
        let m = mm(trace);
        let r = check_p2p(trace, &m, &LMIN);
        assert!(r.violations.is_empty(), "p2p violations remain: {r:?}");
        let insts = mc(trace).unwrap();
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
