//! The map-based Controlled Logical Clock: the reference the differential
//! suites compare the library's CLC against.
//!
//! This is the walker `clocksync` shipped behind `controlled_logical_clock`
//! until that function became a lowering onto the CSR kernel; it lives here,
//! written against the public API only, because an oracle that called the
//! library's CLC would compare the kernel with itself. It shares no code
//! with the kernel: dependencies are five hash maps keyed by [`EventId`],
//! timestamps stay in the event records, `l_min` is queried per edge visit,
//! and collectives are dispatched on [`EventKind`] through
//! [`CollInst::deps_of_end`] instead of member-table views or the
//! aggregated N-to-N evaluation. Kept as it was, defects included: on
//! [`ClcError::CyclicTrace`] the trace is left half-corrected.

use drift_lab::clocksync::{ClcError, ClcParams, ClcReport, Jump};
use drift_lab::simclock::{Dur, Time};
use drift_lab::tracefmt::{
    self, CollFlavor, EventId, EventKind, MinLatency, Rank, Trace,
};
use std::collections::HashMap;

/// Pre-extracted dependency structure of a trace.
pub struct Deps {
    /// recv event -> (send event, sender rank).
    pub send_of: HashMap<EventId, (EventId, Rank)>,
    /// Collective instances.
    pub insts: Vec<CollInst>,
    /// CollEnd event -> (instance index, member position).
    pub end_info: HashMap<EventId, (usize, usize)>,
    /// CollBegin event -> (instance index, member position).
    pub begin_info: HashMap<EventId, (usize, usize)>,
    /// send event -> recv event (for backward clamping).
    pub recv_of: HashMap<EventId, (EventId, Rank)>,
}

/// One collective instance in dependency form.
pub struct CollInst {
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
pub struct DepsOfEnd<'a> {
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

pub fn extract_deps(trace: &Trace) -> Result<Deps, ClcError> {
    let (matching, raw) = tracefmt::Capture::of(trace).finish();
    let raw = raw.map_err(ClcError::BadCollectives)?;
    Ok(deps_from_parts(&matching, &raw))
}

/// Build the dependency structure from an already-reconstructed
/// communication analysis.
pub fn deps_from_parts(
    matching: &tracefmt::Matching,
    raw: &[tracefmt::CollectiveInstance],
) -> Deps {
    let mut send_of = HashMap::with_capacity(matching.messages.len());
    let mut recv_of = HashMap::with_capacity(matching.messages.len());
    for m in &matching.messages {
        send_of.insert(m.recv, (m.send, m.from));
        recv_of.insert(m.send, (m.recv, m.to));
    }
    let mut insts = Vec::with_capacity(raw.len());
    let mut end_info = HashMap::new();
    let mut begin_info = HashMap::new();
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

/// The reference CLC: apply the algorithm to `trace` in place through the
/// dependency maps, returning correction statistics.
pub fn controlled_logical_clock_reference(
    trace: &mut Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    let deps = extract_deps(trace)?;
    controlled_logical_clock_with_deps(trace, &deps, lmin, params)
}

/// [`controlled_logical_clock_reference`] on a pre-extracted dependency
/// structure.
pub fn controlled_logical_clock_with_deps(
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
pub fn forward_pass(
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
