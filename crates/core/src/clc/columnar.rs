//! The CLC kernels: the forward and backward passes over columnar
//! timestamp storage and the dependency graph. Every batch CLC of this crate —
//! the pipeline's `clc` stage and [`super::controlled_logical_clock`] — is a
//! lowering that ends here.
//!
//! The passes are tight loops over dense `i64` picosecond columns
//! ([`TraceColumns`]) driven by the flat [`DepGraph`]:
//!
//! * an event's constraints are its `in_of` / `out_of` edges, never its
//!   kind: only matched receives and collective ends have in-edges, only
//!   matched sends and collective begins out-edges, each from one table
//!   row, and an empty edge slice leaves the event bound by its own
//!   timeline alone;
//! * the remote bound is a `max` over `corrected(producer) + latency` in
//!   saturating arithmetic, latencies baked into the edges at build and
//!   equal in both directions of an edge. In-edges are walked in dispatch
//!   order (the module docs of [`super`]) and the pass leaves a timeline at
//!   the first pending producer — the round-robin blocking schedule that
//!   fixes the order jumps are reported in;
//! * backward clamping takes a `min` over the out-edge set against the
//!   forward pass's times, so the result does not depend on timeline order.
//!
//! # One step, one walk, two schedules
//!
//! The arithmetic of the paper's §V algorithm is written once, here:
//! [`forward_step`] (remote bound → amortized local candidate → jump),
//! [`Walk::new`] (a jump's window and window start, with their saturation
//! order) and [`backward_walk`]. The batch passes below and the windowed
//! engine ([`crate::pipeline`]'s incremental entry points) both call them,
//! so the two engines cannot disagree on a timestamp. What each keeps to
//! itself is everything *around* the step: the schedule (run-to-block here,
//! bounded bursts with a safety frontier there), the storage (in place
//! over one slab here, ring lanes behind [`Timeline`] there) and the
//! aggregated evaluation of classed N-to-N collectives ([`CollPass`], batch
//! only — an aggregate would outlive the lanes' retired segments).
//!
//! The CLC ends with its walks; no closing μ = 1 forward sweep follows
//! them. The forward output F is a fixed point of such a sweep (monotone,
//! and above every remote bound); the walks only move events forward, and
//! [`backward_walk`] keeps their output C monotone (its shifts never grow
//! going back) and every moved event at or below what its consumers' F
//! allow (its cap). So C meets every constraint F met, and the sweep could
//! only have changed it by rounding: past 2⁵² ps its `Dur::scale(1.0)`
//! rounds a gap, up as well as down, even on a trace without a message.
//!
//! # What a run allocates
//!
//! Nothing proportional to the events but one bit each. The passes run in
//! place, so a failed run leaves a partial pass in the columns: both
//! callers (the pipeline's `clc` stage and the public drivers, which
//! gather their own columns) drop them on `Err` before anything is written
//! back. `events_moved` is counted from a 1-bit-per-event set ([`Moved`])
//! that the forward pass and the backward walks mark as they raise times.
//! The backward caps read the forward times of the events that consume a
//! constraint, and only those are kept
//! ([`Snapshot`]): one word per message and one per collective member row.
//!
//! Bit-identity with the map-based reference implementation of the same
//! algorithm (`tests/common/clc_reference.rs`, which shares no code with
//! this module) is enforced by `tests/csr_differential.rs`,
//! `tests/columnar_differential.rs` and the property tests.

use super::graph::{CollPass, DepGraph, Edges, Snapshot};
use super::{ClcError, ClcParams, ClcReport, Jump};
use simclock::{Dur, Time};
use tracefmt::{EventId, TraceColumns};

/// The CLC on timestamp columns over the CSR graph: forward pass, then —
/// when configured — backward amortization, whose output is final (module
/// docs). Latencies live on the graph edges, so no latency model is
/// consulted here. On error the columns hold a partial pass; the caller
/// drops them.
pub(crate) fn controlled_logical_clock_columnar_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    validate(params)?;
    let mut moved = Moved::new(cols.n_events());
    let mut report = forward_pass_csr(cols, graph, params.mu, &mut moved)?;
    if params.backward {
        backward_amortization_csr(cols, graph, params, &report.jumps, &mut moved);
    }
    report.events_total = cols.n_events();
    report.events_moved = moved.count();
    Ok(report)
}

/// The events a run has moved, one bit per gid. Every pass only raises
/// times — the forward candidate is at least the event's own time, a
/// walk's shift at least zero — so an event ends above its input iff some
/// pass raised it, and the union of what the passes mark is exact.
pub(crate) struct Moved(Vec<u64>);

impl Moved {
    pub(crate) fn new(n_events: usize) -> Moved {
        Moved(vec![0; n_events.div_ceil(64)])
    }

    /// Mark `gid` if `raised`; branch-free.
    #[inline(always)]
    pub(crate) fn mark(&mut self, gid: usize, raised: bool) {
        self.0[gid >> 6] |= u64::from(raised) << (gid & 63);
    }

    pub(crate) fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

pub(crate) fn check_mu(mu: f64) -> Result<(), ClcError> {
    if !(mu > 0.0 && mu <= 1.0) {
        return Err(ClcError::BadParams(format!("mu = {mu}")));
    }
    Ok(())
}

pub(crate) fn validate(params: &ClcParams) -> Result<(), ClcError> {
    check_mu(params.mu)?;
    if params.backward && params.backward_window_factor <= 0.0 {
        return Err(ClcError::BadParams("non-positive backward window".into()));
    }
    Ok(())
}

/// One forward step of the CLC — the only place its arithmetic is written;
/// the batch pass below and the windowed engine's sweeps both call it.
///
/// Folds the remote bound `max(corrected(producer) + latency)` over `view`
/// in dispatch order, starting from `known` (a bound the caller already
/// holds: an aggregated collective end's). `corrected` answers a producer's
/// corrected time, or `None` while it is pending — the step then returns
/// `None` having decided nothing, and the caller leaves the timeline there.
/// `prev` is the predecessor's (pre-pass, corrected) pair, `None` for a
/// timeline's first event: the local candidate keeps `mu` of the original
/// gap behind the predecessor's corrected time. Returns the corrected time;
/// when the remote bound won, `on_jump` is first handed the size of the
/// jump (a callback, not a returned option: the no-jump path stays
/// branch-free in the batch loop, worth 8 % of its `clc` stage).
///
/// Saturating arithmetic throughout: tenant streams may carry timestamps at
/// the `i64` edges, where plain ops debug-panic; saturation equals the
/// plain result whenever no overflow occurs.
#[inline(always)]
pub(crate) fn forward_step(
    orig: Time,
    prev: Option<(Time, Time)>,
    mu: f64,
    known: Option<Time>,
    view: Edges<'_>,
    mut corrected: impl FnMut(u32) -> Option<i64>,
    on_jump: impl FnOnce(Dur),
) -> Option<Time> {
    let mut remote = known;
    for (src, lat) in view.iter() {
        let c = Time::from_ps(corrected(src)?).saturating_add(Dur::from_ps(lat));
        remote = Some(remote.map_or(c, |b: Time| b.max(c)));
    }
    let candidate = candidate(orig, prev, mu);
    Some(match remote {
        Some(r) if r > candidate => {
            on_jump(r.saturating_since(candidate));
            r
        }
        _ => candidate,
    })
}

/// The amortized local candidate of [`forward_step`]: `orig`, or `mu` of
/// the original gap behind the predecessor's corrected time if that is
/// later. Alone, it is what an event with no remote bound takes — the
/// windowed engine replays a timeline's forward values from it and the
/// jumps its one cross-timeline sweep recorded.
#[inline(always)]
pub(crate) fn candidate(orig: Time, prev: Option<(Time, Time)>, mu: f64) -> Time {
    match prev {
        None => orig,
        Some((prev_orig, prev_corr)) => {
            let gap = orig.saturating_since(prev_orig).max(Dur::ZERO);
            orig.max(prev_corr.saturating_add(gap.scale(mu)))
        }
    }
}

/// The backward walk one jump asks for, derived once from the forward
/// value the jump event took. Events at or below `w_start` are never
/// written by the walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    /// Timeline-local index of the jump event (> 0: an index-0 jump has
    /// nothing before it to smooth).
    pub(crate) k: u64,
    /// Jump size.
    pub(crate) delta: Dur,
    /// Amortization window, `delta × backward_window_factor`.
    window: Dur,
    /// `(at − delta) − window`, in this saturation order.
    pub(crate) w_start: Time,
}

impl Walk {
    /// The walk of a jump of `delta` that left event `k` at `at`.
    pub(crate) fn new(k: u64, at: Time, delta: Dur, window_factor: f64) -> Walk {
        let window = delta.scale(window_factor);
        Walk { k, delta, window, w_start: at.saturating_sub(delta).saturating_sub(window) }
    }
}

/// What the backward walk needs of the timeline it rewrites: the batch
/// pass hands it a column slice, the windowed engine a ring lane, each
/// [`Marked`].
pub(crate) trait Timeline {
    fn get(&self, i: u64) -> i64;
    fn set(&mut self, i: u64, v: i64);
}

/// A column of the batch slab.
impl Timeline for [i64] {
    #[inline(always)]
    fn get(&self, i: u64) -> i64 {
        self[i as usize]
    }
    #[inline(always)]
    fn set(&mut self, i: u64, v: i64) {
        self[i as usize] = v;
    }
}

/// A timeline, `base` its first gid, marking in `moved` every event a
/// write raises.
pub(crate) struct Marked<'a, L: ?Sized> {
    pub(crate) line: &'a mut L,
    pub(crate) base: usize,
    pub(crate) moved: &'a mut Moved,
}

impl<L: Timeline + ?Sized> Timeline for Marked<'_, L> {
    #[inline(always)]
    fn get(&self, i: u64) -> i64 {
        self.line.get(i)
    }
    #[inline(always)]
    fn set(&mut self, i: u64, v: i64) {
        let t = self.line.get(i);
        self.moved.mark(self.base + i as usize, v != t);
        self.line.set(i, v);
    }
}

/// The latest time the consumers on `out` allow their producer, each
/// consumer's time read through `snapshot`: `min(snapshot(dst) − lat)` in
/// saturating arithmetic, `None` for an event nothing consumes — the cap
/// of [`backward_walk`] over a view ([`CollPass::latest`] folds it for the
/// begins of an aggregated instance).
#[inline(always)]
pub(crate) fn latest_allowed(out: Edges<'_>, mut snapshot: impl FnMut(u32) -> i64) -> Option<Time> {
    out.iter().map(|(dst, lat)| Time::from_ps(snapshot(dst)).saturating_sub(Dur::from_ps(lat))).min()
}

/// One backward walk — written once, like [`forward_step`]: shift the
/// events before the jump forward by `min(ramp, cap, shift of successor)`,
/// the ramp linear over the window, the cap what the event's consumers
/// leave (`latest` of its gid, as [`latest_allowed`] answers it: the
/// monotone `saturating_since` makes that the minimum of per-edge caps), and
/// stop at the window start or the first event that cannot move. `base` is
/// the gid of the timeline's first event.
///
/// It visits the events below `above` (`k` for a new walk), none shifted by
/// more than `shift_above` (`delta`). Where `latest` answers `None` — a
/// consumer not known yet; never in the batch pass — it stops before the
/// event and returns the pair to resume from; `None` once done.
#[inline(always)]
pub(crate) fn backward_walk<L: Timeline + ?Sized>(
    walk: &Walk,
    (above, mut shift_above): (u64, Dur),
    base: u32,
    line: &mut L,
    mut latest: impl FnMut(u32) -> Option<Option<Time>>,
) -> Option<(u64, Dur)> {
    for i in (0..above).rev() {
        let t_i = Time::from_ps(line.get(i));
        if t_i <= walk.w_start {
            break;
        }
        let frac = t_i.saturating_since(walk.w_start).as_ps() as f64
            / walk.window.as_ps().max(1) as f64;
        let ramp = walk.delta.scale(frac.clamp(0.0, 1.0));
        let Some(latest) = latest(base + i as u32) else {
            return Some((i + 1, shift_above));
        };
        let cap = latest.map_or(Dur::MAX, |l| l.saturating_since(t_i));
        let shift = ramp.min(cap).min(shift_above).max(Dur::ZERO);
        line.set(i, t_i.saturating_add(shift).as_ps());
        shift_above = shift;
        if shift == Dur::ZERO {
            break;
        }
    }
    None
}

/// The forward pass over CSR in-edges: assign corrected times in
/// dependency order, round-robin across timelines.
///
/// The pass runs **in place** over the columns' flat slab: an event's
/// pre-pass time is read exactly once, at its visit, before the corrected
/// time overwrites it; every other read is of a producer below its
/// timeline's frontier, which already holds its corrected time. So the hot
/// loop touches one dense `i64` array — no column indirection, no
/// binary-search `locate` (the producer-pending check compares raw gids
/// against a per-timeline frontier). Every event it raises is marked in
/// `moved`. On [`ClcError::CyclicTrace`] the slab holds a partial pass, and
/// `moved` marks part of it: the caller drops both.
///
/// A collective end of an aggregated N-to-N instance takes its bound from
/// the pass's [`CollPass`] instead of walking its view — the same maximum,
/// blocking at the same events (argued there).
pub(crate) fn forward_pass_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    mu: f64,
    moved: &mut Moved,
) -> Result<ClcReport, ClcError> {
    let n = cols.n_procs();
    let lens: Vec<usize> = (0..n).map(|p| cols.col(p).len()).collect();
    let flat = cols.flat_mut();
    let mut coll = CollPass::new(graph);
    // frontier[p]: gid of the next uncorrected event of timeline p. A
    // producer gid is corrected iff it is below its timeline's frontier.
    let mut frontier: Vec<u32> = (0..n).map(|p| graph.base(p)).collect();
    // Per timeline: the last corrected event's (pre-pass, corrected) pair.
    let mut prev: Vec<Option<(Time, Time)>> = vec![None; n];
    let mut report = ClcReport::default();

    loop {
        let mut progressed = false;
        for p in 0..n {
            let base = graph.base(p) as usize;
            let end = base + lens[p];
            let mut last = prev[p];
            'events: while (frontier[p] as usize) < end {
                let gid = frontier[p] as usize;
                let i = gid - base;
                let orig = Time::from_ps(flat[gid]);

                // An aggregated collective end takes its bound from the
                // pass's `CollPass` and walks nothing; every other event
                // walks its view.
                let mut known: Option<Time> = None;
                let link = graph.link(gid as u32);
                let mut view = graph.stored_in(link);
                if link.is_end() {
                    match coll.pending(graph, link) {
                        Some(0) => known = Some(Time::from_ps(coll.bound(link))),
                        Some(_) => break 'events, // a begin not yet corrected
                        None => view = graph.collective_in(link),
                    }
                }
                let ready = |src| (src < frontier[graph.proc_of(src)]).then(|| flat[src as usize]);
                let Some(corrected) = forward_step(orig, last, mu, known, view, ready, |size| {
                    report.jumps.push(Jump { event: EventId::new(p, i), size });
                    report.max_jump = report.max_jump.max(size);
                }) else {
                    break 'events; // producer not yet corrected
                };
                flat[gid] = corrected.as_ps();
                moved.mark(gid, corrected != orig);
                if link.is_begin() {
                    coll.begin_corrected(graph, link, flat);
                }
                last = Some((orig, corrected));
                frontier[p] += 1;
                progressed = true;
            }
            prev[p] = last;
        }
        if (0..n).all(|p| frontier[p] as usize == graph.base(p) as usize + lens[p]) {
            return Ok(report);
        }
        if !progressed {
            return Err(ClcError::CyclicTrace);
        }
    }
}

/// Backward amortization over columns and CSR out-edges: smooth each jump
/// over a window of preceding events with a linear ramp, clamped so no
/// outgoing message or collective contribution becomes violated.
///
/// Remote constraint times are read from a **snapshot** of the consumers'
/// forward times ([`Snapshot`]): the result is independent of timeline
/// order, and since backward shifts only ever move events *forward*,
/// snapshot-based slacks are conservative. A timeline's walks run in
/// ascending jump order — the forward pass's — so `col[k]` still holds the
/// value jump `k` left. Every event a walk raises is marked in `moved`.
fn backward_amortization_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    params: &ClcParams,
    jumps: &[Jump],
    moved: &mut Moved,
) {
    let snapshot = Snapshot::take(graph, cols.flat());
    let mut per_proc: Vec<Vec<Jump>> = vec![Vec::new(); cols.n_procs()];
    for j in jumps {
        per_proc[j.event.p()].push(*j);
    }
    let mut caps = CollPass::new(graph);
    for (p, col) in cols.iter_mut_slices() {
        debug_assert!(per_proc[p].windows(2).all(|w| w[0].event.i() < w[1].event.i()));
        let base = graph.base(p);
        for jump in per_proc[p].iter().filter(|j| j.event.i() > 0) {
            let k = jump.event.i();
            let walk = Walk::new(k as u64, Time::from_ps(col[k]), jump.size, params.backward_window_factor);
            let mut line = Marked { line: &mut *col, base: base as usize, moved: &mut *moved };
            backward_walk(&walk, (walk.k, walk.delta), base, &mut line, |gid| Some(caps.latest(graph, gid, &snapshot)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::{fixtures, ClcParams};
    use tracefmt::{Capture, MinLatency, Trace, UniformLatency};

    /// The positions where two runs differ.
    fn differing(corrected: &[i64], originals: &[i64]) -> usize {
        corrected.iter().zip(originals).filter(|(a, b)| a != b).count()
    }

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    fn graph_of(t: &Trace) -> DepGraph {
        let (matching, insts) = Capture::of(t).finish();
        DepGraph::from_trace(t, &matching, &insts.unwrap(), &LMIN)
    }

    #[test]
    fn local_cycle_is_reported_not_looped() {
        use simclock::Time;
        use tracefmt::{EventKind, Rank, Tag};
        let mut t = Trace::for_ranks(1);
        t.procs[0].push(
            Time::from_us(5),
            EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 },
        );
        t.procs[0].push(
            Time::from_us(10),
            EventKind::Send { to: Rank(0), tag: Tag(0), bytes: 0 },
        );
        let graph = graph_of(&t);
        let mut cols = TraceColumns::gather(&t);
        let err = controlled_logical_clock_columnar_csr(&mut cols, &graph, &ClcParams::default());
        assert!(matches!(err, Err(ClcError::CyclicTrace)));
    }

    /// Ranks on nodes of `node`, nodes under switches of `switch` ranks;
    /// between switches the latency depends on the direction. Longer than
    /// the fixtures' collectives last, so an end bounded by its *own*
    /// begin would jump.
    fn tree_latency(node: u32, switch: u32) -> impl Fn(tracefmt::Rank, tracefmt::Rank) -> Dur {
        move |from, to| {
            let (a, b) = (from.0, to.0);
            Dur::from_us(match (a / node == b / node, a / switch == b / switch) {
                (true, _) => 25,
                (_, true) => 50,
                _ => 90 + i64::from(a / switch > b / switch),
            })
        }
    }

    fn assert_same_run(
        (a, ra): (&TraceColumns, &ClcReport),
        (b, rb): (&TraceColumns, &ClcReport),
        ctx: &str,
    ) {
        assert_eq!(a.flat(), b.flat(), "{ctx}: timestamps");
        let jumps = |r: &ClcReport| r.jumps.iter().map(|j| (j.event, j.size)).collect::<Vec<_>>();
        assert_eq!(jumps(ra), jumps(rb), "{ctx}: jump sequence");
        assert_eq!((ra.max_jump, ra.events_moved), (rb.max_jump, rb.events_moved), "{ctx}");
    }

    /// The aggregated N-to-N members — ends forward, begins backward —
    /// against the view walk of the same graph: timestamps, jumps and the
    /// order the jumps are found in. (Against the map-based reference:
    /// `tests/csr_differential.rs`, these cases and hand-built ones — ties
    /// at a class minimum, a begin's own end the lowest, the `i64` edges.)
    #[test]
    fn aggregated_ends_equal_the_view_walk() {
        let flat = |_: tracefmt::Rank, _: tracefmt::Rank| Dur::from_us(40);
        let cases: [(usize, usize, &dyn MinLatency); 5] = [
            (2, 9, &flat),
            (6, 21, &tree_latency(2, 4)),
            (9, 30, &tree_latency(3, 6)),
            (24, 13, &tree_latency(4, 8)),
            // Nodes {0, 1}, {2, 3} and {4}: rank 4 is a class of its own.
            (5, 17, &tree_latency(2, 4)),
        ];
        for (procs, rounds, lmin) in cases {
            let ctx = format!("{procs}x{rounds}");
            let base = fixtures::mixed_trace(procs, rounds);
            let (matching, insts) = Capture::of(&base).finish();
            let insts = insts.unwrap();
            for backward in [true, false] {
                let params = ClcParams { backward, ..ClcParams::default() };
                let graph = DepGraph::from_trace(&base, &matching, &insts, lmin);
                assert_eq!(graph.n_aggregated(), insts.len(), "{ctx}: every allreduce is classed");
                let mut classed = TraceColumns::gather(&base);
                let rc = controlled_logical_clock_columnar_csr(&mut classed, &graph, &params).unwrap();
                assert!(rc.n_jumps() > 0, "{ctx}: nothing to correct");

                let walk_graph = graph.without_aggregation();
                let mut walked = TraceColumns::gather(&base);
                let rw =
                    controlled_logical_clock_columnar_csr(&mut walked, &walk_graph, &params).unwrap();
                assert_same_run((&classed, &rc), (&walked, &rw), &format!("{ctx} backward {backward}"));
            }
        }
    }

    /// The moved-event set against the positions of the slab that
    /// changed, on skewed mixed traces and on the same traces with one
    /// timeline's first half moved 2⁶⁰ ps back: the events the pass and
    /// the walks mark are exactly those that end above their input.
    #[test]
    fn the_moved_set_is_what_the_run_raised() {
        let params = ClcParams::default();
        for (procs, rounds) in [(2, 9), (5, 17), (8, 23)] {
            let skewed = fixtures::mixed_trace(procs, rounds);
            let mut split = skewed.clone();
            let half = split.procs[1].events.len() / 2;
            for e in &mut split.procs[1].events[..half] {
                e.time = e.time.saturating_sub(Dur::from_ps(1 << 60));
            }
            for trace in [&skewed, &split] {
                let (graph, cols) = (graph_of(trace), TraceColumns::gather(trace));
                let mut fixed = cols.clone();
                let rep = controlled_logical_clock_columnar_csr(&mut fixed, &graph, &params).unwrap();
                assert!(rep.n_jumps() > 0, "{procs}x{rounds}: nothing to correct");
                assert_eq!(rep.events_moved, differing(fixed.flat(), cols.flat()), "{procs}x{rounds}");
            }
        }
    }

    /// The pass is in place, so a cycle is found with part of the slab
    /// already rewritten: the public driver must drop those columns and
    /// hand the trace back as it was, bit for bit.
    #[test]
    fn cyclic_trace_leaves_the_trace_untouched() {
        let mut t = fixtures::cyclic_after_a_jump();
        let before = TraceColumns::gather(&t);

        let mut scratch = before.clone();
        let graph = graph_of(&t);
        let failed = forward_pass_csr(&mut scratch, &graph, 0.99, &mut Moved::new(t.n_events()));
        assert!(matches!(failed, Err(ClcError::CyclicTrace)));
        assert_ne!(scratch.flat(), before.flat(), "the fixture must fail after a correction");

        let err = crate::clc::controlled_logical_clock(&mut t, &LMIN, &ClcParams::default());
        assert!(matches!(err, Err(ClcError::CyclicTrace)));
        assert_eq!(TraceColumns::gather(&t).flat(), before.flat());
    }

    #[test]
    fn bad_params_rejected() {
        let base = fixtures::mixed_trace(2, 3);
        let graph = graph_of(&base);
        let mut cols = TraceColumns::gather(&base);
        let err = controlled_logical_clock_columnar_csr(
            &mut cols,
            &graph,
            &ClcParams { mu: 0.0, ..ClcParams::default() },
        );
        assert!(matches!(err, Err(ClcError::BadParams(_))));
    }
}
