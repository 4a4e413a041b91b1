//! The CLC kernels: the forward and backward passes over columnar
//! timestamp storage and the CSR graph. Every batch CLC of this crate —
//! the pipeline's `clc` stage, [`super::controlled_logical_clock`], the
//! POMP and clock-domain variants — is a lowering that ends here.
//!
//! The passes are tight loops over dense `i64` picosecond columns
//! ([`TraceColumns`]) driven by the flat [`DepGraph`]:
//!
//! * an event's constraints are its `in_of` / `out_of` edges, never its
//!   kind: only matched receives, collective ends and constrained events
//!   have in-edges, only matched sends, collective begins and constraining
//!   events out-edges, and an empty edge slice leaves the event bound by
//!   its own timeline alone;
//! * the remote bound is a `max` over `corrected(producer) + latency` in
//!   saturating arithmetic, latencies baked into the edges at build and
//!   equal in both directions of an edge. In-edges are walked in dispatch
//!   order (the module docs of [`super`]) and the pass leaves a timeline at
//!   the first pending producer — the round-robin blocking schedule that
//!   fixes the order jumps are reported in;
//! * backward clamping takes a `min` over the out-edge set against a
//!   snapshot taken after the forward pass, so the result does not depend
//!   on timeline order.
//!
//! Bit-identity with the map-based reference implementation of the same
//! algorithm (`tests/common/clc_reference.rs`, which shares no code with
//! this module) is enforced by `tests/csr_differential.rs`,
//! `tests/columnar_differential.rs` and the property tests.

use super::graph::{CollPass, DepGraph};
use super::{ClcError, ClcParams, ClcReport, Jump};
use simclock::{Dur, Time};
use tracefmt::{EventId, TraceColumns};

/// The CLC on timestamp columns over the CSR graph: forward pass, then —
/// when configured — backward amortization and a μ = 1 forward sweep that
/// guarantees the postcondition whatever the clamping left. Latencies live
/// on the graph edges, so no latency model is consulted here. On error the
/// columns are left as they were.
pub(crate) fn controlled_logical_clock_columnar_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    validate(params)?;
    let originals = flatten_by_gid(cols);
    let passes = |cols: &mut TraceColumns| {
        let report = forward_pass_csr(cols, graph, params.mu)?;
        if params.backward {
            backward_amortization_csr(cols, graph, params, &report.jumps);
            forward_pass_csr(cols, graph, 1.0)?;
        }
        Ok(report)
    };
    let mut report = passes(cols).inspect_err(|_| cols.flat_mut().copy_from_slice(&originals))?;
    report.events_total = cols.n_events();
    report.events_moved = events_moved(cols, &originals);
    Ok(report)
}

/// Snapshot the columns as one dense `i64` slab indexed by gid — the
/// layout every CSR kernel reads its snapshots and originals in. The
/// columns' own slab is already timeline-major in gid order, so this is a
/// single `memcpy` of live storage.
fn flatten_by_gid(cols: &TraceColumns) -> Vec<i64> {
    cols.flat().to_vec()
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

/// Count events whose corrected time differs from the original. Branchless
/// compare-and-sum over two dense `i64` runs — the autovectorizer turns
/// each timeline into packed compares.
fn events_moved(cols: &TraceColumns, originals: &[i64]) -> usize {
    cols.flat()
        .iter()
        .zip(originals)
        .map(|(&a, &b)| usize::from(a != b))
        .sum()
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
/// against a per-timeline frontier). On [`ClcError::CyclicTrace`] the slab
/// holds a partial pass; a caller that promises untouched columns restores
/// them from its own copy.
///
/// A collective end of an aggregated N-to-N instance takes its bound from
/// the pass's [`CollPass`] instead of walking its view — the same maximum,
/// blocking at the same events (argued there).
pub(crate) fn forward_pass_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    mu: f64,
) -> Result<ClcReport, ClcError> {
    let n = cols.n_procs();
    let lens: Vec<usize> = (0..n).map(|p| cols.col(p).len()).collect();
    let flat = cols.flat_mut();
    let mut coll = CollPass::new(graph);
    // frontier[p]: gid of the next uncorrected event of timeline p. A
    // producer gid is corrected iff it is below its timeline's frontier.
    let mut frontier: Vec<u32> = (0..n).map(|p| graph.base(p)).collect();
    let mut prev_orig = vec![Time::MIN; n];
    let mut prev_corr = vec![Time::MIN; n];
    let mut report = ClcReport::default();

    loop {
        let mut progressed = false;
        for p in 0..n {
            let base = graph.base(p) as usize;
            let end = base + lens[p];
            'events: while (frontier[p] as usize) < end {
                let gid = frontier[p] as usize;
                let i = gid - base;
                let orig = Time::from_ps(flat[gid]);

                // Remote constraint: max over in-edge producers, walked in
                // dispatch order; the pass blocks on the first pending one.
                let mut remote: Option<Time> = None;
                let slot = graph.member_slot(gid as u32);
                let mut view = graph.message_in(gid as u32);
                if slot & 1 == 1 && view.is_empty() {
                    match coll.pending(graph, slot) {
                        Some(0) => remote = Some(Time::from_ps(coll.bound(slot))),
                        Some(_) => break 'events, // a begin not yet corrected
                        None => view = graph.collective_in(gid as u32),
                    }
                }
                for (src, lat) in view.iter() {
                    if src >= frontier[graph.proc_of(src)] {
                        break 'events; // producer not yet corrected
                    }
                    let c = Time::from_ps(flat[src as usize]).saturating_add(Dur::from_ps(lat));
                    remote = Some(remote.map_or(c, |b: Time| b.max(c)));
                }

                // Amortized local candidate. Saturating arithmetic: tenant
                // streams may carry timestamps at the `i64` edges, where
                // plain ops debug-panic; saturation equals the plain result
                // whenever no overflow occurs.
                let candidate = if i == 0 {
                    orig
                } else {
                    let gap = orig.saturating_since(prev_orig[p]).max(Dur::ZERO);
                    orig.max(prev_corr[p].saturating_add(gap.scale(mu)))
                };
                let corrected = match remote {
                    Some(r) if r > candidate => {
                        let size = r.saturating_since(candidate);
                        report.jumps.push(Jump { event: EventId::new(p, i), size });
                        report.max_jump = report.max_jump.max(size);
                        r
                    }
                    _ => candidate,
                };
                flat[gid] = corrected.as_ps();
                if slot != 0 && slot & 1 == 0 {
                    coll.begin_corrected(graph, slot, flat);
                }
                prev_orig[p] = orig;
                prev_corr[p] = corrected;
                frontier[p] += 1;
                progressed = true;
            }
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
/// Remote constraint times are read from a **snapshot** taken after the
/// forward pass: the result is independent of timeline order, and since
/// backward shifts only ever move events *forward*, snapshot-based slacks
/// are conservative.
fn backward_amortization_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    params: &ClcParams,
    jumps: &[Jump],
) {
    // Flatten the snapshot by gid: backward clamping reads remote times by
    // out-edge target, which is already a gid.
    let snapshot = flatten_by_gid(cols);
    let mut per_proc: Vec<Vec<Jump>> = vec![Vec::new(); cols.n_procs()];
    for j in jumps {
        per_proc[j.event.p()].push(*j);
    }
    for list in per_proc.iter_mut() {
        list.sort_by_key(|j| j.event.i());
    }
    for (p, col) in cols.iter_mut_slices() {
        backward_pass_csr(p, col, &per_proc[p], graph, params, &snapshot);
    }
}

/// The per-timeline backward kernel over a raw picosecond slice and CSR
/// out-edges. `snapshot` is the post-forward trace flattened by gid.
fn backward_pass_csr(
    p: usize,
    col: &mut [i64],
    jumps: &[Jump],
    graph: &DepGraph,
    params: &ClcParams,
    snapshot: &[i64],
) {
    let base = graph.base(p);
    for jump in jumps {
        let k = jump.event.i();
        if k == 0 {
            continue;
        }
        let delta = jump.size;
        let t_pre = Time::from_ps(col[k]).saturating_sub(delta);
        let window = delta.scale(params.backward_window_factor);
        let w_start = t_pre.saturating_sub(window);
        // Walk backward applying min(ramp, cap, shift_of_successor).
        let mut shift_above = delta;
        for i in (0..k).rev() {
            let t_i = Time::from_ps(col[i]);
            if t_i <= w_start {
                break;
            }
            let frac = t_i.saturating_since(w_start).as_ps() as f64
                / window.as_ps().max(1) as f64;
            let ramp = delta.scale(frac.clamp(0.0, 1.0));
            let mut cap = Dur::MAX;
            for (dst, lat) in graph.out_of(base + i as u32).iter() {
                cap = cap.min(
                    Time::from_ps(snapshot[dst as usize])
                        .saturating_sub(Dur::from_ps(lat))
                        .saturating_since(t_i),
                );
            }
            let shift = ramp.min(cap).min(shift_above).max(Dur::ZERO);
            col[i] = t_i.saturating_add(shift).as_ps();
            shift_above = shift;
            if shift == Dur::ZERO {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::{fixtures, ClcParams};
    use tracefmt::{match_collectives, match_messages, MinLatency, Trace, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    fn graph_of(t: &Trace) -> DepGraph {
        let matching = match_messages(t);
        let insts = match_collectives(t).unwrap();
        DepGraph::from_trace(t, &matching, &insts, &LMIN)
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

    /// The aggregated N-to-N ends against the view walk of the same graph:
    /// timestamps, jumps and the order the jumps are found in. (Against the
    /// map-based reference: `tests/csr_differential.rs`, same cases.)
    #[test]
    fn aggregated_ends_equal_the_view_walk() {
        let flat = |_: tracefmt::Rank, _: tracefmt::Rank| Dur::from_us(40);
        let cases: [(usize, usize, &dyn MinLatency); 4] = [
            (2, 9, &flat),
            (6, 21, &tree_latency(2, 4)),
            (9, 30, &tree_latency(3, 6)),
            (24, 13, &tree_latency(4, 8)),
        ];
        for (procs, rounds, lmin) in cases {
            let ctx = format!("{procs}x{rounds}");
            let base = fixtures::mixed_trace(procs, rounds);
            let matching = match_messages(&base);
            let insts = match_collectives(&base).unwrap();
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
                assert_same_run((&classed, &rc), (&walked, &rw), &format!("{ctx} vs walk"));
            }
        }
    }

    /// The pass is in place, so a cycle is found with part of the slab
    /// already rewritten: the driver must hand the columns back as they
    /// were, bit for bit.
    #[test]
    fn cyclic_trace_leaves_the_columns_untouched() {
        let t = fixtures::cyclic_after_a_jump();
        let graph = graph_of(&t);
        let mut cols = TraceColumns::gather(&t);
        let before = cols.flat().to_vec();

        let mut scratch = TraceColumns::gather(&t);
        assert!(matches!(forward_pass_csr(&mut scratch, &graph, 0.99), Err(ClcError::CyclicTrace)));
        assert_ne!(scratch.flat(), &before[..], "the fixture must fail after a correction");

        let err = controlled_logical_clock_columnar_csr(&mut cols, &graph, &ClcParams::default());
        assert!(matches!(err, Err(ClcError::CyclicTrace)));
        assert_eq!(cols.flat(), &before[..]);
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
