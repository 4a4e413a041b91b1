//! Replay-based parallel CLC (paper reference [31]): batched lock-free
//! replay over the CSR graph.
//!
//! The forward pass is embarrassingly replayable: each process's corrected
//! timeline depends on other processes only through the corrected *send*
//! times of messages it receives and the corrected *begin* times of
//! collectives it participates in. Re-enacting that communication
//! literally — one channel message per send, a mutex/condvar gather cell
//! per collective — costs a synchronization round-trip *per event*. This
//! engine lowers the whole dependency structure into the flat CSR
//! [`DepGraph`] first and streams corrected timestamps between workers over
//! one single-producer/single-consumer **ring** per ordered timeline pair:
//!
//! * **sizing** — [`DepGraph::cross_count`]`(q, p)` is the exact number of
//!   cross-timeline edges from `q` to `p`, so the `q → p` ring is allocated
//!   at exactly that capacity and *never wraps*: every slot is written at
//!   most once, read at most once, and no back-pressure logic exists;
//! * **batched publication** — the producer writes entries with plain
//!   (unsynchronized) stores and publishes them in chunks by bumping a
//!   single `published` counter with Release ordering every
//!   [`BATCH`] entries per ring; the consumer Acquire-loads the counter
//!   and drains `consumed..published` without any atomics on the entries
//!   themselves. One synchronizing store amortizes 256 events;
//! * **epoch flush** — every [`EPOCH`] locally processed events (≈ the
//!   order of a backward-amortization window on the bench traces) a worker
//!   publishes all of its rings, bounding how stale a fast consumer's view
//!   of a slow producer can get;
//! * **flush before blocking** — a worker always publishes *all* of its
//!   rings before spinning on a missing dependency, and once more when its
//!   timeline is done. This is the deadlock-freedom argument: on an
//!   acyclic dependency graph, take the globally earliest unprocessed
//!   event in topological order — its producers are all processed, and
//!   each producing worker has since either blocked, finished, or crossed
//!   an epoch boundary, all of which publish; so the entry is visible and
//!   the consumer progresses.
//!
//! Each worker owns its timestamp column (`&mut [i64]`) and walks it in
//! program order; same-timeline edges are applied inline (the graph's
//! [`DepGraph::local_cycle`] check guarantees the producer precedes the
//! consumer, and rejects malformed traces up front instead of
//! deadlocking). The per-event arithmetic is identical to the serial
//! forward pass, and the remote bound is a `max` over the same edge
//! contributions — order-independent, hence bit-identical results
//! regardless of arrival interleaving. Backward amortization and the μ=1
//! safety-net sweep then reuse the serial CSR kernels.

use super::columnar::{
    backward_amortization_csr, controlled_logical_clock_columnar_csr, events_moved,
    flatten_by_gid, forward_pass_csr, validate,
};
use super::graph::DepGraph;
use super::{ClcError, ClcParams, ClcReport, Jump};
use simclock::{Dur, Time};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tracefmt::{match_collectives, match_messages, EventId, MinLatency, Trace, TraceColumns};

/// Entries appended to a ring before its producer publishes them.
pub(crate) const BATCH: usize = 256;
/// Locally processed events between unconditional publishes of all rings.
pub(crate) const EPOCH: usize = 4096;

/// One remote-bound delivery: the consumer-local event index and the
/// producer's contribution `corrected + latency`, in picoseconds.
#[derive(Clone, Copy, Default)]
struct RingEntry {
    idx: u32,
    bound_ps: i64,
}

/// Single-producer/single-consumer append-only ring. Capacity equals the
/// exact cross-edge count of its timeline pair, so indices never wrap.
struct Ring {
    slots: Box<[UnsafeCell<RingEntry>]>,
    /// Entries `0..published` are visible to the consumer.
    published: AtomicUsize,
}

// SAFETY: exactly one thread (the producer) writes `slots`, strictly below
// its private write cursor, and makes writes visible only by bumping
// `published` with Release; exactly one thread (the consumer) reads, and
// only below an Acquire-load of `published`. The release/acquire pair
// orders every slot write before its read, and no slot is ever reused.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| UnsafeCell::new(RingEntry::default())).collect(),
            published: AtomicUsize::new(0),
        }
    }
}

/// Producer-side view of one outbound ring: a private write cursor plus
/// the last published watermark, so publication is skipped when nothing
/// new was written.
struct Outbound<'a> {
    ring: &'a Ring,
    written: usize,
    published: usize,
}

impl Outbound<'_> {
    #[inline]
    fn push(&mut self, idx: u32, bound_ps: i64) {
        debug_assert!(self.written < self.ring.slots.len(), "ring sized below edge count");
        // SAFETY: sole producer; `written` never reaches capacity (exact
        // sizing) and slots at or above `written` are unpublished.
        unsafe { *self.ring.slots[self.written].get() = RingEntry { idx, bound_ps } };
        self.written += 1;
        if self.written - self.published >= BATCH {
            self.publish();
        }
    }

    #[inline]
    fn publish(&mut self) {
        if self.written != self.published {
            self.ring.published.store(self.written, Ordering::Release);
            self.published = self.written;
        }
    }
}

/// Drain everything newly published on one inbound ring into the
/// consumer's accumulator state.
#[inline]
fn drain(ring: &Ring, consumed: &mut usize, acc: &mut [i64], remaining: &mut [u32]) -> bool {
    let avail = ring.published.load(Ordering::Acquire);
    if avail == *consumed {
        return false;
    }
    for at in *consumed..avail {
        // SAFETY: `at < avail <= published`, so the producer's Release
        // publication of this slot happens-before this read.
        let e = unsafe { *ring.slots[at].get() };
        let li = e.idx as usize;
        acc[li] = acc[li].max(e.bound_ps);
        remaining[li] -= 1;
    }
    *consumed = avail;
    true
}

/// The one replay-selection rule: the replay engine runs one thread per
/// timeline, which pays off only when the caller asked for a real worker
/// pool *and* the host has a second hardware thread. With one CPU the
/// workers only time-slice each other and the ring handoffs are pure
/// overhead (measured 0.45× of serial), so the bit-identical serial CSR
/// kernel runs instead.
pub(crate) fn use_replay(workers: usize, cpus: usize) -> bool {
    workers >= 2 && cpus >= 2
}

/// Hardware threads available to this process. An unknown count reads as
/// two, so [`use_replay`] is decided by the worker request alone. Probed
/// once: `available_parallelism` reads the affinity mask and the cgroup
/// quota files, which costs more than a small job's whole CLC.
pub(crate) fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(2, usize::from))
}

/// The CLC on timestamp columns over a pre-lowered CSR graph: the ring
/// replay when `replay` (see [`use_replay`]), the serial CSR kernel
/// otherwise. Bit-identical either way; the `Duration` is the replay
/// workers' summed stall time (zero for the serial kernel).
pub(crate) fn controlled_logical_clock_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    params: &ClcParams,
    replay: bool,
) -> Result<(ClcReport, Duration), ClcError> {
    if replay {
        controlled_logical_clock_replay_csr(cols, graph, params)
    } else {
        controlled_logical_clock_columnar_csr(cols, graph, params).map(|r| (r, Duration::ZERO))
    }
}

/// Parallel forward pass + (serial-equivalent) backward amortization.
///
/// Produces exactly the same corrected trace as
/// [`super::controlled_logical_clock`]; use it for large traces where the
/// per-process work dominates. One replay worker runs per timeline (see
/// [`use_replay`] for when the serial kernel runs instead).
pub fn controlled_logical_clock_parallel(
    trace: &mut Trace,
    lmin: &(dyn MinLatency + Sync),
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    let matching = match_messages(trace);
    let insts = match_collectives(trace).map_err(ClcError::BadCollectives)?;
    let graph = DepGraph::from_trace(trace, &matching, &insts, lmin);
    let mut cols = TraceColumns::gather(trace);
    let replay = use_replay(trace.n_procs(), available_cpus());
    let (report, _wait) = controlled_logical_clock_csr(&mut cols, &graph, params, replay)?;
    cols.scatter_into(trace);
    Ok(report)
}

/// Parallel CLC on timestamp columns over the CSR graph: batched ring
/// replay forward pass, threaded CSR backward amortization, serial μ=1
/// safety-net sweep. Returns the report plus the summed time workers spent
/// stalled waiting on remote dependencies (the stage's merge-wait).
///
/// Bit-identical to [`super::columnar::controlled_logical_clock_columnar_csr`]
/// by the argument in the module docs.
pub(crate) fn controlled_logical_clock_replay_csr(
    cols: &mut TraceColumns,
    graph: &DepGraph,
    params: &ClcParams,
) -> Result<(ClcReport, Duration), ClcError> {
    validate(params)?;
    if graph.local_cycle().is_some() {
        return Err(ClcError::CyclicTrace);
    }
    let n = cols.n_procs();
    let originals = flatten_by_gid(cols);

    // One ring per ordered cross pair, indexed producer-major: the q → p
    // ring lives at `q * n + p`. Same-pair slots get empty rings.
    let rings: Vec<Ring> = (0..n * n)
        .map(|qp| {
            let (q, p) = (qp / n, qp % n);
            Ring::new(if q == p { 0 } else { graph.cross_count(q, p) as usize })
        })
        .collect();
    let rings_ref = &rings;
    let originals_ref = &originals;

    let mut worker_out: Vec<(Vec<Jump>, Duration)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (p, col) in cols.iter_mut_slices() {
            let mu = params.mu;
            let b = graph.base(p) as usize;
            let my_originals = &originals_ref[b..b + col.len()];
            handles.push(scope.spawn(move || {
                replay_worker(p, n, col, my_originals, graph, rings_ref, mu)
            }));
        }
        for h in handles {
            worker_out.push(h.join().expect("replay worker panicked"));
        }
    });

    let mut jumps = Vec::new();
    let mut wait = Duration::ZERO;
    for (j, w) in worker_out {
        jumps.extend(j);
        wait += w;
    }
    jumps.sort_by_key(|j| (j.event.proc, j.event.idx));
    let max_jump = jumps.iter().map(|j| j.size).max().unwrap_or(Dur::ZERO);

    if params.backward {
        backward_amortization_csr(cols, graph, params, &jumps, true);
        forward_pass_csr(cols, graph, 1.0)?;
    }

    let report = ClcReport {
        max_jump,
        events_moved: events_moved(cols, &originals),
        events_total: cols.n_events(),
        jumps,
    };
    Ok((report, wait))
}

/// One timeline's replay: walk the column in program order, stalling only
/// when a cross-timeline producer has not yet published.
fn replay_worker(
    p: usize,
    n: usize,
    col: &mut [i64],
    originals: &[i64],
    graph: &DepGraph,
    rings: &[Ring],
    mu: f64,
) -> (Vec<Jump>, Duration) {
    let base = graph.base(p);
    let len = col.len();

    // Remote-bound accumulator and outstanding in-edge count per local
    // event. Same-timeline contributions are applied inline below, so both
    // cover *all* in-edges uniformly.
    let mut acc = vec![i64::MIN; len];
    let mut remaining: Vec<u32> = (0..len)
        .map(|i| graph.in_of(base + i as u32).len() as u32)
        .collect();

    let mut outbound: Vec<Outbound<'_>> = (0..n)
        .map(|q| Outbound { ring: &rings[p * n + q], written: 0, published: 0 })
        .collect();
    let mut consumed = vec![0usize; n];

    let mut jumps = Vec::new();
    let mut waited = Duration::ZERO;
    let mut prev_orig = Time::MIN;
    let mut prev_corr = Time::MIN;

    for i in 0..len {
        let has_deps = !graph.in_of(base + i as u32).is_empty();
        if remaining[i] > 0 {
            // Opportunistic drain first; publish our own rings before
            // spinning so no consumer of ours can be starved by us.
            for q in 0..n {
                if q != p {
                    drain(&rings[q * n + p], &mut consumed[q], &mut acc, &mut remaining);
                }
            }
            if remaining[i] > 0 {
                for out in outbound.iter_mut() {
                    out.publish();
                }
                let stall = Instant::now();
                while remaining[i] > 0 {
                    let mut any = false;
                    for q in 0..n {
                        if q != p {
                            any |= drain(
                                &rings[q * n + p],
                                &mut consumed[q],
                                &mut acc,
                                &mut remaining,
                            );
                        }
                    }
                    if !any {
                        std::thread::yield_now();
                    }
                }
                waited += stall.elapsed();
            }
        }

        let orig = Time::from_ps(originals[i]);
        let remote = if has_deps { Some(Time::from_ps(acc[i])) } else { None };
        let candidate = if i == 0 {
            orig
        } else {
            let gap = orig.saturating_since(prev_orig).max(Dur::ZERO);
            orig.max(prev_corr.saturating_add(gap.scale(mu)))
        };
        let corrected = match remote {
            Some(r) if r > candidate => {
                jumps.push(Jump {
                    event: EventId::new(p, i),
                    size: r.saturating_since(candidate),
                });
                r
            }
            _ => candidate,
        };
        col[i] = corrected.as_ps();
        prev_orig = orig;
        prev_corr = corrected;

        // Publish the corrected time along every out-edge.
        for (dst, lat) in graph.out_of(base + i as u32).iter() {
            let bound = corrected.saturating_add(Dur::from_ps(lat)).as_ps();
            if dst >= base && ((dst - base) as usize) < len {
                // Same timeline: the local-cycle check guarantees the
                // consumer lies ahead of us in program order.
                let li = (dst - base) as usize;
                acc[li] = acc[li].max(bound);
                remaining[li] -= 1;
            } else {
                let (dp, di) = graph.locate(dst);
                outbound[dp].push(di as u32, bound);
            }
        }

        if (i + 1) % EPOCH == 0 {
            for out in outbound.iter_mut() {
                out.publish();
            }
        }
    }
    // Final flush: anything still unpublished becomes visible now.
    for out in outbound.iter_mut() {
        out.publish();
    }
    (jumps, waited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::{controlled_logical_clock, fixtures};
    use tracefmt::{check_collectives, check_p2p, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    fn graph_of(t: &Trace) -> DepGraph {
        let matching = match_messages(t);
        let insts = match_collectives(t).unwrap();
        DepGraph::from_trace(t, &matching, &insts, &LMIN)
    }

    #[test]
    fn replay_selection_table() {
        // (workers, cpus) -> replay. Only a real pool on a multi-CPU host.
        for (workers, cpus, want) in [
            (0, 1, false),
            (1, 1, false),
            (2, 1, false),
            (16, 1, false),
            (0, 2, false),
            (1, 8, false),
            (2, 2, true),
            (8, 64, true),
        ] {
            assert_eq!(use_replay(workers, cpus), want, "workers={workers} cpus={cpus}");
        }
        assert!(available_cpus() >= 1);
    }

    /// The public entry point against the map-based reference CLC, with
    /// and without backward amortization, down to a single timeline.
    #[test]
    fn parallel_matches_map_based_serial_exactly() {
        for backward in [true, false] {
            for (procs, rounds) in [(1, 10), (4, 15), (6, 20)] {
                let base = fixtures::mixed_trace(procs, rounds);
                let params = ClcParams { backward, ..ClcParams::default() };
                let mut serial = base.clone();
                let mut par = base.clone();
                let rs = controlled_logical_clock(&mut serial, &LMIN, &params).unwrap();
                let rp = controlled_logical_clock_parallel(&mut par, &LMIN, &params).unwrap();
                let ctx = format!("{procs}x{rounds} backward={backward}");
                assert_eq!(rs.n_jumps(), rp.n_jumps(), "{ctx}: jump count");
                for p in 0..procs {
                    assert_eq!(serial.procs[p].events, par.procs[p].events, "{ctx}: proc {p}");
                }
            }
        }
    }

    #[test]
    fn parallel_restores_clock_condition() {
        let mut t = fixtures::mixed_trace(8, 30);
        controlled_logical_clock_parallel(&mut t, &LMIN, &ClcParams::default()).unwrap();
        let r = check_p2p(&t, &match_messages(&t), &LMIN);
        assert!(r.violations.is_empty(), "{} p2p violations", r.violations.len());
        let c = check_collectives(&t, &match_collectives(&t).unwrap(), &LMIN);
        assert_eq!(c.logical_violated, 0);
        assert!(t.is_locally_monotone());
    }

    #[test]
    fn replay_matches_serial_csr_exactly() {
        for (procs, rounds) in [(2, 8), (5, 17), (8, 25)] {
            let base = fixtures::mixed_trace(procs, rounds);
            let params = ClcParams::default();
            let graph = graph_of(&base);

            let mut serial = TraceColumns::gather(&base);
            let rs = controlled_logical_clock_columnar_csr(&mut serial, &graph, &params).unwrap();

            let mut par = TraceColumns::gather(&base);
            let (rp, _) = controlled_logical_clock_replay_csr(&mut par, &graph, &params).unwrap();

            assert_eq!(rs.n_jumps(), rp.n_jumps(), "{procs}x{rounds}");
            assert_eq!(rs.max_jump, rp.max_jump);
            assert_eq!(rs.events_moved, rp.events_moved);
            // Jump *order* differs (serial discovers jumps in round-robin
            // order, replay reports them grouped per timeline); the jump
            // set is identical.
            let key = |j: &super::Jump| (j.event.proc, j.event.idx, j.size);
            let mut js: Vec<_> = rs.jumps.iter().map(key).collect();
            let mut jp: Vec<_> = rp.jumps.iter().map(key).collect();
            js.sort_unstable();
            jp.sort_unstable();
            assert_eq!(js, jp, "{procs}x{rounds}: jump sets differ");
            for (id, _) in base.iter_events() {
                assert_eq!(serial.time(id), par.time(id), "{procs}x{rounds} {id:?}");
            }
        }
    }

    #[test]
    fn forward_only_replay_matches() {
        let base = fixtures::mixed_trace(6, 20);
        let params = ClcParams { backward: false, ..ClcParams::default() };
        let graph = graph_of(&base);

        let mut serial = TraceColumns::gather(&base);
        controlled_logical_clock_columnar_csr(&mut serial, &graph, &params).unwrap();
        let mut par = TraceColumns::gather(&base);
        controlled_logical_clock_replay_csr(&mut par, &graph, &params).unwrap();

        for (id, _) in base.iter_events() {
            assert_eq!(serial.time(id), par.time(id));
        }
    }

    #[test]
    fn local_cycle_errors_before_spawning() {
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
        let err = controlled_logical_clock_replay_csr(&mut cols, &graph, &ClcParams::default());
        assert!(matches!(err, Err(ClcError::CyclicTrace)));
    }

    #[test]
    fn single_timeline_works() {
        use simclock::Time;
        use tracefmt::{EventKind, RegionId};
        let mut t = Trace::for_ranks(1);
        for i in 0..10 {
            t.procs[0].push(Time::from_us(i * 10), EventKind::Enter { region: RegionId(0) });
        }
        let graph = graph_of(&t);
        let mut cols = TraceColumns::gather(&t);
        let (rep, _) =
            controlled_logical_clock_replay_csr(&mut cols, &graph, &ClcParams::default()).unwrap();
        assert_eq!(rep.n_jumps(), 0);
        assert_eq!(rep.events_moved, 0);
    }
}
