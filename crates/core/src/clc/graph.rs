//! The event-dependency graph the CLC kernels walk: a compressed-sparse-row
//! (CSR) graph of stored edges plus the trace's collective member table.
//!
//! "What constrains this event?" is asked in the innermost loop of every
//! CLC pass, so the answer must be an index, not a hash probe over
//! scattered heap nodes. This module lowers a constraint set — [`Matching`]
//! message edges plus the collective → point-to-point mapped edges of the
//! paper's [30] extension ([`DepGraph::try_build`]), or the fork/join edges
//! and team barriers of an OpenMP trace ([`crate::pomp_constraints`]) —
//! into flat arrays indexed by a *global event id* (`gid`): event `(p, i)` is
//! `base[p] + i`, timelines concatenated in proc order — exactly the
//! layout of a flattened [`tracefmt::TraceColumns`].
//!
//! # What is stored
//!
//! * **Stored edges**, in both directions: `in_offsets`/`in_edges` is the
//!   CSR of *producers* (`in_edges[in_offsets[v] .. in_offsets[v+1]]` is the
//!   matched send of receive `v`, or the fork and thread ends a POMP event
//!   waits on), `out_offsets`/`out_edges` the transpose (the matched
//!   receive of a send), and `in_lat_ps`/`out_lat_ps` the minimum latency
//!   of each edge in picoseconds, baked in at build time from the frozen
//!   latency model or the POMP `d_min`.
//! * **Collectives**, as a [`CollTable`]: per instance its flavour, root
//!   position and member rows; per member the gids of its begin and end;
//!   per communicator one `k × k` `l_min` block and its transpose. Beside
//!   it, one word per event (`coll_slot`: which member row an event is the
//!   begin or end of) and one per member row (`row_inst`: its instance).
//!
//! # What is derived
//!
//! The `k·(k−1)` logical edges of an N-to-N instance are never stored.
//! [`DepGraph::in_of`] / [`DepGraph::out_of`] return an [`Edges`] view —
//! `(gids, lats, skip)`: parallel slices of neighbour gids and latencies,
//! walked in order with position `skip` left out. For a receive or send the
//! slices are the CSR run and nothing is skipped. For a collective end at
//! member position `pos` they are the instance's begin-gid row and row
//! `pos` of the transposed latency block, restricted by flavour — all of
//! it but `pos` (N-to-N, the root of an N-to-1), the root alone (a non-root
//! of a 1-to-N), the prefix below `pos` (scan) — and symmetrically the
//! end-gid row and row `pos` of the block for a begin. An edge's
//! contribution to its consumer is exactly `corrected(producer) + lat`, one
//! saturating `Time + Dur` addition.
//!
//! View order is dispatch order (the module docs of [`super`]): the view of
//! a collective end walks the begins of the other members in increasing
//! member position, a receive has its one message edge, a POMP event its
//! stored edges in lowering order (the counting sort of the lowering keeps
//! triple order per consumer). A forward pass walking a view blocks on the
//! first pending producer in that order — the foundation of the
//! bit-identity guarantee shared by the batch kernel, the windowed engine
//! and the map-based reference under `tests/common/` (same `max`/`min`
//! over the same `saturating_add` terms, same jump order).
//!
//! The serial forward pass goes one step further for an N-to-N instance
//! whose latency block is classed ([`tracefmt::BlockClasses`]): it does not
//! walk the `k` views of `k − 1` edges at all but evaluates the bounds of
//! all `k` ends once, in O(k), when the last begin is corrected — see
//! [`CollPass`], which also argues why that blocks at the same events and
//! takes the same maximum. Every other consumer walks the views.
//!
//! Degrees and the logical edge count follow from flavour and member
//! count: [`Edges::len`] is slice length minus the skipped position and
//! [`DepGraph::n_edges`] sums `k·(k−1)` / `k−1` / `k·(k−1)/2` per
//! instance. Stored size is O(events + Σ k² over communicators) whatever
//! the number of instances.

use simclock::Dur;
use std::sync::Arc;
use tracefmt::{
    BlockClasses, CollFlavor, CollInstRef, CollTable, CollectiveInstance, EventId, Matching,
    MinLatency, PlanBuildError, Trace,
};

/// `skip` of a view that leaves nothing out.
const NO_SKIP: usize = usize::MAX;

/// `pending` of an instance that is not evaluated in aggregate.
const NOT_AGGREGATED: u32 = u32::MAX;

/// The constraint edges of one event in one direction: neighbour gids and
/// edge latencies as parallel slices, walked in order with position `skip`
/// left out. Borrowed from the CSR arrays or from the collective table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edges<'a> {
    gids: &'a [u32],
    lats: &'a [i64],
    skip: usize,
}

impl<'a> Edges<'a> {
    const EMPTY: Edges<'static> = Edges { gids: &[], lats: &[], skip: NO_SKIP };

    #[inline]
    fn run(gids: &'a [u32], lats: &'a [i64]) -> Self {
        Edges { gids, lats, skip: NO_SKIP }
    }

    #[inline]
    fn all_but(gids: &'a [u32], lats: &'a [i64], skip: usize) -> Self {
        Edges { gids, lats, skip }
    }

    /// Number of edges: the degree of the event in this direction.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.gids.len() - usize::from(self.skip < self.gids.len())
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(neighbour gid, latency in ps)` per edge, in dispatch order.
    #[inline(always)]
    pub(crate) fn iter(&self) -> EdgeIter<'a> {
        EdgeIter { gids: self.gids, lats: self.lats, next: 0, skip: self.skip }
    }
}

/// Iterator over an [`Edges`] view. Hand-written and force-inlined: the
/// kernels' loops over a message edge must stay what they were over a bare
/// CSR slice pair (a `Chain` of two zips around `skip` cost the windowed
/// engine 15 % on a message-only stream, a `Filter` 5 %).
pub(crate) struct EdgeIter<'a> {
    gids: &'a [u32],
    lats: &'a [i64],
    next: usize,
    skip: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (u32, i64);

    #[inline(always)]
    fn next(&mut self) -> Option<(u32, i64)> {
        if self.next == self.skip {
            self.next += 1;
        }
        let edge = (*self.gids.get(self.next)?, *self.lats.get(self.next)?);
        self.next += 1;
        Some(edge)
    }
}

/// Dependency graph over the events of one trace: message edges in CSR
/// form, collectives as a member table. See the module docs.
pub struct DepGraph {
    /// `base[p]` is the gid of event `(p, 0)`; `base[n_procs]` the total
    /// event count. Prefix sums of the timeline lengths.
    base: Vec<u32>,
    /// `proc_of[gid]` is the timeline of event `gid` — the inverse of
    /// `base`, materialized so the hot kernels resolve gid → timeline in
    /// one load instead of a binary search over `base`.
    proc_of: Vec<u32>,
    /// CSR offsets into `in_edges`, one slot per event plus a terminator.
    in_offsets: Vec<u32>,
    /// Producers of each stored edge — the matched send of a receive, the
    /// fork or thread end a POMP event waits on — grouped per consumer.
    in_edges: Vec<u32>,
    /// Minimum latency of each in-edge, aligned with `in_edges`.
    in_lat_ps: Vec<i64>,
    /// CSR offsets into `out_edges`, one slot per event plus a terminator.
    out_offsets: Vec<u32>,
    /// Consumers of each stored edge, grouped per producer.
    out_edges: Vec<u32>,
    /// Minimum latency of each out-edge, aligned with `out_edges`.
    out_lat_ps: Vec<i64>,
    /// Every collective instance; the only form collective constraints
    /// take. Shared with the census plan of the same job.
    coll: Arc<CollTable>,
    /// Per event, which member row it opens or closes: 0 for neither,
    /// else `(row + 1) << 1 | is_end`. Empty when the trace has no
    /// collectives, so a point-to-point job neither allocates nor reads it.
    coll_slot: Vec<u32>,
    /// Instance of each member row.
    row_inst: Vec<u32>,
    /// Per instance, the begins a forward pass must see corrected before it
    /// evaluates the instance's ends in one aggregate step — the member
    /// count — or [`NOT_AGGREGATED`] for an instance whose ends walk their
    /// views. What a [`CollPass`] starts from.
    pending_init: Vec<u32>,
    /// Logical constraint edges: messages plus the flavour-mapped edges of
    /// every instance. A count, never a capacity.
    n_edges: usize,
}

impl DepGraph {
    /// Lower a reconstructed communication analysis.
    ///
    /// `proc_lens[p]` is the event count of timeline `p`; `lmin` is
    /// queried once per message and once per ordered rank pair of every
    /// communicator, and never again.
    ///
    /// # Panics
    /// Panics where [`DepGraph::try_build`] returns an error. The pipeline
    /// drivers call that instead, so tenant input cannot reach this panic;
    /// it remains for direct callers that hand-build an analysis.
    pub fn build(
        matching: &Matching,
        instances: &[CollectiveInstance],
        proc_lens: &[usize],
        lmin: &dyn MinLatency,
    ) -> DepGraph {
        DepGraph::try_build(matching, instances, proc_lens, lmin)
            .unwrap_or_else(|e| panic!("analysis does not fit the trace shape: {e}"))
    }

    /// [`DepGraph::build`] for an analysis that is not trusted to fit the
    /// trace shape: more than `u32::MAX` events (or `2³¹` collective
    /// members), a collective member outside the shape, or an event that is
    /// a member of two instances is an error, not a panic. Message
    /// endpoints are trusted — the matcher only emits events it was fed.
    pub fn try_build(
        matching: &Matching,
        instances: &[CollectiveInstance],
        proc_lens: &[usize],
        lmin: &dyn MinLatency,
    ) -> Result<DepGraph, PlanBuildError> {
        // Message edges, in matching order. A receive has one matched
        // send, so per-consumer order is trivially the dispatch order.
        let triples: Vec<(EventId, EventId, i64)> = matching
            .messages
            .iter()
            .map(|m| (m.send, m.recv, lmin.l_min(m.from, m.to).as_ps()))
            .collect();
        DepGraph::lower(&triples, instances, proc_lens, lmin)
    }

    /// The one lowering behind every graph: `(src, dst, latency)` triples
    /// with endpoints inside `proc_lens` into both CSR directions, and
    /// `instances` into the member table. [`DepGraph::try_build`] hands it
    /// matched messages and the trace's collectives, the POMP lowering
    /// (`super::pomp`) its fork/join rules and team barriers. An event's
    /// in-edges keep the order its triples have, so a forward pass blocks on
    /// the first pending one in that order. A collective begin may have
    /// stored in-edges but no stored out-edge, an end stored out-edges but
    /// no stored in-edge: the kernels read a member's collective edges only
    /// where its stored run in that direction is empty.
    pub(super) fn lower(
        triples: &[(EventId, EventId, i64)],
        instances: &[CollectiveInstance],
        proc_lens: &[usize],
        lmin: &dyn MinLatency,
    ) -> Result<DepGraph, PlanBuildError> {
        let n = proc_lens.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut total: u32 = 0;
        for &len in proc_lens {
            base.push(total);
            total = u32::try_from(len)
                .ok()
                .and_then(|len| total.checked_add(len))
                .ok_or(PlanBuildError::TraceTooLarge)?;
        }
        base.push(total);
        let mut proc_of = Vec::with_capacity(total as usize);
        for (p, &len) in proc_lens.iter().enumerate() {
            proc_of.extend(std::iter::repeat_n(p as u32, len));
        }
        let gid = |id: EventId| base[id.p()] + id.idx;
        let n_msgs = triples.len();

        // Counting sort into both CSR directions: degree count, prefix
        // sum, then a cursor fill that preserves triple order per slot. The
        // offset arrays are their own cursors: degrees are counted two
        // slots up, so after the prefix sum slot `v + 1` holds the *start*
        // of `v`'s run, the fill advances it to the run's end — the start
        // of `v + 1`'s, which is what slot `v + 1` must hold — and the
        // spare last slot is dropped.
        let total = total as usize;
        let mut in_offsets = vec![0u32; total + 2];
        let mut out_offsets = vec![0u32; total + 2];
        for &(src, dst, _) in triples {
            in_offsets[gid(dst) as usize + 2] += 1;
            out_offsets[gid(src) as usize + 2] += 1;
        }
        for v in 1..=total {
            in_offsets[v + 1] += in_offsets[v];
            out_offsets[v + 1] += out_offsets[v];
        }
        let mut in_edges = vec![0u32; n_msgs];
        let mut in_lat_ps = vec![0i64; n_msgs];
        let mut out_edges = vec![0u32; n_msgs];
        let mut out_lat_ps = vec![0i64; n_msgs];
        for &(src, dst, lat) in triples {
            let (s, d) = (gid(src), gid(dst));
            let c = in_offsets[d as usize + 1] as usize;
            in_edges[c] = s;
            in_lat_ps[c] = lat;
            in_offsets[d as usize + 1] += 1;
            let c = out_offsets[s as usize + 1] as usize;
            out_edges[c] = d;
            out_lat_ps[c] = lat;
            out_offsets[s as usize + 1] += 1;
        }
        in_offsets.truncate(total + 1);
        out_offsets.truncate(total + 1);

        let coll = CollTable::build(proc_lens, instances, lmin)?;
        // Collectives: index the member rows by event and count the logical
        // edges — nothing here is proportional to their number.
        let mut n_edges = n_msgs;
        let mut coll_slot = Vec::new();
        let mut row_inst = Vec::new();
        let mut pending_init = Vec::new();
        if coll.n_instances() > 0 {
            // Member rows are tagged into 31 bits of `coll_slot`.
            if coll.n_members() >= (u32::MAX >> 1) as usize {
                return Err(PlanBuildError::TraceTooLarge);
            }
            coll_slot = vec![0u32; total];
            row_inst = Vec::with_capacity(coll.n_members());
            pending_init = Vec::with_capacity(coll.n_instances());
            // member_of[p]: the last instance (+ 1) with a member on
            // timeline p.
            let mut member_of = vec![0u32; n];
            for (i, inst) in coll.instances().enumerate() {
                n_edges += inst.n_logical_by_position();
                // Aggregated (see `CollPass`) when the latencies are
                // classed and every member's begin precedes its end on a
                // timeline no other member is on.
                let mut aggregate = inst.flavor == CollFlavor::NToN && inst.block.classes().is_some();
                for (pos, (&begin, &end)) in inst.begins.iter().zip(inst.ends).enumerate() {
                    let tag = ((inst.first_row + pos + 1) as u32) << 1;
                    // An event has one kind: a collective begin (end) opens
                    // (closes) one call, and is no send (receive).
                    for (g, tag) in [(begin, tag), (end, tag | 1)] {
                        if coll_slot[g as usize] != 0 {
                            let p = proc_of[g as usize] as usize;
                            let id = EventId::new(p, (g - base[p]) as usize);
                            return Err(PlanBuildError::SharedMember(id));
                        }
                        coll_slot[g as usize] = tag;
                    }
                    debug_assert!(out_offsets[begin as usize] == out_offsets[begin as usize + 1]);
                    debug_assert!(in_offsets[end as usize] == in_offsets[end as usize + 1]);
                    row_inst.push(i as u32);
                    let p = proc_of[begin as usize];
                    let alone = std::mem::replace(&mut member_of[p as usize], i as u32 + 1) <= i as u32;
                    aggregate &= alone && begin < end && p == proc_of[end as usize];
                }
                pending_init.push(if aggregate { inst.begins.len() as u32 } else { NOT_AGGREGATED });
            }
        }

        Ok(DepGraph {
            base,
            proc_of,
            in_offsets,
            in_edges,
            in_lat_ps,
            out_offsets,
            out_edges,
            out_lat_ps,
            coll: Arc::new(coll),
            coll_slot,
            row_inst,
            pending_init,
            n_edges,
        })
    }

    /// [`DepGraph::build`] with timeline lengths read off the trace.
    ///
    /// # Panics
    /// Like [`DepGraph::build`], on an analysis that is not the trace's own.
    pub fn from_trace(
        trace: &Trace,
        matching: &Matching,
        instances: &[CollectiveInstance],
        lmin: &dyn MinLatency,
    ) -> DepGraph {
        DepGraph::build(matching, instances, &super::proc_lens(trace), lmin)
    }

    /// Number of timelines.
    pub fn n_procs(&self) -> usize {
        self.base.len() - 1
    }

    /// Total events across all timelines.
    pub fn n_events(&self) -> usize {
        *self.base.last().expect("base non-empty") as usize
    }

    /// Total constraint edges: matched messages plus the logical messages
    /// of every collective instance. Computed, not stored — an N-to-N
    /// instance over `k` timelines counts `k·(k−1)` here and occupies `2k`
    /// words.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The collective table the graph reads collective constraints from,
    /// for the census plan of the same job to share.
    pub fn coll_table(&self) -> &Arc<CollTable> {
        &self.coll
    }

    /// Heap bytes the graph holds, its collective table included:
    /// O(events + messages + Σ k² over communicators).
    pub fn heap_bytes(&self) -> usize {
        let words32 = self.base.len()
            + self.proc_of.len()
            + self.in_offsets.len()
            + self.in_edges.len()
            + self.out_offsets.len()
            + self.out_edges.len()
            + self.coll_slot.len()
            + self.row_inst.len()
            + self.pending_init.len();
        4 * words32 + 8 * (self.in_lat_ps.len() + self.out_lat_ps.len()) + self.coll.heap_bytes()
    }

    /// Global event id of `(p, 0)` — gids of timeline `p` are
    /// `base(p) .. base(p) + len(p)` in program order.
    #[inline]
    pub(crate) fn base(&self, p: usize) -> u32 {
        self.base[p]
    }

    /// Timeline of event `gid`, in one load.
    #[inline]
    pub(crate) fn proc_of(&self, gid: u32) -> usize {
        self.proc_of[gid as usize] as usize
    }

    /// Map a gid back to its `(proc, index)` pair.
    #[inline]
    pub(crate) fn locate(&self, gid: u32) -> (usize, usize) {
        let p = self.proc_of(gid);
        (p, (gid - self.base[p]) as usize)
    }

    /// In-edges of `gid` — producer gids and edge latencies, in
    /// dependency-dispatch order: the matched send of a receive, or the
    /// begins a collective end waits on.
    ///
    /// Only the CSR path is inlined into the kernels' loops; a graph
    /// without collectives never leaves it, and in one with collectives
    /// only their members do.
    #[inline(always)]
    pub(crate) fn in_of(&self, gid: u32) -> Edges<'_> {
        let run = self.message_in(gid);
        if !run.gids.is_empty() || self.member_slot(gid) == 0 {
            return run;
        }
        self.collective_in(gid)
    }

    /// The CSR run of `gid`: the matched send of a receive, else empty.
    #[inline(always)]
    pub(crate) fn message_in(&self, gid: u32) -> Edges<'_> {
        let a = self.in_offsets[gid as usize] as usize;
        let b = self.in_offsets[gid as usize + 1] as usize;
        Edges::run(&self.in_edges[a..b], &self.in_lat_ps[a..b])
    }

    /// The `coll_slot` word of `gid`: 0 for an event that is no collective
    /// member, odd for a collective end, even for a begin.
    #[inline(always)]
    pub(crate) fn member_slot(&self, gid: u32) -> u32 {
        self.coll_slot.get(gid as usize).copied().unwrap_or(0)
    }

    /// Out-edges of `gid` — consumer gids and edge latencies: the matched
    /// receive of a send, or the ends waiting on a collective begin.
    #[inline(always)]
    pub(crate) fn out_of(&self, gid: u32) -> Edges<'_> {
        let a = self.out_offsets[gid as usize] as usize;
        let b = self.out_offsets[gid as usize + 1] as usize;
        if a != b || self.member_slot(gid) == 0 {
            return Edges::run(&self.out_edges[a..b], &self.out_lat_ps[a..b]);
        }
        self.collective_out(gid)
    }

    /// The collective member `gid` opens or closes, if any: its instance,
    /// its position among the members, and whether `gid` is the end.
    #[inline]
    fn member_at(&self, gid: u32) -> Option<(CollInstRef<'_>, usize, bool)> {
        let slot = self.coll_slot[gid as usize];
        if slot == 0 {
            return None;
        }
        let row = (slot >> 1) as usize - 1;
        let inst = self.coll.instance(self.row_inst[row] as usize);
        Some((inst, row - inst.first_row, slot & 1 == 1))
    }

    /// [`in_of`](DepGraph::in_of) for an event without a message in-edge:
    /// the begins a collective end waits on, cut out of the member table.
    #[inline(never)]
    pub(crate) fn collective_in(&self, gid: u32) -> Edges<'_> {
        let Some((inst, pos, true)) = self.member_at(gid) else {
            return Edges::EMPTY; // no collective end
        };
        let to_me = inst.block.to_member(pos);
        match (inst.flavor, inst.root_pos) {
            (CollFlavor::OneToN, Some(r)) if r != pos => {
                Edges::run(&inst.begins[r..=r], &to_me[r..=r])
            }
            (CollFlavor::NToOne, Some(r)) if r == pos => Edges::all_but(inst.begins, to_me, r),
            (CollFlavor::NToN, _) => Edges::all_but(inst.begins, to_me, pos),
            (CollFlavor::Prefix, _) => Edges::run(&inst.begins[..pos], &to_me[..pos]),
            (CollFlavor::OneToN | CollFlavor::NToOne, _) => Edges::EMPTY,
        }
    }

    /// [`out_of`](DepGraph::out_of) for an event without a message
    /// out-edge: the ends waiting on a collective begin.
    #[inline(never)]
    fn collective_out(&self, gid: u32) -> Edges<'_> {
        let Some((inst, pos, false)) = self.member_at(gid) else {
            return Edges::EMPTY; // no collective begin
        };
        let from_me = inst.block.from_member(pos);
        match (inst.flavor, inst.root_pos) {
            (CollFlavor::OneToN, Some(r)) if r == pos => Edges::all_but(inst.ends, from_me, r),
            (CollFlavor::NToOne, Some(r)) if r != pos => {
                Edges::run(&inst.ends[r..=r], &from_me[r..=r])
            }
            (CollFlavor::NToN, _) => Edges::all_but(inst.ends, from_me, pos),
            (CollFlavor::Prefix, _) => Edges::run(&inst.ends[pos + 1..], &from_me[pos + 1..]),
            (CollFlavor::OneToN | CollFlavor::NToOne, _) => Edges::EMPTY,
        }
    }

    /// The same graph with every N-to-N end walking its view: what the
    /// aggregated evaluation must be bit-identical to.
    #[cfg(test)]
    pub(crate) fn without_aggregation(mut self) -> DepGraph {
        self.pending_init.fill(NOT_AGGREGATED);
        self
    }

    /// Instances a forward pass evaluates in aggregate.
    #[cfg(test)]
    pub(crate) fn n_aggregated(&self) -> usize {
        self.pending_init.iter().filter(|&&k| k != NOT_AGGREGATED).count()
    }

    /// Events whose corrected times bound `id` from below, with the
    /// minimum latency of each edge, in dependency-dispatch order.
    pub fn in_deps(&self, id: EventId) -> impl Iterator<Item = (EventId, Dur)> + '_ {
        self.in_of(self.base(id.p()) + id.idx).iter().map(|(s, lat)| {
            let (p, i) = self.locate(s);
            (EventId::new(p, i), Dur::from_ps(lat))
        })
    }

    /// Events bounded from below by `id`'s corrected time, with the
    /// minimum latency of each edge.
    pub fn out_deps(&self, id: EventId) -> impl Iterator<Item = (EventId, Dur)> + '_ {
        self.out_of(self.base(id.p()) + id.idx).iter().map(|(d, lat)| {
            let (p, i) = self.locate(d);
            (EventId::new(p, i), Dur::from_ps(lat))
        })
    }
}

/// The largest and second-largest value offered, and who offered the
/// largest: enough to answer "the largest offered by anyone but `j`".
#[derive(Debug, Clone, Copy, Default)]
struct Top2 {
    first: Option<(i64, usize)>,
    second: Option<i64>,
}

impl Top2 {
    #[inline]
    fn offer(&mut self, value: i64, member: usize) {
        match self.first {
            Some((first, _)) if value <= first => {
                self.second = Some(self.second.map_or(value, |s| s.max(value)));
            }
            old => {
                self.second = old.map(|(first, _)| first);
                self.first = Some((value, member));
            }
        }
    }

    /// The largest value offered by a member other than `member`.
    #[inline]
    fn without(&self, member: usize) -> Option<i64> {
        match self.first {
            Some((_, m)) if m == member => self.second,
            first => first.map(|(value, _)| value),
        }
    }
}

/// One forward pass's view of the *aggregated* N-to-N instances: those
/// whose latency block is classed ([`BlockClasses`]) and whose members each
/// begin before they end on a timeline of their own.
///
/// The end at position `pos` of such an instance is bounded by
/// `max_{j ≠ pos} corrected(begin_j) + L[j][pos]`, and its view walk blocks
/// while any other begin is uncorrected. Its own begin lies before it on
/// its timeline, so "any other begin is uncorrected" is `pending != 0`
/// with `pending` counting *all* uncorrected begins: the pass blocks at
/// the same events as the view walk. When the last begin is corrected the
/// bounds of all `k` ends are computed at once. `L[j][pos]` is
/// `M[c(j)][c(pos)]` and `x ↦ x.saturating_add(l)` is monotone, so the
/// maximum over the begins of one class is the class's largest corrected
/// begin plus `M`; only the end's own class needs the largest *other*
/// begin, hence the top two per class. That is the same maximum over the
/// same terms, in O(k + classes²) per instance instead of O(k²).
pub(crate) struct CollPass {
    /// Per instance: begins still uncorrected, or [`NOT_AGGREGATED`].
    pending: Vec<u32>,
    /// Per member row: the bound of the row's end, once `pending` is 0.
    remote: Vec<i64>,
    /// Per class of the instance at hand: its corrected begins' top two.
    top: Vec<Top2>,
    /// Per class: the bound contributed by all *other* classes' begins.
    others: Vec<i64>,
}

impl CollPass {
    pub(crate) fn new(graph: &DepGraph) -> CollPass {
        let any = graph.pending_init.iter().any(|&k| k != NOT_AGGREGATED);
        CollPass {
            pending: graph.pending_init.clone(),
            remote: vec![i64::MIN; if any { graph.coll.n_members() } else { 0 }],
            top: Vec::new(),
            others: Vec::new(),
        }
    }

    /// What the collective end tagged `slot` waits for: `Some(0)` — nothing,
    /// [`CollPass::bound`] is final; `Some(n)` — `n` begins of its
    /// aggregated instance; `None` — walk its view.
    #[inline]
    pub(crate) fn pending(&self, graph: &DepGraph, slot: u32) -> Option<u32> {
        let row = (slot >> 1) as usize - 1;
        let pending = self.pending[graph.row_inst[row] as usize];
        (pending != NOT_AGGREGATED).then_some(pending)
    }

    /// The remote bound, in ps, of the aggregated end tagged `slot`.
    /// `i64::MIN` — never above a candidate — when it has no in-edge.
    #[inline]
    pub(crate) fn bound(&self, slot: u32) -> i64 {
        self.remote[(slot >> 1) as usize - 1]
    }

    /// The collective begin tagged `slot` was just corrected in `corr`
    /// (gid-indexed, every corrected event in place).
    #[inline]
    pub(crate) fn begin_corrected(&mut self, graph: &DepGraph, slot: u32, corr: &[i64]) {
        let row = (slot >> 1) as usize - 1;
        let i = graph.row_inst[row] as usize;
        if self.pending[i] == NOT_AGGREGATED {
            return;
        }
        self.pending[i] -= 1;
        if self.pending[i] == 0 {
            let inst = graph.coll.instance(i);
            let classes = inst.block.classes().expect("aggregated instances are classed");
            self.aggregate(&inst, classes, corr);
        }
    }

    fn aggregate(&mut self, inst: &CollInstRef<'_>, classes: &BlockClasses, corr: &[i64]) {
        let n = classes.n_classes();
        self.top.clear();
        self.top.resize(n, Top2::default());
        for (j, &begin) in inst.begins.iter().enumerate() {
            self.top[classes.of(j)].offer(corr[begin as usize], j);
        }
        self.others.clear();
        for to in 0..n {
            let from_others = (0..n).filter(|&from| from != to).filter_map(|from| {
                let (value, _) = self.top[from].first?;
                Some(value.saturating_add(classes.lat(from, to)))
            });
            self.others.push(from_others.max().unwrap_or(i64::MIN));
        }
        let rows = inst.first_row..inst.first_row + inst.begins.len();
        for (pos, bound) in self.remote[rows].iter_mut().enumerate() {
            let c = classes.of(pos);
            let own = self.top[c].without(pos).map(|v| v.saturating_add(classes.lat(c, c)));
            *bound = own.map_or(self.others[c], |own| own.max(self.others[c]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures;
    use super::*;
    use tracefmt::{Capture, EventKind, Rank, Tag, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    fn graph_of(trace: &Trace) -> DepGraph {
        let (matching, insts) = Capture::of(trace).finish();
        DepGraph::from_trace(trace, &matching, &insts.unwrap(), &LMIN)
    }

    #[test]
    fn gid_locate_round_trip() {
        let t = fixtures::mixed_trace(5, 9);
        let g = graph_of(&t);
        assert_eq!(g.n_events(), t.n_events());
        assert_eq!(g.n_procs(), t.n_procs());
        for (id, _) in t.iter_events() {
            let gid = g.base(id.p()) + id.idx;
            assert_eq!(g.locate(gid), (id.p(), id.i()));
        }
    }

    /// A collective's cost is its members, not its logical messages: a
    /// 512-timeline communicator running 40 barriers and one collective of
    /// every other flavour is 44 032 events and 10.6 million logical edges
    /// — in what is stored, and in what a forward pass evaluates.
    #[test]
    fn stored_size_is_linear_in_events_plus_communicator_squared() {
        use crate::clc::columnar::{controlled_logical_clock_columnar_csr, forward_pass_csr};
        use crate::clc::ClcParams;
        use tracefmt::{check_collectives_at, CollOp, CommId, TraceColumns};

        let k = 512usize;
        let mut ops = vec![(CollOp::Barrier, None); 40];
        ops.extend([
            (CollOp::Bcast, Some(Rank(7))),
            (CollOp::Reduce, Some(Rank(300))),
            (CollOp::Scan, None),
        ]);
        let mut t = Trace::for_ranks(k);
        for (round, &(op, root)) in ops.iter().enumerate() {
            for p in 0..k {
                // Per-timeline skew larger than a round: plenty to repair.
                let at = 1_000 * round as i64 + ((p * 37) % 2_000) as i64;
                let (comm, bytes) = (CommId::WORLD, 8);
                t.procs[p].push(
                    simclock::Time::from_us(at),
                    EventKind::CollBegin { op, comm, root, bytes },
                );
                t.procs[p].push(
                    simclock::Time::from_us(at + 10),
                    EventKind::CollEnd { op, comm, root, bytes },
                );
            }
        }
        let (matching, insts) = Capture::of(&t).finish();
        let insts = insts.unwrap();
        let g = DepGraph::from_trace(&t, &matching, &insts, &LMIN);

        let events = g.n_events();
        assert_eq!(events, 2 * k * ops.len());
        assert_eq!(g.n_edges(), 40 * k * (k - 1) + 2 * (k - 1) + k * (k - 1) / 2);
        assert!(g.in_edges.is_empty() && g.out_edges.is_empty(), "no collective edge is stored");
        assert_eq!(g.coll.n_members(), k * ops.len());
        assert_eq!(g.coll.n_blocks(), 1);
        let stored_words = g.heap_bytes() / 8;
        assert!(
            stored_words <= 4 * (events + k * k),
            "{stored_words} words stored for {events} events on a {k}-timeline communicator"
        );

        let mut cols = TraceColumns::gather(&t);
        assert!(check_collectives_at(&cols, &insts, &LMIN).logical_violated > 0);
        let report =
            controlled_logical_clock_columnar_csr(&mut cols, &g, &ClcParams::default()).unwrap();
        assert!(report.n_jumps() > 0);
        assert_eq!(check_collectives_at(&cols, &insts, &LMIN).logical_violated, 0);

        // The barriers are evaluated in aggregate, O(k) each: the view
        // walk of the same graph evaluates 512 · 511 terms per barrier, the
        // aggregate about a thousand. Same result, and faster by a multiple
        // (≈ 40 × measured) only the missing k² explains.
        assert_eq!(g.n_aggregated(), 40);
        let best_of_3 = |g: &DepGraph| {
            (0..3)
                .map(|_| {
                    let mut cols = TraceColumns::gather(&t);
                    let t0 = std::time::Instant::now();
                    let jumps = forward_pass_csr(&mut cols, g, 0.99).unwrap().jumps;
                    (t0.elapsed(), cols.flat().to_vec(), jumps)
                })
                .min_by_key(|(elapsed, ..)| *elapsed)
                .expect("three runs")
        };
        let (fast, classed, classed_jumps) = best_of_3(&g);
        let (slow, walked, walked_jumps) = best_of_3(&g.without_aggregation());
        assert_eq!(classed, walked);
        let in_order = |jumps: &[crate::clc::Jump]| jumps.iter().map(|j| (j.event, j.size)).collect::<Vec<_>>();
        assert_eq!(in_order(&classed_jumps), in_order(&walked_jumps));
        assert!(fast * 4 < slow, "aggregated {fast:?} vs view walk {slow:?} on {k} timelines");
    }

    /// A hand-built instance with two members on timeline 0, the second
    /// one's begin (index 2) after the first one's end (index 1): the end
    /// depends on an event behind it in program order. Never aggregated —
    /// its ends walk their views — and the forward pass reports the cycle.
    #[test]
    fn collective_begin_after_its_own_timelines_end_is_a_cycle() {
        use crate::clc::columnar::forward_pass_csr;
        use crate::clc::ClcError;
        use tracefmt::{CollMember, CollOp, CommId, TraceColumns};
        let member = |p, b, e| CollMember {
            rank: Rank(p as u32),
            begin: EventId::new(p, b),
            end: EventId::new(p, e),
        };
        let inst = CollectiveInstance {
            op: CollOp::Barrier,
            comm: CommId::WORLD,
            root: None,
            members: vec![member(0, 0, 1), member(0, 2, 3), member(1, 0, 1)],
        };
        let g = DepGraph::build(&Matching::default(), &[inst], &[4, 2], &LMIN);
        assert_eq!(g.n_edges(), 6);
        assert_eq!(g.n_aggregated(), 0);
        let mut t = Trace::for_ranks(2);
        for (p, len) in [(0, 4), (1, 2)] {
            for i in 0..len {
                t.procs[p].push(simclock::Time::from_us(i), EventKind::Enter { region: tracefmt::RegionId(0) });
            }
        }
        let mut cols = TraceColumns::gather(&t);
        assert!(matches!(forward_pass_csr(&mut cols, &g, 0.99), Err(ClcError::CyclicTrace)));
    }

    /// What no decoded trace can hold but a hand-built analysis can: the
    /// fallible lowering names it, the infallible one panics with it.
    #[test]
    fn analysis_that_does_not_fit_the_shape_is_a_typed_error() {
        use tracefmt::{CollMember, CollOp, CommId};
        let barrier = |members: &[(usize, usize, usize)]| CollectiveInstance {
            op: CollOp::Barrier,
            comm: CommId::WORLD,
            root: None,
            members: members
                .iter()
                .map(|&(p, b, e)| CollMember {
                    rank: Rank(p as u32),
                    begin: EventId::new(p, b),
                    end: EventId::new(p, e),
                })
                .collect(),
        };
        let lower = |insts: &[CollectiveInstance]| {
            DepGraph::try_build(&Matching::default(), insts, &[4, 4], &LMIN).map(|g| g.n_edges())
        };
        assert_eq!(lower(&[barrier(&[(0, 0, 1), (1, 0, 1)])]), Ok(2));
        // Timeline 1's end closes two calls; a begin is its own end.
        assert_eq!(
            lower(&[barrier(&[(0, 0, 1), (1, 0, 1)]), barrier(&[(0, 2, 3), (1, 2, 1)])]),
            Err(PlanBuildError::SharedMember(EventId::new(1, 1)))
        );
        assert_eq!(
            lower(&[barrier(&[(0, 2, 2)])]),
            Err(PlanBuildError::SharedMember(EventId::new(0, 2)))
        );
        assert_eq!(
            lower(&[barrier(&[(0, 0, 4)])]),
            Err(PlanBuildError::EventOutOfRange(EventId::new(0, 4)))
        );
        let built = std::panic::catch_unwind(|| {
            DepGraph::build(&Matching::default(), &[barrier(&[(0, 2, 2)])], &[4, 4], &LMIN)
        });
        assert!(built.is_err());
    }

    #[test]
    fn empty_timelines_are_handled() {
        let mut t = Trace::for_ranks(3);
        // Only timelines 0 and 2 carry events; 1 stays empty.
        t.procs[0].push(
            simclock::Time::from_us(1),
            EventKind::Send { to: Rank(2), tag: Tag(0), bytes: 0 },
        );
        t.procs[2].push(
            simclock::Time::from_us(9),
            EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 },
        );
        let g = graph_of(&t);
        assert_eq!(g.n_events(), 2);
        assert_eq!(g.locate(1), (2, 0));
        let deps: Vec<_> = g.in_deps(EventId::new(2, 0)).collect();
        assert_eq!(deps, vec![(EventId::new(0, 0), Dur::from_ps(4_000_000))]);
    }
}
