//! The event-dependency graph the CLC kernels walk: one link word per event
//! into the job's message table or its collective member table.
//!
//! "What constrains this event?" is asked in the innermost loop of every
//! CLC pass, so the answer must be an index, not a hash probe over
//! scattered heap nodes. This module lowers a constraint set — matched
//! messages plus the collective → point-to-point mapped edges of the
//! paper's [30] extension ([`DepGraph::try_build`]) — into flat arrays
//! indexed by a *global event id* (`gid`): event `(p, i)` is `base[p] + i`,
//! timelines concatenated in proc order — exactly the layout of a
//! flattened [`tracefmt::TraceColumns`].
//!
//! # What is stored
//!
//! * **Per event, two words**: its timeline (`proc_of`) and its [`Link`]:
//!   none, the send or the receive of message `m`, or the begin or the end
//!   of member row `r`. An event that carries no constraint — most of them
//!   — links nothing. So every event has at most one constraint source: a
//!   receive's in-edge and a send's out-edge are its message-table row, a
//!   collective end's in-edges and a begin's out-edges its member row, and
//!   any other event has no edge.
//! * **Messages**, as the job's [`MessageTable`]: per message, in matching
//!   order, the gids of its send and its receive and `l_min` in
//!   picoseconds. A receive's in-edge is `(send[m], lat[m])`, a send's
//!   out-edge `(recv[m], lat[m])`. Shared by `Arc` with the census plan of
//!   the same job, which checks the same messages.
//! * **Collectives**, as a [`CollTable`]: per instance its flavour, root
//!   position and member rows; per member the gids of its begin and end;
//!   per communicator one `k × k` `l_min` block and its transpose. Beside
//!   it one word per member row (`row_inst`: its instance). Shared with the
//!   census plan like the message table.
//!
//! # What is derived
//!
//! The `k·(k−1)` logical edges of an N-to-N instance are never stored.
//! [`DepGraph::in_of`] / [`DepGraph::out_of`] return an [`Edges`] view —
//! `(gids, lats, skip)`: parallel slices of neighbour gids and latencies,
//! walked in order with position `skip` left out. For a receive or send the
//! slices are one entry of the message table and nothing is skipped. For a
//! collective end at member position `pos` they are the instance's
//! begin-gid row and row `pos` of the transposed latency block, restricted
//! by flavour — all of it but `pos` (N-to-N, the root of an N-to-1), the
//! root alone (a non-root of a 1-to-N), the prefix below `pos` (scan) — and
//! symmetrically the end-gid row and row `pos` of the block for a begin. An edge's contribution to
//! its consumer is exactly `corrected(producer) + lat`, one saturating
//! `Time + Dur` addition.
//!
//! View order is dispatch order (the module docs of [`super`]): the view of
//! a collective end walks the begins of the other members in increasing
//! member position, a receive has its one message edge. A forward pass
//! walking a view blocks on the first pending producer in that order — the
//! foundation of the bit-identity guarantee shared by the batch kernel, the
//! windowed engine and the map-based reference under `tests/common/` (same
//! `max`/`min` over the same `saturating_add` terms, same jump order).
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
//! instance. Stored size is O(events + messages + Σ k² over
//! communicators) whatever the number of instances.

use super::columnar::latest_allowed;
use simclock::{Dur, Time};
use std::sync::Arc;
use tracefmt::{
    CollFlavor, CollInstRef, CollTable, CollectiveInstance, EventId, Matching, MessageTable,
    MinLatency, PlanBuildError, Trace,
};

/// `skip` of a view that leaves nothing out.
const NO_SKIP: usize = usize::MAX;

/// `pending` of an instance that is not evaluated in aggregate.
const NOT_AGGREGATED: u32 = u32::MAX;

/// What one event is to the graph, in one word: its kind in the low three
/// bits, the message or member row it names above them. Zero links nothing.
#[derive(Clone, Copy)]
pub(crate) struct Link(u32);

/// A message endpoint or a collective member.
const LINKED: u32 = 0b001;
/// The consuming side: a receive or a collective end.
const CONSUMER: u32 = 0b010;
/// A collective member rather than a message endpoint.
const MEMBER: u32 = 0b100;
const KIND: u32 = LINKED | CONSUMER | MEMBER;
const SEND: u32 = LINKED;
const RECV: u32 = LINKED | CONSUMER;
const BEGIN: u32 = LINKED | MEMBER;
const END: u32 = LINKED | MEMBER | CONSUMER;
const INDEX_SHIFT: u32 = 3;
/// How many messages, or member rows, the index bits can name.
const MAX_INDEX: usize = 1 << (32 - INDEX_SHIFT);

impl Link {
    #[inline(always)]
    fn new(kind: u32, index: usize) -> Link {
        Link((index as u32) << INDEX_SHIFT | kind)
    }

    #[inline(always)]
    fn kind(self) -> u32 {
        self.0 & KIND
    }

    /// The message or member row the link names.
    #[inline(always)]
    fn index(self) -> usize {
        (self.0 >> INDEX_SHIFT) as usize
    }

    /// Whether the event closes a collective call.
    #[inline(always)]
    pub(crate) fn is_end(self) -> bool {
        self.kind() == END
    }

    /// Whether the event opens a collective call.
    #[inline(always)]
    pub(crate) fn is_begin(self) -> bool {
        self.kind() == BEGIN
    }
}

/// The constraint edges of one event in one direction: neighbour gids and
/// edge latencies as parallel slices, walked in order with position `skip`
/// left out. Borrowed from the message table or the collective table.
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

/// Dependency graph over the events of one trace: one link per event into
/// the message table or the collective member table. See the module docs.
pub struct DepGraph {
    /// `base[p]` is the gid of event `(p, 0)`; `base[n_procs]` the total
    /// event count. Prefix sums of the timeline lengths.
    base: Vec<u32>,
    /// `proc_of[gid]` is the timeline of event `gid` — the inverse of
    /// `base`, materialized so the hot kernels resolve gid → timeline in
    /// one load instead of a binary search over `base`.
    proc_of: Vec<u32>,
    /// What each event is to the graph.
    link: Vec<Link>,
    /// Every matched message. Shared with the census plan of the same job.
    msgs: Arc<MessageTable>,
    /// Every collective instance; the only form collective constraints
    /// take. Shared with the census plan of the same job.
    coll: Arc<CollTable>,
    /// Instance of each member row.
    row_inst: Vec<u32>,
    /// Per instance, the begins a forward pass must see corrected before it
    /// evaluates the instance's ends in one aggregate step — the member
    /// count — or [`NOT_AGGREGATED`] for an instance whose ends walk their
    /// views. What a [`CollPass`] starts from.
    pending_init: Vec<u32>,
    /// Logical constraint edges: messages and the flavour-mapped edges of
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
    /// trace shape: more than `u32::MAX` events (or `2²⁹` messages or
    /// collective members), an event outside the shape, or an event that
    /// two messages or collective members claim is an error, not a panic.
    pub fn try_build(
        matching: &Matching,
        instances: &[CollectiveInstance],
        proc_lens: &[usize],
        lmin: &dyn MinLatency,
    ) -> Result<DepGraph, PlanBuildError> {
        let msgs = MessageTable::build(proc_lens, &matching.messages, lmin)?;
        DepGraph::with_messages(Arc::new(msgs), instances, proc_lens, lmin)
    }

    /// [`DepGraph::try_build`] over a message table already frozen for
    /// this trace shape ([`tracefmt::Capture::finish_table`]), which the
    /// graph then shares with the job's census plan. The one lowering
    /// behind every graph: the message table into the links of its
    /// endpoints, and `instances` into the member table.
    ///
    /// # Panics
    /// Panics when `msgs` was built for a different event count.
    pub fn with_messages(
        msgs: Arc<MessageTable>,
        instances: &[CollectiveInstance],
        proc_lens: &[usize],
        lmin: &dyn MinLatency,
    ) -> Result<DepGraph, PlanBuildError> {
        let (n, base) = (proc_lens.len(), tracefmt::census::bases(proc_lens)?);
        let total = *base.last().expect("one base per timeline, plus the end");
        assert_eq!(msgs.n_events(), total as usize, "graph/message-table event count mismatch");
        let mut proc_of = Vec::with_capacity(total as usize);
        for (p, &len) in proc_lens.iter().enumerate() {
            proc_of.extend(std::iter::repeat_n(p as u32, len));
        }
        let id_of = |g: u32| tracefmt::census::event_at(&base, g);

        // An event has one kind: a message's send or receive, or the begin
        // or end of one collective call.
        let mut link = vec![Link(0); total as usize];
        let mut claim = |g: u32, kind: u32, index: usize| {
            let at = &mut link[g as usize];
            if at.0 != 0 {
                return Err(PlanBuildError::SharedMember(id_of(g)));
            }
            *at = Link::new(kind, index);
            Ok(())
        };
        if msgs.len() >= MAX_INDEX {
            return Err(PlanBuildError::TraceTooLarge);
        }
        for (m, (&send, &recv)) in msgs.sends().iter().zip(msgs.recvs()).enumerate() {
            claim(send, SEND, m)?;
            claim(recv, RECV, m)?;
        }

        let coll = CollTable::build(proc_lens, instances, lmin)?;
        // Collectives: link the member rows and count the logical edges —
        // nothing here is proportional to their number.
        let mut n_edges = msgs.len();
        let mut row_inst = Vec::new();
        let mut pending_init = Vec::new();
        if coll.n_instances() > 0 {
            if coll.n_members() >= MAX_INDEX {
                return Err(PlanBuildError::TraceTooLarge);
            }
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
                    claim(begin, BEGIN, inst.first_row + pos)?;
                    claim(end, END, inst.first_row + pos)?;
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
            link,
            msgs,
            coll: Arc::new(coll),
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

    /// The message table the graph reads message edges from, for the
    /// census plan of the same job to share.
    pub fn messages(&self) -> &Arc<MessageTable> {
        &self.msgs
    }

    /// The collective table the graph reads collective constraints from,
    /// for the census plan of the same job to share.
    pub fn coll_table(&self) -> &Arc<CollTable> {
        &self.coll
    }

    /// Heap bytes the graph holds, its two tables included:
    /// O(events + messages + Σ k² over communicators).
    pub fn heap_bytes(&self) -> usize {
        let words32 = self.base.len()
            + self.proc_of.len()
            + self.link.len()
            + self.row_inst.len()
            + self.pending_init.len();
        4 * words32 + self.msgs.heap_bytes() + self.coll.heap_bytes()
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

    /// The link of `gid`, in one load.
    #[inline(always)]
    pub(crate) fn link(&self, gid: u32) -> Link {
        self.link[gid as usize]
    }

    /// In-edges of `gid` — producer gids and edge latencies, in
    /// dependency-dispatch order: the matched send of a receive or the
    /// begins a collective end waits on; any other event has none.
    ///
    /// Only the message path is inlined into the kernels' loops; a graph
    /// without collectives never leaves it, and in one with collectives
    /// only their members do.
    #[inline(always)]
    pub(crate) fn in_of(&self, gid: u32) -> Edges<'_> {
        let link = self.link(gid);
        if link.is_end() {
            return self.collective_in(link);
        }
        self.stored_in(link)
    }

    /// The message in-edge of the event linked by `link`: a receive's one
    /// edge, else none.
    #[inline(always)]
    pub(crate) fn stored_in(&self, link: Link) -> Edges<'_> {
        if link.kind() == RECV {
            let m = link.index();
            return Edges::run(&self.msgs.sends()[m..=m], &self.msgs.lats()[m..=m]);
        }
        Edges::EMPTY
    }

    /// Out-edges of `gid` — consumer gids and edge latencies: the matched
    /// receive of a send or the ends waiting on a collective begin; any
    /// other event has none.
    #[inline(always)]
    pub(crate) fn out_of(&self, gid: u32) -> Edges<'_> {
        let link = self.link(gid);
        match link.kind() {
            SEND => {
                let m = link.index();
                Edges::run(&self.msgs.recvs()[m..=m], &self.msgs.lats()[m..=m])
            }
            BEGIN => self.collective_out(link),
            _ => Edges::EMPTY,
        }
    }

    /// The collective member a begin or end links: its instance and its
    /// position among the members.
    #[inline]
    fn member_at(&self, link: Link) -> (CollInstRef<'_>, usize) {
        let row = link.index();
        let inst = self.coll.instance(self.row_inst[row] as usize);
        (inst, row - inst.first_row)
    }

    /// [`in_of`](DepGraph::in_of) for a collective end: the begins it waits
    /// on, cut out of the member table.
    #[inline(never)]
    pub(crate) fn collective_in(&self, link: Link) -> Edges<'_> {
        debug_assert!(link.is_end());
        let (inst, pos) = self.member_at(link);
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

    /// [`out_of`](DepGraph::out_of) for a collective begin: the ends
    /// waiting on it.
    #[inline(never)]
    fn collective_out(&self, link: Link) -> Edges<'_> {
        debug_assert!(link.is_begin());
        let (inst, pos) = self.member_at(link);
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

    /// The same graph with every N-to-N member walking its view — each end
    /// in the forward pass, each begin in the backward one: what the
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

/// The forward pass's times where a backward cap reads them, and nowhere
/// else: at the consumers of constraints. One word per message — its
/// receive's — and one per member row — the row's end — indexed through
/// the consumer's link.
pub(crate) struct Snapshot {
    /// `recvs[m]`: F of message `m`'s receive.
    recvs: Vec<i64>,
    /// `ends[row]`: F of the member row's end.
    ends: Vec<i64>,
}

impl Snapshot {
    /// Read the consumers' times out of the gid-indexed slab `flat`.
    pub(crate) fn take(graph: &DepGraph, flat: &[i64]) -> Snapshot {
        Snapshot {
            recvs: graph.msgs.recvs().iter().map(|&g| flat[g as usize]).collect(),
            ends: graph.coll.instances().flat_map(|inst| inst.ends).map(|&e| flat[e as usize]).collect(),
        }
    }

    /// F of `gid`: a receive or a collective end, the only consumers.
    #[inline(always)]
    fn at(&self, graph: &DepGraph, gid: u32) -> i64 {
        let link = graph.link(gid);
        if link.kind() == RECV {
            return self.recvs[link.index()];
        }
        debug_assert!(link.is_end());
        self.ends[link.index()]
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

/// One pass's view of the *aggregated* N-to-N instances: those whose
/// latency block is classed ([`tracefmt::BlockClasses`]) and whose members
/// each begin before they end on a timeline of their own.
///
/// *Forward*, the end at position `pos` of such an instance is bounded by
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
///
/// *Backward* ([`CollPass::latest`]), the begin at `pos` may move up to
/// `min_{j ≠ pos} snapshot(end_j).saturating_sub(L[pos][j])`: the
/// complement of the same fold over the complemented ends, `!x` being
/// order-reversing with `!(x.saturating_sub(l)) == (!x).saturating_add(l)`.
/// An instance is folded when one of its begins is first asked for. A
/// classed block has more members than classes: no begin is left termless.
pub(crate) struct CollPass {
    /// Per instance: begins still uncorrected (forward), 0 once folded
    /// (backward), or [`NOT_AGGREGATED`].
    pending: Vec<u32>,
    /// Per member row of a folded instance: the bound of the row's end
    /// (forward), the latest time of its begin (backward).
    remote: Vec<i64>,
    /// Per class of the instance at hand: its members' top two.
    top: Vec<Top2>,
    /// Per class: the bound contributed by all *other* classes' members.
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

    /// What the collective end `link` waits for: `Some(0)` — nothing,
    /// [`CollPass::bound`] is final; `Some(n)` — `n` begins of its
    /// aggregated instance; `None` — walk its view.
    #[inline]
    pub(crate) fn pending(&self, graph: &DepGraph, link: Link) -> Option<u32> {
        let pending = self.pending[graph.row_inst[link.index()] as usize];
        (pending != NOT_AGGREGATED).then_some(pending)
    }

    /// The remote bound, in ps, of the aggregated end `link`. `i64::MIN` —
    /// never above a candidate — when it has no in-edge.
    #[inline]
    pub(crate) fn bound(&self, link: Link) -> i64 {
        self.remote[link.index()]
    }

    /// The collective begin `link` was just corrected in `corr`
    /// (gid-indexed, every corrected event in place).
    #[inline]
    pub(crate) fn begin_corrected(&mut self, graph: &DepGraph, link: Link, corr: &[i64]) {
        let i = graph.row_inst[link.index()] as usize;
        if self.pending[i] == NOT_AGGREGATED {
            return;
        }
        self.pending[i] -= 1;
        if self.pending[i] == 0 {
            self.aggregate(graph, i, |_, b| corr[b as usize], false);
        }
    }

    /// Backward: [`latest_allowed`] for `gid`'s out-edges, folded once per
    /// instance for the begins of an aggregated one.
    #[inline(always)]
    pub(crate) fn latest(&mut self, graph: &DepGraph, gid: u32, snapshot: &Snapshot) -> Option<Time> {
        let link = graph.link(gid);
        if link.is_begin() {
            let row = link.index();
            let i = graph.row_inst[row] as usize;
            if self.pending[i] != NOT_AGGREGATED {
                if self.pending[i] != 0 {
                    self.pending[i] = 0;
                    self.aggregate(graph, i, |row, _| !snapshot.ends[row], true);
                }
                return Some(Time::from_ps(self.remote[row]));
            }
        }
        latest_allowed(graph.out_of(gid), |dst| snapshot.at(graph, dst))
    }

    /// Fold instance `i`'s begins into its ends' bounds, or — `backward` —
    /// its complemented ends into its begins' latest times. `value` reads
    /// a member's time by its row and its gid.
    #[inline(never)]
    fn aggregate(&mut self, graph: &DepGraph, i: usize, value: impl Fn(usize, u32) -> i64, backward: bool) {
        let inst = graph.coll.instance(i);
        let classes = inst.block.classes().expect("aggregated instances are classed");
        let lat = |from, to| if backward { classes.lat(to, from) } else { classes.lat(from, to) };
        let n = classes.n_classes();
        self.top.clear();
        self.top.resize(n, Top2::default());
        for (j, &member) in (if backward { inst.ends } else { inst.begins }).iter().enumerate() {
            self.top[classes.of(j)].offer(value(inst.first_row + j, member), j);
        }
        self.others.clear();
        for to in 0..n {
            let from_others = (0..n).filter(|&from| from != to).filter_map(|from| {
                let (value, _) = self.top[from].first?;
                Some(value.saturating_add(lat(from, to)))
            });
            self.others.push(from_others.max().unwrap_or(i64::MIN));
        }
        let rows = inst.first_row..inst.first_row + inst.begins.len();
        for (pos, bound) in self.remote[rows].iter_mut().enumerate() {
            let c = classes.of(pos);
            let own = self.top[c].without(pos).map(|v| v.saturating_add(lat(c, c)));
            *bound = own.map_or(self.others[c], |own| own.max(self.others[c]));
            if backward {
                *bound = !*bound;
            }
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

    /// Every matched message is its receive's one in-edge and its send's
    /// one out-edge, read from the message table with its own `l_min`; a
    /// message endpoint has no edge the other way, and a collective member
    /// links no message.
    #[test]
    fn links_resolve_to_the_message_table() {
        let t = fixtures::mixed_trace(4, 9);
        let lmin = |from: Rank, to: Rank| Dur::from_us(10 * i64::from(from.0) + i64::from(to.0) + 1);
        let (matching, insts) = Capture::of(&t).finish();
        let insts = insts.unwrap();
        let g = DepGraph::from_trace(&t, &matching, &insts, &lmin);
        assert_eq!(g.messages().len(), matching.messages.len());
        for m in &matching.messages {
            let lat = lmin(m.from, m.to);
            assert_eq!(g.in_deps(m.recv).collect::<Vec<_>>(), [(m.send, lat)], "{m:?}");
            assert_eq!(g.out_deps(m.send).collect::<Vec<_>>(), [(m.recv, lat)], "{m:?}");
            assert_eq!((g.in_deps(m.send).count(), g.out_deps(m.recv).count()), (0, 0), "{m:?}");
        }
        let member = insts[0].members[1];
        assert!(g.in_deps(member.end).all(|(id, _)| insts[0].members.iter().any(|m| m.begin == id)));
        assert!(g.out_deps(member.begin).all(|(id, _)| insts[0].members.iter().any(|m| m.end == id)));
        assert_eq!(g.in_deps(member.end).count(), 3);
    }

    /// A collective's cost is its members, not its logical messages: a
    /// 512-timeline communicator running 40 barriers and one collective of
    /// every other flavour is 44 032 events and 10.6 million logical edges
    /// — in what is stored, and in what a forward pass evaluates.
    #[test]
    fn stored_size_is_linear_in_events_plus_communicator_squared() {
        use crate::clc::columnar::{controlled_logical_clock_columnar_csr, forward_pass_csr, Moved};
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
        assert!(g.msgs.is_empty(), "no collective edge is stored");
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
                    let moved = &mut Moved::new(cols.n_events());
                    let jumps = forward_pass_csr(&mut cols, g, 0.99, moved).unwrap().jumps;
                    (t0.elapsed(), cols.flat().to_vec(), jumps)
                })
                .min_by_key(|(elapsed, ..)| *elapsed)
                .expect("three runs")
        };
        let walk_graph = DepGraph::from_trace(&t, &matching, &insts, &LMIN).without_aggregation();
        let (fast, classed, classed_jumps) = best_of_3(&g);
        let (slow, walked, walked_jumps) = best_of_3(&walk_graph);
        assert_eq!(classed, walked);
        let in_order = |jumps: &[crate::clc::Jump]| jumps.iter().map(|j| (j.event, j.size)).collect::<Vec<_>>();
        assert_eq!(in_order(&classed_jumps), in_order(&walked_jumps));
        assert!(fast * 4 < slow, "aggregated {fast:?} vs view walk {slow:?} on {k} timelines");
        // The whole CLC: the backward pass caps the begins in aggregate too.
        let full = |g: &DepGraph| {
            let mut cols = TraceColumns::gather(&t);
            let report = controlled_logical_clock_columnar_csr(&mut cols, g, &ClcParams::default()).unwrap();
            (cols.flat().to_vec(), in_order(&report.jumps), report.events_moved)
        };
        assert_eq!(full(&g), full(&walk_graph));
    }

    /// A hand-built instance with two members on timeline 0, the second
    /// one's begin (index 2) after the first one's end (index 1): the end
    /// depends on an event behind it in program order. Never aggregated —
    /// its ends walk their views — and the forward pass reports the cycle.
    #[test]
    fn collective_begin_after_its_own_timelines_end_is_a_cycle() {
        use crate::clc::columnar::{forward_pass_csr, Moved};
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
        let failed = forward_pass_csr(&mut cols, &g, 0.99, &mut Moved::new(6));
        assert!(matches!(failed, Err(ClcError::CyclicTrace)));
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
