//! Postmortem trace analysis: reconstructing the communication structure.
//!
//! Tracers record sends and receives independently on each process; which
//! send pairs with which receive is recovered afterwards from MPI's
//! non-overtaking rule — messages between one (source, destination, tag)
//! triple match in FIFO order. Collective instances are recovered from the
//! per-communicator call order, and OpenMP parallel regions from the POMP
//! fork/join bracketing. These reconstructions are purely *logical*: they
//! use event order within each timeline, never the (unreliable) timestamps,
//! so corrupted clocks cannot corrupt the structure.

use crate::event::{CollOp, EventKind};
use crate::ids::{CommId, EventId, Rank, RegionId};
use crate::trace::Trace;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A matched point-to-point message: its send and receive events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMatch {
    /// The `Send` event.
    pub send: EventId,
    /// The matching `Recv` event.
    pub recv: EventId,
    /// Source rank.
    pub from: Rank,
    /// Destination rank.
    pub to: Rank,
    /// Payload size.
    pub bytes: u64,
}

/// Result of message matching, including any dangling events (normally a
/// sign of a truncated or partial trace).
#[derive(Debug, Clone, Default)]
pub struct Matching {
    /// Matched send/receive pairs.
    pub messages: Vec<MessageMatch>,
    /// Sends with no matching receive in the trace.
    pub unmatched_sends: Vec<EventId>,
    /// Receives with no matching send in the trace.
    pub unmatched_recvs: Vec<EventId>,
}

impl Matching {
    /// True if every message event found its partner.
    pub fn is_complete(&self) -> bool {
        self.unmatched_sends.is_empty() && self.unmatched_recvs.is_empty()
    }
}

/// One member's participation in a collective instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollMember {
    /// Rank of the member.
    pub rank: Rank,
    /// Its `CollBegin` event.
    pub begin: EventId,
    /// Its `CollEnd` event.
    pub end: EventId,
}

/// A reconstructed collective operation instance across all participants.
#[derive(Debug, Clone)]
pub struct CollectiveInstance {
    /// Which operation.
    pub op: CollOp,
    /// Communicator.
    pub comm: CommId,
    /// Root rank for rooted flavours.
    pub root: Option<Rank>,
    /// Begin/end pair per participating rank.
    pub members: Vec<CollMember>,
}

impl CollectiveInstance {
    /// The member entry for the root, if the operation is rooted.
    pub fn root_member(&self) -> Option<&CollMember> {
        let root = self.root?;
        self.members.iter().find(|m| m.rank == root)
    }
}

/// "No record" for a receive's partner and "still open" for a call's end;
/// record counts and event indices stay below it.
const NONE: u32 = u32::MAX;

/// Compact id of a peer rank no timeline carries: it never finds a partner.
const NOBODY: u32 = u32::MAX >> 1;

/// One send or receive as [`Capture`] keeps it: 24 bytes, in feed order.
#[derive(Debug, Clone, Copy)]
struct MsgRec {
    id: EventId,
    /// Grouping key, side bit lowest (set on a receive): with counted
    /// buckets `(from · ranks + to) · 2 + side`, else `peer · 2 + side`; a
    /// peer no timeline carries is `NOBODY · 2 + side`.
    key: u32,
    tag: u32,
    /// A send's payload size. On a receive, the record of the send it
    /// matched once zipped; `NONE` until then.
    aux: u64,
}

impl MsgRec {
    #[inline]
    fn is_recv(&self) -> bool {
        self.key & 1 == 1
    }
}

/// One collective call: the `k`-th its timeline made on the communicator
/// of `slots[slot]`.
#[derive(Debug, Clone, Copy)]
struct CallRec {
    slot: u32,
    k: u32,
    begin: EventId,
    /// Index of its `CollEnd` on the caller's timeline; `NONE` while open.
    end: u32,
    op: CollOp,
    root: Option<Rank>,
}

/// Where one communicator's calls stand on the timeline being fed: how
/// many it made, and the one whose `CollEnd` is still to come; `most` is
/// the most any timeline made, its instance count.
#[derive(Debug)]
struct CommSlot {
    comm: CommId,
    timeline: usize,
    calls: u32,
    open: Option<usize>,
    most: u32,
}

/// The communication structure of a trace, captured in one scan: matched
/// point-to-point messages and collective instances. [`feed`] it every
/// event once, in `(timeline, index)` order; [`finish`] yields both. Batch
/// ([`Capture::of`]) and streamed callers feed the same scan, so their
/// results are equal field for field, errors included. Sends and receives
/// are grouped per rank pair by counting sorts over compact rank ids and
/// zip per-tag FIFO; DESIGN §9.1 has the record layout and the bounds.
///
/// [`feed`]: Capture::feed
/// [`finish`]: Capture::finish
#[derive(Debug)]
pub struct Capture {
    /// The timelines' ranks, sorted and deduplicated: compact id → rank.
    ranks: Vec<Rank>,
    /// `ranks` is `0..ranks.len()`: a rank is its own id.
    identity: bool,
    /// Compact rank id of each timeline.
    own: Vec<u32>,
    /// Records per `(from, to, side)` bucket; `None` past the bound.
    counts: Option<Vec<u32>>,
    msgs: Vec<MsgRec>,
    n_recvs: usize,
    calls: Vec<CallRec>,
    /// Per communicator, in first-call order. A run of calls on one
    /// communicator resolves through `last` without hashing; `slot_of` is
    /// probed only on a switch, so a hostile stream of distinct
    /// communicators stays O(1) per event.
    slots: Vec<CommSlot>,
    last: usize,
    slot_of: HashMap<CommId, usize>,
    /// The first malformed collective met; calls after it are not kept.
    coll_err: Option<String>,
}

impl Capture {
    /// An empty capture for timelines of the given ranks, in timeline
    /// order. `n_events`, the trace's event count, sizes the record column
    /// and bounds the bucket table; feeding more is correct, only slower.
    pub fn new(ranks: impl IntoIterator<Item = Rank>, n_events: usize) -> Self {
        let timeline_ranks: Vec<Rank> = ranks.into_iter().collect();
        let mut ranks = timeline_ranks.clone();
        ranks.sort_unstable();
        ranks.dedup();
        let u = ranks.len();
        assert!(u < NOBODY as usize, "more distinct ranks than compact ids");
        let counted = 2 * u * u <= n_events && n_events < NOBODY as usize;
        let mut capture = Capture {
            identity: ranks.last().is_none_or(|r| r.idx() + 1 == u),
            ranks,
            own: Vec::new(),
            counts: counted.then(|| zeroed(2 * u * u)),
            msgs: Vec::with_capacity(n_events),
            n_recvs: 0,
            calls: Vec::new(),
            slots: Vec::new(),
            last: 0,
            slot_of: HashMap::new(),
            coll_err: None,
        };
        capture.own = timeline_ranks.iter().map(|&r| capture.id_of(r)).collect();
        capture
    }

    /// Capture every event of `trace`.
    pub fn of(trace: &Trace) -> Self {
        let ranks = trace.procs.iter().map(|pt| pt.location.rank);
        let mut capture = Capture::new(ranks, trace.n_events());
        for (p, pt) in trace.procs.iter().enumerate() {
            for (i, e) in pt.events.iter().enumerate() {
                capture.feed(p, i, &e.kind);
            }
        }
        capture
    }

    /// Compact id of `rank`, or `NOBODY` when no timeline carries it.
    #[inline]
    fn id_of(&self, rank: Rank) -> u32 {
        let id = if self.identity {
            (rank.idx() < self.ranks.len()).then_some(rank.idx())
        } else {
            self.ranks.binary_search(&rank).ok()
        };
        id.map_or(NOBODY, |id| id as u32)
    }

    /// Feed event `i` of timeline `p`. Kinds other than messages and
    /// collective calls are ignored.
    #[inline]
    pub fn feed(&mut self, p: usize, i: usize, kind: &EventKind) {
        let (peer, side, tag, aux) = match *kind {
            EventKind::Send { to, tag, bytes } => (to, 0, tag, bytes),
            EventKind::Recv { from, tag, .. } => {
                self.n_recvs += 1;
                (from, 1, tag, u64::from(NONE))
            }
            EventKind::CollBegin { .. } | EventKind::CollEnd { .. } if self.coll_err.is_none() => {
                if let Err(e) = self.feed_call(p, i, kind) {
                    self.coll_err = Some(e);
                }
                return;
            }
            _ => return,
        };
        let peer = self.id_of(peer);
        let key = match &mut self.counts {
            Some(counts) if peer != NOBODY => {
                let (own, u) = (self.own[p], self.ranks.len() as u32);
                let (from, to) = if side == 1 { (peer, own) } else { (own, peer) };
                let key = (from * u + to) << 1 | side;
                counts[key as usize] += 1;
                key
            }
            _ => peer << 1 | side,
        };
        self.msgs.push(MsgRec { id: EventId::new(p, i), key, tag: tag.0, aux });
    }

    /// Open or close a collective call on its communicator. Errors on a
    /// `CollEnd` with no open call there, or of another op than its begin.
    fn feed_call(&mut self, p: usize, i: usize, kind: &EventKind) -> Result<(), String> {
        let (EventKind::CollBegin { op, comm, root, .. } | EventKind::CollEnd { op, comm, root, .. }) =
            *kind
        else {
            unreachable!("only collective events are fed here");
        };
        if self.slots.get(self.last).is_none_or(|slot| slot.comm != comm) {
            self.last = *self.slot_of.entry(comm).or_insert(self.slots.len());
            if self.last == self.slots.len() {
                self.slots.push(CommSlot { comm, timeline: p, calls: 0, open: None, most: 0 });
            }
        }
        let slot = &mut self.slots[self.last];
        if slot.timeline != p {
            (slot.timeline, slot.calls, slot.open) = (p, 0, None);
        }
        if let EventKind::CollBegin { .. } = kind {
            slot.open = Some(self.calls.len());
            let (slot_at, begin) = (self.last as u32, EventId::new(p, i));
            self.calls.push(CallRec { slot: slot_at, k: slot.calls, begin, end: NONE, op, root });
            slot.calls += 1;
            slot.most = slot.most.max(slot.calls);
            return Ok(());
        }
        // Taking the slot closes the call: a second end is an error, not a
        // rewrite of the first.
        let call = slot.open.take().ok_or_else(|| format!("CollEnd without CollBegin at proc {p}"))?;
        let call = &mut self.calls[call];
        if op != call.op {
            return Err(format!("collective #{} on {comm}: op mismatch {:?} vs {op:?}", call.k, call.op));
        }
        call.end = i as u32;
        Ok(())
    }

    /// The matching, and the collective instances or the first reason the
    /// calls do not form them.
    pub fn finish(mut self) -> (Matching, Result<Vec<CollectiveInstance>, String>) {
        let instances = if let Some(e) = self.coll_err.take() { Err(e) } else { self.assemble() };
        // The calls' memory goes back before the matching takes its own.
        self.calls = Vec::new();
        (self.into_matching(), instances)
    }

    /// Group the records, zip each pair, then sweep them in feed order:
    /// `messages` and `unmatched_recvs` come out in receive order and
    /// `unmatched_sends` in send order — what draining per-`(from, to, tag)`
    /// FIFO queues receive by receive produces — with no final sort.
    fn into_matching(self) -> Matching {
        let Capture { ranks, own, counts, mut msgs, n_recvs, .. } = self;
        assert!(msgs.len() < NONE as usize, "message records exceed the u32 ordinal space");
        let u = ranks.len();
        let known = (0..msgs.len() as u32).filter(|&k| msgs[k as usize].key >> 1 != NOBODY);
        // Grouped records, and where each bucket starts when counted.
        let (mut order, starts) = match counts {
            Some(counts) => {
                let (order, starts) = counting_sort(known, |k| msgs[k as usize].key as usize, counts);
                (order, Some(starts))
            }
            None => {
                let rec = |k: u32| &msgs[k as usize];
                let by_to = |k| pair_of(rec(k), &own).1 as usize * 2 + usize::from(rec(k).is_recv());
                let (by_to, _) = counting_sort(known.clone(), by_to, tally(known, by_to, 2 * u));
                let by_from = |k| pair_of(rec(k), &own).0 as usize;
                let counts = tally(by_to.iter().copied(), by_from, u);
                (counting_sort(by_to.iter().copied(), by_from, counts).0, None)
            }
        };

        let mut consumed = vec![0u64; msgs.len().div_ceil(64)];
        let mut matched = 0;
        match starts {
            // Bucket 2·pair holds the pair's sends, 2·pair + 1 its receives.
            Some(starts) => {
                for pair in 0..u * u {
                    let [s, r, end] = [0, 1, 2].map(|j| starts[2 * pair + j] as usize);
                    if s < r && r < end {
                        matched += zip_pair(&mut order[s..end], r - s, &mut msgs, &mut consumed);
                    }
                }
            }
            // Runs of one `(from, to)`, sends first.
            None => {
                let mut a = 0;
                while a < order.len() {
                    let pair = |k: &u32| pair_of(&msgs[*k as usize], &own);
                    let run = pair(&order[a]);
                    let end = a + order[a..].iter().take_while(|k| pair(k) == run).count();
                    let sends = order[a..end].iter().take_while(|&&k| !msgs[k as usize].is_recv());
                    let sends = sends.count();
                    matched += zip_pair(&mut order[a..end], sends, &mut msgs, &mut consumed);
                    a = end;
                }
            }
        }
        drop(order);

        let mut out = Matching {
            messages: Vec::with_capacity(matched),
            unmatched_sends: Vec::with_capacity(msgs.len() - n_recvs - matched),
            unmatched_recvs: Vec::with_capacity(n_recvs - matched),
        };
        let rank = |id: EventId| ranks[own[id.p()] as usize];
        for (k, rec) in msgs.iter().enumerate() {
            if !rec.is_recv() {
                if consumed[k / 64] >> (k % 64) & 1 == 0 {
                    out.unmatched_sends.push(rec.id);
                }
            } else if rec.aux == u64::from(NONE) {
                out.unmatched_recvs.push(rec.id);
            } else {
                let send = &msgs[rec.aux as usize];
                let (from, to) = (rank(send.id), rank(rec.id));
                let bytes = send.aux;
                out.messages.push(MessageMatch { send: send.id, recv: rec.id, from, to, bytes });
            }
        }
        out
    }

    /// Zip the calls into instances: within one communicator, the k-th call
    /// of every participating timeline belongs to instance k (MPI requires
    /// all ranks of a communicator to issue collectives in the same order),
    /// and every member must name the same op and root. Instances come out
    /// per communicator in id order, each in call order.
    fn assemble(&self) -> Result<Vec<CollectiveInstance>, String> {
        let mut by_comm: Vec<usize> = (0..self.slots.len()).collect();
        by_comm.sort_unstable_by_key(|&s| self.slots[s].comm);
        // Instance `first[slot] + k` gathers the k-th calls on that slot's
        // communicator; one counting sort groups them, timelines in order.
        let mut first = vec![0; self.slots.len()];
        let mut n = 0;
        for &s in &by_comm {
            (first[s], n) = (n, n + self.slots[s].most as usize);
        }
        let call = |c: &u32| &self.calls[*c as usize];
        let instance = |c: u32| first[call(&c).slot as usize] + call(&c).k as usize;
        let calls = 0..self.calls.len() as u32;
        let (order, starts) = counting_sort(calls.clone(), instance, tally(calls, instance, n));
        let group = |i: usize| order[starts[i] as usize..starts[i + 1] as usize].iter().map(call);
        let mut out = Vec::with_capacity(n);
        for &s in &by_comm {
            let comm = self.slots[s].comm;
            // The participants are the callers of instance 0.
            let participants = || group(first[s]).map(|c| c.begin.proc);
            for k in 0..self.slots[s].most {
                let mut calls = group(first[s] + k as usize).peekable();
                let (op, root) = calls.peek().map(|c| (c.op, c.root)).expect("an instance has a caller");
                let mut members = Vec::with_capacity(participants().len());
                for p in participants() {
                    let Some(call) = calls.next_if(|c| c.begin.proc == p) else {
                        return Err(format!("rank at proc {p} missing collective #{k} on {comm}"));
                    };
                    let at = || format!("collective #{k} on {comm}");
                    if call.op != op {
                        return Err(format!("{}: op mismatch {:?} vs {:?}", at(), op, call.op));
                    }
                    if call.root != root {
                        return Err(format!("{}: root mismatch {:?} vs {:?}", at(), root, call.root));
                    }
                    if call.end == NONE {
                        return Err(format!("{}: missing CollEnd at proc {p}", at()));
                    }
                    let rank = self.ranks[self.own[call.begin.p()] as usize];
                    let end = EventId { proc: p, idx: call.end };
                    members.push(CollMember { rank, begin: call.begin, end });
                }
                out.push(CollectiveInstance { op, comm, root, members });
            }
        }
        Ok(out)
    }
}

/// `(from, to)` compact ids of a record keyed by its peer.
#[inline]
fn pair_of(rec: &MsgRec, own: &[u32]) -> (u32, u32) {
    let (own, peer) = (own[rec.id.p()], rec.key >> 1);
    if rec.is_recv() { (peer, own) } else { (own, peer) }
}

/// `width` zero counts, with one slot spare for the end [`counting_sort`]
/// appends.
fn zeroed(width: usize) -> Vec<u32> {
    let mut counts = Vec::with_capacity(width + 1);
    counts.resize(width, 0);
    counts
}

/// Items per key (`< width`): the first half of a counting sort.
fn tally(items: impl Iterator<Item = u32>, key: impl Fn(u32) -> usize, width: usize) -> Vec<u32> {
    let mut counts = zeroed(width);
    for i in items {
        counts[key(i)] += 1;
    }
    counts
}

/// The second half of a stable counting sort: `items` ordered by `key`,
/// feed order kept among equal keys, given each key's item count. Returns
/// the order and where each key's run starts, plus the item count.
fn counting_sort<I>(items: I, key: impl Fn(u32) -> usize, counts: Vec<u32>) -> (Vec<u32>, Vec<u32>)
where
    I: DoubleEndedIterator<Item = u32>,
{
    let mut at = counts;
    let mut end = 0;
    for slot in &mut at {
        end += *slot;
        *slot = end;
    }
    at.push(end);
    let mut order = vec![0u32; end as usize];
    // Back to front into the last free slot of each run: stable.
    for i in items.rev() {
        let slot = &mut at[key(i)];
        *slot -= 1;
        order[*slot as usize] = i;
    }
    (order, at)
}

/// Per-tag FIFO inside one rank pair's `group`: its first `sends` records
/// are the sends, the rest the receives, each in feed order. Each receive
/// records its send, each matched send is marked in the `consumed` bitset.
/// Returns the number of matches.
fn zip_pair(group: &mut [u32], sends: usize, msgs: &mut [MsgRec], consumed: &mut [u64]) -> usize {
    let (s, r) = group.split_at_mut(sends);
    let tag = |msgs: &[MsgRec], k: u32| msgs[k as usize].tag;
    // Tag sequences that agree pair up position by position as they stand
    // (the j-th receive of a tag sits where its j-th send sits); otherwise
    // bring each tag's sends and receives together first, feed order kept.
    if s.iter().zip(r.iter()).any(|(&s, &r)| tag(msgs, s) != tag(msgs, r)) {
        s.sort_by_key(|&s| tag(msgs, s));
        r.sort_by_key(|&r| tag(msgs, r));
    }
    let (mut a, mut b, mut matched) = (0, 0, 0);
    while a < s.len() && b < r.len() {
        match tag(msgs, s[a]).cmp(&tag(msgs, r[b])) {
            Ordering::Less => a += 1,
            Ordering::Greater => b += 1,
            Ordering::Equal => {
                let (send, recv) = (s[a] as usize, r[b] as usize);
                msgs[recv].aux = send as u64;
                consumed[send / 64] |= 1 << (send % 64);
                (a, b, matched) = (a + 1, b + 1, matched + 1);
            }
        }
    }
    matched
}

/// Match sends to receives by (source, destination, tag) in FIFO order.
///
/// The trace's timelines are indexed by rank position in `trace.procs`;
/// ranks referenced by `Send`/`Recv` events are resolved through each
/// timeline's location.
pub fn match_messages(trace: &Trace) -> Matching {
    Capture::of(trace).finish().0
}

/// Reconstruct collective instances: within one communicator, the k-th
/// collective call of every rank belongs to instance k (MPI requires all
/// ranks of a communicator to issue collectives in the same order).
///
/// Returns instances in per-communicator call order. A malformed trace —
/// a `CollEnd` without its `CollBegin` or of another op, a missing call or
/// end, members disagreeing on the op or the root — is reported via `Err`
/// naming the communicator and the instance.
pub fn match_collectives(trace: &Trace) -> Result<Vec<CollectiveInstance>, String> {
    Capture::of(trace).finish().1
}

/// One thread's view of a parallel region instance (POMP model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionThread {
    /// Timeline index of the thread.
    pub proc: usize,
    /// The thread's first event of the region (index into its timeline).
    pub first: u32,
    /// The thread's last event of the region (inclusive).
    pub last: u32,
    /// Barrier enter event, if present.
    pub barrier_enter: Option<EventId>,
    /// Barrier exit event, if present.
    pub barrier_exit: Option<EventId>,
}

/// A reconstructed OpenMP parallel region instance.
#[derive(Debug, Clone)]
pub struct ParallelRegion {
    /// Region id from the fork event.
    pub region: RegionId,
    /// The master's `Fork` event.
    pub fork: EventId,
    /// The master's `Join` event.
    pub join: EventId,
    /// Per-thread spans (including the master's own work inside the
    /// region).
    pub threads: Vec<RegionThread>,
}

/// Reconstruct parallel regions from POMP events.
///
/// Assumes the trace's timelines are the threads of one team (as produced by
/// [`Trace::for_threads`]): thread 0 carries `Fork`/`Join`, every thread
/// carries its in-region events bracketed (logically) between consecutive
/// fork/join pairs, in the same instance order on all threads.
pub fn match_parallel_regions(trace: &Trace) -> Result<Vec<ParallelRegion>, String> {
    if trace.procs.is_empty() {
        return Ok(Vec::new());
    }
    // Collect fork/join pairs on the master timeline.
    let master = 0usize;
    let mut forks: Vec<(RegionId, EventId)> = Vec::new();
    let mut joins: Vec<EventId> = Vec::new();
    for (i, e) in trace.procs[master].events.iter().enumerate() {
        match e.kind {
            EventKind::Fork { region } => forks.push((region, EventId::new(master, i))),
            EventKind::Join { .. } => joins.push(EventId::new(master, i)),
            _ => {}
        }
    }
    if forks.len() != joins.len() {
        return Err(format!(
            "unbalanced fork/join: {} forks, {} joins",
            forks.len(),
            joins.len()
        ));
    }

    // Per thread, split its event stream into region instances by counting
    // barrier enters/exits per instance: thread-local events between the
    // k-th region markers belong to instance k. We use explicit per-thread
    // instance cursors driven by BarrierExit (every instance ends with the
    // implicit barrier in the POMP model).
    let mut regions: Vec<ParallelRegion> = forks
        .iter()
        .zip(&joins)
        .map(|(&(region, fork), &join)| ParallelRegion {
            region,
            fork,
            join,
            threads: Vec::new(),
        })
        .collect();

    for (p, pt) in trace.procs.iter().enumerate() {
        let mut inst = 0usize;
        let mut current: Option<RegionThread> = None;
        for (i, e) in pt.events.iter().enumerate() {
            match e.kind {
                // Fork/Join live outside the per-thread span.
                EventKind::Fork { .. } | EventKind::Join { .. } => {}
                EventKind::BarrierEnter { .. } => {
                    let cur = current.get_or_insert(RegionThread {
                        proc: p,
                        first: i as u32,
                        last: i as u32,
                        barrier_enter: None,
                        barrier_exit: None,
                    });
                    cur.barrier_enter = Some(EventId::new(p, i));
                    cur.last = i as u32;
                }
                EventKind::BarrierExit { .. } => {
                    let cur = current.get_or_insert(RegionThread {
                        proc: p,
                        first: i as u32,
                        last: i as u32,
                        barrier_enter: None,
                        barrier_exit: None,
                    });
                    cur.barrier_exit = Some(EventId::new(p, i));
                    cur.last = i as u32;
                    // The implicit barrier exit closes the instance.
                    let done = current.take().expect("just inserted");
                    let reg = regions.get_mut(inst).ok_or_else(|| {
                        format!("thread {p} has more region instances than the master forked")
                    })?;
                    reg.threads.push(done);
                    inst += 1;
                }
                _ => {
                    let cur = current.get_or_insert(RegionThread {
                        proc: p,
                        first: i as u32,
                        last: i as u32,
                        barrier_enter: None,
                        barrier_exit: None,
                    });
                    cur.last = i as u32;
                }
            }
        }
        if current.is_some() {
            return Err(format!("thread {p}: trailing region without barrier exit"));
        }
    }
    Ok(regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tag;
    use simclock::Time;

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    #[test]
    fn fifo_matching_is_order_based_not_time_based() {
        let mut t = Trace::for_ranks(2);
        // Two messages 0 -> 1 with the same tag; timestamps deliberately
        // scrambled — matching must follow program order.
        t.procs[0].push(us(10), EventKind::Send { to: Rank(1), tag: Tag(7), bytes: 1 });
        t.procs[0].push(us(11), EventKind::Send { to: Rank(1), tag: Tag(7), bytes: 2 });
        t.procs[1].push(us(5), EventKind::Recv { from: Rank(0), tag: Tag(7), bytes: 1 });
        t.procs[1].push(us(6), EventKind::Recv { from: Rank(0), tag: Tag(7), bytes: 2 });
        let m = match_messages(&t);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 2);
        assert_eq!(m.messages[0].send, EventId::new(0, 0));
        assert_eq!(m.messages[0].recv, EventId::new(1, 0));
        assert_eq!(m.messages[0].bytes, 1);
        assert_eq!(m.messages[1].bytes, 2);
    }

    #[test]
    fn different_tags_do_not_cross_match() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(1), EventKind::Send { to: Rank(1), tag: Tag(1), bytes: 0 });
        t.procs[1].push(us(2), EventKind::Recv { from: Rank(0), tag: Tag(2), bytes: 0 });
        let m = match_messages(&t);
        assert_eq!(m.messages.len(), 0);
        assert_eq!(m.unmatched_sends.len(), 1);
        assert_eq!(m.unmatched_recvs.len(), 1);
        assert!(!m.is_complete());
    }

    /// Push one complete collective call (begin at 1 µs, end at 2 µs).
    fn call(t: &mut Trace, p: usize, op: CollOp, comm: CommId, root: Option<Rank>) {
        t.procs[p].push(us(1), EventKind::CollBegin { op, comm, root, bytes: 8 });
        t.procs[p].push(us(2), EventKind::CollEnd { op, comm, root, bytes: 8 });
    }

    #[test]
    fn coll_end_closes_its_call() {
        let mut t = Trace::for_ranks(1);
        let (op, bytes) = (CollOp::Barrier, 0);
        let end = |comm| EventKind::CollEnd { op, comm, root: None, bytes };
        // Interleaved communicators each keep their own open call...
        call(&mut t, 0, op, CommId(0), None);
        t.procs[0].push(us(3), EventKind::CollBegin { op, comm: CommId(1), root: None, bytes });
        call(&mut t, 0, op, CommId(0), None);
        t.procs[0].push(us(4), end(CommId(1)));
        let insts = match_collectives(&t).unwrap();
        let ends: Vec<_> = insts.iter().map(|i| (i.comm.0, i.members[0].end.idx)).collect();
        assert_eq!(ends, [(0, 1), (0, 4), (1, 5)]);
        // ...and a second end on a closed call is an error, not a rewrite
        // of the first end.
        t.procs[0].push(us(5), end(CommId(0)));
        let err = match_collectives(&t).unwrap_err();
        assert!(err.contains("CollEnd without CollBegin"), "{err}");
    }

    #[test]
    fn collective_reconstruction_by_call_order() {
        let mut t = Trace::for_ranks(2);
        for p in 0..2 {
            for _ in 0..2 {
                call(&mut t, p, CollOp::Allreduce, CommId::WORLD, None);
            }
        }
        let insts = match_collectives(&t).unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].members.len(), 2);
        assert_eq!(insts[0].op, CollOp::Allreduce);
    }

    #[test]
    fn collective_op_mismatch_is_detected() {
        let mut t = Trace::for_ranks(2);
        call(&mut t, 0, CollOp::Barrier, CommId::WORLD, None);
        call(&mut t, 1, CollOp::Bcast, CommId::WORLD, Some(Rank(0)));
        assert!(match_collectives(&t).is_err());
    }

    #[test]
    fn rooted_collective_finds_root_member() {
        let mut t = Trace::for_ranks(3);
        for p in 0..3 {
            call(&mut t, p, CollOp::Bcast, CommId::WORLD, Some(Rank(1)));
        }
        let insts = match_collectives(&t).unwrap();
        assert_eq!(insts.len(), 1);
        let rm = insts[0].root_member().unwrap();
        assert_eq!(rm.rank, Rank(1));
    }

    #[test]
    fn parallel_region_reconstruction() {
        let mut t = Trace::for_threads(2);
        let r = RegionId(3);
        // Master: fork, work, barrier, join.
        t.procs[0].push(us(0), EventKind::Fork { region: r });
        t.procs[0].push(us(1), EventKind::Enter { region: r });
        t.procs[0].push(us(2), EventKind::Exit { region: r });
        t.procs[0].push(us(3), EventKind::BarrierEnter { region: r });
        t.procs[0].push(us(4), EventKind::BarrierExit { region: r });
        t.procs[0].push(us(5), EventKind::Join { region: r });
        // Worker: work, barrier.
        t.procs[1].push(us(1), EventKind::Enter { region: r });
        t.procs[1].push(us(2), EventKind::Exit { region: r });
        t.procs[1].push(us(3), EventKind::BarrierEnter { region: r });
        t.procs[1].push(us(4), EventKind::BarrierExit { region: r });

        let regions = match_parallel_regions(&t).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].threads.len(), 2);
        assert_eq!(regions[0].region, r);
        let master = &regions[0].threads[0];
        assert!(master.barrier_enter.is_some() && master.barrier_exit.is_some());
    }

    #[test]
    fn unbalanced_fork_join_rejected() {
        let mut t = Trace::for_threads(1);
        t.procs[0].push(us(0), EventKind::Fork { region: RegionId(0) });
        assert!(match_parallel_regions(&t).is_err());
    }
}
