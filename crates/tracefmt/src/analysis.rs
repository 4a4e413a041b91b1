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
use crate::ids::{CommId, EventId, Rank, RegionId, Tag};
use crate::trace::Trace;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

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

/// One side (sends or receives) of the point-to-point traffic as the
/// matcher stores it: parallel columns in feed order. `pairs` holds the
/// complete `(from, to)` — the event names its peer, the timeline supplies
/// the other end.
#[derive(Debug, Default)]
struct MsgRecords {
    ids: Vec<EventId>,
    pairs: Vec<(Rank, Rank)>,
    tags: Vec<u32>,
}

impl MsgRecords {
    fn push(&mut self, id: EventId, from: Rank, to: Rank, tag: Tag) {
        self.ids.push(id);
        self.pairs.push((from, to));
        self.tags.push(tag.0);
    }
}

/// "No partner" in the ordinal tables; record counts stay below it.
const NONE: u32 = u32::MAX;

/// Per-event message matcher: the streaming face of [`match_messages`].
/// [`feed`] it every event once, in `(timeline, index)` order; [`finish`]
/// yields the [`Matching`] of the whole.
///
/// Sort-based and hash-free: both sides are grouped by `(from, to)` with a
/// stable counting sort over compacted ranks, so every table is sized by
/// the record count — never by a rank or tag value, never by ranks². Inside
/// a pair, sends and receives zip positionally when their tag sequences
/// agree (which *is* per-tag FIFO: the k-th receive of a tag sits where the
/// k-th send of that tag sits); when they do not, both sides are stably
/// sorted by tag first and zip per tag.
///
/// [`feed`]: MessageMatcher::feed
/// [`finish`]: MessageMatcher::finish
#[derive(Debug, Default)]
pub struct MessageMatcher {
    sends: MsgRecords,
    /// Payload size per send, parallel to `sends`.
    send_bytes: Vec<u64>,
    recvs: MsgRecords,
}

impl MessageMatcher {
    /// Fresh matcher with no records.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed event `i` of timeline `p`, whose location rank is `rank`.
    /// Kinds other than `Send`/`Recv` are ignored.
    #[inline]
    pub fn feed(&mut self, rank: Rank, p: usize, i: usize, kind: &EventKind) {
        match *kind {
            EventKind::Send { to, tag, bytes } => {
                self.sends.push(EventId::new(p, i), rank, to, tag);
                self.send_bytes.push(bytes);
            }
            EventKind::Recv { from, tag, .. } => {
                self.recvs.push(EventId::new(p, i), from, rank, tag)
            }
            _ => {}
        }
    }

    /// Match the records fed so far. Partners are written into per-record
    /// ordinal slots and read back in feed order, so `messages` and
    /// `unmatched_recvs` come out in receive order and `unmatched_sends`
    /// in send order — what draining per-`(from, to, tag)` FIFO queues
    /// receive by receive produces — with no final sort.
    pub fn finish(self) -> Matching {
        let MessageMatcher { sends, send_bytes, recvs } = self;
        assert!(
            sends.ids.len() < NONE as usize && recvs.ids.len() < NONE as usize,
            "message records exceed the u32 ordinal space"
        );
        let ranks = RankIds::of(&sends.pairs, &recvs.pairs);
        let mut s_ord = ranks.group_by_pair(&sends.pairs);
        let mut r_ord = ranks.group_by_pair(&recvs.pairs);

        // partner[r] = ordinal of the send that receive r consumes.
        let mut partner = vec![NONE; recvs.ids.len()];
        let mut consumed = vec![false; sends.ids.len()];
        let (s_pair, r_pair) = (|s: u32| sends.pairs[s as usize], |r: u32| recvs.pairs[r as usize]);
        let (mut si, mut ri) = (0, 0);
        while si < s_ord.len() && ri < r_ord.len() {
            let pair = s_pair(s_ord[si]);
            match pair.cmp(&r_pair(r_ord[ri])) {
                Ordering::Less => si += 1,
                Ordering::Greater => ri += 1,
                Ordering::Equal => {
                    let s_end = si + s_ord[si..].partition_point(|&s| s_pair(s) == pair);
                    let r_end = ri + r_ord[ri..].partition_point(|&r| r_pair(r) == pair);
                    let (s, r) = (&mut s_ord[si..s_end], &mut r_ord[ri..r_end]);
                    zip_pair(s, r, &sends.tags, &recvs.tags, |s, r| {
                        partner[r as usize] = s;
                        consumed[s as usize] = true;
                    });
                    (si, ri) = (s_end, r_end);
                }
            }
        }

        let mut out = Matching::default();
        for (r, &s) in partner.iter().enumerate() {
            if s == NONE {
                out.unmatched_recvs.push(recvs.ids[r]);
                continue;
            }
            let (send, recv, (from, to)) = (sends.ids[s as usize], recvs.ids[r], recvs.pairs[r]);
            out.messages.push(MessageMatch { send, recv, from, to, bytes: send_bytes[s as usize] });
        }
        let unconsumed = sends.ids.iter().zip(&consumed).filter(|(_, &c)| !c);
        out.unmatched_sends = unconsumed.map(|(&id, _)| id).collect();
        out
    }
}

/// Per-tag FIFO between the sends `s` and receives `r` of one rank pair
/// (ordinals in feed order into the tag columns), calling
/// `link(send, recv)` per match.
fn zip_pair(
    s: &mut [u32],
    r: &mut [u32],
    s_tags: &[u32],
    r_tags: &[u32],
    mut link: impl FnMut(u32, u32),
) {
    let (tag_s, tag_r) = (|s: u32| s_tags[s as usize], |r: u32| r_tags[r as usize]);
    // Tag sequences that agree pair up position by position as they stand
    // (the j-th receive of a tag sits where its j-th send sits); otherwise
    // bring each tag's sends and receives together first, feed order kept.
    if s.iter().zip(r.iter()).any(|(&s, &r)| tag_s(s) != tag_r(r)) {
        s.sort_by_key(|&s| tag_s(s));
        r.sort_by_key(|&r| tag_r(r));
    }
    let (mut a, mut b) = (0, 0);
    while a < s.len() && b < r.len() {
        match tag_s(s[a]).cmp(&tag_r(r[b])) {
            Ordering::Less => a += 1,
            Ordering::Greater => b += 1,
            Ordering::Equal => {
                link(s[a], r[b]);
                (a, b) = (a + 1, b + 1);
            }
        }
    }
}

/// Rank values compacted, order kept, to table indices bounded by the
/// record count: ranks below `dense` index themselves, the rest — `sparse`,
/// sorted — follow. A trace's ranks are normally `0..n` and all dense; a
/// hostile `Rank(u32::MAX)` costs one `sparse` entry, not a table that big.
struct RankIds {
    dense: u32,
    sparse: Vec<Rank>,
}

impl RankIds {
    fn of(sends: &[(Rank, Rank)], recvs: &[(Rank, Rank)]) -> Self {
        let ends = || sends.iter().chain(recvs).flat_map(|&(from, to)| [from, to]);
        let above_all = ends().map(|r| u64::from(r.0) + 1).max().unwrap_or(0);
        let dense = above_all.min(sends.len().max(recvs.len()) as u64) as u32;
        let mut sparse: Vec<Rank> = ends().filter(|r| r.0 >= dense).collect();
        sparse.sort_unstable();
        sparse.dedup();
        RankIds { dense, sparse }
    }

    fn index(&self, rank: Rank) -> usize {
        if rank.0 < self.dense {
            return rank.idx();
        }
        self.dense as usize + self.sparse.binary_search(&rank).expect("every rank was collected")
    }

    /// Ordinals of `pairs` grouped by `(from, to)` in ascending rank order,
    /// feed order kept inside each group: an LSD pair of stable counting
    /// passes (`to`, then `from`), each over one table of O(ranks)
    /// counters — a single pass over a pair table would be O(ranks²).
    fn group_by_pair(&self, pairs: &[(Rank, Rank)]) -> Vec<u32> {
        let n_ids = self.dense as usize + self.sparse.len();
        let pass = |input: &[u32], out: &mut [u32], end: fn(&(Rank, Rank)) -> Rank| {
            let mut next = vec![0u32; n_ids + 1];
            for pair in pairs {
                next[self.index(end(pair)) + 1] += 1;
            }
            for k in 0..n_ids {
                next[k + 1] += next[k];
            }
            for &i in input {
                let slot = &mut next[self.index(end(&pairs[i as usize]))];
                out[*slot as usize] = i;
                *slot += 1;
            }
        };
        let mut by_pair: Vec<u32> = (0..pairs.len() as u32).collect();
        let mut by_to = vec![0u32; pairs.len()];
        pass(&by_pair, &mut by_to, |pair| pair.1);
        pass(&by_to, &mut by_pair, |pair| pair.0);
        by_pair
    }
}

/// Match sends to receives by (source, destination, tag) in FIFO order.
///
/// The trace's timelines are indexed by rank position in `trace.procs`;
/// ranks referenced by `Send`/`Recv` events are resolved through each
/// timeline's location.
pub fn match_messages(trace: &Trace) -> Matching {
    let mut m = MessageMatcher::new();
    for (p, pt) in trace.procs.iter().enumerate() {
        for (i, e) in pt.events.iter().enumerate() {
            m.feed(pt.location.rank, p, i, &e.kind);
        }
    }
    m.finish()
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

/// One collective call of one timeline, in call order — the unit a
/// [`CollectiveScanner`] scans out and [`assemble_collective_instances`]
/// zips into instances.
#[derive(Debug, Clone, Copy)]
pub struct CollCall {
    /// Rank of the calling timeline.
    pub rank: Rank,
    /// The call's `CollBegin` event.
    pub begin: EventId,
    /// The call's `CollEnd` event (`None` for a truncated trace).
    pub end: Option<EventId>,
    /// Which operation the caller recorded.
    pub op: CollOp,
    /// Root rank for rooted flavours.
    pub root: Option<Rank>,
}

/// Per-event collective call scanner for one timeline: the streaming face
/// of [`match_collectives`]' scan pass. Feed every event of timeline `p` in
/// program order; [`finish`] yields the per-communicator call lists, ready
/// for [`group_calls_by_comm`].
///
/// [`finish`]: CollectiveScanner::finish
#[derive(Debug)]
pub struct CollectiveScanner {
    p: usize,
    rank: Rank,
    /// Per communicator, in first-call order: its calls, and the position
    /// of the one whose `CollEnd` is still to come.
    comms: Vec<(CommId, Vec<CollCall>, Option<usize>)>,
    /// Slot of the previous collective event. A run of calls on one
    /// communicator — nearly every trace — resolves here without hashing;
    /// `slot_of` is probed only on a switch, which keeps a hostile stream
    /// of distinct communicators O(1) per event.
    last: usize,
    slot_of: HashMap<CommId, usize>,
}

impl CollectiveScanner {
    /// Scanner for timeline `p` whose location rank is `rank`.
    pub fn new(p: usize, rank: Rank) -> Self {
        Self { p, rank, comms: Vec::new(), last: 0, slot_of: HashMap::new() }
    }

    /// Feed event `i` of the timeline. Errors on a `CollEnd` with no open
    /// `CollBegin` on the same communicator.
    pub fn feed(&mut self, i: usize, kind: &EventKind) -> Result<(), String> {
        let (EventKind::CollBegin { comm, .. } | EventKind::CollEnd { comm, .. }) = *kind else {
            return Ok(());
        };
        if self.comms.get(self.last).is_none_or(|slot| slot.0 != comm) {
            self.last = *self.slot_of.entry(comm).or_insert(self.comms.len());
            if self.last == self.comms.len() {
                self.comms.push((comm, Vec::new(), None));
            }
        }
        let (_, calls, open) = &mut self.comms[self.last];
        let id = EventId::new(self.p, i);
        if let EventKind::CollBegin { op, root, .. } = *kind {
            *open = Some(calls.len());
            calls.push(CollCall { rank: self.rank, begin: id, end: None, op, root });
        } else {
            // Taking the slot closes the call: a second end is an error,
            // not a rewrite of the first.
            let p = self.p;
            let call = open.take().ok_or_else(|| format!("CollEnd without CollBegin at proc {p}"))?;
            calls[call].end = Some(id);
        }
        Ok(())
    }

    /// The per-communicator call lists, in first-call order.
    pub fn finish(self) -> Vec<(CommId, Vec<CollCall>)> {
        self.comms.into_iter().map(|(comm, calls, _)| (comm, calls)).collect()
    }
}

/// Scan timeline `p` for collective calls, grouped per communicator in
/// call order. Errors on a `CollEnd` with no open `CollBegin` on the same
/// communicator.
fn collect_collective_calls(
    trace: &Trace,
    p: usize,
) -> Result<Vec<(CommId, Vec<CollCall>)>, String> {
    let pt = &trace.procs[p];
    let mut scanner = CollectiveScanner::new(p, pt.location.rank);
    for (i, e) in pt.events.iter().enumerate() {
        scanner.feed(i, &e.kind)?;
    }
    Ok(scanner.finish())
}

/// Regroup every timeline's scan result (`per_timeline[p]` is timeline
/// `p`'s) per communicator, in communicator order, into the `lists`
/// [`assemble_collective_instances`] takes.
pub fn group_calls_by_comm(
    per_timeline: Vec<Vec<(CommId, Vec<CollCall>)>>,
) -> BTreeMap<CommId, Vec<Vec<CollCall>>> {
    let n = per_timeline.len();
    let mut by_comm = BTreeMap::new();
    for (p, calls) in per_timeline.into_iter().enumerate() {
        for (comm, list) in calls {
            by_comm.entry(comm).or_insert_with(|| vec![Vec::new(); n])[p] = list;
        }
    }
    by_comm
}

/// Zip the per-timeline call lists of one communicator into instances:
/// the k-th call of every participating timeline belongs to instance k.
/// `lists[p]` is timeline `p`'s call list (empty for non-participants).
pub fn assemble_collective_instances(
    comm: CommId,
    lists: &[Vec<CollCall>],
) -> Result<Vec<CollectiveInstance>, String> {
    let participating: Vec<usize> = (0..lists.len()).filter(|&p| !lists[p].is_empty()).collect();
    let n_calls = participating
        .iter()
        .map(|&p| lists[p].len())
        .max()
        .unwrap_or(0);
    let mut out = Vec::with_capacity(n_calls);
    for k in 0..n_calls {
        let mut members = Vec::new();
        let mut op: Option<CollOp> = None;
        let mut root: Option<Rank> = None;
        for &p in &participating {
            let Some(call) = lists[p].get(k) else {
                return Err(format!("rank at proc {p} missing collective #{k} on {comm}"));
            };
            match op {
                None => {
                    op = Some(call.op);
                    root = call.root;
                }
                Some(o) if o != call.op => {
                    return Err(format!(
                        "collective #{k} on {comm}: op mismatch {o:?} vs {:?}",
                        call.op
                    ));
                }
                _ => {}
            }
            let end = call.end.ok_or_else(|| {
                format!("collective #{k} on {comm}: missing CollEnd at proc {p}")
            })?;
            members.push(CollMember {
                rank: call.rank,
                begin: call.begin,
                end,
            });
        }
        out.push(CollectiveInstance {
            op: op.expect("non-empty instance"),
            comm,
            root,
            members,
        });
    }
    Ok(out)
}

/// Reconstruct collective instances: within one communicator, the k-th
/// collective call of every rank belongs to instance k (MPI requires all
/// ranks of a communicator to issue collectives in the same order).
///
/// Returns instances in per-communicator call order. Instances whose `op`
/// differs across ranks indicate a malformed trace and are reported via
/// `Err` with the instance index.
pub fn match_collectives(trace: &Trace) -> Result<Vec<CollectiveInstance>, String> {
    let per_timeline = (0..trace.n_procs())
        .map(|p| collect_collective_calls(trace, p))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for (comm, lists) in group_calls_by_comm(per_timeline) {
        out.extend(assemble_collective_instances(comm, &lists)?);
    }
    Ok(out)
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
