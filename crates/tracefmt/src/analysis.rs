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

use crate::census::{bases, event_at, MessageTable, PlanBuildError};
use crate::event::{CollOp, EventKind};
use crate::ids::{CommId, EventId, Rank, RegionId, Tag};
use crate::io::{walk_records, ChunkStore, CodecError, Record, StreamIndex};
use crate::trace::Trace;
use crate::violation::{MinLatency, UniformLatency};
use simclock::Dur;
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

/// "Unmatched" in a receive's row, "still open" for a call's end.
const NONE: u32 = u32::MAX;

/// Compact id of a peer rank no timeline carries: it never finds a partner.
const NOBODY: u32 = u32::MAX >> 1;

/// One send or receive as [`Capture`] keeps it: 12 bytes, in feed order.
#[derive(Debug, Clone, Copy)]
struct MsgRec {
    /// A send's gid; a receive's row (its ordinal among receives).
    id: u32,
    /// Grouping key, side bit lowest (set on a receive): with counted
    /// buckets `(from · ranks + to) · 2 + side`, else `peer · 2 + side`; a
    /// peer no timeline carries is `NOBODY · 2 + side`.
    key: u32,
    tag: u32,
}

impl MsgRec {
    #[inline]
    fn is_recv(&self) -> bool {
        self.key & 1 == 1
    }

    /// What the zip reads of it, if a timeline carries its peer.
    #[inline]
    fn item(&self) -> Option<Item> {
        (self.key >> 1 != NOBODY).then_some(Item { id: self.id, tag: self.tag })
    }
}

/// A grouped record, as the zip reads it.
#[derive(Debug, Clone, Copy, Default)]
struct Item {
    id: u32,
    tag: u32,
}

/// Rank pair `from → to`'s grouped records: `sends` sends from `at` on,
/// then its receives up to `end`.
#[derive(Debug, Clone, Copy)]
struct Pair {
    from: u32,
    to: u32,
    at: usize,
    sends: usize,
    end: usize,
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

/// A column that grows a fixed-size chunk at a time instead of doubling:
/// no element is ever moved, and at most one chunk is allocated ahead of
/// what it holds. The call records are not sized up front (the number of
/// collective calls is not known before the scan), and a doubling column
/// would hold its old and its new buffer at once while it moves.
#[derive(Debug)]
struct Chunked<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

/// Elements per [`Chunked`] chunk: 64 KiB of call records.
const CHUNK: usize = 2048;

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new(), len: 0 }
    }
}

impl<T> Chunked<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[self.len / CHUNK].push(value);
        self.len += 1;
    }
}

impl<T> std::ops::Index<usize> for Chunked<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T> std::ops::IndexMut<usize> for Chunked<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
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
/// event once, in `(timeline, index)` order; [`finish_table`] writes the
/// matched messages straight into a [`MessageTable`], [`finish`] lists
/// them as a [`Matching`]. Batch ([`Capture::of`]) and streamed callers
/// feed the same scan, so their results are equal field for field, errors
/// included. Sends and receives are grouped per rank pair by counting
/// sorts over compact rank ids and zip per-tag FIFO; DESIGN §9.1 has the
/// record layout and the bounds.
///
/// [`feed`]: Capture::feed
/// [`finish`]: Capture::finish
/// [`finish_table`]: Capture::finish_table
#[derive(Debug)]
pub struct Capture {
    /// The timelines' ranks, sorted and deduplicated: compact id → rank.
    ranks: Vec<Rank>,
    /// `ranks` is `0..ranks.len()`: a rank is its own id.
    identity: bool,
    /// Compact rank id of each timeline.
    own: Vec<u32>,
    /// The [`bases`] of the shape [`Capture::new`] was given.
    base: Vec<u32>,
    /// Why a message event fed had no gid in that shape (it is not kept).
    shape_err: Option<PlanBuildError>,
    /// Records per `(from, to, side)` bucket; `None` past the bound.
    counts: Option<Vec<u32>>,
    /// Reserved for every event: capacity never written costs no page.
    msgs: Vec<MsgRec>,
    /// Each receive's gid, by row: what becomes the table's receive column.
    recv: Vec<u32>,
    /// Send sizes as runs `(first send's gid, size)`: a send of its
    /// predecessor's size adds nothing. Only [`Capture::finish`] reads them.
    sizes: Vec<(u32, u64)>,
    calls: Chunked<CallRec>,
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
    /// An empty capture for timelines of the given ranks and event counts,
    /// in timeline order: the counts give each event its gid.
    pub fn new(ranks: impl IntoIterator<Item = Rank>, timeline_lens: &[usize]) -> Self {
        let timeline_ranks: Vec<Rank> = ranks.into_iter().collect();
        assert_eq!(timeline_ranks.len(), timeline_lens.len(), "one rank and one length per timeline");
        let mut ranks = timeline_ranks.clone();
        ranks.sort_unstable();
        ranks.dedup();
        let u = ranks.len();
        assert!(u < NOBODY as usize, "more distinct ranks than compact ids");
        let (base, shape_err) = match bases(timeline_lens) {
            Ok(base) => (base, None),
            Err(e) => (vec![0; timeline_lens.len() + 1], Some(e)), // no event gets a gid
        };
        let n_events = *base.last().expect("one base per timeline, plus the end") as usize;
        let counted = 2 * u * u <= n_events && n_events < NOBODY as usize;
        let mut capture = Capture {
            identity: ranks.last().is_none_or(|r| r.idx() + 1 == u),
            ranks,
            own: Vec::new(),
            base,
            shape_err,
            counts: counted.then(|| zeroed(2 * u * u)),
            msgs: Vec::with_capacity(n_events),
            recv: Vec::new(),
            sizes: Vec::new(),
            calls: Chunked::default(),
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
        let lens: Vec<usize> = trace.procs.iter().map(|pt| pt.events.len()).collect();
        let mut capture = Capture::new(ranks, &lens);
        for (p, pt) in trace.procs.iter().enumerate() {
            pt.events.iter().enumerate().for_each(|(i, e)| capture.feed(p, i, &e.kind));
        }
        capture
    }

    /// Capture every event of an indexed `DTC3` stream, walking each
    /// block's records once: the streamed twin of [`Capture::of`], equal to
    /// the capture of the decoded trace field for field, errors included.
    /// Sends and receives go to the message path as their fields.
    pub fn of_stream(index: &StreamIndex, store: &ChunkStore) -> Result<Self, CodecError> {
        let ranks = index.locations.iter().map(|l| l.rank);
        let lens: Vec<usize> = index.proc_lens.iter().map(|&l| l as usize).collect();
        let mut capture = Capture::new(ranks, &lens);
        let mut scratch = Vec::new();
        for (p, blocks) in index.proc_blocks.iter().enumerate() {
            for &block in blocks {
                let bm = &index.blocks[block as usize];
                let first = bm.first_idx as usize;
                let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
                let fed = walk_records(payload, bm.n_events as usize, |j, record| match record {
                    Record::Message { recv, peer, tag, bytes } => {
                        capture.message(p, first + j, recv, peer, tag, bytes)
                    }
                    Record::Other(kind) => capture.feed(p, first + j, &kind),
                });
                if let Err(e) = fed {
                    // The decoder reads blocks in stream order: answer its first error.
                    let mut walks = index.blocks.iter().map(|bm| {
                        let payload = store.read(bm.payload_off, bm.payload_len as usize, &mut scratch);
                        walk_records(payload, bm.n_events as usize, |_, _| ())
                    });
                    return Err(walks.find_map(Result::err).unwrap_or(e));
                }
            }
        }
        Ok(capture)
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
    #[inline(always)]
    pub fn feed(&mut self, p: usize, i: usize, kind: &EventKind) {
        match *kind {
            EventKind::Send { to, tag, bytes } => self.message(p, i, false, to, tag, bytes),
            EventKind::Recv { from, tag, bytes } => self.message(p, i, true, from, tag, bytes),
            EventKind::CollBegin { op, comm, root, .. } | EventKind::CollEnd { op, comm, root, .. }
                if self.coll_err.is_none() =>
            {
                let begin = matches!(kind, EventKind::CollBegin { .. });
                if let Err(e) = self.feed_call(p, i, begin, op, comm, root) {
                    self.coll_err = Some(e);
                }
            }
            _ => {}
        }
    }

    /// Feed send (or receive, `recv`) `i` of timeline `p` by its fields:
    /// the one message path, which [`Capture::feed`] takes too.
    #[inline(always)]
    fn message(&mut self, p: usize, i: usize, recv: bool, peer: Rank, tag: Tag, bytes: u64) {
        let Some(gid) = self.gid(p, i) else { return };
        let id = if recv {
            self.recv.push(gid);
            self.recv.len() as u32 - 1
        } else {
            if self.sizes.last().is_none_or(|&(_, size)| size != bytes) {
                self.sizes.push((gid, bytes));
            }
            gid
        };
        let (peer, side) = (self.id_of(peer), u32::from(recv));
        let key = match &mut self.counts {
            Some(counts) if peer != NOBODY => {
                let (own, u) = (self.own[p], self.ranks.len() as u32);
                let (from, to) = if recv { (peer, own) } else { (own, peer) };
                let key = (from * u + to) << 1 | side;
                counts[key as usize] += 1;
                key
            }
            _ => peer << 1 | side,
        };
        self.msgs.push(MsgRec { id, key, tag: tag.0 });
    }

    /// The gid of event `i` of timeline `p`, or the shape error kept.
    #[inline]
    fn gid(&mut self, p: usize, i: usize) -> Option<u32> {
        let (start, end) = (self.base[p], self.base[p + 1]);
        if i < (end - start) as usize {
            return Some(start + i as u32);
        }
        self.shape_err.get_or_insert(PlanBuildError::EventOutOfRange(EventId::new(p, i)));
        None
    }

    /// Open (`begin`) or close a collective call on its communicator. Errors
    /// on a `CollEnd` with no open call there, or of another op than its
    /// begin.
    fn feed_call(
        &mut self, p: usize, i: usize, begin: bool, op: CollOp, comm: CommId, root: Option<Rank>,
    ) -> Result<(), String> {
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
        if begin {
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
    /// Panics when a message event fed has no gid in the shape given to
    /// [`Capture::new`].
    pub fn finish(mut self) -> (Matching, Result<Vec<CollectiveInstance>, String>) {
        assert!(self.shape_err.is_none(), "capture fed outside its shape: {:?}", self.shape_err);
        let sent: Vec<u32> = self.msgs.iter().filter(|rec| !rec.is_recv()).map(|rec| rec.id).collect();
        let (send, _, matched) = self.zip(&UniformLatency(Dur::ZERO));
        (self.matching(&sent, &send, matched), self.instances())
    }

    /// [`finish`](Capture::finish) for a job that only synchronizes: the
    /// zip writes each matched receive's row of the [`MessageTable`] (its
    /// send's gid and the pair's `l_min`, read once per rank pair) in the
    /// order of [`Matching::messages`], and rows of unmatched receives are
    /// compacted away. The records' memory goes back before the instances
    /// take their own.
    pub fn finish_table(
        mut self,
        lmin: &dyn MinLatency,
    ) -> (Result<MessageTable, PlanBuildError>, Result<Vec<CollectiveInstance>, String>) {
        let table = match self.shape_err.take() {
            Some(e) => Err(e),
            None => {
                let (mut send, mut lat, matched) = self.zip(lmin);
                let mut recv = std::mem::take(&mut self.recv);
                if matched < send.len() {
                    let mut kept = send.iter().map(|&s| s != NONE);
                    recv.retain(|_| kept.next() == Some(true));
                    let mut kept = send.iter().map(|&s| s != NONE);
                    lat.retain(|_| kept.next() == Some(true));
                    send.retain(|&s| s != NONE);
                }
                Ok(MessageTable::from_columns(*self.base.last().expect("an end"), send, recv, lat))
            }
        };
        (table, self.instances())
    }

    /// The collective instances, or the first reason the calls do not form
    /// them; the calls' memory goes back once they are assembled.
    fn instances(&mut self) -> Result<Vec<CollectiveInstance>, String> {
        let instances = if let Some(e) = self.coll_err.take() { Err(e) } else { self.assemble() };
        self.calls = Chunked::default();
        instances
    }

    /// Group the records by rank pair and side and zip each pair: every
    /// matched receive's row gets its send's gid and the pair's `l_min`.
    /// Returns the send column (`NONE` in the row of a receive left
    /// unmatched), the `l_min` column and the match count. The records move
    /// out of the capture.
    fn zip(&mut self, lmin: &dyn MinLatency) -> (Vec<u32>, Vec<i64>, usize) {
        let msgs = std::mem::take(&mut self.msgs);
        let (mut slab, pairs) = match self.counts.take() {
            Some(counts) => {
                let known = msgs.iter().filter_map(|rec| Some((rec.key as usize, rec.item()?)));
                let ((slab, starts), u) = (counting_sort(known, counts), self.ranks.len());
                // Bucket 2·pair holds the pair's sends, 2·pair + 1 its receives.
                let pairs = (0..u * u).filter_map(|q| {
                    let [at, r, end] = [0, 1, 2].map(|j| starts[2 * q + j] as usize);
                    let (from, to) = ((q / u) as u32, (q % u) as u32);
                    (at < r && r < end).then_some(Pair { from, to, at, sends: r - at, end })
                });
                (slab, pairs.collect())
            }
            None => self.group_wide(&msgs),
        };
        drop(msgs);

        let (ranks, rows, mut matched) = (&self.ranks, self.recv.len(), 0);
        let (mut send, mut lat) = (vec![NONE; rows], vec![0; rows]);
        for pair in pairs {
            let (from, to) = (ranks[pair.from as usize], ranks[pair.to as usize]);
            let l_min = lmin.l_min(from, to).as_ps();
            let zip = |gid, row: usize| (send[row], lat[row]) = (gid, l_min);
            matched += zip_pair(&mut slab[pair.at..pair.end], pair.sends, zip);
        }
        (send, lat, matched)
    }

    /// The grouping past the bucket bound (hundreds of timelines with a few
    /// messages each): two stable counting passes over `ranks`-sized
    /// tables, by `(to, side)` and then by `from`, and the runs of one
    /// `(from, to)` they leave, sends first.
    fn group_wide(&self, msgs: &[MsgRec]) -> (Vec<Item>, Vec<Pair>) {
        let u = self.ranks.len();
        let rec = |k: u32| &msgs[k as usize];
        let pair = |k: u32| self.pair_of(rec(k));
        let known = (0..msgs.len() as u32).filter(|&k| rec(k).item().is_some());
        let by_to = |k: u32| pair(k).1 as usize * 2 + usize::from(rec(k).is_recv());
        let counts = tally(known.clone().map(by_to), 2 * u);
        let (first, _) = counting_sort(known.map(|k| (by_to(k), k)), counts);
        let by_from = |k: u32| pair(k).0 as usize;
        let counts = tally(first.iter().map(|&k| by_from(k)), u);
        let (order, _) = counting_sort(first.iter().map(|&k| (by_from(k), k)), counts);
        let mut end = 0;
        let pairs = order.chunk_by(|&a, &b| pair(a) == pair(b)).map(|run| {
            let ((from, to), at) = (pair(run[0]), end);
            end += run.len();
            Pair { from, to, at, sends: run.iter().take_while(|&&k| !rec(k).is_recv()).count(), end }
        });
        (order.iter().filter_map(|&k| rec(k).item()).collect(), pairs.collect())
    }

    /// `(from, to)` compact ids of a record whose peer a timeline carries.
    fn pair_of(&self, rec: &MsgRec) -> (u32, u32) {
        let gid = if rec.is_recv() { self.recv[rec.id as usize] } else { rec.id };
        let (own, peer) = (self.own[event_at(&self.base, gid).p()], rec.key >> 1);
        if rec.is_recv() { (peer, own) } else { (own, peer) }
    }

    /// The zip's send column as lists, given every send's gid in feed
    /// order: `messages` and `unmatched_recvs` in receive (row) order and
    /// `unmatched_sends` in send order — what draining per-`(from, to,
    /// tag)` FIFO queues receive by receive produces — with no sort.
    fn matching(&self, sent: &[u32], send: &[u32], matched: usize) -> Matching {
        let mut out = Matching {
            messages: Vec::with_capacity(matched),
            unmatched_sends: Vec::with_capacity(sent.len() - matched),
            unmatched_recvs: Vec::with_capacity(send.len() - matched),
        };
        let (event, rank) = (|gid| event_at(&self.base, gid), |id: EventId| self.ranks[self.own[id.p()] as usize]);
        let mut consumed = vec![false; *self.base.last().expect("an end") as usize];
        // Rows are in gid order: a receive's timeline is found walking forward.
        let mut p = 0;
        for (&s, &r) in send.iter().zip(&self.recv) {
            while self.base[p + 1] <= r {
                p += 1;
            }
            let recv = EventId::new(p, (r - self.base[p]) as usize);
            if s == NONE {
                out.unmatched_recvs.push(recv);
                continue;
            }
            consumed[s as usize] = true;
            let send = event(s);
            let bytes = self.sizes[self.sizes.partition_point(|&(first, _)| first <= s) - 1].1;
            out.messages.push(MessageMatch { send, recv, from: rank(send), to: rank(recv), bytes });
        }
        out.unmatched_sends.extend(sent.iter().filter(|&&s| !consumed[s as usize]).map(|&s| event(s)));
        out
    }
}

impl Capture {
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
        let counts = tally(calls.clone().map(instance), n);
        let (order, starts) = counting_sort(calls.map(|c| (instance(c), c)), counts);
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

/// `width` zero counts, with one slot spare for the end [`counting_sort`]
/// appends.
fn zeroed(width: usize) -> Vec<u32> {
    let mut counts = Vec::with_capacity(width + 1);
    counts.resize(width, 0);
    counts
}

/// Items per key (`< width`): the first half of a counting sort.
fn tally(keys: impl Iterator<Item = usize>, width: usize) -> Vec<u32> {
    let mut counts = zeroed(width);
    for key in keys {
        counts[key] += 1;
    }
    counts
}

/// The second half of a stable counting sort: the values of `items`, each
/// a `(key, value)`, ordered by key, feed order kept among equal keys,
/// given each key's item count. Returns them and where each key's run
/// starts, plus the item count.
fn counting_sort<T, I>(items: I, counts: Vec<u32>) -> (Vec<T>, Vec<u32>)
where
    T: Copy + Default,
    I: DoubleEndedIterator<Item = (usize, T)>,
{
    let mut at = counts;
    let mut end = 0;
    for slot in &mut at {
        end += *slot;
        *slot = end;
    }
    at.push(end);
    let mut out = vec![T::default(); end as usize];
    // Back to front into the last free slot of each run: stable.
    items.rev().for_each(|(key, value)| {
        let slot = &mut at[key];
        *slot -= 1;
        out[*slot as usize] = value;
    });
    (out, at)
}

/// Per-tag FIFO inside one rank pair's `group`: its first `sends` items
/// are the sends, the rest the receives, each in feed order. Calls
/// `matched(send gid, receive row)` for each match and returns how many.
#[inline]
fn zip_pair(group: &mut [Item], sends: usize, mut matched: impl FnMut(u32, usize)) -> usize {
    let (s, r) = group.split_at_mut(sends);
    // Tag sequences that agree pair up position by position as they stand
    // (the j-th receive of a tag sits where its j-th send sits); otherwise
    // bring each tag's sends and receives together first, feed order kept.
    if s.iter().zip(r.iter()).any(|(s, r)| s.tag != r.tag) {
        s.sort_by_key(|s| s.tag);
        r.sort_by_key(|r| r.tag);
    }
    let (mut a, mut b, mut n) = (0, 0, 0);
    while a < s.len() && b < r.len() {
        match s[a].tag.cmp(&r[b].tag) {
            Ordering::Less => a += 1,
            Ordering::Greater => b += 1,
            Ordering::Equal => {
                matched(s[a].id, r[b].id as usize);
                (a, b, n) = (a + 1, b + 1, n + 1);
            }
        }
    }
    n
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
        return Err(format!("unbalanced fork/join: {} forks, {} joins", forks.len(), joins.len()));
    }

    // Per thread, split its event stream into region instances by counting
    // barrier enters/exits per instance: thread-local events between the
    // k-th region markers belong to instance k. We use explicit per-thread
    // instance cursors driven by BarrierExit (every instance ends with the
    // implicit barrier in the POMP model).
    let mut regions: Vec<ParallelRegion> = (forks.iter().zip(&joins))
        .map(|(&(region, fork), &join)| ParallelRegion { region, fork, join, threads: Vec::new() })
        .collect();

    for (p, pt) in trace.procs.iter().enumerate() {
        let mut inst = 0usize;
        let mut current: Option<RegionThread> = None;
        for (i, e) in pt.events.iter().enumerate() {
            // Fork/Join live outside the per-thread span.
            if matches!(e.kind, EventKind::Fork { .. } | EventKind::Join { .. }) {
                continue;
            }
            let (first, last) = (i as u32, i as u32);
            let cur = current.get_or_insert(RegionThread { proc: p, first, last, barrier_enter: None, barrier_exit: None });
            cur.last = i as u32;
            match e.kind {
                EventKind::BarrierEnter { .. } => cur.barrier_enter = Some(EventId::new(p, i)),
                EventKind::BarrierExit { .. } => {
                    cur.barrier_exit = Some(EventId::new(p, i));
                    // The implicit barrier exit closes the instance.
                    let done = current.take().expect("just inserted");
                    let reg = regions.get_mut(inst).ok_or_else(|| {
                        format!("thread {p} has more region instances than the master forked")
                    })?;
                    reg.threads.push(done);
                    inst += 1;
                }
                _ => {}
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
