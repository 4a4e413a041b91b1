//! Differential test of message matching: the sort-based production
//! matcher against the FIFO-queue oracle in `tests/common`, on traces no
//! tracer would write — timelines sharing a rank, tags reordered inside a
//! rank pair, dangling sends and receives, ranks no timeline carries,
//! empty timelines, sparse rank ids, hundreds of timelines with a few
//! messages each — and the two capture paths (batch, streamed) against
//! each other, errors included. Everything is compared in exact order:
//! `messages`, `unmatched_sends`, `unmatched_recvs`.

mod common;

use common::fifo_match_messages;
use drift_lab::clocksync::{PipelineError, TraceAnalysis};
use drift_lab::prelude::*;
use drift_lab::tracefmt::io::to_binary_columnar_v3_blocked;
use drift_lab::tracefmt::{
    match_messages, CollOp, CommId, EventId, Location, Matching, ProcessTrace, ThreadId,
};
use proptest::prelude::*;

/// Rank ids timelines draw from (with repetition: timelines may share
/// one), and peers events may additionally name that no timeline carries.
const RANKS: [u32; 5] = [0, 1, 2, 900, 70_000];
const PEERS: [u32; 7] = [0, 1, 2, 900, 70_000, 3, 4_000_000];

/// One generator step: `(kind, timeline, peer, tag)`.
type Op = (u8, usize, usize, u32);

/// A trace of up to six timelines built from independent sends, receives,
/// send/receive pairs and world barriers, in op order per timeline.
fn arb_message_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec(0usize..RANKS.len(), 0..7),
        prop::collection::vec((0u8..8, 0usize..6, 0usize..PEERS.len(), 0u32..4), 0..160),
    )
        .prop_map(|(rank_of, ops): (Vec<usize>, Vec<Op>)| {
            let n = rank_of.len();
            // Distinct threads keep the locations unique where ranks repeat.
            let mut trace = Trace {
                procs: (0..n)
                    .map(|p| {
                        ProcessTrace::new(Location {
                            rank: Rank(RANKS[rank_of[p]]),
                            thread: ThreadId(p as u32),
                        })
                    })
                    .collect(),
            };
            if n == 0 {
                return trace;
            }
            let t = Time::from_us(1);
            for (kind, timeline, peer, tag) in ops {
                let (a, peer_rank, tag) = (timeline % n, Rank(PEERS[peer]), Tag(tag));
                let rank_a = trace.procs[a].location.rank;
                match kind {
                    0 | 1 => trace.procs[a].push(
                        t,
                        EventKind::Send { to: peer_rank, tag, bytes: u64::from(tag.0) + 1 },
                    ),
                    2 | 3 => {
                        trace.procs[a].push(t, EventKind::Recv { from: peer_rank, tag, bytes: 0 })
                    }
                    4..=6 => {
                        // A send with its receive on timeline `peer % n`
                        // (a self-message when that is `a`).
                        let b = peer % n;
                        let rank_b = trace.procs[b].location.rank;
                        trace.procs[a].push(t, EventKind::Send { to: rank_b, tag, bytes: 9 });
                        trace.procs[b].push(t, EventKind::Recv { from: rank_a, tag, bytes: 9 });
                    }
                    _ => {
                        let comm = CommId(tag.0 % 2);
                        let coll = (CollOp::Barrier, comm, None, 0);
                        for pt in &mut trace.procs {
                            let (op, comm, root, bytes) = coll;
                            pt.push(t, EventKind::CollBegin { op, comm, root, bytes });
                            pt.push(t, EventKind::CollEnd { op, comm, root, bytes });
                        }
                    }
                }
            }
            trace
        })
}

/// A trace of 64–600 timelines with a few messages each — fewer events
/// than the squared count of distinct ranks, so the capture groups by its
/// fallback passes rather than by `(from, to)` buckets. Ranks are each
/// timeline's own, shared by pairs of timelines, or sparse ids; sends to a
/// rank no timeline carries, stray receives and reused tags ride along.
fn arb_wide_trace() -> impl Strategy<Value = Trace> {
    (
        64usize..600,
        0u8..3,
        prop::collection::vec((0u8..5, 0usize..1 << 20, 0usize..1 << 20, 0u32..3), 0..900),
    )
        .prop_map(|(n, layout, mut ops): (usize, u8, Vec<Op>)| {
            let rank_of = |p: usize| match layout {
                0 => p as u32,
                1 => p as u32 / 2,
                _ => p as u32 * 1_000 + 7,
            };
            let mut trace = Trace {
                procs: (0..n)
                    .map(|p| {
                        let rank = Rank(rank_of(p));
                        ProcessTrace::new(Location { rank, thread: ThreadId(p as u32) })
                    })
                    .collect(),
            };
            ops.truncate(n * 3 / 2);
            let t = Time::from_us(1);
            for (kind, a, b, tag) in ops {
                let (a, b, tag) = (a % n, b % n, Tag(tag));
                let (rank_a, rank_b) = (trace.procs[a].location.rank, trace.procs[b].location.rank);
                match kind {
                    0..=2 => {
                        trace.procs[a].push(t, EventKind::Send { to: rank_b, tag, bytes: 5 });
                        trace.procs[b].push(t, EventKind::Recv { from: rank_a, tag, bytes: 5 });
                    }
                    3 => trace.procs[a].push(
                        t,
                        EventKind::Send { to: Rank(u32::MAX - tag.0), tag, bytes: 1 },
                    ),
                    _ => {
                        let from = if b % 4 == 0 { Rank(3_000_000) } else { rank_b };
                        trace.procs[a].push(t, EventKind::Recv { from, tag, bytes: 1 });
                    }
                }
            }
            trace
        })
}

fn assert_same_matching(got: &Matching, want: &Matching, ctx: &str) {
    assert_eq!(got.messages, want.messages, "{ctx}: messages");
    assert_eq!(got.unmatched_sends, want.unmatched_sends, "{ctx}: unmatched sends");
    assert_eq!(got.unmatched_recvs, want.unmatched_recvs, "{ctx}: unmatched receives");
}

fn assert_same_analysis(got: &TraceAnalysis, want: &TraceAnalysis, ctx: &str) {
    assert_same_matching(&got.matching, &want.matching, ctx);
    assert_eq!(
        format!("{:?}", got.instances),
        format!("{:?}", want.instances),
        "{ctx}: collective instances"
    );
}

#[test]
fn tags_reordered_inside_a_pair_match_per_tag_fifo() {
    let mut t = Trace::for_ranks(2);
    // Sends tagged 1, 2, 1, 3; receives posted 2, 1, 1, 4: the tag
    // sequences diverge at once, so the per-tag sort runs.
    for (tag, bytes) in [(1, 10), (2, 20), (1, 11), (3, 30)] {
        t.procs[0].push(Time::from_us(1), EventKind::Send { to: Rank(1), tag: Tag(tag), bytes });
    }
    for tag in [2, 1, 1, 4] {
        t.procs[1].push(Time::from_us(2), EventKind::Recv { from: Rank(0), tag: Tag(tag), bytes: 0 });
    }
    let m = match_messages(&t);
    let got: Vec<_> = m.messages.iter().map(|m| (m.send.idx, m.recv.idx, m.bytes)).collect();
    assert_eq!(got, [(1, 0, 20), (0, 1, 10), (2, 2, 11)]);
    assert_eq!(m.unmatched_sends, [EventId::new(0, 3)]);
    assert_eq!(m.unmatched_recvs, [EventId::new(1, 3)]);
}

#[test]
fn malformed_collectives_fail_alike_batch_and_streamed() {
    let (comm, bytes) = (CommId::WORLD, 0);
    let call = |op, root| {
        [EventKind::CollBegin { op, comm, root, bytes }, EventKind::CollEnd { op, comm, root, bytes }]
    };
    // Members naming two roots; a barrier closed as an allreduce.
    let mut roots = Trace::for_ranks(2);
    for (p, root) in [(0, 0), (1, 1)] {
        for kind in call(CollOp::Bcast, Some(Rank(root))) {
            roots.procs[p].push(Time::from_us(1), kind);
        }
    }
    let mut ops = Trace::for_ranks(1);
    let [begin, _] = call(CollOp::Barrier, None);
    let [_, end] = call(CollOp::Allreduce, None);
    ops.procs[0].push(Time::from_us(1), begin);
    ops.procs[0].push(Time::from_us(2), end);
    for (trace, want) in [
        (roots, "collective #0 on comm0: root mismatch Some(Rank(0)) vs Some(Rank(1))"),
        (ops, "collective #0 on comm0: op mismatch Barrier vs Allreduce"),
    ] {
        assert_eq!(TraceAnalysis::capture(&trace).unwrap_err(), want, "batch");
        let bytes = to_binary_columnar_v3_blocked(&trace, 1);
        match TraceAnalysis::capture_stream(&[&bytes[..]]) {
            Err(PipelineError::BadTrace(got)) => assert_eq!(got, want, "streamed"),
            other => panic!("streamed: {other:?}"),
        }
    }
}

#[test]
fn a_pair_leaves_its_latest_sends_unmatched() {
    // Sizes past 32 bits ride along.
    let mut t = Trace::for_ranks(2);
    for bytes in [u64::MAX, 1 << 40, 7] {
        t.procs[0].push(Time::from_us(1), EventKind::Send { to: Rank(1), tag: Tag(7), bytes });
    }
    for _ in 0..2 {
        t.procs[1].push(Time::from_us(2), EventKind::Recv { from: Rank(0), tag: Tag(7), bytes: 0 });
    }
    let m = match_messages(&t);
    let got: Vec<_> = m.messages.iter().map(|m| (m.send.idx, m.recv.idx, m.bytes)).collect();
    assert_eq!(got, [(0, 0, u64::MAX), (1, 1, 1 << 40)]);
    assert_eq!(m.unmatched_sends, [EventId::new(0, 2)]);
}

#[test]
fn peers_no_timeline_carries_stay_unmatched() {
    // Ranks 0 and 1 (dense ids), then 5 and 9 (sparse): a send to rank 7
    // and a receive from rank 2 name no timeline, so neither may pair with
    // the receive from, or the send to, the timeline's own rank.
    for ranks in [[0, 1], [5, 9]] {
        let mut t = Trace::for_ranks(2);
        (t.procs[0].location.rank, t.procs[1].location.rank) = (Rank(ranks[0]), Rank(ranks[1]));
        let own = Rank(ranks[0]);
        for kind in [
            EventKind::Send { to: Rank(7), tag: Tag(4), bytes: 1 },
            EventKind::Recv { from: own, tag: Tag(4), bytes: 1 },
            EventKind::Send { to: own, tag: Tag(6), bytes: 1 },
            EventKind::Recv { from: Rank(2), tag: Tag(6), bytes: 1 },
        ] {
            t.procs[0].push(Time::from_us(1), kind);
        }
        let m = match_messages(&t);
        assert!(m.messages.is_empty(), "ranks {ranks:?}: {:?}", m.messages);
        assert_eq!(m.unmatched_sends, [EventId::new(0, 0), EventId::new(0, 2)]);
        assert_eq!(m.unmatched_recvs, [EventId::new(0, 1), EventId::new(0, 3)]);
    }
}

#[test]
fn hostile_ranks_land_in_unmatched_without_value_sized_tables() {
    let mut t = Trace::for_ranks(2);
    // A destination at the top of the id space, a source no timeline
    // carries, a self-send nobody receives, and 10 000 distinct orphan
    // destinations: tables are sized by the record count, so this
    // allocates kilobytes, not `u32::MAX` (or 10 000²) slots.
    t.procs[0].push(Time::from_us(1), EventKind::Send { to: Rank(u32::MAX), tag: Tag(0), bytes: 1 });
    t.procs[1].push(Time::from_us(1), EventKind::Recv { from: Rank(77), tag: Tag(0), bytes: 1 });
    t.procs[1].push(Time::from_us(2), EventKind::Send { to: Rank(1), tag: Tag(5), bytes: 1 });
    for k in 0..10_000u32 {
        let to = Rank(1_000 + k * 400_000);
        t.procs[0].push(Time::from_us(3), EventKind::Send { to, tag: Tag(u32::MAX - k), bytes: 1 });
    }
    let m = match_messages(&t);
    assert!(m.messages.is_empty());
    assert_eq!(m.unmatched_recvs, [EventId::new(1, 0)]);
    assert_eq!(m.unmatched_sends.len(), 10_002);
    assert!(m.unmatched_sends.windows(2).all(|w| w[0] < w[1]), "event order");
    assert_eq!(m.unmatched_sends[10_001], EventId::new(1, 1));
}

#[test]
fn self_messages_match_like_any_other_pair() {
    let mut t = Trace::for_ranks(1);
    t.procs[0].push(Time::from_us(1), EventKind::Send { to: Rank(0), tag: Tag(1), bytes: 8 });
    t.procs[0].push(Time::from_us(2), EventKind::Recv { from: Rank(0), tag: Tag(1), bytes: 8 });
    let m = match_messages(&t);
    assert!(m.is_complete());
    assert_eq!((m.messages[0].send.idx, m.messages[0].recv.idx), (0, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The production matcher reproduces the FIFO-queue oracle exactly.
    #[test]
    fn sort_based_matching_equals_the_fifo_oracle(trace in arb_message_trace()) {
        assert_same_matching(&match_messages(&trace), &fifo_match_messages(&trace), "batch");
    }

    /// One matcher behind both capture paths: batch, and streamed at every
    /// block size.
    #[test]
    fn batch_and_streamed_capture_agree(trace in arb_message_trace()) {
        let batch = TraceAnalysis::capture(&trace).expect("barriers are well-formed");
        for block in [1usize, 7, 1024] {
            let bytes = to_binary_columnar_v3_blocked(&trace, block);
            let chunks: Vec<&[u8]> = bytes.chunks(61).collect();
            let streamed = TraceAnalysis::capture_stream(&chunks).expect("intact stream");
            assert_same_analysis(&streamed, &batch, &format!("streamed, {block}-event blocks"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wide traces group by the fallback passes — and still reproduce the
    /// oracle exactly, batch and streamed at every block size.
    #[test]
    fn wide_traces_match_the_oracle_through_the_fallback_grouping(trace in arb_wide_trace()) {
        let mut ranks: Vec<Rank> = trace.procs.iter().map(|pt| pt.location.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        prop_assert!(ranks.len().pow(2) > trace.n_events(), "past the bucket bound");
        let batch = TraceAnalysis::capture(&trace).expect("no collectives");
        assert_same_matching(&batch.matching, &fifo_match_messages(&trace), "batch");
        for block in [1usize, 7, 1024] {
            let bytes = to_binary_columnar_v3_blocked(&trace, block);
            let chunks: Vec<&[u8]> = bytes.chunks(61).collect();
            let streamed = TraceAnalysis::capture_stream(&chunks).expect("intact stream");
            assert_same_analysis(&streamed, &batch, &format!("streamed, {block}-event blocks"));
        }
    }
}
