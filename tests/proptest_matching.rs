//! Differential test of message matching: the sort-based production
//! matcher against the FIFO-queue oracle in `tests/common`, on traces no
//! tracer would write — timelines sharing a rank, tags reordered inside a
//! rank pair, dangling sends and receives, ranks no timeline carries,
//! empty timelines, sparse rank ids — and the two capture paths (batch,
//! streamed) against each other. Everything is compared in exact order:
//! `messages`, `unmatched_sends`, `unmatched_recvs`.

mod common;

use common::fifo_match_messages;
use drift_lab::clocksync::TraceAnalysis;
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
