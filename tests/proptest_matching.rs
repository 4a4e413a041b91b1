//! Differential test of message matching: the sort-based production
//! matcher against the FIFO-queue oracle in `tests/common`, on traces no
//! tracer would write — timelines sharing a rank, tags reordered inside a
//! rank pair, dangling sends and receives, ranks no timeline carries,
//! empty timelines, sparse rank ids, hundreds of timelines with a few
//! messages each — and the two capture paths (batch, streamed) against
//! each other, errors included, also on streams whose message records
//! carry any code byte and any args. Everything is compared in exact order:
//! `messages`, `unmatched_sends`, `unmatched_recvs`; and the message table
//! a synchronizing job gets, batch and streamed, against the one built
//! from that matching.

mod common;

use common::fifo_match_messages;
use drift_lab::clocksync::TraceAnalysis;
use drift_lab::prelude::*;
use drift_lab::tracefmt::io::{
    from_binary_columnar, index_columnar_chunks, to_binary_columnar_v3_blocked, ChunkStore, CodecError,
    FrameWriter,
};
use drift_lab::tracefmt::{
    match_messages, Capture, CollOp, CommId, EventId, Location, Matching, MessageTable, PlanBuildError,
    ProcessTrace, ThreadId,
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

/// [`TraceAnalysis::capture`] of the `DTC3` stream in `chunks`, fed block
/// by block.
fn capture_stream(chunks: &[&[u8]]) -> Result<TraceAnalysis, String> {
    let index = index_columnar_chunks(chunks).expect("intact stream");
    let capture = Capture::of_stream(&index, &ChunkStore::new(chunks)).expect("intact stream");
    let (matching, instances) = capture.finish();
    Ok(TraceAnalysis { matching, instances: instances? })
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

/// `l_min` per ordered rank pair: one written for `(to, from)`, or into
/// another message's row, differs.
fn pair_latency(from: Rank, to: Rank) -> Dur {
    Dur::from_ps(i64::from(from.0) * 1_000_003 + i64::from(to.0) * 7 + 1)
}

/// The table `finish_table` writes row by row, from the batch capture and
/// from the streamed one, is the table built from `finish`'s matching.
fn assert_table_is_the_matchings(trace: &Trace) {
    let lens: Vec<usize> = trace.procs.iter().map(|pt| pt.events.len()).collect();
    let (matching, _) = Capture::of(trace).finish();
    let want = MessageTable::build(&lens, &matching.messages, &pair_latency).expect("every id is in shape");
    let bytes = to_binary_columnar_v3_blocked(trace, 7);
    let chunks: Vec<&[u8]> = bytes.chunks(61).collect();
    let index = index_columnar_chunks(&chunks).expect("intact stream");
    let streamed = Capture::of_stream(&index, &ChunkStore::new(&chunks)).expect("intact stream");
    for (capture, ctx) in [(Capture::of(trace), "batch"), (streamed, "streamed")] {
        let got = capture.finish_table(&pair_latency).0.expect("every id is in shape");
        assert_eq!(got.sends(), want.sends(), "{ctx}: sends");
        assert_eq!(got.recvs(), want.recvs(), "{ctx}: receives");
        assert_eq!(got.lats(), want.lats(), "{ctx}: l_min");
        assert_eq!(got.n_events(), want.n_events(), "{ctx}: shape");
    }
}

/// One record as the wire writes it: its code byte and args `(a, b, c, d)`.
type Raw = (u8, u32, u32, u64, u64);

/// A message record whose code byte is any of 0..=255 — a send or a
/// receive 19 times in 20, so that about half the streams decode — with
/// arbitrary args: the peer and the tag are small enough to match four
/// times in five, the rest any value.
fn arb_raw_record() -> impl Strategy<Value = Raw> {
    let small_or_any = |small: u32| (0u32..5, 0..small, 0..u32::MAX).prop_map(|(k, s, any)| if k < 4 { s } else { any });
    let code = (0u32..40, 0u32..256).prop_map(|(k, any)| if k < 38 { 2 + (k % 2) as u8 } else { any as u8 });
    (code, small_or_any(4), small_or_any(3), 0..u64::MAX, 0..u64::MAX)
}

/// Blocks of such records on up to four timelines, in stream order, the
/// timelines' blocks interleaved: `(rank, records)`.
fn arb_raw_stream() -> impl Strategy<Value = Vec<(u32, Vec<Raw>)>> {
    prop::collection::vec((0u32..4, prop::collection::vec(arb_raw_record(), 0..12)), 1..10)
}

/// The `DTC3` stream of `blocks`, written frame by frame.
fn encode_raw(blocks: &[(u32, Vec<Raw>)]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut writer = FrameWriter::new(&mut out);
    for (rank, records) in blocks {
        let mut payload: Vec<u8> = records.iter().map(|r| r.0).collect();
        for &(_, a, b, c, d) in records {
            payload.extend([&a.to_le_bytes()[..], &b.to_le_bytes(), &c.to_le_bytes(), &d.to_le_bytes()].concat());
        }
        let times: Vec<i64> = (0..records.len() as i64).collect();
        writer.frame(&mut out, Location::rank(*rank), &times, &payload);
    }
    writer.finish(&mut out);
    out
}

/// What a synchronizing job gets of a capture: the table's columns and
/// shape, and the instances, or the errors.
type Finished = (Result<(Vec<u32>, Vec<u32>, Vec<i64>, usize), PlanBuildError>, Result<String, String>);

fn finished(capture: Capture) -> Finished {
    let (table, instances) = capture.finish_table(&pair_latency);
    let table = table.map(|t| (t.sends().to_vec(), t.recvs().to_vec(), t.lats().to_vec(), t.n_events()));
    (table, instances.map(|i| format!("{i:?}")))
}

/// The streamed capture of `bytes`, read in `chunk`-byte chunks, finishes
/// as the capture of the decoded trace does, or fails with its error.
fn assert_streamed_is_decoded(bytes: &[u8], chunk: usize) -> Result<Finished, CodecError> {
    let chunks: Vec<&[u8]> = bytes.chunks(chunk).collect();
    let index = index_columnar_chunks(&chunks).expect("frames are well-formed");
    let streamed = Capture::of_stream(&index, &ChunkStore::new(&chunks)).map(finished);
    let decoded = from_binary_columnar(bytes.to_vec().into()).map(|trace| finished(Capture::of(&trace)));
    assert_eq!(streamed, decoded, "chunks of {chunk}");
    streamed
}

/// A bad code in a later block of a timeline whose earlier blocks fed the
/// capture fails the streamed capture as it fails the decoder; with two
/// bad blocks, the error is the one first in stream order, as the decoder
/// reads, not in timeline order.
#[test]
fn a_bad_code_in_a_later_block_fails_alike_batch_and_streamed() {
    let (send, recv) = ((2, 1, 0, 8, 0), (3, 0, 0, 8, 0));
    let bad = |code| (code, 0, 0, 0, 0);
    let later = vec![(0, vec![send, send]), (1, vec![recv, recv]), (0, vec![send, bad(200)])];
    let interleaved = vec![(0, vec![send]), (1, vec![recv, bad(17)]), (0, vec![bad(99)])];
    for (blocks, code) in [(later, 200), (interleaved, 17)] {
        let want = CodecError::UnknownKind(format!("code {code}"));
        for chunk in [1, 7, 4096] {
            assert_eq!(assert_streamed_is_decoded(&encode_raw(&blocks), chunk), Err(want.clone()));
        }
    }
    let good = vec![(0, vec![send, send]), (1, vec![recv]), (1, vec![recv])];
    let (table, _) = assert_streamed_is_decoded(&encode_raw(&good), 61).expect("every code decodes");
    assert_eq!(table.expect("in shape").0, [0, 1], "both receives matched");
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
        assert_eq!(capture_stream(&[&bytes[..]]).unwrap_err(), want, "streamed");
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
fn a_message_event_outside_the_declared_shape_is_a_typed_error() {
    // Timeline 0 is declared one event long; its second event has no gid,
    // so the table is refused rather than written past the shape.
    let (send, recv) = (EventKind::Send { to: Rank(0), tag: Tag(1), bytes: 8 }, EventKind::Recv { from: Rank(0), tag: Tag(1), bytes: 8 });
    let mut capture = Capture::new([Rank(0)], &[1]);
    capture.feed(0, 0, &send);
    capture.feed(0, 1, &recv);
    let (table, _) = capture.finish_table(&pair_latency);
    assert_eq!(table.unwrap_err(), PlanBuildError::EventOutOfRange(EventId::new(0, 1)));
    let mut capture = Capture::new([Rank(0)], &[usize::MAX]);
    capture.feed(0, 0, &send);
    assert_eq!(capture.finish_table(&pair_latency).0.unwrap_err(), PlanBuildError::TraceTooLarge);
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
            let streamed = capture_stream(&chunks).expect("well-formed");
            assert_same_analysis(&streamed, &batch, &format!("streamed, {block}-event blocks"));
        }
    }

    /// Message records with any code byte and any args, in blocks of
    /// interleaved timelines: the streamed capture, which hands sends and
    /// receives to the message path as their fields, finishes as the
    /// capture of the decoded trace does — or fails with the same error.
    #[test]
    fn streamed_capture_equals_the_decoded_ones_on_any_record(blocks in arb_raw_stream(), chunk in 1usize..300) {
        let _ = assert_streamed_is_decoded(&encode_raw(&blocks), chunk);
    }

    /// The capture writes the message table row by row — send gid, receive
    /// gid, `l_min` of the ordered pair — as freezing its matching would.
    #[test]
    fn finish_table_writes_the_matchings_rows(trace in arb_message_trace()) {
        assert_table_is_the_matchings(&trace);
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
            let streamed = capture_stream(&chunks).expect("well-formed");
            assert_same_analysis(&streamed, &batch, &format!("streamed, {block}-event blocks"));
        }
    }

    /// The table rows, through the fallback grouping.
    #[test]
    fn wide_traces_write_the_matchings_rows(trace in arb_wide_trace()) {
        assert_table_is_the_matchings(&trace);
    }
}
