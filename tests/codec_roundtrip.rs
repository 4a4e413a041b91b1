//! Property-based round-trip guarantees for the trace codecs: arbitrary
//! traces — every event kind, negative timestamps, uneven timelines —
//! must survive the text format and the blocked columnar `DTC3` format
//! bit-identically, in any chaining order, and the incremental
//! [`StreamDecoder`] must agree with the one-shot decoder for every
//! chunking of the byte stream.
//!
//! [`StreamDecoder`]: drift_lab::tracefmt::io::StreamDecoder

use drift_lab::tracefmt::io::{
    from_binary_columnar, from_text, index_columnar_chunks, to_binary_columnar_v3_blocked,
    to_text, CodecError, StreamDecoder, TraceBuilder,
};
use drift_lab::tracefmt::{CollOp, CommId, EventKind, Rank, RegionId, Tag, Trace, TraceColumns};
use drift_lab::simclock::Time;
use proptest::prelude::*;

const OPS: [CollOp; 9] = [
    CollOp::Barrier,
    CollOp::Bcast,
    CollOp::Scatter,
    CollOp::Reduce,
    CollOp::Gather,
    CollOp::Allreduce,
    CollOp::Allgather,
    CollOp::Alltoall,
    CollOp::Scan,
];

/// Build one event kind from a selector and an auxiliary number, covering
/// all eleven kinds (regions, p2p, collectives with and without roots,
/// POMP fork/join/barriers).
fn kind_from(k: u8, a: u32, procs: usize) -> EventKind {
    let region = RegionId(a);
    let peer = Rank(a % procs as u32);
    let root = if a.is_multiple_of(3) { Some(peer) } else { None };
    match k % 10 {
        0 => EventKind::Enter { region },
        1 => EventKind::Exit { region },
        2 => EventKind::Send { to: peer, tag: Tag(a), bytes: u64::from(a) * 3 },
        3 => EventKind::Recv { from: peer, tag: Tag(a), bytes: u64::from(a) },
        4 => EventKind::CollBegin {
            op: OPS[a as usize % OPS.len()],
            comm: CommId(a % 4),
            root,
            bytes: u64::from(a),
        },
        5 => EventKind::CollEnd {
            op: OPS[(a as usize + 1) % OPS.len()],
            comm: CommId(a % 4),
            root,
            bytes: u64::from(a) * 7,
        },
        6 => EventKind::Fork { region },
        7 => EventKind::Join { region },
        8 => EventKind::BarrierEnter { region },
        _ => EventKind::BarrierExit { region },
    }
}

/// An arbitrary trace: 1–5 processes, every process non-empty (the text
/// decoder keeps timelines in first-seen order and cannot represent empty
/// ones), timestamps free to be negative or non-monotone — codecs must not
/// care.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        1usize..6,
        prop::collection::vec((0u8..10, 0u32..40), 1..150),
        prop::collection::vec(-5_000_000i64..5_000_000, 1..150),
    )
        .prop_map(|(procs, kinds, deltas)| {
            let mut trace = Trace::for_ranks(procs);
            let mut now = vec![0i64; procs];
            // Seed every timeline with one event so no proc is empty.
            for p in 0..procs {
                now[p] += deltas[p % deltas.len()];
                trace.procs[p].push(
                    Time::from_ps(now[p]),
                    kind_from(p as u8, p as u32, procs),
                );
            }
            for (i, &(k, a)) in kinds.iter().enumerate() {
                let p = i % procs;
                now[p] += deltas[i % deltas.len()];
                trace.procs[p].push(Time::from_ps(now[p]), kind_from(k, a, procs));
            }
            trace
        })
}

/// A small arbitrary trace for the quadratic truncation sweep: every
/// prefix of the encoded stream gets decoded, so streams stay short.
fn arb_small_trace() -> impl Strategy<Value = Trace> {
    (
        1usize..4,
        prop::collection::vec((0u8..10, 0u32..40), 1..24),
        prop::collection::vec(-5_000_000i64..5_000_000, 1..24),
    )
        .prop_map(|(procs, kinds, deltas)| {
            let mut trace = Trace::for_ranks(procs);
            let mut now = vec![0i64; procs];
            for p in 0..procs {
                now[p] += deltas[p % deltas.len()];
                trace.procs[p].push(
                    Time::from_ps(now[p]),
                    kind_from(p as u8, p as u32, procs),
                );
            }
            for (i, &(k, a)) in kinds.iter().enumerate() {
                let p = i % procs;
                now[p] += deltas[i % deltas.len()];
                trace.procs[p].push(Time::from_ps(now[p]), kind_from(k, a, procs));
            }
            trace
        })
}

/// First difference between two traces, or `None` when identical.
fn first_difference(a: &Trace, b: &Trace) -> Option<String> {
    if a.n_procs() != b.n_procs() {
        return Some(format!("proc count {} vs {}", a.n_procs(), b.n_procs()));
    }
    for (p, (pa, pb)) in a.procs.iter().zip(&b.procs).enumerate() {
        if pa.location != pb.location {
            return Some(format!("proc {p} location {} vs {}", pa.location, pb.location));
        }
        if pa.events.len() != pb.events.len() {
            return Some(format!(
                "proc {p} length {} vs {}",
                pa.events.len(),
                pb.events.len()
            ));
        }
        for (i, (ea, eb)) in pa.events.iter().zip(&pb.events).enumerate() {
            if ea.time != eb.time {
                return Some(format!("proc {p} event {i} time {:?} vs {:?}", ea.time, eb.time));
            }
            if ea.kind != eb.kind {
                return Some(format!("proc {p} event {i} kind {:?} vs {:?}", ea.kind, eb.kind));
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_round_trip_is_lossless(trace in arb_trace()) {
        let text = to_text(&trace);
        let back = from_text(&text).expect("text decodes");
        prop_assert!(first_difference(&trace, &back).is_none(),
            "text round trip diverged: {:?}", first_difference(&trace, &back));
    }

    #[test]
    fn columnar_round_trip_is_lossless(trace in arb_trace(), block in 1usize..64) {
        let back = from_binary_columnar(to_binary_columnar_v3_blocked(&trace, block))
            .expect("columnar decodes");
        prop_assert!(first_difference(&trace, &back).is_none(),
            "columnar round trip diverged: {:?}", first_difference(&trace, &back));
    }

    #[test]
    fn chained_formats_are_lossless(trace in arb_trace(), block in 1usize..32) {
        // text -> columnar -> text -> columnar, re-decoding at every hop.
        let hop1 = from_text(&to_text(&trace)).expect("text decodes");
        let hop2 = from_binary_columnar(to_binary_columnar_v3_blocked(&hop1, block))
            .expect("columnar decodes");
        let hop3 = from_binary_columnar(to_binary_columnar_v3_blocked(
            &from_text(&to_text(&hop2)).expect("text decodes again"),
            block,
        ))
        .expect("columnar decodes again");
        prop_assert!(first_difference(&trace, &hop3).is_none(),
            "format chain diverged: {:?}", first_difference(&trace, &hop3));
    }

    #[test]
    fn streaming_decode_agrees_for_every_chunking(
        trace in arb_trace(),
        block in 1usize..48,
        chunk in 1usize..257,
    ) {
        let bytes = to_binary_columnar_v3_blocked(&trace, block);
        let mut dec = StreamDecoder::new();
        let mut builder = TraceBuilder::new();
        for piece in bytes.chunks(chunk) {
            dec.feed_into(piece, &mut builder).expect("stream decodes");
        }
        dec.finish().expect("stream complete");
        let (back, cols) = builder.finish_parts();
        prop_assert!(first_difference(&trace, &back).is_none(),
            "streamed decode diverged: {:?}", first_difference(&trace, &back));
        // The decoder's columns are exactly what a gather would produce.
        prop_assert!(cols == TraceColumns::gather(&back),
            "decoder columns differ from gathered columns");
    }
}

proptest! {
    // Every prefix of every stream is decoded once, so each case is
    // quadratic in the stream length — fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Truncating a stream at *any* byte boundary must yield a
    /// typed [`CodecError`] from the one-shot decoder — never a panic,
    /// never a silently shorter trace — and the streaming decoder must
    /// never claim completion on such a prefix.
    #[test]
    fn truncation_at_every_boundary_is_a_typed_error(trace in arb_small_trace()) {
        let bytes = to_binary_columnar_v3_blocked(&trace, 4);
        for cut in 0..bytes.len() {
            prop_assert!(from_binary_columnar(bytes.slice(0..cut)).is_err(),
                "truncated stream decoded successfully at cut={}", cut);

            let mut dec = StreamDecoder::new();
            let mut builder = TraceBuilder::new();
            let fed: Result<(), CodecError> = bytes[..cut]
                .chunks(11)
                .try_fold((), |(), piece| dec.feed_into(piece, &mut builder));
            if fed.is_ok() {
                prop_assert!(!dec.is_finished(),
                    "decoder claims completion at cut={}", cut);
                prop_assert!(dec.finish().is_err(),
                    "finish() accepted a truncated stream at cut={}", cut);
            }
        }
    }

    /// A chunk boundary that splits a DTC3 alignment pad, lands exactly on
    /// an 8-byte times-segment boundary, or falls anywhere inside a frame
    /// header must not change what the streaming decoder produces. The
    /// uniform-chunk-size property above reaches these offsets only by
    /// accident; here every such cut is exercised deliberately as a
    /// two-piece split and compared against the one-shot decode.
    #[test]
    fn v3_pad_and_alignment_splits_decode_identically(
        trace in arb_small_trace(),
        block in 1usize..6,
    ) {
        let bytes = to_binary_columnar_v3_blocked(&trace, block);
        let expected = from_binary_columnar(bytes.clone()).expect("one-shot decodes");
        let idx = index_columnar_chunks(&[&bytes[..]]).expect("well-formed stream indexes");

        // Every 8-byte segment boundary, the stream ends, and — per frame —
        // a window sweeping across the header and its alignment pad up to
        // the first times byte.
        let mut cuts: Vec<usize> = (0..=bytes.len()).step_by(8).collect();
        cuts.push(bytes.len());
        for b in &idx.blocks {
            let start = b.times_off as usize;
            for c in start.saturating_sub(24)..=start.min(bytes.len()) {
                cuts.push(c);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();

        for cut in cuts {
            let mut dec = StreamDecoder::new();
            let mut builder = TraceBuilder::new();
            for piece in [&bytes[..cut], &bytes[cut..]] {
                dec.feed_into(piece, &mut builder).expect("split stream decodes");
            }
            dec.finish().expect("split stream complete");
            let (back, _) = builder.finish_parts();
            prop_assert!(first_difference(&expected, &back).is_none(),
                "two-piece split at {} diverged: {:?}",
                cut, first_difference(&expected, &back));
        }
    }
}
