use super::*;
use crate::column::TraceColumns;
use crate::event::{CollOp, EventKind, EventRecord};
use crate::ids::{CommId, Rank, RegionId, Tag};
use crate::trace::{ProcessTrace, Trace};
use bytes::{BufMut, BytesMut};
use simclock::Time;

pub(super) fn sample_trace() -> Trace {
    let mut t = Trace::for_ranks(2);
    t.procs[0].push(Time::from_ns(100), EventKind::Enter { region: RegionId(1) });
    t.procs[0].push(
        Time::from_ns(200),
        EventKind::Send { to: Rank(1), tag: Tag(3), bytes: 1024 },
    );
    t.procs[0].push(
        Time::from_ns(300),
        EventKind::CollBegin {
            op: CollOp::Allreduce,
            comm: CommId::WORLD,
            root: None,
            bytes: 8,
        },
    );
    t.procs[0].push(
        Time::from_ns(400),
        EventKind::CollEnd {
            op: CollOp::Allreduce,
            comm: CommId::WORLD,
            root: None,
            bytes: 8,
        },
    );
    t.procs[0].push(Time::from_ns(500), EventKind::Exit { region: RegionId(1) });
    t.procs[1].push(
        Time::from_ns(250),
        EventKind::Recv { from: Rank(0), tag: Tag(3), bytes: 1024 },
    );
    t.procs[1].push(
        Time::from_ns(260),
        EventKind::CollBegin {
            op: CollOp::Bcast,
            comm: CommId(1),
            root: Some(Rank(0)),
            bytes: 64,
        },
    );
    t.procs[1].push(
        Time::from_ns(270),
        EventKind::CollEnd {
            op: CollOp::Bcast,
            comm: CommId(1),
            root: Some(Rank(0)),
            bytes: 64,
        },
    );
    t
}

/// The one reader over `chunks`: index the frames, decode every block.
fn decode(chunks: &[&[u8]]) -> Result<(Trace, TraceColumns), CodecError> {
    decode_indexed(&index_columnar_chunks(chunks)?, &ChunkStore::new(chunks))
}

/// `back` is `t`, and `cols` its gathered timestamp columns.
fn assert_decoded(t: &Trace, (back, cols): &(Trace, TraceColumns), what: &str) {
    assert!(traces_equal(t, back), "{what}");
    assert_eq!(cols, &TraceColumns::gather(t), "{what}");
}

fn traces_equal(a: &Trace, b: &Trace) -> bool {
    a.procs.len() == b.procs.len()
        && a.procs.iter().zip(&b.procs).all(|(x, y)| {
            x.location == y.location && x.events == y.events
        })
}

#[test]
fn columnar_rejects_bad_magic() {
    let mut buf = BytesMut::new();
    buf.put_u32(0xdeadbeef);
    assert!(matches!(decode(&[&buf.freeze()]), Err(CodecError::BadField(_))));
}

#[test]
fn stream_estimate_tolerates_truncation_and_garbage() {
    let t = sample_trace();
    let b = to_binary_columnar_v3_blocked(&t, 2);
    // Truncated stream: a lower bound, flagged incomplete.
    let est = estimate_columnar_stream(std::iter::once(&b[..b.len() / 2]));
    assert!(!est.complete);
    assert!(est.events <= t.n_events() as u64);
    // Garbage: no panic, nothing counted past the bad magic.
    let est = estimate_columnar_stream(std::iter::once(&[0xde, 0xad, 0xbe, 0xef][..]));
    assert!(!est.complete);
    assert_eq!(est.events, 0);
}

/// Timelines of several blocks each: every block's records and timestamps
/// land at its own place in the timeline and the slab.
#[test]
fn round_trip_various_block_sizes() {
    let t = sample_trace();
    for block in [1, 2, 3, 8192] {
        let b = to_binary_columnar_v3_blocked(&t, block);
        assert_decoded(&t, &decode(&[&b]).unwrap(), &format!("block size {block}"));
        assert!(traces_equal(&t, &from_binary_columnar(b).unwrap()), "block size {block}");
    }
}

#[test]
fn preserves_empty_timelines_and_negative_times() {
    let mut t = Trace::for_ranks(3);
    t.procs[1].push(Time::from_ns(-5000), EventKind::Enter { region: RegionId(0) });
    let back = from_binary_columnar(to_binary_columnar_v3(&t)).unwrap();
    assert!(traces_equal(&t, &back));
}

/// Reads that cross chunk boundaries at every phase assemble the same
/// segments a single buffer holds.
#[test]
fn decodes_identically_at_any_chunk_size() {
    let t = sample_trace();
    let b = to_binary_columnar_v3_blocked(&t, 2);
    for chunk_size in [1, 3, 7, 16, 64, b.len()] {
        let chunks: Vec<&[u8]> = b.chunks(chunk_size).collect();
        assert_decoded(&t, &decode(&chunks).unwrap(), &format!("chunk size {chunk_size}"));
    }
}

#[test]
fn detects_truncation_at_every_boundary() {
    let t = sample_trace();
    let b = to_binary_columnar_v3_blocked(&t, 2);
    for cut in 0..b.len() {
        let outcome = decode(&[&b[..cut]]).map(drop);
        assert_eq!(outcome, Err(CodecError::Truncated), "cut at {cut}/{} not detected", b.len());
    }
}

#[test]
fn rejects_inconsistent_payload_length() {
    // Records are fixed-stride: payload_len must be exactly 25·n.
    let mut buf = BytesMut::new();
    buf.put_u32(0x4454_4333);
    buf.put_u32(0); // rank
    buf.put_u32(0); // thread
    buf.put_u32(1); // n_events
    buf.put_u32(24); // should be 25
    assert!(matches!(decode(&[&buf.freeze()]), Err(CodecError::BadField(_))));
}

#[test]
fn rejects_corrupt_rank_and_oversized_headers() {
    let encoded = to_binary_columnar_v3(&sample_trace());
    let mut corrupt = encoded.to_vec();
    corrupt[4] ^= 0xF0; // rank field of the first frame header
    assert!(matches!(decode(&[&corrupt]), Err(CodecError::BadField(_))));

    let mut buf = BytesMut::new();
    buf.put_u32(0x4454_4333);
    buf.put_u32(0);
    buf.put_u32(0);
    buf.put_u32(1 << 31); // n_events far beyond MAX_BLOCK_EVENTS
    buf.put_u32(64);
    assert!(matches!(decode(&[&buf.freeze()]), Err(CodecError::BadField(_))));
}

#[test]
fn stream_estimate_prices_a_stream_from_its_headers() {
    let t = sample_trace();
    let b = to_binary_columnar_v3_blocked(&t, 2);
    for chunk_size in [1, 3, 7, 64, b.len()] {
        let est = estimate_columnar_stream(b.chunks(chunk_size));
        assert_eq!(est.events, t.n_events() as u64, "chunks of {chunk_size}");
        assert_eq!(est.blocks, 5, "blocks of 2 over timelines of 5 and 3 events");
        assert!(est.complete, "chunks of {chunk_size}");
        assert_eq!(est.bytes, b.len() as u64);
        assert_eq!(est.error, None);
    }
}

/// What `chunks` is to each of the three readers: the decoder behind the
/// index, the indexer, the admission estimator.
fn verdicts(chunks: &[&[u8]]) -> [Result<(), CodecError>; 3] {
    let estimated = estimate_columnar_stream(chunks.iter().copied()).error.map_or(Ok(()), Err);
    [decode(chunks).map(drop), index_columnar_chunks(chunks).map(drop), estimated]
}

#[test]
fn every_reader_gives_one_verdict_on_bytes_after_the_trailer() {
    let v3 = to_binary_columnar_v3(&sample_trace());
    type Verdict = Result<(), CodecError>;
    let after = || Err(CodecError::BadField("data after end-of-stream trailer".into()));
    // A second stream glued on, its magic alone, garbage, a single byte:
    // all are trailing data.
    let cases: [(&[u8], Verdict); 6] = [
        (&[], Ok(())),
        (&v3, after()),
        (&v3[..4], after()),
        (&v3[..3], after()),
        (&[0xA5; 17], after()),
        (&[0], after()),
    ];
    for (tail, want) in cases {
        let glued = [&v3[..], tail].concat();
        for chunk_size in [1, 2, 5, 64, glued.len()] {
            let chunks: Vec<&[u8]> = glued.chunks(chunk_size).collect();
            for (reader, got) in ["decoder", "indexer", "estimator"].iter().zip(verdicts(&chunks)) {
                assert_eq!(got, want, "{reader}, tail of {}, chunks of {chunk_size}", tail.len());
            }
        }
        let est = estimate_columnar_stream(std::iter::once(&glued[..]));
        assert!(est.complete, "the trailer was seen");
        assert_eq!(est.trailing_bytes, tail.len() as u64);
    }
}

/// A stream with one frame dropped and its trailer intact is caught by the
/// trailer's counters, by every reader, however it is chunked.
#[test]
fn a_dropped_frame_is_caught_by_the_trailer_counters() {
    let b = to_binary_columnar_v3_blocked(&sample_trace(), 2);
    let idx = index_columnar_chunks(&[&b[..]]).unwrap();
    // The last frame, which starts where the one before it ends: dropping
    // it moves no later frame's pad.
    let before = &idx.blocks[idx.blocks.len() - 2];
    let frame_at = (before.payload_off + u64::from(before.payload_len)) as usize;
    let dropped = [&b[..frame_at], &b[b.len() - 16..]].concat();
    let want = Err(CodecError::BadField("end-of-stream counter mismatch".into()));
    for chunk_size in [1, 7, dropped.len()] {
        let chunks: Vec<&[u8]> = dropped.chunks(chunk_size).collect();
        for (reader, got) in ["decoder", "indexer", "estimator"].iter().zip(verdicts(&chunks)) {
            assert_eq!(got, want, "{reader}, chunks of {chunk_size}");
        }
    }
}

#[test]
fn stream_estimate_reports_trailing_bytes() {
    let t = sample_trace();
    let bytes = to_binary_columnar_v3_blocked(&t, 2);
    // Clean stream: no trailing bytes, at any chunking.
    for chunk_size in [1, 3, 7, bytes.len()] {
        let est = estimate_columnar_stream(bytes.chunks(chunk_size));
        assert!(est.complete);
        assert_eq!(est.trailing_bytes, 0, "chunks of {chunk_size}");
    }
    // Trailing garbage after a valid trailer: still `complete`
    // (the trailer WAS seen), but the tail is reported so
    // admission can refuse to trust the header-announced totals —
    // the decoder proper will reject this stream.
    for garbage_len in [1usize, 3, 4, 17] {
        let mut dirty = bytes.to_vec();
        dirty.extend(std::iter::repeat_n(0xA5u8, garbage_len));
        for chunk_size in [1, 5, dirty.len()] {
            let est = estimate_columnar_stream(dirty.chunks(chunk_size));
            assert!(est.complete);
            assert_eq!(est.bytes, dirty.len() as u64);
            assert_eq!(
                est.trailing_bytes, garbage_len as u64,
                "garbage {garbage_len}, chunks of {chunk_size}"
            );
        }
    }
    // A second stream glued on: the whole of it is
    // trailing — admission must not price this as the first
    // stream's totals alone.
    let mut glued = bytes.to_vec();
    glued.extend_from_slice(&bytes);
    let est = estimate_columnar_stream(std::iter::once(&glued[..]));
    assert!(est.complete);
    assert_eq!(est.trailing_bytes, bytes.len() as u64);
    // Truncated stream: no trailer, so no trailing bytes.
    let est = estimate_columnar_stream(std::iter::once(&bytes[..bytes.len() - 1]));
    assert!(!est.complete);
    assert_eq!(est.trailing_bytes, 0);
}

#[test]
fn chunk_store_reads_across_boundaries() {
    let data: Vec<u8> = (0..=255u8).collect();
    let pieces: Vec<&[u8]> = vec![&data[..7], &data[7..7], &data[7..100], &data[100..]];
    let store = ChunkStore::new(&pieces);
    assert_eq!(store.len(), 256);
    let mut scratch = Vec::new();
    for off in [0usize, 3, 6, 7, 50, 99, 100, 255] {
        for len in [0usize, 1, 2, 8, 100] {
            if off + len > 256 {
                continue;
            }
            let got = store.read(off as u64, len, &mut scratch).to_vec();
            assert_eq!(got, &data[off..off + len], "read {off}+{len}");
        }
    }
}

/// Blocks read one at a time through the index, the way the incremental
/// pipeline reads them, rebuild the trace.
#[test]
fn block_by_block_reads_rebuild_the_trace() {
    let t = sample_trace();
    let bytes = to_binary_columnar_v3_blocked(&t, 3);
    for chunk_size in [1usize, 7, 16, bytes.len()] {
        let pieces: Vec<&[u8]> = bytes.chunks(chunk_size).collect();
        let idx = index_columnar_chunks(&pieces).unwrap();
        assert_eq!(idx.total_bytes, bytes.len() as u64);
        assert_eq!(idx.n_events(), t.n_events() as u64);
        assert_eq!(idx.locations.len(), t.n_procs());
        let store = ChunkStore::new(&pieces);
        let mut scratch = Vec::new();
        let timelines = idx.locations.iter().map(|&loc| ProcessTrace::new(loc));
        let mut back = Trace { procs: timelines.collect() };
        for b in &idx.blocks {
            let mut times = vec![0; b.n_events as usize];
            let seg =
                store.read(b.times_off, b.n_events as usize * 8, &mut scratch);
            decode_block_times(seg, &mut times);
            let mut kinds = Vec::new();
            let payload =
                store.read(b.payload_off, b.payload_len as usize, &mut scratch);
            decode_block_kinds(payload, b.n_events as usize, &mut kinds)
                .unwrap();
            let events =
                times.iter().zip(kinds).map(|(&ps, k)| EventRecord::new(Time::from_ps(ps), k));
            back.procs[b.timeline as usize].events.extend(events);
        }
        assert!(traces_equal(&t, &back), "chunks of {chunk_size}");
    }
}

#[test]
fn index_is_strict_about_malformed_streams() {
    let t = sample_trace();
    let bytes = to_binary_columnar_v3_blocked(&t, 2);
    // Every truncation is typed.
    for cut in 0..bytes.len() {
        let pieces: Vec<&[u8]> = vec![&bytes[..cut]];
        assert!(
            matches!(
                index_columnar_chunks(&pieces),
                Err(CodecError::Truncated) | Err(CodecError::BadField(_))
            ),
            "cut at {cut} accepted"
        );
    }
    // Data after the trailer is rejected (the decoder's rule).
    let mut dirty = bytes.to_vec();
    dirty.push(0);
    let pieces: Vec<&[u8]> = vec![&dirty];
    assert!(matches!(index_columnar_chunks(&pieces), Err(CodecError::BadField(_))));
    // Bad magic.
    let pieces: Vec<&[u8]> = vec![&[0xde, 0xad, 0xbe, 0xef]];
    assert!(matches!(index_columnar_chunks(&pieces), Err(CodecError::BadField(_))));
    // Corrupted trailer counter.
    let mut corrupt = bytes.to_vec();
    let at = corrupt.len() - 8; // events-low32 field of the trailer
    corrupt[at] ^= 1;
    let pieces: Vec<&[u8]> = vec![&corrupt];
    assert!(matches!(index_columnar_chunks(&pieces), Err(CodecError::BadField(_))));
}

#[test]
fn frame_writer_reemits_bit_identically() {
    let bytes = to_binary_columnar_v3_blocked(&sample_trace(), 3);
    let pieces: Vec<&[u8]> = bytes.chunks(13).collect();
    let idx = index_columnar_chunks(&pieces).unwrap();
    let store = ChunkStore::new(&pieces);
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    let mut writer = FrameWriter::new(&mut out);
    for b in &idx.blocks {
        let loc = idx.locations[b.timeline as usize];
        let mut times = vec![0; b.n_events as usize];
        let seg = store.read(b.times_off, b.n_events as usize * 8, &mut scratch);
        decode_block_times(seg, &mut times);
        let payload = store
            .read(b.payload_off, b.payload_len as usize, &mut scratch)
            .to_vec();
        writer.frame(&mut out, loc, &times, &payload);
    }
    writer.finish(&mut out);
    assert_eq!(&out[..], &bytes[..], "re-emission diverged");
}

/// Splitting the stream into exactly two pieces at *every* byte boundary —
/// including every split inside an alignment pad or a header and every
/// split landing exactly on an 8-byte timestamp-segment boundary — must
/// decode identically to the one-buffer decode.
#[test]
fn two_piece_split_at_every_boundary_decodes_identically() {
    // Block size 1 and an odd trace shape maximize pad-phase variety:
    // consecutive frames land on different (mod 8) offsets.
    let t = sample_trace();
    for bytes in [to_binary_columnar_v3_blocked(&t, 1), to_binary_columnar_v3_blocked(&t, 3)] {
        for cut in 0..=bytes.len() {
            let pieces = decode(&[&bytes[..cut], &bytes[cut..]]).unwrap();
            assert_decoded(&t, &pieces, &format!("split at {cut}"));
        }
        // Chunks of exactly 8 bytes: every timestamp element boundary
        // in a segment is also a chunk boundary.
        let chunks: Vec<&[u8]> = bytes.chunks(8).collect();
        assert_decoded(&t, &decode(&chunks).unwrap(), "8-byte chunking");
    }
}

#[test]
fn negative_timestamps_survive() {
    // Workers behind the master legitimately produce negative local
    // times after alignment.
    let mut t = Trace::for_ranks(1);
    t.procs[0].push(Time::from_ns(-5000), EventKind::Enter { region: RegionId(0) });
    let round = from_binary_columnar(to_binary_columnar_v3(&t)).unwrap();
    assert_eq!(round.procs[0].events[0].time, Time::from_ns(-5000));
}

/// Three timelines, the middle one empty, timestamps negative and at the
/// `i64` edge, field values at their `u32`/`u64` edges.
fn sparse_trace() -> Trace {
    let mut t = Trace::for_ranks(3);
    t.procs[0].push(Time::from_ns(-5000), EventKind::Enter { region: RegionId(7) });
    t.procs[0].push(
        Time::from_ps(-1),
        EventKind::Send { to: Rank(2), tag: Tag(9), bytes: u64::MAX },
    );
    t.procs[0].push(Time::from_ps(i64::MIN + 1), EventKind::Fork { region: RegionId(u32::MAX) });
    for (i, op) in [CollOp::Scan, CollOp::Gather, CollOp::Alltoall].into_iter().enumerate() {
        let (comm, root, bytes) = (CommId(i as u32), (i == 1).then_some(Rank(2)), 1 << (20 * i));
        let (begin, end) = (Time::from_ns(-40 + i as i64), Time::from_ns(i as i64 * 1000));
        t.procs[2].push(begin, EventKind::CollBegin { op, comm, root, bytes });
        t.procs[2].push(end, EventKind::CollEnd { op, comm, root, bytes });
    }
    t.procs[2].push(Time::from_ns(-3), EventKind::Recv { from: Rank(0), tag: Tag(9), bytes: 0 });
    t.procs[2].push(Time::from_ns(9), EventKind::BarrierExit { region: RegionId(1) });
    t
}

/// Wire bytes are a contract with stored streams and with the server's
/// peers: length and FNV-1a of the encoder's output, recorded before the
/// encoders became clients of one frame writer.
#[test]
fn encoder_output_is_byte_stable() {
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    // (trace, block size, v3 length, v3 hash)
    let golden = [
        ("sample", 1, 465, 0x851ee8ae3e9a4074u64),
        ("sample", 4, 347, 0x531b76389bae3fa1),
        ("sample", 2048, 323, 0xb668bb498eb5e880),
        ("sparse", 1, 649, 0xcc65deaea386b2f2),
        ("sparse", 4, 460, 0x52be1d014b6cda60),
        ("sparse", 2048, 440, 0x7b3924bf46043e33),
    ];
    for (name, block, v3_len, v3_hash) in golden {
        let t = if name == "sample" { sample_trace() } else { sparse_trace() };
        let v3 = to_binary_columnar_v3_blocked(&t, block);
        assert_eq!((v3.len(), fnv1a(&v3)), (v3_len, v3_hash), "{name}, v3, blocks of {block}");
        assert!(traces_equal(&t, &from_binary_columnar(v3).unwrap()), "{name} round trip");
    }
}

/// The timestamp decoder loads its words wherever a segment sits in memory.
/// A stream fed in one piece from each of the 8 byte offsets of a buffer
/// puts every segment on each alignment once, and every one must decode
/// alike.
#[test]
fn decodes_identically_at_every_byte_offset_of_its_buffer() {
    let t = sparse_trace();
    let bytes = to_binary_columnar_v3_blocked(&t, 2);
    let mut buf = vec![0u8; bytes.len() + 16];
    let aligned = buf.as_ptr().align_offset(8);
    for shift in 0..8 {
        let at = aligned + shift;
        buf[at..at + bytes.len()].copy_from_slice(&bytes);
        let decoded = decode(&[&buf[at..at + bytes.len()]]).unwrap();
        assert_decoded(&t, &decoded, &format!("stream at buffer offset {shift} (mod 8)"));
    }
}
