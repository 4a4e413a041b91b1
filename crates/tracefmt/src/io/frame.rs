//! The block-framed stream grammar, written once (DESIGN.md §14):
//!
//! ```text
//! stream  = magic frame* trailer          nothing may follow the trailer
//! magic   = "DTC3"
//! frame   = header pad times payload
//! header  = rank thread n_events payload_len            4 × u32, big-endian
//! pad     = 0–7 zero bytes that put `times` on a stream offset ≡ 0 (mod 8);
//!           derived from the frame's offset, never stored
//! times   = n_events × i64, little-endian
//! payload = payload_len bytes of kind/args records       (see `segment`)
//! trailer = header with rank = thread = u32::MAX carrying the low 32 bits
//!           of the stream's event and frame counts
//! ```
//!
//! One walk over the headers reads the grammar: it steps a [`Walk`] —
//! [`Walk::peek`] parses and validates the unit at the walk's offset,
//! [`Walk::advance`] moves past it, [`Walk::end`] judges where the input
//! stopped — and skips every body. The strict indexer and the tolerant
//! admission estimator are its two folds (`index`); block bodies are read
//! only through an index, so no reader but the walk parses a header.
//! Writers drive a [`FrameWriter`].

use super::{segment, CodecError};
use crate::ids::{Location, Rank, ThreadId};

/// The stream magic ("DTC3").
const MAGIC_COLUMNAR: u32 = 0x4454_4333;

const MAGIC_BYTES: usize = 4;
/// Bytes of a frame header, and of the trailer.
pub(super) const HEADER_BYTES: usize = 16;

/// Default number of events per block frame. Large enough that the 16-byte
/// frame header is noise, small enough that a frame (tens of KiB) is
/// comfortably below a typical read-buffer chunk — few frames straddle a
/// chunk boundary, which is where a read through the index copies — and
/// the decoder's working set stays in cache.
pub const BLOCK_EVENTS: usize = 2048;

/// Hard ceiling on the per-block event count a reader will accept (and an
/// encoder will emit). A corrupted or hostile frame header claiming billions
/// of events is rejected as [`CodecError::BadField`] the moment it is
/// parsed, before anything is sized from it.
pub const MAX_BLOCK_EVENTS: usize = 1 << 20;

/// Ceiling on the rank and thread ids a decoder will accept in a frame
/// header. Location ids index dense per-rank structures downstream — the
/// frozen `l_min` table is quadratic in the largest rank id — so a single
/// flipped high byte in a header would otherwise surface as a huge
/// allocation (or a capacity-overflow panic) long after decode instead of
/// a typed error. Sixteen million timelines is corruption, not scale.
/// The ceiling also stays far below the `u32::MAX` end-of-stream sentinel.
pub const MAX_LOCATION_ID: u32 = (1 << 24) - 1;

/// Pad bytes between a frame header and its timestamp segment, chosen so
/// the segment starts at a stream offset ≡ 0 (mod 8). The header is 16
/// bytes, so this only depends on the frame's own start offset.
#[inline]
fn frame_pad(frame_start: u64) -> usize {
    ((8 - (frame_start + HEADER_BYTES as u64) % 8) % 8) as usize
}

/// Most bytes the grammar itself adds to a stream of `n_blocks` frames:
/// magic, a header and a full pad per frame, trailer.
pub(super) fn stream_bound(n_blocks: usize) -> usize {
    MAGIC_BYTES + n_blocks * (HEADER_BYTES + 7) + HEADER_BYTES
}

#[inline]
fn rd_u32(s: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(s[at..at + 4].try_into().expect("four bytes"))
}

/// Validate a parsed (non-trailer) frame header against the format's
/// sanity ceilings and the one payload length its event count has.
fn check_block_header(
    rank: u32,
    thread: u32,
    n_events: usize,
    payload_len: usize,
) -> Result<(), CodecError> {
    if rank > MAX_LOCATION_ID || thread > MAX_LOCATION_ID {
        return Err(CodecError::BadField(format!(
            "timeline id out of range: rank {rank}, thread {thread}"
        )));
    }
    if n_events > MAX_BLOCK_EVENTS {
        return Err(CodecError::BadField(format!("oversized block header: {n_events} events")));
    }
    if payload_len != segment::payload_len(n_events) {
        return Err(CodecError::BadField(format!(
            "block header inconsistent: {n_events} events in {payload_len} payload bytes"
        )));
    }
    Ok(())
}

/// The verdict on bytes that follow the trailer, for every reader — a
/// second stream glued on included.
fn after_trailer() -> CodecError {
    CodecError::BadField("data after end-of-stream trailer".into())
}

/// A block frame as its header announces it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Block {
    pub(super) location: Location,
    pub(super) n_events: usize,
    pub(super) payload_len: usize,
    /// Offset of the timestamp segment from the frame's first byte: the
    /// header plus this frame's pad.
    pub(super) times_at: usize,
}

impl Block {
    /// Offset of the payload from the frame's first byte.
    pub(super) fn payload_at(&self) -> usize {
        self.times_at + self.n_events * 8
    }
}

/// One unit of the grammar, as [`Walk::peek`] finds it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Unit {
    /// Too few bytes to tell what the unit is; its fixed part is this long.
    Short(usize),
    /// The stream magic.
    Magic,
    /// A block frame whose header passed every check.
    Block(Block),
    /// The end-of-stream trailer, counters verified.
    Trailer,
}

/// A reader's position in the grammar.
#[derive(Debug, Default)]
pub(super) struct Walk {
    /// The magic has been passed.
    opened: bool,
    /// Absolute stream offset of the next unit. Frame pads are a function
    /// of it, so it is carried across whatever pieces the input arrives in.
    pub(super) off: u64,
    /// Events and block frames passed so far (the trailer's counters).
    pub(super) events: u64,
    pub(super) blocks: u64,
    /// The trailer has been passed.
    pub(super) finished: bool,
}

impl Walk {
    /// Parse and validate the unit at the walk's offset from `head`, the
    /// bytes available there (however few or many).
    pub(super) fn peek(&self, head: &[u8]) -> Result<Unit, CodecError> {
        if !self.opened {
            if head.len() < MAGIC_BYTES {
                return Ok(Unit::Short(MAGIC_BYTES));
            }
            if rd_u32(head, 0) != MAGIC_COLUMNAR {
                return Err(CodecError::BadField("magic".into()));
            }
            return Ok(Unit::Magic);
        }
        if self.finished {
            // Any byte at all after the trailer is the verdict.
            return if head.is_empty() { Ok(Unit::Short(1)) } else { Err(after_trailer()) };
        }
        if head.len() < HEADER_BYTES {
            return Ok(Unit::Short(HEADER_BYTES));
        }
        let (rank, thread) = (rd_u32(head, 0), rd_u32(head, 4));
        let (n_events, payload_len) = (rd_u32(head, 8), rd_u32(head, 12));
        if rank == u32::MAX && thread == u32::MAX {
            if n_events != self.events as u32 || payload_len != self.blocks as u32 {
                return Err(CodecError::BadField("end-of-stream counter mismatch".into()));
            }
            return Ok(Unit::Trailer);
        }
        let (n_events, payload_len) = (n_events as usize, payload_len as usize);
        check_block_header(rank, thread, n_events, payload_len)?;
        Ok(Unit::Block(Block {
            location: Location { rank: Rank(rank), thread: ThreadId(thread) },
            n_events,
            payload_len,
            times_at: HEADER_BYTES + frame_pad(self.off),
        }))
    }

    /// Move past `unit` (nothing, for `Short`); returns its length.
    pub(super) fn advance(&mut self, unit: &Unit) -> usize {
        let len = match unit {
            Unit::Short(_) => return 0,
            Unit::Magic => {
                self.opened = true;
                MAGIC_BYTES
            }
            Unit::Block(block) => {
                self.events += block.n_events as u64;
                self.blocks += 1;
                block.payload_at() + block.payload_len
            }
            Unit::Trailer => {
                self.finished = true;
                HEADER_BYTES
            }
        };
        self.off += len as u64;
        len
    }

    /// The input ended with `left` bytes at the walk's offset that
    /// [`peek`](Self::peek) found too few to parse.
    pub(super) fn end(&self, left: &[u8]) -> Result<(), CodecError> {
        if !self.finished {
            // A stream cut inside a unit, between frames or before the
            // trailer: without the trailer every proper prefix is short.
            Err(CodecError::Truncated)
        } else if left.is_empty() {
            Ok(())
        } else {
            Err(after_trailer())
        }
    }
}

/// The write side of the grammar: magic, per-frame header and pad, trailer
/// with its counters — appended to whatever buffer the caller is filling,
/// one buffer for a whole stream (the block encoders) or one per unit (the
/// windowed engine, which hands each on as a chunk). Pads follow the
/// running output offset either way, so a stream re-emitted with the same
/// block structure and payload bytes is bit-identical to the original.
#[derive(Debug)]
pub struct FrameWriter {
    /// Output stream offset of the next frame (fixes the pads).
    pos: u64,
    events: u64,
    blocks: u64,
}

fn put_header(out: &mut Vec<u8>, fields: [u32; 4]) {
    for field in fields {
        out.extend_from_slice(&field.to_be_bytes());
    }
}

impl FrameWriter {
    /// Open a stream: appends the magic.
    pub fn new(out: &mut Vec<u8>) -> FrameWriter {
        out.extend_from_slice(&MAGIC_COLUMNAR.to_be_bytes());
        FrameWriter { pos: MAGIC_BYTES as u64, events: 0, blocks: 0 }
    }

    /// Open a frame: appends its header and pad, with room reserved for
    /// the `n_events * 8 + payload_len` segment bytes the caller appends
    /// next.
    pub(super) fn header(
        &mut self,
        out: &mut Vec<u8>,
        location: Location,
        n_events: usize,
        payload_len: usize,
    ) {
        let pad = frame_pad(self.pos);
        let frame_len = HEADER_BYTES + pad + n_events * 8 + payload_len;
        out.reserve(frame_len);
        put_header(out, [location.rank.0, location.thread.0, n_events as u32, payload_len as u32]);
        out.resize(out.len() + pad, 0);
        self.pos += frame_len as u64;
        self.events += n_events as u64;
        self.blocks += 1;
    }

    /// Append one block frame whose `payload` is already the wire payload
    /// for exactly `times_ps.len()` events — re-emitting a decoded block
    /// passes its payload bytes through verbatim.
    pub fn frame(
        &mut self,
        out: &mut Vec<u8>,
        location: Location,
        times_ps: &[i64],
        payload: &[u8],
    ) {
        debug_assert_eq!(segment::payload_len(times_ps.len()), payload.len());
        self.header(out, location, times_ps.len(), payload.len());
        segment::put_times(out, times_ps.iter().copied());
        out.extend_from_slice(payload);
    }

    /// Close the stream: appends the trailer. Without it a stream cut
    /// exactly between frames would read as a valid shorter trace; with it
    /// every proper prefix is detectably truncated.
    pub fn finish(self, out: &mut Vec<u8>) {
        put_header(out, [u32::MAX, u32::MAX, self.events as u32, self.blocks as u32]);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample_trace;
    use super::super::{from_binary_columnar, to_binary_columnar_v3_blocked};
    use super::*;

    #[test]
    fn timestamp_segments_are_8_aligned() {
        let t = sample_trace();
        for block in [1, 2, 5] {
            let b = to_binary_columnar_v3_blocked(&t, block);
            // Walk the frames by hand and check every timestamp segment's
            // stream offset.
            let mut off = 4usize;
            loop {
                let n = rd_u32(&b, off + 8) as usize;
                if rd_u32(&b, off) == u32::MAX && rd_u32(&b, off + 4) == u32::MAX {
                    assert_eq!(off + 16, b.len(), "trailer ends the stream");
                    break;
                }
                let payload = rd_u32(&b, off + 12) as usize;
                let pad = frame_pad(off as u64);
                let times_at = off + 16 + pad;
                assert_eq!(times_at % 8, 0, "block {block}, frame at {off}");
                off = times_at + n * 8 + payload;
            }
        }
    }

    #[test]
    fn payloads_with_unknown_kind_and_coll_codes_are_refused() {
        let t = sample_trace();
        let b = to_binary_columnar_v3_blocked(&t, MAX_BLOCK_EVENTS);
        // First frame: header at 4, pad, then 5 timestamps, then 5 codes.
        let codes_at = 4 + 16 + frame_pad(4) + 5 * 8;
        let mut corrupt = b.to_vec();
        corrupt[codes_at] = 200; // unknown kind code
        let decoded = from_binary_columnar(corrupt.into());
        assert!(matches!(decoded, Err(CodecError::UnknownKind(_))));
        // Corrupt the op field (args record `a`) of the CollBegin at index
        // 2 of rank 0's first frame.
        let args_at = codes_at + 5 + 2 * 24;
        let mut corrupt = b.to_vec();
        corrupt[args_at] = 99; // unknown collective op (LE low byte)
        let decoded = from_binary_columnar(corrupt.into());
        assert!(matches!(decoded, Err(CodecError::UnknownKind(_))));
    }
}
