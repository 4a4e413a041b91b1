//! The two segment layouts of a block frame — the only place the wire
//! versions differ below the frame grammar.
//!
//! * `DTC2`: timestamps big-endian; the payload is one variable-stride
//!   record per event — kind code, then that kind's args, big-endian,
//!   5–22 bytes.
//! * `DTC3`: timestamps little-endian (and 8-aligned in the stream); the
//!   payload is every kind code (one byte each), then every args record
//!   (24 bytes each: `a: u32, b: u32, c: u64, d: u64`, little-endian,
//!   unused fields zero).
//!
//! v3 trades ~30 % more bytes for segments laid out for bulk
//! reinterpretation: an aligned timestamp run is appended to its column in
//! one copy ([`crate::cast`]) and the fixed stride needs no cursor.

use super::frame::ColumnarVersion;
use super::CodecError;
use crate::event::{CollOp, EventKind, EventRecord};
use crate::ids::{CommId, Rank, RegionId, Tag};
use std::ops::RangeInclusive;

fn coll_code(op: CollOp) -> u8 {
    match op {
        CollOp::Barrier => 0,
        CollOp::Bcast => 1,
        CollOp::Scatter => 2,
        CollOp::Reduce => 3,
        CollOp::Gather => 4,
        CollOp::Allreduce => 5,
        CollOp::Allgather => 6,
        CollOp::Alltoall => 7,
        CollOp::Scan => 8,
    }
}

fn coll_from_code(c: u8) -> Option<CollOp> {
    Some(match c {
        0 => CollOp::Barrier,
        1 => CollOp::Bcast,
        2 => CollOp::Scatter,
        3 => CollOp::Reduce,
        4 => CollOp::Gather,
        5 => CollOp::Allreduce,
        6 => CollOp::Allgather,
        7 => CollOp::Alltoall,
        8 => CollOp::Scan,
        _ => return None,
    })
}

fn kind_code(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Enter { .. } => 0,
        EventKind::Exit { .. } => 1,
        EventKind::Send { .. } => 2,
        EventKind::Recv { .. } => 3,
        EventKind::CollBegin { .. } => 4,
        EventKind::CollEnd { .. } => 5,
        EventKind::Fork { .. } => 6,
        EventKind::Join { .. } => 7,
        EventKind::BarrierEnter { .. } => 8,
        EventKind::BarrierExit { .. } => 9,
    }
}

/// A kind as its wire code and argument fields — the inverse of
/// [`kind_from_fields`], shared by both layouts and the text format: `a`
/// is the region, the peer or the collective op, `b` the tag or the
/// communicator, `c` the message size or the root (−1 for none), `d` the
/// collective's size; unused fields are zero.
#[inline]
pub(super) fn kind_fields(kind: &EventKind) -> (u8, u32, u32, u64, u64) {
    let (a, b, c, d) = match *kind {
        EventKind::Enter { region }
        | EventKind::Exit { region }
        | EventKind::Fork { region }
        | EventKind::Join { region }
        | EventKind::BarrierEnter { region }
        | EventKind::BarrierExit { region } => (region.0, 0, 0, 0),
        EventKind::Send { to: peer, tag, bytes } | EventKind::Recv { from: peer, tag, bytes } => {
            (peer.0, tag.0, bytes, 0)
        }
        EventKind::CollBegin { op, comm, root, bytes }
        | EventKind::CollEnd { op, comm, root, bytes } => {
            (coll_code(op).into(), comm.0, root.map_or(-1i64, |r| r.0.into()) as u64, bytes)
        }
    };
    (kind_code(kind), a, b, c, d)
}

/// Smallest and largest v2 record: kind code + one `u32`, and a collective.
const V2_RECORD_BYTES: RangeInclusive<usize> = 5..=22;

/// Bytes of the fixed-stride args record every v3 event carries.
const V3_ARGS_BYTES: usize = 24;

/// Payload bytes per v3 event: one kind-code byte plus the args record.
const V3_RECORD_BYTES: usize = 1 + V3_ARGS_BYTES;

/// Payload lengths a block of `n_events` can have — what a frame header
/// is checked against before anything is buffered for it.
pub(super) fn payload_bounds(version: ColumnarVersion, n_events: usize) -> RangeInclusive<usize> {
    match version {
        ColumnarVersion::V2 => {
            n_events * V2_RECORD_BYTES.start()..=n_events * V2_RECORD_BYTES.end()
        }
        ColumnarVersion::V3 => n_events * V3_RECORD_BYTES..=n_events * V3_RECORD_BYTES,
    }
}

/// Encoded size of one v2 record: the kind code, then a region (`a`), a
/// message's `a b c`, or a collective's `a b c d` with the op in one byte.
fn v2_record_len(code: u8) -> usize {
    match code {
        2 | 3 => 1 + 16,
        4 | 5 => 1 + 21,
        _ => 1 + 4,
    }
}

/// Payload bytes [`put_payload`] writes for `events`.
pub(super) fn payload_len(version: ColumnarVersion, events: &[EventRecord]) -> usize {
    match version {
        ColumnarVersion::V2 => events.iter().map(|e| v2_record_len(kind_code(&e.kind))).sum(),
        ColumnarVersion::V3 => events.len() * V3_RECORD_BYTES,
    }
}

/// Append one v2 record: the kind code and the fields its kind uses,
/// big-endian.
fn put_record_v2(out: &mut Vec<u8>, kind: &EventKind) {
    let (code, a, b, c, d) = kind_fields(kind);
    out.push(code);
    match code {
        2 | 3 => {
            out.extend_from_slice(&a.to_be_bytes());
            out.extend_from_slice(&b.to_be_bytes());
            out.extend_from_slice(&c.to_be_bytes());
        }
        4 | 5 => {
            out.push(a as u8);
            out.extend_from_slice(&b.to_be_bytes());
            out.extend_from_slice(&c.to_be_bytes());
            out.extend_from_slice(&d.to_be_bytes());
        }
        _ => out.extend_from_slice(&a.to_be_bytes()),
    }
}

/// Append one event's fixed-stride v3 args record (no kind code): every
/// kind writes all four fields, little-endian.
#[inline]
fn put_args_v3(out: &mut Vec<u8>, kind: &EventKind) {
    let (_, a, b, c, d) = kind_fields(kind);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&c.to_le_bytes());
    out.extend_from_slice(&d.to_le_bytes());
}

/// Append a timestamp segment.
pub(super) fn put_times(
    version: ColumnarVersion,
    out: &mut Vec<u8>,
    times_ps: impl Iterator<Item = i64>,
) {
    match version {
        ColumnarVersion::V2 => times_ps.for_each(|ps| out.extend_from_slice(&ps.to_be_bytes())),
        ColumnarVersion::V3 => times_ps.for_each(|ps| out.extend_from_slice(&ps.to_le_bytes())),
    }
}

/// Append the payload segment of `events`.
pub(super) fn put_payload(version: ColumnarVersion, out: &mut Vec<u8>, events: &[EventRecord]) {
    match version {
        ColumnarVersion::V2 => events.iter().for_each(|e| put_record_v2(out, &e.kind)),
        ColumnarVersion::V3 => {
            events.iter().for_each(|e| out.push(kind_code(&e.kind)));
            events.iter().for_each(|e| put_args_v3(out, &e.kind));
        }
    }
}

/// The kind a code and its already-split argument fields stand for (see
/// [`kind_fields`]), in either layout or the text format.
#[inline]
pub(super) fn kind_from_fields(
    code: u8,
    a: u32,
    b: u32,
    c: u64,
    d: u64,
) -> Result<EventKind, CodecError> {
    Ok(match code {
        0 => EventKind::Enter { region: RegionId(a) },
        1 => EventKind::Exit { region: RegionId(a) },
        2 => EventKind::Send { to: Rank(a), tag: Tag(b), bytes: c },
        3 => EventKind::Recv { from: Rank(a), tag: Tag(b), bytes: c },
        4 | 5 => {
            let op = u8::try_from(a)
                .ok()
                .and_then(coll_from_code)
                .ok_or_else(|| CodecError::UnknownKind("collective".into()))?;
            let comm = CommId(b);
            let root = (c as i64 >= 0).then_some(Rank(c as u32));
            if code == 4 {
                EventKind::CollBegin { op, comm, root, bytes: d }
            } else {
                EventKind::CollEnd { op, comm, root, bytes: d }
            }
        }
        6 => EventKind::Fork { region: RegionId(a) },
        7 => EventKind::Join { region: RegionId(a) },
        8 => EventKind::BarrierEnter { region: RegionId(a) },
        9 => EventKind::BarrierExit { region: RegionId(a) },
        other => return Err(CodecError::UnknownKind(format!("code {other}"))),
    })
}

/// Decode one v2 record from a block payload, advancing `at`. Each arm
/// reads its whole fixed-size argument run through a single bounds check;
/// the field splits are on arrays of known length, so they compile to
/// plain loads.
#[inline]
fn record_v2(p: &[u8], at: &mut usize) -> Result<EventKind, CodecError> {
    #[inline]
    fn take<const N: usize>(p: &[u8], at: &mut usize) -> Result<[u8; N], CodecError> {
        let s = p.get(*at..*at + N).ok_or(CodecError::Truncated)?;
        *at += N;
        Ok(s.try_into().expect("N bytes"))
    }
    #[inline]
    fn be_u32<const AT: usize>(s: &[u8]) -> u32 {
        u32::from_be_bytes(s[AT..AT + 4].try_into().expect("four bytes"))
    }
    #[inline]
    fn be_u64<const AT: usize>(s: &[u8]) -> u64 {
        u64::from_be_bytes(s[AT..AT + 8].try_into().expect("eight bytes"))
    }
    let [code] = take::<1>(p, at)?;
    match code {
        2 | 3 => {
            let s = take::<16>(p, at)?;
            kind_from_fields(code, be_u32::<0>(&s), be_u32::<4>(&s), be_u64::<8>(&s), 0)
        }
        4 | 5 => {
            let s = take::<21>(p, at)?;
            kind_from_fields(code, s[0].into(), be_u32::<1>(&s), be_u64::<5>(&s), be_u64::<13>(&s))
        }
        // Every other known kind carries one `u32`; an unknown code is
        // reported before its (unknowable) arguments are looked for.
        0..=9 => kind_from_fields(code, u32::from_be_bytes(take::<4>(p, at)?), 0, 0, 0),
        _ => kind_from_fields(code, 0, 0, 0, 0),
    }
}

/// Decode one v3 event from its kind code and fixed-stride args record.
#[inline]
fn record_v3(code: u8, args: &[u8; V3_ARGS_BYTES]) -> Result<EventKind, CodecError> {
    #[inline]
    fn le_u32<const AT: usize>(s: &[u8; V3_ARGS_BYTES]) -> u32 {
        u32::from_le_bytes(s[AT..AT + 4].try_into().expect("four bytes"))
    }
    #[inline]
    fn le_u64<const AT: usize>(s: &[u8; V3_ARGS_BYTES]) -> u64 {
        u64::from_le_bytes(s[AT..AT + 8].try_into().expect("eight bytes"))
    }
    let (a, b) = (le_u32::<0>(args), le_u32::<4>(args));
    kind_from_fields(code, a, b, le_u64::<8>(args), le_u64::<16>(args))
}

/// Decode the `n_events` records of one block's payload, in order, handing
/// each kind with its index in the block to `each`. The payload must be
/// consumed exactly.
#[inline]
pub(super) fn for_each_kind(
    version: ColumnarVersion,
    payload: &[u8],
    n_events: usize,
    mut each: impl FnMut(usize, EventKind),
) -> Result<(), CodecError> {
    let bad_length = || CodecError::BadField("block payload length".into());
    match version {
        ColumnarVersion::V2 => {
            let mut at = 0usize;
            for i in 0..n_events {
                each(i, record_v2(payload, &mut at)?);
            }
            if at != payload.len() {
                return Err(bad_length());
            }
        }
        ColumnarVersion::V3 => {
            if payload.len() != n_events * V3_RECORD_BYTES {
                return Err(bad_length());
            }
            let (codes, args) = payload.split_at(n_events);
            let records = codes.iter().zip(args.chunks_exact(V3_ARGS_BYTES));
            for (i, (&code, rec)) in records.enumerate() {
                each(i, record_v3(code, rec.try_into().expect("exact chunk"))?);
            }
        }
    }
    Ok(())
}

/// Decode one block's raw timestamp segment (as addressed by
/// [`BlockMeta::times_off`](super::BlockMeta::times_off)) into picosecond
/// values appended to `out`: element-wise byte swaps on v2; on v3 one bulk
/// copy when the run happens to be 8-aligned in memory, unaligned loads
/// otherwise ([`crate::cast`]).
pub fn decode_block_times(version: ColumnarVersion, seg: &[u8], out: &mut Vec<i64>) {
    debug_assert!(seg.len().is_multiple_of(8));
    match version {
        ColumnarVersion::V2 => out.extend(
            seg.chunks_exact(8).map(|c| i64::from_be_bytes(c.try_into().expect("exact chunk"))),
        ),
        ColumnarVersion::V3 => crate::cast::extend_i64_from_le_bytes(out, seg),
    }
}

/// Decode one block's kind/args payload (as addressed by
/// [`BlockMeta::payload_off`](super::BlockMeta::payload_off)) into event
/// kinds appended to `out`.
pub fn decode_block_kinds(
    version: ColumnarVersion,
    payload: &[u8],
    n_events: usize,
    out: &mut Vec<EventKind>,
) -> Result<(), CodecError> {
    out.reserve(n_events);
    for_each_kind(version, payload, n_events, |_, kind| out.push(kind))
}
