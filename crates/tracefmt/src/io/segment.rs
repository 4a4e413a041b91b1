//! The segment layout of a block frame: timestamps little-endian (and
//! 8-aligned in the stream); the payload is every kind code (one byte
//! each), then every args record (24 bytes each: `a: u32, b: u32, c: u64,
//! d: u64`, little-endian, unused fields zero).
//!
//! The fixed stride needs no cursor: a block's timestamps are one run of
//! 8-byte words and its records one run of 24-byte ones.

use super::CodecError;
use crate::event::{CollOp, EventKind, EventRecord};
use crate::ids::{CommId, Rank, RegionId, Tag};

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
/// [`kind_from_fields`], shared by the binary and the text format: `a`
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

/// Bytes of the fixed-stride args record every event carries.
const ARGS_BYTES: usize = 24;

/// Payload bytes per event: one kind-code byte plus the args record.
const RECORD_BYTES: usize = 1 + ARGS_BYTES;

/// Payload bytes of a block of `n_events` — what a frame header is checked
/// against before anything is buffered for it.
pub(super) fn payload_len(n_events: usize) -> usize {
    n_events * RECORD_BYTES
}

/// Append one event's fixed-stride args record (no kind code): every kind
/// writes all four fields, little-endian.
#[inline]
fn put_args(out: &mut Vec<u8>, kind: &EventKind) {
    let (_, a, b, c, d) = kind_fields(kind);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&c.to_le_bytes());
    out.extend_from_slice(&d.to_le_bytes());
}

/// Append a timestamp segment.
pub(super) fn put_times(out: &mut Vec<u8>, times_ps: impl Iterator<Item = i64>) {
    times_ps.for_each(|ps| out.extend_from_slice(&ps.to_le_bytes()));
}

/// Append the payload segment of `events`: every kind code, then every
/// args record.
pub(super) fn put_payload(out: &mut Vec<u8>, events: &[EventRecord]) {
    events.iter().for_each(|e| out.push(kind_code(&e.kind)));
    events.iter().for_each(|e| put_args(out, &e.kind));
}

/// The kind a code and its already-split argument fields stand for (see
/// [`kind_fields`]), in the binary or the text format.
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

/// Decode one event from its kind code and fixed-stride args record.
#[inline]
fn record(code: u8, args: &[u8; ARGS_BYTES]) -> Result<EventKind, CodecError> {
    #[inline]
    fn le_u32<const AT: usize>(s: &[u8; ARGS_BYTES]) -> u32 {
        u32::from_le_bytes(s[AT..AT + 4].try_into().expect("four bytes"))
    }
    #[inline]
    fn le_u64<const AT: usize>(s: &[u8; ARGS_BYTES]) -> u64 {
        u64::from_le_bytes(s[AT..AT + 8].try_into().expect("eight bytes"))
    }
    let (a, b) = (le_u32::<0>(args), le_u32::<4>(args));
    kind_from_fields(code, a, b, le_u64::<8>(args), le_u64::<16>(args))
}

/// Decode the `n_events` records of one block's payload, in order, handing
/// each kind with its index in the block to `each`. The payload must be
/// exactly their bytes.
#[inline]
pub(super) fn for_each_kind(
    payload: &[u8],
    n_events: usize,
    mut each: impl FnMut(usize, EventKind),
) -> Result<(), CodecError> {
    if payload.len() != payload_len(n_events) {
        return Err(CodecError::BadField("block payload length".into()));
    }
    let (codes, args) = payload.split_at(n_events);
    let records = codes.iter().zip(args.chunks_exact(ARGS_BYTES));
    for (i, (&code, rec)) in records.enumerate() {
        each(i, record(code, rec.try_into().expect("exact chunk"))?);
    }
    Ok(())
}

/// Decode one block's raw timestamp segment (as addressed by
/// [`BlockMeta::times_off`](super::BlockMeta::times_off)) into picosecond
/// values written over `out`, which holds exactly one value per 8 bytes.
/// The loop compiles to unaligned loads with no byte swap on little-endian
/// targets, wherever the segment sits in memory.
pub fn decode_block_times(seg: &[u8], out: &mut [i64]) {
    assert_eq!(seg.len(), 8 * out.len(), "one 8-byte word per value");
    for (t, word) in out.iter_mut().zip(seg.chunks_exact(8)) {
        *t = i64::from_le_bytes(word.try_into().expect("exact chunk"));
    }
}

/// Decode one block's kind/args payload (as addressed by
/// [`BlockMeta::payload_off`](super::BlockMeta::payload_off)) into event
/// kinds appended to `out`.
pub fn decode_block_kinds(
    payload: &[u8],
    n_events: usize,
    out: &mut Vec<EventKind>,
) -> Result<(), CodecError> {
    out.reserve(n_events);
    for_each_kind(payload, n_events, |_, kind| out.push(kind))
}
