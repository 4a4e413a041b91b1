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

/// The collective ops by wire code.
const COLL_OPS: [CollOp; 9] = {
    use CollOp::*;
    [Barrier, Bcast, Scatter, Reduce, Gather, Allreduce, Allgather, Alltoall, Scan]
};

/// A kind as its wire code and argument fields — what [`walk_records`]
/// reads back: `a` is the region, the peer or the collective op, `b` the
/// tag or the communicator, `c` the message size or the root (−1 for
/// none), `d` the collective's size; unused fields are zero.
#[inline]
pub(super) fn kind_fields(kind: &EventKind) -> (u8, u32, u32, u64, u64) {
    match *kind {
        EventKind::Enter { region } => (0, region.0, 0, 0, 0),
        EventKind::Exit { region } => (1, region.0, 0, 0, 0),
        EventKind::Send { to, tag, bytes } => (2, to.0, tag.0, bytes, 0),
        EventKind::Recv { from, tag, bytes } => (3, from.0, tag.0, bytes, 0),
        EventKind::CollBegin { op, comm, root, bytes } | EventKind::CollEnd { op, comm, root, bytes } => {
            let code = if matches!(kind, EventKind::CollBegin { .. }) { 4 } else { 5 };
            let op = COLL_OPS.iter().position(|&o| o == op).expect("every op has a code");
            (code, op as u32, comm.0, root.map_or(-1i64, |r| r.0.into()) as u64, bytes)
        }
        EventKind::Fork { region } => (6, region.0, 0, 0, 0),
        EventKind::Join { region } => (7, region.0, 0, 0, 0),
        EventKind::BarrierEnter { region } => (8, region.0, 0, 0, 0),
        EventKind::BarrierExit { region } => (9, region.0, 0, 0, 0),
    }
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

/// Append a timestamp segment.
pub(super) fn put_times(out: &mut Vec<u8>, times_ps: impl Iterator<Item = i64>) {
    times_ps.for_each(|ps| out.extend_from_slice(&ps.to_le_bytes()));
}

/// Append the payload segment of `events`: every kind code, then every
/// args record, all four fields little-endian whatever the kind.
pub(super) fn put_payload(out: &mut Vec<u8>, events: &[EventRecord]) {
    events.iter().for_each(|e| out.push(kind_fields(&e.kind).0));
    for (_, a, b, c, d) in events.iter().map(|e| kind_fields(&e.kind)) {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
}

#[inline(always)]
fn le_u32<const AT: usize>(s: &[u8; ARGS_BYTES]) -> u32 {
    u32::from_le_bytes(s[AT..AT + 4].try_into().expect("four bytes"))
}

#[inline(always)]
fn le_u64<const AT: usize>(s: &[u8; ARGS_BYTES]) -> u64 {
    u64::from_le_bytes(s[AT..AT + 8].try_into().expect("eight bytes"))
}

/// The kind any code but a message's stands for, with its args record
/// (see [`kind_fields`]).
#[inline]
fn other_kind(code: u8, args: &[u8; ARGS_BYTES]) -> Result<EventKind, CodecError> {
    let a = le_u32::<0>(args);
    Ok(match code {
        0 => EventKind::Enter { region: RegionId(a) },
        1 => EventKind::Exit { region: RegionId(a) },
        4 | 5 => {
            let op = COLL_OPS.get(a as usize).copied();
            let op = op.ok_or_else(|| CodecError::UnknownKind("collective".into()))?;
            let (comm, c, bytes) = (CommId(le_u32::<4>(args)), le_u64::<8>(args), le_u64::<16>(args));
            let root = (c as i64 >= 0).then_some(Rank(c as u32));
            if code == 4 {
                EventKind::CollBegin { op, comm, root, bytes }
            } else {
                EventKind::CollEnd { op, comm, root, bytes }
            }
        }
        6 => EventKind::Fork { region: RegionId(a) },
        7 => EventKind::Join { region: RegionId(a) },
        8 => EventKind::BarrierEnter { region: RegionId(a) },
        9 => EventKind::BarrierExit { region: RegionId(a) },
        other => return Err(CodecError::UnknownKind(format!("code {other}"))),
    })
}

/// One record as [`walk_records`] hands it over.
pub(crate) enum Record {
    /// A send (code 2) or a receive (code 3, `recv`) as its fields: the
    /// peer, the tag and the size.
    Message { recv: bool, peer: Rank, tag: Tag, bytes: u64 },
    /// Any other kind, decoded.
    Other(EventKind),
}

impl Record {
    /// The event kind it stands for.
    #[inline(always)]
    pub(crate) fn kind(self) -> EventKind {
        match self {
            Record::Message { recv: false, peer: to, tag, bytes } => EventKind::Send { to, tag, bytes },
            Record::Message { recv: true, peer: from, tag, bytes } => EventKind::Recv { from, tag, bytes },
            Record::Other(kind) => kind,
        }
    }
}

/// Walk the `n_events` records of one block's payload once, in order,
/// handing each with its index in the block to `each`: a message as its
/// fields, with no [`EventKind`] built, any other kind decoded. The
/// payload must be exactly their bytes; an undecodable record stops the
/// walk with its error, after `each` has seen the records before it.
#[inline(always)]
pub(crate) fn walk_records(
    payload: &[u8],
    n_events: usize,
    mut each: impl FnMut(usize, Record),
) -> Result<(), CodecError> {
    if payload.len() != payload_len(n_events) {
        return Err(CodecError::BadField("block payload length".into()));
    }
    let (codes, args) = payload.split_at(n_events);
    for (i, (&code, args)) in codes.iter().zip(args.chunks_exact(ARGS_BYTES)).enumerate() {
        let args: &[u8; ARGS_BYTES] = args.try_into().expect("exact chunk");
        each(i, match code {
            2 | 3 => Record::Message {
                recv: code == 3,
                peer: Rank(le_u32::<0>(args)),
                tag: Tag(le_u32::<4>(args)),
                bytes: le_u64::<8>(args),
            },
            _ => Record::Other(other_kind(code, args)?),
        });
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
