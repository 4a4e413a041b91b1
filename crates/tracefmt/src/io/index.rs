//! The header-only readers: one pass over a chunked stream's frame headers,
//! bodies skipped, folded strictly into a [`StreamIndex`] or tolerantly
//! into a [`StreamEstimate`] (admission pricing) — plus the [`ChunkStore`]
//! an index is read through. Every block body is read behind an index:
//! all of them by [`decode_indexed`](super::decode_indexed), a window at a
//! time by the incremental pipeline.

use super::frame::{Block, Unit, Walk, HEADER_BYTES};
use super::CodecError;
use crate::ids::Location;

/// What one pass over a stream's headers found.
struct HeaderScan {
    /// Where the walk stood when the input ended or the verdict fell.
    walk: Walk,
    /// Total bytes in the input chunks, scanned or not.
    bytes: u64,
    /// What every strict reader answers for this input.
    verdict: Result<(), CodecError>,
}

/// Walk a chunked stream's units without touching a timestamp or payload
/// byte: each block is handed to `on_block` with the absolute offset of
/// its frame, then its body is skipped. A header is parsed where it lies;
/// one split across chunks (or the magic) is assembled in a 16-byte carry.
/// Nothing else is copied and nothing is allocated, so the pass is
/// O(#blocks) however large the trace. It stops at the first grammar error
/// and only counts bytes from there.
fn walk_headers<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
    mut on_block: impl FnMut(u64, &Block),
) -> HeaderScan {
    let mut scan = HeaderScan { walk: Walk::default(), bytes: 0, verdict: Ok(()) };
    let mut carry = [0u8; HEADER_BYTES];
    let mut carried = 0usize;
    // Body bytes of the last block still to pass.
    let mut skip = 0u64;
    for chunk in chunks {
        scan.bytes += chunk.len() as u64;
        let mut rest = chunk;
        while scan.verdict.is_ok() {
            let step = skip.min(rest.len() as u64) as usize;
            rest = &rest[step..];
            skip -= step as u64;
            let head = if carried == 0 { rest } else { &carry[..carried] };
            match scan.walk.peek(head) {
                Ok(Unit::Short(_)) if rest.is_empty() => break,
                Ok(Unit::Short(needed)) => {
                    let take = (needed - carried).min(rest.len());
                    carry[carried..carried + take].copy_from_slice(&rest[..take]);
                    carried += take;
                    rest = &rest[take..];
                }
                Ok(unit) => {
                    if let Unit::Block(block) = &unit {
                        on_block(scan.walk.off, block);
                    }
                    skip = (scan.walk.advance(&unit) - carried) as u64;
                    carried = 0;
                }
                Err(e) => scan.verdict = Err(e),
            }
        }
    }
    if scan.verdict.is_ok() {
        // Input that ends inside a block's body is as short as input that
        // ends inside a header.
        scan.verdict = if skip > 0 {
            Err(CodecError::Truncated)
        } else {
            scan.walk.end(&carry[..carried])
        };
    }
    scan
}

/// What a header-only scan of a columnar chunk stream saw — the basis for
/// admission-control cost estimates in services that must bound a job's
/// memory *before* decoding it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamEstimate {
    /// Events announced by the block headers scanned so far.
    pub events: u64,
    /// Block frames whose headers were scanned.
    pub blocks: u64,
    /// Total bytes in the input chunks.
    pub bytes: u64,
    /// Whether the end-of-stream trailer was reached. A `false` here means
    /// the stream is truncated (or a header was implausible and the scan
    /// stopped early) — the estimate is then a lower bound.
    pub complete: bool,
    /// Bytes following the end-of-stream trailer: garbage, or a
    /// concatenated second stream. Zero for a cleanly terminated stream.
    /// The decoder proper rejects any such bytes, so `complete` alone does
    /// NOT mean the job will decode — admission must treat a stream with a
    /// dirty tail like an incomplete one and keep the byte-derived floor
    /// under its event estimate, or trailing garbage would under-charge
    /// the budget for a job that is guaranteed to fail.
    pub trailing_bytes: u64,
    /// The typed error [`index_columnar_chunks`] answers for this input —
    /// the walk is the same — and so every decode of it, or `None` for a
    /// stream the index accepts.
    pub error: Option<CodecError>,
}

/// Scan a columnar chunk stream's *frame headers only*, without decoding
/// any payload, and report the event/block totals the headers announce.
///
/// This is [`index_columnar_chunks`]' pass made tolerant: a truncated
/// stream, a bad magic, an implausible header or a dirty tail ends the
/// scan with whatever totals were accumulated and the strict readers'
/// verdict in [`StreamEstimate::error`] — admission control wants a cheap
/// estimate of every input, malformed ones included.
pub fn estimate_columnar_stream<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
) -> StreamEstimate {
    let HeaderScan { walk, bytes, verdict } = walk_headers(chunks, |_, _| {});
    StreamEstimate {
        events: walk.events,
        blocks: walk.blocks,
        bytes,
        complete: walk.finished,
        // A finished walk stands just past the trailer.
        trailing_bytes: if walk.finished { bytes - walk.off } else { 0 },
        error: verdict.err(),
    }
}

/// Zero-copy random access over a sequence of borrowed byte chunks — the
/// storage view every block body of a columnar stream is read through.
/// The chunks are never concatenated; a read that falls inside one chunk
/// borrows it directly, and only reads crossing a chunk boundary copy into
/// the caller's scratch buffer.
#[derive(Debug)]
pub struct ChunkStore<'a> {
    chunks: &'a [&'a [u8]],
    /// `starts[i]` = absolute offset of `chunks[i]`; one extra trailing
    /// entry holds the total byte count.
    starts: Vec<u64>,
}

impl<'a> ChunkStore<'a> {
    /// Build the offset directory (one prefix sum per chunk).
    pub fn new(chunks: &'a [&'a [u8]]) -> ChunkStore<'a> {
        let mut starts = Vec::with_capacity(chunks.len() + 1);
        let mut at = 0u64;
        for c in chunks {
            starts.push(at);
            at += c.len() as u64;
        }
        starts.push(at);
        ChunkStore { chunks, starts }
    }

    /// Total bytes across all chunks.
    pub fn len(&self) -> u64 {
        *self.starts.last().expect("has sentinel")
    }

    /// True when the store holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow `len` bytes at absolute offset `off`. In-chunk ranges are
    /// returned without copying; ranges crossing a chunk boundary are
    /// assembled into `scratch` first.
    ///
    /// # Panics
    /// When `off + len` exceeds [`ChunkStore::len`] — callers index with
    /// offsets from a validated [`StreamIndex`], so an out-of-range read
    /// is a logic error, not an input error.
    pub fn read<'s>(&self, off: u64, len: usize, scratch: &'s mut Vec<u8>) -> &'s [u8]
    where
        'a: 's,
    {
        assert!(
            off + len as u64 <= self.len(),
            "ChunkStore read out of range: {off}+{len} > {}",
            self.len()
        );
        if len == 0 {
            return &[];
        }
        // Last chunk starting at or before `off`.
        let ci = self.starts.partition_point(|&s| s <= off) - 1;
        let in_off = (off - self.starts[ci]) as usize;
        let chunk = self.chunks[ci];
        if in_off + len <= chunk.len() {
            return &chunk[in_off..in_off + len];
        }
        scratch.clear();
        scratch.reserve(len);
        let mut ci = ci;
        let mut in_off = in_off;
        while scratch.len() < len {
            let chunk = self.chunks[ci];
            let take = (len - scratch.len()).min(chunk.len() - in_off);
            scratch.extend_from_slice(&chunk[in_off..in_off + take]);
            ci += 1;
            in_off = 0;
        }
        scratch
    }
}

/// Directory entry for one block frame found by [`index_columnar_chunks`]:
/// where the frame's segments live in the stream and which run of its
/// timeline's events it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Index into [`StreamIndex::locations`] (first-seen timeline order,
    /// the order of a decoded trace's timelines).
    pub timeline: u32,
    /// Index, within the timeline, of the block's first event.
    pub first_idx: u64,
    /// Events in the block.
    pub n_events: u32,
    /// Absolute stream offset of the timestamp segment
    /// (`n_events * 8` bytes, 8-aligned, little-endian).
    pub times_off: u64,
    /// Absolute stream offset of the kind/args payload (the kind-code run
    /// followed by the fixed-stride args records).
    pub payload_off: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// A header-level directory of a *complete, well-formed* columnar stream:
/// every block frame located and attributed to its timeline, without any
/// timestamp or payload byte having been decoded.
///
/// The indexer is the strict twin of [`estimate_columnar_stream`]: the
/// same walk — the magic, header ceilings, trailer counters, nothing after
/// the trailer — with its verdict final, so a stream that indexes cleanly
/// is one whose every frame is well formed, and one that does not fails
/// with the walk's error before any body is read. The decoder and the
/// incremental pipeline build on this: random access to any block's
/// segments via a [`ChunkStore`], with the input bytes staying wherever
/// the caller put them; a payload error is all they have left to report.
#[derive(Debug, Clone)]
pub struct StreamIndex {
    /// Timelines in first-seen order.
    pub locations: Vec<Location>,
    /// Every block frame, in stream order.
    pub blocks: Vec<BlockMeta>,
    /// Per timeline, the indices into `blocks` of its frames, in stream
    /// (= program) order.
    pub proc_blocks: Vec<Vec<u32>>,
    /// Per timeline, its total event count.
    pub proc_lens: Vec<u64>,
    /// Total stream length in bytes.
    pub total_bytes: u64,
}

impl StreamIndex {
    /// Total events across all timelines.
    pub fn n_events(&self) -> u64 {
        self.proc_lens.iter().sum()
    }
}

/// Index a columnar stream presented as byte chunks. See [`StreamIndex`]
/// for the strictness contract.
pub fn index_columnar_chunks(chunks: &[&[u8]]) -> Result<StreamIndex, CodecError> {
    let (mut locations, mut blocks) = (Vec::new(), Vec::new());
    let (mut proc_blocks, mut proc_lens) = (Vec::<Vec<u32>>::new(), Vec::<u64>::new());
    let mut timelines: std::collections::HashMap<Location, u32> = std::collections::HashMap::new();
    let scan = walk_headers(chunks.iter().copied(), |frame_off, block| {
        let p = *timelines.entry(block.location).or_insert_with(|| {
            locations.push(block.location);
            proc_blocks.push(Vec::new());
            proc_lens.push(0);
            (locations.len() - 1) as u32
        });
        proc_blocks[p as usize].push(blocks.len() as u32);
        blocks.push(BlockMeta {
            timeline: p,
            first_idx: proc_lens[p as usize],
            n_events: block.n_events as u32,
            times_off: frame_off + block.times_at as u64,
            payload_off: frame_off + block.payload_at() as u64,
            payload_len: block.payload_len as u32,
        });
        proc_lens[p as usize] += block.n_events as u64;
    });
    scan.verdict?;
    Ok(StreamIndex { locations, blocks, proc_blocks, proc_lens, total_bytes: scan.bytes })
}
