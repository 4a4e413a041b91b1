//! The trace codec: one block-framed binary format, `DTC3`.
//!
//! It is what a tracing library would flush to
//! disk (paper §III: buffers are flushed at termination or when full) and
//! what every other part of this repository reads back: a magic, then
//! length-prefixed per-timeline block frames whose timestamps are a dense
//! column segment, then a trailer. A reader holds the stream as byte
//! chunks of any size, never concatenated. It indexes their frames
//! without decoding a body ([`index_columnar_chunks`]), then reads blocks
//! through a [`ChunkStore`]: all of them into a trace and its timestamp
//! columns ([`decode_indexed`], what the synchronisation pipeline starts
//! from), or a window of them at a time (the incremental pipeline).
//! [`estimate_columnar_stream`] is the index's tolerant twin for
//! admission; [`FrameWriter`] is the write side.
//!
//! The encoder is [`to_binary_columnar_v3`]. Timestamps are 8-byte-aligned
//! *little-endian* `i64` runs and the kind/args records have a fixed
//! stride, so a block's timestamps decode as one loop of word loads into
//! their column run (DESIGN.md §14 records what the layout costs in
//! bytes). The frame grammar is written once, in
//! the private `frame` module, and the segment layout once, in `segment`.

mod decode;
mod encode;
mod frame;
mod index;
mod segment;
#[cfg(test)]
mod tests;

pub use decode::{decode_indexed, from_binary_columnar};
pub use encode::{to_binary_columnar_v3, to_binary_columnar_v3_blocked};
pub use frame::{FrameWriter, BLOCK_EVENTS, MAX_BLOCK_EVENTS, MAX_LOCATION_ID};
pub use index::{
    estimate_columnar_stream, index_columnar_chunks, BlockMeta, ChunkStore, StreamEstimate,
    StreamIndex,
};
pub use segment::decode_block_times;
pub(crate) use segment::{walk_records, Record};

/// Errors arising while decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a record.
    Truncated,
    /// Unknown event tag or mnemonic.
    UnknownKind(String),
    /// A field failed to parse.
    BadField(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::UnknownKind(s) => write!(f, "unknown event kind {s:?}"),
            CodecError::BadField(s) => write!(f, "bad field: {s}"),
        }
    }
}

impl std::error::Error for CodecError {}
