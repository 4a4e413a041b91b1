//! Trace codecs: a human-readable text format and one block-framed binary
//! format, `DTC3`.
//!
//! The text format ([`to_text`] / [`from_text`]) writes one event per line
//! (`rank:thread time_ps MNEMONIC args…`), convenient for diffing and
//! debugging. The binary format is what a tracing library would flush to
//! disk (paper §III: buffers are flushed at termination or when full) and
//! what every other part of this repository reads back: a magic, then
//! length-prefixed per-timeline block frames whose timestamps are a dense
//! column segment, then a trailer. A reader ingests it chunk by chunk —
//! decoding each block as soon as its bytes arrive, without materializing
//! the whole record vector first — and hands the timestamp columns straight
//! to the synchronisation pipeline ([`StreamDecoder`]), or indexes its
//! frames without decoding them and reads blocks at random
//! ([`index_columnar_chunks`], [`ChunkStore`]); [`FrameWriter`] is the
//! write-side twin.
//!
//! The encoder is [`to_binary_columnar_v3`]. Timestamps are 8-byte-aligned
//! *little-endian* `i64` runs and the kind/args records have a fixed
//! stride, so an aligned buffer (an mmap, a stream chunk) is reinterpreted
//! as a run of a timestamp column in one bulk copy (DESIGN.md §14 records
//! what the layout costs in bytes). The frame grammar is written once, in
//! the private `frame` module, and the segment layout once, in `segment`.

mod decode;
mod encode;
mod frame;
mod index;
mod segment;
#[cfg(test)]
mod tests;
mod text;

pub use decode::{from_binary_columnar, StreamDecoder, TraceBuilder};
pub use encode::{to_binary_columnar_v3, to_binary_columnar_v3_blocked};
pub use frame::{FrameWriter, BLOCK_EVENTS, MAX_BLOCK_EVENTS, MAX_LOCATION_ID};
pub use index::{
    estimate_columnar_stream, index_columnar_chunks, BlockMeta, ChunkStore, StreamEstimate,
    StreamIndex,
};
pub use segment::{decode_block_kinds, decode_block_times};
pub use text::{from_text, to_text};

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
