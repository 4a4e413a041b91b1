//! The decoding reader: the frame walk with each block's body decoded into
//! a [`TraceBuilder`].

use super::frame::{Block, ColumnarVersion, Unit, Walk};
use super::{segment, CodecError};
use crate::column::TraceColumns;
use crate::event::EventRecord;
use crate::ids::Location;
use crate::trace::{ProcessTrace, Trace};
use bytes::Bytes;
use simclock::Time;

/// Incremental decoder for the columnar format.
///
/// Feed byte chunks of any size as they arrive; every frame a chunk
/// completes is decoded straight into the builder. Only the bytes of the
/// one incomplete trailing frame are buffered, so memory stays bounded by
/// the block size regardless of trace length:
///
/// ```
/// use tracefmt::io::{to_binary_columnar, StreamDecoder, TraceBuilder};
/// # use tracefmt::{Trace, EventKind, RegionId};
/// # use simclock::Time;
/// # let mut trace = Trace::for_ranks(1);
/// # trace.procs[0].push(Time::from_us(1), EventKind::Enter { region: RegionId(0) });
/// let encoded = to_binary_columnar(&trace);
/// let mut dec = StreamDecoder::new();
/// let mut builder = TraceBuilder::new();
/// for chunk in encoded.chunks(64 * 1024) {
///     dec.feed_into(chunk, &mut builder)?;
/// }
/// dec.finish()?;
/// let (decoded, columns) = builder.finish_parts();
/// # assert_eq!(decoded.n_events(), trace.n_events());
/// # assert_eq!(columns.n_events(), 1);
/// # Ok::<(), tracefmt::io::CodecError>(())
/// ```
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    pos: usize,
    walk: Walk,
}

impl StreamDecoder {
    /// Fresh decoder expecting the stream magic first.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// The wire version negotiated from the stream magic (None until the
    /// first four bytes arrive).
    pub fn version(&self) -> Option<ColumnarVersion> {
        self.walk.version
    }

    /// Bytes buffered but not yet decoded (the incomplete trailing unit).
    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Timeline blocks decoded so far.
    pub fn blocks_decoded(&self) -> u64 {
        self.walk.blocks
    }

    /// Has the end-of-stream trailer been seen?
    pub fn is_finished(&self) -> bool {
        self.walk.finished
    }

    /// Feed the next chunk, decoding completed frames straight into
    /// `builder`. A chunk that starts on a frame boundary (the common case
    /// for any reasonable chunk size) is scanned in place without being
    /// copied into the decoder's buffer.
    ///
    /// After an error the decoder is poisoned — the stream is corrupt and
    /// further feeding is not meaningful.
    pub fn feed_into(
        &mut self,
        mut chunk: &[u8],
        builder: &mut TraceBuilder,
    ) -> Result<(), CodecError> {
        // A partial unit is buffered: top the buffer up only to that
        // unit's end (never the whole chunk), drain it, and leave the
        // rest of the chunk for the in-place scan below. The buffer thus
        // never holds more than one frame.
        while !self.buffered().is_empty() && !chunk.is_empty() {
            let wanted = self.walk.peek(self.buffered())?.len();
            let take = wanted.saturating_sub(self.buffered().len()).clamp(1, chunk.len());
            self.buf.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            // Take the buffer out so `scan` may borrow both it and `self`.
            let data = std::mem::take(&mut self.buf);
            let res = self.scan(&data[self.pos..], builder);
            self.buf = data;
            self.pos += res?;
            if self.pos >= self.buf.len() {
                self.buf.clear();
                self.pos = 0;
            }
        }
        if !chunk.is_empty() {
            // Zero-copy path: the chunk starts on a unit boundary — scan
            // it in place and buffer only the trailing partial unit.
            self.buf.clear();
            self.pos = 0;
            let consumed = self.scan(chunk, builder)?;
            self.buf.extend_from_slice(&chunk[consumed..]);
        }
        Ok(())
    }

    /// Walk `data` over its complete units, decoding each block into
    /// `builder`. Returns the number of bytes consumed — always a unit
    /// boundary; the caller buffers the remainder until more bytes arrive.
    fn scan(&mut self, data: &[u8], builder: &mut TraceBuilder) -> Result<usize, CodecError> {
        let mut pos = 0usize;
        loop {
            let avail = &data[pos..];
            let unit = self.walk.peek(avail)?;
            match &unit {
                Unit::Short(_) => break,
                Unit::Block(block) => match avail.get(..block.len()) {
                    Some(frame) => builder.push_frame(block, frame)?,
                    None => break,
                },
                Unit::Magic(_) | Unit::Trailer => {}
            }
            pos += self.walk.advance(&unit);
        }
        Ok(pos)
    }

    /// Declare end of stream. Errors with [`CodecError::Truncated`] unless
    /// the end-of-stream trailer was decoded — any stream cut mid-frame,
    /// between frames, or before the trailer is reported here — and with
    /// the after-trailer verdict when bytes too few to judge earlier
    /// follow it.
    pub fn finish(self) -> Result<(), CodecError> {
        self.walk.end(self.buffered())
    }
}

/// Accumulates decoded block frames into a trace (and its timestamp
/// columns), merging blocks of the same location in arrival order — the
/// inverse of the encoder's block split.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
    /// Per timeline, its timestamps in picoseconds.
    cols: Vec<Vec<i64>>,
    index: std::collections::HashMap<Location, usize>,
}

impl TraceBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Index of the timeline for `location`, created on first sight
    /// (timelines keep first-seen order).
    fn timeline(&mut self, location: Location) -> usize {
        *self.index.entry(location).or_insert_with(|| {
            self.trace.procs.push(ProcessTrace::new(location));
            self.cols.push(Vec::new());
            self.trace.procs.len() - 1
        })
    }

    /// Decode one block frame's segments straight into its timeline: the
    /// timestamp segment in bulk into the column, then the records off the
    /// freshly decoded tail; nothing is allocated per block.
    fn push_frame(&mut self, block: &Block, frame: &[u8]) -> Result<(), CodecError> {
        let (times, payload) = frame[block.times_at..].split_at(block.n_events * 8);
        let p = self.timeline(block.location);
        let events = &mut self.trace.procs[p].events;
        events.reserve(block.n_events);
        let col = &mut self.cols[p];
        let start = col.len();
        segment::decode_block_times(block.version, times, col);
        let times = &col[start..];
        segment::for_each_kind(block.version, payload, block.n_events, |i, kind| {
            events.push(EventRecord::new(Time::from_ps(times[i]), kind));
        })
    }

    /// Finish into a plain trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Finish into the trace plus its gathered timestamp columns — the
    /// ready-to-run input of the columnar pipeline, produced during decode
    /// with no separate gather pass.
    pub fn finish_parts(self) -> (Trace, TraceColumns) {
        (self.trace, TraceColumns::from_columns(&self.cols))
    }
}

/// Decode the columnar format — v2 or v3, negotiated from the magic — in
/// one call (convenience wrapper around [`StreamDecoder`] +
/// [`TraceBuilder`]).
pub fn from_binary_columnar(buf: Bytes) -> Result<Trace, CodecError> {
    let mut dec = StreamDecoder::new();
    let mut builder = TraceBuilder::new();
    dec.feed_into(&buf, &mut builder)?;
    dec.finish()?;
    Ok(builder.finish())
}
