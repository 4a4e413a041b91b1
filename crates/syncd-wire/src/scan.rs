//! Incremental frame scanning over arbitrarily-chunked byte streams.
//!
//! Sockets deliver bytes in whatever chunks the kernel felt like; frames
//! do not align with reads. [`FrameScanner`] scans every *complete* frame
//! inside a fed chunk **in place** (the payload slice handed to the callback
//! borrows straight from the caller's buffer — no intermediate copy), and
//! at most one *incomplete* trailing frame is buffered across calls. The
//! buffer never grows past one frame, and a frame header declaring more
//! than [`crate::MAX_FRAME_PAYLOAD`] bytes is rejected before any
//! buffering, so hostile peers cannot inflate resident memory.

use crate::frame::{Frame, WireError};
use crate::MAX_FRAME_PAYLOAD;

/// The per-frame callback `FrameScanner::feed_raw` drives: receives
/// `(kind, payload)` for every complete frame; an `Err` aborts the scan.
type RawFrameEmit<'a> = dyn FnMut(u8, &[u8]) -> Result<(), WireError> + 'a;

/// Streaming frame boundary scanner. See the module docs.
#[derive(Debug, Default)]
pub struct FrameScanner {
    /// Bytes of the one incomplete frame carried across `feed` calls
    /// (length prefix included). Empty ⇔ the stream is at a frame
    /// boundary.
    partial: Vec<u8>,
    /// Complete frames scanned so far.
    frames: u64,
    /// Total bytes consumed so far.
    consumed: u64,
}

/// Validate a frame header's declared length: `len` counts the kind byte
/// plus payload, so it must cover at least the kind byte and stay within
/// the protocol bound. Returns the payload length (kind byte excluded).
fn check_len(declared: u32) -> Result<usize, WireError> {
    let declared = declared as usize;
    if declared == 0 || declared > 1 + MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized { declared: declared as u64 });
    }
    Ok(declared - 1)
}

impl FrameScanner {
    /// A scanner at a frame boundary.
    pub fn new() -> FrameScanner {
        FrameScanner::default()
    }

    /// Complete frames scanned so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total bytes consumed so far (both complete and buffered).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Scan `chunk`, invoking `emit(kind, payload)` for every complete
    /// frame. Payload slices borrow from `chunk` (or from the internal
    /// partial buffer when a frame straddled a chunk seam). A typed error
    /// from the scanner or from `emit` aborts the scan; the scanner must
    /// not be fed again after an error.
    fn feed_raw(
        &mut self,
        chunk: &[u8],
        emit: &mut RawFrameEmit<'_>,
    ) -> Result<(), WireError> {
        self.consumed += chunk.len() as u64;
        let mut rest = chunk;

        // Stage 1: complete the straddling frame, if any.
        if !self.partial.is_empty() {
            // First make the header whole so the declared length is known
            // (and bounded) before buffering any payload.
            if self.partial.len() < 4 {
                let need = 4 - self.partial.len();
                let take = need.min(rest.len());
                self.partial.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if self.partial.len() < 4 {
                    return Ok(());
                }
                check_len(u32::from_le_bytes(self.partial[..4].try_into().unwrap()))?;
            }
            let declared =
                u32::from_le_bytes(self.partial[..4].try_into().unwrap()) as usize;
            let need = 4 + declared - self.partial.len();
            let take = need.min(rest.len());
            self.partial.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.partial.len() < 4 + declared {
                return Ok(());
            }
            self.frames += 1;
            emit(self.partial[4], &self.partial[5..])?;
            self.partial.clear();
        }

        // Stage 2: scan complete frames in place.
        while rest.len() >= 5 {
            let declared = u32::from_le_bytes(rest[..4].try_into().unwrap());
            check_len(declared)?;
            let total = 4 + declared as usize;
            if rest.len() < total {
                break;
            }
            self.frames += 1;
            emit(rest[4], &rest[5..total])?;
            rest = &rest[total..];
        }

        // Stage 3: buffer the incomplete tail (if its header is whole,
        // bound-check it first so we never buffer toward an absurd length).
        if !rest.is_empty() {
            if rest.len() >= 4 {
                check_len(u32::from_le_bytes(rest[..4].try_into().unwrap()))?;
            }
            self.partial.extend_from_slice(rest);
        }
        Ok(())
    }

    /// Scan `chunk` and decode every complete frame in it to its typed
    /// form. The scanner must not be fed again after an error.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<Frame>, WireError> {
        let mut out = Vec::new();
        self.feed_raw(chunk, &mut |kind, payload| {
            out.push(Frame::decode(kind, payload)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Declare end of stream: typed [`WireError::Truncated`] unless the
    /// stream ended exactly at a frame boundary.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.partial.is_empty() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ErrorCode, WireJump};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { magic: crate::MAGIC, version: 1, token: "t0".into() },
            Frame::Credit { grant: 8192 },
            Frame::Chunk(vec![7u8; 301]),
            Frame::Jumps(vec![WireJump { proc: 1, idx: 2, size_ps: -5 }]),
            Frame::ChunkEnd,
            Frame::Error { code: ErrorCode::Cancelled, detail: "bye".into() },
        ]
    }

    fn stream(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(|f| f.encode()).collect()
    }

    #[test]
    fn every_chunking_yields_the_same_frames() {
        let frames = sample_frames();
        let bytes = stream(&frames);
        for step in 1..=bytes.len() {
            let mut scanner = FrameScanner::new();
            let mut got = Vec::new();
            for chunk in bytes.chunks(step) {
                got.extend(scanner.feed(chunk).expect("clean stream"));
            }
            assert_eq!(got, frames, "chunk size {step}");
            scanner.finish().expect("ended at boundary");
            assert_eq!(scanner.frames(), frames.len() as u64);
            assert_eq!(scanner.consumed(), bytes.len() as u64);
        }
    }

    #[test]
    fn truncation_at_every_offset_is_typed() {
        let frames = sample_frames();
        let bytes = stream(&frames);
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |at, f| {
                *at += f.encode().len();
                Some(*at)
            })
            .collect();
        for cut in 0..bytes.len() {
            let mut scanner = FrameScanner::new();
            let fed = scanner.feed(&bytes[..cut]).expect("prefix scans clean");
            let boundary = cut == 0 || ends.contains(&cut);
            match scanner.finish() {
                Ok(()) => assert!(boundary, "cut {cut}"),
                Err(WireError::Truncated) => assert!(!boundary, "cut {cut}"),
                Err(e) => panic!("cut {cut}: unexpected {e:?}"),
            }
            assert_eq!(fed.len(), ends.iter().filter(|&&end| end <= cut).count(), "cut {cut}");
        }
    }

    #[test]
    fn oversized_declared_length_rejected_before_buffering() {
        // One byte shy of a whole header, then the rest: the bound check
        // fires the moment the length field completes.
        let bad = (1 + MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes();
        let mut scanner = FrameScanner::new();
        scanner.feed(&bad[..3]).expect("incomplete header is fine");
        let err = scanner.feed(&bad[3..]).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));

        // Whole header in one chunk.
        let mut scanner = FrameScanner::new();
        assert!(matches!(
            scanner.feed(&bad).unwrap_err(),
            WireError::Oversized { .. }
        ));

        // Zero-length frames cannot even hold a kind byte.
        let mut scanner = FrameScanner::new();
        let mut zero = 0u32.to_le_bytes().to_vec();
        zero.push(9);
        assert!(matches!(
            scanner.feed(&zero).unwrap_err(),
            WireError::Oversized { declared: 0 }
        ));
    }
}
