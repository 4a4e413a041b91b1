//! Deterministic fault injection for `DTC3` byte streams.
//!
//! The service's robustness claims ("a poisoned job fails typed
//! and never takes the service down") need poisoned inputs on demand. A
//! [`FaultInjector`] corrupts an encoded stream at absolute byte offsets
//! — truncation, bit flips, dropped chunks — so tests and the demo can
//! produce the same broken stream every run.

/// One corruption applied to the concatenated byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Cut the stream at absolute byte offset `at` (everything from `at`
    /// on, including later chunks, is dropped).
    Truncate {
        /// Absolute byte offset of the cut.
        at: usize,
    },
    /// XOR the byte at absolute offset `at` with `xor` (no-op if the
    /// offset is past the end or `xor == 0`).
    FlipByte {
        /// Absolute byte offset of the flipped byte.
        at: usize,
        /// Mask XOR-ed into that byte.
        xor: u8,
    },
    /// Remove the chunk at `index` entirely (no-op if out of range).
    DropChunk {
        /// Chunk index in the original chunk list.
        index: usize,
    },
}

/// An ordered list of [`Fault`]s applied to a chunked stream.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    faults: Vec<Fault>,
}

impl FaultInjector {
    /// No faults yet.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Append one fault (applied in insertion order).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Apply every fault to `chunks`, preserving the chunk structure of
    /// whatever survives. Byte offsets are over the concatenation of the
    /// *current* intermediate stream, so stacked faults compose the way
    /// they read.
    pub fn apply(&self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = chunks.to_vec();
        for fault in &self.faults {
            match *fault {
                Fault::DropChunk { index } => {
                    if index < out.len() {
                        out.remove(index);
                    }
                }
                Fault::FlipByte { at, xor } => {
                    let mut base = 0usize;
                    for chunk in out.iter_mut() {
                        if at < base + chunk.len() {
                            chunk[at - base] ^= xor;
                            break;
                        }
                        base += chunk.len();
                    }
                }
                Fault::Truncate { at } => {
                    let mut base = 0usize;
                    let mut keep = 0usize;
                    for chunk in out.iter_mut() {
                        if at <= base {
                            break;
                        }
                        let end = base + chunk.len();
                        if at < end {
                            chunk.truncate(at - base);
                        }
                        base = end;
                        keep += 1;
                    }
                    out.truncate(keep);
                    out.retain(|c| !c.is_empty());
                }
            }
        }
        out
    }
}

/// Split `bytes` into chunks of `chunk_size` (the last may be shorter) —
/// the shape a network reader would hand a stream job.
pub fn chunked(bytes: &[u8], chunk_size: usize) -> Vec<Vec<u8>> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    bytes.chunks(chunk_size).map(<[u8]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<Vec<u8>> {
        chunked(&(0u8..=19).collect::<Vec<_>>(), 7)
    }

    fn flat(chunks: &[Vec<u8>]) -> Vec<u8> {
        chunks.concat()
    }

    #[test]
    fn truncate_cuts_across_chunk_boundaries() {
        let out = FaultInjector::new()
            .with(Fault::Truncate { at: 10 })
            .apply(&stream());
        assert_eq!(flat(&out), (0u8..10).collect::<Vec<_>>());
        // Chunk structure of the surviving prefix is preserved.
        assert_eq!(out[0].len(), 7);
        assert_eq!(out[1].len(), 3);
    }

    #[test]
    fn flip_targets_the_absolute_offset() {
        let out = FaultInjector::new()
            .with(Fault::FlipByte { at: 8, xor: 0xFF })
            .apply(&stream());
        let bytes = flat(&out);
        assert_eq!(bytes[8], 8 ^ 0xFF);
        assert_eq!(bytes[7], 7);
        assert_eq!(bytes[9], 9);
    }

    #[test]
    fn drop_chunk_removes_exactly_one() {
        let out = FaultInjector::new()
            .with(Fault::DropChunk { index: 1 })
            .apply(&stream());
        let mut expect: Vec<u8> = (0u8..7).collect();
        expect.extend(14u8..=19);
        assert_eq!(flat(&out), expect);
    }

    #[test]
    fn out_of_range_faults_are_noops() {
        let s = stream();
        let out = FaultInjector::new()
            .with(Fault::FlipByte { at: 999, xor: 0xAA })
            .with(Fault::DropChunk { index: 99 })
            .with(Fault::Truncate { at: 999 })
            .apply(&s);
        assert_eq!(flat(&out), flat(&s));
    }

    #[test]
    fn faults_compose_in_order() {
        // Truncate first, then flip inside the survivor.
        let out = FaultInjector::new()
            .with(Fault::Truncate { at: 5 })
            .with(Fault::FlipByte { at: 2, xor: 0x01 })
            .apply(&stream());
        assert_eq!(flat(&out), vec![0, 1, 3, 3, 4]);
    }
}
