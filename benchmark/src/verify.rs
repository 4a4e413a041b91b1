//! Output fingerprints.
//!
//! One hash for everything the benchmark pins or compares: FNV-1a-64
//! folded over 64-bit little-endian words (a timestamp is one word; a
//! byte chunk is its words, its zero-padded tail, then its length). The
//! engines are deterministic, so a job whose output hashes like the fully
//! verified reference output of the same input is itself verified —
//! monotone, violation-free, bit-identical — at a fraction of the cost of
//! decoding and re-censusing it, which keeps per-job verification small
//! beside the job.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a-64 over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    /// Fold one byte chunk: words, padded tail, length.
    pub fn chunk(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(bytes.len() as u64);
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a timestamp sequence (picoseconds, timeline-major).
pub fn of_times(times: impl Iterator<Item = i64>) -> u64 {
    let mut h = Fnv::new();
    for t in times {
        h.word(t as u64);
    }
    h.finish()
}

/// Fingerprint of a chunk list; sensitive to the chunking, which every
/// engine here produces deterministically.
pub fn of_chunks(chunks: &[Vec<u8>]) -> u64 {
    let mut h = Fnv::new();
    for c in chunks {
        h.chunk(c);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_matches_the_fnv1a_definition() {
        assert_eq!(of_times(std::iter::empty()), OFFSET);
        assert_eq!(
            of_times([5i64].into_iter()),
            (OFFSET ^ 5).wrapping_mul(PRIME)
        );
    }

    #[test]
    fn chunks_are_sensitive_to_content_length_and_chunking() {
        let a = of_chunks(&[vec![1, 2, 3]]);
        assert_ne!(a, of_chunks(&[vec![1, 2, 4]]));
        assert_ne!(a, of_chunks(&[vec![1, 2, 3, 0]]));
        assert_ne!(
            of_chunks(&[vec![1; 16]]),
            of_chunks(&[vec![1; 8], vec![1; 8]])
        );
        assert_eq!(a, of_chunks(&[vec![1, 2, 3]]));
    }
}
