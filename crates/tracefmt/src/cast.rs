//! Alignment-checked reinterpretation of byte runs as `i64` columns.
//!
//! The DTC3 wire format stores its timestamp segments as 8-byte-aligned
//! little-endian `i64` runs precisely so an ingest path can treat the raw
//! bytes *as* the column: on a little-endian target, when the segment's
//! address is 8-aligned (guaranteed for a page-aligned mmap because the
//! encoder pads every segment to an 8-aligned stream offset), copying it
//! into an `i64` column is one `memcpy` — no per-element decode at all.
//!
//! The cast is a shim rather than a dependency: `i64` accepts every bit
//! pattern, so the only soundness obligations are alignment and length,
//! both checked here. When either check fails (a `Vec<u8>` chunk buffer
//! has no alignment guarantee) the fallback decodes via
//! `i64::from_le_bytes`, which the compiler lowers to unaligned loads with
//! no byte-swap on little-endian targets — still far cheaper than the
//! big-endian per-element path.

/// View `bytes` as a little-endian `i64` slice without copying.
///
/// Returns `None` unless all of the following hold: the target is
/// little-endian (so the in-memory representation *is* the wire
/// representation), the pointer is 8-aligned, and the length is a multiple
/// of 8. Callers must treat `None` as "decode element-wise", never as an
/// error.
#[inline]
pub fn as_i64_slice_le(bytes: &[u8]) -> Option<&[i64]> {
    if cfg!(target_endian = "little")
        && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<i64>())
        && bytes.len().is_multiple_of(std::mem::size_of::<i64>())
    {
        // SAFETY: the pointer is 8-aligned and the length is a multiple of
        // 8 (checked above); `i64` has no invalid bit patterns; the
        // returned slice borrows `bytes`, so the usual borrow rules keep
        // the memory alive and unaliased for writes.
        Some(unsafe {
            std::slice::from_raw_parts(bytes.as_ptr().cast::<i64>(), bytes.len() / 8)
        })
    } else {
        None
    }
}

/// Write a little-endian `i64` run over `dst`: one bulk copy when
/// [`as_i64_slice_le`] applies, an element-wise unaligned-load loop
/// otherwise. `bytes.len()` must be `8 * dst.len()`.
#[inline]
pub fn copy_i64_from_le_bytes(dst: &mut [i64], bytes: &[u8]) {
    assert_eq!(bytes.len(), 8 * dst.len(), "one 8-byte word per value");
    match as_i64_slice_le(bytes) {
        Some(run) => dst.copy_from_slice(run),
        None => {
            for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(8)) {
                *d = i64::from_le_bytes(c.try_into().expect("exact chunk"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_cast_and_fallback_agree() {
        let values: Vec<i64> = (0..64).map(|i| i * 0x0101_0101_0101 - 7).collect();
        let mut bytes = Vec::new();
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        // Whatever the buffer's alignment, the decoded values must match.
        let mut out = vec![0; values.len()];
        copy_i64_from_le_bytes(&mut out, &bytes);
        assert_eq!(out, values);
        // Deliberately misaligned view: the cast must refuse, the fallback
        // must still decode the shifted values correctly.
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(&bytes);
        let mis = &shifted[1..];
        if !(mis.as_ptr() as usize).is_multiple_of(8) {
            assert!(as_i64_slice_le(mis).is_none());
        }
        let mut out2 = vec![0; values.len()];
        copy_i64_from_le_bytes(&mut out2, mis);
        assert_eq!(out2, values);
    }

    #[test]
    fn cast_rejects_ragged_lengths() {
        let bytes = [0u8; 12];
        assert!(as_i64_slice_le(&bytes[..12]).is_none());
    }

    #[test]
    fn aligned_vec_gets_the_zero_copy_path() {
        // A Vec<i64>'s own storage is 8-aligned by construction, so viewing
        // its bytes must take the cast path on little-endian targets.
        let values: Vec<i64> = vec![1, -2, 3];
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 8)
        };
        if cfg!(target_endian = "little") {
            assert_eq!(as_i64_slice_le(bytes), Some(values.as_slice()));
        } else {
            assert!(as_i64_slice_le(bytes).is_none());
        }
    }
}
