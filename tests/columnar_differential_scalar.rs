//! The same one-shot vs streamed differential matrix as
//! `columnar_differential.rs`, but
//! with the AVX2 census kernels disabled via `TRACEFMT_NO_AVX2`, so the
//! scalar fallbacks are what must stay bit-identical. This is its own
//! test binary because the CPU-feature probe is cached process-wide on
//! first use — the override must be set before any census kernel runs.

mod common;

#[test]
fn v3_streamed_ingest_is_bit_identical_on_scalar_kernels() {
    // Set before any census/CLC kernel has run in this process, on the
    // only thread alive this early in the test binary.
    std::env::set_var("TRACEFMT_NO_AVX2", "1");
    common::ingest_differential_matrix();
}
