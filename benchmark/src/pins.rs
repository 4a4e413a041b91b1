//! Output fingerprints pinned for seed 2008.
//!
//! `BENCHMARK.json` admits only the driver contract's keys, so the pins
//! live here. A pin is the FNV-1a-64 word fingerprint (`verify::of_times`)
//! of every corrected timestamp of one input's first job. A change that
//! moves one changed the *output* of a CLC workload, which no perf or
//! simplicity PR may do; `online_churn` pins nothing because ROADMAP
//! item 4 is meant to change its output.

/// The seed the pins belong to.
pub const SEED: u64 = 2008;

/// `(input label, fingerprint)`.
pub const PINS: &[(&str, u64)] = &[
    ("pop_batch", 0x17b2_5b90_f65e_c2fd),
    ("stream_windowed", 0x7fa1_cb7c_455d_90b5),
    ("net_mixed/small", 0x239c_b0c3_0508_15ed),
    ("net_mixed/large", 0x268b_b371_cdd3_997d),
];
