//! # simsched — deterministic simulation testing for `syncd`
//!
//! A VOPR-style harness (in the TigerBeetle sense: *Viewstamped
//! Operation Replicator* — seeded chaos with full replayability) for the
//! multi-tenant synchronization service:
//!
//! * [`rt::SimRuntime`] — `syncd`'s clock seam over a
//!   [`simclock::VirtualClock`]; deadlines, backoff, and latency advance
//!   only on simulated ticks.
//! * [`workload`] — seeded job mixes: trace and stream inputs, byte-level
//!   poisoning, priorities, deadlines, retry budgets.
//! * [`harness`] — the scheduler: every run is a seed; every scheduling
//!   choice (which executor steps, which checkpoint a fault fires at,
//!   when the clock moves, when shutdown begins) is drawn from the
//!   seeded PRNG and recorded as a [`decision::Decision`].
//! * [`invariant`] — checks after every step (budget conservation, gauge
//!   ground-truthing, job-population conservation) and at quiescence (no
//!   lost jobs, counter reconciliation, and bit-identity of every
//!   completed job against a direct pipeline call on the same input).
//! * [`shrink`] — failing schedules shrink to a minimal decision prefix;
//!   the `(seed, prefix)` pair replays the failure exactly.
//! * [`netchaos`] — seeded *connection*-fault campaigns against the
//!   network layer over an in-memory transport: fragmented reads, slow
//!   senders, mid-stream disconnects in both directions, corrupted
//!   sessions — checked for leak-freedom, crash-freedom, well-formed
//!   replies, and bit-identity of the clean sessions in the mix.
//! * `vopr` — the campaign binary:
//!   `cargo run -p simsched --bin vopr -- --seeds 2000`.
//!
//! ```
//! use simsched::{run_random, replay, SimConfig};
//!
//! let cfg = SimConfig { jobs: 4, max_decisions: 60, ..SimConfig::default() };
//! let rec = run_random(42, &cfg);
//! assert!(rec.violation.is_none());
//! // Same seed + same decisions = the same run, bit for bit.
//! let rep = replay(42, &cfg, &rec.decisions);
//! assert_eq!(rep.fingerprint, rec.fingerprint);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod harness;
pub mod invariant;
pub mod netchaos;
pub mod rt;
pub mod shrink;
pub mod workload;

pub use decision::{decode_trace, encode_trace, Decision, FaultOp, TraceError};
pub use harness::{install_quiet_crash_hook, replay, run_random, SimConfig, SimReport};
pub use invariant::Violation;
pub use netchaos::{run_net_chaos, NetChaosConfig, NetChaosReport};
pub use rt::SimRuntime;
pub use shrink::{shrink_prefix, Shrunk};
