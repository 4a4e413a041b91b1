//! # clocksync — postmortem timestamp synchronisation
//!
//! The algorithmic content of *"Implications of non-constant clock drifts
//! for the timestamps of concurrent events"* (Becker, Rabenseifner, Wolf —
//! CLUSTER 2008):
//!
//! * [`offset`] — Cristian's probabilistic offset estimation from probe
//!   round trips (paper Eq. 2, min-round-trip filtered);
//! * [`interp`] — offset alignment and Eq. 3 linear offset interpolation;
//! * [`clc`] — the Controlled Logical Clock with forward and backward
//!   amortization and the collective → point-to-point mapping extension,
//!   also lowered for OpenMP thread teams;
//! * [`pipeline`] — the recommended chain: linear interpolation for weak
//!   pre-synchronisation, then the CLC for the residual violations.
//!
//! The crate ships what a synchronizer runs. The paper's §V comparison
//! (the classic baselines) and the extensions only the evaluation calls
//! (the clock-domain CLC, the violation-probability model) live in the
//! `experiments` crate's `survey` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clc;
pub mod interp;
pub mod offset;
pub mod pipeline;

pub use clc::graph::DepGraph;
pub use clc::pomp::{controlled_logical_clock_pomp, pomp_constraints};
pub use clc::{
    controlled_logical_clock, ClcError, ClcParams, ClcReport, Jump,
};
pub use interp::{apply_maps, IdentityMap, LinearInterpolation, OffsetAlignment, TimestampMap};
pub use offset::{estimate_offset, OffsetMeasurement, ProbeSample};
pub use pipeline::{
    synchronize, synchronize_stream, synchronize_stream_incremental,
    synchronize_stream_incremental_with_sink, CancelProbe, CancelToken, IncrementalReport,
    OnlineSpec, PipelineConfig, PipelineError, PipelineReport, PipelineStats, PreSync,
    StageReport, StageStats, StageTotals, SyncMethod, TraceAnalysis,
};
