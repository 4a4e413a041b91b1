//! # clocksync — postmortem timestamp synchronisation
//!
//! The algorithmic content of *"Implications of non-constant clock drifts
//! for the timestamps of concurrent events"* (Becker, Rabenseifner, Wolf —
//! CLUSTER 2008):
//!
//! * [`offset`] — Cristian's probabilistic offset estimation from probe
//!   round trips (paper Eq. 2, min-round-trip filtered);
//! * [`interp`] — offset alignment, Eq. 3 linear offset interpolation, and
//!   the piecewise-linear generalisation;
//! * [`clc`] — the Controlled Logical Clock with forward and backward
//!   amortization and the collective → point-to-point mapping extension,
//!   also lowered for OpenMP thread teams and clock domains;
//! * [`baselines`] — Duda regression & convex hull, Hofmann min/max,
//!   Jézéquel spanning trees, Babaoğlu/Drummond full-exchange bounds;
//! * [`pipeline`] — the recommended chain: linear interpolation for weak
//!   pre-synchronisation, then the CLC for the residual violations;
//! * [`predict`] — analytical violation-probability model (Brownian-bridge
//!   residuals of interpolated random-walk wander), validated against the
//!   simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod clc;
pub mod interp;
pub mod offset;
pub mod pipeline;
pub mod predict;

pub use baselines::{AffineMap, Corridor};
pub use clc::domains::{controlled_logical_clock_with_domains, domain_misalignment};
pub use clc::graph::DepGraph;
pub use clc::pomp::{controlled_logical_clock_pomp, pomp_constraints};
pub use clc::{
    controlled_logical_clock, ClcError, ClcParams, ClcReport, Jump,
};
pub use interp::{
    apply_maps, IdentityMap, LinearInterpolation, OffsetAlignment, PiecewiseInterpolation,
    TimestampMap,
};
pub use offset::{estimate_offset, OffsetMeasurement, ProbeSample};
pub use pipeline::{
    synchronize, synchronize_stream, synchronize_stream_incremental,
    synchronize_stream_incremental_with_sink, CancelProbe, CancelToken, IncrementalReport,
    OnlineSpec, PipelineConfig, PipelineError, PipelineReport, PipelineStats, PreSync,
    StageReport, StageStats, StageTotals, SyncMethod, TraceAnalysis,
};
pub use predict::{normal_cdf, safe_run_length, violation_probability, WanderModel};
