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
//! * [`condition`] — clock-condition slack diagnostics (Eq. 1);
//! * [`lamport`] / [`vector`] — the classic logical clocks (§V);
//! * [`clc`] — the Controlled Logical Clock with forward and backward
//!   amortization and the collective → point-to-point mapping extension;
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
pub mod condition;
pub mod interp;
pub mod lamport;
pub mod offset;
pub mod pipeline;
pub mod predict;
mod stamp;
pub mod vector;

pub use baselines::{AffineMap, Corridor};
pub use clc::domains::{controlled_logical_clock_with_domains, domain_misalignment};
pub use clc::graph::DepGraph;
pub use clc::pomp::{
    controlled_logical_clock_generic, controlled_logical_clock_pomp, pomp_constraints,
    Constraint,
};
pub use clc::{
    controlled_logical_clock, ClcError, ClcParams, ClcReport, Jump,
};
pub use condition::{message_slacks, required_accuracy, slack_stats, SlackStats};
pub use interp::{
    apply_maps, IdentityMap, LinearInterpolation, OffsetAlignment, PiecewiseInterpolation,
    RegressionInterpolation, TimestampMap,
};
pub use lamport::{lamport_timestamps, satisfies_lamport_condition};
pub use offset::{estimate_offset, error_bound, OffsetMeasurement, ProbeSample};
pub use pipeline::{
    synchronize, synchronize_stream, synchronize_stream_incremental,
    synchronize_stream_incremental_with_cancel, synchronize_stream_incremental_with_sink,
    synchronize_stream_with_cancel,
    synchronize_with_cancel, CancelProbe, CancelToken, IncrementalReport, OnlineSpec,
    PipelineConfig, PipelineError, PipelineReport, PipelineStats,
    PreSync, StageReport, StageStats, StageTotals, SyncMethod, TraceAnalysis,
};
pub use predict::{normal_cdf, safe_run_length, violation_probability, WanderModel};
pub use vector::{vector_timestamps, VectorStamp};
