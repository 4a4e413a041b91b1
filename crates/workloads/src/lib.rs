//! # workloads — synthetic application twins for the drift-lab experiments
//!
//! Generators reproducing the communication signatures of the paper's
//! evaluation applications:
//!
//! * [`pop`] — POP-like 2-D ocean stencil (halo exchanges + barotropic
//!   allreduce series, partial tracing of a mid-run window);
//! * [`smg`] — SMG2000-like semi-coarsening multigrid (non-nearest-neighbor
//!   exchanges at distance `2^level`, sleep padding around the solve);
//! * [`pingpong`] — the latency measurements behind Table II;
//! * [`sweep`] — Sweep3D-like wavefront pipelines (the CLC stress case);
//! * [`openmp`] — the parallel-for benchmark behind Figs. 3 and 8;
//! * [`p2p`] — random point-to-point traffic through constant clock skews
//!   (the fixture of the kernel benches and the service campaigns);
//! * [`churn`] — dynamic-membership scenarios over an `onlinesync`
//!   [`ClockNetwork`](onlinesync::ClockNetwork): NTP islands, WAN links,
//!   join/leave churn, and per-node Cristian probe schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod openmp;
pub mod p2p;
pub mod pingpong;
pub mod pop;
pub mod smg;
pub mod sweep;

pub use churn::{churn_scenario, ChurnScenario, ProbeMeasurement};
pub use openmp::{placement_ablation, run_benchmark, violation_sweep, OmpViolationRow};
pub use p2p::skewed_p2p;
pub use pingpong::{measure_allreduce_latency, measure_p2p_latency, LatencyMeasurement};
pub use pop::PopConfig;
pub use smg::SmgConfig;
pub use sweep::SweepConfig;
