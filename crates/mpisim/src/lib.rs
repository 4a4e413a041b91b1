//! # mpisim — simulated MPI runtime and OpenMP model
//!
//! Executes message-passing [`program`]s on a simulated cluster
//! ([`runtime::Cluster`]) while tracing events with local-clock timestamps,
//! exactly as a PMPI-instrumented application would:
//!
//! * [`program`] — the rank-script DSL (compute, send/recv, collectives,
//!   tracing switches) used by the workload generators;
//! * [`runtime`] — the conservative rank-stepping scheduler, eager sends
//!   with non-overtaking channels, and the PMPI-style tracer;
//! * [`collective`] — binomial-tree / dissemination timing of collective
//!   operations (reproducing the paper's Table II allreduce latency);
//! * [`probe`] — Cristian round-trip simulation for offset measurement
//!   (paper Eq. 2);
//! * [`shmem`] — the OpenMP/POMP parallel-for model behind Figs. 3 and 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod probe;
pub mod program;
pub mod runtime;
pub mod shmem;

pub use collective::{schedule_collective, CollTuning, PairwiseLatency};
pub use probe::{probe_all_workers, probe_worker, ProbeRound, ProbeSession};
pub use program::{regions, MpiOp, Program, RankProgram, ReqId};
pub use runtime::{run, Cluster, RunOptions, RunOutput, RunStats, SimError};
pub use shmem::{run_parallel_for, OmpConfig, OmpTimings, ThreadPlacement};
