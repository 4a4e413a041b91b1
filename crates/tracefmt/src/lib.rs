//! # tracefmt — event traces for the drift-lab workspace
//!
//! The event model, trace containers, codecs and analyses shared by the
//! `mpisim` simulator and the `clocksync` synchronisation algorithms:
//!
//! * [`ids`] — strongly typed ranks, threads, regions, tags, communicators;
//! * [`event`] — the MPI + POMP event taxonomy the paper traces;
//! * [`trace`] — per-timeline event streams with unreliable timestamps, and
//!   [`column`](mod@column) — the same timestamps as one flat columnar slab;
//! * [`analysis`] — postmortem reconstruction of messages, collective
//!   instances and parallel regions from event *order* (never timestamps);
//! * [`violation`] — clock-condition checks (paper Eq. 1) for point-to-point
//!   messages, logical messages derived from collectives, and the POMP
//!   shared-memory rules of Fig. 8;
//! * [`coll`] — the collective member table both the CLC's dependency graph
//!   and the plan-based census ([`census`]) read collectives from, beside
//!   the [`MessageTable`] they read matched messages from;
//! * [`diff`] — per-event comparison of two traces of one run;
//! * [`stats`] — Welford summaries and percentiles for the
//!   experiment tables;
//! * [`io`] — the `DTC3` binary trace codec.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
#[allow(unsafe_code)] // the AVX2 census lane, the crate's only `unsafe`
pub mod census;
pub mod coll;
pub mod column;
pub mod diff;
pub mod event;
pub mod ids;
pub mod io;
pub mod stats;
pub mod trace;
pub mod violation;

pub use analysis::{
    match_collectives, match_messages, match_parallel_regions, Capture, CollMember,
    CollectiveInstance, Matching, MessageMatch, ParallelRegion, RegionThread,
};
pub use census::{CensusPlan, MessageTable, PlanBuildError};
pub use coll::{BlockClasses, CollInstRef, CollTable, LatBlock};
pub use column::{TimeSource, TraceColumns};
pub use event::{CollFlavor, CollOp, EventKind, EventRecord};
pub use ids::{CommId, EventId, Location, Rank, RegionId, Tag, ThreadId};
pub use diff::{diff_traces, DiffError, ProcDiff, TraceDiff};
pub use stats::{percentile, Summary};
pub use trace::{ProcessTrace, Trace};
pub use violation::{
    check_collectives, check_collectives_at, check_p2p, check_p2p_messages_at, check_pomp, CollReport, LatencyTable, MinLatency,
    P2pReport, PompReport, UniformLatency, ViolatedMessage,
};
