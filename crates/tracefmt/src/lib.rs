//! # tracefmt — event traces for the drift-lab workspace
//!
//! The event model, trace containers, codecs and analyses shared by the
//! `mpisim` simulator and the `clocksync` synchronisation algorithms:
//!
//! * [`ids`] — strongly typed ranks, threads, regions, tags, communicators;
//! * [`event`] — the MPI + POMP event taxonomy the paper traces;
//! * [`trace`] — per-timeline event streams with unreliable timestamps;
//! * [`analysis`] — postmortem reconstruction of messages, collective
//!   instances and parallel regions from event *order* (never timestamps);
//! * [`violation`] — clock-condition checks (paper Eq. 1) for point-to-point
//!   messages, logical messages derived from collectives, and the POMP
//!   shared-memory rules of Fig. 8;
//! * [`coll`] — the collective member table both the CLC's dependency graph
//!   and the plan-based census ([`census`]) read collectives from;
//! * [`stats`] — Welford summaries, line fits and percentiles for the
//!   experiment tables;
//! * [`io`] — text and binary trace codecs.

#![warn(missing_docs)]

pub mod analysis;
pub mod archive;
pub mod cast;
pub mod census;
pub mod coll;
pub mod column;
pub mod diff;
pub mod event;
pub mod ids;
pub mod io;
pub mod profile;
pub mod regions;
pub mod render;
pub mod stats;
pub mod trace;
pub mod violation;

pub use analysis::{
    assemble_collective_instances, group_calls_by_comm, match_collectives, match_messages, match_parallel_regions, CollCall, CollMember,
    CollectiveInstance, CollectiveScanner, Matching, MessageMatch, MessageMatcher, ParallelRegion,
    RegionThread,
};
pub use census::{CensusPlan, PlanBuildError};
pub use coll::{BlockClasses, CollInstRef, CollTable, LatBlock};
pub use column::{TimeSource, TraceColumns};
pub use event::{CollFlavor, CollOp, EventKind, EventRecord};
pub use ids::{CommId, EventId, Location, Rank, RegionId, Tag, ThreadId};
pub use profile::{profile, KindCounts, TraceProfile};
pub use regions::RegionRegistry;
pub use archive::{read_archive, write_archive, ArchiveError};
pub use diff::{diff_traces, DiffError, ProcDiff, TraceDiff};
pub use render::{render_timeline, RenderOptions};
pub use stats::{fit_line, percentile, LineFit, Summary};
pub use trace::{ProcessTrace, Trace};
pub use violation::{
    check_collectives, check_collectives_at, check_p2p, check_p2p_messages_at, check_pomp, check_pomp_at, CollReport, LatencyTable, MinLatency,
    P2pReport, PompReport, UniformLatency, ViolatedMessage,
};
