//! # drift-lab — non-constant clock drifts and the timestamps of concurrent events
//!
//! A full reproduction of Becker, Rabenseifner & Wolf, *"Implications of
//! non-constant clock drifts for the timestamps of concurrent events"*
//! (IEEE Cluster 2008), as a Rust workspace:
//!
//! * [`simclock`] — clock physics (drift models, NTP discipline, noise,
//!   platform profiles, hierarchical ensembles);
//! * [`netsim`] — deterministic cluster simulation (topologies, hierarchical
//!   latencies, placement);
//! * [`mpisim`] — a simulated MPI runtime with PMPI-style tracing, offset
//!   probing, and an OpenMP/POMP shared-memory model;
//! * [`tracefmt`] — the event model, trace containers, codecs, and
//!   clock-condition violation checks;
//! * [`clocksync`] — the algorithms: Cristian offset estimation (Eq. 2),
//!   linear offset interpolation (Eq. 3), the Controlled Logical Clock with
//!   amortization and collective mapping, and the synchronization pipeline;
//! * [`onlinesync`] — online synchronization: a recursive drift/offset
//!   Kalman filter over Cristian probes, a streaming timestamp corrector,
//!   and dynamic-topology clock networks (churn, NTP islands, evolving
//!   sync spanning trees);
//! * [`workloads`] — POP-like, SMG2000-like, ping-pong and OpenMP workload
//!   generators;
//! * [`experiments`] — regenerates every table and figure of the paper,
//!   with the §V survey's classic baselines;
//! * [`syncd`] — a multi-tenant synchronization *service* over the
//!   pipeline: admission control, priority scheduling, fault-isolated
//!   jobs that run once and fail typed, and a metrics registry.
//!
//! The [`prelude`] re-exports the types most programs need:
//!
//! ```
//! use drift_lab::prelude::*;
//!
//! // A 4-node Xeon cluster with drifting per-chip TSCs.
//! let shape = Platform::XeonCluster.shape(4);
//! let profile = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, 60.0);
//! let clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, 42);
//! let mut cluster = Cluster::new(
//!     Placement::one_per_node(shape, 4),
//!     Topology::Crossbar,
//!     HierarchicalLatency::xeon_infiniband(),
//!     clocks,
//!     42,
//! );
//!
//! // Trace a tiny ring program.
//! let prog = Program::build(4, |r| {
//!     let next = Rank((r.0 + 1) % 4);
//!     let prev = Rank((r.0 + 3) % 4);
//!     RankProgram::new()
//!         .compute(Dur::from_us(100))
//!         .send(next, Tag(0), 64)
//!         .recv(prev, Tag(0))
//! });
//! let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
//! assert_eq!(out.stats.messages, 4);
//!
//! // Check the clock condition and repair any violations with the CLC.
//! let mut trace = out.trace;
//! let lmin = UniformLatency(Dur::from_us(4));
//! controlled_logical_clock(&mut trace, &lmin, &ClcParams::default()).unwrap();
//! let matching = match_messages(&trace);
//! assert!(check_p2p(&trace, &matching, &lmin).violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use clocksync;
pub use experiments;
pub use mpisim;
pub use netsim;
pub use onlinesync;
pub use simclock;
pub use syncd;
pub use syncd_client;
pub use syncd_wire;
pub use tracefmt;
pub use workloads;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use clocksync::{
        controlled_logical_clock, estimate_offset, synchronize, ClcParams, LinearInterpolation, OffsetAlignment, OffsetMeasurement,
        PipelineConfig, PreSync, ProbeSample, SyncMethod, TimestampMap,
    };
    pub use onlinesync::{ClockNetwork, DriftKalman, NetworkConfig, OnlineCorrector};
    pub use mpisim::{
        probe_all_workers, probe_worker, run, Cluster, MpiOp, OmpConfig, Program, RankProgram,
        RunOptions, ThreadPlacement,
    };
    pub use netsim::{HierarchicalLatency, Placement, Topology};
    pub use simclock::{
        ClockDomain, ClockEnsemble, ClockProfile, Dur, MachineShape, Platform, SimClock, Time,
        TimerKind,
    };
    pub use tracefmt::{
        check_collectives, check_p2p, check_pomp, match_collectives, match_messages,
        match_parallel_regions, CollOp, CommId, EventKind, Rank, RegionId, Tag, Trace,
        UniformLatency,
    };
    pub use workloads::{PopConfig, SmgConfig};
}
