//! # onlinesync — model-based *online* clock synchronization
//!
//! Everything else in this workspace corrects traces *after* the run:
//! linear interpolation fits one line through the init/finalize offset
//! probes, and the CLC repairs the residual violations postmortem. The
//! paper's core finding — drift is **not** constant — means the single
//! line is wrong in the middle of any long run. This crate supplies the
//! missing baseline: drift tracked *during* the run by a recursive
//! per-pair filter, in the spirit of Freris/Borkar/Kumar
//! (arXiv:1311.6914), so each timestamp is corrected with the model state
//! that was current when the event happened.
//!
//! * [`filter`] — [`DriftKalman`]: a 2-state (offset, drift) Kalman filter
//!   updated from two-way Cristian probe exchanges, with RTT-derived
//!   measurement noise. Numerically defensive: the state is guaranteed
//!   finite after every operation.
//! * [`corrector`] — [`OnlineLane`] / [`OnlineCorrector`]: map raw
//!   per-timeline timestamps through the current filter state as events
//!   arrive, interleaving probe updates by worker time; corrected output
//!   is guaranteed monotone per timeline when the raw input is.
//! * [`network`] — [`ClockNetwork`]: dynamic clock topologies. Nodes
//!   join/leave mid-trace, the sync spanning tree is recomputed on every
//!   churn event (Pabico, arXiv:1506.07584), clusters form per-cluster
//!   NTP islands, and probes to the reference node compose along the
//!   tree path (WAN hops are noisier than LAN hops).
//!
//! The pipeline in `clocksync` consumes this crate through
//! `SyncMethod::Online`; the `workloads` crate turns [`ClockNetwork`]
//! scenarios into ordinary traces every engine can chew on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrector;
pub mod filter;
pub mod network;

pub use corrector::{OnlineCorrector, OnlineLane};
pub use filter::{DriftKalman, KalmanParams, OffsetMeasurement, ProbeFix};
pub use network::{ChurnEvent, ChurnKind, ClockNetwork, NetworkConfig, TreeEpoch};
