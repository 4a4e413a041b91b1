//! # simclock — clock physics for the drift-lab cluster simulator
//!
//! This crate models everything the CLUSTER 2008 paper *"Implications of
//! non-constant clock drifts for the timestamps of concurrent events"*
//! (Becker, Rabenseifner, Wolf) says about processor clocks:
//!
//! * fixed-point [`Time`]/[`Dur`] arithmetic shared by the whole workspace,
//! * [`drift`] models — constant, piecewise-linear, thermal sinusoid,
//!   random-walk wander, and compositions thereof,
//! * an [`ntp`] discipline whose slew adjustments produce the abrupt
//!   "turning points" of the paper's Fig. 4,
//! * per-read measurement [`noise`] (resolution, OS jitter, read overhead),
//! * the [`SimClock`] itself and hierarchical [`ensemble`]s of clocks over a
//!   [`MachineShape`],
//! * [`platform`] profiles with parameters tuned to reproduce the paper's
//!   Xeon, PowerPC, Opteron and Itanium measurements.
//!
//! ```
//! use simclock::{Platform, TimerKind, ClockDomain, ClockEnsemble, Time};
//!
//! let shape = Platform::XeonCluster.shape(4);
//! let profile = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, 300.0);
//! let mut clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, 42);
//! let reading = clocks.read(shape.core(0, 0, 0), Time::from_secs(10));
//! assert!(reading > Time::ZERO || reading <= Time::ZERO); // some local time
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod drift;
pub mod ensemble;
pub mod noise;
pub mod ntp;
pub mod platform;
pub mod stability;
pub mod time;
pub mod virt;

pub use clock::{SimClock, TimerKind};
pub use drift::{
    gaussian, CompositeDrift, ConstantDrift, DriftModel, PiecewiseLinearDrift, RandomWalkDrift,
    SinusoidalDrift,
};
pub use ensemble::{ClockDomain, ClockEnsemble, CoreId, Locality, MachineShape};
pub use noise::{NoiseSpec, ReadNoise};
pub use ntp::NtpDiscipline;
pub use platform::{ClockProfile, Platform};
pub use stability::{allan_deviation, sample_phase};
pub use time::{round_ties_away, Dur, Time};
pub use virt::VirtualClock;
