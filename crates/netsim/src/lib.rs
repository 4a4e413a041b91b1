//! # netsim — deterministic discrete-event cluster simulation
//!
//! The network substrate under the drift-lab MPI simulator:
//!
//! * [`engine`] — a time-ordered event queue with FIFO tie-breaking,
//! * [`topology`] — interconnect topologies (crossbar, fat-tree, 3-D torus)
//!   and rank [`Placement`] over the node/chip/core hierarchy (paper
//!   Table I),
//! * [`latency`] — hierarchical latency models with jitter, tuned to the
//!   paper's Table II (inter-node 4.29 µs, inter-chip 0.86 µs, inter-core
//!   0.47 µs on the Xeon cluster),
//! * [`rng`] — deterministic per-component RNG streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod latency;
pub mod rng;
pub mod topology;

pub use engine::EventQueue;
pub use latency::{HierarchicalLatency, LatencySpec, LoadWave};
pub use rng::{fork_seed, SeedTree};
pub use topology::{Placement, Topology};
