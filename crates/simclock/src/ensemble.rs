//! Machine shape and per-core clock ensembles.
//!
//! Clusters have a hierarchy — nodes contain chips contain cores — and the
//! paper stresses that clock-synchronisation quality differs at every level
//! (§II: "it cannot be assumed that processor-local clocks within the same
//! SMP node are perfectly synchronized, as individual chips may provide
//! their own timestamp counters"). [`MachineShape`] describes the hierarchy,
//! [`ClockDomain`] says at which level clocks are shared, and
//! [`ClockEnsemble`] samples one [`SimClock`] per domain with hierarchical
//! correlation: cores on one chip share a clock exactly, chips within a node
//! differ a little, nodes differ a lot.

use crate::clock::SimClock;
use crate::drift::gaussian;
use crate::platform::ClockProfile;
use crate::time::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Geometry of a simulated machine: `nodes × chips_per_node ×
/// cores_per_chip`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineShape {
    /// Number of SMP nodes.
    pub nodes: usize,
    /// Chips (sockets) per node.
    pub chips_per_node: usize,
    /// Cores per chip.
    pub cores_per_chip: usize,
}

/// Flat index of a core within a [`MachineShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub usize);

/// Relative location of two cores in the hierarchy — the paper's Table I/II
/// distinction (inter-core, inter-chip, inter-node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Locality {
    /// Two distinct cores on the same chip.
    SameChip,
    /// Same node, different chips.
    SameNode,
    /// Different nodes.
    InterNode,
    /// The very same core.
    SameCore,
}

impl MachineShape {
    /// A machine with the given geometry.
    pub fn new(nodes: usize, chips_per_node: usize, cores_per_chip: usize) -> Self {
        assert!(nodes > 0 && chips_per_node > 0 && cores_per_chip > 0);
        MachineShape {
            nodes,
            chips_per_node,
            cores_per_chip,
        }
    }

    /// Total number of cores.
    pub fn n_cores(&self) -> usize {
        self.nodes * self.chips_per_node * self.cores_per_chip
    }

    /// Total number of chips.
    pub fn n_chips(&self) -> usize {
        self.nodes * self.chips_per_node
    }

    /// Flat core id from `(node, chip, core)` coordinates.
    pub fn core(&self, node: usize, chip: usize, core: usize) -> CoreId {
        assert!(node < self.nodes && chip < self.chips_per_node && core < self.cores_per_chip);
        CoreId((node * self.chips_per_node + chip) * self.cores_per_chip + core)
    }

    /// Node index of a core.
    pub fn node_of(&self, c: CoreId) -> usize {
        c.0 / (self.chips_per_node * self.cores_per_chip)
    }

    /// Global chip index of a core.
    pub fn chip_of(&self, c: CoreId) -> usize {
        c.0 / self.cores_per_chip
    }

    /// Relative location of two cores.
    pub fn locality(&self, a: CoreId, b: CoreId) -> Locality {
        if a == b {
            Locality::SameCore
        } else if self.chip_of(a) == self.chip_of(b) {
            Locality::SameChip
        } else if self.node_of(a) == self.node_of(b) {
            Locality::SameNode
        } else {
            Locality::InterNode
        }
    }

    /// Iterate all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.n_cores()).map(CoreId)
    }
}

/// At which hierarchy level clocks are shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClockDomain {
    /// One perfectly shared clock for the whole machine (Blue Gene-style
    /// global clock).
    Global,
    /// One clock per node; all chips/cores of a node read the same clock.
    PerNode,
    /// One clock per chip (the common commodity-cluster reality).
    PerChip,
    /// Fully independent per-core clocks.
    PerCore,
}

/// A family of clocks for a whole machine, sampled with hierarchical
/// correlation from a [`ClockProfile`].
pub struct ClockEnsemble {
    shape: MachineShape,
    domain: ClockDomain,
    clocks: Vec<SimClock>,
    domain_of_core: Vec<usize>,
}

impl ClockEnsemble {
    /// Sample an ensemble.
    ///
    /// Per node a base `(offset, rate)` pair is drawn from the profile's
    /// node-level sigmas; per chip an additional smaller delta from the
    /// chip-level sigmas; per core an even smaller delta (one tenth of the
    /// chip sigmas). The drift path (NTP / thermal / random walk) is drawn
    /// independently per clock domain.
    pub fn build(
        shape: MachineShape,
        domain: ClockDomain,
        profile: &ClockProfile,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clocks = Vec::new();
        let mut domain_of_core = vec![0usize; shape.n_cores()];

        match domain {
            ClockDomain::Global => {
                clocks.push(SimClock::ideal());
                // every core already maps to domain 0
            }
            ClockDomain::PerNode => {
                for node in 0..shape.nodes {
                    let off = gaussian(&mut rng) * profile.node_offset_sigma_s;
                    let rate = gaussian(&mut rng) * profile.node_rate_sigma;
                    clocks.push(profile.build_clock(&mut rng, off, rate));
                    for chip in 0..shape.chips_per_node {
                        for core in 0..shape.cores_per_chip {
                            domain_of_core[shape.core(node, chip, core).0] = node;
                        }
                    }
                }
            }
            ClockDomain::PerChip => {
                for node in 0..shape.nodes {
                    let node_off = gaussian(&mut rng) * profile.node_offset_sigma_s;
                    let node_rate = gaussian(&mut rng) * profile.node_rate_sigma;
                    // Chips of a node derive their counters from the same
                    // oscillator: they share the node's drift *path* and
                    // differ only by small constant offset/rate deltas.
                    let node_drift = profile.build_node_drift(&mut rng, node_off, node_rate);
                    for chip in 0..shape.chips_per_node {
                        let off = node_off + gaussian(&mut rng) * profile.chip_offset_sigma_s;
                        let delta = gaussian(&mut rng) * profile.chip_rate_sigma;
                        let idx = clocks.len();
                        clocks.push(profile.build_clock_on(
                            &mut rng,
                            node_drift.clone(),
                            off,
                            delta,
                        ));
                        for core in 0..shape.cores_per_chip {
                            domain_of_core[shape.core(node, chip, core).0] = idx;
                        }
                    }
                }
            }
            ClockDomain::PerCore => {
                for node in 0..shape.nodes {
                    let node_off = gaussian(&mut rng) * profile.node_offset_sigma_s;
                    let node_rate = gaussian(&mut rng) * profile.node_rate_sigma;
                    let node_drift = profile.build_node_drift(&mut rng, node_off, node_rate);
                    for chip in 0..shape.chips_per_node {
                        let chip_off = node_off + gaussian(&mut rng) * profile.chip_offset_sigma_s;
                        let chip_delta = gaussian(&mut rng) * profile.chip_rate_sigma;
                        for core in 0..shape.cores_per_chip {
                            let off = chip_off
                                + gaussian(&mut rng) * profile.chip_offset_sigma_s * 0.1;
                            let delta =
                                chip_delta + gaussian(&mut rng) * profile.chip_rate_sigma * 0.1;
                            let idx = clocks.len();
                            clocks.push(profile.build_clock_on(
                                &mut rng,
                                node_drift.clone(),
                                off,
                                delta,
                            ));
                            domain_of_core[shape.core(node, chip, core).0] = idx;
                        }
                    }
                }
            }
        }

        ClockEnsemble {
            shape,
            domain,
            clocks,
            domain_of_core,
        }
    }

    /// Machine geometry.
    pub fn shape(&self) -> MachineShape {
        self.shape
    }

    /// Clock-sharing level.
    pub fn domain(&self) -> ClockDomain {
        self.domain
    }

    /// Number of distinct clocks.
    pub fn n_clocks(&self) -> usize {
        self.clocks.len()
    }

    /// Noisy, monotone reading of the clock visible to `core` at true time
    /// `t` — what a tracer on that core records. Note the clamp is per
    /// *clock*; when several cores share one clock and query out of
    /// true-time order, use [`ClockEnsemble::sample`] and clamp per reader.
    pub fn read(&mut self, core: CoreId, t: Time) -> Time {
        self.clocks[self.domain_of_core[core.0]].read(t)
    }

    /// Noisy reading without the monotonicity clamp (see
    /// [`SimClock::sample`]).
    pub fn sample(&mut self, core: CoreId, t: Time) -> Time {
        self.clocks[self.domain_of_core[core.0]].sample(t)
    }

    /// Noiseless local time of `core`'s clock at `t`.
    pub fn ideal_at(&self, core: CoreId, t: Time) -> Time {
        self.clocks[self.domain_of_core[core.0]].ideal_at(t)
    }

    /// Read-intrusion overhead of `core`'s clock.
    pub fn read_overhead(&self, core: CoreId) -> crate::time::Dur {
        self.clocks[self.domain_of_core[core.0]].read_overhead()
    }

    /// Direct access to a core's clock (e.g. for offset probing).
    pub fn clock_of_core_mut(&mut self, core: CoreId) -> &mut SimClock {
        &mut self.clocks[self.domain_of_core[core.0]]
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimerKind;
    use crate::platform::ClockProfile;

    fn tiny_profile() -> ClockProfile {
        ClockProfile::bare(TimerKind::IntelTsc)
            .with_node_spread(1e-3, 2e-6)
            .with_chip_spread(1e-6, 5e-8)
            .with_horizon(100.0)
    }

    #[test]
    fn shape_arithmetic() {
        let s = MachineShape::new(4, 2, 4);
        assert_eq!(s.n_cores(), 32);
        assert_eq!(s.n_chips(), 8);
        let c = s.core(2, 1, 3);
        assert_eq!(s.node_of(c), 2);
        assert_eq!(s.chip_of(c), 5);
        assert_eq!(s.cores().count(), 32);
    }

    #[test]
    fn locality_classification() {
        let s = MachineShape::new(2, 2, 2);
        let a = s.core(0, 0, 0);
        assert_eq!(s.locality(a, a), Locality::SameCore);
        assert_eq!(s.locality(a, s.core(0, 0, 1)), Locality::SameChip);
        assert_eq!(s.locality(a, s.core(0, 1, 0)), Locality::SameNode);
        assert_eq!(s.locality(a, s.core(1, 0, 0)), Locality::InterNode);
    }

    #[test]
    fn domain_counts() {
        let s = MachineShape::new(3, 2, 4);
        let p = tiny_profile();
        assert_eq!(ClockEnsemble::build(s, ClockDomain::Global, &p, 1).n_clocks(), 1);
        assert_eq!(ClockEnsemble::build(s, ClockDomain::PerNode, &p, 1).n_clocks(), 3);
        assert_eq!(ClockEnsemble::build(s, ClockDomain::PerChip, &p, 1).n_clocks(), 6);
        assert_eq!(ClockEnsemble::build(s, ClockDomain::PerCore, &p, 1).n_clocks(), 24);
    }

    #[test]
    fn same_chip_cores_share_clock_per_chip_domain() {
        let s = MachineShape::new(2, 2, 4);
        let e = ClockEnsemble::build(s, ClockDomain::PerChip, &tiny_profile(), 2);
        let at = |core| e.ideal_at(core, Time::from_secs(50));
        assert_eq!(at(s.core(0, 0, 0)), at(s.core(0, 0, 3)));
        assert_ne!(at(s.core(0, 0, 0)), at(s.core(0, 1, 0)));
        assert_ne!(at(s.core(0, 0, 0)), at(s.core(1, 0, 0)));
    }

    #[test]
    fn chip_spread_is_smaller_than_node_spread() {
        // Statistically: offsets between chips of one node should be much
        // closer than offsets between nodes.
        let s = MachineShape::new(16, 2, 1);
        let e = ClockEnsemble::build(s, ClockDomain::PerChip, &tiny_profile(), 3);
        let t = Time::ZERO;
        let mut intra = 0.0f64;
        let mut inter = 0.0f64;
        for node in 0..16 {
            let a = e.ideal_at(s.core(node, 0, 0), t);
            let b = e.ideal_at(s.core(node, 1, 0), t);
            intra += (a - b).as_secs_f64().abs();
        }
        for node in 0..15 {
            let a = e.ideal_at(s.core(node, 0, 0), t);
            let b = e.ideal_at(s.core(node + 1, 0, 0), t);
            inter += (a - b).as_secs_f64().abs();
        }
        assert!(
            inter / 15.0 > 10.0 * (intra / 16.0),
            "hierarchical correlation missing: intra={} inter={}",
            intra / 16.0,
            inter / 15.0
        );
    }

    #[test]
    fn global_domain_is_ideal() {
        let s = MachineShape::new(2, 1, 1);
        let mut e = ClockEnsemble::build(s, ClockDomain::Global, &tiny_profile(), 4);
        let t = Time::from_secs(42);
        assert_eq!(e.read(s.core(0, 0, 0), t), t);
        assert_eq!(e.read(s.core(1, 0, 0), t), t);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = MachineShape::new(4, 1, 1);
        let p = tiny_profile();
        let a = ClockEnsemble::build(s, ClockDomain::PerNode, &p, 7);
        let b = ClockEnsemble::build(s, ClockDomain::PerNode, &p, 7);
        for c in s.cores() {
            let t = Time::from_secs(10);
            assert_eq!(a.ideal_at(c, t), b.ideal_at(c, t));
        }
    }
}
