//! Interconnect topologies and rank placement.
//!
//! The paper's three clusters use different networks — InfiniBand fat-tree
//! (Xeon), Myrinet Clos (PowerPC), SeaStar 3-D torus (Opteron). For latency
//! purposes what matters is the *hop count* between nodes, which each
//! [`Topology`] provides, and where ranks are pinned relative to the
//! node/chip/core hierarchy ([`Placement`], paper Table I).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simclock::{CoreId, MachineShape};

/// A network topology connecting the nodes of a machine.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Every node pair one hop apart (idealised crossbar; good default for
    /// small ensembles).
    Crossbar,
    /// Two-level fat-tree: nodes under the same leaf switch are one hop
    /// apart, otherwise three (leaf–spine–leaf).
    FatTree {
        /// Nodes per leaf switch.
        leaf_radix: usize,
    },
    /// 3-D torus with wraparound (SeaStar-style); hop count is the Manhattan
    /// distance with wrap.
    Torus3D {
        /// Torus dimensions; `x·y·z` must cover the node count.
        dims: [usize; 3],
    },
    /// Dragonfly: nodes grouped under routers, routers grouped into
    /// all-to-all-connected groups. Same router: 1 hop; same group: 2 hops
    /// (router–router); different groups: 3 hops (router–gateway–router),
    /// the classic minimal-route dragonfly diameter.
    Dragonfly {
        /// Nodes per router.
        nodes_per_router: usize,
        /// Routers per group.
        routers_per_group: usize,
    },
}

impl Topology {
    /// Network hops between two nodes (0 for the same node).
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        match self {
            Topology::Crossbar => 1,
            Topology::FatTree { leaf_radix } => {
                if a / leaf_radix == b / leaf_radix {
                    1
                } else {
                    3
                }
            }
            Topology::Torus3D { dims } => {
                let ca = Self::torus_coords(a, dims);
                let cb = Self::torus_coords(b, dims);
                (0..3)
                    .map(|i| {
                        let d = ca[i].abs_diff(cb[i]);
                        d.min(dims[i] - d) as u32
                    })
                    .sum::<u32>()
                    .max(1)
            }
            Topology::Dragonfly { nodes_per_router, routers_per_group } => {
                let ra = a / nodes_per_router;
                let rb = b / nodes_per_router;
                if ra == rb {
                    1
                } else if ra / routers_per_group == rb / routers_per_group {
                    2
                } else {
                    3
                }
            }
        }
    }

    fn torus_coords(node: usize, dims: &[usize; 3]) -> [usize; 3] {
        [
            node % dims[0],
            (node / dims[0]) % dims[1],
            node / (dims[0] * dims[1]),
        ]
    }
}

/// Where each MPI rank runs: the pinning configurations of the paper's
/// Table I plus the "let the scheduler decide" default used for Fig. 7.
#[derive(Debug, Clone)]
pub struct Placement {
    shape: MachineShape,
    core_of_rank: Vec<CoreId>,
}

impl Placement {
    /// Explicit placement.
    fn custom(shape: MachineShape, core_of_rank: Vec<CoreId>) -> Self {
        for c in &core_of_rank {
            assert!(c.0 < shape.n_cores(), "core id out of range");
        }
        Placement {
            shape,
            core_of_rank,
        }
    }

    /// Table I "inter node": `n` ranks, one per node (core 0 of chip 0).
    pub fn one_per_node(shape: MachineShape, n: usize) -> Self {
        assert!(n <= shape.nodes, "not enough nodes");
        let cores = (0..n).map(|node| shape.core(node, 0, 0)).collect();
        Placement::custom(shape, cores)
    }

    /// Table I "inter chip": `n` ranks on node 0, one per chip.
    pub fn one_per_chip(shape: MachineShape, n: usize) -> Self {
        assert!(n <= shape.chips_per_node, "not enough chips in one node");
        let cores = (0..n).map(|chip| shape.core(0, chip, 0)).collect();
        Placement::custom(shape, cores)
    }

    /// Table I "inter core": `n` ranks on chip 0 of node 0, one per core.
    pub fn one_per_core(shape: MachineShape, n: usize) -> Self {
        assert!(n <= shape.cores_per_chip, "not enough cores in one chip");
        let cores = (0..n).map(|core| shape.core(0, 0, core)).collect();
        Placement::custom(shape, cores)
    }

    /// Dense block placement: fill node 0 completely, then node 1, …
    /// (typical batch-system default).
    pub fn packed(shape: MachineShape, n: usize) -> Self {
        assert!(n <= shape.n_cores(), "machine too small");
        Placement::custom(shape, (0..n).map(CoreId).collect())
    }

    /// Round-robin over nodes: rank r on node `r % nodes`, filling cores
    /// within each node in order.
    pub fn round_robin(shape: MachineShape, n: usize) -> Self {
        assert!(n <= shape.n_cores(), "machine too small");
        let per_node = shape.chips_per_node * shape.cores_per_chip;
        let mut next_core = vec![0usize; shape.nodes];
        let cores = (0..n)
            .map(|r| {
                let node = r % shape.nodes;
                let slot = next_core[node];
                assert!(slot < per_node, "node {node} over-subscribed");
                next_core[node] += 1;
                let chip = slot / shape.cores_per_chip;
                let core = slot % shape.cores_per_chip;
                shape.core(node, chip, core)
            })
            .collect();
        Placement::custom(shape, cores)
    }

    /// The paper's Fig. 7 setup: "we refrained from using a specific process
    /// pinning … and let the scheduler choose". Modelled as a packed
    /// placement with the rank → core assignment shuffled by the scheduler.
    pub fn scheduler_default(shape: MachineShape, n: usize, seed: u64) -> Self {
        assert!(n <= shape.n_cores(), "machine too small");
        let mut cores: Vec<CoreId> = (0..n).map(CoreId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        cores.shuffle(&mut rng);
        Placement::custom(shape, cores)
    }

    /// Parse a placement specification string:
    /// `"<nodes>x<chips>x<cores>:<policy>[:<n>]"` with policy one of
    /// `node` (one per node), `chip`, `core`, `packed`, `rr` (round robin);
    /// `n` defaults to the policy's natural maximum. Examples:
    /// `"4x2x4:node"`, `"8x2x4:rr:16"`, `"1x4x4:core:4"`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (geom, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("missing ':' in placement spec {spec:?}"))?;
        let dims: Vec<usize> = geom
            .split('x')
            .map(|d| d.parse().map_err(|_| format!("bad geometry {geom:?}")))
            .collect::<Result<_, _>>()?;
        let [nodes, chips, cores] = dims[..] else {
            return Err(format!("geometry must be NxCxK, got {geom:?}"));
        };
        if nodes == 0 || chips == 0 || cores == 0 {
            return Err(format!("geometry components must be positive: {geom:?}"));
        }
        let shape = MachineShape::new(nodes, chips, cores);
        let (policy, n) = match rest.split_once(':') {
            Some((p, n)) => (
                p,
                Some(n.parse::<usize>().map_err(|_| format!("bad rank count {n:?}"))?),
            ),
            None => (rest, None),
        };
        match policy {
            "node" => Ok(Placement::one_per_node(shape, n.unwrap_or(nodes))),
            "chip" => Ok(Placement::one_per_chip(shape, n.unwrap_or(chips))),
            "core" => Ok(Placement::one_per_core(shape, n.unwrap_or(cores))),
            "packed" => Ok(Placement::packed(shape, n.unwrap_or(shape.n_cores()))),
            "rr" => Ok(Placement::round_robin(shape, n.unwrap_or(shape.n_cores()))),
            other => Err(format!("unknown placement policy {other:?}")),
        }
    }

    /// The machine's geometry.
    pub fn shape(&self) -> MachineShape {
        self.shape
    }

    /// Number of placed ranks.
    pub fn n_ranks(&self) -> usize {
        self.core_of_rank.len()
    }

    /// Core a rank runs on.
    pub fn core_of(&self, rank: usize) -> CoreId {
        self.core_of_rank[rank]
    }

    /// Relative hierarchy location of two ranks.
    pub fn locality(&self, a: usize, b: usize) -> simclock::Locality {
        self.shape.locality(self.core_of(a), self.core_of(b))
    }

    /// Node index a rank runs on.
    pub fn node_of(&self, rank: usize) -> usize {
        self.shape.node_of(self.core_of(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::Locality;

    fn shape() -> MachineShape {
        MachineShape::new(4, 2, 4)
    }

    #[test]
    fn crossbar_hops() {
        let t = Topology::Crossbar;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 3), 1);
    }

    #[test]
    fn fat_tree_hops() {
        let t = Topology::FatTree { leaf_radix: 4 };
        assert_eq!(t.hops(0, 3), 1); // same leaf
        assert_eq!(t.hops(0, 4), 3); // via spine
    }

    #[test]
    fn torus_hops_wrap() {
        let t = Topology::Torus3D { dims: [4, 4, 4] };
        // Node 0 = (0,0,0), node 3 = (3,0,0): wrap distance 1.
        assert_eq!(t.hops(0, 3), 1);
        // Node 2 = (2,0,0): distance 2.
        assert_eq!(t.hops(0, 2), 2);
        // (0,0,0) -> (2,2,2) = 6 hops.
        let far = 2 + 2 * 4 + 2 * 16;
        assert_eq!(t.hops(0, far), 6);
        assert_eq!(t.hops(5, 5), 0);
    }

    #[test]
    fn dragonfly_hops() {
        let t = Topology::Dragonfly { nodes_per_router: 2, routers_per_group: 4 };
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1); // same router
        assert_eq!(t.hops(0, 2), 2); // same group, different router
        assert_eq!(t.hops(0, 7), 2); // last router of group 0
        assert_eq!(t.hops(0, 8), 3); // group 1
    }

    #[test]
    fn table1_pinnings() {
        let s = shape();
        let inter_node = Placement::one_per_node(s, 4);
        assert_eq!(inter_node.n_ranks(), 4);
        assert_eq!(inter_node.locality(0, 1), Locality::InterNode);

        let inter_chip = Placement::one_per_chip(s, 2);
        assert_eq!(inter_chip.locality(0, 1), Locality::SameNode);
        assert_eq!(inter_chip.node_of(1), 0);

        let inter_core = Placement::one_per_core(s, 4);
        assert_eq!(inter_core.locality(0, 3), Locality::SameChip);
    }

    #[test]
    fn packed_fills_in_order() {
        let s = shape();
        let p = Placement::packed(s, 9);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(7), 0);
        assert_eq!(p.node_of(8), 1);
    }

    #[test]
    fn round_robin_spreads_nodes() {
        let s = shape();
        let p = Placement::round_robin(s, 8);
        for r in 0..8 {
            assert_eq!(p.node_of(r), r % 4);
        }
    }

    #[test]
    fn scheduler_default_is_deterministic_and_complete() {
        let s = shape();
        let a = Placement::scheduler_default(s, 32, 99);
        let b = Placement::scheduler_default(s, 32, 99);
        let mut seen = std::collections::HashSet::new();
        for r in 0..32 {
            assert_eq!(a.core_of(r), b.core_of(r));
            assert!(seen.insert(a.core_of(r)), "core used twice");
        }
    }

    #[test]
    fn placement_spec_parsing() {
        let p = Placement::parse("4x2x4:node").unwrap();
        assert_eq!(p.n_ranks(), 4);
        assert_eq!(p.locality(0, 1), Locality::InterNode);

        let p = Placement::parse("8x2x4:rr:16").unwrap();
        assert_eq!(p.n_ranks(), 16);
        assert_eq!(p.node_of(9), 1);

        let p = Placement::parse("1x4x4:core:4").unwrap();
        assert_eq!(p.locality(0, 3), Locality::SameChip);

        let p = Placement::parse("2x2x2:packed").unwrap();
        assert_eq!(p.n_ranks(), 8);

        for bad in [
            "nope",
            "4x2:node",
            "4x2x4:warp",
            "0x2x4:node",
            "4x2x4:rr:zz",
        ] {
            assert!(Placement::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    #[should_panic(expected = "not enough nodes")]
    fn over_subscription_panics() {
        let _ = Placement::one_per_node(shape(), 5);
    }
}
