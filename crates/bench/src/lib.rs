//! Shared fixtures for the drift-lab benchmark harness.
//!
//! Each bench target times one kernel in isolation — a CLC variant, a
//! pipeline stage, a codec, the census, the online filter — prints what it
//! measured and asserts what must hold on any host; none writes a file. The
//! paper's tables and figures are the `experiments` binary's, and what a
//! whole job costs end to end is `benchmark/`'s to report.

#![forbid(unsafe_code)]

use mpisim::{run, Cluster, Program, RankProgram, RunOptions};
use netsim::{HierarchicalLatency, Placement, Topology};
use simclock::{ClockDomain, ClockEnsemble, Dur, Platform, TimerKind};
use tracefmt::{CommId, Rank, Tag, Trace};

/// A Xeon-like cluster of `nodes` nodes with `ranks` round-robin ranks and
/// drifting per-chip TSCs.
pub fn xeon_cluster(nodes: usize, ranks: usize, horizon_s: f64, seed: u64) -> Cluster {
    let shape = Platform::XeonCluster.shape(nodes);
    let profile = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, horizon_s);
    let clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);
    Cluster::new(
        Placement::round_robin(shape, ranks),
        Topology::FatTree { leaf_radix: 16 },
        HierarchicalLatency::xeon_infiniband(),
        clocks,
        seed,
    )
}

/// A bidirectional ring-exchange program with periodic allreduces, sized by
/// iterations. Both directions carry traffic, so pairwise corridor methods
/// (Duda/Jézéquel) have two-sided constraints on every edge.
pub fn ring_program(ranks: usize, iters: u32) -> Program {
    Program::build(ranks, |r| {
        let next = Rank((r.0 + 1) % ranks as u32);
        let prev = Rank((r.0 + ranks as u32 - 1) % ranks as u32);
        let mut p = RankProgram::new();
        for i in 0..iters {
            p = p
                .compute_jitter(Dur::from_us(100), 0.1)
                .send(next, Tag(2 * i), 256)
                .recv(prev, Tag(2 * i))
                .send(prev, Tag(2 * i + 1), 256)
                .recv(next, Tag(2 * i + 1));
            if i % 4 == 0 {
                p = p.allreduce(CommId::WORLD, 8);
            }
        }
        p
    })
}

/// Produce a traced run of the ring program on a drifting cluster — the
/// standard corpus for the correction benches.
pub fn skewed_trace(ranks: usize, iters: u32, seed: u64) -> (Cluster, Trace) {
    let mut cluster = xeon_cluster(ranks.div_ceil(8).max(2), ranks, 30.0, seed);
    let out = run(&mut cluster, &ring_program(ranks, iters), &RunOptions::default())
        .expect("benchmark program runs");
    (cluster, out.trace)
}

/// Freeze a cluster's `l_min` into an owned table-backed closure.
pub fn lmin_table(cluster: &Cluster, ranks: usize) -> impl Fn(Rank, Rank) -> Dur + Send + Sync {
    let table: Vec<Vec<Dur>> = (0..ranks)
        .map(|a| {
            (0..ranks)
                .map(|b| cluster.l_min(Rank(a as u32), Rank(b as u32), 0))
                .collect()
        })
        .collect();
    move |a: Rank, b: Rank| table[a.idx()][b.idx()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_violating_traces() {
        let (cluster, trace) = skewed_trace(8, 50, 1);
        let lmin = lmin_table(&cluster, 8);
        let m = tracefmt::match_messages(&trace);
        assert!(m.is_complete());
        let rep = tracefmt::check_p2p(&trace, &m, &lmin);
        assert!(rep.total > 0);
    }
}
