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

    /// The domain-aware CLC on the `clc_variants/domain_aware` corpus:
    /// FNV-1a fingerprints of the corrected timestamps and of the jump
    /// sequence, recorded before its three phases moved onto one lowered
    /// graph and one set of columns.
    #[test]
    fn domain_aware_clc_reproduces_its_recorded_output() {
        use clocksync::{controlled_logical_clock_with_domains, ClcParams};
        let fnv1a = |words: &mut dyn Iterator<Item = i64>| {
            words.flat_map(i64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let (cluster, base) = skewed_trace(16, 150, 19);
        let lmin = lmin_table(&cluster, 16);
        let domains: Vec<usize> = (0..16).map(|p| p / 4).collect();
        for (backward, times, jumps, n_jumps, moved) in [
            (true, 0x2e31_a133_bdb1_eb77_u64, 0x0fa1_d20f_6ffa_1900_u64, 3_149, 31_232),
            (false, 0xeb3e_f715_ae47_3ef4, 0x23b0_5c0e_b783_6b58, 2_974, 31_208),
        ] {
            let mut t = base.clone();
            let params = ClcParams { backward, ..ClcParams::default() };
            let rep = controlled_logical_clock_with_domains(&mut t, &lmin, &params, &domains).unwrap();
            assert_eq!(fnv1a(&mut t.iter_events().map(|(_, e)| e.time.as_ps())), times);
            let words = |j: &clocksync::Jump| {
                [i64::from(j.event.proc), i64::from(j.event.idx), j.size.as_ps()]
            };
            assert_eq!(fnv1a(&mut rep.jumps.iter().flat_map(words)), jumps);
            assert_eq!(
                (rep.n_jumps(), rep.max_jump.as_ps(), rep.events_moved, rep.events_total),
                (n_jumps, 91_885_587_376, moved, 31_232)
            );
        }
    }
}
