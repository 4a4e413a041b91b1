//! An SMG2000-like workload (ASC semi-coarsening multigrid solver).
//!
//! SMG2000's signature, per the paper: "a complex communication pattern
//! [with] a large number of non-nearest-neighbor point-to-point
//! communication operations". Semi-coarsening halves the grid in one
//! dimension per level, so on level ℓ a process exchanges data with
//! partners at distance `2^ℓ` in rank space — exactly the non-local pattern
//! modelled here. The paper padded the run with sleeps so the computation
//! sat ten minutes after `MPI_Init` and ten minutes before `MPI_Finalize`,
//! stretching the interpolation interval to ≈20 min; [`SmgConfig::padding`]
//! reproduces that.

use mpisim::program::{regions, Program, RankProgram, ReqId};
use simclock::Dur;
use tracefmt::{CommId, Rank, Tag};

/// SMG2000-like workload configuration.
#[derive(Debug, Clone)]
pub struct SmgConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Outer solver iterations (paper: 5).
    pub iterations: usize,
    /// Multigrid levels per V-cycle (partners at distance 2^level).
    pub levels: usize,
    /// Untraced idle before and after the computational phase.
    pub padding: Dur,
    /// Base compute per level on the finest grid.
    pub compute: Dur,
    /// Compute jitter.
    pub compute_cv: f64,
    /// Message payload on the finest level (halves per level).
    pub bytes: u64,
    /// Residual-norm allreduce after each V-cycle.
    pub norm_bytes: u64,
}

impl SmgConfig {
    /// The paper's setup: 16×16×8 per process, five iterations, 32 ranks,
    /// ten-minute pads (shrunk by `pad_scale` to keep simulation cheap —
    /// the interpolation geometry is preserved proportionally).
    pub fn paper_like(ranks: usize, pad_scale: usize) -> Self {
        let pad_scale = pad_scale.max(1);
        SmgConfig {
            ranks,
            iterations: 5,
            levels: (ranks as f64).log2().ceil() as usize,
            padding: Dur::from_secs(600) / pad_scale as i64,
            compute: Dur::from_us(8_000),
            compute_cv: 0.1,
            bytes: 16 * 16 * 8 * 8, // one face of the local box, f64
            norm_bytes: 8,
        }
    }

    /// Communication partners of `rank` on `level`: the ranks at distance
    /// `±2^level` (wrapping), the semi-coarsening stencil.
    pub fn partners(&self, rank: usize, level: usize) -> (Rank, Rank) {
        let d = 1usize << level;
        let n = self.ranks;
        (
            Rank(((rank + d) % n) as u32),
            Rank(((rank + n - d % n) % n) as u32),
        )
    }

    /// Generate the program.
    pub fn build(&self) -> Program {
        let cycle_region = regions::user(10);
        let level_region = |l: usize| regions::user(20 + l as u32);
        Program::build(self.ranks, |r| {
            let mut p = RankProgram::new().trace_off().compute(self.padding).trace_on();
            for _it in 0..self.iterations {
                p = p.enter(cycle_region);
                // Down-sweep: fine → coarse; up-sweep back. Payload and
                // compute shrink with the level.
                let sweep: Vec<usize> = (0..self.levels).chain((0..self.levels).rev()).collect();
                for (leg, &l) in sweep.iter().enumerate() {
                    let (up, down) = self.partners(r.idx(), l);
                    let bytes = (self.bytes >> l).max(64);
                    let compute = (self.compute / (1 << l.min(20)) as i64).max(Dur::from_us(50));
                    p = p.enter(level_region(l));
                    p = p.compute_jitter(compute, self.compute_cv);
                    // SMG2000 posts its halo exchange non-blocking: irecv
                    // both directions, isend both, then complete all four.
                    // Distinct tags per leg keep the two sweeps separate.
                    let tag = Tag((leg * 2) as u32);
                    let tag_back = Tag((leg * 2 + 1) as u32);
                    p = p.irecv(down, tag, ReqId(0));
                    p = p.irecv(up, tag_back, ReqId(1));
                    p = p.isend(up, tag, bytes, ReqId(2));
                    p = p.isend(down, tag_back, bytes, ReqId(3));
                    p = p.waitall();
                    p = p.exit(level_region(l));
                }
                // Convergence check.
                p = p.allreduce(CommId::WORLD, self.norm_bytes);
                p = p.exit(cycle_region);
            }
            p.trace_off().compute(self.padding)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    

    fn small() -> SmgConfig {
        SmgConfig {
            ranks: 8,
            iterations: 2,
            levels: 3,
            padding: Dur::from_ms(10),
            compute: Dur::from_us(400),
            compute_cv: 0.05,
            bytes: 4096,
            norm_bytes: 8,
        }
    }

    #[test]
    fn partners_are_non_nearest_beyond_level_zero() {
        let c = small();
        assert_eq!(c.partners(0, 0), (Rank(1), Rank(7)));
        assert_eq!(c.partners(0, 1), (Rank(2), Rank(6)));
        assert_eq!(c.partners(0, 2), (Rank(4), Rank(4)));
        assert_eq!(c.partners(5, 1), (Rank(7), Rank(3)));
    }

    #[test]
    fn partner_relation_is_symmetric() {
        let c = small();
        for r in 0..8 {
            for l in 0..3 {
                let (up, down) = c.partners(r, l);
                assert_eq!(c.partners(up.idx(), l).1, Rank(r as u32));
                assert_eq!(c.partners(down.idx(), l).0, Rank(r as u32));
            }
        }
    }

    #[test]
    fn runs_without_deadlock_and_matches() {
        use mpisim::{run, Cluster, RunOptions};
        use netsim::{HierarchicalLatency, Placement, Topology};
        use simclock::{ClockDomain, ClockEnsemble, ClockProfile, MachineShape, TimerKind};

        let c = small();
        let shape = MachineShape::new(8, 1, 1);
        let clocks = ClockEnsemble::build(
            shape,
            ClockDomain::Global,
            &ClockProfile::bare(TimerKind::IntelTsc),
            0,
        );
        let mut cluster = Cluster::new(
            Placement::one_per_node(shape, 8),
            Topology::Crossbar,
            HierarchicalLatency::xeon_infiniband(),
            clocks,
            2,
        );
        let out = run(&mut cluster, &c.build(), &RunOptions::default()).unwrap();
        let m = tracefmt::match_messages(&out.trace);
        assert!(m.is_complete());
        // 2 iterations × 6 sweep legs × 2 sends × 8 ranks.
        assert_eq!(m.messages.len(), 2 * 6 * 2 * 8);
        // Padding pushed the run length past ~20 ms.
        assert!(out.stats.end_time >= simclock::Time::from_ms(20));
    }

    #[test]
    fn paper_like_shape() {
        let c = SmgConfig::paper_like(32, 60);
        assert_eq!(c.ranks, 32);
        assert_eq!(c.iterations, 5);
        assert_eq!(c.levels, 5);
        assert_eq!(c.padding, Dur::from_secs(10));
    }
}
