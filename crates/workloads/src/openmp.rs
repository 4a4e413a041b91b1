//! The OpenMP benchmark of the paper's Figs. 3 and 8: a loop whose body is
//! a single `parallel for` (a parallel region with an implicit barrier),
//! run with 4–16 threads on the 4-chip Itanium SMP node, threads unpinned,
//! timestamps from the per-chip cycle counters, **no** offset correction.

use mpisim::shmem::{run_parallel_for, OmpConfig, OmpTimings, ThreadPlacement};
use simclock::{ClockDomain, ClockEnsemble, Platform, TimerKind};
use tracefmt::{check_pomp, match_parallel_regions, PompReport, Trace};

/// One Fig. 8 measurement: thread count plus the violation percentages.
#[derive(Debug, Clone)]
pub struct OmpViolationRow {
    /// Team size.
    pub threads: usize,
    /// % regions with any violation (back row of Fig. 8).
    pub any_pct: f64,
    /// % regions with a fork-not-first violation.
    pub entry_pct: f64,
    /// % regions with a join-not-last violation.
    pub exit_pct: f64,
    /// % regions violating barrier overlap.
    pub barrier_pct: f64,
}

/// Run the benchmark once with an explicit thread placement.
fn run_benchmark_placed(
    threads: usize,
    regions: usize,
    placement: ThreadPlacement,
    seed: u64,
) -> Trace {
    let shape = Platform::ItaniumSmp.shape(1);
    let profile = Platform::ItaniumSmp.clock_profile(TimerKind::CycleCounter, 120.0);
    let mut clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);
    let cfg = OmpConfig {
        threads,
        regions,
        timings: OmpTimings::default(),
        placement,
    };
    run_parallel_for(shape, &mut clocks, &cfg, seed ^ 0x17)
}

/// Run the benchmark once and return the trace (for Fig. 3-style timeline
/// inspection).
pub fn run_benchmark(threads: usize, regions: usize, seed: u64) -> Trace {
    let shape = Platform::ItaniumSmp.shape(1);
    let profile = Platform::ItaniumSmp.clock_profile(TimerKind::CycleCounter, 120.0);
    let mut clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);
    // The paper could not pin threads; on a loaded-balanced OS the
    // scheduler spreads a small team across the chips, which round-robin
    // placement models (and which maximises exposure to inter-chip clock
    // offsets, matching the high violation rates observed).
    let cfg = OmpConfig {
        threads,
        regions,
        timings: OmpTimings::default(),
        placement: ThreadPlacement::RoundRobinChips,
    };
    run_parallel_for(shape, &mut clocks, &cfg, seed ^ 0x17)
}

/// Check one run for POMP violations.
fn check_run(trace: &Trace) -> PompReport {
    let regions = match_parallel_regions(trace).expect("well-formed POMP trace");
    check_pomp(trace, &regions)
}

/// The Fig. 8 sweep: for each thread count, average the violation
/// percentages over `runs` independent runs (the paper averaged three
/// measurements per configuration).
pub fn violation_sweep(
    thread_counts: &[usize],
    regions: usize,
    runs: usize,
    seed: u64,
) -> Vec<OmpViolationRow> {
    thread_counts
        .iter()
        .map(|&threads| {
            let mut any = 0.0;
            let mut entry = 0.0;
            let mut exit = 0.0;
            let mut barrier = 0.0;
            for r in 0..runs {
                let trace = run_benchmark(threads, regions, seed + 1000 * r as u64);
                let rep = check_run(&trace);
                any += rep.any_pct();
                entry += rep.entry_pct();
                exit += rep.exit_pct();
                barrier += rep.barrier_pct();
            }
            let n = runs.max(1) as f64;
            OmpViolationRow {
                threads,
                any_pct: any / n,
                entry_pct: entry / n,
                exit_pct: exit / n,
                barrier_pct: barrier / n,
            }
        })
        .collect()
}

/// Placement ablation: the violation rate per thread placement at a fixed
/// team size — what the paper could not measure because "the test system
/// did not support the pinning of individual OpenMP threads".
pub fn placement_ablation(
    threads: usize,
    regions: usize,
    runs: usize,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    [
        ("spread (one chip each)", ThreadPlacement::RoundRobinChips),
        ("unpinned (random)", ThreadPlacement::Random),
        ("packed (one chip)", ThreadPlacement::Packed),
    ]
    .iter()
    .map(|&(name, placement)| {
        let mut any = 0.0;
        for r in 0..runs {
            let trace =
                run_benchmark_placed(threads, regions, placement, seed + 1000 * r as u64);
            any += check_run(&trace).any_pct();
        }
        (name, any / runs.max(1) as f64)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_produces_requested_regions() {
        let t = run_benchmark(4, 25, 3);
        let regions = match_parallel_regions(&t).unwrap();
        assert_eq!(regions.len(), 25);
        assert_eq!(t.n_procs(), 4);
    }

    #[test]
    fn fig8_shape_small_teams_worse_than_large() {
        let rows = violation_sweep(&[4, 16], 60, 3, 11);
        assert_eq!(rows.len(), 2);
        let four = &rows[0];
        let sixteen = &rows[1];
        assert!(
            four.any_pct > sixteen.any_pct + 20.0,
            "4 threads ({:.0}%) should violate far more than 16 ({:.0}%)",
            four.any_pct,
            sixteen.any_pct
        );
    }

    #[test]
    fn pinning_would_have_fixed_the_itanium() {
        // The paper's open question, answered in simulation: packing the
        // team onto one chip (shared clock) eliminates violations entirely,
        // while spreading maximises them.
        let rows = placement_ablation(4, 80, 3, 31);
        let get = |name: &str| rows.iter().find(|r| r.0.starts_with(name)).unwrap().1;
        let spread = get("spread");
        let random = get("unpinned");
        let packed = get("packed");
        assert_eq!(packed, 0.0, "shared-clock placement must be violation-free");
        assert!(spread > 40.0, "spread placement should violate heavily: {spread}");
        assert!(
            random <= spread + 1e-9,
            "random ({random}) should not exceed spread ({spread})"
        );
    }

    #[test]
    fn percentages_are_bounded() {
        for row in violation_sweep(&[8], 30, 2, 5) {
            for v in [row.any_pct, row.entry_pct, row.exit_pct, row.barrier_pct] {
                assert!((0.0..=100.0).contains(&v));
            }
            // "any" dominates each individual category.
            assert!(row.any_pct + 1e-9 >= row.entry_pct.max(row.exit_pct).max(row.barrier_pct));
        }
    }
}
