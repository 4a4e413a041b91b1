//! Fig. 8 — percentages of OpenMP parallel regions with POMP
//! clock-condition violations across team sizes on the Itanium SMP node.
//!
//! The paper's numbers: with 4 threads 83 % of regions are affected; the
//! fraction drops sharply as threads are added — very few at 12, none at
//! all at 16 — because OpenMP synchronisation latencies grow with the team
//! while the inter-chip clock offsets stay put. The paper also calls exit
//! violations the most frequent; here which category leads depends on the
//! team size and the run length, so the printout names the leader per row.

use workloads::{violation_sweep, OmpViolationRow};

/// Run the Fig. 8 sweep (4, 8, 12, 16 threads; `runs` repetitions).
pub fn fig8(regions: usize, runs: usize, seed: u64) -> Vec<OmpViolationRow> {
    violation_sweep(&[4, 8, 12, 16], regions, runs, seed)
}

/// Print precomputed Fig. 8 rows.
pub fn print_rows(rows: &[OmpViolationRow], runs: usize, regions: usize) {
    println!("\n## Fig. 8 — Itanium SMP: parallel regions with POMP violations (avg of {runs} runs, {regions} regions each)");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>14}",
        "threads", "any [%]", "entry [%]", "exit [%]", "barrier [%]"
    );
    for row in rows {
        println!(
            "{:>8} {:>10.1} {:>12.1} {:>12.1} {:>14.1}",
            row.threads, row.any_pct, row.entry_pct, row.exit_pct, row.barrier_pct
        );
    }
    println!("paper shape: 83% affected at 4 threads, dropping sharply; ~0% at 16; the paper reports exit violations as the most frequent.");
    let leaders: Vec<String> =
        rows.iter().map(|row| format!("{} at {}", most_frequent(row), row.threads)).collect();
    println!("most frequent here: {}", leaders.join(", "));
}

/// The violation categories with the largest share of `row` as printed
/// (one decimal), ties joined by `=`; `none` when no region is affected.
fn most_frequent(row: &OmpViolationRow) -> String {
    let shares = [("entry", row.entry_pct), ("exit", row.exit_pct), ("barrier", row.barrier_pct)]
        .map(|(name, pct)| (name, (pct * 10.0).round()));
    let top = shares.iter().map(|&(_, tenths)| tenths).fold(0.0, f64::max);
    if top == 0.0 {
        return "none".to_string();
    }
    let names: Vec<&str> =
        shares.iter().filter(|&&(_, tenths)| tenths == top).map(|&(name, _)| name).collect();
    names.join(" = ")
}

/// Print Fig. 8 beside the paper's anchor values (compute + print).
pub fn print_fig8(regions: usize, runs: usize, seed: u64) {
    print_rows(&fig8(regions, runs, seed), runs, regions);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_matches_the_paper() {
        let rows = fig8(120, 3, 2);
        assert_eq!(rows.len(), 4);
        let any: Vec<f64> = rows.iter().map(|r| r.any_pct).collect();
        // High at 4 threads.
        assert!(any[0] > 50.0, "4 threads: {:.1}% (expected high)", any[0]);
        // Near zero at 16 threads.
        assert!(any[3] < 12.0, "16 threads: {:.1}% (expected ~0)", any[3]);
        // Overall declining trend.
        assert!(
            any[0] > any[2] && any[1] > any[3],
            "violations should decline with team size: {any:?}"
        );
    }
}
