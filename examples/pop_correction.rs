//! The paper's Fig. 7 + §V story on one POP-like run: trace a 32-process
//! ocean-model twin with partial tracing, synchronise Scalasca-style
//! (offset probes at init/finalize + Eq. 3 linear interpolation), count the
//! residual clock-condition violations, then let the CLC finish the job.
//!
//! ```sh
//! cargo run --release --example pop_correction
//! ```

use drift_lab::clocksync::{ClcParams, DepGraph, PipelineConfig, PreSync, TraceAnalysis};
use drift_lab::experiments::fig7::{pop_program, traced_run};
use drift_lab::prelude::*;
use drift_lab::tracefmt::CensusPlan;

fn main() {
    // A scaled-down mref-like POP run (time compression keeps the drift
    // magnitudes representative of the full 25-minute run).
    let (program, expected_duration, compression) = pop_program(20);
    println!(
        "running POP-like workload: 32 ranks, {} ops, ~{:.0} s simulated",
        program.n_ops(),
        expected_duration
    );
    let mut tr = traced_run(&program, expected_duration, compression, 11);
    println!(
        "traced {} events ({} message events)",
        tr.trace.n_events(),
        tr.trace.n_message_events()
    );

    // Freeze the l_min table before handing the trace around.
    let n = tr.trace.n_procs();
    let lmin_table: Vec<Vec<Dur>> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| tr.cluster.l_min(Rank(a as u32), Rank(b as u32), 0))
                .collect()
        })
        .collect();
    let lmin = move |a: Rank, b: Rank| lmin_table[a.idx()][b.idx()];

    // What the pipeline will hold for this trace's communication structure:
    // message edges are stored, an allreduce is 32 member rows however many
    // logical messages (32 x 31) the paper's mapping derives from it.
    let analysis = TraceAnalysis::capture(&tr.trace).expect("well-formed trace");
    let lens: Vec<usize> = tr.trace.procs.iter().map(|p| p.events.len()).collect();
    let graph = DepGraph::build(&analysis.matching, &analysis.instances, &lens, &lmin);
    let plan = CensusPlan::build(&lens, &analysis.matching.messages, &analysis.instances, &lmin)
        .expect("plan builds");
    println!(
        "{} constraints lowered as {} message edges + {} collective member rows: \
         graph {} KiB, census plan {} KiB",
        graph.n_edges(),
        analysis.matching.messages.len(),
        graph.coll_table().n_members(),
        graph.heap_bytes() / 1024,
        plan.heap_bytes() / 1024,
    );

    // Scalasca's pipeline: Eq. 3 interpolation, then the CLC.
    let cfg = PipelineConfig {
        presync: PreSync::Linear,
        clc: Some(ClcParams::default()),
        ..Default::default()
    };
    let report = drift_lab::clocksync::synchronize(
        &mut tr.trace,
        &tr.init,
        Some(&tr.fin),
        &lmin,
        &cfg,
    )
    .expect("pipeline runs");

    let print_stage = |name: &str, s: &drift_lab::clocksync::StageReport| {
        let total = s.p2p.total + s.coll.logical_total;
        println!(
            "{name:<28} {:>8} violated of {:>8} constraints ({:>6.2} %), {} reversed messages",
            s.total_violations(),
            total,
            100.0 * s.total_violations() as f64 / total.max(1) as f64,
            s.p2p.reversed + s.coll.logical_reversed,
        );
    };
    print_stage("raw local timestamps:", &report.raw);
    print_stage("after Eq. 3 interpolation:", &report.after_presync);
    print_stage(
        "after the CLC:",
        report.after_clc.as_ref().expect("CLC stage ran"),
    );
    let clc = report.clc.expect("CLC stage ran");
    println!(
        "CLC corrections: {} jumps, largest {:.3} us",
        clc.n_jumps(),
        clc.max_jump.as_us_f64()
    );
    println!("\n{}", report.stats.render());
    assert_eq!(
        report.after_clc.expect("CLC ran").total_violations(),
        0,
        "the CLC must restore the clock condition"
    );
    println!("\nconclusion (paper §VI): interpolation alone is insufficient; CLC removes the rest.");
}
