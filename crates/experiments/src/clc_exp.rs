//! The constructive §V experiment: remove the violations Fig. 7 exposed.
//!
//! Takes a POP-like traced run and pushes it through every synchronisation
//! method the paper surveys — offset alignment, linear interpolation (Eq. 3),
//! the CLC on top of interpolation, and the classic baselines (Duda via
//! Jézéquel spanning trees, Babaoğlu full-exchange bounds) — then reports
//! residual violations, wall time and each method's error against the true
//! event times ([`TruthReport`]).

use crate::fig7::{pop_program, traced_run, TracedRun};
use crate::survey::babaoglu::{full_exchange_maps, FullExchangeFit};
use crate::survey::domains::controlled_logical_clock_with_domains;
use crate::survey::jezequel::spanning_tree_maps;
use crate::survey::truth::{eq3_frame, TruthReport};
use crate::survey::PiecewiseInterpolation;
use clocksync::{
    apply_maps, synchronize, ClcParams, IdentityMap, PipelineConfig, PreSync, TimestampMap,
};
use std::time::Instant;
use tracefmt::{
    check_collectives, check_p2p, match_collectives, match_messages, Capture, MinLatency, Trace,
};

/// Result of one method.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label.
    pub method: &'static str,
    /// Violated constraints (messages + logical messages).
    pub violations: usize,
    /// Violation percentage.
    pub violated_pct: f64,
    /// Wall-clock milliseconds the method took (correction only).
    pub millis: f64,
    /// The corrected trace against the truth, in Eq. 3's frame; moved
    /// events are counted against the trace the method started from (the
    /// raw trace, or Eq. 3's output for the CLC rows).
    pub truth: TruthReport,
}

fn census(trace: &Trace, lmin: &dyn MinLatency) -> (usize, f64) {
    let (m, insts) = Capture::of(trace).finish();
    let p2p = check_p2p(trace, &m, lmin);
    let insts = insts.expect("well-formed");
    let coll = check_collectives(trace, &insts, lmin);
    let total = p2p.total + coll.logical_total;
    let bad = p2p.violations.len() + coll.logical_violated;
    (
        bad,
        if total == 0 { 0.0 } else { 100.0 * bad as f64 / total as f64 },
    )
}

/// Run the survey on a fresh POP-like run.
pub fn clc_survey(scale: usize, seed: u64) -> Vec<MethodResult> {
    let (prog, dur, k) = pop_program(scale);
    let base: TracedRun = traced_run(&prog, dur, k, seed);
    let (truth, bound) = eq3_frame(&base);
    let mut out = Vec::new();

    let lmin_owned = {
        // Capture l_min into an owned closure usable across trace clones.
        let c = &base.cluster;
        let n = base.trace.n_procs();
        let mut table = vec![vec![simclock::Dur::ZERO; n]; n];
        for (a, row) in table.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                *cell = c.l_min(tracefmt::Rank(a as u32), tracefmt::Rank(b as u32), 0);
            }
        }
        move |a: tracefmt::Rank, b: tracefmt::Rank| table[a.idx()][b.idx()]
    };
    let score = |method: &'static str, millis: f64, input: &Trace, t: &Trace| {
        let (violations, violated_pct) = census(t, &lmin_owned);
        let truth = TruthReport::new(input, t, &truth, bound);
        MethodResult { method, violations, violated_pct, millis, truth }
    };

    // Raw.
    out.push(score("uncorrected", 0.0, &base.trace, &base.trace));

    // Alignment / interpolation / CLC via the pipeline.
    let pipeline = |cfg: PipelineConfig| {
        let mut t = base.trace.clone();
        let start = Instant::now();
        synchronize(&mut t, &base.init, Some(&base.fin), &lmin_owned, &cfg)
            .expect("pipeline runs");
        (t, start.elapsed().as_secs_f64() * 1e3)
    };
    let (t, millis) =
        pipeline(PipelineConfig { presync: PreSync::AlignOnly, clc: None, ..Default::default() });
    out.push(score("offset alignment", millis, &base.trace, &t));
    let (eq3, millis) =
        pipeline(PipelineConfig { presync: PreSync::Linear, clc: None, ..Default::default() });
    out.push(score("linear interpolation (Eq. 3)", millis, &base.trace, &eq3));
    let (t, millis) = pipeline(PipelineConfig {
        presync: PreSync::Linear,
        clc: Some(ClcParams::default()),
        ..Default::default()
    });
    out.push(score("interpolation + CLC", millis, &eq3, &t));

    // Doleschal-style periodic internal synchronisation (paper [17]):
    // piecewise-linear interpolation through init + eight mid-run + finalize
    // probe anchors.
    {
        let mut t = base.trace.clone();
        let start = Instant::now();
        let n = t.n_procs();
        let maps: Vec<Box<dyn TimestampMap>> = (0..n)
            .map(|p| -> Box<dyn TimestampMap> {
                let mut anchors = Vec::new();
                if let Some(m) = base.init[p] {
                    anchors.push(m);
                }
                for epoch in &base.mid {
                    if let Some(m) = epoch[p] {
                        anchors.push(m);
                    }
                }
                if let Some(m) = base.fin[p] {
                    anchors.push(m);
                }
                if anchors.len() >= 2 {
                    Box::new(PiecewiseInterpolation::new(anchors))
                } else {
                    Box::new(IdentityMap)
                }
            })
            .collect();
        apply_maps(&mut t, &maps);
        let millis = start.elapsed().as_secs_f64() * 1e3;
        out.push(score("periodic probes, piecewise (Doleschal)", millis, &base.trace, &t));
    }

    // Clock-domain-aware CLC (the paper's §VI future work): ranks on one
    // chip share a clock and move together.
    {
        let mut t = eq3.clone();
        let start = Instant::now();
        controlled_logical_clock_with_domains(
            &mut t,
            &lmin_owned,
            &ClcParams::default(),
            &base.clock_domains,
        )
        .expect("domain CLC runs");
        let millis = start.elapsed().as_secs_f64() * 1e3;
        out.push(score("interpolation + domain-aware CLC", millis, &eq3, &t));
    }

    // Jézéquel spanning tree of Duda pairwise fits.
    {
        let mut t = base.trace.clone();
        let start = Instant::now();
        let m = match_messages(&t);
        match spanning_tree_maps(&t, &m, &lmin_owned, 0) {
            Ok(maps) => {
                let boxed: Vec<Box<dyn TimestampMap>> = maps
                    .into_iter()
                    .map(|m| Box::new(m) as Box<dyn TimestampMap>)
                    .collect();
                apply_maps(&mut t, &boxed);
                let millis = start.elapsed().as_secs_f64() * 1e3;
                out.push(score("Jezequel tree of Duda fits", millis, &base.trace, &t));
            }
            Err(e) => eprintln!("jezequel failed: {e}"),
        }
    }

    // Babaoğlu full-exchange bounds (piecewise fit).
    {
        let mut t = base.trace.clone();
        let start = Instant::now();
        let insts = match_collectives(&t).expect("well-formed");
        match full_exchange_maps(&t, &insts, &lmin_owned, 0, FullExchangeFit::Piecewise(16)) {
            Ok(maps) => {
                apply_maps(&mut t, &maps);
                let millis = start.elapsed().as_secs_f64() * 1e3;
                out.push(score("Babaoglu full-exchange (piecewise)", millis, &base.trace, &t));
            }
            Err(e) => eprintln!("babaoglu failed: {e}"),
        }
    }

    out
}

/// Print the survey.
pub fn print_clc(scale: usize, seed: u64) {
    println!("\n## §V — removing the violations: synchronisation method survey (POP-like run)");
    println!(
        "{:<40} {:>12} {:>14} {:>12} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9} {:>9} {:>14}",
        "method",
        "violations",
        "violated [%]",
        "time [ms]",
        "mean e [us]",
        "truth rms [us]",
        "p50 |e| [us]",
        "p99 |e| [us]",
        "max |e| [us]",
        "in l/2 [%]",
        "closer",
        "further",
        "interval-d [%]"
    );
    for r in clc_survey(scale, seed) {
        let t = &r.truth;
        println!(
            "{:<40} {:>12} {:>14.3} {:>12.1} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.2} {:>9} {:>9} {:>14.3}",
            r.method,
            r.violations,
            r.violated_pct,
            r.millis,
            t.mean_us,
            t.rms_us,
            t.p50_abs_us,
            t.p99_abs_us,
            t.max_abs_us,
            100.0 * t.within_share,
            t.moved_closer,
            t.moved_further,
            t.interval_distortion_pct
        );
    }
    println!("truth: each event's true time on the master's ideal clock (Eq. 3's frame); |e| in l/2: within half the inter-node l_min (§III); closer/further: moved events against the method's input (raw, or Eq. 3 for the CLCs); interval-d: local intervals against the true ones.");
    println!("paper conclusion: interpolation alone leaves violations; the CLC restores the clock condition completely.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clc_removes_all_violations_and_interpolation_does_not() {
        let results = clc_survey(40, 6);
        let get = |name: &str| {
            results
                .iter()
                .find(|r| r.method == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .clone()
        };
        let raw = get("uncorrected");
        let interp = get("linear interpolation (Eq. 3)");
        let clc = get("interpolation + CLC");
        assert!(raw.violations > 0, "raw trace should violate");
        assert!(
            interp.violations < raw.violations,
            "interpolation should help"
        );
        assert!(interp.violations > 0, "but not fully (the paper's point)");
        assert_eq!(clc.violations, 0, "CLC must restore the clock condition");
    }
}
