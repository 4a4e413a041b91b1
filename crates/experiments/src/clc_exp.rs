//! The constructive §V experiment: remove the violations Fig. 7 exposed.
//!
//! Takes a POP-like traced run and pushes it through every synchronisation
//! method the paper surveys — offset alignment, linear interpolation (Eq. 3),
//! the CLC on top of interpolation, and the classic baselines (Duda via
//! Jézéquel spanning trees, Babaoğlu full-exchange bounds) — then reports
//! residual violations and wall time.

use crate::fig7::{pop_program, traced_run, TracedRun};
use crate::survey::babaoglu::{full_exchange_maps, FullExchangeFit};
use crate::survey::domains::controlled_logical_clock_with_domains;
use crate::survey::jezequel::spanning_tree_maps;
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
    /// Mean relative distortion of local interval lengths vs. the raw
    /// trace, percent (interval preservation quality).
    pub interval_distortion_pct: f64,
}

fn distortion(raw: &Trace, corrected: &Trace) -> f64 {
    tracefmt::diff_traces(raw, corrected)
        .map(|d| d.mean_interval_distortion_pct())
        .unwrap_or(f64::NAN)
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

    // Raw.
    let (v, p) = census(&base.trace, &lmin_owned);
    out.push(MethodResult {
        method: "uncorrected",
        violations: v,
        violated_pct: p,
        millis: 0.0,
        interval_distortion_pct: 0.0,
    });

    // Alignment / interpolation / CLC via the pipeline.
    let pipeline_method = |name: &'static str, cfg: PipelineConfig| -> MethodResult {
        let mut t = base.trace.clone();
        let start = Instant::now();
        synchronize(&mut t, &base.init, Some(&base.fin), &lmin_owned, &cfg)
            .expect("pipeline runs");
        let millis = start.elapsed().as_secs_f64() * 1e3;
        let (v, p) = census(&t, &lmin_owned);
        MethodResult {
            method: name,
            violations: v,
            violated_pct: p,
            millis,
            interval_distortion_pct: distortion(&base.trace, &t),
        }
    };
    out.push(pipeline_method(
        "offset alignment",
        PipelineConfig { presync: PreSync::AlignOnly, clc: None, ..Default::default() },
    ));
    out.push(pipeline_method(
        "linear interpolation (Eq. 3)",
        PipelineConfig { presync: PreSync::Linear, clc: None, ..Default::default() },
    ));
    out.push(pipeline_method(
        "interpolation + CLC",
        PipelineConfig { presync: PreSync::Linear, clc: Some(ClcParams::default()), ..Default::default() },
    ));

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
        let (v, p) = census(&t, &lmin_owned);
        out.push(MethodResult {
            method: "periodic probes, piecewise (Doleschal)",
            violations: v,
            violated_pct: p,
            millis,
            interval_distortion_pct: distortion(&base.trace, &t),
        });
    }

    // Clock-domain-aware CLC (the paper's §VI future work): ranks on one
    // chip share a clock and move together.
    {
        let mut t = base.trace.clone();
        synchronize(
            &mut t,
            &base.init,
            Some(&base.fin),
            &lmin_owned,
            &PipelineConfig { presync: PreSync::Linear, clc: None, ..Default::default() },
        )
        .expect("pipeline runs");
        let start = Instant::now();
        controlled_logical_clock_with_domains(
            &mut t,
            &lmin_owned,
            &ClcParams::default(),
            &base.clock_domains,
        )
        .expect("domain CLC runs");
        let millis = start.elapsed().as_secs_f64() * 1e3;
        let (v, p) = census(&t, &lmin_owned);
        out.push(MethodResult {
            method: "interpolation + domain-aware CLC",
            violations: v,
            violated_pct: p,
            millis,
            interval_distortion_pct: distortion(&base.trace, &t),
        });
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
                let (v, p) = census(&t, &lmin_owned);
                out.push(MethodResult {
                    method: "Jezequel tree of Duda fits",
                    violations: v,
                    violated_pct: p,
                    millis,
                    interval_distortion_pct: distortion(&base.trace, &t),
                });
            }
            Err(e) => {
                out.push(MethodResult {
                    method: "Jezequel tree of Duda fits",
                    violations: usize::MAX,
                    violated_pct: 100.0,
                    millis: 0.0,
                    interval_distortion_pct: f64::NAN,
                });
                eprintln!("jezequel failed: {e}");
            }
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
                let (v, p) = census(&t, &lmin_owned);
                out.push(MethodResult {
                    method: "Babaoglu full-exchange (piecewise)",
                    violations: v,
                    violated_pct: p,
                    millis,
                    interval_distortion_pct: distortion(&base.trace, &t),
                });
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
        "{:<40} {:>12} {:>14} {:>12} {:>14}",
        "method", "violations", "violated [%]", "time [ms]", "interval-d [%]"
    );
    for r in clc_survey(scale, seed) {
        println!(
            "{:<40} {:>12} {:>14.3} {:>12.1} {:>14.3}",
            r.method, r.violations, r.violated_pct, r.millis, r.interval_distortion_pct
        );
    }
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
