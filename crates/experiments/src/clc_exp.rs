//! The constructive §V experiment: remove the violations Fig. 7 exposed.
//!
//! Takes a POP-like traced run and pushes it through every synchronisation
//! method the paper surveys — offset alignment, linear interpolation (Eq. 3),
//! the CLC on top of interpolation, and the classic baselines (Duda via
//! Jézéquel spanning trees, Babaoğlu full-exchange bounds) — then reports
//! residual violations and each method's error against the true event
//! times ([`TruthReport`]).

use crate::common::{print_claims, Claim};
use crate::fig7::{pop_program, traced_run, TracedRun};
use crate::survey::babaoglu::{full_exchange_maps, FullExchangeFit};
use crate::survey::jezequel::spanning_tree_maps;
use crate::survey::truth::{eq3_frame, TruthReport};
use crate::survey::PiecewiseInterpolation;
use clocksync::{
    apply_maps, synchronize, ClcParams, IdentityMap, PipelineConfig, PreSync, TimestampMap,
};
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

/// The survey's rows and what its claims read beside them.
#[derive(Debug, Clone)]
pub struct Survey {
    /// One row per method, the uncorrected trace first.
    pub methods: Vec<MethodResult>,
    /// Events off the master's node that Eq. 3 leaves within §III's bound
    /// of the truth.
    pub eq3_off_node_within: usize,
}

/// Labels of the rows the §V claims read.
const RAW: &str = "uncorrected";
const ALIGN: &str = "offset alignment";
const EQ3: &str = "linear interpolation (Eq. 3)";
const CLC: &str = "interpolation + CLC";

/// Run the survey on a fresh POP-like run.
pub fn clc_survey(scale: usize, seed: u64) -> Survey {
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
    let score = |method: &'static str, input: &Trace, t: &Trace| {
        let (violations, violated_pct) = census(t, &lmin_owned);
        let truth = TruthReport::new(input, t, &truth, bound);
        MethodResult { method, violations, violated_pct, truth }
    };

    // Raw.
    out.push(score(RAW, &base.trace, &base.trace));

    // Alignment / interpolation / CLC via the pipeline.
    let pipeline = |cfg: PipelineConfig| {
        let mut t = base.trace.clone();
        synchronize(&mut t, &base.init, Some(&base.fin), &lmin_owned, &cfg)
            .expect("pipeline runs");
        t
    };
    let t = pipeline(PipelineConfig { presync: PreSync::AlignOnly, clc: None, ..Default::default() });
    out.push(score(ALIGN, &base.trace, &t));
    let eq3 = pipeline(PipelineConfig { presync: PreSync::Linear, clc: None, ..Default::default() });
    out.push(score(EQ3, &base.trace, &eq3));
    let master = base.cluster.placement.node_of(0);
    let eq3_off_node_within = (0..eq3.n_procs())
        .filter(|&p| base.cluster.placement.node_of(p) != master)
        .flat_map(|p| eq3.procs[p].events.iter().zip(&truth[p]))
        .filter(|(e, &t)| (e.time - t).abs() <= bound)
        .count();
    let t = pipeline(PipelineConfig {
        presync: PreSync::Linear,
        clc: Some(ClcParams::default()),
        ..Default::default()
    });
    out.push(score(CLC, &eq3, &t));

    // Doleschal-style periodic internal synchronisation (paper [17]):
    // piecewise-linear interpolation through init + eight mid-run + finalize
    // probe anchors.
    {
        let mut t = base.trace.clone();
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
        out.push(score("periodic probes, piecewise (Doleschal)", &base.trace, &t));
    }

    // Jézéquel spanning tree of Duda pairwise fits.
    {
        let mut t = base.trace.clone();
        let m = match_messages(&t);
        match spanning_tree_maps(&t, &m, &lmin_owned, 0) {
            Ok(maps) => {
                let boxed: Vec<Box<dyn TimestampMap>> = maps
                    .into_iter()
                    .map(|m| Box::new(m) as Box<dyn TimestampMap>)
                    .collect();
                apply_maps(&mut t, &boxed);
                out.push(score("Jezequel tree of Duda fits", &base.trace, &t));
            }
            Err(e) => eprintln!("jezequel failed: {e}"),
        }
    }

    // Babaoğlu full-exchange bounds (piecewise fit).
    {
        let mut t = base.trace.clone();
        let insts = match_collectives(&t).expect("well-formed");
        match full_exchange_maps(&t, &insts, &lmin_owned, 0, FullExchangeFit::Piecewise(16)) {
            Ok(maps) => {
                apply_maps(&mut t, &maps);
                out.push(score("Babaoglu full-exchange (piecewise)", &base.trace, &t));
            }
            Err(e) => eprintln!("babaoglu failed: {e}"),
        }
    }

    Survey { methods: out, eq3_off_node_within }
}

/// The §V claims: the paper's methods before the CLC (no correction,
/// offset alignment, Eq. 3) leave violations and the CLC leaves none; and
/// Eq. 3 leaves no event off the master's node within §III's bound. (The
/// survey's other baselines are not the paper's: periodic probes and the
/// Jézéquel tree leave 0 violations on some seeds.)
pub fn claims(survey: &Survey) -> Vec<Claim> {
    let row = |label: &str| survey.methods.iter().find(|r| r.method == label);
    let violates = |label| row(label).is_some_and(|r| r.violations > 0);
    vec![
        Claim::new(
            "sec5.clc",
            [RAW, ALIGN, EQ3].into_iter().all(violates) && row(CLC).is_some_and(|r| r.violations == 0),
            "interpolation alone leaves violations; the CLC restores the clock condition completely",
        ),
        Claim::new(
            "sec5.eq3",
            row(EQ3).is_some() && survey.eq3_off_node_within == 0,
            "Eq. 3 leaves no event off the master's node within half the inter-node latency of the truth",
        ),
    ]
}

/// Print the survey and its claims.
pub fn print_clc(survey: &Survey) -> Vec<Claim> {
    println!("\n## §V — removing the violations: synchronisation method survey (POP-like run)");
    println!(
        "{:<40} {:>12} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9} {:>9} {:>14}",
        "method",
        "violations",
        "violated [%]",
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
    for r in &survey.methods {
        let t = &r.truth;
        println!(
            "{:<40} {:>12} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.2} {:>9} {:>9} {:>14.3}",
            r.method,
            r.violations,
            r.violated_pct,
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
    println!("truth: each event's true time on the master's ideal clock (Eq. 3's frame); |e| in l/2: within half the inter-node l_min (§III); closer/further: moved events against the method's input (raw, or Eq. 3 for the CLC); interval-d: local intervals of at least 1 us against the true ones.");
    println!("Eq. 3 leaves {} events off the master's node in l/2.", survey.eq3_off_node_within);
    print_claims(claims(survey))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claims on a short run, and on that run's rows edited into a
    /// counterexample per condition.
    #[test]
    fn clc_claims_hold_on_a_short_run_and_fail_on_counterexamples() {
        let survey = clc_survey(40, 6);
        let verdicts = |s: &Survey| claims(s).iter().map(|c| c.holds).collect::<Vec<_>>();
        assert_eq!(verdicts(&survey), [true, true], "{:?}", claims(&survey));
        let violations = |label: &str| survey.methods.iter().find(|r| r.method == label).unwrap().violations;
        assert!(violations(EQ3) < violations(RAW), "interpolation should help");
        fn row<'a>(s: &'a mut Survey, label: &str) -> &'a mut MethodResult {
            s.methods.iter_mut().find(|r| r.method == label).unwrap()
        }
        let mut clean_eq3 = survey.clone();
        row(&mut clean_eq3, EQ3).violations = 0;
        assert_eq!(verdicts(&clean_eq3), [false, true]);
        let mut leaky_clc = survey.clone();
        row(&mut leaky_clc, CLC).violations = 1;
        assert_eq!(verdicts(&leaky_clc), [false, true]);
        let accurate = Survey { eq3_off_node_within: 1, ..survey.clone() };
        assert_eq!(verdicts(&accurate), [true, false]);
    }
}
