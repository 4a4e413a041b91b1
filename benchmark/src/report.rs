//! From samples and spans to the named metrics of `BENCHMARK.json`.
//!
//! The two tables below are the single list of metric names and units;
//! a test holds `BENCHMARK.json` to them.

use crate::host;
use crate::measure::{self, median, percentile, waterfall, Metric, Sample, Span, Waterfall};
use crate::workloads::InputFacts;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_p95", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit, child span it is the per-job median
/// of)`. Measured in the traced run; a layer that is not on a workload's
/// path reads 0 there.
pub const PER_LAYER: &[(&str, &str, Option<&str>)] = &[
    ("pipeline.match_s", "s", Some("pipeline.match")),
    ("pipeline.lower_s", "s", Some("pipeline.lower")),
    ("pipeline.gather_s", "s", Some("pipeline.gather")),
    ("pipeline.ingest_s", "s", Some("pipeline.ingest")),
    ("pipeline.plan_s", "s", Some("pipeline.plan")),
    ("pipeline.census_s", "s", Some("pipeline.census")),
    ("pipeline.presync_s", "s", Some("pipeline.presync")),
    ("pipeline.clc_s", "s", Some("pipeline.clc")),
    ("pipeline.online_s", "s", Some("pipeline.online")),
    ("pipeline.scatter_s", "s", Some("pipeline.scatter")),
    ("pipeline.emit_s", "s", Some("pipeline.emit")),
    ("pipeline.unattributed_share", "share", None),
    ("tracefmt.encode_v3_s", "s", None),
    ("tracefmt.decode_v3_s", "s", None),
    ("tracefmt.match_s", "s", None),
    ("tracefmt.plan_s", "s", None),
    ("tracefmt.census_s", "s", None),
    ("clocksync.presync_s", "s", None),
    ("clocksync.lower_s", "s", None),
    ("clocksync.clc_serial_s", "s", None),
    ("onlinesync.filter_updates_per_s", "1/s", None),
    ("onlinesync.corrector_events_per_s", "1/s", None),
    ("syncd-wire.encode_s", "s", None),
    ("syncd-wire.scan_s", "s", None),
    ("syncd.admission_estimate_s", "s", None),
    ("syncd.queue_wait_s", "s", Some("syncd.queue_wait")),
    ("syncd.run_s", "s", Some("syncd.run")),
    ("net.transfer_s", "s", Some("net.transfer")),
    ("net.transfer_share", "share", None),
    ("syncd.service_overhead_s", "s", None),
    ("net.upload_bytes", "B", None),
    ("net.download_bytes", "B", None),
    ("job.events", "count", None),
    ("job.input_bytes", "B", None),
    ("clc.jumps", "count", None),
    ("clc.events_moved", "count", None),
    ("windowed.peak_resident_column_bytes", "B", None),
    ("windowed.frames_out", "count", None),
    ("host.minor_faults_per_job", "count", None),
    ("host.sys_cpu_share", "share", None),
    ("host.user_cpu_s_per_job", "s", None),
    ("host.calib_ms", "ms", None),
    ("host.factor", "ratio", None),
    ("trace.overhead_share", "share", None),
    ("trace.job_s_p50", "s", None),
    ("verify.residual_violations", "count", None),
    ("verify.failed_share", "share", None),
];

/// What one round of the run recorded besides its jobs.
#[derive(Debug, Clone)]
pub struct RoundInfo {
    /// Median of the calibration samples taken between the round's
    /// slices.
    pub calib_ms: f64,
    /// Wall seconds `events_per_s` divides by (see `Workload::round`).
    pub busy_s: f64,
}

impl RoundInfo {
    /// The round's host factor: how much slower than nominal the host
    /// ran the calibration kernel while the round's jobs ran. Wall
    /// seconds divided by it are host-normalised seconds.
    pub fn host_factor(&self) -> f64 {
        (self.calib_ms / host::CALIB_NOMINAL_MS).max(1e-9)
    }
}

/// Everything the metric functions read.
pub struct Run<'a> {
    /// Wall seconds of each repeated set-up.
    pub setups_s: &'a [f64],
    /// Median calibration over the samples taken around the set-ups.
    pub setup_calib_ms: f64,
    /// One entry per round, in order.
    pub rounds: &'a [RoundInfo],
    /// One entry per verified job.
    pub samples: &'a [Sample],
    /// Facts of the workload's distinct inputs.
    pub facts: &'a [InputFacts],
    /// Layer probes, `(metric, value)`.
    pub probes: &'a [(&'static str, f64)],
    /// The first few failure messages.
    pub failures: &'a [String],
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed (errors, verification misses, pin misses).
    pub failed: u64,
    /// Host counter deltas over the traced jobs, and how many.
    pub host: (crate::host::HostSample, u64),
    /// Median over the job slices of each slice's `VmHWM`, net of the
    /// calibrator's buffer.
    pub peak_rss_mb: f64,
}

/// Job wall times that pass `keep`, each divided by its round's host
/// factor when `normalise` is set.
fn walls(run: &Run<'_>, normalise: bool, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    let factor = |s: &Sample| {
        if normalise {
            run.rounds[s.round as usize].host_factor()
        } else {
            1.0
        }
    };
    run.samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.wall_s / factor(s))
        .collect()
}

/// The five end-to-end metrics, from the untraced jobs (every job of a
/// `--trace 0` run).
///
/// Times are **host-normalised seconds**: a round's wall times are
/// divided by the round's host factor, so that a neighbour on the machine
/// slowing a round down does not read as the code having got slower (see
/// `host::Calibrator`). `normalise = false` gives the same statistics
/// over plain wall seconds, which the run prints next to them.
///
/// Each timing metric is the **median over rounds** of the per-round
/// statistic (the row carries the per-round values): a burst that hits
/// one or two of six rounds moves neither the median job time nor the
/// tail, where a percentile pooled over all jobs would hand the whole
/// tail to the worst round.
pub fn end_to_end(run: &Run<'_>, normalise: bool) -> Vec<Metric> {
    let untraced: Vec<u32> = (0..run.rounds.len() as u32)
        .filter(|&r| run.samples.iter().any(|s| s.round == r && !s.traced))
        .collect();
    let factor = |r: u32| {
        if normalise {
            run.rounds[r as usize].host_factor()
        } else {
            1.0
        }
    };
    let per_round = |p: f64| -> Vec<f64> {
        untraced
            .iter()
            .map(|&r| percentile(&mut walls(run, normalise, |s| s.round == r && !s.traced), p))
            .collect()
    };
    let rate = |r: u32| -> f64 {
        let events: f64 = run
            .samples
            .iter()
            .filter(|s| s.round == r && !s.traced)
            .map(|s| s.out.events as f64)
            .sum();
        events / (run.rounds[r as usize].busy_s / factor(r)).max(1e-12)
    };
    let n = run.samples.iter().filter(|s| !s.traced).count();
    let over_rounds = |name, unit, rounds: Vec<f64>| Metric {
        name,
        value: median(&mut rounds.clone()),
        unit,
        rounds,
        n,
    };
    let setup_factor = if normalise {
        (run.setup_calib_ms / host::CALIB_NOMINAL_MS).max(1e-9)
    } else {
        1.0
    };
    let setups: Vec<f64> = run.setups_s.iter().map(|s| s / setup_factor).collect();
    END_TO_END
        .iter()
        .map(|&(name, unit)| match name {
            "setup_s" => Metric {
                n: setups.len(),
                ..over_rounds(name, unit, setups.clone())
            },
            "events_per_s" => over_rounds(name, unit, untraced.iter().map(|&r| rate(r)).collect()),
            "job_s_p50" => over_rounds(name, unit, per_round(0.5)),
            "job_s_p95" => over_rounds(name, unit, per_round(0.95)),
            "peak_rss_mb" => Metric::plain(name, run.peak_rss_mb, unit),
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect()
}

/// The waterfalls of a traced run: the job span, and for `net_mixed` the
/// in-process twin's job and run spans.
pub fn waterfalls(spans: &[Span]) -> Vec<Waterfall> {
    [measure::JOB, measure::INPROC_JOB, measure::INPROC_RUN]
        .into_iter()
        .filter_map(|root| waterfall(spans, root))
        .collect()
}

/// Every per-layer metric, in table order; `falls` are the run's
/// [`waterfalls`].
pub fn per_layer(run: &Run<'_>, falls: &[Waterfall]) -> Vec<Metric> {
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    let fall = |root: &str| falls.iter().find(|w| w.root == root);

    // Child spans → per-job medians. Stage rows sit under the job span,
    // or under the in-process twin's run span where the job went over
    // the wire (which carries no stage table).
    let stage_parent = fall(measure::JOB)
        .filter(|w| w.rows.iter().any(|r| r.name.starts_with("pipeline.")))
        .or(fall(measure::INPROC_RUN));
    for &(name, _, span) in PER_LAYER {
        let Some(span) = span else { continue };
        let from = if span.starts_with("pipeline.") {
            stage_parent
        } else {
            fall(measure::JOB)
        };
        if let Some(row) = from.and_then(|w| w.row(span)) {
            v.insert(name, row.median_s);
        }
    }
    if let Some(w) = stage_parent {
        v.insert("pipeline.unattributed_share", w.self_share);
    }
    if let Some(row) = fall(measure::JOB).and_then(|w| w.row("net.transfer")) {
        v.insert("net.transfer_share", row.share);
    }
    if let Some(row) = fall(measure::INPROC_JOB).and_then(|w| w.row("inproc.overhead")) {
        v.insert("syncd.service_overhead_s", row.median_s);
    }
    for &(name, value) in run.probes {
        v.insert(name, value);
    }

    // Counts the calls returned, per-job medians over the traced jobs.
    let traced: Vec<&Sample> = run.samples.iter().filter(|s| s.traced).collect();
    let med = |f: &dyn Fn(&Sample) -> u64| {
        median(&mut traced.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    v.insert("job.events", med(&|s| s.out.events));
    v.insert("job.input_bytes", med(&|s| s.input_bytes));
    v.insert("clc.jumps", med(&|s| s.out.jumps));
    v.insert("clc.events_moved", med(&|s| s.out.events_moved));
    if traced.iter().any(|s| s.out.frames > 0) {
        v.insert(
            "windowed.peak_resident_column_bytes",
            med(&|s| s.out.peak_column_bytes),
        );
        v.insert("windowed.frames_out", med(&|s| s.out.frames));
    }
    if fall(measure::JOB).is_some_and(|w| w.row("net.transfer").is_some()) {
        v.insert("net.upload_bytes", med(&|s| s.input_bytes));
        v.insert("net.download_bytes", med(&|s| s.output_bytes));
    }

    let (host, host_jobs) = run.host;
    if host_jobs > 0 {
        v.insert(
            "host.minor_faults_per_job",
            host.minor_faults as f64 / host_jobs as f64,
        );
        v.insert("host.user_cpu_s_per_job", host.user_s / host_jobs as f64);
        v.insert(
            "host.sys_cpu_share",
            host.sys_s / (host.user_s + host.sys_s).max(1e-12),
        );
    }
    // Traced and untraced slices alternate, so normalised medians compare
    // like with like even when the host drifts across the run.
    let p50_traced = median(&mut walls(run, true, |s| s.traced));
    let p50_untraced = median(&mut walls(run, true, |s| !s.traced));
    v.insert(
        "trace.job_s_p50",
        median(&mut walls(run, false, |s| s.traced)),
    );
    if p50_untraced > 0.0 {
        v.insert("trace.overhead_share", p50_traced / p50_untraced - 1.0);
    }
    v.insert(
        "verify.residual_violations",
        run.facts.iter().map(|f| f.residual_violations as f64).sum(),
    );
    v.insert(
        "verify.failed_share",
        run.failed as f64 / run.attempted.max(1) as f64,
    );

    let mut calib: Vec<f64> = run.rounds.iter().map(|r| r.calib_ms).collect();
    v.insert("host.factor", median(&mut calib) / host::CALIB_NOMINAL_MS);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| match name {
            "host.calib_ms" => Metric {
                name,
                value: median(&mut calib),
                unit,
                rounds: run.rounds.iter().map(|r| r.calib_ms).collect(),
                n: calib.len(),
            },
            _ => Metric::plain(name, v.get(name).copied().unwrap_or(0.0), unit),
        })
        .collect()
}

/// A waterfall as a table whose shares (with the self-time row) sum to 1.
pub fn render_waterfall(workload: &str, w: &Waterfall) -> String {
    let mut out = format!(
        "{workload} waterfall of `{}`: {} spans, median {:.6} s\n  {:<24} {:>12} {:>8}\n",
        w.root, w.roots, w.root_median_s, "layer", "median_s", "share"
    );
    for r in &w.rows {
        out.push_str(&format!(
            "  {:<24} {:>12.6} {:>8.4}\n",
            r.name, r.median_s, r.share
        ));
    }
    let total: f64 = w.rows.iter().map(|r| r.share).sum::<f64>() + w.self_share;
    out.push_str(&format!(
        "  {:<24} {:>12} {:>8.4}\n  {:<24} {:>12} {:>8.4}\n",
        "(self / unattributed)", "", w.self_share, "(sum)", "", total
    ));
    out
}

/// The detailed result document written under `benchmark/out/`.
pub fn result_json(
    workload: &str,
    seed: u64,
    traced: bool,
    run: &Run<'_>,
    metrics: &[Metric],
    falls: &[Waterfall],
) -> String {
    use measure::{num, quote};
    let (factors, failures) = (host::factors(), run.failures);
    let list = |xs: &[f64]| xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ");
    let factors: Vec<String> = factors
        .iter()
        .map(|(k, v)| format!("    {}: {}", quote(k), quote(v)))
        .collect();
    let facts: Vec<String> = run
        .facts
        .iter()
        .map(|f| {
            format!(
                "    {{\"input\": {}, \"events\": {}, \"input_bytes\": {}, \"fingerprint\": \"{:#018x}\", \"raw_violations\": {}, \"residual_violations\": {}}}",
                quote(&f.label), f.events, f.input_bytes, f.fingerprint, f.raw_violations, f.residual_violations
            )
        })
        .collect();
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}, \"per_round\": [{}]}}",
                quote(m.name), num(m.value), quote(m.unit), m.n, list(&m.rounds)
            )
        })
        .collect();
    let falls: Vec<String> = falls
        .iter()
        .map(|w| {
            let rows: Vec<String> = w
                .rows
                .iter()
                .map(|r| format!("{{\"layer\": {}, \"median_s\": {}, \"share\": {}}}", quote(r.name), num(r.median_s), num(r.share)))
                .collect();
            format!(
                "    {{\"root\": {}, \"spans\": {}, \"median_s\": {}, \"self_share\": {}, \"rows\": [{}]}}",
                quote(w.root), w.roots, num(w.root_median_s), num(w.self_share), rows.join(", ")
            )
        })
        .collect();
    let calib: Vec<f64> = run.rounds.iter().map(|r| r.calib_ms).collect();
    let failures: Vec<String> = failures.iter().map(|f| quote(f)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"traced\": {traced},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"factors\": {{\n{}\n  }},\n  \"calib_ms_per_round\": [{}],\n  \"inputs\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ],\n  \"waterfalls\": [\n{}\n  ]\n}}\n",
        quote(workload),
        run.attempted,
        run.failed,
        failures.join(", "),
        factors.join(",\n"),
        list(&calib),
        facts.join(",\n"),
        metrics.join(",\n"),
        falls.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics of the two tables, with
    /// their units, and the four workloads.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = text.matches("\"name\":").count();
        assert_eq!(
            names,
            crate::workloads::NAMES.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let units = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        for (name, unit) in units {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }

    #[test]
    fn per_layer_reports_every_name_even_with_nothing_recorded() {
        let run = Run {
            setups_s: &[],
            setup_calib_ms: 0.0,
            rounds: &[],
            samples: &[],
            facts: &[],
            probes: &[("tracefmt.match_s", 0.5)],
            failures: &[],
            attempted: 0,
            failed: 0,
            host: (Default::default(), 0),
            peak_rss_mb: 0.0,
        };
        let metrics = per_layer(&run, &[]);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "tracefmt.match_s")
                .expect("probe")
                .value,
            0.5
        );
        assert_eq!(end_to_end(&run, true).len(), END_TO_END.len());
    }
}
