//! Samples, spans and the statistics over them.
//!
//! One [`Recorder`] collects a [`Sample`] per job (always) and spans per
//! job (traced rounds only). Spans are recorded from the benchmark's side
//! of the call boundary: the job span is the wall time of the public call,
//! its children are the `PipelineStats` rows or service timings that call
//! returned. A layer's self time is its span minus what its children
//! cover; for the job span that is `pipeline.unattributed_share`.

use crate::drive::JobOut;
use crate::host::HostSample;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Per-job facts, traced or not.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Round the job ran in.
    pub round: u32,
    /// Whether the round was traced.
    pub traced: bool,
    /// Wall seconds from input handed over to result returned.
    pub wall_s: f64,
    /// Bytes handed to the job.
    pub input_bytes: u64,
    /// Bytes the job handed back (stream paths).
    pub output_bytes: u64,
    /// What the call reported.
    pub out: JobOut,
}

/// One span: `(name, start, end, parent, job id, items, bytes)`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (non-zero).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Job the span belongs to; spans of one job share it.
    pub job: u64,
    /// Layer-qualified name (`pipeline.clc`, `net.transfer`, ...).
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start_s: f64,
    /// Seconds since the recorder's epoch.
    pub end_s: f64,
    /// Work items (events, census items) where the layer reports them.
    pub items: u64,
    /// Bytes moved where the layer reports them.
    pub bytes: u64,
}

/// Root span of a directly driven job.
pub const JOB: &str = "job";
/// Root span of an in-process service job (`net_mixed` traced run).
pub const INPROC_JOB: &str = "inproc_job";
/// The service's run phase under [`INPROC_JOB`]; parents `pipeline.*`.
pub const INPROC_RUN: &str = "inproc.run";

/// Span name of a `PipelineStats` stage row. The three censuses fold into
/// one layer, the windowed engine's `index` is its ingest and its two CLC
/// passes are one CLC.
fn stage_span(stage: &str) -> &'static str {
    match stage {
        "match" => "pipeline.match",
        "lower" => "pipeline.lower",
        "gather" => "pipeline.gather",
        "ingest" | "index" => "pipeline.ingest",
        "plan" => "pipeline.plan",
        s if s.starts_with("census:") => "pipeline.census",
        "presync" => "pipeline.presync",
        s if s.starts_with("clc") => "pipeline.clc",
        "online" => "pipeline.online",
        "scatter" => "pipeline.scatter",
        "emit" => "pipeline.emit",
        _ => "pipeline.other",
    }
}

/// How a job's wall time splits below the job span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Children are the pipeline stage rows.
    Pipeline,
    /// Children are queue wait, run and the remainder (`net.transfer`).
    Net,
    /// In-process service: queue wait, run (parenting the stage rows) and
    /// the remainder (`inproc.overhead`).
    Inproc,
}

/// Collects samples, spans and verdicts. One per thread that runs jobs;
/// [`Recorder::merge`] folds a lane back into the main recorder.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// Lanes handed out so far; each gets its own span-id range.
    lanes: u64,
    /// One per directly driven job (the in-process twin's jobs leave
    /// spans only).
    pub samples: Vec<Sample>,
    /// Traced rounds only.
    pub spans: Vec<Span>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that errored or failed verification.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Host counter deltas over traced jobs.
    pub host: HostSample,
    /// Jobs the host deltas cover.
    pub host_jobs: u64,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder::with_lane(epoch, 0)
    }

    /// Span ids of lane `n` start at `n << 40`, so lanes never collide.
    fn with_lane(epoch: Instant, lane: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: (lane << 40) + 1,
            lanes: 0,
            samples: Vec::new(),
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            host: HostSample::default(),
            host_jobs: 0,
        }
    }

    /// A fresh lane sharing this recorder's epoch, for a thread of its
    /// own; [`Recorder::merge`] folds it back.
    pub fn lane(&mut self) -> Recorder {
        self.lanes += 1;
        Recorder::with_lane(self.epoch, self.lanes)
    }

    /// Fold a lane back in.
    pub fn merge(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.add_host(other.host, HostSample::default(), other.host_jobs);
    }

    /// Count a failed job (error or verification miss).
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Add the host counter delta `after − before` covering `jobs` jobs.
    pub fn add_host(&mut self, after: HostSample, before: HostSample, jobs: u64) {
        self.host.minor_faults += after.minor_faults.saturating_sub(before.minor_faults);
        self.host.user_s += after.user_s - before.user_s;
        self.host.sys_s += after.sys_s - before.sys_s;
        self.host_jobs += jobs;
    }

    /// Record a span of `(start, duration)` seconds carrying `(items,
    /// bytes)`; returns its id.
    fn span(
        &mut self,
        parent: u64,
        job: u64,
        name: &'static str,
        at: (f64, f64),
        work: (u64, u64),
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_s: at.0,
            end_s: at.0 + at.1,
            items: work.0,
            bytes: work.1,
        });
        id
    }

    /// Record one verified job that started at `start`. In a traced round
    /// this also records the job span and its children. Stage rows carry
    /// durations, not start times, so children are laid end to end from
    /// the parent's start: durations and nesting are real, offsets inside
    /// the parent are not.
    pub fn job(&mut self, start: Instant, shape: Shape, sample: Sample) {
        self.attempted += 1;
        if sample.traced {
            let t0 = start.duration_since(self.epoch).as_secs_f64();
            let out = &sample.out;
            let root_name = if shape == Shape::Inproc {
                INPROC_JOB
            } else {
                JOB
            };
            let root = self.next_id;
            let moved = sample.input_bytes + sample.output_bytes;
            self.span(0, root, root_name, (t0, sample.wall_s), (out.events, moved));
            let mut stage_parent = root;
            let mut cursor = t0;
            if shape != Shape::Pipeline {
                let (queue, run, rest) = match shape {
                    Shape::Net => ("syncd.queue_wait", "syncd.run", "net.transfer"),
                    _ => ("inproc.queue_wait", INPROC_RUN, "inproc.overhead"),
                };
                let (queue_s, run_s) = (out.queue_wait_s, out.run_s);
                let rest_s = (sample.wall_s - queue_s - run_s).max(0.0);
                self.span(root, root, queue, (t0, queue_s), (0, 0));
                stage_parent = self.span(root, root, run, (t0 + queue_s, run_s), (out.events, 0));
                self.span(root, root, rest, (t0 + queue_s + run_s, rest_s), (0, moved));
                cursor = t0 + queue_s;
            }
            for &(stage, seconds, items) in &out.stages {
                self.span(
                    stage_parent,
                    root,
                    stage_span(stage),
                    (cursor, seconds),
                    (items, 0),
                );
                cursor += seconds;
            }
        }
        if shape != Shape::Inproc {
            self.samples.push(sample);
        }
    }
}

/// Median of `xs` (upper middle); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p ∈ (0, 1]` of `xs`; sorts in place; 0 when
/// empty.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// One waterfall row: a child layer of the root span.
#[derive(Debug, Clone)]
pub struct WaterfallRow {
    /// Child span name.
    pub name: &'static str,
    /// Median over roots of the child's summed seconds per root.
    pub median_s: f64,
    /// Child seconds / root seconds, summed over all roots.
    pub share: f64,
}

/// The children of every span named `root`, aggregated by name.
#[derive(Debug, Clone)]
pub struct Waterfall {
    /// Root span name.
    pub root: &'static str,
    /// Number of root spans.
    pub roots: usize,
    /// Median root duration.
    pub root_median_s: f64,
    /// Children in order of first appearance.
    pub rows: Vec<WaterfallRow>,
    /// Root self time / root time: what no child explains.
    pub self_share: f64,
}

impl Waterfall {
    /// The row named `name`.
    pub fn row(&self, name: &str) -> Option<&WaterfallRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Aggregate the direct children of every span named `root`.
pub fn waterfall(spans: &[Span], root: &'static str) -> Option<Waterfall> {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    if roots.is_empty() {
        return None;
    }
    let index: HashMap<u64, usize> = roots.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut order: Vec<&'static str> = Vec::new();
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let Some(&i) = index.get(&s.parent) else {
            continue;
        };
        let lane = per_name.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            vec![0.0; roots.len()]
        });
        lane[i] += s.end_s - s.start_s;
    }
    let mut root_durs: Vec<f64> = roots.iter().map(|s| s.end_s - s.start_s).collect();
    let total: f64 = root_durs.iter().sum();
    let mut covered = 0.0;
    let rows = order
        .into_iter()
        .map(|name| {
            let lane = per_name.get_mut(name).expect("ordered names are keys");
            let sum: f64 = lane.iter().sum();
            covered += sum;
            WaterfallRow {
                name,
                median_s: median(lane),
                share: sum / total.max(1e-12),
            }
        })
        .collect();
    Some(Waterfall {
        root,
        roots: roots.len(),
        root_median_s: median(&mut root_durs),
        rows,
        self_share: (1.0 - covered / total.max(1e-12)).max(0.0),
    })
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value over the whole run.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The same statistic per round, so drift between rounds is readable
    /// (empty where a per-round value makes no sense).
    pub rounds: Vec<f64>,
    /// Samples behind `value` (0 where it is not a sample statistic).
    pub n: usize,
}

impl Metric {
    /// A metric without per-round detail.
    pub fn plain(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            rounds: Vec::new(),
            n: 0,
        }
    }
}

/// JSON number: every digit of a finite value, 0 for NaN/∞.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The span list as a JSON array, one span per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"job\": {}, \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"items\": {}, \"bytes\": {}}}{}\n",
            s.id,
            s.parent,
            s.job,
            quote(s.name),
            num(s.start_s),
            num(s.end_s),
            s.items,
            s.bytes,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.95), 95.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    fn sample(wall_s: f64, stages: Vec<(&'static str, f64, u64)>) -> Sample {
        Sample {
            traced: true,
            wall_s,
            out: JobOut {
                events: 10,
                stages,
                queue_wait_s: 0.1,
                run_s: 0.6,
                ..JobOut::default()
            },
            ..Sample::default()
        }
    }

    #[test]
    fn waterfall_shares_and_self_time_sum_to_one() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        for _ in 0..3 {
            rec.job(
                epoch,
                Shape::Pipeline,
                sample(
                    1.0,
                    vec![
                        ("match", 0.2, 10),
                        ("census:raw", 0.1, 4),
                        ("census:clc", 0.1, 4),
                        ("clc", 0.5, 10),
                    ],
                ),
            );
        }
        let w = waterfall(&rec.spans, JOB).expect("jobs recorded");
        assert_eq!(w.roots, 3);
        assert!((w.row("pipeline.census").expect("folded").share - 0.2).abs() < 1e-9);
        assert!((w.row("pipeline.clc").expect("row").median_s - 0.5).abs() < 1e-9);
        let sum: f64 = w.rows.iter().map(|r| r.share).sum::<f64>() + w.self_share;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((w.self_share - 0.1).abs() < 1e-9);
    }

    #[test]
    fn net_and_inproc_jobs_nest_queue_run_and_remainder() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        rec.job(epoch, Shape::Net, sample(1.0, Vec::new()));
        rec.job(epoch, Shape::Inproc, sample(1.0, vec![("clc", 0.3, 10)]));
        let net = waterfall(&rec.spans, JOB).expect("net job");
        assert!((net.row("net.transfer").expect("remainder").share - 0.3).abs() < 1e-9);
        assert!(net.self_share < 1e-9);
        let run = waterfall(&rec.spans, INPROC_RUN).expect("inproc run");
        assert!((run.row("pipeline.clc").expect("stage").share - 0.5).abs() < 1e-9);
        assert!((run.self_share - 0.5).abs() < 1e-9);
        // Untraced jobs leave samples but no spans.
        let before = rec.spans.len();
        rec.job(
            epoch,
            Shape::Net,
            Sample {
                traced: false,
                ..sample(1.0, Vec::new())
            },
        );
        assert_eq!(rec.spans.len(), before);
        assert_eq!(
            rec.samples.len(),
            2,
            "the in-process twin leaves spans, not samples"
        );
        assert_eq!(rec.attempted, 3);
        // Lanes get span-id ranges of their own, however many are taken.
        let (a, b) = (rec.lane(), rec.lane());
        assert_ne!(a.next_id, b.next_id);
        assert!(a.next_id > rec.next_id);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 7, 0, &[Metric::plain("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(quote("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
