//! One benchmark for the whole stack.
//!
//! ```sh
//! # every workload, six strictly interleaved rounds, 30 s measured each
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --seed 2008
//! # the same with spans recorded, for the per-layer numbers
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --traced
//! # one workload, as the driver of BENCHMARK.json runs it
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload pop_batch --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs in a process of its own, so `peak_rss_mb` of one
//! cannot inflate another's. Without `--workload` this process is only a
//! conductor: it starts one child per workload, lets each set up, and
//! hands out rounds w1, w2, w3, w4, w1, … so that drift of the host hits
//! all workloads alike (arXiv:1505.07734). See `README.md`.

mod drive;
mod host;
mod measure;
mod pins;
mod report;
mod verify;
mod workloads;

use measure::{Metric, Recorder};
use report::{RoundInfo, Run};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Repeated set-ups per run: `setup_s` is their median, and all of them
/// must agree on every input fact.
const SETUPS: usize = 5;
/// A run measures in this many rounds. Each round gets its own host
/// factor, so a neighbour's burst of ten or twenty seconds is divided
/// out of the rounds it hit instead of landing in the run's tail.
const ROUNDS: usize = 6;
/// A round runs in slices of about this length, with calibration samples
/// before, between and after them: the samples sit among the jobs they
/// normalise, at ~3 % of the wall time.
const SLICE: Duration = Duration::from_secs(1);
const CALIB_REPS: usize = 3;
/// Repetitions of each layer probe (median reported).
const PROBE_REPS: usize = 5;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    /// Child of the conductor: wait for `GO` on stdin before each round.
    paced: bool,
}

const USAGE: &str = "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--smoke]";

fn parse(args: &[String]) -> Result<Opts, String> {
    if args.first().map(String::as_str) != Some("run") {
        return Err(USAGE.into());
    }
    let mut o = Opts {
        workload: None,
        seed: pins::SEED,
        seconds: 0.0,
        traced: false,
        smoke: false,
        paced: false,
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.traced = value()? == "1",
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            "--paced" => o.paced = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if o.seconds <= 0.0 {
        // Per workload: 30 s over six interleaved rounds; the traced run
        // is a fifth of that; a smoke run only proves the checks pass.
        o.seconds = match (o.smoke, o.traced) {
            (true, _) => 1.5,
            (false, true) => 6.0,
            (false, false) => 30.0,
        };
    }
    Ok(o)
}

/// `benchmark/out/` of the checkout the benchmark runs from.
fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    let base = if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    base.join("out")
}

fn write_out(name: &str, body: &str) {
    let dir = out_dir();
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), body))
    {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let detail = if m.rounds.is_empty() {
            String::new()
        } else {
            let rounds: Vec<String> = m.rounds.iter().map(|r| format!("{r:.6}")).collect();
            format!("   # n={} per round [{}]", m.n, rounds.join(", "))
        };
        println!(
            "{workload} {} {} {}{detail}",
            m.name,
            measure::num(m.value),
            m.unit
        );
    }
}

/// Block until the conductor says `GO`; `false` on EOF.
fn wait_go() -> bool {
    let mut line = String::new();
    matches!(std::io::stdin().lock().read_line(&mut line), Ok(n) if n > 0 && line.trim() == "GO")
}

/// One workload in this process: set up, measure, verify, report.
fn run_workload(name: &str, o: &Opts) -> Result<bool, String> {
    let epoch = Instant::now();
    let host_probe = host::HostProbe::open().map_err(|e| format!("/proc/self/stat: {e}"))?;
    let mut rec = Recorder::new(epoch);
    let mut calibrator = host::Calibrator::new();
    let calibrator_mb = calibrator.resident_mb();
    let mut calibrate = |into: &mut Vec<f64>| calibrator.sample_into(CALIB_REPS, into);

    // Set up several times; keep the last. Every set-up must reproduce
    // the first one's inputs and reference outputs exactly.
    let mut setups_s = Vec::new();
    let mut setup_calib = Vec::new();
    let mut workload: Option<Box<dyn workloads::Workload>> = None;
    let mut first_facts: Option<Vec<workloads::InputFacts>> = None;
    for _ in 0..if o.smoke { 1 } else { SETUPS } {
        if let Some(old) = workload.take() {
            old.finish();
        }
        calibrate(&mut setup_calib);
        let t0 = Instant::now();
        let w = workloads::setup(name, o.seed)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        match &first_facts {
            None => first_facts = Some(w.facts().to_vec()),
            Some(first) if first != w.facts() => {
                rec.fail(format!("{name}: two set-ups with seed {} disagree", o.seed))
            }
            Some(_) => {}
        }
        workload = Some(w);
    }
    calibrate(&mut setup_calib);
    let mut workload = workload.expect("at least one set-up");
    let facts = workload.facts().to_vec();
    if o.seed == pins::SEED {
        for f in &facts {
            if let Some(&(_, pin)) = pins::PINS.iter().find(|(label, _)| *label == f.label) {
                if pin != f.fingerprint {
                    rec.fail(format!(
                        "{}: fingerprint {:#018x} != pinned {pin:#018x}",
                        f.label, f.fingerprint
                    ));
                }
            }
        }
    }
    if o.paced {
        println!("@READY");
    }

    let budget = Duration::from_secs_f64(o.seconds / ROUNDS as f64);
    let mut rounds = Vec::new();
    let (mut peak_reset, mut slice_peaks_mb) = (true, Vec::new());
    // A traced run records spans in every other slice, so its overhead
    // is a comparison between neighbours a second apart.
    let mut slices = 0u32;
    for r in 0..ROUNDS as u32 {
        if o.paced && !wait_go() {
            return Err("conductor went away".into());
        }
        let t_round = Instant::now();
        let mut calib = Vec::new();
        let mut busy_s = 0.0;
        calibrate(&mut calib);
        while t_round.elapsed() < budget {
            let slice = SLICE.min(budget.saturating_sub(t_round.elapsed()));
            // VmHWM restarts with every slice and the calibrator's
            // resident buffer is subtracted, so each slice's peak
            // describes its jobs, not set-up's generators or the harness;
            // the metric is the median slice.
            peak_reset &= host::reset_peak_rss();
            let traced = o.traced && slices % 2 == 1;
            slices += 1;
            busy_s += workload.round(slice, r, traced, &host_probe, &mut rec);
            slice_peaks_mb.push(host::peak_rss_mb() - calibrator_mb);
            calibrate(&mut calib);
        }
        rounds.push(RoundInfo {
            calib_ms: measure::median(&mut calib),
            busy_s,
        });
        if o.paced {
            println!("@ROUND_DONE");
        }
    }
    let probes = if o.traced {
        workload.probe_layers(if o.smoke { 1 } else { PROBE_REPS }, &mut rec)
    } else {
        Vec::new()
    };
    workload.finish();

    let run = Run {
        peak_rss_mb: measure::median(&mut slice_peaks_mb),
        setups_s: &setups_s,
        setup_calib_ms: measure::median(&mut setup_calib),
        rounds: &rounds,
        samples: &rec.samples,
        facts: &facts,
        probes: &probes,
        failures: &rec.failures,
        attempted: rec.attempted,
        failed: rec.failed,
        host: (rec.host, rec.host_jobs),
    };
    let correct = rec.failed == 0 && rec.attempted > 0;
    let falls = report::waterfalls(&rec.spans);
    let metrics = if o.traced {
        report::per_layer(&run, &falls)
    } else {
        report::end_to_end(&run, true)
    };

    println!(
        "# {name}: seed {}, {:.1} s in {} rounds, {} jobs attempted, {} failed",
        o.seed, o.seconds, ROUNDS, rec.attempted, rec.failed
    );
    if !peak_reset {
        println!("# {name}: /proc/self/clear_refs not writable, peak_rss_mb includes set-up and calibration");
    }
    for f in &facts {
        println!(
            "# input {}: {} events, {} B, fingerprint {:#018x}, violations {} raw -> {} residual",
            f.label,
            f.events,
            f.input_bytes,
            f.fingerprint,
            f.raw_violations,
            f.residual_violations
        );
    }
    print_metrics(name, &metrics);
    if !o.traced {
        // The same statistics over plain wall seconds, and what divided
        // them: readable, but not what a later change is judged by.
        for m in report::end_to_end(&run, false)
            .iter()
            .filter(|m| m.name != "peak_rss_mb")
        {
            println!(
                "{name} wall.{} {} {}",
                m.name,
                measure::num(m.value),
                m.unit
            );
        }
        let factors: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.4}", r.host_factor()))
            .collect();
        println!(
            "{name} host.factor per round [{}] (calibration {} ms nominal)",
            factors.join(", "),
            host::CALIB_NOMINAL_MS
        );
        // The issue's seven: the two exact ones are zero on the CLC
        // workloads, which the driver contract does not admit among its
        // end-to-end metrics, so they print here and gate the exit code.
        let residual: u64 = facts.iter().map(|f| f.residual_violations).sum();
        println!("{name} residual_violations {residual} count");
        println!(
            "{name} failed_share {} share",
            measure::num(rec.failed as f64 / rec.attempted.max(1) as f64)
        );
    }
    for w in &falls {
        print!("{}", report::render_waterfall(name, w));
    }
    for why in &rec.failures {
        println!("# FAILED {why}");
    }

    let suffix = if o.traced { "-traced" } else { "" };
    write_out(
        &format!("result-{name}{suffix}.json"),
        &report::result_json(name, o.seed, o.traced, &run, &metrics, &falls),
    );
    if o.traced {
        write_out(
            &format!("trace-{name}.json"),
            &measure::spans_json(&rec.spans),
        );
    }
    println!(
        "{}",
        measure::result_line(correct, rec.attempted.max(1), rec.failed, &metrics)
    );
    Ok(correct)
}

/// A child of the conductor.
struct Lane {
    name: &'static str,
    child: Child,
    out: BufReader<ChildStdout>,
    last_line: String,
}

impl Lane {
    /// Forward the child's output until a line equal to `marker`; `false`
    /// if the child's output ended first.
    fn forward_until(&mut self, marker: Option<&str>) -> bool {
        let mut line = String::new();
        loop {
            line.clear();
            match self.out.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => return false,
            }
            let text = line.trim_end();
            if Some(text) == marker {
                return true;
            }
            if !text.starts_with('@') {
                println!("{text}");
                self.last_line = text.to_string();
            }
        }
    }

    fn go(&mut self) -> bool {
        self.child
            .stdin
            .as_mut()
            .is_some_and(|s| s.write_all(b"GO\n").and_then(|()| s.flush()).is_ok())
    }
}

/// Every workload: one child each, rounds handed out strictly interleaved.
fn conduct(o: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for (k, v) in host::factors() {
        println!("# factor {k}: {v}");
    }
    let (mut lanes, mut alive) = (Vec::new(), Vec::new());
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            name,
            "--paced",
            "--seed",
            &o.seed.to_string(),
        ])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.traced { "1" } else { "0" },
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
        if o.smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {name}: {e}"))?;
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut lane = Lane {
            name,
            child,
            out,
            last_line: String::new(),
        };
        // One set-up at a time, so `setup_s` is not four set-ups
        // fighting over two cpus.
        alive.push(lane.forward_until(Some("@READY")));
        lanes.push(lane);
    }
    for _ in 0..ROUNDS {
        for (lane, alive) in lanes.iter_mut().zip(&mut alive) {
            *alive = *alive && lane.go() && lane.forward_until(Some("@ROUND_DONE"));
        }
    }
    let mut all_ok = true;
    let mut results = Vec::new();
    for (mut lane, alive) in lanes.into_iter().zip(alive) {
        lane.forward_until(None);
        drop(lane.child.stdin.take());
        let status = lane.child.wait().map_err(|e| e.to_string())?;
        if !(alive && status.success()) {
            println!("# {} FAILED ({status})", lane.name);
            all_ok = false;
        }
        results.push(format!(
            "  {}: {}",
            measure::quote(lane.name),
            if lane.last_line.starts_with('{') {
                lane.last_line
            } else {
                "null".into()
            }
        ));
    }
    let suffix = if o.traced { "-traced" } else { "" };
    write_out(
        &format!("results{suffix}.json"),
        &format!("{{\n{}\n}}\n", results.join(",\n")),
    );
    println!(
        "# wrote {}",
        out_dir().join(format!("results{suffix}.json")).display()
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|o| match o.workload.clone() {
        Some(name) => run_workload(&name, &o),
        None => conduct(&o),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse(&args(
            "run --workload pop_batch --seed 7 --seconds 20 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.traced),
            (Some("pop_batch"), 7, 20.0, true)
        );
        let o = parse(&args("run")).expect("parses");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.traced),
            (None, pins::SEED, 30.0, false)
        );
        assert_eq!(parse(&args("run --traced")).expect("parses").seconds, 6.0);
        assert_eq!(
            parse(&args("run --smoke --trace 0"))
                .expect("parses")
                .seconds,
            1.5
        );
        assert!(parse(&args("run --bogus")).is_err());
        assert!(parse(&args("bench")).is_err());
    }
}
