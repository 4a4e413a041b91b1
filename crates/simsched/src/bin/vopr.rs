//! The VOPR campaign runner: thousands of seeded chaos schedules against
//! the syncd service, each checked against every invariant, with failing
//! seeds shrunk to a minimal decision prefix and written out for exact
//! replay.
//!
//! ```text
//! vopr --seeds 2000              # campaign: seeds 0..2000
//! vopr --seeds 500 --start 1000  # campaign: seeds 1000..1500
//! vopr --seed 1234               # one seed, verbose, with replay check
//! vopr --replay vopr-failure-1234.simt   # replay a written trace
//! vopr --jobs 16                 # workload size per seed
//! vopr --net-seeds 200           # connection-fault campaign (netchaos)
//! ```
//!
//! Exit code 0 = every seed passed; 1 = at least one invariant broke
//! (the failing seed and a copy-pasteable repro command are printed).

#![forbid(unsafe_code)]

use simsched::{
    decode_trace, encode_trace, replay, run_net_chaos, run_random, shrink_prefix,
    NetChaosConfig, SimConfig, SimReport,
};
use std::process::ExitCode;

struct Args {
    seeds: u64,
    start: u64,
    single: Option<u64>,
    replay_path: Option<String>,
    jobs: Option<usize>,
    net_seeds: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 500,
        start: 0,
        single: None,
        replay_path: None,
        jobs: None,
        net_seeds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--start" => {
                args.start = value("--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?
            }
            "--seed" => {
                args.single = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--replay" => args.replay_path = Some(value("--replay")?),
            "--net-seeds" => {
                args.net_seeds = Some(
                    value("--net-seeds")?
                        .parse()
                        .map_err(|e| format!("--net-seeds: {e}"))?,
                )
            }
            "--jobs" => {
                args.jobs = Some(
                    value("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn config(args: &Args) -> SimConfig {
    let mut cfg = SimConfig::default();
    if let Some(jobs) = args.jobs {
        cfg.jobs = jobs;
    }
    cfg
}

fn describe(rep: &SimReport) {
    println!(
        "seed {}: {} decisions, {} steps, {} completed, {} failed, fingerprint {:016x}",
        rep.seed,
        rep.decisions.len(),
        rep.steps,
        rep.completed,
        rep.failed,
        rep.fingerprint
    );
}

/// Shrink a failure, write its trace, print the repro recipe.
fn report_failure(seed: u64, cfg: &SimConfig, rep: &SimReport) {
    let v = rep.violation.as_ref().expect("failure report");
    println!("seed {seed} FAILED at {v}");
    match shrink_prefix(seed, cfg, &rep.decisions) {
        Some(shrunk) => {
            let sv = shrunk.report.violation.as_ref().expect("shrunk failure");
            println!(
                "  shrunk to {} decisions (from {}) in {} replays; minimal failure: {sv}",
                shrunk.decisions.len(),
                rep.decisions.len(),
                shrunk.replays
            );
            let path = format!("vopr-failure-{seed}.simt");
            match std::fs::write(&path, encode_trace(seed, &shrunk.decisions)) {
                Ok(()) => println!("  minimal trace written to {path}"),
                Err(e) => println!("  could not write {path}: {e}"),
            }
            println!("  reproduce:   cargo run -p simsched --bin vopr -- --seed {seed}");
            println!("  or replay:   cargo run -p simsched --bin vopr -- --replay {path}");
        }
        None => {
            // The recorded schedule passed on replay: the harness itself
            // is nondeterministic, which is a bug of its own.
            println!("  NOT REPRODUCIBLE on replay — harness nondeterminism, investigate");
            println!("  reproduce:   cargo run -p simsched --bin vopr -- --seed {seed}");
        }
    }
}

fn run_single(seed: u64, cfg: &SimConfig) -> bool {
    let rec = run_random(seed, cfg);
    describe(&rec);
    if rec.violation.is_some() {
        report_failure(seed, cfg, &rec);
        return false;
    }
    // Replay determinism is part of the contract: the recorded decisions
    // must reproduce the run exactly.
    let rep = replay(seed, cfg, &rec.decisions);
    if rep.fingerprint != rec.fingerprint || rep.violation.is_some() {
        println!(
            "seed {seed} REPLAY DIVERGED: fingerprint {:016x} vs {:016x}, violation {:?}",
            rep.fingerprint, rec.fingerprint, rep.violation
        );
        return false;
    }
    println!("seed {seed}: replay identical (fingerprint {:016x})", rep.fingerprint);
    true
}

fn run_replay_file(path: &str, cfg: &SimConfig) -> bool {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            println!("cannot read {path}: {e}");
            return false;
        }
    };
    let (seed, decisions) = match decode_trace(&bytes) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot decode {path}: {e}");
            return false;
        }
    };
    println!("replaying {path}: seed {seed}, {} decisions", decisions.len());
    let rep = replay(seed, cfg, &decisions);
    describe(&rep);
    match &rep.violation {
        Some(v) => {
            println!("replay FAILED at {v}");
            false
        }
        None => {
            println!("replay passed every invariant");
            true
        }
    }
}

fn run_campaign(args: &Args, cfg: &SimConfig) -> bool {
    let mut completed = 0u64;
    let mut failed_jobs = 0u64;
    let mut replays_checked = 0u64;
    let t0 = std::time::Instant::now();
    for seed in args.start..args.start + args.seeds {
        let rec = run_random(seed, cfg);
        if rec.violation.is_some() {
            report_failure(seed, cfg, &rec);
            return false;
        }
        // Every seed must also replay identically from its decision
        // trace — determinism is an invariant, not a feature.
        let rep = replay(seed, cfg, &rec.decisions);
        if rep.fingerprint != rec.fingerprint || rep.violation.is_some() {
            println!(
                "seed {seed} REPLAY DIVERGED: fingerprint {:016x} vs {:016x}, violation {:?}",
                rep.fingerprint, rec.fingerprint, rep.violation
            );
            println!("  reproduce:   cargo run -p simsched --bin vopr -- --seed {seed}");
            return false;
        }
        replays_checked += 1;
        completed += rec.completed;
        failed_jobs += rec.failed;
        let done = seed - args.start + 1;
        if done.is_multiple_of(500) {
            println!(
                "  ... {done}/{} seeds, {completed} jobs completed, {failed_jobs} failed typed, {:.1}s",
                args.seeds,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "vopr: {} seeds passed every invariant ({} jobs completed, {} failed typed, \
         {} replays verified identical) in {:.1}s",
        args.seeds,
        completed,
        failed_jobs,
        replays_checked,
        t0.elapsed().as_secs_f64()
    );
    true
}

/// The connection-fault campaign: seeded chaos at the network edge
/// rather than inside the scheduler.
fn run_net_campaign(start: u64, seeds: u64) -> bool {
    let cfg = NetChaosConfig::default();
    let mut clean = 0usize;
    let mut faulted = 0usize;
    let t0 = std::time::Instant::now();
    for seed in start..start + seeds {
        let rep = run_net_chaos(seed, &cfg);
        if let Some(v) = rep.violation {
            println!("net seed {seed} FAILED: {v}");
            println!(
                "  reproduce:   cargo run -p simsched --bin vopr -- --net-seeds 1 --start {seed}"
            );
            return false;
        }
        clean += rep.clean_ok;
        faulted += rep.faulted;
    }
    println!(
        "vopr: {seeds} net seeds passed every invariant ({clean} clean sessions \
         bit-identical, {faulted} faulted sessions contained) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    true
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vopr: {e}");
            eprintln!(
                "usage: vopr [--seeds N] [--start S] [--seed X] [--replay FILE] [--jobs J] [--net-seeds N]"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = config(&args);
    let ok = if let Some(path) = &args.replay_path {
        run_replay_file(path, &cfg)
    } else if let Some(seeds) = args.net_seeds {
        run_net_campaign(args.start, seeds)
    } else if let Some(seed) = args.single {
        run_single(seed, &cfg)
    } else {
        run_campaign(&args, &cfg)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
