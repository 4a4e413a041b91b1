//! `syncdctl` — the small network CLI for `syncd`.
//!
//! ```text
//! syncdctl ping   --addr HOST:PORT --token TOKEN
//! syncdctl submit --addr HOST:PORT --token TOKEN [--procs N] [--msgs N]
//!                 [--seed N] [--incremental WINDOW] [--presync none|align|linear]
//!                 [--method interp|clc|online] [--churn]
//!                 [--priority high|normal|low]
//! ```
//!
//! `submit` generates a synthetic drifted trace (the same construction the
//! integration fixtures use: true-timeline messages recorded through
//! drifting clocks), uploads it as a `DTC3` stream, and prints the job
//! summary — a one-command end-to-end smoke of the wire path. Beside the
//! server's `queue_wait_us`
//! and `run_time_us` it prints `wall_us`, timed around the submission on
//! this side, and `transfer_us = wall − queue_wait − run_time`: what the
//! wire cost (upload, reply re-encode, download), most visible on a job of
//! several 256 KiB frames (`--msgs 20000`: 1.3 MB up).
//!
//! `--method` selects the synchronization method the service runs: `interp`
//! (offset interpolation only), `clc` (presync + controlled logical clock,
//! the default), or `online` (the recursive drift/offset filter; the fixture's
//! per-process probe schedules ride along in the job config). `--churn` swaps
//! the static fixture for a dynamic-membership scenario: NTP islands behind
//! WAN links, nodes joining and leaving mid-trace, and probe noise composed
//! along an evolving sync spanning tree.

#![forbid(unsafe_code)]

use clocksync::OffsetMeasurement;
use onlinesync::NetworkConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{ConstantDrift, DriftModel, Dur, SinusoidalDrift, Time};
use syncd_client::{JobRequest, SyncClient};
use syncd_wire::{WireJobConfig, WireLatency, WireMeasurement, WireMode};
use tracefmt::io::to_binary_columnar_v3_blocked;
use tracefmt::{EventKind, Rank, Tag, Trace};
use workloads::churn_scenario;

struct Args {
    map: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut map = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    map.push((name.to_string(), argv[i + 1].clone()));
                    i += 2;
                } else {
                    flags.push(name.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { map, flags }
    }
    fn get(&self, name: &str) -> Option<&str> {
        self.map
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
    fn num(&self, name: &str, default: u64) -> u64 {
        self.get(name).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| die(&format!("--{name} wants a number, got {v}")))
        })
    }
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn die(msg: &str) -> ! {
    eprintln!("syncdctl: {msg}");
    std::process::exit(2);
}

/// Everything `submit` needs from a generated fixture.
struct Fixture {
    trace: Trace,
    init: Vec<Option<OffsetMeasurement>>,
    fin: Vec<Option<OffsetMeasurement>>,
    /// Per-process probe schedules for `--method online`.
    probes: Vec<Vec<OffsetMeasurement>>,
    lmin_ps: i64,
}

/// A causally valid message trace recorded through drifting clocks, plus
/// init/finalize offset probes — a compact cousin of the test fixtures.
fn drifted_fixture(procs: usize, msgs: usize, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let drifts: Vec<Option<Box<dyn DriftModel>>> = (0..procs)
        .map(|p| -> Option<Box<dyn DriftModel>> {
            if p == 0 {
                None
            } else if p % 2 == 0 {
                Some(Box::new(ConstantDrift::new(rng.gen_range(-40e-6..40e-6))))
            } else {
                Some(Box::new(SinusoidalDrift::new(
                    rng.gen_range(1e-6..20e-6),
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.0..1.0),
                )))
            }
        })
        .collect();
    let offsets: Vec<i64> = (0..procs)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-800i64..800) })
        .collect();
    let local_at = |p: usize, true_us: i64| -> i64 {
        let wander = drifts[p]
            .as_ref()
            .map_or(0, |d| (d.integrated(Time::from_us(true_us)) * 1e6).round() as i64);
        true_us + offsets[p] + wander
    };
    let lmin_us = rng.gen_range(2i64..15);
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    for m in 0..msgs {
        let from = rng.gen_range(0usize..procs);
        let to = (from + rng.gen_range(1usize..procs)) % procs;
        let send_true = now[from] + rng.gen_range(5i64..80);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + lmin_us + rng.gen_range(0i64..40);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(local_at(from, send_true)),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(local_at(to, recv_true)),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
    }
    let end = *now.iter().max().unwrap_or(&0) + 100;
    let measure = |p: usize, true_us: i64, err: i64| {
        if p == 0 {
            return None;
        }
        let local = local_at(p, true_us);
        Some(OffsetMeasurement {
            worker_time: Time::from_us(local),
            offset: Dur::from_us(true_us - local + err),
            rtt: Dur::from_us(12),
        })
    };
    let errs: Vec<i64> = (0..procs).map(|_| rng.gen_range(-6i64..6)).collect();
    let init = (0..procs).map(|p| measure(p, 0, errs[p])).collect();
    let fin = (0..procs).map(|p| measure(p, end, -errs[p])).collect();
    // A periodic probe schedule per worker for the online method, spanning
    // the whole run (the interp path keeps using only init/fin).
    let step = (end / 24).max(50);
    let mut probes: Vec<Vec<OffsetMeasurement>> = vec![Vec::new(); procs];
    for (p, lane) in probes.iter_mut().enumerate().skip(1) {
        let mut at = step / 2;
        while at <= end {
            lane.extend(measure(p, at, rng.gen_range(-4i64..4)));
            at += step;
        }
    }
    Fixture { trace, init, fin, probes, lmin_ps: Dur::from_us(lmin_us).as_ps() }
}

/// A dynamic-membership fixture: the `workloads::churn` scenario reduced
/// to the same shape the wire path ships.
fn churn_fixture(procs: usize, msgs: usize, seed: u64) -> Fixture {
    let cfg = NetworkConfig { nodes: procs.max(3), ..NetworkConfig::default() };
    let s = churn_scenario(cfg, msgs, seed);
    Fixture { trace: s.trace, init: s.init, fin: s.fin, probes: s.probes, lmin_ps: s.lmin.0.as_ps() }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or("");
    let args = Args::parse(&argv[argv.len().min(1)..]);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7440").to_string();
    let token = args.get("token").unwrap_or("default").to_string();
    match cmd {
        "ping" => {
            let client = SyncClient::connect(&addr, &token)
                .unwrap_or_else(|e| die(&format!("connect {addr}: {e}")));
            println!("syncd at {addr}: ok, initial credit {} bytes", client.credit());
        }
        "submit" => {
            let procs = args.num("procs", 8) as usize;
            let msgs = args.num("msgs", 2000) as usize;
            let seed = args.num("seed", 42);
            let fixture = if args.flag("churn") {
                churn_fixture(procs.max(3), msgs, seed)
            } else {
                drifted_fixture(procs.max(2), msgs, seed)
            };
            let method_name = args.get("method").unwrap_or("clc");
            let method: u8 = match method_name {
                "interp" | "clc" => 1,
                "online" => 2,
                other => die(&format!("unknown method {other}")),
            };
            let stream = to_binary_columnar_v3_blocked(&fixture.trace, 256).to_vec();
            let mut config = WireJobConfig {
                mode: if let Some(w) = args.get("incremental") {
                    if method == 2 {
                        die("--method online is batch-only (the incremental engine rejects it)");
                    }
                    WireMode::Incremental {
                        window_events: w.parse().unwrap_or_else(|_| die("bad --incremental")),
                    }
                } else {
                    WireMode::Batch
                },
                priority: match args.get("priority").unwrap_or("normal") {
                    "high" => 0,
                    "normal" => 1,
                    "low" => 2,
                    other => die(&format!("unknown priority {other}")),
                },
                presync: match args.get("presync").unwrap_or("linear") {
                    "none" => 0,
                    "align" => 1,
                    "linear" => 2,
                    other => die(&format!("unknown presync {other}")),
                },
                lmin: WireLatency::Uniform(fixture.lmin_ps),
                method,
                ..WireJobConfig::new(&Default::default(), WireLatency::Uniform(0))
            };
            if method_name == "interp" {
                // Interpolation only: the CLC method without its CLC section.
                config.clc = None;
            }
            if method == 2 {
                config.probes = fixture
                    .probes
                    .iter()
                    .map(|ps| ps.iter().map(WireMeasurement::from_measurement).collect())
                    .collect();
            }
            config = config.with_measurements(&fixture.init, Some(&fixture.fin));
            let mut client = SyncClient::connect(&addr, &token)
                .unwrap_or_else(|e| die(&format!("connect {addr}: {e}")));
            let upload_bytes = stream.len();
            let req = JobRequest { config, chunks: vec![stream] };
            let t0 = std::time::Instant::now();
            let submitted = client.submit(&req);
            let wall_us = t0.elapsed().as_micros() as u64;
            match submitted {
                Ok(outcome) => {
                    let s = outcome.summary;
                    println!(
                        "job ok: wall_us={} queue_wait_us={} run_time_us={} \
                         transfer_us={} upload_bytes={} \
                         jumps={} max_jump_ps={} moved={}/{} frames={} \
                         out_chunks={} out_bytes={}",
                        wall_us,
                        s.queue_wait_us,
                        s.run_time_us,
                        wall_us.saturating_sub(s.queue_wait_us + s.run_time_us),
                        upload_bytes,
                        s.n_jumps,
                        s.max_jump_ps,
                        s.events_moved,
                        s.events_total,
                        s.frames,
                        outcome.stream.len(),
                        outcome.stream.iter().map(Vec::len).sum::<usize>(),
                    );
                    if s.census_present {
                        if method == 2 {
                            // The online census rides in the presync slot.
                            println!(
                                "censuses: raw={} online={}",
                                s.raw_violations, s.after_presync_violations,
                            );
                        } else if s.after_clc_violations == u64::MAX {
                            // u64::MAX marks the stage as skipped (interp-only).
                            println!(
                                "censuses: raw={} after_presync={}",
                                s.raw_violations, s.after_presync_violations,
                            );
                        } else {
                            println!(
                                "censuses: raw={} after_presync={} after_clc={}",
                                s.raw_violations,
                                s.after_presync_violations,
                                s.after_clc_violations,
                            );
                        }
                    }
                }
                Err(e) => die(&format!("submit failed: {e}")),
            }
        }
        other => {
            die(&format!(
                "unknown command {other:?}; usage: syncdctl <ping|submit> --addr HOST:PORT \
                 --token TOKEN [options]"
            ));
        }
    }
}
