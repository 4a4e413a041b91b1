//! Head-to-head: interpolation vs. CLC vs. online filtering.
//!
//! The paper corrects timestamps *postmortem*: interpolate between the
//! init/finalize probes (Eq. 3), then repair residual violations with the
//! CLC. The online method instead runs a recursive drift/offset Kalman
//! filter over the full probe schedule and corrects each timestamp with
//! the state available *at that moment* — no lookahead, no second pass.
//!
//! This experiment races the three methods over static drift models
//! (constant, sawtooth, sinusoid, random walk — the same taxonomy as
//! Figs. 4–6) and over dynamic-membership churn scenarios (NTP islands,
//! WAN links, nodes joining/leaving, probe noise composed along an
//! evolving sync spanning tree), and reports the clock-condition census
//! after each. The paper's key claim survives online: with non-constant
//! drift, endpoint interpolation leaves violations that a drift-tracking
//! method removes.

use clocksync::{synchronize, OffsetMeasurement, OnlineSpec, PipelineConfig, SyncMethod};
use onlinesync::NetworkConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{
    ConstantDrift, Dur, DriftModel, PiecewiseLinearDrift, RandomWalkDrift, SinusoidalDrift, Time,
};
use tracefmt::{check_p2p, match_messages, EventKind, Rank, Tag, Trace, UniformLatency};
use workloads::churn_scenario;

/// Violation census of one scenario under each method.
#[derive(Debug, Clone)]
pub struct OnlineRow {
    /// Scenario label (drift model or churn seed).
    pub scenario: String,
    /// Message count actually placed.
    pub messages: usize,
    /// Violations in the raw trace.
    pub raw: usize,
    /// After linear interpolation only.
    pub interp: usize,
    /// After interpolation + CLC.
    pub clc: usize,
    /// After the online filter.
    pub online: usize,
}

/// One synthetic static scenario: drifting clocks, a probe schedule, and
/// a causally valid message trace on the true timeline.
struct StaticScenario {
    trace: Trace,
    init: Vec<Option<OffsetMeasurement>>,
    fin: Vec<Option<OffsetMeasurement>>,
    probes: Vec<Vec<OffsetMeasurement>>,
    lmin: UniformLatency,
}

fn drift_model(kind: &str, p: usize, rng: &mut StdRng, horizon_s: f64) -> Box<dyn DriftModel> {
    let sign = if p.is_multiple_of(2) { 1.0 } else { -1.0 };
    match kind {
        "constant" => Box::new(ConstantDrift::new(sign * rng.gen_range(10e-6..40e-6))),
        "sawtooth" => {
            // NTP-slew-like step drift: the rate flips sign every slice.
            let rate: f64 = sign * rng.gen_range(20e-6..45e-6);
            let slices = 4;
            let knots = (0..slices)
                .map(|i| {
                    let at = Time::from_secs_f64(horizon_s * i as f64 / slices as f64);
                    let r = if i % 2 == 0 { rate } else { -rate };
                    (at, r)
                })
                .collect();
            Box::new(PiecewiseLinearDrift::piecewise_constant(knots))
        }
        "sinusoid" => Box::new(SinusoidalDrift::new(
            rng.gen_range(35e-6..60e-6),
            rng.gen_range(0.9..1.5),
            rng.gen_range(0.0..std::f64::consts::TAU),
        )),
        "randomwalk" => Box::new(RandomWalkDrift::generate(rng, 4e-6, 0.05, horizon_s + 1.0)),
        other => unreachable!("unknown drift model {other}"),
    }
}

/// Build a static scenario over `kind` drift clocks.
fn static_scenario(kind: &str, procs: usize, msgs: usize, seed: u64) -> StaticScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon_s = 2.0;
    let models: Vec<Option<Box<dyn DriftModel>>> = (0..procs)
        .map(|p| (p != 0).then(|| drift_model(kind, p, &mut rng, horizon_s)))
        .collect();
    let offsets_us: Vec<f64> = (0..procs)
        .map(|p| if p == 0 { 0.0 } else { rng.gen_range(-400.0..400.0) })
        .collect();
    let local_at = |p: usize, t: Time| -> Time {
        let wander_s = models[p].as_ref().map_or(0.0, |d| d.integrated(t));
        t.saturating_add(Dur::from_us_f64(offsets_us[p]))
            .saturating_add(Dur::from_secs_f64(wander_s))
    };

    // Messages on the true timeline, paced to fill the horizon.
    let lmin = UniformLatency(Dur::from_us(10));
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0.0f64; procs];
    let horizon_us = horizon_s * 1e6;
    let gap = horizon_us / msgs as f64;
    for m in 0..msgs {
        let from = rng.gen_range(0usize..procs);
        let to = (from + rng.gen_range(1usize..procs)) % procs;
        let send = now[from] + rng.gen_range(0.3 * gap..1.7 * gap);
        if send > horizon_us {
            continue;
        }
        let recv = (send + 13.0 + rng.gen_range(0.0f64..25.0)).max(now[to] + 0.001);
        now[from] = send;
        now[to] = recv;
        let t_us = |us: f64| Time::ZERO.saturating_add(Dur::from_us_f64(us));
        trace.procs[from].push(
            local_at(from, t_us(send)),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            local_at(to, t_us(recv)),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
    }

    // Cristian probes every 25 ms of true time, small symmetric noise.
    let mut probes: Vec<Vec<OffsetMeasurement>> = vec![Vec::new(); procs];
    let step_us = 25_000.0;
    for (p, lane) in probes.iter_mut().enumerate().skip(1) {
        let mut at = step_us / 2.0;
        while at < horizon_us + step_us {
            let t = Time::ZERO.saturating_add(Dur::from_us_f64(at));
            let local = local_at(p, t);
            let err = Dur::from_us_f64(rng.gen_range(-1.5..1.5));
            lane.push(OffsetMeasurement {
                worker_time: local,
                offset: t.saturating_since(local) + err,
                rtt: Dur::from_us(10),
            });
            at += step_us;
        }
    }
    let init = probes.iter().map(|ps| ps.first().copied()).collect();
    let fin = probes.iter().map(|ps| ps.last().copied()).collect();
    StaticScenario { trace, init, fin, probes, lmin }
}

fn census(trace: &Trace, lmin: &UniformLatency) -> usize {
    let m = match_messages(trace);
    check_p2p(trace, &m, lmin).violations.len()
}

/// Race the three methods over one scenario.
fn race(
    scenario: &str,
    trace: &Trace,
    init: &[Option<OffsetMeasurement>],
    fin: &[Option<OffsetMeasurement>],
    probes: &[Vec<OffsetMeasurement>],
    lmin: &UniformLatency,
) -> OnlineRow {
    let run = |cfg: PipelineConfig| -> usize {
        let mut t = trace.clone();
        synchronize(&mut t, init, Some(fin), lmin, &cfg).expect("pipeline runs");
        census(&t, lmin)
    };
    OnlineRow {
        scenario: scenario.to_string(),
        messages: trace.n_message_events() / 2,
        raw: census(trace, lmin),
        interp: run(PipelineConfig { clc: None, ..Default::default() }),
        clc: run(PipelineConfig::default()),
        online: run(PipelineConfig {
            method: SyncMethod::Online(OnlineSpec::new(probes.to_vec())),
            ..Default::default()
        }),
    }
}

/// All static-model rows.
pub fn static_rows(msgs: usize, seed: u64) -> Vec<OnlineRow> {
    ["constant", "sawtooth", "sinusoid", "randomwalk"]
        .iter()
        .map(|kind| {
            let s = static_scenario(kind, 8, msgs, seed ^ (kind.len() as u64));
            race(kind, &s.trace, &s.init, &s.fin, &s.probes, &s.lmin)
        })
        .collect()
}

/// All churn rows: dynamic membership over NTP islands.
pub fn churn_rows(msgs: usize, seed: u64) -> Vec<OnlineRow> {
    let configs = [
        ("churn/2-islands", NetworkConfig::default()),
        (
            "churn/3-islands-heavy",
            NetworkConfig {
                nodes: 12,
                clusters: 3,
                joins: 2,
                leaves: 2,
                ..NetworkConfig::default()
            },
        ),
    ];
    configs
        .iter()
        .map(|(label, cfg)| {
            let s = churn_scenario(cfg.clone(), msgs, seed);
            race(label, &s.trace, &s.init, &s.fin, &s.probes, &s.lmin)
        })
        .collect()
}

/// Print the head-to-head table.
pub fn print_online(msgs: usize, seed: u64) -> Vec<OnlineRow> {
    println!("\n## online vs. postmortem synchronization (violation censuses)\n");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "messages", "raw", "interp", "clc", "online"
    );
    let mut rows = static_rows(msgs, seed);
    rows.extend(churn_rows(msgs, seed + 1));
    for r in &rows {
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
            r.scenario, r.messages, r.raw, r.interp, r.clc, r.online
        );
    }
    println!(
        "\nOnline uses only probes at or before each event (no lookahead); \
         interp/CLC see the whole trace postmortem."
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_beats_interp_on_every_nonconstant_model() {
        for row in static_rows(1500, 2008) {
            assert!(row.raw > 0, "{}: raw trace has no violations to fix", row.scenario);
            if row.scenario == "constant" {
                continue;
            }
            assert!(
                row.online < row.interp,
                "{}: online {} not strictly below interp {}",
                row.scenario,
                row.online,
                row.interp
            );
        }
    }

    #[test]
    fn churn_scenarios_run_all_three_methods() {
        for row in churn_rows(800, 11) {
            assert!(row.messages > 0);
            assert!(row.online <= row.raw, "{}: online made things worse", row.scenario);
        }
        // Under dynamic membership the no-lookahead filter is held to "never
        // behind endpoint interpolation" (the static drift models to strictly
        // ahead, above) on both island layouts.
        let rows = churn_rows(800, 2009);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(
                row.online <= row.interp,
                "{}: online {} above interp {}",
                row.scenario,
                row.online,
                row.interp
            );
        }
    }
}
