//! Dynamic-membership workloads over a [`ClockNetwork`] scenario.
//!
//! The paper's traces have a fixed membership; every generator in this
//! crate so far inherits that. [`churn_scenario`] instead drives message
//! traffic over an `onlinesync` [`ClockNetwork`]: nodes join and leave
//! mid-trace, only co-alive pairs exchange messages, cross-island
//! messages pay the WAN latency, and every worker's recorded timestamps
//! come from its island clock (base offset + individual drift). The
//! output is an *ordinary* trace plus the measurement vectors every
//! engine in the workspace consumes — batch, columnar, windowed, service
//! — so the dynamic scenarios exercise existing code paths, not a new
//! engine.
//!
//! Each scenario also carries the per-node Cristian probe schedules the
//! network generated (noise composed along the sync spanning tree, which
//! is recomputed on churn), so the same fixture feeds all three
//! synchronization methods head-to-head: interpolation uses the
//! first/last probe per node, the CLC cleans up after it, and the online
//! filter consumes the full schedule.

use onlinesync::{ClockNetwork, NetworkConfig, OffsetMeasurement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use tracefmt::{EventKind, Rank, Tag, Trace, UniformLatency};

/// The name the frozen `benchmark/src/drive.rs` spells; goes with its next
/// edit.
pub type ProbeMeasurement = OffsetMeasurement;

/// A generated dynamic-membership fixture.
#[derive(Debug)]
pub struct ChurnScenario {
    /// The recorded trace (local clocks, drift and islands baked in).
    pub trace: Trace,
    /// Each event's true time, indexed like `trace`: the `send` / `recv`
    /// instant it was placed at before its node's clock read it.
    pub truth: Vec<Vec<Time>>,
    /// Init measurement per node: each worker's *first* probe (taken just
    /// after joining). `None` for the reference node.
    pub init: Vec<Option<OffsetMeasurement>>,
    /// Finalize measurement per node: each worker's *last* probe (taken
    /// just before leaving). `None` for the reference node.
    pub fin: Vec<Option<OffsetMeasurement>>,
    /// Full probe schedule per node (index = node; empty for the
    /// reference) — the online method's input.
    pub probes: Vec<Vec<OffsetMeasurement>>,
    /// The minimum-latency model matching the generated traffic.
    pub lmin: UniformLatency,
    /// Messages actually placed (pairs must be co-alive, so heavy churn
    /// can place fewer than requested).
    pub messages: usize,
    /// The generating network: churn events, tree epochs, clock models.
    pub network: ClockNetwork,
}

/// Generate a dynamic-membership trace of roughly `msgs` point-to-point
/// messages over the network described by `cfg`.
///
/// Deterministic in `(cfg, seed)`. Messages are placed on the *true*
/// timeline between co-alive pairs (cross-island transfers pay the WAN
/// latency on top of the LAN `l_min`), then each endpoint records the
/// event through its own drifting island clock.
pub fn churn_scenario(cfg: NetworkConfig, msgs: usize, seed: u64) -> ChurnScenario {
    let net = ClockNetwork::generate(cfg, seed);
    let cfg = net.config().clone();
    let n = cfg.nodes;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e21);

    let t_us = |us: f64| Time::ZERO.saturating_add(Dur::from_us_f64(us));
    let lmin_us = cfg.lan_us.max(1.0);
    let lmin = UniformLatency(Dur::from_us_f64(lmin_us));
    let horizon_us = cfg.horizon_s * 1e6;

    let window_us = |node: usize| {
        let (a, b) = net.alive_window(node);
        (a.as_us_f64(), b.as_us_f64())
    };

    let mut trace = Trace::for_ranks(n);
    // True-time cursor per node, starting at its join.
    let mut now: Vec<f64> = (0..n).map(|p| window_us(p).0).collect();
    let mut placed = 0usize;
    // Pace senders so the traffic roughly fills each node's lifetime
    // instead of bunching at the start.
    let mean_gap_us = (horizon_us / (msgs.max(1) as f64)).clamp(5.0, 5_000.0);
    let mut attempts = 0usize;
    while placed < msgs && attempts < msgs * 30 {
        attempts += 1;
        let from = rng.gen_range(0usize..n);
        let to = (from + rng.gen_range(1usize..n)) % n;
        let send = now[from] + rng.gen_range(0.2 * mean_gap_us..1.8 * mean_gap_us);
        let (f0, f1) = window_us(from);
        if send < f0 || send >= f1 {
            continue;
        }
        // Transfer: LAN l_min everywhere, plus the WAN cost across
        // islands, plus jitter.
        let mut transfer = lmin_us + rng.gen_range(0.0..3.0 * lmin_us);
        if net.cluster_of(from) != net.cluster_of(to) {
            transfer += cfg.wan_us * rng.gen_range(1.0..1.3);
        }
        let recv = (send + transfer).max(now[to] + 0.001);
        let (t0, t1) = window_us(to);
        if recv < t0 || recv >= t1 {
            continue;
        }
        now[from] = send;
        now[to] = recv;
        trace.procs[from].push(
            t_us(send),
            EventKind::Send { to: Rank(to as u32), tag: Tag(placed as u32), bytes: 64 },
        );
        trace.procs[to].push(
            t_us(recv),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(placed as u32), bytes: 64 },
        );
        placed += 1;
    }

    // Every event was placed at its true time; now its node's clock reads
    // it.
    let truth = (trace.procs.iter_mut().enumerate())
        .map(|(p, proc)| {
            (proc.events.iter_mut())
                .map(|e| {
                    let t = e.time;
                    e.time = net.local_at(p, t);
                    t
                })
                .collect()
        })
        .collect();

    // Probe schedules → measurement vectors. Init/fin are the schedule's
    // endpoints: what a joining node measures before doing work, and the
    // last estimate it took before leaving.
    let probes: Vec<Vec<OffsetMeasurement>> = (0..n).map(|p| net.probe_schedule(p)).collect();
    let init: Vec<_> = probes.iter().map(|ps| ps.first().copied()).collect();
    let fin: Vec<_> = probes.iter().map(|ps| ps.last().copied()).collect();

    ChurnScenario { trace, truth, init, fin, probes, lmin, messages: placed, network: net }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(seed: u64) -> ChurnScenario {
        churn_scenario(NetworkConfig::default(), 400, seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = scenario(3);
        let b = scenario(3);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.probes, b.probes);
        for (pa, pb) in a.trace.procs.iter().zip(&b.trace.procs) {
            assert_eq!(pa.events.len(), pb.events.len());
            for (ea, eb) in pa.events.iter().zip(&pb.events) {
                assert_eq!(ea.time, eb.time);
                assert_eq!(ea.kind, eb.kind);
            }
        }
    }

    #[test]
    fn places_most_of_the_requested_traffic() {
        let s = scenario(7);
        assert!(
            s.messages >= 300,
            "churn starved the generator: only {} of 400 messages",
            s.messages
        );
        assert_eq!(s.trace.n_events(), 2 * s.messages);
    }

    #[test]
    fn timelines_are_locally_monotone() {
        for seed in [1, 2, 3, 4, 5] {
            let s = scenario(seed);
            assert!(s.trace.is_locally_monotone(), "seed {seed}");
        }
    }

    #[test]
    fn matching_is_complete() {
        let s = scenario(11);
        let m = tracefmt::match_messages(&s.trace);
        assert!(m.is_complete(), "dangling sends/recvs in churn trace");
        assert_eq!(m.messages.len(), s.messages);
    }

    #[test]
    fn workers_have_measurements_and_the_reference_does_not() {
        let s = scenario(5);
        assert!(s.init[0].is_none() && s.fin[0].is_none());
        for p in 1..s.network.config().nodes {
            assert!(s.init[p].is_some(), "node {p} missing init probe");
            assert!(s.fin[p].is_some(), "node {p} missing fin probe");
            assert!(
                s.init[p].unwrap().worker_time <= s.fin[p].unwrap().worker_time,
                "node {p} probe endpoints out of order"
            );
        }
    }

    #[test]
    fn events_respect_the_alive_windows() {
        let s = scenario(9);
        for (p, pt) in s.trace.procs.iter().enumerate() {
            let (a, b) = s.network.alive_window(p);
            let (la, lb) = (s.network.local_at(p, a), s.network.local_at(p, b));
            for e in &pt.events {
                assert!(
                    e.time >= la && e.time <= lb,
                    "node {p} event at {:?} outside alive window [{la:?}, {lb:?}]",
                    e.time
                );
            }
        }
    }

    #[test]
    fn churn_actually_happened() {
        let s = scenario(13);
        assert!(!s.network.churn().is_empty());
        assert!(s.network.recomputes() >= 1);
        // The joiner and the leaver still participate in traffic.
        let cfg = s.network.config();
        let joiner = cfg.nodes - 1;
        assert!(
            !s.trace.procs[joiner].events.is_empty(),
            "joiner placed no events"
        );
    }
}
