//! Latency measurement workloads (paper Table II).
//!
//! The paper measured the message latency between cores, between chips,
//! between nodes, and the inter-node collective (allreduce) latency,
//! because the clock-condition bound `l_min` differs per placement. The
//! measurements here mirror the standard methodology: ping-pong round trips
//! halved (all timing on one process, so clock drift cancels) and
//! per-operation collective durations.

use mpisim::program::{Program, RankProgram};
use mpisim::{run, Cluster, RunOptions, SimError};
use simclock::Dur;
use tracefmt::{match_collectives, match_messages, CommId, EventKind, Rank, Summary, Tag};

/// Result of a latency measurement.
#[derive(Debug, Clone)]
pub struct LatencyMeasurement {
    /// Per-repetition one-way latencies in microseconds.
    pub summary: Summary,
}

impl LatencyMeasurement {
    /// Mean one-way latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.summary.mean()
    }

    /// Sample standard deviation in microseconds.
    pub fn std_us(&self) -> f64 {
        self.summary.std_dev()
    }
}

/// Ping-pong between ranks 0 and 1 of the cluster; returns one-way latency
/// statistics over `reps` round trips of `bytes`-byte messages.
///
/// Timestamps come from rank 0's *own* clock only (`t_recv − t_send` of the
/// round trip, halved), so the measurement is immune to inter-clock offset —
/// exactly how real latency benchmarks avoid the problem this whole library
/// is about.
pub fn measure_p2p_latency(
    cluster: &mut Cluster,
    reps: usize,
    bytes: u64,
) -> Result<LatencyMeasurement, SimError> {
    assert!(cluster.n_ranks() >= 2, "need two ranks");
    let prog = Program::build(2, |r| {
        let mut p = RankProgram::new();
        for i in 0..reps {
            if r.0 == 0 {
                p = p.send(Rank(1), Tag(i as u32), bytes).recv(Rank(1), Tag(i as u32));
            } else {
                p = p.recv(Rank(0), Tag(i as u32)).send(Rank(0), Tag(i as u32), bytes);
            }
        }
        p
    });
    let opts = RunOptions {
        wrap_mpi_calls: false,
        ..RunOptions::default()
    };
    let out = run(cluster, &prog, &opts)?;
    let matching = match_messages(&out.trace);
    debug_assert!(matching.is_complete());
    // Round trip on rank 0's timeline: Send(i) .. Recv(i).
    let mut summary = Summary::new();
    let events = &out.trace.procs[0].events;
    let mut i = 0;
    while i + 1 < events.len() {
        if let (EventKind::Send { .. }, EventKind::Recv { .. }) =
            (events[i].kind, events[i + 1].kind)
        {
            let rtt = events[i + 1].time - events[i].time;
            summary.add(rtt.as_us_f64() / 2.0);
        }
        i += 2;
    }
    Ok(LatencyMeasurement { summary })
}

/// Allreduce duration statistics across `reps` operations on `n` ranks,
/// measured as `CollEnd − CollBegin` on rank 0 (again single-clock).
pub fn measure_allreduce_latency(
    cluster: &mut Cluster,
    n: usize,
    reps: usize,
    bytes: u64,
) -> Result<LatencyMeasurement, SimError> {
    measure_collective_latency(cluster, tracefmt::CollOp::Allreduce, n, reps, bytes)
}

/// Duration statistics of an arbitrary collective operation across `reps`
/// instances on `n` ranks, measured as `CollEnd − CollBegin` on rank 0.
/// Rooted flavours use rank 0 as the root.
fn measure_collective_latency(
    cluster: &mut Cluster,
    op: tracefmt::CollOp,
    n: usize,
    reps: usize,
    bytes: u64,
) -> Result<LatencyMeasurement, SimError> {
    assert!(cluster.n_ranks() >= n, "cluster too small");
    let root = op.has_root().then_some(Rank(0));
    let prog = Program::build(n, |_| {
        let mut p = RankProgram::new();
        for _ in 0..reps {
            // A small equal compute keeps entries loosely aligned, like a
            // benchmark loop body.
            p = p.compute(Dur::from_us(5)).coll(op, CommId::WORLD, root, bytes);
        }
        p
    });
    let opts = RunOptions {
        wrap_mpi_calls: false,
        ..RunOptions::default()
    };
    let out = run(cluster, &prog, &opts)?;
    let insts = match_collectives(&out.trace).expect("well-formed benchmark trace");
    let mut summary = Summary::new();
    for inst in &insts {
        let m0 = inst
            .members
            .iter()
            .find(|m| m.begin.p() == 0)
            .expect("rank 0 participates");
        let d = out.trace.time(m0.end) - out.trace.time(m0.begin);
        summary.add(d.as_us_f64());
    }
    Ok(LatencyMeasurement { summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HierarchicalLatency, Placement, Topology};
    use simclock::{ClockDomain, ClockEnsemble, ClockProfile, MachineShape, TimerKind};

    fn cluster(placement: Placement, shape: MachineShape) -> Cluster {
        let clocks = ClockEnsemble::build(
            shape,
            ClockDomain::Global,
            &ClockProfile::bare(TimerKind::IntelTsc),
            0,
        );
        Cluster::new(
            placement,
            Topology::Crossbar,
            HierarchicalLatency::xeon_infiniband(),
            clocks,
            7,
        )
    }

    #[test]
    fn inter_node_latency_matches_table2() {
        let shape = MachineShape::new(4, 2, 4);
        let mut c = cluster(Placement::one_per_node(shape, 4), shape);
        let m = measure_p2p_latency(&mut c, 2000, 0).unwrap();
        // Table II: 4.29 µs inter-node. Our measurement includes the send
        // overhead (0.15 µs), so expect ≈4.45 µs; assert the ballpark.
        assert!(
            (m.mean_us() - 4.29).abs() < 0.5,
            "inter-node mean {} µs",
            m.mean_us()
        );
        assert!(m.std_us() < 0.5);
    }

    #[test]
    fn latency_hierarchy_ordering() {
        let shape = MachineShape::new(4, 2, 4);
        let mut node = cluster(Placement::one_per_node(shape, 4), shape);
        let mut chip = cluster(Placement::one_per_chip(shape, 2), shape);
        let mut core = cluster(Placement::one_per_core(shape, 4), shape);
        let ln = measure_p2p_latency(&mut node, 500, 0).unwrap().mean_us();
        let lc = measure_p2p_latency(&mut chip, 500, 0).unwrap().mean_us();
        let lo = measure_p2p_latency(&mut core, 500, 0).unwrap().mean_us();
        assert!(lo < lc && lc < ln, "hierarchy broken: {lo} {lc} {ln}");
    }

    #[test]
    fn allreduce_latency_matches_table2() {
        let shape = MachineShape::new(4, 2, 4);
        let mut c = cluster(Placement::one_per_node(shape, 4), shape);
        let m = measure_allreduce_latency(&mut c, 4, 500, 8).unwrap();
        assert!(
            (m.mean_us() - 12.86).abs() < 2.0,
            "allreduce mean {} µs",
            m.mean_us()
        );
    }

    #[test]
    fn collective_flavours_have_sensible_relative_costs() {
        use tracefmt::CollOp;
        let shape = MachineShape::new(8, 2, 4);
        let get = |op: CollOp| {
            let mut c = cluster(Placement::one_per_node(shape, 8), shape);
            measure_collective_latency(&mut c, op, 8, 200, 8)
                .unwrap()
                .mean_us()
        };
        let bcast = get(CollOp::Bcast);
        let allreduce = get(CollOp::Allreduce);
        let barrier = get(CollOp::Barrier);
        let scan = get(CollOp::Scan);
        // Rank 0 is the bcast root: it only issues sends, so its measured
        // duration is far below the dissemination exchange.
        assert!(bcast < allreduce, "bcast {bcast} vs allreduce {allreduce}");
        // Barrier and allreduce share the dissemination shape.
        assert!((barrier - allreduce).abs() < 3.0, "{barrier} vs {allreduce}");
        // The scan chain on rank 0 is nearly free (it sends once).
        assert!(scan < allreduce, "scan {scan} vs allreduce {allreduce}");
    }

    #[test]
    fn bandwidth_term_shows_for_large_messages() {
        let shape = MachineShape::new(4, 2, 4);
        let mut c = cluster(Placement::one_per_node(shape, 4), shape);
        let small = measure_p2p_latency(&mut c, 200, 0).unwrap().mean_us();
        let mut c2 = cluster(Placement::one_per_node(shape, 4), shape);
        let large = measure_p2p_latency(&mut c2, 200, 100_000).unwrap().mean_us();
        // 100 kB at 700 ps/B = 70 µs extra.
        assert!(large > small + 50.0, "no bandwidth term: {small} vs {large}");
    }
}
