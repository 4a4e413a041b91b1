//! The violation census on a large trace (≥100k events), kernel against
//! reference: the planned columnar kernels (`CensusPlan`) over the AoS
//! reference walk (`check_p2p` + `check_collectives`). Both sides are
//! single-threaded on identical input, so the ratio holds at every CPU
//! count.
//!
//! Run with `cargo bench -p bench --bench census` (`-- --test`, which CI
//! passes to every bench, changes nothing here: the run takes a second).
//! The run asserts the one rule it measures: the kernels census at >= 3x
//! the reference walk.

use clocksync::{synchronize, OffsetMeasurement, PipelineConfig, PreSync};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::time::{Duration, Instant};
use tracefmt::{
    check_collectives, check_p2p, Capture, CensusPlan, EventKind, Rank, Tag, Trace, TraceColumns, UniformLatency,
};

const PROCS: usize = 16;
const MSGS: usize = 60_000; // ≥120k events

/// A causally valid trace recorded through skewed, linearly drifting
/// clocks, plus init/finalize offset measurements.
fn big_trace(
    seed: u64,
) -> (
    Trace,
    Vec<Option<OffsetMeasurement>>,
    Vec<Option<OffsetMeasurement>>,
    UniformLatency,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<i64> = (0..PROCS)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-500i64..500) })
        .collect();
    let rates: Vec<f64> = (0..PROCS)
        .map(|p| if p == 0 { 0.0 } else { rng.gen_range(-30e-6..30e-6) })
        .collect();
    let local = |p: usize, true_us: i64| -> i64 {
        true_us + offsets[p] + (rates[p] * true_us as f64).round() as i64
    };
    let lmin_us = 4i64;
    let mut trace = Trace::for_ranks(PROCS);
    let mut now = [0i64; PROCS];
    for m in 0..MSGS {
        let from = rng.gen_range(0usize..PROCS);
        let to = (from + rng.gen_range(1usize..PROCS)) % PROCS;
        let send_true = now[from] + rng.gen_range(5i64..40);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + lmin_us + rng.gen_range(0i64..20);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(local(from, send_true)),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(local(to, recv_true)),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
    }
    let end = *now.iter().max().expect("non-empty") + 100;
    let measure = |p: usize, true_us: i64| -> Option<OffsetMeasurement> {
        (p != 0).then(|| OffsetMeasurement {
            worker_time: Time::from_us(local(p, true_us)),
            offset: Dur::from_us(true_us - local(p, true_us) + 3),
            rtt: Dur::from_us(10),
        })
    };
    let init: Vec<_> = (0..PROCS).map(|p| measure(p, 0)).collect();
    let fin: Vec<_> = (0..PROCS).map(|p| measure(p, end)).collect();
    (trace, init, fin, UniformLatency(Dur::from_us(lmin_us)))
}

/// Best-of-N wall time of `f` with no per-iteration setup (for read-only
/// kernels that take their input by reference).
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        std::hint::black_box(out);
        if dt < best {
            best = dt;
        }
    }
    best
}

fn events_per_sec(n_events: usize, took: Duration) -> f64 {
    n_events as f64 / took.as_secs_f64()
}

fn main() {
    let (trace, init, fin, lmin) = big_trace(7);
    let n_events = trace.n_events();
    assert!(n_events >= 100_000, "bench trace too small: {n_events}");

    // Census the trace as the pipeline's second census sees it: after
    // interpolation, with residual violations left to find.
    let presynced = {
        let mut t = trace;
        let presync_only = PipelineConfig { presync: PreSync::Linear, clc: None, ..Default::default() };
        synchronize(&mut t, &init, Some(&fin), &lmin, &presync_only).expect("presync runs");
        t
    };

    // The AoS reference walk (`check_p2p` + `check_collectives`,
    // HashMap-matched events re-located per check) against the planned
    // columnar kernels (event offsets and l_min bounds frozen once into
    // flat check lanes, then chunked branchless/AVX2 passes gathering
    // straight from the columns' timestamp slab — zero copies per round).
    let (matching, insts) = Capture::of(&presynced).finish();
    let insts = insts.expect("well-formed");
    let cols = TraceColumns::gather(&presynced);
    let plan = CensusPlan::for_columns(&cols, &matching.messages, &insts, &lmin)
        .expect("plan builds");
    {
        // The kernels must reproduce the reference census bit for bit
        // before their throughput means anything.
        let flat = plan.flat_of(&cols);
        let pk = plan.p2p_census(flat);
        let pr = check_p2p(&presynced, &matching, &lmin);
        assert_eq!(pk.total, pr.total);
        assert_eq!(pk.violations, pr.violations);
        assert_eq!(pk.reversed, pr.reversed);
        let ck = plan.collective_census(flat);
        let cr = check_collectives(&presynced, &insts, &lmin);
        assert_eq!(ck.instances, cr.instances);
        assert_eq!(ck.logical_total, cr.logical_total);
        assert_eq!(ck.logical_violated, cr.logical_violated);
        assert_eq!(ck.logical_reversed, cr.logical_reversed);
        assert_eq!(ck.instances_affected, cr.instances_affected);
    }
    // Both census lanes finish in well under a millisecond, so a deep
    // best-of drives each minimum to its true floor — the ratio gate below
    // should compare kernels, not scheduler noise.
    let census_iters = 100;
    let t_census_ref = best_of(census_iters, || {
        let p = check_p2p(&presynced, &matching, &lmin);
        let c = check_collectives(&presynced, &insts, &lmin);
        (p.violations.len(), c.logical_violated)
    });
    // The kernel lane borrows the live slab per pass — exactly what the
    // pipeline does per census stage, so the comparison stays honest.
    let t_census_kernel = best_of(census_iters, || {
        let flat = plan.flat_of(&cols);
        let p = plan.p2p_census(flat);
        let c = plan.collective_census(flat);
        (p.violations.len(), c.logical_violated)
    });

    let eps_census_ref = events_per_sec(n_events, t_census_ref);
    let eps_census = events_per_sec(n_events, t_census_kernel);
    let census_speedup = eps_census / eps_census_ref;

    println!("census: {n_events} events, {PROCS} procs");
    println!("  census_reference {eps_census_ref:>12.0} events/s  ({t_census_ref:?})");
    println!("  census_kernel    {eps_census:>12.0} events/s  ({t_census_kernel:?})");
    println!("  kernel/reference census speedup: {census_speedup:.2}x");

    assert!(
        census_speedup >= 3.0,
        "census kernels must be >= 3x the AoS reference, got {census_speedup:.2}x"
    );
}
