//! Online synchronization kernels: filter and corrector throughput.
//!
//! Two measurements:
//!
//! * raw [`DriftKalman`] update throughput (predict + observe per probe);
//! * end-to-end [`OnlineCorrector`] throughput: events/sec through
//!   `map_next` with a realistic probe-to-event ratio.
//!
//! What the method is worth against interpolation and the CLC — violation
//! censuses, deterministic integers — is `experiments online`'s table, and
//! the rule on it (online strictly below interpolation on every
//! non-constant drift model, never above it under churn) is asserted by
//! the tests of `experiments::online_exp`.
//!
//! Run with `cargo bench -p bench --bench online` (add `-- --test` for
//! the CI smoke run: fewer repetitions, same report).

use onlinesync::{DriftKalman, KalmanParams, OffsetMeasurement, OnlineCorrector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::time::{Duration, Instant};

/// Best-of-N wall time (minimum is the least noisy estimator for a
/// deterministic workload).
fn best_of(iters: usize, mut f: impl FnMut() -> u64) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

/// Synthetic probe stream: drifting offset plus bounded noise, 10 ms
/// cadence in worker time.
fn probe_stream(n: usize, seed: u64) -> Vec<OffsetMeasurement> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let t_ps = (i as i64 + 1) * 10_000_000_000; // 10 ms
            let drift_off = (t_ps as f64 * 30e-6) as i64; // 30 ppm
            OffsetMeasurement::new(
                Time::from_ps(t_ps),
                Dur::from_ps(400_000_000 + drift_off + rng.gen_range(-2_000_000i64..2_000_000)),
                Dur::from_ps(10_000_000 + rng.gen_range(0i64..5_000_000)),
            )
        })
        .collect()
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let iters = if test_mode { 3 } else { 10 };
    let probes_n = if test_mode { 100_000 } else { 1_000_000 };
    let events_n = if test_mode { 500_000 } else { 4_000_000 };

    // 1. Filter update throughput.
    let probes = probe_stream(probes_n, 7);
    let t_filter = best_of(iters, || {
        let mut k = DriftKalman::new(KalmanParams::default());
        for p in &probes {
            k.observe(*p);
        }
        k.updates()
    });
    let filter_ups = probes_n as f64 / t_filter.as_secs_f64();
    println!("filter: {probes_n} probes, {filter_ups:>12.0} updates/s ({t_filter:?})");

    // 2. Corrector throughput: 8 lanes, ~200 events between probes.
    let lanes = 8usize;
    let lane_probes = probe_stream(probes_n / 50 / lanes, 11);
    let step_ps = 50_000_000i64; // one event every 50 µs of worker time
    let t_corr = best_of(iters, || {
        let mut corr = OnlineCorrector::new(vec![lane_probes.clone(); lanes], KalmanParams::default());
        let mut acc = 0u64;
        let per_lane = events_n / lanes;
        for p in 0..lanes {
            let lane = corr.lane_mut(p);
            for i in 0..per_lane {
                acc = acc.wrapping_add(lane.map_next(i as i64 * step_ps) as u64);
            }
        }
        acc
    });
    let corr_eps = events_n as f64 / t_corr.as_secs_f64();
    println!("corrector: {events_n} events, {corr_eps:>12.0} events/s ({t_corr:?})");
}
