//! Seeded workload generation: the jobs a simulated campaign runs.
//!
//! Everything about the workload — trace shapes, clock skews, chunking,
//! byte-level poisoning, priorities, deadlines, retry
//! budgets — is drawn from one PRNG seeded with the campaign seed alone.
//! The *schedule* draws from a different stream (see
//! [`harness`](crate::harness)), so shrinking a failing schedule never
//! changes which jobs exist.

use clocksync::{OffsetMeasurement, OnlineSpec, PipelineConfig, SyncMethod};
use onlinesync::NetworkConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::Dur;
use std::sync::Arc;
use std::time::Duration;
use syncd::{chunked, Fault, FaultInjector, JobInput, JobSpec, Priority};
use tracefmt::io::to_binary_columnar_v3_blocked;
use tracefmt::{MinLatency, Trace, UniformLatency};
use workloads::{churn_scenario, skewed_p2p};

/// One workload job plus what the invariant checker needs to know about
/// it.
pub struct WorkItem {
    /// The job. Submission clones it; the original stays with the checker
    /// so the direct-pipeline oracle runs the *identical* input.
    pub spec: JobSpec,
    /// Whether the input bytes were deliberately corrupted.
    pub poisoned: bool,
}

type Measurements = Vec<Option<OffsetMeasurement>>;

/// A churn-shaped job: dynamic membership, NTP islands, WAN links, and
/// per-node probe schedules, scaled down to simulation size.
fn churn_job(
    rng: &mut StdRng,
    msgs: usize,
) -> (Trace, Measurements, Measurements, Vec<Vec<OffsetMeasurement>>) {
    let cfg = NetworkConfig {
        nodes: rng.gen_range(4usize..7),
        horizon_s: 0.2,
        probe_interval_ms: 10.0,
        ..NetworkConfig::default()
    };
    let s = churn_scenario(cfg, msgs, rng.gen());
    (s.trace, s.init, s.fin, s.probes)
}

/// Generate `jobs` work items from `seed`. Every job is the `DTC3` stream a
/// tracer writes. Roughly two thirds arrive clean, as one chunk; the rest
/// are cut into random chunks, a quarter of those poisoned at the byte
/// level and a third of them run through the incremental windowed engine
/// with a small random window;
/// a fifth of the traces come from the dynamic-membership churn scenario
/// (NTP islands, joins/leaves, probe schedules), and a quarter of the
/// non-incremental jobs run the online sync method instead of the CLC;
/// jobs carry a mix of priorities, deadlines and retry-budget overrides.
pub fn generate(seed: u64, jobs: usize) -> Vec<WorkItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lmin: Arc<dyn MinLatency + Send + Sync> = Arc::new(UniformLatency(Dur::from_us(4)));
    (0..jobs)
        .map(|_| {
            let procs = rng.gen_range(2usize..5);
            let msgs = rng.gen_range(3usize..32);
            let (trace, init, fin, probes) = if rng.gen_bool(0.2) {
                churn_job(&mut rng, msgs.max(8))
            } else {
                let (trace, init, fin) = skewed_p2p(&mut rng, procs, msgs, 400);
                // A two-probe schedule per worker (the init/fin anchors) is
                // enough for the online filter on these linear clocks.
                let probes = init
                    .iter()
                    .zip(&fin)
                    .map(|(i, f)| i.iter().chain(f.iter()).copied().collect())
                    .collect();
                (trace, init, fin, probes)
            };

            let bytes = to_binary_columnar_v3_blocked(&trace, 16);
            let mut poisoned = false;
            let input = if rng.gen_bool(1.0 / 3.0) {
                let mut chunks = chunked(&bytes, rng.gen_range(32usize..256));
                if rng.gen_bool(0.25) {
                    poisoned = true;
                    let fault = match rng.gen_range(0u8..3) {
                        0 => Fault::Truncate { at: rng.gen_range(0..bytes.len().max(1)) },
                        1 => Fault::FlipByte {
                            at: rng.gen_range(0..bytes.len().max(1)),
                            xor: rng.gen_range(1u8..=255),
                        },
                        _ => Fault::DropChunk { index: rng.gen_range(0..chunks.len().max(1)) },
                    };
                    chunks = FaultInjector::new().with(fault).apply(&chunks);
                }
                if rng.gen_bool(1.0 / 3.0) {
                    // The incremental engine must survive the same chaos
                    // as the batch stream path: byte poisoning,
                    // cancellation, deadlines, retries.
                    JobInput::StreamIncremental {
                        chunks,
                        window_events: rng.gen_range(1usize..64),
                    }
                } else {
                    JobInput::Stream(chunks)
                }
            } else {
                JobInput::Stream(vec![bytes.to_vec()])
            };

            let mut pipeline = PipelineConfig::default();
            // The online method is batch-only (the windowed engine rejects
            // it), so keep it off incremental jobs.
            if !matches!(input, JobInput::StreamIncremental { .. }) && rng.gen_bool(0.25) {
                pipeline.method = SyncMethod::Online(OnlineSpec::new(probes));
            }

            let mut spec = JobSpec::new(input, init, Some(fin), Arc::clone(&lmin), pipeline);
            spec = match rng.gen_range(0u8..3) {
                0 => spec.with_priority(Priority::High),
                1 => spec.with_priority(Priority::Normal),
                _ => spec.with_priority(Priority::Low),
            };
            if rng.gen_bool(0.3) {
                // Virtual-time deadlines on the same scale as the
                // schedule's clock advances and the service's backoff, so
                // all three race each other.
                spec = spec.with_deadline(Duration::from_micros(rng.gen_range(100u64..8_000)));
            }
            if rng.gen_bool(0.25) {
                spec = spec.with_max_retries(rng.gen_range(0u32..4));
            }
            WorkItem { spec, poisoned }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        let a = generate(7, 12);
        let b = generate(7, 12);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.poisoned, y.poisoned);
            assert_eq!(x.spec.deadline, y.spec.deadline);
            assert_eq!(x.spec.max_retries, y.spec.max_retries);
            match (&x.spec.input, &y.spec.input) {
                (JobInput::Stream(c), JobInput::Stream(d)) => assert_eq!(c, d),
                (
                    JobInput::StreamIncremental { chunks: c, window_events: v },
                    JobInput::StreamIncremental { chunks: d, window_events: w },
                ) => {
                    assert_eq!(c, d);
                    assert_eq!(v, w);
                }
                _ => panic!("input kind diverged between runs"),
            }
        }
    }

    #[test]
    fn workload_mixes_kinds() {
        let items = generate(3, 64);
        let streams = items
            .iter()
            .filter(|i| matches!(i.spec.input, JobInput::Stream(_)))
            .count();
        let incremental = items
            .iter()
            .filter(|i| matches!(i.spec.input, JobInput::StreamIncremental { .. }))
            .count();
        let poisoned = items.iter().filter(|i| i.poisoned).count();
        let deadlines = items.iter().filter(|i| i.spec.deadline.is_some()).count();
        assert!(streams > incremental, "{streams} batch vs {incremental} incremental jobs");
        assert!(incremental > 0, "no incremental jobs in the workload");
        assert!(poisoned > 0);
        assert!(deadlines > 0);
    }

    #[test]
    fn workload_mixes_sync_methods() {
        let items = generate(5, 64);
        let online = items
            .iter()
            .filter(|i| matches!(i.spec.pipeline.method, SyncMethod::Online(_)))
            .count();
        assert!(online > 0, "no online-method jobs in the workload");
        assert!(online < 64, "every job went online");
        // Online never rides the incremental engine, which rejects it.
        for i in &items {
            if matches!(i.spec.input, JobInput::StreamIncremental { .. }) {
                assert!(
                    !matches!(i.spec.pipeline.method, SyncMethod::Online(_)),
                    "online method paired with an incremental job"
                );
            }
        }
        // Churn traces (more than 4 linear-clock procs never happen in
        // skewed_p2p, and churn probes are dense) must be represented.
        let churny = items
            .iter()
            .filter(|i| match &i.spec.pipeline.method {
                SyncMethod::Online(spec) => spec.probes.iter().any(|p| p.len() > 2),
                _ => false,
            })
            .count();
        assert!(churny > 0, "no churn-shaped online jobs in the workload");
    }
}
