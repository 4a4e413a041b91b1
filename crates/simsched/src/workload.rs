//! Seeded workload generation: the jobs a simulated campaign runs.
//!
//! Everything about the workload — trace shapes, clock skews, stream vs.
//! in-memory inputs, byte-level poisoning, priorities, deadlines, retry
//! budgets — is drawn from one PRNG seeded with the campaign seed alone.
//! The *schedule* draws from a different stream (see
//! [`harness`](crate::harness)), so shrinking a failing schedule never
//! changes which jobs exist.

use clocksync::{OffsetMeasurement, OnlineSpec, PipelineConfig, SyncMethod};
use onlinesync::NetworkConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::sync::Arc;
use std::time::Duration;
use syncd::{chunked, Fault, FaultInjector, JobInput, JobSpec, Priority};
use tracefmt::io::{to_binary_columnar_blocked, to_binary_columnar_v3_blocked};
use tracefmt::{EventKind, MinLatency, Rank, Tag, Trace, UniformLatency};
use workloads::churn_scenario;

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

/// A causally valid multi-rank trace with skewed linear clocks, plus
/// matching init/finalize offset measurements (same construction as the
/// syncd benches, scaled down for simulation).
pub(crate) fn job_trace(
    rng: &mut StdRng,
    procs: usize,
    msgs: usize,
) -> (Trace, Measurements, Measurements) {
    let offsets: Vec<i64> = (0..procs)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-400i64..400) })
        .collect();
    let local = |p: usize, t: i64| t + offsets[p];
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    for m in 0..msgs {
        let from = rng.gen_range(0usize..procs);
        let to = (from + rng.gen_range(1usize..procs)) % procs;
        let send_true = now[from] + rng.gen_range(5i64..40);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + 4 + rng.gen_range(0i64..20);
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
    let end = now.iter().max().copied().unwrap_or(0) + 100;
    let measure = |p: usize, t: i64| -> Option<OffsetMeasurement> {
        (p != 0).then(|| OffsetMeasurement {
            worker_time: Time::from_us(local(p, t)),
            offset: Dur::from_us(-offsets[p] + 2),
            rtt: Dur::from_us(10),
        })
    };
    let init: Vec<_> = (0..procs).map(|p| measure(p, 0)).collect();
    let fin: Vec<_> = (0..procs).map(|p| measure(p, end)).collect();
    (trace, init, fin)
}

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
    let conv = |m: &workloads::ProbeMeasurement| OffsetMeasurement {
        worker_time: m.worker_time,
        offset: m.offset,
        rtt: m.rtt,
    };
    let init = s.init.iter().map(|m| m.as_ref().map(conv)).collect();
    let fin = s.fin.iter().map(|m| m.as_ref().map(conv)).collect();
    let probes = s.probes.iter().map(|ps| ps.iter().map(conv).collect()).collect();
    (s.trace, init, fin, probes)
}

/// Generate `jobs` work items from `seed`. Roughly a third arrive as
/// columnar streams (half `DTC2`, half the zero-copy `DTC3` variant), a
/// quarter of those poisoned at the byte level and a third of them run
/// through the incremental windowed engine with a small random window;
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
                let (trace, init, fin) = job_trace(&mut rng, procs, msgs);
                // A two-probe schedule per worker (the init/fin anchors) is
                // enough for the online filter on these linear clocks.
                let probes = init
                    .iter()
                    .zip(&fin)
                    .map(|(i, f)| i.iter().chain(f.iter()).copied().collect())
                    .collect();
                (trace, init, fin, probes)
            };

            let as_stream = rng.gen_bool(1.0 / 3.0);
            let mut poisoned = false;
            let input = if as_stream {
                // Both wire versions go through the same negotiating
                // decoder; the campaign must poison both.
                let bytes = if rng.gen_bool(0.5) {
                    to_binary_columnar_v3_blocked(&trace, 16)
                } else {
                    to_binary_columnar_blocked(&trace, 16)
                };
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
                    // as the batch stream path: both wire versions, byte
                    // poisoning, cancellation, deadlines, retries.
                    JobInput::StreamIncremental {
                        chunks,
                        window_events: rng.gen_range(1usize..64),
                    }
                } else {
                    JobInput::Stream(chunks)
                }
            } else {
                JobInput::Trace(trace)
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
                (JobInput::Trace(t), JobInput::Trace(u)) => {
                    assert_eq!(t.n_events(), u.n_events())
                }
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
        assert!(streams > 0 && streams < 64);
        assert!(incremental > 0, "no incremental jobs in the workload");
        assert!(poisoned > 0);
        assert!(deadlines > 0);
        // Both wire versions must be represented among the streams.
        let leading = |magic: &[u8]| {
            items
                .iter()
                .filter(|i| match &i.spec.input {
                    JobInput::Stream(chunks)
                    | JobInput::StreamIncremental { chunks, .. } => chunks
                        .first()
                        .is_some_and(|c| c.starts_with(magic)),
                    JobInput::Trace(_) => false,
                })
                .count()
        };
        assert!(leading(b"DTC2") > 0, "no v2 streams in the workload");
        assert!(leading(b"DTC3") > 0, "no v3 streams in the workload");
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
        // job_trace, and churn probes are dense) must be represented.
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
