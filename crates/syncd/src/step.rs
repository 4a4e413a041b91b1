//! Step-mode execution: the service's scheduling loop with the threads
//! taken out.
//!
//! A [`StepService`] owns the same [`Shared`](crate::service) state as a
//! running [`SyncService`](crate::SyncService) — same admission control,
//! same priority queue, same deadline/cancellation logic via
//! [`JobRun`](crate::service) — but nothing runs until a caller *steps* a
//! logical executor. Each step is one atomic transition of the real
//! executor loop:
//!
//! * **dispatch** — pop the highest-priority job off the queue,
//! * **run** — run the job to its outcome and do all the bookkeeping,
//! * **exit** — an idle executor observes shutdown and drains the queue.
//!
//! Which executor steps next is the caller's choice, which is the whole
//! point: the deterministic simulation harness (`crates/simsched`) feeds
//! that choice from a seeded PRNG, so every interleaving of dispatches,
//! runs, cancellations, and shutdown that the threaded service could
//! produce becomes a *replayable* schedule. Within a run, the optional
//! [`AttemptProbe`] is polled at every pipeline checkpoint, giving the
//! caller deterministic mid-run yield points for fault injection (cancel,
//! crash, clock jump).
//!
//! Outside of tests and simulation there is no reason to use this type —
//! it executes jobs on the caller's thread.

use crate::job::{JobHandle, JobId, JobSpec, SubmitError};
use crate::metrics::MetricsSnapshot;
use crate::runtime::{AttemptProbe, Runtime};
use crate::service::{JobRun, ServiceConfig, Shared, Take};
use std::sync::Arc;

/// Where one logical executor is in its loop.
enum ExecPhase {
    /// Between jobs: the next step tries the queue.
    Idle,
    /// Holding a popped job that has not run yet.
    Dispatched(Box<JobRun>),
    /// Observed shutdown and exited the loop.
    Stopped,
}

/// What stepping an executor did. Every variant that names a job carries
/// its [`JobId`] so a harness can correlate steps with submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// The queue was empty (and the service not shut down); a threaded
    /// executor would now block on the condition variable.
    Idle,
    /// Popped `job` off the queue. It has *not* run yet — that is the
    /// next step, so two executors can both hold dispatched jobs before
    /// either runs, exactly as threads can.
    Dispatched {
        /// The popped job.
        job: JobId,
    },
    /// The job reached its outcome — ran, or concluded unrun if it was
    /// cancelled or past its deadline (delivered to its handle, all
    /// accounting done).
    Finished {
        /// The finished job.
        job: JobId,
        /// `true` for success, `false` for any [`crate::JobError`].
        ok: bool,
    },
    /// The executor observed shutdown and exited; if the queue was being
    /// abandoned it failed `drained` still-queued jobs typed.
    Exited {
        /// Queued jobs failed with [`crate::JobError::Shutdown`].
        drained: usize,
    },
    /// The executor had already exited.
    Stopped,
}

/// A [`SyncService`](crate::SyncService) with the executor threads
/// replaced by explicitly-stepped state machines. See the [module
/// docs](self).
pub struct StepService {
    shared: Arc<Shared>,
    execs: Vec<ExecPhase>,
}

impl StepService {
    /// A stopped-clock service: `cfg.executors` logical executors over
    /// `runtime` (typically a virtual clock). No threads are spawned.
    pub fn new(cfg: ServiceConfig, runtime: Arc<dyn Runtime>) -> Self {
        let executors = cfg.executors.max(1);
        StepService {
            shared: Shared::new(cfg, runtime),
            execs: (0..executors).map(|_| ExecPhase::Idle).collect(),
        }
    }

    /// Number of logical executors.
    pub fn executors(&self) -> usize {
        self.execs.len()
    }

    /// Submit a job — identical admission control to
    /// [`SyncService::submit`](crate::SyncService::submit).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.shared.submit(spec)
    }

    /// A point-in-time copy of every service metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Stop accepting jobs. With `abandon_queue`, the next executor to
    /// observe shutdown fails everything still queued.
    pub fn begin_shutdown(&self, abandon_queue: bool) {
        self.shared.begin_shutdown(abandon_queue);
    }

    /// Ground truth bytes currently charged against the memory budget,
    /// read under the queue lock (compare with the `admitted_bytes`
    /// metrics gauge).
    pub fn admitted_bytes(&self) -> u64 {
        self.shared.admitted_bytes()
    }

    /// Ground truth number of queued jobs, read under the queue lock
    /// (compare with the `queue_depth` metrics gauge).
    pub fn queue_len(&self) -> usize {
        self.shared.queue_len()
    }

    /// Whether stepping executor `idx` right now would make progress.
    /// `false` means the step would return [`StepEvent::Idle`] or
    /// [`StepEvent::Stopped`].
    pub fn can_progress(&self, idx: usize) -> bool {
        match &self.execs[idx] {
            ExecPhase::Idle => self.shared.queue_len() > 0 || self.shared.is_shutdown(),
            ExecPhase::Dispatched(_) => true,
            ExecPhase::Stopped => false,
        }
    }

    /// Whether every executor has exited (terminal after shutdown).
    pub fn all_stopped(&self) -> bool {
        self.execs.iter().all(|e| matches!(e, ExecPhase::Stopped))
    }

    /// The id of the dispatched job executor `idx` holds, if any.
    pub fn current_job(&self, idx: usize) -> Option<JobId> {
        match &self.execs[idx] {
            ExecPhase::Dispatched(run) => Some(run.id()),
            _ => None,
        }
    }

    /// Drive executor `idx` through one transition of the executor loop.
    /// `probe` is polled at every pipeline checkpoint of a job run by this
    /// step (the simulation's mid-run fault-injection hook); pass `None`
    /// for faithful no-fault execution.
    pub fn step(&mut self, idx: usize, probe: Option<&AttemptProbe>) -> StepEvent {
        let phase = std::mem::replace(&mut self.execs[idx], ExecPhase::Idle);
        let (next, event) = match phase {
            ExecPhase::Idle => match self.shared.try_take() {
                Take::Job(entry) => {
                    let run = JobRun::begin(&self.shared, entry.job, entry.cost);
                    let job = run.id();
                    (ExecPhase::Dispatched(Box::new(run)), StepEvent::Dispatched { job })
                }
                Take::Empty => (ExecPhase::Idle, StepEvent::Idle),
                Take::Exit => {
                    let drained = self.shared.drain_shutdown();
                    (ExecPhase::Stopped, StepEvent::Exited { drained })
                }
            },
            ExecPhase::Dispatched(run) => {
                let job = run.id();
                let ok = run.run(&self.shared, probe);
                (ExecPhase::Idle, StepEvent::Finished { job, ok })
            }
            ExecPhase::Stopped => (ExecPhase::Stopped, StepEvent::Stopped),
        };
        self.execs[idx] = next;
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{chunked, Fault, FaultInjector};
    use crate::job::{JobError, JobInput};
    use crate::metrics::Counter;
    use clocksync::{OffsetMeasurement, PipelineConfig};
    use simclock::{Dur, Time, VirtualClock};
    use std::sync::Arc;
    use std::time::Duration;
    use tracefmt::io::to_binary_columnar_v3_blocked;
    use tracefmt::{EventKind, Tag, Trace, UniformLatency};

    /// A virtual-clock runtime for tests (the full-featured one lives in
    /// `crates/simsched`).
    struct TestClock(VirtualClock);

    impl Runtime for TestClock {
        fn now(&self) -> Duration {
            Duration::from_nanos((self.0.now().as_ps() / 1000).max(0) as u64)
        }
    }

    fn fixture(msgs: usize) -> (Trace, Vec<Option<OffsetMeasurement>>) {
        let mut t = Trace::for_ranks(2);
        for i in 0..msgs {
            let send_us = 10 * i as i64 + 1;
            t.procs[0].push(
                Time::from_us(send_us),
                EventKind::Send { to: tracefmt::Rank(1), tag: Tag(0), bytes: 8 },
            );
            t.procs[1].push(
                Time::from_us(send_us + 5),
                EventKind::Recv { from: tracefmt::Rank(0), tag: Tag(0), bytes: 8 },
            );
        }
        (t, vec![None, None])
    }

    /// `trace` as the stream job a tracer's bytes make: `DTC3`, 16-event
    /// blocks, 64-byte chunks.
    fn stream(trace: &Trace) -> JobInput {
        JobInput::Stream(chunked(&to_binary_columnar_v3_blocked(trace, 16), 64))
    }

    fn spec(input: JobInput) -> JobSpec {
        let (_, init) = fixture(0);
        let cfg = PipelineConfig {
            presync: clocksync::PreSync::None,
            clc: None,
            ..PipelineConfig::default()
        };
        JobSpec::new(
            input,
            init,
            None,
            Arc::new(UniformLatency(Dur::from_us(1))),
            cfg,
        )
    }

    fn service(cfg: ServiceConfig) -> StepService {
        StepService::new(cfg, Arc::new(TestClock(VirtualClock::new())))
    }

    #[test]
    fn dispatch_then_attempt_completes_a_job() {
        let mut s = service(ServiceConfig {
            executors: 1,
            ..ServiceConfig::default()
        });
        let handle = s.submit(spec(stream(&fixture(4).0))).unwrap();
        assert!(s.can_progress(0));
        let id = handle.id();
        assert_eq!(s.step(0, None), StepEvent::Dispatched { job: id });
        assert_eq!(s.step(0, None), StepEvent::Finished { job: id, ok: true });
        assert!(handle.peek().unwrap().is_ok());
        assert_eq!(s.metrics().counter(Counter::Completed), 1);
        assert_eq!(s.admitted_bytes(), 0);
    }

    /// A poisoned stream, batch or windowed, is dispatched and then fails
    /// typed on the very next step: its one run ends it, and the executor
    /// is free again.
    #[test]
    fn a_poisoned_stream_fails_on_the_step_after_dispatch() {
        let mut s = service(ServiceConfig {
            executors: 1,
            ..ServiceConfig::default()
        });
        let (trace, _) = fixture(8);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let poisoned = FaultInjector::new()
            .with(Fault::Truncate { at: bytes.len() / 2 })
            .apply(&chunked(&bytes, 64));
        let inputs = [
            JobInput::Stream(poisoned.clone()),
            JobInput::StreamIncremental { chunks: poisoned, window_events: 8 },
        ];
        for input in inputs {
            let handle = s.submit(spec(input)).unwrap();
            let id = handle.id();
            assert_eq!(s.step(0, None), StepEvent::Dispatched { job: id });
            assert_eq!(s.step(0, None), StepEvent::Finished { job: id, ok: false });
            assert_eq!(s.current_job(0), None);
            let failure = handle.wait().expect_err("poisoned job fails");
            assert!(matches!(failure.error, JobError::Pipeline(_)), "{:?}", failure.error);
        }
        let m = s.metrics();
        assert_eq!(m.counter(Counter::Failed), 2);
        assert_eq!(m.counter(Counter::JobPanics), 0);
        assert_eq!(s.admitted_bytes(), 0);
    }

    #[test]
    fn shutdown_with_abandon_drains_queued_jobs() {
        let mut s = service(ServiceConfig {
            executors: 2,
            ..ServiceConfig::default()
        });
        let h1 = s.submit(spec(stream(&fixture(2).0))).unwrap();
        let h2 = s.submit(spec(stream(&fixture(2).0))).unwrap();
        s.begin_shutdown(true);
        assert_eq!(s.step(0, None), StepEvent::Exited { drained: 2 });
        assert_eq!(s.step(1, None), StepEvent::Exited { drained: 0 });
        assert!(s.all_stopped());
        assert_eq!(s.step(0, None), StepEvent::Stopped);
        for h in [h1, h2] {
            let failure = h.wait().expect_err("queued job failed by shutdown");
            assert!(matches!(failure.error, JobError::Shutdown));
        }
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.admitted_bytes(), 0);
    }

    #[test]
    fn probe_cancel_mid_attempt_is_typed_cancelled() {
        let mut s = service(ServiceConfig {
            executors: 1,
            ..ServiceConfig::default()
        });
        let handle = s.submit(spec(stream(&fixture(16).0))).unwrap();
        let id = handle.id();
        assert_eq!(s.step(0, None), StepEvent::Dispatched { job: id });
        // A probe that arms the job's real cancel flag at the first
        // pipeline checkpoint — the simulation's "submitter cancels
        // mid-attempt". Arming the flag keeps the error typing honest:
        // the service reports Cancelled, not DeadlineExceeded.
        let cancel = handle.canceller();
        let probe: AttemptProbe = Arc::new(move || {
            cancel();
            true
        });
        assert_eq!(
            s.step(0, Some(&probe)),
            StepEvent::Finished { job: id, ok: false }
        );
        let failure = handle.wait().expect_err("cancelled");
        assert!(matches!(failure.error, JobError::Cancelled));
        assert_eq!(s.metrics().counter(Counter::Cancelled), 1);
    }

    #[test]
    fn probe_panic_is_contained_as_a_worker_crash() {
        let mut s = service(ServiceConfig {
            executors: 1,
            ..ServiceConfig::default()
        });
        let handle = s.submit(spec(stream(&fixture(16).0))).unwrap();
        let id = handle.id();
        assert_eq!(s.step(0, None), StepEvent::Dispatched { job: id });
        let probe: AttemptProbe = Arc::new(|| panic!("injected worker crash"));
        assert_eq!(
            s.step(0, Some(&probe)),
            StepEvent::Finished { job: id, ok: false }
        );
        let failure = handle.wait().expect_err("crashed");
        assert!(matches!(failure.error, JobError::Panicked(_)));
        let m = s.metrics();
        assert_eq!(m.counter(Counter::JobPanics), 1);
        // The crash was contained inside the attempt: the service itself
        // never panicked.
        assert_eq!(m.counter(Counter::ServiceCrashes), 0);
    }
}
