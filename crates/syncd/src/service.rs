//! The service: a fixed executor pool multiplexing the synchronization
//! pipeline across admitted jobs.
//!
//! # Fault and tenant isolation
//!
//! Each job runs under `catch_unwind`, so a poisoned input that panics
//! deep in decoding or synchronization fails *that job* with a typed
//! [`JobError`] — the executor thread, the queue, and every other
//! tenant's job survive. A failure is terminal: the run is a
//! deterministic function of the job's owned bytes, so a second run would
//! fail the same way. The `syncd_service_crashes_total` counter only moves
//! if a panic escapes this isolation, which the CI smoke test asserts
//! never happens.
//!
//! # Determinism
//!
//! The service hands a job's configuration to the pipeline as submitted:
//! a job run through the service produces exactly the bytes a direct
//! [`clocksync::synchronize`] call would. A job runs on one thread, its
//! executor's; concurrency is jobs side by side.
//!
//! # Execution seam
//!
//! All scheduling state transitions live in step-shaped pieces — take a
//! job off the queue ([`Shared::try_take`]), run it to its outcome
//! ([`JobRun::run`]), drain the queue at shutdown — and
//! every timestamp goes through the [`Runtime`] clock. The threaded
//! [`SyncService`] drives those pieces from OS executor threads; the
//! [`StepService`](crate::step::StepService) drives the *same* pieces one
//! explicit step at a time under a virtual clock, which is what makes the
//! VOPR-style simulation harness (`crates/simsched`) both deterministic
//! and honest: it explores the production state machine, not a model of
//! it.

use crate::admission::{estimate_job_cost, PriorityQueue, Queued};
use crate::job::{
    JobError, JobFailure, JobHandle, JobId, JobInput, JobOutcome, JobSpec, JobState, JobSuccess,
    SubmitError,
};
use crate::metrics::{Counter, MetricsRegistry, MetricsSnapshot};
use crate::runtime::{AttemptProbe, RealRuntime, Runtime};
use clocksync::{
    synchronize_stream, synchronize_stream_incremental_with_sink, CancelToken, PipelineError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tracefmt::Trace;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor threads — the number of jobs that run concurrently, one
    /// thread each.
    pub executors: usize,
    /// Bounded submission-queue capacity (jobs, across all classes).
    pub queue_capacity: usize,
    /// Memory budget in bytes; admission rejects jobs whose estimated
    /// working set would push the admitted total past it.
    pub memory_budget_bytes: u64,
    /// Deadline applied to jobs that don't set their own (None = none).
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        ServiceConfig {
            executors: cpus.min(4),
            queue_capacity: 64,
            memory_budget_bytes: 512 << 20,
            default_deadline: None,
        }
    }
}

/// One admitted job waiting for (or holding) an executor. Times are
/// [`Runtime`]-clock instants (durations since the runtime's epoch).
pub(crate) struct Ticket {
    spec: JobSpec,
    state: Arc<JobState>,
    submitted: Duration,
    deadline: Option<Duration>,
}

pub(crate) struct QueueInner {
    queue: PriorityQueue<Ticket>,
    /// Bytes currently charged against the memory budget.
    admitted: u64,
    shutdown: bool,
    /// When true, queued-but-unstarted jobs are failed instead of run.
    abandon_queue: bool,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServiceConfig,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) runtime: Arc<dyn Runtime>,
    inner: Mutex<QueueInner>,
    cv: Condvar,
    next_id: AtomicU64,
}

/// What [`Shared::try_take`] found (non-blocking).
pub(crate) enum Take {
    /// A job to run.
    Job(Box<Queued<Ticket>>),
    /// Nothing queued; the executor should wait (or report idle).
    Empty,
    /// Shutdown reached: the executor must drain-and-exit.
    Exit,
}

impl Shared {
    pub(crate) fn new(cfg: ServiceConfig, runtime: Arc<dyn Runtime>) -> Arc<Shared> {
        Arc::new(Shared {
            inner: Mutex::new(QueueInner {
                queue: PriorityQueue::new(cfg.queue_capacity.max(1)),
                admitted: 0,
                shutdown: false,
                abandon_queue: false,
            }),
            cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            metrics: Arc::new(MetricsRegistry::new()),
            runtime,
            cfg,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission control + enqueue, shared by the threaded service and the
    /// step-mode service. Gauge updates happen under the queue lock so a
    /// metrics snapshot can never observe the push without its accounting
    /// (or a negative transient between the two).
    pub(crate) fn submit(self: &Arc<Self>, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let metrics = &self.metrics;
        let cost = estimate_job_cost(&spec.input).bytes;
        let budget = self.cfg.memory_budget_bytes;
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(SubmitError::Shutdown);
        }
        if inner.queue.is_full() {
            metrics.inc(Counter::RejectedQueueFull);
            return Err(SubmitError::QueueFull {
                capacity: inner.queue.capacity(),
            });
        }
        if inner.admitted.saturating_add(cost) > budget {
            metrics.inc(Counter::RejectedOverBudget);
            return Err(SubmitError::OverBudget {
                estimated: cost,
                available: budget.saturating_sub(inner.admitted),
            });
        }
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(JobState::new(id));
        let now = self.runtime.now();
        let deadline = spec
            .deadline
            .or(self.cfg.default_deadline)
            .map(|d| now + d);
        let priority = spec.priority;
        inner.admitted += cost;
        inner.queue.push(
            priority,
            Queued {
                job: Ticket {
                    spec,
                    state: Arc::clone(&state),
                    submitted: now,
                    deadline,
                },
                cost,
            },
        );
        metrics.inc(Counter::Accepted);
        metrics.queue_depth_add(1);
        metrics.admitted_bytes_add(cost as i64);
        drop(inner);
        self.cv.notify_one();
        Ok(JobHandle { state })
    }

    /// Non-blocking dispatch: pop the highest-priority ticket, or report
    /// why there is none. The queue-depth gauge moves under the same lock
    /// as the pop.
    pub(crate) fn try_take(&self) -> Take {
        let mut inner = self.lock();
        self.take_locked(&mut inner)
    }

    fn take_locked(&self, inner: &mut QueueInner) -> Take {
        if inner.shutdown && (inner.abandon_queue || inner.queue.is_empty()) {
            return Take::Exit;
        }
        match inner.queue.pop() {
            Some(entry) => {
                self.metrics.queue_depth_add(-1);
                Take::Job(Box::new(entry))
            }
            None => Take::Empty,
        }
    }

    /// Release a job's admission charge.
    pub(crate) fn release(&self, cost: u64) {
        let mut inner = self.lock();
        inner.admitted -= cost;
        self.metrics.admitted_bytes_add(-(cost as i64));
    }

    /// Charge `bytes` against the memory budget if (and only if) they fit
    /// right now. The network layer reserves its per-connection ingest
    /// window through this, so buffered-but-not-yet-submitted stream bytes
    /// are accounted exactly like admitted jobs; pair every successful
    /// reservation with a [`Shared::release`].
    pub(crate) fn try_reserve(&self, bytes: u64) -> bool {
        let mut inner = self.lock();
        if inner.shutdown || inner.admitted.saturating_add(bytes) > self.cfg.memory_budget_bytes
        {
            return false;
        }
        inner.admitted += bytes;
        self.metrics.admitted_bytes_add(bytes as i64);
        true
    }

    /// Fail everything still queued with [`JobError::Shutdown`] (the
    /// abandon-queue shutdown path). Returns how many jobs were failed.
    pub(crate) fn drain_shutdown(&self) -> usize {
        let drained = self.lock().queue.drain();
        let n = drained.len();
        for Queued { job, cost } in drained {
            self.metrics.queue_depth_add(-1);
            self.release(cost);
            job.state.finish(Err(JobFailure { error: JobError::Shutdown }));
            self.metrics.inc(Counter::Failed);
        }
        n
    }

    /// Flip the shutdown flags and wake every executor.
    pub(crate) fn begin_shutdown(&self, abandon_queue: bool) {
        {
            let mut inner = self.lock();
            inner.shutdown = true;
            inner.abandon_queue = inner.abandon_queue || abandon_queue;
        }
        self.cv.notify_all();
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Bytes currently charged against the memory budget (ground truth,
    /// read under the queue lock — the simulation invariant checker
    /// compares this against the `admitted_bytes` gauge).
    pub(crate) fn admitted_bytes(&self) -> u64 {
        self.lock().admitted
    }

    /// Jobs currently queued.
    pub(crate) fn queue_len(&self) -> usize {
        self.lock().queue.len()
    }
}

/// Decrements a gauge (and optionally bumps the crash counter) on drop,
/// so accounting survives a panic escaping the guarded region.
pub(crate) struct CrashGuard<'a> {
    pub(crate) metrics: &'a MetricsRegistry,
}

impl Drop for CrashGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.metrics.inc(Counter::ServiceCrashes);
        }
    }
}

/// The multi-tenant synchronization service. See the [crate docs](crate)
/// for the architecture.
pub struct SyncService {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl SyncService {
    /// Start a service with the given configuration on the production
    /// [`RealRuntime`] clock.
    pub fn start(cfg: ServiceConfig) -> Self {
        SyncService::start_with_runtime(cfg, Arc::new(RealRuntime::new()))
    }

    /// Start a service on an explicit [`Runtime`] — the seam the
    /// deterministic simulation harness uses to substitute a virtual
    /// clock. Production callers want [`SyncService::start`].
    pub fn start_with_runtime(cfg: ServiceConfig, runtime: Arc<dyn Runtime>) -> Self {
        let executors = cfg.executors.max(1);
        let shared = Shared::new(cfg, runtime);
        let threads = (0..executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("syncd-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor thread")
            })
            .collect();
        SyncService { shared, threads }
    }

    /// Start with default configuration.
    pub fn start_default() -> Self {
        SyncService::start(ServiceConfig::default())
    }

    /// Submit a job. Admission control runs synchronously: the call
    /// returns a handle only if the job fits the queue and the memory
    /// budget, and a typed [`SubmitError`] otherwise.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.shared.submit(spec)
    }

    /// A point-in-time copy of every service metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The shared core — the seam the network front end builds on.
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Stop accepting jobs, let the executors *drain* the queue, and join
    /// them. Every already-admitted job runs to completion.
    pub fn shutdown(self) {
        self.stop(false);
    }

    /// Stop accepting jobs and fail everything still queued with
    /// [`JobError::Shutdown`]; only jobs already executing finish.
    pub fn shutdown_now(self) {
        self.stop(true);
    }

    fn stop(mut self, abandon_queue: bool) {
        self.shared.begin_shutdown(abandon_queue);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for SyncService {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.begin_shutdown(false);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn executor_loop(shared: &Shared) {
    loop {
        let entry = {
            let mut inner = shared.lock();
            loop {
                match shared.take_locked(&mut inner) {
                    Take::Job(entry) => break Some(entry),
                    Take::Exit => break None,
                    Take::Empty => {
                        inner = shared.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        };
        let Some(entry) = entry else {
            // Shutdown. Under abandon_queue one executor drains the rest
            // and fails them typed; under graceful drain there is nothing
            // left to fail.
            shared.drain_shutdown();
            return;
        };
        let Queued { job: ticket, cost } = *entry;
        let guard = CrashGuard {
            metrics: &shared.metrics,
        };
        JobRun::begin(shared, ticket, cost).run(shared, None);
        drop(guard);
    }
}

/// One admitted job on its executor, between dispatch and its outcome.
/// [`JobRun::run`] consumes it, so a job runs once; the threaded executor
/// and the deterministic simulation drive the identical calls.
pub(crate) struct JobRun {
    ticket: Ticket,
    cost: u64,
    queue_wait: Duration,
}

impl JobRun {
    /// Take ownership of a popped ticket: record queue wait, mark the job
    /// running.
    pub(crate) fn begin(shared: &Shared, ticket: Ticket, cost: u64) -> Self {
        let metrics = &shared.metrics;
        let queue_wait = shared
            .runtime
            .now()
            .saturating_sub(ticket.submitted);
        metrics.observe_queue_wait(queue_wait);
        metrics.running_add(1);
        JobRun {
            ticket,
            cost,
            queue_wait,
        }
    }

    /// The job's id.
    pub(crate) fn id(&self) -> JobId {
        self.ticket.state.id
    }

    /// Run the job and deliver its outcome; returns whether it succeeded.
    /// `probe` is threaded into the run's [`CancelToken`] as an extra
    /// cancellation source — the simulation harness's per-checkpoint
    /// fault-injection hook; the threaded service passes `None`.
    pub(crate) fn run(self, shared: &Shared, probe: Option<&AttemptProbe>) -> bool {
        let result = self.attempt(shared, probe);
        self.finish(shared, result)
    }

    /// Terminal bookkeeping: counters, latency, stats fold, budget
    /// release, and outcome delivery to the submitter's handle.
    fn finish(self, shared: &Shared, result: Result<JobSuccess, JobError>) -> bool {
        let metrics = &shared.metrics;
        metrics.running_add(-1);
        let ok = result.is_ok();
        let outcome: JobOutcome = match result {
            Ok(success) => {
                metrics.observe_job_latency(
                    shared.runtime.now().saturating_sub(self.ticket.submitted),
                );
                metrics.fold_pipeline_stats(&success.report.stats);
                Ok(success)
            }
            Err(error) => Err(JobFailure { error }),
        };
        match &outcome {
            Ok(_) => metrics.inc(Counter::Completed),
            Err(f) => {
                match f.error {
                    JobError::Cancelled => metrics.inc(Counter::Cancelled),
                    JobError::DeadlineExceeded => metrics.inc(Counter::DeadlineExceeded),
                    _ => {}
                }
                metrics.inc(Counter::Failed);
            }
        }
        shared.release(self.cost);
        self.ticket.state.finish(outcome);
        ok
    }

    fn attempt(
        &self,
        shared: &Shared,
        probe: Option<&AttemptProbe>,
    ) -> Result<JobSuccess, JobError> {
        let t0 = shared.runtime.now();
        let mut cancel =
            CancelToken::none().with_flag(Arc::clone(&self.ticket.state.cancel));
        if let Some(deadline) = self.ticket.deadline {
            // Deadline as a probe on the runtime clock, so simulated time
            // trips it exactly like wall time would.
            let rt = Arc::clone(&shared.runtime);
            cancel = cancel.with_probe(Arc::new(move || rt.now() >= deadline));
        }
        if let Some(probe) = probe {
            cancel = cancel.with_probe(Arc::clone(probe));
        }
        let spec = &self.ticket.spec;
        let (init, fin, lmin, cfg) =
            (&spec.init, spec.fin.as_deref(), &*spec.lmin, &spec.pipeline);
        let result = catch_unwind(AssertUnwindSafe(|| match &spec.input {
            JobInput::Stream(chunks) => {
                let chunks = chunks.iter().map(Vec::as_slice);
                synchronize_stream(chunks, init, fin, lmin, cfg, &cancel)
                    .map(|(trace, report)| (trace, report, Vec::new()))
            }
            JobInput::StreamIncremental { chunks, window_events } => {
                let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
                // A sink (the network layer) takes the corrected chunks,
                // numbered, as they are sealed; without one they are the
                // success payload. The empty trace is documented on
                // `JobSuccess::trace`.
                let mut frames = Vec::new();
                let mut next = 0;
                let mut consume = |chunk: Vec<u8>| match &spec.frame_sink {
                    Some(sink) => {
                        next += 1;
                        sink(next - 1, &chunk)
                    }
                    None => {
                        frames.push(chunk);
                        true
                    }
                };
                synchronize_stream_incremental_with_sink(
                    &refs, init, fin, lmin, cfg, *window_events, &cancel, &mut consume,
                )
                .map(|inc| (Trace::for_ranks(0), inc.to_pipeline_report(), frames))
            }
        }));
        match result {
            Ok(Ok((trace, report, frames))) => Ok(JobSuccess {
                trace,
                report,
                frames,
                queue_wait: self.queue_wait,
                run_time: shared.runtime.now().saturating_sub(t0),
            }),
            Ok(Err(PipelineError::Cancelled)) => {
                // Disambiguate: an armed flag means the submitter (or an
                // injected fault acting as one) cancelled; otherwise the
                // deadline tripped the token.
                if self.ticket.state.cancel.load(Ordering::Relaxed) {
                    Err(JobError::Cancelled)
                } else {
                    Err(JobError::DeadlineExceeded)
                }
            }
            Ok(Err(err)) => Err(JobError::Pipeline(err)),
            Err(payload) => {
                shared.metrics.inc(Counter::JobPanics);
                Err(JobError::Panicked(panic_message(payload.as_ref())))
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::{chunked, Fault, FaultInjector};
    use crate::job::{JobInput, Priority};
    use clocksync::{synchronize, OffsetMeasurement, PipelineConfig};
    use simclock::{Dur, Time};
    use std::sync::{mpsc, Arc};
    use tracefmt::io::to_binary_columnar_v3_blocked;
    use tracefmt::{EventKind, Tag, Trace, UniformLatency};

    /// A 2-rank trace with messages 0 → 1, rank 1's clock skewed by
    /// +500 µs, plus the matching init/finalize measurements.
    pub(crate) fn fixture(
        msgs: usize,
    ) -> (
        Trace,
        Vec<Option<OffsetMeasurement>>,
        Vec<Option<OffsetMeasurement>>,
    ) {
        let skew = 500i64;
        let mut t = Trace::for_ranks(2);
        for i in 0..msgs {
            let send_us = 10 * i as i64 + 1;
            let recv_us = send_us + 5;
            t.procs[0].push(
                Time::from_us(send_us),
                EventKind::Send { to: tracefmt::Rank(1), tag: Tag(0), bytes: 8 },
            );
            t.procs[1].push(
                Time::from_us(recv_us + skew),
                EventKind::Recv { from: tracefmt::Rank(0), tag: Tag(0), bytes: 8 },
            );
        }
        let meas = |at: i64| OffsetMeasurement {
            worker_time: Time::from_us(at + skew),
            offset: Dur::from_us(-skew),
            rtt: Dur::from_us(4),
        };
        let init = vec![None, Some(meas(0))];
        let fin = vec![None, Some(meas(10 * msgs as i64 + 10))];
        (t, init, fin)
    }

    fn lmin() -> Arc<dyn tracefmt::MinLatency + Send + Sync> {
        Arc::new(UniformLatency(Dur::from_us(1)))
    }

    /// `trace` as the stream job a tracer's bytes make: `DTC3`, 16-event
    /// blocks, 64-byte chunks.
    fn stream(trace: &Trace) -> JobInput {
        JobInput::Stream(chunked(&to_binary_columnar_v3_blocked(trace, 16), 64))
    }

    fn spec(input: JobInput) -> JobSpec {
        let (_, init, fin) = fixture(0);
        JobSpec::new(input, init, Some(fin), lmin(), PipelineConfig::default())
    }

    #[test]
    fn stream_job_matches_the_direct_pipeline_call() {
        let (trace, init, fin) = fixture(40);
        let mut direct = trace.clone();
        synchronize(
            &mut direct,
            &init,
            Some(&fin),
            &UniformLatency(Dur::from_us(1)),
            &PipelineConfig::default(),
        )
        .unwrap();

        let service = SyncService::start_default();
        let handle = service
            .submit(JobSpec::new(
                stream(&trace),
                init,
                Some(fin),
                lmin(),
                PipelineConfig::default(),
            ))
            .unwrap();
        let success = handle.wait().expect("job succeeds");
        for (p, (got, want)) in success.trace.procs.iter().zip(&direct.procs).enumerate() {
            for (i, (g, w)) in got.events.iter().zip(&want.events).enumerate() {
                assert_eq!(g.time, w.time, "proc {p} event {i}");
            }
        }
        let m = service.metrics();
        assert_eq!(m.counter(Counter::Completed), 1);
        assert_eq!(m.counter(Counter::ServiceCrashes), 0);
        service.shutdown();
    }

    /// A truncated stream fails typed on its one run, batch or windowed:
    /// one `Failed` per job, no panic, and its budget charge released.
    #[test]
    fn poisoned_stream_fails_typed_on_its_only_run() {
        let (trace, ..) = fixture(40);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let poisoned = FaultInjector::new()
            .with(Fault::Truncate { at: bytes.len() / 2 })
            .apply(&chunked(&bytes, 64));

        let service = SyncService::start_default();
        let inputs = [
            JobInput::Stream(poisoned.clone()),
            JobInput::StreamIncremental { chunks: poisoned, window_events: 8 },
        ];
        for (n, input) in inputs.into_iter().enumerate() {
            let kind = input.kind();
            let handle = service.submit(spec(input)).unwrap();
            let failure = handle.wait().expect_err("poisoned job must fail");
            assert!(
                matches!(failure.error, JobError::Pipeline(_)),
                "{kind}: want typed pipeline error, got {:?}",
                failure.error
            );
            let m = service.metrics();
            assert_eq!(m.counter(Counter::Failed), n as u64 + 1, "{kind}");
            assert_eq!(m.counter(Counter::JobPanics), 0, "{kind}");
            assert_eq!(m.counter(Counter::ServiceCrashes), 0, "{kind}");
            // The budget charge is released once the job is done.
            assert_eq!(m.admitted_bytes, 0, "{kind}");
        }
        service.shutdown();
    }

    #[test]
    fn incremental_stream_job_streams_corrected_frames() {
        let (trace, init, fin) = fixture(40);
        let mut direct = trace.clone();
        synchronize(
            &mut direct,
            &init,
            Some(&fin),
            &UniformLatency(Dur::from_us(1)),
            &PipelineConfig::default(),
        )
        .unwrap();

        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let service = SyncService::start_default();
        // The last window is what a hostile `JobConfig` can ask for: a lane
        // segment is never wider than its timeline, so it runs like any
        // window the timelines fit in.
        let mut frames_by_window = Vec::new();
        for window_events in [8, 64, usize::MAX] {
            let handle = service
                .submit(JobSpec::new(
                    JobInput::StreamIncremental { chunks: chunked(&bytes, 64), window_events },
                    init.clone(),
                    Some(fin.clone()),
                    lmin(),
                    PipelineConfig::default(),
                ))
                .unwrap();
            let success = handle.wait().expect("incremental job succeeds");
            // The corrected trace comes back as stream frames, not records.
            assert_eq!(success.trace.n_procs(), 0);
            assert!(!success.frames.is_empty());
            // At most four lanes of 8-byte values, none longer than its timeline.
            let peak = success.report.stats.peak_resident_column_bytes;
            assert!(peak > 0 && peak <= 4 * 8 * trace.n_events() as u64, "window {window_events}: {peak} B");
            let back =
                tracefmt::io::from_binary_columnar(success.frames.concat().into()).unwrap();
            for dp in &direct.procs {
                let wp = back
                    .procs
                    .iter()
                    .find(|p| p.location == dp.location)
                    .expect("timeline present in re-decoded output");
                assert_eq!(dp.events.len(), wp.events.len());
                for (d, w) in dp.events.iter().zip(&wp.events) {
                    assert_eq!(d.time, w.time);
                }
            }
            frames_by_window.push(success.frames);
        }
        assert_eq!(frames_by_window[2], frames_by_window[1], "usize::MAX vs window 64");
        assert_eq!(service.metrics().counter(Counter::Completed), 3);
        service.shutdown();
    }

    #[test]
    fn zero_window_incremental_job_fails_typed() {
        let (trace, init, fin) = fixture(4);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let service = SyncService::start_default();
        let handle = service
            .submit(JobSpec::new(
                JobInput::StreamIncremental {
                    chunks: chunked(&bytes, 64),
                    window_events: 0,
                },
                init,
                Some(fin),
                lmin(),
                PipelineConfig::default(),
            ))
            .unwrap();
        let failure = handle.wait().expect_err("zero window must fail");
        assert!(matches!(failure.error, JobError::Pipeline(_)));
        assert_eq!(service.metrics().admitted_bytes, 0);
        service.shutdown();
    }

    #[test]
    fn zero_deadline_job_reports_deadline_exceeded() {
        let (trace, init, fin) = fixture(10);
        let service = SyncService::start_default();
        let handle = service
            .submit(
                JobSpec::new(
                    stream(&trace),
                    init,
                    Some(fin),
                    lmin(),
                    PipelineConfig::default(),
                )
                .with_deadline(Duration::ZERO),
            )
            .unwrap();
        let failure = handle.wait().expect_err("deadline must trip");
        assert!(matches!(failure.error, JobError::DeadlineExceeded));
        assert_eq!(service.metrics().counter(Counter::DeadlineExceeded), 1);
        service.shutdown();
    }

    /// A service whose single executor is held by a windowed job whose
    /// frame sink blocks until the returned sender is dropped, so queue
    /// interactions are deterministic.
    fn busy_service(queue_capacity: usize) -> (SyncService, JobHandle, mpsc::Sender<()>) {
        let service = SyncService::start(ServiceConfig {
            executors: 1,
            queue_capacity,
            ..ServiceConfig::default()
        });
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let bytes = to_binary_columnar_v3_blocked(&fixture(4).0, 16);
        let input = JobInput::StreamIncremental { chunks: chunked(&bytes, 64), window_events: 8 };
        let sink = Arc::new(move |_: u64, _: &[u8]| {
            let _ = gate.lock().unwrap().recv();
            true
        });
        let busy = service.submit(spec(input).with_frame_sink(sink)).unwrap();
        // Wait until the executor has actually taken the job off the queue.
        while service.metrics().queue_depth > 0 {
            std::thread::yield_now();
        }
        (service, busy, release)
    }

    #[test]
    fn cancelled_queued_job_never_runs() {
        let (service, busy, release) = busy_service(8);
        let (trace, init, fin) = fixture(10);
        let handle = service
            .submit(JobSpec::new(
                stream(&trace),
                init,
                Some(fin),
                lmin(),
                PipelineConfig::default(),
            ))
            .unwrap();
        handle.cancel();
        drop(release);
        let failure = handle.wait().expect_err("cancelled job must fail");
        assert!(matches!(failure.error, JobError::Cancelled));
        assert_eq!(service.metrics().counter(Counter::Cancelled), 1);
        busy.wait().expect("the held job completes");
        service.shutdown();
    }

    #[test]
    fn full_queue_and_tiny_budget_reject_typed() {
        let (service, busy, release) = busy_service(1);
        // One job fits the queue...
        let q1 = service.submit(spec(stream(&fixture(2).0))).unwrap();
        // ...the next bounces.
        match service.submit(spec(stream(&fixture(2).0))) {
            Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 1),
            other => panic!("want QueueFull, got {:?}", other.err()),
        }
        assert_eq!(service.metrics().counter(Counter::RejectedQueueFull), 1);
        drop(release);
        let _ = busy.wait();
        let _ = q1.wait();
        service.shutdown();

        let tiny = SyncService::start(ServiceConfig {
            memory_budget_bytes: 1,
            ..ServiceConfig::default()
        });
        match tiny.submit(spec(stream(&fixture(2).0))) {
            Err(SubmitError::OverBudget { estimated, available }) => {
                assert!(estimated > 1);
                assert_eq!(available, 1);
            }
            other => panic!("want OverBudget, got {:?}", other.err()),
        }
        assert_eq!(tiny.metrics().counter(Counter::RejectedOverBudget), 1);
        tiny.shutdown();
    }

    #[test]
    fn shutdown_now_fails_queued_jobs_typed() {
        let (service, busy, release) = busy_service(8);
        let queued = service.submit(spec(stream(&fixture(2).0))).unwrap();
        // Abandon the queue before the held job lets its executor go.
        service.shared().begin_shutdown(true);
        drop(release);
        service.shutdown_now();
        let failure = queued.wait().expect_err("queued job must be failed");
        assert!(matches!(failure.error, JobError::Shutdown));
        let _ = busy.wait();
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        let (service, busy, release) = busy_service(8);
        let low = service
            .submit(spec(stream(&fixture(2).0)).with_priority(Priority::Low))
            .unwrap();
        let high = service
            .submit(spec(stream(&fixture(2).0)).with_priority(Priority::High))
            .unwrap();
        drop(release);
        let _ = busy.wait();
        let high_out = high.wait().expect("high-priority job succeeds");
        let low_out = low.wait().expect("low-priority job succeeds");
        // Single executor: the high job must have been picked first, i.e.
        // it waited strictly less than the later-submitted low job.
        assert!(high_out.queue_wait <= low_out.queue_wait);
        service.shutdown();
    }
}
