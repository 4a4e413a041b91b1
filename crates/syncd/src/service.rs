//! The service: a fixed executor pool multiplexing the synchronization
//! pipeline across admitted jobs.
//!
//! # Fault and tenant isolation
//!
//! Each job attempt runs under `catch_unwind`, so a poisoned input that
//! panics deep in decoding or synchronization fails *that attempt* with a
//! typed [`JobError`] — the executor thread, the queue, and every other
//! tenant's job survive. Attempts that fail with a retryable error are
//! re-run with exponential backoff up to the retry budget. The
//! `syncd_service_crashes_total` counter only moves if a panic escapes
//! this isolation, which the CI smoke test asserts never happens.
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
//! job off the queue ([`Shared::try_take`]), run one attempt and decide
//! retry/terminal ([`JobRun::step`]), drain the queue at shutdown — and
//! every timestamp goes through the [`Runtime`] clock. The threaded
//! [`SyncService`] drives those pieces from OS executor threads; the
//! [`StepService`](crate::step::StepService) drives the *same* pieces one
//! explicit step at a time under a virtual clock, which is what makes the
//! VOPR-style simulation harness (`crates/simsched`) both deterministic
//! and honest: it explores the production state machine, not a model of
//! it.

use crate::admission::{estimate_job_cost, PriorityQueue, Queued};
use crate::job::{
    JobError, JobFailure, JobHandle, JobId, JobOutcome, JobSpec, JobState, JobSuccess,
    SubmitError,
};
use crate::metrics::{Counter, MetricsRegistry, MetricsSnapshot};
use crate::runtime::{AttemptProbe, RealRuntime, Runtime};
use clocksync::{
    synchronize_stream_incremental_with_cancel, synchronize_stream_incremental_with_sink,
    synchronize_stream_with_cancel, synchronize_with_cancel, CancelToken, PipelineError,
};
use simclock::Time;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// Default retry budget (attempts = retries + 1).
    pub max_retries: u32,
    /// Backoff before retry `n` is `retry_backoff * 2^(n-1)`.
    pub retry_backoff: Duration,
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
            max_retries: 2,
            retry_backoff: Duration::from_millis(2),
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
            job.state.finish(Err(JobFailure {
                error: JobError::Shutdown,
                attempts: 0,
            }));
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
        let mut run = JobRun::begin(shared, ticket, cost);
        while let RunStep::Backoff(backoff) = run.step(shared, None) {
            shared.runtime.sleep(backoff);
        }
        drop(guard);
    }
}

/// A job's terminal state after one attempt, or a decision to retry.
enum AttemptOutcome {
    Done(Box<JobSuccess>),
    Terminal(JobError),
    Retryable(JobError),
}

/// What one [`JobRun::step`] produced.
pub(crate) enum RunStep {
    /// The attempt failed retryably; wait out `backoff` before stepping
    /// again. (The threaded loop sleeps; the step-mode service parks the
    /// executor until the virtual clock passes the wake time.)
    Backoff(Duration),
    /// The job reached a terminal outcome; all bookkeeping (metrics,
    /// budget release, handle delivery) is already done.
    Finished {
        /// Whether the job succeeded.
        ok: bool,
    },
}

/// One admitted job being executed: the retry loop of the service,
/// decomposed into explicit steps so the threaded executor and the
/// deterministic simulation drive the identical state machine.
pub(crate) struct JobRun {
    ticket: Ticket,
    cost: u64,
    queue_wait: Duration,
    attempts: u32,
    max_attempts: u32,
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

        let max_attempts = ticket.spec.max_retries.unwrap_or(shared.cfg.max_retries) + 1;
        JobRun {
            ticket,
            cost,
            queue_wait,
            attempts: 0,
            max_attempts,
        }
    }

    /// The job's id.
    pub(crate) fn id(&self) -> JobId {
        self.ticket.state.id
    }

    /// Run one attempt (or conclude without one if the job was cancelled
    /// or its deadline passed). `probe` is threaded into the attempt's
    /// [`CancelToken`] as an extra cancellation source — the simulation
    /// harness's per-checkpoint fault-injection hook; the threaded service
    /// passes `None`.
    pub(crate) fn step(&mut self, shared: &Shared, probe: Option<&AttemptProbe>) -> RunStep {
        let result = 'run: {
            if self.ticket.state.cancel.load(Ordering::Relaxed) {
                break 'run Err(JobError::Cancelled);
            }
            if self.deadline_passed(shared) {
                break 'run Err(JobError::DeadlineExceeded);
            }
            self.attempts += 1;
            match self.attempt(shared, probe) {
                AttemptOutcome::Done(success) => break 'run Ok(*success),
                AttemptOutcome::Terminal(err) => break 'run Err(err),
                AttemptOutcome::Retryable(err) => {
                    if self.attempts >= self.max_attempts {
                        break 'run Err(err);
                    }
                    let backoff =
                        shared.cfg.retry_backoff * 2u32.saturating_pow(self.attempts - 1);
                    // A backoff that would wake at or past the deadline is
                    // doomed — the deadline check above would fail the job
                    // the moment it woke — so fail it now instead of
                    // holding the executor in a useless sleep while other
                    // tenants' jobs queue behind it. (Found by the
                    // simsched chaos campaign: seed 61's doomed parking.)
                    if let Some(deadline) = self.ticket.deadline {
                        if shared.runtime.now() + backoff >= deadline {
                            break 'run Err(JobError::DeadlineExceeded);
                        }
                    }
                    shared.metrics.inc(Counter::Retried);
                    return RunStep::Backoff(backoff);
                }
            }
        };
        self.finish(shared, result)
    }

    fn deadline_passed(&self, shared: &Shared) -> bool {
        self.ticket
            .deadline
            .is_some_and(|d| shared.runtime.now() >= d)
    }

    /// Terminal bookkeeping: counters, latency, stats fold, budget
    /// release, and outcome delivery to the submitter's handle.
    fn finish(&mut self, shared: &Shared, result: Result<JobSuccess, JobError>) -> RunStep {
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
            Err(error) => Err(JobFailure {
                error,
                attempts: self.attempts,
            }),
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
        RunStep::Finished { ok }
    }

    fn attempt(&mut self, shared: &Shared, probe: Option<&AttemptProbe>) -> AttemptOutcome {
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
        // The pipeline rewrites timestamps only — never event structure —
        // so retry isolation does not need a full `Trace::clone` per
        // attempt (the seam that cost ~10% over direct calls). Instead the
        // attempt runs in place, and when a retry is still possible we keep
        // an 8-byte-per-event timestamp snapshot to roll a failed attempt
        // back bit-exactly. When this is the last permitted attempt no
        // snapshot is taken at all.
        let retry_possible = self.attempts < self.max_attempts;
        let spec = &mut self.ticket.spec;
        let snapshot: Option<Vec<Vec<Time>>> = match (&spec.input, retry_possible) {
            (crate::job::JobInput::Trace(trace), true) => Some(snapshot_times(trace)),
            _ => None,
        };
        let init = &spec.init;
        let fin = spec.fin.as_deref();
        let lmin = &*spec.lmin;
        let pipeline = &spec.pipeline;
        let frame_sink = spec.frame_sink.clone();
        let input = &mut spec.input;
        let result = catch_unwind(AssertUnwindSafe(|| match input {
            crate::job::JobInput::Trace(trace) => {
                synchronize_with_cancel(trace, init, fin, lmin, pipeline, &cancel).map(
                    |report| {
                        // Move the corrected trace out; the ticket keeps an
                        // empty husk (the job is finished either way).
                        let done = std::mem::replace(trace, tracefmt::Trace::for_ranks(0));
                        (done, report, Vec::new())
                    },
                )
            }
            crate::job::JobInput::Stream(chunks) => synchronize_stream_with_cancel(
                chunks.iter().map(|c| c.as_slice()),
                init,
                fin,
                lmin,
                pipeline,
                &cancel,
            )
            .map(|(trace, report)| (trace, report, Vec::new())),
            crate::job::JobInput::StreamIncremental {
                chunks,
                window_events,
            } => {
                let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
                match frame_sink.as_deref() {
                    // A sink (the network layer) takes the corrected frames
                    // as they are sealed; nothing is collected in memory.
                    Some(sink) => synchronize_stream_incremental_with_sink(
                        &refs,
                        init,
                        fin,
                        lmin,
                        pipeline,
                        *window_events,
                        &cancel,
                        sink,
                    )
                    .map(|inc| {
                        (tracefmt::Trace::for_ranks(0), inc.to_pipeline_report(), Vec::new())
                    }),
                    None => synchronize_stream_incremental_with_cancel(
                        &refs,
                        init,
                        fin,
                        lmin,
                        pipeline,
                        *window_events,
                        &cancel,
                    )
                    // The corrected output IS the frames; the empty trace is
                    // documented on `JobSuccess::trace`.
                    .map(|(frames, inc)| {
                        (tracefmt::Trace::for_ranks(0), inc.to_pipeline_report(), frames)
                    }),
                }
            }
        }));
        match result {
            Ok(Ok((trace, report, frames))) => AttemptOutcome::Done(Box::new(JobSuccess {
                trace,
                report,
                frames,
                attempts: self.attempts,
                queue_wait: self.queue_wait,
                run_time: shared.runtime.now().saturating_sub(t0),
            })),
            Ok(Err(PipelineError::Cancelled)) => {
                // Disambiguate: an armed flag means the submitter (or an
                // injected fault acting as one) cancelled; otherwise the
                // deadline tripped the token.
                if self.ticket.state.cancel.load(Ordering::Relaxed) {
                    AttemptOutcome::Terminal(JobError::Cancelled)
                } else {
                    AttemptOutcome::Terminal(JobError::DeadlineExceeded)
                }
            }
            Ok(Err(err)) => {
                self.rollback(snapshot);
                AttemptOutcome::Retryable(JobError::Pipeline(err))
            }
            Err(payload) => {
                self.rollback(snapshot);
                shared.metrics.inc(Counter::JobPanics);
                let msg = panic_message(payload.as_ref());
                AttemptOutcome::Retryable(JobError::Panicked(msg))
            }
        }
    }

    /// Undo a failed in-place attempt so the retry starts from the
    /// submitted timestamps, bit for bit.
    fn rollback(&mut self, snapshot: Option<Vec<Vec<Time>>>) {
        if let (Some(snap), crate::job::JobInput::Trace(trace)) =
            (snapshot, &mut self.ticket.spec.input)
        {
            restore_times(trace, &snap);
        }
    }
}

/// Per-timeline timestamp copy — the only state the pipeline mutates.
fn snapshot_times(trace: &tracefmt::Trace) -> Vec<Vec<Time>> {
    trace
        .procs
        .iter()
        .map(|p| p.events.iter().map(|e| e.time).collect())
        .collect()
}

fn restore_times(trace: &mut tracefmt::Trace, snap: &[Vec<Time>]) {
    debug_assert_eq!(trace.procs.len(), snap.len());
    for (proc, times) in trace.procs.iter_mut().zip(snap) {
        debug_assert_eq!(proc.events.len(), times.len());
        for (event, &t) in proc.events.iter_mut().zip(times) {
            event.time = t;
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
    use std::sync::Arc;
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

    fn spec(input: JobInput) -> JobSpec {
        let (_, init, fin) = fixture(0);
        JobSpec::new(input, init, Some(fin), lmin(), PipelineConfig::default())
    }

    #[test]
    fn trace_job_matches_the_direct_pipeline_call() {
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
                JobInput::Trace(trace),
                init,
                Some(fin),
                lmin(),
                PipelineConfig::default(),
            ))
            .unwrap();
        let success = handle.wait().expect("job succeeds");
        assert_eq!(success.attempts, 1);
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

    #[test]
    fn poisoned_stream_fails_typed_after_retries() {
        let (trace, ..) = fixture(40);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let poisoned = FaultInjector::new()
            .with(Fault::Truncate { at: bytes.len() / 2 })
            .apply(&chunked(&bytes, 64));

        let service = SyncService::start(ServiceConfig {
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        let handle = service.submit(spec(JobInput::Stream(poisoned))).unwrap();
        let failure = handle.wait().expect_err("poisoned job must fail");
        assert_eq!(failure.attempts, 3);
        assert!(
            matches!(failure.error, JobError::Pipeline(_)),
            "want typed pipeline error, got {:?}",
            failure.error
        );
        let m = service.metrics();
        assert_eq!(m.counter(Counter::Retried), 2);
        assert_eq!(m.counter(Counter::Failed), 1);
        assert_eq!(m.counter(Counter::ServiceCrashes), 0);
        // The budget charge is released once the job is done.
        assert_eq!(m.admitted_bytes, 0);
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
        let service = SyncService::start(ServiceConfig {
            max_retries: 0,
            ..ServiceConfig::default()
        });
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
                    JobInput::Trace(trace),
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

    /// A service whose single executor is pinned down for ~200 ms by a
    /// poisoned job in its retry backoff — long enough to make queue
    /// interactions deterministic.
    fn busy_service(queue_capacity: usize) -> (SyncService, JobHandle) {
        let service = SyncService::start(ServiceConfig {
            executors: 1,
            queue_capacity,
            max_retries: 1,
            retry_backoff: Duration::from_millis(200),
            ..ServiceConfig::default()
        });
        let (trace, ..) = fixture(4);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let poisoned = FaultInjector::new()
            .with(Fault::Truncate { at: bytes.len() - 3 })
            .apply(&chunked(&bytes, 64));
        let busy = service.submit(spec(JobInput::Stream(poisoned))).unwrap();
        // Wait until the executor has actually taken the job off the queue.
        while service.metrics().queue_depth > 0 {
            std::thread::yield_now();
        }
        (service, busy)
    }

    #[test]
    fn cancelled_queued_job_never_runs() {
        let (service, busy) = busy_service(8);
        let (trace, init, fin) = fixture(10);
        let handle = service
            .submit(JobSpec::new(
                JobInput::Trace(trace),
                init,
                Some(fin),
                lmin(),
                PipelineConfig::default(),
            ))
            .unwrap();
        handle.cancel();
        let failure = handle.wait().expect_err("cancelled job must fail");
        assert!(matches!(failure.error, JobError::Cancelled));
        assert_eq!(failure.attempts, 0);
        assert_eq!(service.metrics().counter(Counter::Cancelled), 1);
        let _ = busy.wait();
        service.shutdown();
    }

    #[test]
    fn full_queue_and_tiny_budget_reject_typed() {
        let (service, busy) = busy_service(1);
        // One job fits the queue...
        let q1 = service.submit(spec(JobInput::Trace(fixture(2).0))).unwrap();
        // ...the next bounces.
        match service.submit(spec(JobInput::Trace(fixture(2).0))) {
            Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 1),
            other => panic!("want QueueFull, got {:?}", other.err()),
        }
        assert_eq!(service.metrics().counter(Counter::RejectedQueueFull), 1);
        let _ = busy.wait();
        let _ = q1.wait();
        service.shutdown();

        let tiny = SyncService::start(ServiceConfig {
            memory_budget_bytes: 1,
            ..ServiceConfig::default()
        });
        match tiny.submit(spec(JobInput::Trace(fixture(2).0))) {
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
        let (service, busy) = busy_service(8);
        let queued = service.submit(spec(JobInput::Trace(fixture(2).0))).unwrap();
        service.shutdown_now();
        let failure = queued.wait().expect_err("queued job must be failed");
        assert!(matches!(failure.error, JobError::Shutdown));
        let _ = busy.wait();
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        let (service, busy) = busy_service(8);
        let low = service
            .submit(spec(JobInput::Trace(fixture(2).0)).with_priority(Priority::Low))
            .unwrap();
        let high = service
            .submit(spec(JobInput::Trace(fixture(2).0)).with_priority(Priority::High))
            .unwrap();
        let _ = busy.wait();
        let high_out = high.wait().expect("high-priority job succeeds");
        let low_out = low.wait().expect("low-priority job succeeds");
        // Single executor: the high job must have been picked first, i.e.
        // it waited strictly less than the later-submitted low job.
        assert!(high_out.queue_wait <= low_out.queue_wait);
        service.shutdown();
    }
}
