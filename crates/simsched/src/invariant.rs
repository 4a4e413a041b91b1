//! What must be true of the service, at every step and at quiescence.
//!
//! Per-step invariants are cheap accounting checks run after every
//! scheduling decision: the metrics gauges must agree with the ground
//! truth read under the queue lock, never go negative, and never exceed
//! the configured budget, and the admitted-job population must be
//! conserved across queue, executors, and terminal counters.
//!
//! Quiescence invariants run once everything is drained: no job may be
//! lost or double-counted, observed scheduler events must reconcile with
//! the counters, and — the strongest check — every job that *completed*
//! must be bit-identical to running the same input through the pipeline
//! directly, faults and all, while every pipeline *failure* must match
//! the direct call's error kind. The service adds scheduling, never
//! arithmetic; this is where that claim is enforced under chaos.

use crate::workload::WorkItem;
use clocksync::{
    synchronize_stream, synchronize_stream_incremental, CancelToken, PipelineError,
};
use syncd::{Counter, JobError, JobInput, JobOutcome, JobSpec, MetricsSnapshot};
use tracefmt::Trace;

/// One invariant violation: where the run was and what broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Scheduling step at which the check failed (steps count applied
    /// decisions; drain steps keep counting).
    pub step: usize,
    /// Human-readable description of the broken invariant.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}", self.step, self.message)
    }
}

/// Service state read outside the metrics registry (under the queue
/// lock), for cross-checking the gauges.
pub struct GroundTruth {
    /// Bytes currently charged against the budget.
    pub admitted_bytes: u64,
    /// Jobs currently queued.
    pub queue_len: usize,
    /// Jobs currently held by executors (dispatched, not yet run).
    pub held_jobs: usize,
    /// The configured memory budget.
    pub budget: u64,
    /// Number of logical executors.
    pub executors: usize,
}

/// The cheap per-step checks. Returns the first broken invariant.
pub fn check_step(m: &MetricsSnapshot, truth: &GroundTruth) -> Option<String> {
    if m.admitted_bytes < 0 {
        return Some(format!("admitted_bytes gauge negative: {}", m.admitted_bytes));
    }
    if m.admitted_bytes as u64 != truth.admitted_bytes {
        return Some(format!(
            "admitted_bytes gauge {} != ground truth {}",
            m.admitted_bytes, truth.admitted_bytes
        ));
    }
    if truth.admitted_bytes > truth.budget {
        return Some(format!(
            "budget exceeded: {} admitted > {} budget",
            truth.admitted_bytes, truth.budget
        ));
    }
    if m.queue_depth < 0 || m.queue_depth as usize != truth.queue_len {
        return Some(format!(
            "queue_depth gauge {} != ground truth {}",
            m.queue_depth, truth.queue_len
        ));
    }
    if m.running_jobs < 0 || m.running_jobs as usize != truth.held_jobs {
        return Some(format!(
            "running gauge {} != executors holding jobs {}",
            m.running_jobs, truth.held_jobs
        ));
    }
    if m.running_jobs as usize > truth.executors {
        return Some(format!(
            "running gauge {} exceeds executor count {}",
            m.running_jobs, truth.executors
        ));
    }
    let accepted = m.counter(Counter::Accepted);
    let settled = m.counter(Counter::Completed) + m.counter(Counter::Failed);
    let in_flight = (truth.queue_len + truth.held_jobs) as u64;
    if accepted != settled + in_flight {
        return Some(format!(
            "job conservation broken: accepted {accepted} != settled {settled} + in-flight {in_flight}"
        ));
    }
    if m.counter(Counter::ServiceCrashes) != 0 {
        return Some("a panic escaped attempt isolation (ServiceCrashes != 0)".to_string());
    }
    None
}

/// Scheduler-event tallies the harness observed, reconciled against the
/// metrics counters at quiescence.
pub struct ObservedEvents {
    /// Crash faults actually delivered at a pipeline checkpoint.
    pub crashes_delivered: u64,
}

/// Everything the checker tracked about one submitted job.
pub struct TrackedOutcome<'a> {
    /// The workload item the job came from.
    pub item: &'a WorkItem,
    /// The job's resolved outcome (`None` = lost job, itself a violation).
    pub outcome: Option<JobOutcome>,
    /// Whether the job had a deadline.
    pub had_deadline: bool,
    /// Whether anyone (submitter decision or injected fault) requested
    /// cancellation.
    pub cancel_requested: bool,
    /// Crash faults delivered while this job was being attempted.
    pub crashes: u64,
}

/// What a direct pipeline call on the identical input produces.
pub enum Oracle {
    /// The pipeline succeeds with this corrected trace.
    Success(Box<Trace>),
    /// The pipeline fails with this error kind.
    Error(&'static str),
}

/// A stable label for each pipeline error family.
pub fn error_kind(e: &PipelineError) -> &'static str {
    match e {
        PipelineError::BadMeasurements(_) => "bad-measurements",
        PipelineError::BadTrace(_) => "bad-trace",
        PipelineError::Clc(_) => "clc",
        PipelineError::Codec(_) => "codec",
        PipelineError::Cancelled => "cancelled",
        PipelineError::Unsupported(_) => "unsupported",
    }
}

/// Run the job's input through the pipeline directly — no service, no
/// faults, no cancellation.
pub fn run_oracle(spec: &JobSpec) -> Oracle {
    let pipeline = &spec.pipeline;
    let fin = spec.fin.as_deref();
    let lmin = &*spec.lmin;
    let result = match &spec.input {
        JobInput::Stream(chunks) => {
            let chunks = chunks.iter().map(Vec::as_slice);
            synchronize_stream(chunks, &spec.init, fin, lmin, pipeline, &CancelToken::none())
                .map(|(trace, _)| trace)
        }
        JobInput::StreamIncremental { chunks, window_events } => {
            let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
            synchronize_stream_incremental(&refs, &spec.init, fin, lmin, pipeline, *window_events)
                // The oracle compares *traces*, so decode the emitted frames
                // the same way the checker decodes the job's frames below.
                .and_then(|(frames, _)| {
                    tracefmt::io::from_binary_columnar(frames.concat().into())
                        .map_err(PipelineError::Codec)
                })
        }
    };
    match result {
        Ok(trace) => Oracle::Success(Box::new(trace)),
        Err(e) => Oracle::Error(error_kind(&e)),
    }
}

pub(crate) fn traces_identical(a: &Trace, b: &Trace) -> bool {
    a.procs.len() == b.procs.len()
        && a.procs.iter().zip(&b.procs).all(|(p, q)| {
            p.events.len() == q.events.len()
                && p.events.iter().zip(&q.events).all(|(x, y)| x.time == y.time)
        })
}

/// Check one resolved job against its oracle and its fault history.
/// Returns the first broken invariant.
pub fn check_job(id: u64, t: &TrackedOutcome<'_>) -> Option<String> {
    let outcome = match &t.outcome {
        Some(o) => o,
        None => return Some(format!("job {id} lost: submitted but never resolved")),
    };
    match outcome {
        Ok(success) => {
            // An incremental job's corrected output is its emitted frames;
            // decode them so the same trace comparison applies.
            let got = match &t.item.spec.input {
                JobInput::StreamIncremental { .. } => {
                    match tracefmt::io::from_binary_columnar(success.frames.concat().into()) {
                        Ok(trace) => trace,
                        Err(e) => {
                            return Some(format!(
                                "job {id} completed but its emitted frames do not decode: {e}"
                            ));
                        }
                    }
                }
                _ => success.trace.clone(),
            };
            match run_oracle(&t.item.spec) {
                Oracle::Success(direct) => {
                    if !traces_identical(&got, &direct) {
                        return Some(format!(
                            "job {id} completed but its trace differs from the direct pipeline call"
                        ));
                    }
                }
                Oracle::Error(kind) => {
                    return Some(format!(
                        "job {id} completed but the direct pipeline call fails with {kind}"
                    ));
                }
            }
        }
        Err(failure) => match &failure.error {
            JobError::Pipeline(e) => {
                let got = error_kind(e);
                match run_oracle(&t.item.spec) {
                    Oracle::Error(want) if want == got => {}
                    Oracle::Error(want) => {
                        return Some(format!(
                            "job {id} failed with pipeline error {got} but the direct call fails with {want}"
                        ));
                    }
                    Oracle::Success(_) => {
                        return Some(format!(
                            "job {id} failed with pipeline error {got} but the direct call succeeds"
                        ));
                    }
                }
            }
            JobError::Panicked(_) => {
                if t.crashes == 0 {
                    return Some(format!(
                        "job {id} reported a panic but no crash fault was delivered to it"
                    ));
                }
            }
            JobError::Cancelled => {
                if !t.cancel_requested {
                    return Some(format!(
                        "job {id} reported Cancelled but nobody requested cancellation"
                    ));
                }
            }
            JobError::DeadlineExceeded => {
                if !t.had_deadline {
                    return Some(format!(
                        "job {id} reported DeadlineExceeded but had no deadline"
                    ));
                }
            }
            JobError::Shutdown => {}
        },
    }
    None
}

/// The counter-reconciliation checks at quiescence (job-level checks run
/// separately via [`check_job`]).
pub fn check_quiescence(
    m: &MetricsSnapshot,
    truth: &GroundTruth,
    observed: &ObservedEvents,
) -> Option<String> {
    if truth.queue_len != 0 || truth.held_jobs != 0 {
        return Some(format!(
            "not quiescent: {} queued, {} held",
            truth.queue_len, truth.held_jobs
        ));
    }
    if truth.admitted_bytes != 0 {
        return Some(format!(
            "budget leak: {} bytes still admitted after drain",
            truth.admitted_bytes
        ));
    }
    let accepted = m.counter(Counter::Accepted);
    let settled = m.counter(Counter::Completed) + m.counter(Counter::Failed);
    if accepted != settled {
        return Some(format!(
            "accepted {accepted} != completed+failed {settled} at quiescence"
        ));
    }
    if m.counter(Counter::JobPanics) != observed.crashes_delivered {
        return Some(format!(
            "JobPanics counter {} != delivered crash faults {}",
            m.counter(Counter::JobPanics),
            observed.crashes_delivered
        ));
    }
    if m.counter(Counter::ServiceCrashes) != 0 {
        return Some("a panic escaped attempt isolation (ServiceCrashes != 0)".to_string());
    }
    None
}
