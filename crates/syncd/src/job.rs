//! Job descriptions, outcomes, and the handle a submitter polls.

use clocksync::{OffsetMeasurement, PipelineConfig, PipelineError, PipelineReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tracefmt::{MinLatency, Trace};

/// Opaque job identifier, unique within one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling class. Strict priority between classes, FIFO within one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Dispatched before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Dispatched only when no higher class has work.
    Low,
}

impl Priority {
    /// Number of classes.
    pub const COUNT: usize = 3;
    /// Every class, highest first (dispatch order).
    pub const ALL: [Priority; Priority::COUNT] =
        [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index, highest class first.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// What the job synchronizes: the `DTC3` bytes a tracer wrote, run
/// through the batch or the windowed engine. A trace already in memory is
/// the library's to synchronize ([`clocksync::synchronize`]).
#[derive(Clone)]
pub enum JobInput {
    /// `DTC3` chunks, exactly as they would arrive from a socket or file
    /// reader. The service estimates its memory cost from the block
    /// headers alone before admitting the job.
    Stream(Vec<Vec<u8>>),
    /// `DTC3` chunks run through the incremental windowed engine
    /// ([`clocksync::synchronize_stream_incremental`]): corrected
    /// timestamps come back as re-encoded stream frames in
    /// [`JobSuccess::frames`] instead of a decoded [`Trace`], and the
    /// engine keeps only O(`window_events`) timestamp columns resident.
    StreamIncremental {
        /// The input stream, chunked as it arrived.
        chunks: Vec<Vec<u8>>,
        /// Forward-pass burst and lane-segment width, in events. Must be
        /// at least 1 or the job fails typed.
        window_events: usize,
    },
}

impl JobInput {
    /// A short human label for logs and errors.
    pub fn kind(&self) -> &'static str {
        match self {
            JobInput::Stream(_) => "stream",
            JobInput::StreamIncremental { .. } => "stream-incremental",
        }
    }
}

/// Where a [`JobInput::StreamIncremental`] job's corrected chunks go
/// *while the job runs*: `sink(index, chunk)` once per chunk, with dense
/// indices from 0 (the magic chunk) through the trailer. Returning `false`
/// cancels the job (the network server uses this as the stalled-reader
/// cutoff).
pub type FrameSink = Arc<dyn Fn(u64, &[u8]) -> bool + Send + Sync>;

/// Everything the service needs to run one synchronization job.
///
/// `Clone` is cheap for the shared parts (`lmin` is an `Arc`) but deep for
/// the input; the simulation harness relies on it to run the *identical*
/// input through a direct pipeline call when checking bit-identity.
#[derive(Clone)]
pub struct JobSpec {
    /// The trace's bytes and the engine that runs them.
    pub input: JobInput,
    /// Init offset measurements, one per process.
    pub init: Vec<Option<OffsetMeasurement>>,
    /// Finalize offset measurements (None = align-only interpolation data).
    pub fin: Option<Vec<Option<OffsetMeasurement>>>,
    /// Minimum-latency model for violation checks and the CLC.
    pub lmin: Arc<dyn MinLatency + Send + Sync>,
    /// Pipeline configuration, handed to the pipeline as submitted.
    pub pipeline: PipelineConfig,
    /// Scheduling class.
    pub priority: Priority,
    /// Per-job deadline measured from submission (None = service default).
    pub deadline: Option<Duration>,
    /// Streaming output sink for a [`JobInput::StreamIncremental`] job
    /// (None = corrected chunks accumulate in [`JobSuccess::frames`]).
    /// Ignored by the other job modes.
    pub frame_sink: Option<FrameSink>,
}

impl JobSpec {
    /// A spec with default priority and deadline.
    pub fn new(
        input: JobInput,
        init: Vec<Option<OffsetMeasurement>>,
        fin: Option<Vec<Option<OffsetMeasurement>>>,
        lmin: Arc<dyn MinLatency + Send + Sync>,
        pipeline: PipelineConfig,
    ) -> Self {
        JobSpec {
            input,
            init,
            fin,
            lmin,
            pipeline,
            priority: Priority::default(),
            deadline: None,
            frame_sink: None,
        }
    }

    /// Set the scheduling class.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set a per-job deadline from submission time.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Stream an incremental job's corrected chunks through `sink` while
    /// the job runs instead of accumulating them in the success payload.
    pub fn with_frame_sink(mut self, sink: FrameSink) -> Self {
        self.frame_sink = Some(sink);
        self
    }
}

/// Why a submission was refused at the door (the job never entered the
/// queue; nothing to wait on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// Admitting the job would exceed the service memory budget.
    OverBudget {
        /// Estimated working-set bytes of the rejected job.
        estimated: u64,
        /// Budget headroom at the time of the attempt.
        available: u64,
    },
    /// The service is shutting down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::OverBudget {
                estimated,
                available,
            } => write!(
                f,
                "job needs ~{estimated} bytes but only {available} of the memory budget is free"
            ),
            SubmitError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a job failed. Every variant is terminal: a job runs at most once.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The pipeline returned a typed error.
    Pipeline(PipelineError),
    /// The run panicked (caught; the executor survives); the payload's
    /// message, if any.
    Panicked(String),
    /// The submitter cancelled the job.
    Cancelled,
    /// The job's deadline passed (queued or mid-run).
    DeadlineExceeded,
    /// The service shut down before the job ran.
    Shutdown,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            JobError::Shutdown => write!(f, "service shut down before the job ran"),
        }
    }
}

impl std::error::Error for JobError {}

/// A finished job's payload.
#[derive(Debug, Clone)]
pub struct JobSuccess {
    /// The synchronized trace. Empty for a
    /// [`JobInput::StreamIncremental`] job, whose corrected output is
    /// [`frames`](Self::frames) — the whole point of that mode is that the
    /// trace is never materialized in memory.
    pub trace: Trace,
    /// The pipeline's violation censuses and stats. For an incremental
    /// job the censuses are empty placeholders (that engine skips them);
    /// the stats — including the true `peak_resident_column_bytes`
    /// high-water mark — are real.
    pub report: PipelineReport,
    /// Corrected-stream frames from a [`JobInput::StreamIncremental`]
    /// job: concatenated, they are a well-formed `DTC3` stream.
    /// Empty for the other job modes.
    pub frames: Vec<Vec<u8>>,
    /// Time spent queued before the run.
    pub queue_wait: Duration,
    /// Wall-clock of the run.
    pub run_time: Duration,
}

/// A failed job's post-mortem.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The terminal error.
    pub error: JobError,
}

/// What `JobHandle::wait` returns.
pub type JobOutcome = Result<JobSuccess, JobFailure>;

/// Shared per-job state between the submitter's handle and the executor.
pub(crate) struct JobState {
    pub(crate) id: JobId,
    /// Shared with the pipeline's [`CancelToken`](clocksync::CancelToken),
    /// hence its own `Arc` rather than living inline.
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) done: Mutex<Option<JobOutcome>>,
    pub(crate) cv: Condvar,
}

impl JobState {
    pub(crate) fn new(id: JobId) -> Self {
        JobState {
            id,
            cancel: Arc::new(AtomicBool::new(false)),
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn finish(&self, outcome: JobOutcome) {
        let mut slot = self.done.lock().unwrap_or_else(|e| e.into_inner());
        // First writer wins: an executor result never overwrites the
        // shutdown/cancel outcome already delivered (and vice versa).
        if slot.is_none() {
            *slot = Some(outcome);
        }
        self.cv.notify_all();
    }
}

/// The submitter's side of a job: cancel it, or block for its outcome.
pub struct JobHandle {
    pub(crate) state: Arc<JobState>,
}

impl JobHandle {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.state.id
    }

    /// Request cooperative cancellation. The pipeline stops at its next
    /// stage or chunk checkpoint; `wait` then reports
    /// [`JobError::Cancelled`]. Idempotent; a job that already finished is
    /// unaffected.
    pub fn cancel(&self) {
        self.state.cancel.store(true, Ordering::Relaxed);
    }

    /// A shareable cancellation trigger: calling the returned closure is
    /// equivalent to [`JobHandle::cancel`]. Lets a fault injector (or a
    /// pipeline checkpoint probe) cancel the job without holding the
    /// handle itself.
    pub fn canceller(&self) -> Arc<dyn Fn() + Send + Sync> {
        let flag = Arc::clone(&self.state.cancel);
        Arc::new(move || flag.store(true, Ordering::Relaxed))
    }

    /// Whether the outcome is already available (non-blocking).
    pub fn is_done(&self) -> bool {
        self.state
            .done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// A copy of the outcome if the job already finished (non-blocking,
    /// non-consuming — unlike [`JobHandle::wait`], the outcome stays
    /// available). The simulation harness polls this at quiescence to
    /// assert every submitted job was resolved.
    pub fn peek(&self) -> Option<JobOutcome> {
        self.state
            .done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Block until the job finishes or `timeout` passes, whichever is
    /// first; returns whether the outcome is available. Wakes on the
    /// executor's completion notify, so a finishing job is observed in
    /// microseconds rather than a poll interval — the network layer's
    /// result loop leans on this to keep job completion off any polling
    /// cadence.
    pub fn wait_for(&self, timeout: std::time::Duration) -> bool {
        let slot = self.state.done.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            return true;
        }
        let (slot, _timed_out) = self
            .state
            .cv
            .wait_timeout(slot, timeout)
            .unwrap_or_else(|e| e.into_inner());
        slot.is_some()
    }

    /// Block until the job finishes and take its outcome.
    pub fn wait(self) -> JobOutcome {
        let mut slot = self.state.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .state
                .cv
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_indices_are_dense_and_ordered() {
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(Priority::High.index() < Priority::Normal.index());
        assert!(Priority::Normal.index() < Priority::Low.index());
    }

    #[test]
    fn finish_is_first_writer_wins_and_wait_takes_it() {
        let state = Arc::new(JobState::new(JobId(7)));
        state.finish(Err(JobFailure { error: JobError::Cancelled }));
        state.finish(Err(JobFailure { error: JobError::Shutdown }));
        let handle = JobHandle {
            state: Arc::clone(&state),
        };
        assert!(handle.is_done());
        match handle.wait() {
            Err(f) => assert!(matches!(f.error, JobError::Cancelled)),
            Ok(_) => panic!("expected failure"),
        }
    }
}
