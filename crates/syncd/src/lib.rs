//! # syncd — a multi-tenant trace-synchronization service
//!
//! Everything below this crate is a *library*: you hand
//! [`clocksync::synchronize`] one trace and get one corrected trace back.
//! `syncd` turns that library into a long-running **service** that many
//! tenants share. What reaches a service is what a tracer wrote after the
//! run: `DTC3` bytes, in whatever chunks they arrive ([`JobInput`]).
//!
//! * **Admission control** — submissions pass a bounded queue and a
//!   memory budget before anything is decoded. A streamed `DTC3` job's cost
//!   is estimated from its block headers alone
//!   ([`tracefmt::io::estimate_columnar_stream`]), so an over-budget
//!   stream is bounced in microseconds without allocating for it.
//! * **Scheduling** — three strict [`Priority`] classes, FIFO within a
//!   class, dispatched to a fixed pool of executor threads, one job per
//!   thread: `executors` bounds what the service asks of the machine.
//! * **Fault isolation** — every job runs once, under `catch_unwind`; a
//!   poisoned input fails *typed* ([`JobError`]) and cannot take down an
//!   executor or another tenant's job. The failure is terminal: a run is a
//!   deterministic function of the job's owned bytes, so it would fail
//!   again the same way. [`FaultInjector`] produces such inputs
//!   deterministically for tests.
//! * **Cancellation and deadlines** — cooperative, via the pipeline's
//!   [`clocksync::CancelToken`]: [`JobHandle::cancel`] or an expired
//!   per-job deadline stops the run at its next stage or chunk boundary.
//! * **Metrics** — a lock-cheap [`MetricsRegistry`] (atomic counters and
//!   gauges, log₂ latency histograms, per-stage throughput folded from
//!   every job's [`clocksync::PipelineStats`]) exported as a cloneable
//!   [`MetricsSnapshot`] or classic exporter text.
//!
//! The service adds *no* arithmetic of its own: a job's corrected trace
//! is bit-identical to calling the pipeline directly with the same
//! configuration (the differential suite in `tests/syncd_differential.rs`
//! pins this).
//!
//! ```
//! use std::sync::Arc;
//! use syncd::{chunked, JobInput, JobSpec, SyncService};
//! use tracefmt::io::to_binary_columnar_v3;
//! use tracefmt::UniformLatency;
//! use simclock::Dur;
//!
//! let service = SyncService::start_default();
//! // An empty two-rank trace as a tracer would write it, in 4 KiB chunks.
//! let bytes = to_binary_columnar_v3(&tracefmt::Trace::for_ranks(2));
//! // No offset measurements: run the censuses only.
//! let cfg = clocksync::PipelineConfig {
//!     presync: clocksync::PreSync::None,
//!     clc: None,
//!     ..clocksync::PipelineConfig::default()
//! };
//! let spec = JobSpec::new(
//!     JobInput::Stream(chunked(&bytes, 4096)),
//!     vec![None, None],
//!     None,
//!     Arc::new(UniformLatency(Dur::from_us(1))),
//!     cfg,
//! );
//! let handle = service.submit(spec).unwrap();
//! let outcome = handle.wait();
//! assert_eq!(outcome.unwrap().trace.n_procs(), 2);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod net;
pub mod runtime;
pub mod service;
pub mod step;

pub use admission::{estimate_job_cost, JobCost};
pub use fault::{chunked, Fault, FaultInjector};
pub use job::{
    JobError, JobFailure, JobHandle, JobId, JobInput, JobOutcome, JobSpec, JobSuccess,
    Priority, SubmitError,
};
pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use net::{
    NetServer, NetServerConfig, ReadOutcome, ScriptedTransport, TcpTransport, TenantConfig,
    Transport,
};
pub use runtime::{AttemptProbe, RealRuntime, Runtime};
pub use service::{ServiceConfig, SyncService};
pub use step::{StepEvent, StepService};
