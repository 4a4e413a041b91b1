//! The service's observability layer: a lock-cheap registry of counters,
//! gauges and latency histograms, aggregated per-stage throughput folded
//! from every completed job's [`PipelineStats`], and a text exporter.
//!
//! Counters and gauges are plain atomics; the latency histograms are
//! fixed arrays of atomic buckets (one relaxed `fetch_add` per
//! observation). The only lock in the registry guards the per-stage
//! totals map, taken once per *completed job* — never on a per-event or
//! per-probe path — so the hot paths of the service never contend.
//!
//! [`PipelineStats`]: clocksync::PipelineStats

use clocksync::{PipelineStats, StageTotals};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The service's monotonically increasing event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Jobs admitted into the submission queue.
    Accepted,
    /// Submissions bounced because the queue was at capacity.
    RejectedQueueFull,
    /// Submissions bounced by the memory-budget admission check.
    RejectedOverBudget,
    /// Submissions bounced because the stream input was malformed in a way
    /// the header scan already proves fatal (mixed DTC2/DTC3 versions).
    RejectedMalformed,
    /// Jobs that finished successfully.
    Completed,
    /// Jobs that exhausted their retries (or failed terminally).
    Failed,
    /// Retry attempts (a job retried twice counts two).
    Retried,
    /// Jobs cancelled by their submitter.
    Cancelled,
    /// Jobs stopped because their deadline passed.
    DeadlineExceeded,
    /// Job attempts that panicked (caught; the job was isolated).
    JobPanics,
    /// Executor threads lost to an escaped panic. Stays 0 unless fault
    /// isolation itself failed — the CI smoke test asserts on it.
    ServiceCrashes,
    /// Network connections accepted (handshake completed).
    NetConnections,
    /// Connections refused at the handshake (bad token, bad magic,
    /// version mismatch, or a tenant over its connection quota).
    NetAuthFailures,
    /// Jobs submitted over the network that reached admission.
    NetJobs,
    /// Connections that ended with a protocol violation or a mid-job
    /// client disconnect (every admission charge they held was released).
    NetDisconnects,
    /// Connection reads that consumed bytes without completing a frame
    /// (a frame larger than one read, or a peer that trickles).
    NetPartialReads,
    /// Connection reads on which the transport had no byte to give
    /// ([`ReadOutcome::Idle`]).
    ///
    /// [`ReadOutcome::Idle`]: crate::net::ReadOutcome::Idle
    NetIdleReads,
    /// Idle back-offs connections took (a sleep, or a park on the running
    /// job's handle). Only an idle read may be followed by one, so
    /// `NetIdleSleeps <= NetIdleReads` always.
    NetIdleSleeps,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 18] = [
        Counter::Accepted,
        Counter::RejectedQueueFull,
        Counter::RejectedOverBudget,
        Counter::RejectedMalformed,
        Counter::Completed,
        Counter::Failed,
        Counter::Retried,
        Counter::Cancelled,
        Counter::DeadlineExceeded,
        Counter::JobPanics,
        Counter::ServiceCrashes,
        Counter::NetConnections,
        Counter::NetAuthFailures,
        Counter::NetJobs,
        Counter::NetDisconnects,
        Counter::NetPartialReads,
        Counter::NetIdleReads,
        Counter::NetIdleSleeps,
    ];

    /// The exporter name of this counter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Accepted => "syncd_jobs_accepted_total",
            Counter::RejectedQueueFull => "syncd_jobs_rejected_total{reason=\"queue_full\"}",
            Counter::RejectedOverBudget => "syncd_jobs_rejected_total{reason=\"over_budget\"}",
            Counter::RejectedMalformed => "syncd_jobs_rejected_total{reason=\"malformed\"}",
            Counter::Completed => "syncd_jobs_completed_total",
            Counter::Failed => "syncd_jobs_failed_total",
            Counter::Retried => "syncd_jobs_retried_total",
            Counter::Cancelled => "syncd_jobs_cancelled_total",
            Counter::DeadlineExceeded => "syncd_jobs_deadline_exceeded_total",
            Counter::JobPanics => "syncd_job_panics_total",
            Counter::ServiceCrashes => "syncd_service_crashes_total",
            Counter::NetConnections => "syncd_net_connections_total",
            Counter::NetAuthFailures => "syncd_net_auth_failures_total",
            Counter::NetJobs => "syncd_net_jobs_total",
            Counter::NetDisconnects => "syncd_net_disconnects_total",
            Counter::NetPartialReads => "syncd_net_partial_reads_total",
            Counter::NetIdleReads => "syncd_net_idle_reads_total",
            Counter::NetIdleSleeps => "syncd_net_idle_sleeps_total",
        }
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("counter listed in ALL")
    }
}

/// Number of histogram buckets: bucket `i` counts observations in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1 µs`), so the top
/// bucket's lower bound is ~2^38 µs ≈ 3 days — far beyond any job.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over atomic counters.
///
/// Quantile estimates resolve to the upper bound of the bucket holding
/// the requested rank — at worst a 2× overestimate, which is the right
/// bias for latency SLOs (never under-reports).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one duration.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], cheap to clone and query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations in microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) in seconds: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th observation. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (1u64 << i) as f64 / 1e6;
            }
        }
        (1u64 << (BUCKETS - 1)) as f64 / 1e6
    }

    /// Mean observation in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1e6
        }
    }
}

/// The live registry the service writes into. Shared as an `Arc`; every
/// mutator takes `&self`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::ALL.len()],
    queue_depth: AtomicI64,
    running_jobs: AtomicI64,
    admitted_bytes: AtomicI64,
    job_latency: Histogram,
    queue_wait: Histogram,
    stages: Mutex<BTreeMap<&'static str, StageTotals>>,
}

impl MetricsRegistry {
    /// Fresh, all-zero registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment `c` by one.
    pub fn inc(&self, c: Counter) {
        self.counters[c.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Increment `c` by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Adjust the queued-jobs gauge.
    pub fn queue_depth_add(&self, d: i64) {
        self.queue_depth.fetch_add(d, Ordering::Relaxed);
    }

    /// Adjust the running-jobs gauge.
    pub fn running_add(&self, d: i64) {
        self.running_jobs.fetch_add(d, Ordering::Relaxed);
    }

    /// Adjust the admitted-bytes gauge (the memory the admission
    /// controller currently accounts to queued + running jobs).
    pub fn admitted_bytes_add(&self, d: i64) {
        self.admitted_bytes.fetch_add(d, Ordering::Relaxed);
    }

    /// Record one finished job's end-to-end latency.
    pub fn observe_job_latency(&self, d: Duration) {
        self.job_latency.observe(d);
    }

    /// Record how long a job sat in the queue before an executor took it.
    pub fn observe_queue_wait(&self, d: Duration) {
        self.queue_wait.observe(d);
    }

    /// Fold one completed run's per-stage stats into the lifetime totals.
    pub fn fold_pipeline_stats(&self, stats: &PipelineStats) {
        let mut stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        stats.fold_stage_totals(&mut stages);
    }

    /// A coherent, cloneable copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            running_jobs: self.running_jobs.load(Ordering::Relaxed),
            admitted_bytes: self.admitted_bytes.load(Ordering::Relaxed),
            job_latency: self.job_latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            stages: self
                .stages
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }
}

/// A point-in-time copy of the whole registry — cloneable, queryable, and
/// renderable as exporter text.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::ALL.len()],
    /// Jobs currently queued.
    pub queue_depth: i64,
    /// Jobs currently executing.
    pub running_jobs: i64,
    /// Bytes the admission controller accounts to queued + running jobs.
    pub admitted_bytes: i64,
    /// End-to-end job latency (submission → completion).
    pub job_latency: HistogramSnapshot,
    /// Queue wait (submission → executor pickup).
    pub queue_wait: HistogramSnapshot,
    /// Lifetime per-stage totals folded from every completed job.
    pub stages: BTreeMap<&'static str, StageTotals>,
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Render every metric in the classic line-oriented exporter format
    /// (`name value`, quantiles and stages as labelled series).
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for c in Counter::ALL {
            let _ = writeln!(out, "{} {}", c.name(), self.counter(c));
        }
        let _ = writeln!(out, "syncd_queue_depth {}", self.queue_depth);
        let _ = writeln!(out, "syncd_jobs_running {}", self.running_jobs);
        let _ = writeln!(out, "syncd_admitted_bytes {}", self.admitted_bytes);
        for (name, h) in [
            ("syncd_job_latency_seconds", &self.job_latency),
            ("syncd_queue_wait_seconds", &self.queue_wait),
        ] {
            for q in [0.5, 0.9, 0.99] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {:.6}", h.quantile(q));
            }
            let _ = writeln!(out, "{name}_count {}", h.count);
            let _ = writeln!(out, "{name}_mean {:.6}", h.mean());
        }
        for (stage, t) in &self.stages {
            let _ = writeln!(
                out,
                "syncd_stage_events_per_sec{{stage=\"{stage}\"}} {:.0}",
                t.items_per_sec()
            );
            let _ = writeln!(
                out,
                "syncd_stage_items_total{{stage=\"{stage}\"}} {}",
                t.items
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_bounding() {
        let h = Histogram::default();
        for ms in [1u64, 2, 4, 8, 100] {
            h.observe(Duration::from_millis(ms));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        // The bucket upper bound never under-reports: p99 >= true max.
        assert!(p99 >= 0.1, "p99 {p99} below the 100ms max observation");
        // And at most 2x over.
        assert!(p99 <= 0.21, "p99 {p99} more than 2x the max observation");
    }

    #[test]
    fn zero_and_huge_observations_stay_in_range() {
        let h = Histogram::default();
        h.observe(Duration::ZERO);
        h.observe(Duration::from_secs(1 << 30));
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.quantile(0.0) >= 0.0);
        assert!(s.quantile(1.0) > 0.0);
    }

    #[test]
    fn counters_and_gauges_round_trip_through_snapshot() {
        let m = MetricsRegistry::new();
        m.inc(Counter::Accepted);
        m.inc(Counter::Accepted);
        m.inc(Counter::Retried);
        m.queue_depth_add(3);
        m.queue_depth_add(-1);
        m.admitted_bytes_add(1024);
        let s = m.snapshot();
        assert_eq!(s.counter(Counter::Accepted), 2);
        assert_eq!(s.counter(Counter::Retried), 1);
        assert_eq!(s.counter(Counter::Failed), 0);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.admitted_bytes, 1024);
    }

    #[test]
    fn exporter_text_carries_the_ci_asserted_series() {
        let m = MetricsRegistry::new();
        m.inc(Counter::Retried);
        let text = m.snapshot().render_text();
        assert!(text.contains("syncd_jobs_retried_total 1"));
        assert!(text.contains("syncd_service_crashes_total 0"));
        assert!(text.contains("syncd_job_latency_seconds{quantile=\"0.99\"}"));
    }
}
