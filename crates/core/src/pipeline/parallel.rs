//! Sharded execution of the pipeline's per-rank stages.
//!
//! The unit of work is a *shard*: a contiguous chunk of one process
//! timeline (for timestamp mapping) or of the matched-message / collective
//! lists (for the censuses). Shards are striped over a pool of scoped
//! worker threads; results flow back over a crossbeam channel tagged with
//! their shard index, and the merge side reassembles them **in shard
//! order** — which is exactly sequential order, so the merged outcome is
//! bit-identical to the sequential run. The only synchronisation is the
//! result channel itself; workers never contend on a lock.

use super::{PresyncMap, StageReport, TraceAnalysis};
use std::time::{Duration, Instant};
use tracefmt::{
    assemble_collective_instances, collect_collective_calls, group_calls_by_comm, CensusPlan,
    CollReport, MessageMatcher, P2pReport, Trace, TraceColumns,
};

/// Worker-pool configuration for the parallel pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (0 or 1 = one worker; results are identical for any
    /// value, only wall-clock changes).
    pub workers: usize,
    /// Events (or census items) per shard. Smaller shards balance load
    /// better; larger shards amortise dispatch. The default of 8192 keeps
    /// shards around L2-cache size for typical event records.
    pub shard_size: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            shard_size: 8192,
        }
    }
}

impl ParallelConfig {
    /// Default shard size with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers,
            ..ParallelConfig::default()
        }
    }

    /// The worker count actually used (at least one).
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    fn effective_shard_size(&self) -> usize {
        self.shard_size.max(1)
    }
}

/// Outcome of one sharded run.
struct ShardRun<R> {
    /// Per-shard results, in shard order.
    results: Vec<R>,
    /// Number of shards executed.
    shards: usize,
    /// Time the merge side spent blocked on the result channel.
    merge_wait: Duration,
}

/// Stripe `jobs` over `workers` scoped threads and collect results back in
/// shard order. `work` must be a pure function of its job — the pool
/// guarantees nothing about execution order across workers.
fn run_sharded<J, R>(
    jobs: Vec<J>,
    workers: usize,
    work: impl Fn(J) -> R + Sync,
) -> ShardRun<R>
where
    J: Send,
    R: Send,
{
    let n_jobs = jobs.len();
    if n_jobs == 0 {
        return ShardRun {
            results: Vec::new(),
            shards: 0,
            merge_wait: Duration::ZERO,
        };
    }
    let workers = workers.max(1).min(n_jobs);

    let (tx, rx) = crossbeam::channel::unbounded::<(usize, R)>();
    std::thread::scope(|s| {
        let work = &work;
        // Striped assignment: worker w takes jobs w, w+workers, ... Shards
        // are uniform by construction, so striping balances the pool
        // without a shared queue.
        let mut stripes: Vec<Vec<(usize, J)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            stripes[i % workers].push((i, job));
        }
        for stripe in stripes {
            let tx = tx.clone();
            s.spawn(move || {
                for (i, job) in stripe {
                    // A send fails only if the merge side is gone, which
                    // cannot happen inside this scope.
                    let _ = tx.send((i, work(job)));
                }
            });
        }
        drop(tx);

        // Merge: reassemble results in shard index order, timing how long
        // this side blocks on the channel.
        let mut slots: Vec<Option<R>> = (0..n_jobs).map(|_| None).collect();
        let mut merge_wait = Duration::ZERO;
        for _ in 0..n_jobs {
            let t0 = Instant::now();
            let (i, r) = rx.recv().expect("worker pool alive");
            merge_wait += t0.elapsed();
            slots[i] = Some(r);
        }
        ShardRun {
            results: slots
                .into_iter()
                .map(|r| r.expect("every shard reported"))
                .collect(),
            shards: n_jobs,
            merge_wait,
        }
    })
}

/// Apply the per-process presync maps to the dense picosecond columns,
/// sharded into per-timeline `&mut [i64]` chunks of `shard_size` events,
/// each mapped in place. Returns `(events mapped, shards, merge wait)`; the
/// event count is summed from per-shard results, so it doubles as the
/// shard-accounting check.
pub(super) fn apply_maps_sharded_cols(
    cols: &mut TraceColumns,
    maps: &[PresyncMap],
    cfg: &ParallelConfig,
) -> (usize, usize, Duration) {
    let shard_size = cfg.effective_shard_size();
    let mut jobs: Vec<(usize, &mut [i64])> = Vec::new();
    for (p, col) in cols.iter_mut_slices() {
        for chunk in col.chunks_mut(shard_size) {
            jobs.push((p, chunk));
        }
    }
    let run = run_sharded(jobs, cfg.effective_workers(), |(p, chunk): (usize, &mut [i64])| {
        maps[p].map_col(chunk);
        chunk.len()
    });
    (run.results.iter().sum(), run.shards, run.merge_wait)
}

/// Reconstruct the communication structure of `trace` with the per-rank
/// scans sharded over the worker pool: a [`run_sharded`] round of
/// per-timeline scans (flat send/receive records, collective calls per
/// communicator), one [`MessageMatcher::finish`] over the records
/// concatenated in timeline order — exactly what the sequential scan
/// feeds — and a second round zipping each communicator's call lists into
/// [`CollectiveInstance`]s, in communicator order.
///
/// Returns the analysis plus `(shards, merge wait)` summed over the
/// rounds. Output and error strings are identical to
/// [`TraceAnalysis::capture`] — merges walk results in job order, so the
/// first error in timeline or communicator order wins exactly as
/// sequentially.
pub(super) fn capture_analysis_sharded(
    trace: &Trace,
    cfg: &ParallelConfig,
) -> Result<(TraceAnalysis, usize, Duration), String> {
    let workers = cfg.effective_workers();
    let scans = run_sharded((0..trace.n_procs()).collect(), workers, |p| {
        let pt = &trace.procs[p];
        let mut records = MessageMatcher::new();
        for (i, e) in pt.events.iter().enumerate() {
            records.feed(pt.location.rank, p, i, &e.kind);
        }
        (records, collect_collective_calls(trace, p))
    });
    let mut matcher = MessageMatcher::new();
    let mut per_timeline = Vec::with_capacity(scans.results.len());
    for (records, calls) in scans.results {
        matcher.append(records);
        per_timeline.push(calls?);
    }

    let by_comm = group_calls_by_comm(per_timeline);
    let assembly = run_sharded(by_comm.iter().collect(), workers, |(&comm, lists)| {
        assemble_collective_instances(comm, lists)
    });
    let mut instances = Vec::new();
    for r in assembly.results {
        instances.extend(r?);
    }

    let analysis = TraceAnalysis { matching: matcher.finish(), instances };
    Ok((analysis, scans.shards + assembly.shards, scans.merge_wait + assembly.merge_wait))
}

enum CensusOut {
    P2p(P2pReport),
    Coll(CollReport),
}

/// Run both violation censuses over a frozen [`CensusPlan`], sharded by
/// index range into the plan's message and instance lists, with the plan's
/// chunked branchless kernels per range. Returns the merged stage report
/// plus `(items, shards, merge wait)` instrumentation. Shards are merged in
/// list order, so the report equals the sequential planned census bit for
/// bit.
pub(super) fn census_sharded_planned(
    plan: &CensusPlan,
    flat: &[i64],
    cfg: &ParallelConfig,
) -> (StageReport, usize, usize, Duration) {
    let shard_size = cfg.effective_shard_size();
    enum RangeJob {
        P2p(usize, usize),
        Coll(usize, usize),
    }
    let mut jobs: Vec<RangeJob> = Vec::new();
    let mut lo = 0usize;
    while lo < plan.n_messages() {
        let hi = (lo + shard_size).min(plan.n_messages());
        jobs.push(RangeJob::P2p(lo, hi));
        lo = hi;
    }
    let mut lo = 0usize;
    while lo < plan.n_instances() {
        let hi = (lo + shard_size).min(plan.n_instances());
        jobs.push(RangeJob::Coll(lo, hi));
        lo = hi;
    }

    let run = run_sharded(jobs, cfg.effective_workers(), |job| match job {
        RangeJob::P2p(lo, hi) => CensusOut::P2p(plan.p2p_census_range(flat, lo, hi)),
        RangeJob::Coll(lo, hi) => CensusOut::Coll(plan.collective_census_range(flat, lo, hi)),
    });

    let mut p2p = P2pReport::default();
    let mut coll = CollReport::default();
    let mut items = 0usize;
    for out in run.results {
        match out {
            CensusOut::P2p(r) => {
                items += r.total;
                p2p.merge(r);
            }
            CensusOut::Coll(r) => {
                items += r.instances;
                coll.merge(r);
            }
        }
    }
    (StageReport { p2p, coll }, items, run.shards, run.merge_wait)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sharded_preserves_order() {
        for workers in [1, 2, 7, 32] {
            let jobs: Vec<usize> = (0..100).collect();
            let run = run_sharded(jobs, workers, |j| j * 2);
            assert_eq!(run.shards, 100);
            assert_eq!(run.results, (0..100).map(|j| j * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_sharded_empty_jobs() {
        let run = run_sharded(Vec::<usize>::new(), 4, |j| j);
        assert_eq!(run.shards, 0);
        assert!(run.results.is_empty());
        assert_eq!(run.merge_wait, Duration::ZERO);
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        // More workers than jobs must not panic or lose results.
        let run = run_sharded(vec![10usize, 20], 16, |j| j + 1);
        assert_eq!(run.results, vec![11, 21]);
    }

    #[test]
    fn parallel_config_defaults() {
        let cfg = ParallelConfig::default();
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.shard_size, 8192);
        assert_eq!(ParallelConfig { workers: 0, shard_size: 0 }.effective_workers(), 1);
        assert_eq!(ParallelConfig { workers: 0, shard_size: 0 }.effective_shard_size(), 1);
        assert_eq!(ParallelConfig::with_workers(3).workers, 3);
    }
}
