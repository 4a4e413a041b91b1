//! Pipeline instrumentation: per-stage throughput, shard accounting, and
//! merge wait times.

use std::collections::BTreeMap;
use std::time::Duration;

/// Instrumentation of one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name (`"match"`, `"census:raw"`, `"presync"`, ...).
    pub name: &'static str,
    /// Work items the stage processed — events for the mapping stages
    /// (`"match"`, `"lower"`, `"presync"`, `"clc"`, `"gather"`/`"ingest"`,
    /// `"scatter"`), messages + logical messages for the censuses. For
    /// sharded stages this is the *sum of per-shard counts*, so it doubles
    /// as the shard accounting check: it must equal the sequential item
    /// count. Streamed runs replace `"gather"` with the `"ingest"` stage
    /// recorded during parsing; both count every event exactly once.
    pub items: usize,
    /// Wall-clock seconds the stage took.
    pub seconds: f64,
    /// Number of shards the work was split into (1 when run sequentially).
    /// For the replay `"clc"` stage this is the worker count — one worker
    /// per process timeline.
    pub shards: usize,
    /// Seconds spent blocked on cross-shard coordination (0 when run
    /// sequentially). For fork/join stages (`"match"`, `"presync"`, the
    /// censuses) this is the time the merging thread waited on shard
    /// results. For the replay `"clc"` stage it is the workers' *summed*
    /// stall time waiting on remote bounds from peer timelines — summed
    /// across concurrent workers, so it can legitimately exceed
    /// [`seconds`](Self::seconds).
    pub merge_wait_seconds: f64,
}

impl StageStats {
    pub(crate) fn sequential(name: &'static str, items: usize, took: Duration) -> Self {
        StageStats {
            name,
            items,
            seconds: took.as_secs_f64(),
            shards: 1,
            merge_wait_seconds: 0.0,
        }
    }

    pub(crate) fn sharded(
        name: &'static str,
        items: usize,
        took: Duration,
        shards: usize,
        merge_wait: Duration,
    ) -> Self {
        StageStats {
            name,
            items,
            seconds: took.as_secs_f64(),
            shards,
            merge_wait_seconds: merge_wait.as_secs_f64(),
        }
    }

    /// Stage throughput in items per second (0 when the stage was too fast
    /// to time).
    pub fn items_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.items as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Cumulative item/time totals of one stage across many pipeline runs
/// (see [`PipelineStats::fold_stage_totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    /// Items processed across all folded runs.
    pub items: u64,
    /// Wall-clock seconds across all folded runs.
    pub seconds: f64,
}

impl StageTotals {
    /// Aggregate throughput in items per second (0 when no time accrued).
    pub fn items_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.items as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Instrumentation of a whole [`synchronize`](crate::synchronize) run.
///
/// Collected on both the sequential and the parallel path, so the two can
/// be compared directly; on the sequential path every stage reports one
/// shard and zero merge wait.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Worker threads used (1 = sequential).
    pub workers: usize,
    /// Per-stage instrumentation, in execution order.
    pub stages: Vec<StageStats>,
    /// Wall-clock seconds for the whole pipeline.
    pub total_seconds: f64,
    /// Peak bytes of timestamp column slabs resident at once. The batch
    /// driver gathers every timeline's `i64` lane up front, so this is
    /// `8 × n_events`; the incremental windowed engine retires segments as
    /// their finalization horizon clears and reports its true high-water
    /// mark, which stays O(window) as the trace grows.
    pub peak_resident_column_bytes: u64,
}

impl PipelineStats {
    /// Look up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Total shards across all stages.
    pub fn total_shards(&self) -> usize {
        self.stages.iter().map(|s| s.shards).sum()
    }

    /// Fold this run's stages into cumulative per-stage totals, keyed by
    /// stage name. A long-running service calls this once per completed
    /// job to maintain aggregate per-stage throughput (events/sec over the
    /// service's lifetime) without retaining every report.
    pub fn fold_stage_totals(&self, totals: &mut BTreeMap<&'static str, StageTotals>) {
        for s in &self.stages {
            let t = totals.entry(s.name).or_default();
            t.items += s.items as u64;
            t.seconds += s.seconds;
        }
    }

    /// Render a compact per-stage table (used by the experiments binary).
    pub fn render(&self) -> String {
        let mut out = format!(
            "pipeline: {} worker(s), {:.3}s total, peak columns {} B\n",
            self.workers, self.total_seconds, self.peak_resident_column_bytes
        );
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<16} {:>10} items  {:>8} shards  {:>12.0} items/s  merge wait {:.4}s\n",
                s.name, s.items, s.shards, s.items_per_sec(), s.merge_wait_seconds
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_lookup() {
        let mut stats = PipelineStats {
            workers: 4,
            ..PipelineStats::default()
        };
        stats.stages.push(StageStats::sequential("match", 1000, Duration::from_millis(10)));
        stats.stages.push(StageStats::sharded(
            "presync",
            5000,
            Duration::from_millis(20),
            8,
            Duration::from_millis(2),
        ));
        let m = stats.stage("match").unwrap();
        assert!((m.items_per_sec() - 100_000.0).abs() < 1.0);
        assert_eq!(stats.stage("presync").unwrap().shards, 8);
        assert_eq!(stats.total_shards(), 9);
        assert!(stats.stage("nope").is_none());
        assert!(stats.render().contains("presync"));
    }

    #[test]
    fn zero_time_stage_reports_zero_throughput() {
        let s = StageStats::sequential("census:raw", 10, Duration::ZERO);
        assert_eq!(s.items_per_sec(), 0.0);
    }
}
