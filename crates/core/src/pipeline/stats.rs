//! Pipeline instrumentation: per-stage item counts and throughput.

use std::collections::BTreeMap;
use std::time::Duration;

/// Instrumentation of one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name (`"match"`, `"census:raw"`, `"presync"`, ...).
    pub name: &'static str,
    /// Work items the stage processed — events for the mapping stages
    /// (`"match"`, `"lower"`, `"presync"`, `"clc"`, `"gather"`/`"ingest"`,
    /// `"scatter"`), messages + logical messages for the censuses.
    /// Streamed runs replace `"gather"` with the `"ingest"` stage recorded
    /// during parsing; both count every event exactly once.
    pub items: usize,
    /// Wall-clock seconds the stage took.
    pub seconds: f64,
    /// Stream blocks the `"ingest"` stage decoded; 1 for every other
    /// stage.
    pub shards: usize,
}

impl StageStats {
    pub(crate) fn new(name: &'static str, items: usize, took: Duration) -> Self {
        StageStats {
            name,
            items,
            seconds: took.as_secs_f64(),
            shards: 1,
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
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
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
            "pipeline: {:.3}s total, peak columns {} B\n",
            self.total_seconds, self.peak_resident_column_bytes
        );
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<16} {:>10} items  {:>12.0} items/s\n",
                s.name, s.items, s.items_per_sec()
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
        let mut stats = PipelineStats::default();
        stats.stages.push(StageStats::new("match", 1000, Duration::from_millis(10)));
        stats.stages.push(StageStats::new("presync", 5000, Duration::from_millis(20)));
        let m = stats.stage("match").unwrap();
        assert!((m.items_per_sec() - 100_000.0).abs() < 1.0);
        assert_eq!(stats.stage("presync").unwrap().items, 5000);
        assert!(stats.stage("nope").is_none());
        // The rate is the fourth field of a stage row; scripts/ci.sh reads
        // it there.
        let table = stats.render();
        let row = table.lines().find(|l| l.contains("presync")).unwrap();
        assert_eq!(row.split_whitespace().nth(3), Some("250000"));
    }

    #[test]
    fn zero_time_stage_reports_zero_throughput() {
        let s = StageStats::new("census:raw", 10, Duration::ZERO);
        assert_eq!(s.items_per_sec(), 0.0);
    }
}
