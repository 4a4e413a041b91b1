//! The end-to-end synchronisation pipeline the paper recommends (§V/§VI):
//! weak pre-synchronisation by linear offset interpolation, then the CLC to
//! remove residual clock-condition violations.
//!
//! Four drivers run it. [`synchronize`] drives the whole chain on a trace
//! in place and reports violation counts before, after interpolation, and
//! after the CLC — the numbers the constructive experiments print.
//! [`synchronize_stream`] does the same from the `DTC3` bytes a tracer
//! wrote, polling a [`CancelToken`]. The windowed engine streams corrected
//! chunks back out with bounded memory: [`synchronize_stream_incremental`]
//! collects them, [`synchronize_stream_incremental_with_sink`] hands each
//! to a consumer as it finalizes, under a [`CancelToken`]. A service calls
//! the two drivers that take a token, one per engine.
//!
//! # Execution model
//!
//! The stages between the censuses only ever read and write *timestamps*,
//! so the driver gathers them into dense per-timeline [`TraceColumns`]
//! once (streaming ingest hands its decoder's columns over directly), runs
//! pre-synchronisation, the CLC and all censuses over `i64` picosecond
//! columns, and scatters the corrected times back into the event records
//! at the end.
//!
//! A run is single-threaded: one job, one thread, every stage one body.
//! Parallelism lives a level up, as independent jobs on the executors of
//! a `syncd` service (DESIGN §9.2 has the measurements behind that).
//!
//! Cross-stage work is computed once and cached: message matching and
//! collective reconstruction are order-based (timestamps never enter
//! them), so one message table and one collective table, frozen once with
//! their `l_min`, serve every census and the CLC's graph; the `l_min` model
//! is frozen into a dense [`LatencyTable`] up front so later stages never
//! re-query a potentially expensive model.
//!
//! Every run also returns [`PipelineStats`]: per-stage item counts and
//! throughput.

mod stats;
mod windowed;

pub use stats::{PipelineStats, StageStats, StageTotals};
pub use windowed::{
    synchronize_stream_incremental, synchronize_stream_incremental_with_sink, IncrementalReport,
};

use crate::clc::columnar::controlled_logical_clock_columnar_csr;
use crate::clc::graph::DepGraph;
use crate::clc::{ClcError, ClcParams, ClcReport};
use crate::interp::{LinearInterpolation, OffsetAlignment, TimestampMap};
use crate::offset::OffsetMeasurement;
use onlinesync::{KalmanParams, OnlineCorrector};
use simclock::Time;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tracefmt::io::{decode_indexed, index_columnar_chunks, ChunkStore, CodecError};
use tracefmt::{
    Capture, CensusPlan, CollReport, CollTable, CollectiveInstance, LatencyTable, Matching, MinLatency,
    P2pReport, Rank, Trace, TraceColumns,
};

/// Which pre-synchronisation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreSync {
    /// Leave timestamps untouched.
    None,
    /// Offset alignment from the initialization measurement only.
    AlignOnly,
    /// Eq. 3 linear interpolation between the init and finalize
    /// measurements (Scalasca's scheme).
    Linear,
}

/// Which synchronization *method* rewrites the timestamps — the paper's
/// postmortem schemes, or the model-based online corrector.
///
/// The method selects the timestamp-rewriting stages; the censuses around
/// them are method-independent. `Clc` runs the presync stage configured by
/// [`PipelineConfig::presync`]; `Online` replaces it (and the CLC) with the
/// recursive filter correction. Interpolation alone is `Clc` with
/// [`PipelineConfig::clc`] set to `None`.
#[derive(Debug, Clone, Default)]
pub enum SyncMethod {
    /// Postmortem presync followed by the CLC (the default; the CLC stage
    /// runs only when [`PipelineConfig::clc`] is `Some`).
    #[default]
    Clc,
    /// Model-based online correction: one per-pair drift Kalman filter
    /// per timeline, fed by that timeline's probe schedule, maps every
    /// timestamp through the filter state current at that event. Presync
    /// and CLC are skipped; the online census lands in
    /// [`PipelineReport::after_presync`].
    Online(OnlineSpec),
}

/// Inputs of [`SyncMethod::Online`]: the per-process probe schedules and
/// the filter tuning.
#[derive(Debug, Clone)]
pub struct OnlineSpec {
    /// Probe schedule per process (index = process). Processes beyond the
    /// end of the vector, or with an empty schedule, get the identity
    /// correction — index 0 (the reference) is normally empty. Behind an
    /// `Arc` so cloning a [`PipelineConfig`] never copies probe data.
    pub probes: Arc<Vec<Vec<OffsetMeasurement>>>,
    /// Filter tuning (process/measurement noise model).
    pub kalman: KalmanParams,
}

impl OnlineSpec {
    /// Spec with the default filter tuning.
    pub fn new(probes: Vec<Vec<OffsetMeasurement>>) -> Self {
        OnlineSpec {
            probes: Arc::new(probes),
            kalman: KalmanParams::default(),
        }
    }

    /// Instantiate the per-timeline correction lanes.
    pub(crate) fn corrector(&self) -> OnlineCorrector {
        OnlineCorrector::new(self.probes.to_vec(), self.kalman)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Pre-synchronisation stage.
    pub presync: PreSync,
    /// CLC stage (None = skip).
    pub clc: Option<ClcParams>,
    /// Always `None`, read by nothing: the frozen `benchmark/src/drive.rs`
    /// spells the field in its struct literals. Goes with its next edit.
    #[doc(hidden)]
    pub parallel: Option<std::convert::Infallible>,
    /// Synchronization method (postmortem presync + CLC by default).
    pub method: SyncMethod,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            presync: PreSync::Linear,
            clc: Some(ClcParams::default()),
            parallel: None,
            method: SyncMethod::default(),
        }
    }
}

impl PipelineConfig {
    /// CLC parameters that will actually run under the configured method.
    pub(crate) fn effective_clc(&self) -> Option<&ClcParams> {
        match self.method {
            SyncMethod::Clc => self.clc.as_ref(),
            _ => None,
        }
    }

    /// The online spec, when the method is [`SyncMethod::Online`].
    pub(crate) fn online(&self) -> Option<&OnlineSpec> {
        match &self.method {
            SyncMethod::Online(spec) => Some(spec),
            _ => None,
        }
    }
}

/// The reconstructed communication structure of a trace: matched
/// point-to-point messages and collective instances.
///
/// Matching uses only per-timeline event *order* (MPI's non-overtaking
/// rule), never timestamps, so the analysis of the raw trace stays valid
/// after every timestamp-rewriting stage — the pipeline computes it once
/// and reuses it for all three censuses.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Matched send/receive pairs (plus any dangling events).
    pub matching: Matching,
    /// Reconstructed collective instances.
    pub instances: Vec<CollectiveInstance>,
}

impl TraceAnalysis {
    /// Reconstruct the communication structure of `trace`, reading each
    /// event once.
    pub fn capture(trace: &Trace) -> Result<Self, String> {
        let (matching, instances) = Capture::of(trace).finish();
        Ok(TraceAnalysis { matching, instances: instances? })
    }
}

/// Concrete per-process pre-synchronisation map. An enum rather than a
/// boxed trait object so each variant's columnar kernel is called
/// directly.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PresyncMap {
    Identity,
    Align(OffsetAlignment),
    Linear(LinearInterpolation),
}

impl TimestampMap for PresyncMap {
    fn map(&self, t: Time) -> Time {
        match self {
            PresyncMap::Identity => t,
            PresyncMap::Align(m) => m.map(t),
            PresyncMap::Linear(m) => m.map(t),
        }
    }
}

impl PresyncMap {
    /// Apply the map to a dense picosecond column in place.
    ///
    /// The enum dispatch is hoisted out of the loop; each variant's
    /// `map_col` maps every element through its [`TimestampMap::map`].
    pub(crate) fn map_col(&self, col: &mut [i64]) {
        match self {
            PresyncMap::Identity => {}
            PresyncMap::Align(m) => m.map_col(col),
            PresyncMap::Linear(m) => m.map_col(col),
        }
    }
}

/// Violation census of one pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// Point-to-point check.
    pub p2p: P2pReport,
    /// Collective (logical message) check.
    pub coll: CollReport,
}

impl StageReport {
    /// Total violated constraints (messages + logical messages).
    pub fn total_violations(&self) -> usize {
        self.p2p.violations.len() + self.coll.logical_violated
    }
}

/// Outcome of the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Census on the raw trace.
    pub raw: StageReport,
    /// Census after pre-synchronisation (equals `raw` when
    /// `PreSync::None`).
    pub after_presync: StageReport,
    /// Census after the CLC (None when the CLC stage was skipped).
    pub after_clc: Option<StageReport>,
    /// CLC statistics (None when skipped).
    pub clc: Option<ClcReport>,
    /// Per-stage throughput instrumentation.
    pub stats: PipelineStats,
}

/// Pipeline failures.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// A measurement vector does not match the process count.
    BadMeasurements(String),
    /// Trace reconstruction failed.
    BadTrace(String),
    /// The CLC stage failed.
    Clc(ClcError),
    /// Streaming ingest could not decode the trace bytes.
    Codec(CodecError),
    /// The run was cancelled (its flag raised or a probe tripped) at a
    /// cooperative checkpoint. Like every other error, it leaves the
    /// caller's trace untouched: [`synchronize`] writes records only in its
    /// final stage.
    Cancelled,
    /// The requested configuration is not supported by this entry point
    /// (e.g. the online method on the incremental windowed engine).
    Unsupported(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::BadMeasurements(s) => write!(f, "bad measurements: {s}"),
            PipelineError::BadTrace(s) => write!(f, "bad trace: {s}"),
            PipelineError::Clc(e) => write!(f, "CLC failed: {e}"),
            PipelineError::Codec(e) => write!(f, "trace ingest failed: {e}"),
            PipelineError::Cancelled => write!(f, "run cancelled"),
            PipelineError::Unsupported(s) => write!(f, "unsupported configuration: {s}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// An external cancellation source polled at every cooperative checkpoint:
/// return `true` to stop the run there. Services use probes for clock
/// seams (a deadline measured on a virtual clock) and simulation harnesses
/// use them as *yield points* — every probe call marks a schedule decision
/// where a fault (cancellation, injected panic, clock jump) can land
/// deterministically.
pub type CancelProbe = Arc<dyn Fn() -> bool + Send + Sync>;

/// Cooperative cancellation for a pipeline run: an optional shared flag
/// (set by whoever wants the run stopped) and any number of
/// [`CancelProbe`]s — a deadline is a probe on the caller's clock.
///
/// The pipeline polls the token between stages — and, in the windowed
/// engine, between the bursts and blocks of its sweeps — and bails out with
/// [`PipelineError::Cancelled`] at the next checkpoint after any source
/// trips. Stages themselves run to completion, so a run stops within one
/// stage's latency of the request. Nothing needs rolling back: the stages
/// rewrite gathered columns, and [`synchronize`] scatters them into the
/// trace only after the last fallible stage, so a failed run leaves the
/// caller's trace as it was.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    probes: Vec<CancelProbe>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("flag", &self.flag)
            .field("probes", &self.probes.len())
            .finish()
    }
}

impl CancelToken {
    /// A token that never cancels (what [`synchronize`] and
    /// [`synchronize_stream_incremental`] use).
    pub fn none() -> Self {
        CancelToken::default()
    }

    /// Attach a shared cancel flag; setting it to `true` stops the run at
    /// the next checkpoint.
    pub fn with_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.flag = Some(flag);
        self
    }

    /// Attach one more [`CancelProbe`]; probes are polled (in attachment
    /// order) at every checkpoint, after the flag.
    pub fn with_probe(mut self, probe: CancelProbe) -> Self {
        self.probes.push(probe);
        self
    }

    /// Has the flag been raised or a probe tripped?
    pub fn is_cancelled(&self) -> bool {
        if let Some(f) = &self.flag {
            if f.load(Ordering::Relaxed) {
                return true;
            }
        }
        self.probes.iter().any(|p| p())
    }

    /// One cooperative checkpoint.
    pub(crate) fn check(&self) -> Result<(), PipelineError> {
        if self.is_cancelled() {
            Err(PipelineError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Build the per-process pre-synchronisation maps, or `None` for
/// `PreSync::None`.
fn build_presync_maps(
    presync: PreSync,
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
) -> Result<Option<Vec<PresyncMap>>, PipelineError> {
    match presync {
        PreSync::None => Ok(None),
        PreSync::AlignOnly => Ok(Some(
            init.iter()
                .map(|m| match m {
                    Some(m) => PresyncMap::Align(OffsetAlignment::new(m)),
                    None => PresyncMap::Identity,
                })
                .collect(),
        )),
        PreSync::Linear => {
            let fin = fin.ok_or_else(|| {
                PipelineError::BadMeasurements(
                    "linear interpolation requires finalize measurements".into(),
                )
            })?;
            // The measurements are the caller's (a service takes them off the
            // wire): two anchors at one worker time are bad input, not a bug.
            init.iter()
                .zip(fin)
                .enumerate()
                .map(|(p, pair)| match pair {
                    (Some(a), Some(b)) => match LinearInterpolation::try_new(a, b) {
                        Some(map) => Ok(PresyncMap::Linear(map)),
                        None => Err(PipelineError::BadMeasurements(format!(
                            "process {p}: init and finalize anchors share worker time {} ps",
                            a.worker_time.as_ps()
                        ))),
                    },
                    _ => Ok(PresyncMap::Identity),
                })
                .collect::<Result<_, _>>()
                .map(Some)
        }
    }
}

/// The checks every driver makes before touching a timestamp, and the
/// latency model frozen into the dense table every stage shares. `ranks`
/// lists the trace's timelines in order.
///
/// The table is quadratic in the largest rank id, so that is bounded
/// first: decoders already reject absurd header ids, but a trace built in
/// memory can carry any `Rank`, and a sparse id orders of magnitude beyond
/// the process count is corruption, not topology.
fn freeze_inputs(
    ranks: &[Rank],
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
) -> Result<LatencyTable, PipelineError> {
    let n = ranks.len();
    let check_len = |name: &str, len: usize| {
        if len == n {
            Ok(())
        } else {
            Err(PipelineError::BadMeasurements(format!(
                "{name} has {len} entries for {n} procs"
            )))
        }
    };
    check_len("init", init.len())?;
    if let Some(f) = fin {
        check_len("fin", f.len())?;
    }
    let max_rank = ranks.iter().map(|r| r.idx()).max().unwrap_or(0);
    if max_rank >= n.saturating_mul(8).max(1 << 12) {
        return Err(PipelineError::BadTrace(format!(
            "rank id {max_rank} out of range for a {n}-process trace"
        )));
    }
    Ok(LatencyTable::freeze(lmin, ranks))
}

/// Census one stage over the frozen [`CensusPlan`] and record its stats:
/// borrow the columns' slab as the plan's gather array (zero copies), then
/// run the chunked branchless census kernels. The reports equal the
/// per-item reference checks (`check_p2p_messages_at` /
/// `check_collectives_at`), which the differential tests compare end to
/// end.
fn census_stage_planned(
    name: &'static str,
    plan: &CensusPlan,
    cols: &TraceColumns,
    stats: &mut PipelineStats,
) -> StageReport {
    let t0 = Instant::now();
    let flat = plan.flat_of(cols);
    let rep = StageReport {
        p2p: plan.p2p_census(flat),
        coll: plan.collective_census(flat),
    };
    let items = plan.n_messages() + plan.n_instances();
    stats
        .stages
        .push(StageStats::new(name, items, t0.elapsed()));
    rep
}

/// Run the pipeline on `trace` in place.
///
/// `init[p]` / `fin[p]` are the offset measurements of process `p` taken at
/// program initialization and finalization (`None` entries for the master,
/// which is never remapped). `fin` may be `None` as a whole when only
/// alignment is requested. On any error the trace is left as it was: the
/// corrected times are written into its records by the last stage, which
/// cannot fail.
pub fn synchronize(
    trace: &mut Trace,
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
) -> Result<PipelineReport, PipelineError> {
    synchronize_impl(trace, None, init, fin, lmin, cfg, &CancelToken::none())
}

/// Decode a columnar binary trace (the `DTC3` format of
/// [`tracefmt::io::to_binary_columnar_v3`]) from its byte chunks and run the
/// pipeline on the result, polling `cancel` before the index and between
/// the stages after ingest (a service enforces deadlines and user
/// cancellation through it; [`CancelToken::none`] never cancels).
///
/// Unlike decode-then-[`synchronize`], the input never has to be one
/// contiguous buffer: the chunks (any size — read buffers, network
/// packets) are indexed where they lie ([`index_columnar_chunks`]) and
/// every block is decoded through that index ([`decode_indexed`]) into
/// the trace and its timestamp columns, which feed the timestamp stages
/// directly, so the gather pass over the materialized records is skipped
/// as well. Index and decode are recorded as one `"ingest"` stage in
/// [`PipelineStats`] (items = events decoded, shards = blocks decoded).
///
/// Returns the decoded, synchronized trace alongside the report.
pub fn synchronize_stream<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
    cancel: &CancelToken,
) -> Result<(Trace, PipelineReport), PipelineError> {
    let t0 = Instant::now();
    cancel.check()?;
    let chunks: Vec<&[u8]> = chunks.into_iter().collect();
    let index = index_columnar_chunks(&chunks).map_err(PipelineError::Codec)?;
    let (mut trace, cols) =
        decode_indexed(&index, &ChunkStore::new(&chunks)).map_err(PipelineError::Codec)?;
    let ingest = StageStats {
        shards: index.blocks.len(),
        ..StageStats::new("ingest", cols.n_events(), t0.elapsed())
    };
    let report = synchronize_impl(&mut trace, Some((cols, ingest)), init, fin, lmin, cfg, cancel)?;
    Ok((trace, report))
}

/// The batch driver behind [`synchronize`] and [`synchronize_stream`]:
/// validate, freeze the latency table, reconstruct the communication
/// structure, then run every timestamp-touching stage on gathered columns.
///
/// `ingested` carries the columns streaming ingest produced (with their
/// `"ingest"` stage); without it a `"gather"` stage builds them from the
/// trace. The trace's records are only written again by the final
/// `"scatter"` stage.
fn synchronize_impl(
    trace: &mut Trace,
    ingested: Option<(TraceColumns, StageStats)>,
    init: &[Option<OffsetMeasurement>],
    fin: Option<&[Option<OffsetMeasurement>]>,
    lmin: &dyn MinLatency,
    cfg: &PipelineConfig,
    cancel: &CancelToken,
) -> Result<PipelineReport, PipelineError> {
    let t_total = Instant::now();
    cancel.check()?;
    let ranks: Vec<Rank> = trace.procs.iter().map(|p| p.location.rank).collect();
    let table = freeze_inputs(&ranks, init, fin, lmin)?;
    let mut stats = PipelineStats::default();
    let pre_cols = ingested.map(|(cols, ingest_stats)| {
        stats.stages.push(ingest_stats);
        cols
    });
    let n_events = trace.n_events();

    // Reconstruct the communication structure once; every census reuses it
    // (matching is order-based, so timestamp rewrites cannot invalidate
    // it). The matched messages go straight into the job's one message
    // table, `l_min` frozen per message.
    cancel.check()?;
    let t0 = Instant::now();
    let lens: Vec<usize> = trace.procs.iter().map(|p| p.events.len()).collect();
    let (msgs, instances) = Capture::of(trace).finish_table(&table);
    let instances = instances.map_err(PipelineError::BadTrace)?;
    let msgs = Arc::new(msgs.map_err(|e| PipelineError::BadTrace(e.to_string()))?);
    stats
        .stages
        .push(StageStats::new("match", n_events, t0.elapsed()));

    // Lower the analysis into the dependency graph the CLC kernels walk:
    // one link per event into the message table and the collective member
    // table. The method gates this: Online never runs a CLC, whatever
    // `cfg.clc` says. An analysis that does not fit the trace shape is the
    // tenant's bytes, not a bug here: a typed error, never a panic.
    let clc_inputs = match cfg.effective_clc() {
        None => None,
        Some(params) => {
            let t0 = Instant::now();
            let graph = DepGraph::with_messages(Arc::clone(&msgs), &instances, &lens, &table)
                .map_err(|e| PipelineError::BadTrace(e.to_string()))?;
            stats
                .stages
                .push(StageStats::new("lower", n_events, t0.elapsed()));
            Some((params, graph))
        }
    };

    // The online method replaces presync wholesale; don't demand
    // finalize measurements it will never read.
    let maps = if cfg.online().is_some() {
        None
    } else {
        build_presync_maps(cfg.presync, init, fin)?
    };
    cancel.check()?;

    // Freeze the timestamp-independent census state once: event ids
    // resolved to flat-array offsets, and the graph's two tables when
    // `lower` built them, so a job lowers its messages and its collectives
    // once. Every census then runs the same kernels over the columns.
    let t0 = Instant::now();
    let coll = match &clc_inputs {
        Some((_, graph)) => Ok(Arc::clone(graph.coll_table())),
        None => CollTable::build(&lens, &instances, &table).map(Arc::new),
    };
    let n_items = msgs.len() + instances.len();
    drop(instances);
    let plan = coll
        .and_then(|coll| CensusPlan::with_tables(&lens, msgs, coll))
        .map_err(|e| PipelineError::BadTrace(e.to_string()))?;
    stats
        .stages
        .push(StageStats::new("plan", n_items, t0.elapsed()));

    let mut cols = pre_cols.unwrap_or_else(|| {
        let t0 = Instant::now();
        let cols = TraceColumns::gather(trace);
        stats
            .stages
            .push(StageStats::new("gather", n_events, t0.elapsed()));
        cols
    });
    // Batch residency: every timeline's full i64 lane is live at once.
    stats.peak_resident_column_bytes = 8 * n_events as u64;

    let raw = census_stage_planned("census:raw", &plan, &cols, &mut stats);

    let (after_presync, after_clc, clc) = if let Some(spec) = cfg.online() {
        // Online correction replaces presync and the CLC: one stateful
        // lane per timeline, probes interleaved by worker time, one
        // timeline after another in event order.
        cancel.check()?;
        let t0 = Instant::now();
        let mut corr = spec.corrector();
        for (p, col) in cols.iter_mut_slices() {
            let lane = corr.lane_mut(p);
            for t in col.iter_mut() {
                *t = lane.map_next(*t);
            }
        }
        stats
            .stages
            .push(StageStats::new("online", n_events, t0.elapsed()));
        let after_online = census_stage_planned("census:online", &plan, &cols, &mut stats);
        (after_online, None, None)
    } else {
        // Pre-synchronisation: tight per-column loops.
        let after_presync = match maps {
            None => raw.clone(),
            Some(maps) => {
                cancel.check()?;
                let t0 = Instant::now();
                for (p, col) in cols.iter_mut_slices() {
                    maps[p].map_col(col);
                }
                stats
                    .stages
                    .push(StageStats::new("presync", n_events, t0.elapsed()));
                census_stage_planned("census:presync", &plan, &cols, &mut stats)
            }
        };

        // CLC cleanup (skipped when `cfg.clc` is `None`).
        let (after_clc, clc) = match clc_inputs {
            None => (None, None),
            Some((params, graph)) => {
                cancel.check()?;
                let t0 = Instant::now();
                let rep = controlled_logical_clock_columnar_csr(&mut cols, &graph, params)
                    .map_err(PipelineError::Clc)?;
                stats
                    .stages
                    .push(StageStats::new("clc", n_events, t0.elapsed()));
                let census = census_stage_planned("census:clc", &plan, &cols, &mut stats);
                (Some(census), Some(rep))
            }
        };
        (after_presync, after_clc, clc)
    };

    // Write the corrected timestamps back into the event records.
    let t0 = Instant::now();
    cols.scatter_into(trace);
    stats
        .stages
        .push(StageStats::new("scatter", n_events, t0.elapsed()));

    stats.total_seconds = t_total.elapsed().as_secs_f64();
    Ok(PipelineReport {
        raw,
        after_presync,
        after_clc,
        clc,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::{Dur, Time};
    use tracefmt::{EventKind, Rank, Tag, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    /// Worker clock +500 µs ahead; messages both directions with 10 µs true
    /// transfer. Raw trace: master→worker messages look "too long"
    /// (510 µs), worker→master messages look reversed (−490 µs).
    fn skewed_trace() -> Trace {
        let mut t = Trace::for_ranks(2);
        let off = 500;
        for k in 0..10 {
            let base = k * 1000;
            t.procs[0].push(
                Time::from_us(base),
                EventKind::Send { to: Rank(1), tag: Tag(k as u32), bytes: 0 },
            );
            t.procs[1].push(
                Time::from_us(base + 10 + off),
                EventKind::Recv { from: Rank(0), tag: Tag(k as u32), bytes: 0 },
            );
            t.procs[1].push(
                Time::from_us(base + 500 + off),
                EventKind::Send { to: Rank(0), tag: Tag(1000 + k as u32), bytes: 0 },
            );
            t.procs[0].push(
                Time::from_us(base + 510),
                EventKind::Recv { from: Rank(1), tag: Tag(1000 + k as u32), bytes: 0 },
            );
        }
        t
    }

    fn measurements(offset_us: i64, w: i64) -> Option<OffsetMeasurement> {
        Some(OffsetMeasurement {
            worker_time: Time::from_us(w),
            offset: Dur::from_us(offset_us),
            rtt: Dur::from_us(10),
        })
    }

    #[test]
    fn full_pipeline_repairs_everything() {
        let mut t = skewed_trace();
        // Measured offsets: master - worker = -500 µs (accurate).
        let init = vec![None, measurements(-500, 0)];
        let fin = vec![None, measurements(-500, 10_000)];
        let rep = synchronize(
            &mut t,
            &init,
            Some(&fin),
            &LMIN,
            &PipelineConfig::default(),
        )
        .unwrap();
        // Raw trace: the 10 worker→master messages are reversed.
        assert_eq!(rep.raw.p2p.reversed, 10);
        // Interpolation with accurate offsets already fixes them.
        assert_eq!(rep.after_presync.total_violations(), 0);
        let after = rep.after_clc.unwrap();
        assert_eq!(after.total_violations(), 0);
    }

    #[test]
    fn clc_rescues_inaccurate_interpolation() {
        let mut t = skewed_trace();
        // Offset measurements off by 30 µs (asymmetric probe error): the
        // interpolation leaves violations behind; the CLC must clear them.
        let init = vec![None, measurements(-530, 0)];
        let fin = vec![None, measurements(-530, 10_000)];
        let rep = synchronize(
            &mut t,
            &init,
            Some(&fin),
            &LMIN,
            &PipelineConfig::default(),
        )
        .unwrap();
        assert!(
            rep.after_presync.total_violations() > 0,
            "expected residual violations after bad interpolation"
        );
        assert_eq!(rep.after_clc.unwrap().total_violations(), 0);
        assert!(rep.clc.unwrap().n_jumps() > 0);
    }

    #[test]
    fn align_only_without_finalize() {
        let mut t = skewed_trace();
        let init = vec![None, measurements(-500, 0)];
        let cfg = PipelineConfig {
            presync: PreSync::AlignOnly,
            clc: None,
            ..Default::default()
        };
        let rep = synchronize(&mut t, &init, None, &LMIN, &cfg).unwrap();
        assert_eq!(rep.after_presync.total_violations(), 0);
        assert!(rep.after_clc.is_none());
    }

    #[test]
    fn linear_without_finalize_is_an_error() {
        let mut t = skewed_trace();
        let init = vec![None, measurements(-500, 0)];
        let err = synchronize(&mut t, &init, None, &LMIN, &PipelineConfig::default());
        assert!(matches!(err, Err(PipelineError::BadMeasurements(_))));
    }

    /// The drivers share one preamble (`freeze_inputs`, `build_presync_maps`):
    /// the same bad input is the same error — variant and message — from the
    /// batch, the streamed and the incremental entry point.
    #[test]
    fn bad_inputs_fail_identically_from_every_driver() {
        let mut far = Trace::for_ranks(3);
        far.procs[2].location.rank = Rank(1 << 20);
        let coincident = vec![None, measurements(-500, 7)];
        // Cases with finalize measurements run `PreSync::Linear`.
        let cases = [
            (skewed_trace(), vec![None], None, "bad measurements: init has 1 entries for 2 procs"),
            (far, vec![None; 3], None,
             "bad trace: rank id 1048576 out of range for a 3-process trace"),
            (
                skewed_trace(),
                coincident.clone(),
                Some(coincident),
                "bad measurements: process 1: init and finalize anchors share worker time \
                 7000000 ps",
            ),
        ];
        for (trace, init, fin, message) in cases {
            let presync = if fin.is_some() { PreSync::Linear } else { PreSync::AlignOnly };
            let cfg = PipelineConfig { presync, ..Default::default() };
            let fin = fin.as_deref();
            let bytes = tracefmt::io::to_binary_columnar_v3_blocked(&trace, 16);
            let chunks = [&bytes[..]];
            let errors = [
                synchronize(&mut trace.clone(), &init, fin, &LMIN, &cfg).err(),
                synchronize_stream(chunks, &init, fin, &LMIN, &cfg, &CancelToken::none()).err(),
                synchronize_stream_incremental(&chunks, &init, fin, &LMIN, &cfg, 8).err(),
            ];
            for (driver, err) in errors.into_iter().enumerate() {
                let err = err.unwrap_or_else(|| panic!("driver {driver} accepted: {message}"));
                assert_eq!(err.to_string(), message, "driver {driver}");
            }
        }
        // Valid measurements, one block whose payload holds an unknown kind
        // code: both stream drivers read it through one decoder.
        let mut one = Trace::for_ranks(1);
        one.procs[0].push(Time::from_us(1), EventKind::Enter { region: tracefmt::RegionId(0) });
        let mut bytes = tracefmt::io::to_binary_columnar_v3_blocked(&one, 16).to_vec();
        let codes_at = index_columnar_chunks(&[&bytes]).unwrap().blocks[0].payload_off;
        bytes[codes_at as usize] = 200;
        let (chunks, cfg, fin) = ([&bytes[..]], PipelineConfig::default(), Some(&[None][..]));
        let errors = [
            synchronize_stream(chunks, &[None], fin, &LMIN, &cfg, &CancelToken::none()).err(),
            synchronize_stream_incremental(&chunks, &[None], fin, &LMIN, &cfg, 8).err(),
        ];
        for (driver, err) in errors.into_iter().enumerate() {
            let err = err.unwrap_or_else(|| panic!("stream driver {driver} accepted kind 200"));
            assert!(matches!(err, PipelineError::Codec(CodecError::UnknownKind(_))), "{err:?}");
            assert_eq!(err.to_string(), "trace ingest failed: unknown event kind \"code 200\"");
        }
    }

    #[test]
    fn stats_account_for_all_events() {
        let mut t = skewed_trace();
        let n_events = t.n_events();
        let init = vec![None, measurements(-500, 0)];
        let fin = vec![None, measurements(-500, 10_000)];
        let cfg = PipelineConfig::default();
        let rep = synchronize(&mut t, &init, Some(&fin), &LMIN, &cfg).unwrap();
        // Every event-mapping stage sees every event exactly once; CSR
        // lowering runs whenever the CLC does.
        for stage in ["match", "lower", "gather", "presync", "clc", "scatter"] {
            assert_eq!(rep.stats.stage(stage).unwrap().items, n_events, "{stage}");
        }
        // The censuses count constraints: 20 messages, no collectives.
        for stage in ["census:raw", "census:presync", "census:clc"] {
            assert_eq!(rep.stats.stage(stage).unwrap().items, 20, "{stage}");
        }
    }

    /// `synchronize` reports every error it can return — bad measurements,
    /// a bad trace, a cyclic trace, bad CLC parameters — without touching
    /// the caller's trace: records are written only by the final scatter.
    #[test]
    fn a_failed_synchronize_leaves_the_trace_untouched() {
        let mut far = skewed_trace();
        far.procs[1].location.rank = Rank(1 << 20);
        let coincident = vec![None, measurements(-500, 7)];
        let good = (vec![None, measurements(-500, 0)], Some(vec![None, measurements(-500, 10_000)]));
        let bad_mu = PipelineConfig {
            clc: Some(ClcParams { mu: 0.0, ..ClcParams::default() }),
            ..PipelineConfig::default()
        };
        let cyclic = crate::clc::fixtures::cyclic_after_a_jump();
        let n_cyclic = cyclic.n_procs();
        let cases = [
            (skewed_trace(), vec![None], good.1.clone(), PipelineConfig::default()),
            (skewed_trace(), coincident.clone(), Some(coincident), PipelineConfig::default()),
            (far, good.0.clone(), good.1.clone(), PipelineConfig::default()),
            (cyclic, vec![None; n_cyclic], Some(vec![None; n_cyclic]), PipelineConfig::default()),
            (skewed_trace(), good.0.clone(), good.1.clone(), bad_mu),
        ];
        let mut seen = Vec::new();
        for (before, init, fin, cfg) in cases {
            let mut trace = before.clone();
            let err = synchronize(&mut trace, &init, fin.as_deref(), &LMIN, &cfg).unwrap_err();
            seen.push(match err {
                PipelineError::BadMeasurements(_) => "measurements",
                PipelineError::BadTrace(_) => "trace",
                PipelineError::Clc(ClcError::CyclicTrace) => "cyclic",
                PipelineError::Clc(ClcError::BadParams(_)) => "params",
                other => panic!("unexpected error {other:?}"),
            });
            for (p, (a, b)) in before.procs.iter().zip(&trace.procs).enumerate() {
                assert_eq!(a.location, b.location, "{err}: proc {p}");
                assert_eq!(a.events, b.events, "{err}: proc {p} rewritten");
            }
        }
        assert_eq!(seen, ["measurements", "measurements", "trace", "cyclic", "params"]);
    }

    /// A probe that trips on its n-th poll, for every n up to the run's
    /// last checkpoint, stops `synchronize_stream` with `Cancelled`; once n
    /// passes the last poll the run completes with the uncancelled result.
    #[test]
    fn a_cancel_at_any_checkpoint_is_cancelled_never_partial() {
        let bytes = tracefmt::io::to_binary_columnar_v3_blocked(&skewed_trace(), 4);
        let init = vec![None, measurements(-530, 0)];
        let fin = vec![None, measurements(-530, 10_000)];
        let cfg = PipelineConfig::default();
        let run = |cancel: &CancelToken| {
            synchronize_stream([&bytes[..]], &init, Some(&fin), &LMIN, &cfg, cancel)
        };
        let (want, want_rep) = run(&CancelToken::none()).unwrap();
        let mut n = 1;
        let (got, rep) = loop {
            let polls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let seen = Arc::clone(&polls);
            let token = CancelToken::none()
                .with_probe(Arc::new(move || seen.fetch_add(1, Ordering::Relaxed) + 1 >= n));
            match run(&token) {
                Ok(done) => break done,
                Err(PipelineError::Cancelled) => {}
                Err(e) => panic!("trip at poll {n}: {e:?}"),
            }
            assert!(polls.load(Ordering::Relaxed) == n, "trip at poll {n} was not the last poll");
            n += 1;
        };
        assert!(n > 4, "only {} checkpoints", n - 1);
        for (a, b) in want.procs.iter().zip(&got.procs) {
            assert_eq!(a.events, b.events);
        }
        assert_eq!(rep.clc.unwrap().n_jumps(), want_rep.clc.unwrap().n_jumps());
    }

    #[test]
    fn tripped_probe_or_raised_flag_cancels_the_run() {
        let bytes = tracefmt::io::to_binary_columnar_v3_blocked(&skewed_trace(), 16);
        let init = vec![None, measurements(-500, 0)];
        let fin = vec![None, measurements(-500, 10_000)];
        let err = synchronize_stream(
            [&bytes[..]],
            &init,
            Some(&fin),
            &LMIN,
            &PipelineConfig::default(),
            &CancelToken::none().with_probe(Arc::new(|| true)),
        );
        assert!(matches!(err, Err(PipelineError::Cancelled)), "expected Cancelled, got {err:?}");
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::none().with_flag(Arc::clone(&flag));
        assert!(!token.is_cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(token.is_cancelled());
    }

    /// A job cancelled in a service queue relies on the cancel check
    /// coming before the decoder: bytes that do not decode are `Cancelled`.
    #[test]
    fn cancelled_token_is_checked_before_the_bytes() {
        let cfg = PipelineConfig::default();
        let run = |token: &CancelToken| synchronize_stream([&b"not a trace"[..]], &[None], None, &LMIN, &cfg, token).err();
        assert!(matches!(run(&CancelToken::none()), Some(PipelineError::Codec(_))));
        let cancelled = CancelToken::none().with_flag(Arc::new(AtomicBool::new(true)));
        assert!(matches!(run(&cancelled), Some(PipelineError::Cancelled)));
    }

    /// Probe schedule matching `skewed_trace`'s worker: master − worker
    /// is exactly −500 µs the whole run.
    fn worker_probes() -> Vec<Vec<OffsetMeasurement>> {
        let probe = |w_us: i64| OffsetMeasurement {
            worker_time: Time::from_us(w_us),
            offset: Dur::from_us(-500),
            rtt: Dur::from_us(10),
        };
        vec![Vec::new(), vec![probe(0), probe(5_000), probe(11_000)]]
    }

    #[test]
    fn online_method_corrects_through_the_filter() {
        let mut t = skewed_trace();
        let cfg = PipelineConfig {
            method: SyncMethod::Online(OnlineSpec::new(worker_probes())),
            ..PipelineConfig::default()
        };
        // No init/fin interpolation data at all: the online method
        // must not demand finalize measurements.
        let rep = synchronize(&mut t, &[None, None], None, &LMIN, &cfg).unwrap();
        assert_eq!(rep.raw.p2p.reversed, 10);
        assert_eq!(rep.after_presync.total_violations(), 0, "online census");
        assert!(rep.after_clc.is_none() && rep.clc.is_none());
        assert!(rep.stats.stage("online").is_some());
        assert!(rep.stats.stage("census:online").is_some());
        assert!(rep.stats.stage("presync").is_none());
        assert!(rep.stats.stage("clc").is_none());
    }

    /// The online stage against its reference: every record mapped through
    /// `OnlineCorrector::map_next` in timeline order, censused by the
    /// per-item checks on the records. (The integration suites run the same
    /// composition as `tests/common::reference_synchronize`.)
    #[test]
    fn online_method_matches_the_reference() {
        use tracefmt::{check_collectives_at, check_p2p_messages_at};
        let spec = OnlineSpec::new(worker_probes());
        // Inaccurate probes on purpose, so the online census is non-zero.
        let mut off = worker_probes();
        for m in &mut off[1] {
            m.offset = Dur::from_us(-470);
        }
        for (spec, violations) in [(spec, 0), (OnlineSpec::new(off), 10)] {
            let mut want = skewed_trace();
            let analysis = TraceAnalysis::capture(&want).unwrap();
            let census = |t: &Trace| {
                let p2p = check_p2p_messages_at(t, &analysis.matching.messages, &LMIN);
                let coll = check_collectives_at(t, &analysis.instances, &LMIN);
                (p2p.violations, p2p.reversed, coll.logical_violated)
            };
            let want_raw = census(&want);
            let mut corr = spec.corrector();
            want.map_times(|p, t| Time::from_ps(corr.map_next(p, t.as_ps())));
            let want_online = census(&want);
            assert_eq!(want_online.0.len(), violations, "fixture drifted");

            let mut t = skewed_trace();
            let cfg = PipelineConfig {
                method: SyncMethod::Online(spec.clone()),
                ..PipelineConfig::default()
            };
            let rep = synchronize(&mut t, &[None, None], None, &LMIN, &cfg).unwrap();
            for (p, (a, b)) in want.procs.iter().zip(&t.procs).enumerate() {
                assert_eq!(a.events, b.events, "proc {p}");
            }
            let got = |r: &StageReport| {
                (r.p2p.violations.clone(), r.p2p.reversed, r.coll.logical_violated)
            };
            assert_eq!(got(&rep.raw), want_raw, "raw census");
            assert_eq!(got(&rep.after_presync), want_online, "online census");
        }
    }

    #[test]
    fn online_method_keeps_timelines_monotone() {
        // A probe schedule that swings the offset estimate down sharply
        // mid-run must not reorder any timeline against itself.
        let mut t = skewed_trace();
        let probes = vec![
            Vec::new(),
            vec![
                OffsetMeasurement {
                    worker_time: Time::from_us(0),
                    offset: Dur::from_us(400),
                    rtt: Dur::from_us(4),
                },
                OffsetMeasurement {
                    worker_time: Time::from_us(5_000),
                    offset: Dur::from_us(-900),
                    rtt: Dur::from_us(4),
                },
            ],
        ];
        let cfg = PipelineConfig {
            method: SyncMethod::Online(OnlineSpec::new(probes)),
            ..PipelineConfig::default()
        };
        synchronize(&mut t, &[None, None], None, &LMIN, &cfg).unwrap();
        assert!(t.is_locally_monotone(), "online correction broke local order");
    }

    #[test]
    fn presync_none_skips_presync_stage() {
        let mut t = skewed_trace();
        let init = vec![None, None];
        let cfg = PipelineConfig {
            presync: PreSync::None,
            clc: None,
            ..Default::default()
        };
        let rep = synchronize(&mut t, &init, None, &LMIN, &cfg).unwrap();
        assert!(rep.stats.stage("presync").is_none());
        assert_eq!(
            rep.raw.total_violations(),
            rep.after_presync.total_violations()
        );
    }
}
