//! Typed frames and their byte encodings.
//!
//! Every multi-byte integer is little-endian. Payload encodings are
//! position-based (no self-describing tags beyond the frame kind), so a
//! malformed payload fails with a typed [`WireError::BadPayload`] naming
//! the field that could not be read — never a panic.

use clocksync::{
    ClcParams, OffsetMeasurement, OnlineSpec, PipelineConfig, PreSync, SyncMethod,
};
use onlinesync::KalmanParams;
use simclock::{Dur, Time};
use std::sync::Arc;
use tracefmt::{LatencyTable, MinLatency, Rank, UniformLatency};

/// Sizing hint for a Hello frame (used by handshake readers that cap the
/// first read).
pub const HELLO_SIZE_HINT: usize = 4 + 1 + 4 + 2 + 2 + 256;

/// Everything that can go wrong while encoding, scanning, or decoding
/// frames. All variants are *typed* protocol outcomes — the scanner and
/// decoders never panic on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The Hello frame's magic was not [`crate::MAGIC`].
    BadMagic(u32),
    /// The peer speaks a protocol version this side does not.
    UnsupportedVersion(u16),
    /// A frame header declared an unknown kind byte.
    UnknownKind(u8),
    /// A frame header declared a payload larger than
    /// [`crate::MAX_FRAME_PAYLOAD`] (or zero, which cannot even hold the
    /// kind byte).
    Oversized {
        /// The declared length (kind byte included).
        declared: u64,
    },
    /// A frame payload did not decode; names the field that failed.
    BadPayload(&'static str),
    /// The byte stream ended mid-frame.
    Truncated,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad protocol magic {m:#010x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized { declared } => {
                write!(f, "frame declares {declared} bytes, above the protocol bound")
            }
            WireError::BadPayload(field) => write!(f, "malformed frame payload: {field}"),
            WireError::Truncated => write!(f, "byte stream truncated mid-frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// Frame kind bytes (the discriminants on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server connection opener: magic, version, auth token.
    Hello = 1,
    /// Server → client handshake accept: version, initial credit.
    HelloAck = 2,
    /// Client → server job header: full pipeline + scheduling config.
    JobConfig = 3,
    /// Raw stream bytes. Client → server: `DTC3` input (credit-bound).
    /// Server → client: the corrected batch-mode output stream.
    Chunk = 4,
    /// Client → server: end of the input stream; run the job.
    ChunkEnd = 5,
    /// Server → client: one corrected output chunk of an *incremental*
    /// job, streamed while the job runs. Indexed so a transparent retry
    /// never re-delivers a chunk the client already has.
    CorrectedFrame = 6,
    /// Server → client: CLC jump batch (may repeat for large jump sets).
    Jumps = 7,
    /// Server → client: terminal job summary (success).
    JobResult = 8,
    /// Either direction: typed terminal error.
    Error = 9,
    /// Server → client: flow-control credit grant (bytes).
    Credit = 10,
    /// Client → server: cancel the in-flight job.
    Cancel = 11,
}

impl FrameKind {
    fn from_u8(k: u8) -> Result<FrameKind, WireError> {
        Ok(match k {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::JobConfig,
            4 => FrameKind::Chunk,
            5 => FrameKind::ChunkEnd,
            6 => FrameKind::CorrectedFrame,
            7 => FrameKind::Jumps,
            8 => FrameKind::JobResult,
            9 => FrameKind::Error,
            10 => FrameKind::Credit,
            11 => FrameKind::Cancel,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// Typed terminal error codes carried by [`Frame::Error`]. The mapping to
/// and from the service's own error enums lives with the server/client;
/// the wire only fixes the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The auth token was not recognized.
    AuthFailed = 1,
    /// Handshake version mismatch.
    VersionMismatch = 2,
    /// A frame arrived that the connection state does not allow (or the
    /// client overdrew its credit).
    Protocol = 3,
    /// The job's stream bytes are malformed (typed codec failure).
    Malformed = 4,
    /// The service submission queue is full.
    QueueFull = 5,
    /// Admission would exceed the service memory budget.
    OverBudget = 6,
    /// The service (or node) is shutting down.
    Shutdown = 7,
    /// The pipeline failed typed on the final attempt.
    Pipeline = 8,
    /// The final attempt panicked (isolated; the message survives).
    Panicked = 9,
    /// The job was cancelled (client request, disconnect, or slow-reader
    /// backpressure cutoff).
    Cancelled = 10,
    /// The job's deadline passed.
    DeadlineExceeded = 11,
    /// A per-tenant quota was exceeded.
    QuotaExceeded = 12,
    /// An internal server invariant failed (never expected; typed so the
    /// client still gets a frame instead of a dead socket).
    Internal = 13,
}

impl ErrorCode {
    fn from_u8(c: u8) -> Result<ErrorCode, WireError> {
        Ok(match c {
            1 => ErrorCode::AuthFailed,
            2 => ErrorCode::VersionMismatch,
            3 => ErrorCode::Protocol,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::QueueFull,
            6 => ErrorCode::OverBudget,
            7 => ErrorCode::Shutdown,
            8 => ErrorCode::Pipeline,
            9 => ErrorCode::Panicked,
            10 => ErrorCode::Cancelled,
            11 => ErrorCode::DeadlineExceeded,
            12 => ErrorCode::QuotaExceeded,
            13 => ErrorCode::Internal,
            _ => return Err(WireError::BadPayload("error code")),
        })
    }
}

/// How the job runs server-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Decode the whole stream, run the batch pipeline, send the corrected
    /// trace back as one `Chunk` sequence after the job completes.
    Batch,
    /// Run the incremental windowed engine; corrected stream chunks come
    /// back as [`Frame::CorrectedFrame`]s **while the job runs**, with
    /// O(window) server-resident columns.
    Incremental {
        /// Window size in events (≥ 1).
        window_events: u64,
    },
}

/// One optional per-process offset measurement on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMeasurement {
    /// Worker-local anchor time, picoseconds.
    pub worker_time_ps: i64,
    /// Master − worker offset, picoseconds.
    pub offset_ps: i64,
    /// Winning probe round-trip, picoseconds.
    pub rtt_ps: i64,
}

impl WireMeasurement {
    /// To the pipeline's measurement type.
    pub fn to_measurement(self) -> OffsetMeasurement {
        OffsetMeasurement {
            worker_time: Time::from_ps(self.worker_time_ps),
            offset: Dur::from_ps(self.offset_ps),
            rtt: Dur::from_ps(self.rtt_ps),
        }
    }

    /// From the pipeline's measurement type.
    pub fn from_measurement(m: &OffsetMeasurement) -> Self {
        WireMeasurement {
            worker_time_ps: m.worker_time.as_ps(),
            offset_ps: m.offset.as_ps(),
            rtt_ps: m.rtt.as_ps(),
        }
    }
}

/// The minimum-latency model, serialized.
#[derive(Debug, Clone, PartialEq)]
pub enum WireLatency {
    /// The same minimum latency between every pair of ranks (ps).
    Uniform(i64),
    /// A dense per-pair table: `entries[a * n + b]` = l_min(a → b) in ps.
    Table {
        /// Ranks covered.
        n: u32,
        /// Row-major `n × n` picosecond entries.
        entries: Vec<i64>,
    },
}

impl WireLatency {
    /// Materialize the model the pipeline consumes.
    pub fn to_model(&self) -> Arc<dyn MinLatency + Send + Sync> {
        match self {
            WireLatency::Uniform(ps) => Arc::new(UniformLatency(Dur::from_ps(*ps))),
            WireLatency::Table { n, entries } => {
                let n = *n as usize;
                let entries = entries.clone();
                let table = LatencyTable::freeze(
                    &move |a: Rank, b: Rank| {
                        let (a, b) = (a.idx(), b.idx());
                        if a < n && b < n {
                            Dur::from_ps(entries[a * n + b])
                        } else {
                            Dur::ZERO
                        }
                    },
                    &(0..n as u32).map(Rank).collect::<Vec<_>>(),
                );
                Arc::new(table)
            }
        }
    }
}

/// CLC stage parameters on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireClc {
    /// Amortization factor μ.
    pub mu: f64,
    /// Apply backward amortization.
    pub backward: bool,
    /// Backward window factor.
    pub backward_window_factor: f64,
}

/// Online drift-filter tuning on the wire (read when the method byte
/// selects the online method; carried — at 24 bytes — either way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireKalman {
    /// Drift random-walk intensity, ppm²/s.
    pub drift_noise_ppm2_per_s: f64,
    /// Offset white-noise floor, µs²/s.
    pub offset_noise_us2_per_s: f64,
    /// Probe measurement-noise floor, µs.
    pub probe_noise_floor_us: f64,
}

impl Default for WireKalman {
    fn default() -> Self {
        let p = KalmanParams::default();
        WireKalman {
            drift_noise_ppm2_per_s: p.drift_noise_ppm2_per_s,
            offset_noise_us2_per_s: p.offset_noise_us2_per_s,
            probe_noise_floor_us: p.probe_noise_floor_us,
        }
    }
}

impl WireKalman {
    /// The filter-facing parameter struct.
    pub fn to_params(self) -> KalmanParams {
        KalmanParams {
            drift_noise_ppm2_per_s: self.drift_noise_ppm2_per_s,
            offset_noise_us2_per_s: self.offset_noise_us2_per_s,
            probe_noise_floor_us: self.probe_noise_floor_us,
        }
    }

    /// From the filter-facing parameter struct.
    pub fn from_params(p: KalmanParams) -> Self {
        WireKalman {
            drift_noise_ppm2_per_s: p.drift_noise_ppm2_per_s,
            offset_noise_us2_per_s: p.offset_noise_us2_per_s,
            probe_noise_floor_us: p.probe_noise_floor_us,
        }
    }
}

/// The complete job header: everything the server needs to build a
/// `JobSpec` except the stream bytes themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct WireJobConfig {
    /// Batch or incremental execution.
    pub mode: WireMode,
    /// Scheduling class: 0 high, 1 normal, 2 low.
    pub priority: u8,
    /// Deadline from submission in microseconds (`u64::MAX` = none).
    pub deadline_us: u64,
    /// Retry budget override (`u32::MAX` = service default).
    pub max_retries: u32,
    /// Pre-synchronisation stage: 0 none, 1 align-only, 2 linear.
    pub presync: u8,
    /// CLC stage (None = skip).
    pub clc: Option<WireClc>,
    /// Minimum-latency model.
    pub lmin: WireLatency,
    /// Init offset measurements, one slot per process.
    pub init: Vec<Option<WireMeasurement>>,
    /// Finalize measurements (None = align-only data).
    pub fin: Option<Vec<Option<WireMeasurement>>>,
    /// Synchronization method: 1 presync + CLC (the CLC only when `clc` is
    /// set), 2 online. 0, interpolation only, is still read: it decodes to
    /// method 1 with the CLC off.
    pub method: u8,
    /// Online filter tuning (meaningful when `method == 2`).
    pub kalman: WireKalman,
    /// Per-process probe schedules for the online method (index =
    /// process; empty unless `method == 2`).
    pub probes: Vec<Vec<WireMeasurement>>,
}

impl WireJobConfig {
    /// A config with service-default scheduling from pipeline pieces.
    pub fn new(cfg: &PipelineConfig, lmin: WireLatency) -> Self {
        WireJobConfig {
            mode: WireMode::Batch,
            priority: 1,
            deadline_us: u64::MAX,
            max_retries: u32::MAX,
            presync: match cfg.presync {
                PreSync::None => 0,
                PreSync::AlignOnly => 1,
                PreSync::Linear => 2,
            },
            clc: cfg.clc.as_ref().map(|c| WireClc {
                mu: c.mu,
                backward: c.backward,
                backward_window_factor: c.backward_window_factor,
            }),
            lmin,
            init: Vec::new(),
            fin: None,
            method: match &cfg.method {
                SyncMethod::Clc => 1,
                SyncMethod::Online(_) => 2,
            },
            kalman: match &cfg.method {
                SyncMethod::Online(spec) => WireKalman::from_params(spec.kalman),
                _ => WireKalman::default(),
            },
            probes: match &cfg.method {
                SyncMethod::Online(spec) => spec
                    .probes
                    .iter()
                    .map(|ps| ps.iter().map(WireMeasurement::from_measurement).collect())
                    .collect(),
                _ => Vec::new(),
            },
        }
    }

    /// Attach measurements (consuming builder style).
    pub fn with_measurements(
        mut self,
        init: &[Option<OffsetMeasurement>],
        fin: Option<&[Option<OffsetMeasurement>]>,
    ) -> Self {
        fn conv(ms: &[Option<OffsetMeasurement>]) -> Vec<Option<WireMeasurement>> {
            ms.iter()
                .map(|m| m.as_ref().map(WireMeasurement::from_measurement))
                .collect()
        }
        self.init = conv(init);
        self.fin = fin.map(conv);
        self
    }

    /// Rebuild the pipeline configuration this header describes.
    pub fn pipeline_config(&self) -> Result<PipelineConfig, WireError> {
        Ok(PipelineConfig {
            presync: match self.presync {
                0 => PreSync::None,
                1 => PreSync::AlignOnly,
                2 => PreSync::Linear,
                _ => return Err(WireError::BadPayload("presync")),
            },
            clc: self.clc.filter(|_| self.method != 0).map(|c| ClcParams {
                mu: c.mu,
                backward: c.backward,
                backward_window_factor: c.backward_window_factor,
            }),
            method: match self.method {
                0 | 1 => SyncMethod::Clc,
                2 => SyncMethod::Online(OnlineSpec {
                    probes: Arc::new(
                        self.probes
                            .iter()
                            .map(|ps| {
                                ps.iter()
                                    .map(|m| m.to_measurement())
                                    .collect::<Vec<_>>()
                            })
                            .collect(),
                    ),
                    kalman: self.kalman.to_params(),
                }),
                _ => return Err(WireError::BadPayload("method")),
            },
            ..PipelineConfig::default()
        })
    }

    /// Measurement vectors in the pipeline's types.
    pub fn measurements(
        &self,
    ) -> (
        Vec<Option<OffsetMeasurement>>,
        Option<Vec<Option<OffsetMeasurement>>>,
    ) {
        let conv = |ms: &[Option<WireMeasurement>]| {
            ms.iter()
                .map(|m| m.map(WireMeasurement::to_measurement))
                .collect()
        };
        (conv(&self.init), self.fin.as_deref().map(conv))
    }
}

/// One CLC correction on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireJump {
    /// Timeline index within the trace.
    pub proc: u32,
    /// Event index within the timeline.
    pub idx: u32,
    /// Jump size in picoseconds.
    pub size_ps: i64,
}

/// Terminal success summary of one wire job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireJobResult {
    /// Attempts the service needed (1 = no retry).
    pub attempts: u32,
    /// Queue wait in microseconds.
    pub queue_wait_us: u64,
    /// Run time of the successful attempt in microseconds.
    pub run_time_us: u64,
    /// Total CLC jumps (the `Jumps` frames carry the set itself).
    pub n_jumps: u64,
    /// Largest single correction, picoseconds.
    pub max_jump_ps: i64,
    /// Events whose timestamp changed.
    pub events_moved: u64,
    /// Events inspected.
    pub events_total: u64,
    /// Output frames (incremental mode; 0 for batch).
    pub frames: u64,
    /// Whether violation censuses ran (batch mode only).
    pub census_present: bool,
    /// Violated constraints in the raw trace.
    pub raw_violations: u64,
    /// Violated constraints after pre-synchronisation.
    pub after_presync_violations: u64,
    /// Violated constraints after the CLC (`u64::MAX` = stage skipped).
    pub after_clc_violations: u64,
}

/// A typed protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener.
    Hello {
        /// Protocol magic ([`crate::MAGIC`]).
        magic: u32,
        /// Protocol version the client speaks.
        version: u16,
        /// Tenant auth token.
        token: String,
    },
    /// Handshake accept.
    HelloAck {
        /// Version the server selected.
        version: u16,
        /// Initial chunk-byte credit.
        credit: u64,
    },
    /// Job header.
    JobConfig(Box<WireJobConfig>),
    /// Raw stream bytes (input or batch output).
    Chunk(Vec<u8>),
    /// End of the input stream.
    ChunkEnd,
    /// Streamed corrected chunk of an incremental job.
    CorrectedFrame {
        /// Monotone chunk index from 0 (magic chunk) to `frames + 1`
        /// (trailer chunk); lets a transparent server-side retry skip
        /// chunks the client already received.
        index: u64,
        /// The chunk bytes.
        bytes: Vec<u8>,
    },
    /// CLC jump batch.
    Jumps(Vec<WireJump>),
    /// Terminal success summary.
    JobResult(WireJobResult),
    /// Typed terminal error.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-oriented detail (bounded).
        detail: String,
    },
    /// Flow-control credit grant.
    Credit {
        /// Additional chunk-payload bytes the client may send.
        grant: u64,
    },
    /// Cancel the in-flight job.
    Cancel,
}

/// Little-endian write helpers.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(kind: FrameKind) -> Enc {
        // Length placeholder; patched in `finish`.
        Enc { buf: vec![0, 0, 0, 0, kind as u8] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    fn finish(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

/// Little-endian read cursor with typed underflow errors.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::BadPayload(field));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self, f: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, f)?[0])
    }
    fn u16(&mut self, f: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, f)?.try_into().unwrap()))
    }
    fn u32(&mut self, f: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, f)?.try_into().unwrap()))
    }
    fn u64(&mut self, f: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, f)?.try_into().unwrap()))
    }
    fn i64(&mut self, f: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8, f)?.try_into().unwrap()))
    }
    fn f64(&mut self, f: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, f)?.try_into().unwrap()))
    }
    fn finish(self, f: &'static str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload(f))
        }
    }
}

fn enc_measurements(e: &mut Enc, ms: &[Option<WireMeasurement>]) {
    e.u32(ms.len() as u32);
    for m in ms {
        match m {
            None => e.u8(0),
            Some(m) => {
                e.u8(1);
                e.i64(m.worker_time_ps);
                e.i64(m.offset_ps);
                e.i64(m.rtt_ps);
            }
        }
    }
}

fn dec_measurements(d: &mut Dec) -> Result<Vec<Option<WireMeasurement>>, WireError> {
    let n = d.u32("measurement count")? as usize;
    // A count that cannot fit in the remaining payload is hostile.
    if n > d.buf.len() {
        return Err(WireError::BadPayload("measurement count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match d.u8("measurement flag")? {
            0 => None,
            1 => Some(WireMeasurement {
                worker_time_ps: d.i64("measurement worker_time")?,
                offset_ps: d.i64("measurement offset")?,
                rtt_ps: d.i64("measurement rtt")?,
            }),
            _ => return Err(WireError::BadPayload("measurement flag")),
        });
    }
    Ok(out)
}

impl Frame {
    /// This frame's kind byte.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Hello { .. } => FrameKind::Hello,
            Frame::HelloAck { .. } => FrameKind::HelloAck,
            Frame::JobConfig(_) => FrameKind::JobConfig,
            Frame::Chunk(_) => FrameKind::Chunk,
            Frame::ChunkEnd => FrameKind::ChunkEnd,
            Frame::CorrectedFrame { .. } => FrameKind::CorrectedFrame,
            Frame::Jumps(_) => FrameKind::Jumps,
            Frame::JobResult(_) => FrameKind::JobResult,
            Frame::Error { .. } => FrameKind::Error,
            Frame::Credit { .. } => FrameKind::Credit,
            Frame::Cancel => FrameKind::Cancel,
        }
    }

    /// Encode to wire bytes (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new(self.kind());
        match self {
            Frame::Hello { magic, version, token } => {
                e.u32(*magic);
                e.u16(*version);
                let token = &token.as_bytes()[..token.len().min(u16::MAX as usize)];
                e.u16(token.len() as u16);
                e.bytes(token);
            }
            Frame::HelloAck { version, credit } => {
                e.u16(*version);
                e.u64(*credit);
            }
            Frame::JobConfig(cfg) => {
                match cfg.mode {
                    WireMode::Batch => {
                        e.u8(0);
                        e.u64(0);
                    }
                    WireMode::Incremental { window_events } => {
                        e.u8(1);
                        e.u64(window_events);
                    }
                }
                e.u8(cfg.priority);
                e.u64(cfg.deadline_us);
                e.u32(cfg.max_retries);
                e.u8(cfg.presync);
                match &cfg.clc {
                    None => e.u8(0),
                    Some(c) => {
                        e.u8(1);
                        e.f64(c.mu);
                        e.u8(c.backward as u8);
                        e.f64(c.backward_window_factor);
                    }
                }
                match &cfg.lmin {
                    WireLatency::Uniform(ps) => {
                        e.u8(0);
                        e.i64(*ps);
                    }
                    WireLatency::Table { n, entries } => {
                        e.u8(1);
                        e.u32(*n);
                        for v in entries {
                            e.i64(*v);
                        }
                    }
                }
                enc_measurements(&mut e, &cfg.init);
                match &cfg.fin {
                    None => e.u8(0),
                    Some(fin) => {
                        e.u8(1);
                        enc_measurements(&mut e, fin);
                    }
                }
                e.u8(cfg.method);
                e.f64(cfg.kalman.drift_noise_ppm2_per_s);
                e.f64(cfg.kalman.offset_noise_us2_per_s);
                e.f64(cfg.kalman.probe_noise_floor_us);
                e.u32(cfg.probes.len() as u32);
                for ps in &cfg.probes {
                    e.u32(ps.len() as u32);
                    for m in ps {
                        e.i64(m.worker_time_ps);
                        e.i64(m.offset_ps);
                        e.i64(m.rtt_ps);
                    }
                }
            }
            Frame::Chunk(bytes) => e.bytes(bytes),
            Frame::ChunkEnd | Frame::Cancel => {}
            Frame::CorrectedFrame { index, bytes } => {
                e.u64(*index);
                e.bytes(bytes);
            }
            Frame::Jumps(jumps) => {
                e.u32(jumps.len() as u32);
                for j in jumps {
                    e.u32(j.proc);
                    e.u32(j.idx);
                    e.i64(j.size_ps);
                }
            }
            Frame::JobResult(r) => {
                e.u32(r.attempts);
                e.u64(r.queue_wait_us);
                e.u64(r.run_time_us);
                e.u64(r.n_jumps);
                e.i64(r.max_jump_ps);
                e.u64(r.events_moved);
                e.u64(r.events_total);
                e.u64(r.frames);
                e.u8(r.census_present as u8);
                e.u64(r.raw_violations);
                e.u64(r.after_presync_violations);
                e.u64(r.after_clc_violations);
            }
            Frame::Error { code, detail } => {
                e.u8(*code as u8);
                let detail = &detail.as_bytes()[..detail.len().min(1024)];
                e.u16(detail.len() as u16);
                e.bytes(detail);
            }
            Frame::Credit { grant } => e.u64(*grant),
        }
        e.finish()
    }

    /// Decode a frame from its kind byte and payload (as the scanner
    /// produced them).
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let kind = FrameKind::from_u8(kind)?;
        let mut d = Dec::new(payload);
        let frame = match kind {
            FrameKind::Hello => {
                let magic = d.u32("hello magic")?;
                let version = d.u16("hello version")?;
                let tlen = d.u16("hello token length")? as usize;
                let token = d.take(tlen, "hello token")?;
                let token = std::str::from_utf8(token)
                    .map_err(|_| WireError::BadPayload("hello token utf8"))?
                    .to_string();
                Frame::Hello { magic, version, token }
            }
            FrameKind::HelloAck => Frame::HelloAck {
                version: d.u16("ack version")?,
                credit: d.u64("ack credit")?,
            },
            FrameKind::JobConfig => {
                let mode = match d.u8("mode")? {
                    0 => {
                        d.u64("window")?;
                        WireMode::Batch
                    }
                    1 => WireMode::Incremental { window_events: d.u64("window")? },
                    _ => return Err(WireError::BadPayload("mode")),
                };
                let priority = d.u8("priority")?;
                if priority > 2 {
                    return Err(WireError::BadPayload("priority"));
                }
                let deadline_us = d.u64("deadline")?;
                let max_retries = d.u32("max_retries")?;
                let presync = d.u8("presync")?;
                let clc = match d.u8("clc flag")? {
                    0 => None,
                    1 => Some(WireClc {
                        mu: d.f64("clc mu")?,
                        backward: d.u8("clc backward")? != 0,
                        backward_window_factor: d.f64("clc window factor")?,
                    }),
                    _ => return Err(WireError::BadPayload("clc flag")),
                };
                let lmin = match d.u8("lmin tag")? {
                    0 => WireLatency::Uniform(d.i64("lmin uniform")?),
                    1 => {
                        let n = d.u32("lmin table n")?;
                        let total = (n as u64).saturating_mul(n as u64);
                        if total.saturating_mul(8) > payload.len() as u64 {
                            return Err(WireError::BadPayload("lmin table n"));
                        }
                        let mut entries = Vec::with_capacity(total as usize);
                        for _ in 0..total {
                            entries.push(d.i64("lmin table entry")?);
                        }
                        WireLatency::Table { n, entries }
                    }
                    _ => return Err(WireError::BadPayload("lmin tag")),
                };
                let init = dec_measurements(&mut d)?;
                let fin = match d.u8("fin flag")? {
                    0 => None,
                    1 => Some(dec_measurements(&mut d)?),
                    _ => return Err(WireError::BadPayload("fin flag")),
                };
                let method = d.u8("method")?;
                if method > 2 {
                    return Err(WireError::BadPayload("method"));
                }
                let kalman = WireKalman {
                    drift_noise_ppm2_per_s: d.f64("kalman drift noise")?,
                    offset_noise_us2_per_s: d.f64("kalman offset noise")?,
                    probe_noise_floor_us: d.f64("kalman probe floor")?,
                };
                let n_lists = d.u32("probe proc count")? as usize;
                if n_lists > payload.len() {
                    return Err(WireError::BadPayload("probe proc count"));
                }
                let mut probes = Vec::with_capacity(n_lists);
                for _ in 0..n_lists {
                    let k = d.u32("probe count")? as usize;
                    if k.saturating_mul(24) > payload.len() {
                        return Err(WireError::BadPayload("probe count"));
                    }
                    let mut list = Vec::with_capacity(k);
                    for _ in 0..k {
                        list.push(WireMeasurement {
                            worker_time_ps: d.i64("probe worker_time")?,
                            offset_ps: d.i64("probe offset")?,
                            rtt_ps: d.i64("probe rtt")?,
                        });
                    }
                    probes.push(list);
                }
                d.finish("job config trailing bytes")?;
                Frame::JobConfig(Box::new(WireJobConfig {
                    mode,
                    priority,
                    deadline_us,
                    max_retries,
                    presync,
                    clc,
                    lmin,
                    init,
                    fin,
                    method,
                    kalman,
                    probes,
                }))
            }
            FrameKind::Chunk => Frame::Chunk(payload.to_vec()),
            FrameKind::ChunkEnd => {
                d.finish("chunk-end trailing bytes")?;
                Frame::ChunkEnd
            }
            FrameKind::CorrectedFrame => {
                let index = d.u64("corrected index")?;
                Frame::CorrectedFrame { index, bytes: payload[8..].to_vec() }
            }
            FrameKind::Jumps => {
                let n = d.u32("jump count")? as usize;
                if n.saturating_mul(16) > payload.len() {
                    return Err(WireError::BadPayload("jump count"));
                }
                let mut jumps = Vec::with_capacity(n);
                for _ in 0..n {
                    jumps.push(WireJump {
                        proc: d.u32("jump proc")?,
                        idx: d.u32("jump idx")?,
                        size_ps: d.i64("jump size")?,
                    });
                }
                d.finish("jumps trailing bytes")?;
                Frame::Jumps(jumps)
            }
            FrameKind::JobResult => {
                let r = WireJobResult {
                    attempts: d.u32("result attempts")?,
                    queue_wait_us: d.u64("result queue wait")?,
                    run_time_us: d.u64("result run time")?,
                    n_jumps: d.u64("result jumps")?,
                    max_jump_ps: d.i64("result max jump")?,
                    events_moved: d.u64("result events moved")?,
                    events_total: d.u64("result events total")?,
                    frames: d.u64("result frames")?,
                    census_present: d.u8("result census flag")? != 0,
                    raw_violations: d.u64("result raw violations")?,
                    after_presync_violations: d.u64("result presync violations")?,
                    after_clc_violations: d.u64("result clc violations")?,
                };
                d.finish("result trailing bytes")?;
                Frame::JobResult(r)
            }
            FrameKind::Error => {
                let code = ErrorCode::from_u8(d.u8("error code")?)?;
                let dlen = d.u16("error detail length")? as usize;
                let detail = d.take(dlen, "error detail")?;
                let detail = String::from_utf8_lossy(detail).into_owned();
                Frame::Error { code, detail }
            }
            FrameKind::Credit => {
                let grant = d.u64("credit grant")?;
                d.finish("credit trailing bytes")?;
                Frame::Credit { grant }
            }
            FrameKind::Cancel => {
                d.finish("cancel trailing bytes")?;
                Frame::Cancel
            }
        };
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), 4 + len);
        let back = Frame::decode(bytes[4], &bytes[5..]).expect("decode");
        assert_eq!(f, back);
    }

    fn config() -> WireJobConfig {
        WireJobConfig {
            mode: WireMode::Incremental { window_events: 64 },
            priority: 0,
            deadline_us: 12_000,
            max_retries: 3,
            presync: 2,
            clc: Some(WireClc { mu: 0.99, backward: true, backward_window_factor: 50.0 }),
            lmin: WireLatency::Table { n: 2, entries: vec![0, 4_000_000, 4_000_000, 0] },
            init: vec![None, Some(WireMeasurement { worker_time_ps: 1, offset_ps: -2, rtt_ps: 3 })],
            fin: Some(vec![None, None]),
            method: 1,
            kalman: WireKalman::default(),
            probes: Vec::new(),
        }
    }

    fn online_config() -> WireJobConfig {
        WireJobConfig {
            method: 2,
            kalman: WireKalman {
                drift_noise_ppm2_per_s: 2.5,
                offset_noise_us2_per_s: 0.5,
                probe_noise_floor_us: 3.0,
            },
            probes: vec![
                Vec::new(),
                vec![
                    WireMeasurement { worker_time_ps: 10, offset_ps: 20, rtt_ps: 30 },
                    WireMeasurement { worker_time_ps: 40, offset_ps: -50, rtt_ps: 60 },
                ],
            ],
            ..config()
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::Hello { magic: crate::MAGIC, version: 1, token: "tenant-a".into() });
        roundtrip(Frame::HelloAck { version: 1, credit: 1 << 20 });
        roundtrip(Frame::JobConfig(Box::new(config())));
        roundtrip(Frame::JobConfig(Box::new(online_config())));
        roundtrip(Frame::Chunk(vec![1, 2, 3, 255]));
        roundtrip(Frame::Chunk(Vec::new()));
        roundtrip(Frame::ChunkEnd);
        roundtrip(Frame::CorrectedFrame { index: 7, bytes: vec![9; 33] });
        roundtrip(Frame::Jumps(vec![
            WireJump { proc: 0, idx: 4, size_ps: 123 },
            WireJump { proc: 3, idx: 0, size_ps: -1 },
        ]));
        roundtrip(Frame::JobResult(WireJobResult {
            attempts: 2,
            queue_wait_us: 5,
            run_time_us: 1000,
            n_jumps: 3,
            max_jump_ps: 777,
            events_moved: 12,
            events_total: 100,
            frames: 0,
            census_present: true,
            raw_violations: 9,
            after_presync_violations: 2,
            after_clc_violations: 0,
        }));
        roundtrip(Frame::Error { code: ErrorCode::OverBudget, detail: "no room".into() });
        roundtrip(Frame::Credit { grant: 4096 });
        roundtrip(Frame::Cancel);
    }

    #[test]
    fn job_config_restores_pipeline_pieces() {
        let cfg = config();
        let pipeline = cfg.pipeline_config().expect("valid");
        assert_eq!(pipeline.presync, PreSync::Linear);
        let clc = pipeline.clc.expect("clc present");
        assert_eq!(clc.mu, 0.99);
        assert!(clc.backward);
        let (init, fin) = cfg.measurements();
        assert_eq!(init.len(), 2);
        assert!(init[0].is_none() && init[1].is_some());
        assert_eq!(fin.expect("fin").len(), 2);
        let model = cfg.lmin.to_model();
        assert_eq!(model.l_min(Rank(0), Rank(1)), Dur::from_us(4));
        assert_eq!(model.l_min(Rank(0), Rank(0)), Dur::ZERO);
    }

    #[test]
    fn online_job_config_restores_method_probes_and_tuning() {
        let cfg = online_config();
        let pipeline = cfg.pipeline_config().expect("valid");
        match &pipeline.method {
            SyncMethod::Online(spec) => {
                assert_eq!(spec.kalman.drift_noise_ppm2_per_s, 2.5);
                assert_eq!(spec.kalman.probe_noise_floor_us, 3.0);
                assert_eq!(spec.probes.len(), 2);
                assert!(spec.probes[0].is_empty());
                assert_eq!(spec.probes[1].len(), 2);
                assert_eq!(spec.probes[1][0].worker_time.as_ps(), 10);
            }
            other => panic!("expected online method, got {other:?}"),
        }
        // Round trip back through WireJobConfig::new preserves the method
        // byte, tuning, and every probe.
        let back = WireJobConfig::new(&pipeline, cfg.lmin.clone());
        assert_eq!(back.method, 2);
        assert_eq!(back.kalman, cfg.kalman);
        assert_eq!(back.probes, cfg.probes);
    }

    /// Method byte 0 (interpolation only, from older clients) still reads:
    /// it turns the CLC off whatever the header's CLC field says, and the
    /// config it decodes to is written back as method 1 with no CLC.
    #[test]
    fn interp_method_byte_decodes_to_the_clc_off() {
        let wire = WireJobConfig { method: 0, ..config() };
        roundtrip(Frame::JobConfig(Box::new(wire.clone())));
        let pipeline = wire.pipeline_config().expect("valid");
        assert!(matches!(pipeline.method, SyncMethod::Clc));
        assert!(pipeline.clc.is_none());
        assert_eq!(pipeline.presync, PreSync::Linear);
        let back = WireJobConfig::new(&pipeline, wire.lmin.clone());
        assert_eq!((back.method, back.clc), (1, None));
        let again = back.pipeline_config().expect("valid");
        assert!(matches!(again.method, SyncMethod::Clc) && again.clc.is_none());
    }

    #[test]
    fn unknown_method_byte_is_rejected() {
        let cfg = WireJobConfig { method: 3, ..config() };
        assert!(matches!(
            cfg.pipeline_config(),
            Err(WireError::BadPayload("method"))
        ));
    }

    #[test]
    fn truncated_payloads_fail_typed_for_every_prefix() {
        let frames = [
            Frame::Hello { magic: crate::MAGIC, version: 1, token: "t".into() },
            Frame::JobConfig(Box::new(config())),
            Frame::Jumps(vec![WireJump { proc: 1, idx: 2, size_ps: 3 }]),
            Frame::JobResult(WireJobResult {
                attempts: 1,
                queue_wait_us: 0,
                run_time_us: 0,
                n_jumps: 0,
                max_jump_ps: 0,
                events_moved: 0,
                events_total: 0,
                frames: 0,
                census_present: false,
                raw_violations: 0,
                after_presync_violations: 0,
                after_clc_violations: u64::MAX,
            }),
            Frame::Error { code: ErrorCode::Pipeline, detail: "x".into() },
            Frame::Credit { grant: 1 },
        ];
        for f in frames {
            let bytes = f.encode();
            let payload = &bytes[5..];
            for cut in 0..payload.len() {
                match Frame::decode(bytes[4], &payload[..cut]) {
                    Err(WireError::BadPayload(_)) => {}
                    Ok(g) => {
                        // Only variable-tail frames (Chunk-like) may decode
                        // a prefix; typed frames must not.
                        panic!("prefix {cut} of {:?} decoded as {g:?}", f.kind())
                    }
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // A Jumps frame claiming u32::MAX entries in a 10-byte payload.
        let mut payload = vec![0u8; 10];
        payload[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(FrameKind::Jumps as u8, &payload),
            Err(WireError::BadPayload("jump count"))
        );
        // A latency table claiming 2^31 ranks.
        let cfg = Frame::JobConfig(Box::new(config())).encode();
        let kind = cfg[4];
        let mut p = cfg[5..].to_vec();
        // lmin tag offset: mode(1+8) prio(1) deadline(8) retries(4)
        // presync(1) clc(1+17) = 41.
        assert_eq!(p[41], 1, "lmin tag expected at offset 41");
        p[42..46].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        assert_eq!(
            Frame::decode(kind, &p),
            Err(WireError::BadPayload("lmin table n"))
        );
    }

    /// Protocol version 2 carried a `storage` byte after `presync`
    /// (payload offset 23). Such a payload is not a current `JobConfig`:
    /// every following field is read one byte early and the decode ends
    /// typed, for either value the byte could take.
    #[test]
    fn v2_layout_job_config_fails_typed() {
        for cfg in [config(), online_config()] {
            let bytes = Frame::JobConfig(Box::new(cfg)).encode();
            for storage in [0u8, 1] {
                let mut p = bytes[5..].to_vec();
                p.insert(23, storage);
                assert!(
                    matches!(Frame::decode(bytes[4], &p), Err(WireError::BadPayload(_))),
                    "v2 layout (storage={storage}) decoded"
                );
            }
        }
    }

    /// Protocol version 3 carried a `parallel` section between `clc` and
    /// `lmin` (payload offset 41 of these configs): a flag byte, plus
    /// workers and shard size when set. Neither layout decodes as a
    /// version-4 `JobConfig`.
    #[test]
    fn v3_layout_job_config_fails_typed() {
        for cfg in [config(), online_config()] {
            let bytes = Frame::JobConfig(Box::new(cfg)).encode();
            let sharded = [&[1u8][..], &2u32.to_le_bytes(), &8192u32.to_le_bytes()].concat();
            for section in [vec![0u8], sharded] {
                let mut p = bytes[5..].to_vec();
                p.splice(41..41, section.iter().copied());
                assert!(
                    matches!(Frame::decode(bytes[4], &p), Err(WireError::BadPayload(_))),
                    "v3 layout ({} section bytes) decoded",
                    section.len()
                );
            }
        }
    }

    /// A `JobConfig` payload is its fixed fields plus its measurement,
    /// table and probe lists, byte for byte — no section left over from an
    /// earlier protocol version.
    #[test]
    fn job_config_size_arithmetic() {
        let payload = |cfg: WireJobConfig| Frame::JobConfig(Box::new(cfg)).encode().len() - 5;
        // mode(1+8) prio(1) deadline(8) retries(4) presync(1) clc(1+17)
        // lmin table(1+4+4×8) init(4 + 1 + 1+24) fin(1 + 4 + 1 + 1)
        // method(1) kalman(24) probe lists(4).
        assert_eq!(payload(config()), 41 + 37 + 30 + 7 + 29);
        // Two probe lists: an empty one and one of two 24-byte probes.
        assert_eq!(payload(online_config()), payload(config()) + 2 * 4 + 2 * 24);
        let minimal = WireJobConfig {
            clc: None,
            lmin: WireLatency::Uniform(1),
            init: Vec::new(),
            fin: None,
            ..config()
        };
        assert_eq!(payload(minimal), 24 + 9 + 4 + 1 + 29);
    }

    #[test]
    fn unknown_kind_and_code_fail_typed() {
        assert_eq!(Frame::decode(200, &[]), Err(WireError::UnknownKind(200)));
        assert_eq!(
            Frame::decode(FrameKind::Error as u8, &[99, 0, 0]),
            Err(WireError::BadPayload("error code"))
        );
    }
}
