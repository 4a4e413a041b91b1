//! The per-connection protocol driver: handshake, credit-bound upload,
//! job execution against the shared service core, and result streaming.
//!
//! Written sans-io over [`Transport`] so the simsched fault campaign can
//! drive it through an in-memory pipe with injected partial writes,
//! mid-stream disconnects, and stalled readers.

use super::{count, NetShared, ReadOutcome, TenantSlot, TenantState, Transport};
use crate::job::{JobError, JobHandle, JobInput, JobSpec, JobSuccess, Priority};
use crate::metrics::Counter;
use crate::service::Shared;
use crate::SubmitError;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use syncd_wire::{
    ErrorCode, Frame, FrameScanner, WireError, WireJobConfig, WireJobResult, WireJump,
    WireMode, CHUNK_PAYLOAD, MAGIC, VERSION,
};
use tracefmt::io::to_binary_columnar_v3_blocked;

/// Smallest credit grant worth issuing: below this the per-chunk protocol
/// overhead dominates and the client would crawl.
const MIN_GRANT: u64 = 64 * 1024;

/// Bound on corrected-output bytes buffered between the executor's frame
/// sink and the socket writer. When the client stops reading, the
/// executor blocks here — and after [`SINK_STALL`] the sink reports
/// `false`, cancelling the job instead of holding an executor thread
/// hostage forever.
const SINK_CAP: usize = 4 * 1024 * 1024;

/// Stalled-reader cutoff for the frame sink.
const SINK_STALL: Duration = Duration::from_secs(30);

/// How long a client may sit with zero credit (budget exhausted by other
/// tenants) before the job fails typed with `OverBudget`.
const STARVATION_LIMIT: Duration = Duration::from_secs(30);

/// Events per block when re-encoding a batch job's corrected trace.
const OUT_BLOCK_EVENTS: usize = 4096;

/// Jumps per `Jumps` frame.
const JUMP_BATCH: usize = 8192;

/// Why a connection is being closed.
enum Close {
    /// Orderly client EOF at a protocol boundary.
    Clean,
    /// The client vanished (EOF or I/O error mid-protocol).
    Gone,
    /// The client's bytes violated the frame codec.
    Wire(WireError),
    /// The client's frames violated the protocol state machine.
    Proto(&'static str),
    /// A typed application error to report before closing.
    App(ErrorCode, String),
    /// The server is shutting down.
    Shutdown,
}

/// Serve one connection to completion over any transport: the entry point
/// for both the TCP accept loop and the simsched fault campaign. Any
/// reservation the connection still holds against the service memory
/// budget is released on the way out, whatever the close reason.
pub(crate) fn serve<T: Transport>(t: &mut T, net: &NetShared) {
    count(net, Counter::NetConnections);
    let shared = Arc::clone(net.service.shared());
    let mut conn = Conn {
        t,
        net,
        shared,
        reader: FrameReader::new(),
        reserved: 0,
        outstanding: 0,
    };
    let close = conn.drive();
    if conn.reserved > 0 {
        conn.shared.release(conn.reserved);
    }
    let frame = match close {
        Close::Clean => None,
        Close::Gone => {
            count(net, Counter::NetDisconnects);
            None
        }
        Close::Wire(e) => Some(Frame::Error {
            code: ErrorCode::Malformed,
            detail: e.to_string(),
        }),
        Close::Proto(what) => Some(Frame::Error {
            code: ErrorCode::Protocol,
            detail: what.to_string(),
        }),
        Close::App(code, detail) => Some(Frame::Error { code, detail }),
        Close::Shutdown => Some(Frame::Error {
            code: ErrorCode::Shutdown,
            detail: "server shutting down".to_string(),
        }),
    };
    if let Some(frame) = frame {
        // Best effort: the peer may already be gone.
        let _ = conn.t.write_all(&frame.encode());
    }
}

/// Drive a protocol conversation over `transport` against a server's
/// service — re-exported for integration tests and the fault campaign.
pub fn serve_transport<T: Transport>(server: &super::NetServer, transport: &mut T) {
    server.serve_transport(transport);
}

/// One step of the frame reader: at most one transport read.
enum Step {
    Frame(Frame),
    /// The read's bytes went to the scanner and completed no frame yet.
    /// Progress: the driver reads again without backing off.
    Partial,
    /// The transport had no byte to give ([`ReadOutcome::Idle`]): the
    /// only outcome a driver loop may sleep or park on.
    Idle,
    Eof,
}

/// Frame reassembly over a [`Transport`], buffering decoded frames.
struct FrameReader {
    scanner: FrameScanner,
    pending: VecDeque<Frame>,
}

impl FrameReader {
    fn new() -> Self {
        FrameReader {
            scanner: FrameScanner::new(),
            pending: VecDeque::new(),
        }
    }

    fn poll<T: Transport>(&mut self, t: &mut T) -> Result<Step, Close> {
        if let Some(f) = self.pending.pop_front() {
            return Ok(Step::Frame(f));
        }
        let mut buf = [0u8; 64 * 1024];
        match t.read_some(&mut buf) {
            Ok(ReadOutcome::Data(n)) => {
                self.pending
                    .extend(self.scanner.feed(&buf[..n]).map_err(Close::Wire)?);
                match self.pending.pop_front() {
                    Some(f) => Ok(Step::Frame(f)),
                    None => Ok(Step::Partial),
                }
            }
            Ok(ReadOutcome::Idle) => Ok(Step::Idle),
            Ok(ReadOutcome::Eof) => {
                self.scanner.finish().map_err(Close::Wire)?;
                Ok(Step::Eof)
            }
            Err(_) => Err(Close::Gone),
        }
    }
}

struct Conn<'a, T: Transport> {
    t: &'a mut T,
    net: &'a NetShared,
    shared: Arc<Shared>,
    reader: FrameReader,
    /// Budget bytes this connection holds via [`Shared::try_reserve`]:
    /// always `outstanding` + bytes buffered for the in-flight upload.
    reserved: u64,
    /// Granted-but-unspent client credit, every byte of it backed by
    /// `reserved`.
    outstanding: u64,
}

impl<T: Transport> Conn<'_, T> {
    fn send(&mut self, frame: &Frame) -> Result<(), Close> {
        self.t.write_all(&frame.encode()).map_err(|_| Close::Gone)
    }

    /// One reader step, with the reads that completed no frame counted by
    /// kind. Every driver loop goes through here and makes its
    /// per-iteration checks once per read, not once per frame, so a peer
    /// that trickles single bytes cannot starve them.
    fn poll(&mut self) -> Result<Step, Close> {
        let step = self.reader.poll(self.t)?;
        match step {
            Step::Partial => count(self.net, Counter::NetPartialReads),
            Step::Idle => count(self.net, Counter::NetIdleReads),
            Step::Frame(_) | Step::Eof => {}
        }
        Ok(step)
    }

    fn check_stop(&self) -> Result<(), Close> {
        if self.net.stop.load(Ordering::SeqCst) {
            return Err(Close::Shutdown);
        }
        Ok(())
    }

    /// Back off after an idle read. A blocking transport has already
    /// waited out its poll timeout by then; this paces the ones that
    /// never block.
    fn idle_backoff(&self) {
        count(self.net, Counter::NetIdleSleeps);
        std::thread::sleep(Duration::from_micros(500));
    }

    /// Block for the next frame; `Ok(None)` is orderly EOF.
    fn wait_frame(&mut self) -> Result<Option<Frame>, Close> {
        loop {
            match self.poll()? {
                Step::Frame(f) => return Ok(Some(f)),
                Step::Eof => return Ok(None),
                Step::Partial => self.check_stop()?,
                Step::Idle => {
                    self.check_stop()?;
                    self.idle_backoff();
                }
            }
        }
    }

    fn drive(&mut self) -> Close {
        let tenant = match self.handshake() {
            Ok(t) => t,
            Err(c) => return c,
        };
        // `_slot` releases the tenant's connection slot on drop.
        let (_slot, tenant) = tenant;
        loop {
            match self.wait_frame() {
                Ok(None) => return Close::Clean,
                Ok(Some(Frame::JobConfig(cfg))) => {
                    if let Err(c) = self.run_job(*cfg, &tenant) {
                        return c;
                    }
                }
                // A cancel with no job in flight is a no-op.
                Ok(Some(Frame::Cancel)) => {}
                Ok(Some(_)) => return Close::Proto("expected JobConfig"),
                Err(c) => return c,
            }
        }
    }

    fn handshake(&mut self) -> Result<(TenantSlot, Arc<TenantState>), Close> {
        let frame = match self.wait_frame()? {
            Some(f) => f,
            None => return Err(Close::Clean),
        };
        let (magic, version, token) = match frame {
            Frame::Hello {
                magic,
                version,
                token,
            } => (magic, version, token),
            _ => return Err(Close::Proto("expected Hello")),
        };
        if magic != MAGIC {
            return Err(Close::Proto("bad protocol magic"));
        }
        if version != VERSION {
            return Err(Close::App(
                ErrorCode::VersionMismatch,
                format!("server speaks version {VERSION}, client sent {version}"),
            ));
        }
        let tenant = match self.net.tenant(&token) {
            Some(t) => Arc::clone(t),
            None => {
                count(self.net, Counter::NetAuthFailures);
                return Err(Close::App(
                    ErrorCode::AuthFailed,
                    "unknown tenant token".to_string(),
                ));
            }
        };
        let slot = match TenantSlot::claim(&tenant) {
            Some(s) => s,
            None => {
                return Err(Close::App(
                    ErrorCode::QuotaExceeded,
                    format!(
                        "tenant connection limit ({}) reached",
                        tenant.cfg.max_connections
                    ),
                ))
            }
        };
        self.send(&Frame::HelloAck {
            version: VERSION,
            credit: 0,
        })?;
        Ok((slot, tenant))
    }

    /// Try to top the client's credit back up toward the ingest window.
    /// Non-blocking: a refusal (budget full) just means no grant now.
    fn try_grant(&mut self) -> Result<bool, Close> {
        let window = self.net.ingest_window;
        if self.outstanding >= window {
            return Ok(false);
        }
        let mut add = window - self.outstanding;
        while add >= MIN_GRANT && !self.shared.try_reserve(add) {
            add /= 2;
        }
        if add < MIN_GRANT {
            return Ok(false);
        }
        self.reserved += add;
        self.outstanding += add;
        self.send(&Frame::Credit { grant: add })?;
        Ok(true)
    }

    fn run_job(&mut self, cfg: WireJobConfig, tenant: &TenantState) -> Result<(), Close> {
        // ---- upload phase: credit-bound chunk collection -------------
        let window = self.net.ingest_window;
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        let mut uploaded = 0u64;
        let mut starved_since: Option<Instant> = None;
        loop {
            if self.outstanding < window / 2 {
                self.try_grant()?;
            }
            if self.outstanding == 0 {
                // The budget refused even a minimum grant: the client
                // cannot make progress. Bounded patience, then typed.
                let since = *starved_since.get_or_insert_with(Instant::now);
                if since.elapsed() > STARVATION_LIMIT {
                    return Err(Close::App(
                        ErrorCode::OverBudget,
                        "no admission budget available for upload credit".to_string(),
                    ));
                }
            } else {
                starved_since = None;
            }
            match self.poll()? {
                Step::Partial => self.check_stop()?,
                Step::Idle => {
                    self.check_stop()?;
                    self.idle_backoff();
                }
                Step::Eof => return Err(Close::Gone),
                Step::Frame(Frame::Chunk(bytes)) => {
                    let len = bytes.len() as u64;
                    if len > self.outstanding {
                        return Err(Close::Proto("chunk exceeds granted credit"));
                    }
                    // The bytes move from "granted" to "buffered"; the
                    // reservation backing them is unchanged.
                    self.outstanding -= len;
                    uploaded += len;
                    if uploaded > tenant.cfg.max_job_bytes {
                        return Err(Close::App(
                            ErrorCode::QuotaExceeded,
                            format!(
                                "job exceeds tenant upload quota ({} bytes)",
                                tenant.cfg.max_job_bytes
                            ),
                        ));
                    }
                    chunks.push(bytes);
                }
                Step::Frame(Frame::ChunkEnd) => break,
                Step::Frame(Frame::Cancel) => {
                    return Err(Close::App(
                        ErrorCode::Cancelled,
                        "job cancelled during upload".to_string(),
                    ))
                }
                Step::Frame(_) => return Err(Close::Proto("unexpected frame during upload")),
            }
        }
        // Hand the buffered bytes to admission control: release the
        // reservation that covered them, then submit, which re-prices the
        // stream from its block headers. The handover is not atomic, so a
        // concurrent admit can squeeze in — the job then fails *typed*
        // with OverBudget, never over-commits silently.
        self.reserved -= uploaded;
        self.shared.release(uploaded);

        // ---- build and submit the spec -------------------------------
        let pipeline = cfg
            .pipeline_config()
            .map_err(|e| Close::App(ErrorCode::Malformed, e.to_string()))?;
        let (init, fin) = cfg.measurements();
        let lmin = cfg.lmin.to_model();
        let priority = match cfg.priority {
            0 => Priority::High,
            1 => Priority::Normal,
            2 => Priority::Low,
            _ => {
                return Err(Close::App(
                    ErrorCode::Malformed,
                    "unknown priority class".to_string(),
                ))
            }
        };
        let incremental = matches!(cfg.mode, WireMode::Incremental { .. });
        let sink = incremental.then(|| Arc::new(SinkState::new()));
        let input = match cfg.mode {
            WireMode::Batch => JobInput::Stream(chunks),
            WireMode::Incremental { window_events } => JobInput::StreamIncremental {
                chunks,
                window_events: window_events.max(1) as usize,
            },
        };
        let mut spec = JobSpec::new(input, init, fin, lmin, pipeline).with_priority(priority);
        if cfg.deadline_us != u64::MAX {
            spec = spec.with_deadline(Duration::from_micros(cfg.deadline_us));
        }
        if let Some(ss) = &sink {
            let ss = Arc::clone(ss);
            spec = spec.with_frame_sink(Arc::new(move |idx, chunk| ss.offer(idx, chunk)));
        }
        let handle = self.shared.submit(spec).map_err(|e| match e {
            SubmitError::QueueFull { capacity } => Close::App(
                ErrorCode::QueueFull,
                format!("submission queue full (capacity {capacity})"),
            ),
            SubmitError::OverBudget {
                estimated,
                available,
            } => Close::App(
                ErrorCode::OverBudget,
                format!("job needs ~{estimated} bytes, {available} free"),
            ),
            SubmitError::Shutdown => Close::Shutdown,
        })?;
        count(self.net, Counter::NetJobs);

        // ---- run phase: stream results, poll for cancel --------------
        // Job completion, not inbound data, is the critical path here:
        // the client goes silent until it has our results, so a blocking
        // read would stall every loop iteration for the full poll
        // timeout. Switch the transport to immediate-return reads and
        // park on the job handle's condvar instead — completion wakes us
        // in microseconds, and a Cancel frame is picked up within the
        // 5ms wait slice.
        self.t.set_poll_blocking(false);
        let mut handle = Some(handle);
        let mut sent_frames = 0u64;
        let mut stop_cancel = false;
        let outcome = loop {
            if let Some(ss) = &sink {
                for (idx, bytes) in ss.drain() {
                    if let Err(c) = self.send(&Frame::CorrectedFrame { index: idx, bytes }) {
                        self.t.set_poll_blocking(true);
                        abort_job(handle.take().expect("handle live"), sink.as_deref());
                        return Err(c);
                    }
                    sent_frames = sent_frames.max(idx + 1);
                }
            }
            let h = handle.as_ref().expect("handle live");
            if h.is_done() {
                let out = handle.take().expect("handle live").wait();
                // Late chunks can land between is_done and the drain
                // above; flush them before the terminal frame.
                if let Some(ss) = &sink {
                    for (idx, bytes) in ss.drain() {
                        self.send(&Frame::CorrectedFrame { index: idx, bytes })?;
                        sent_frames = sent_frames.max(idx + 1);
                    }
                }
                break out;
            }
            match self.poll() {
                Ok(Step::Frame(Frame::Cancel)) => h.cancel(),
                Ok(Step::Frame(_)) => {
                    self.t.set_poll_blocking(true);
                    abort_job(handle.take().expect("handle live"), sink.as_deref());
                    return Err(Close::Proto("unexpected frame while job running"));
                }
                Ok(step @ (Step::Partial | Step::Idle)) => {
                    if self.net.stop.load(Ordering::SeqCst) && !stop_cancel {
                        stop_cancel = true;
                        h.cancel();
                    }
                    // Part of a frame (a split `Cancel`, say) is followed
                    // by a read of its rest, not by a park.
                    if matches!(step, Step::Idle) {
                        count(self.net, Counter::NetIdleSleeps);
                        h.wait_for(Duration::from_millis(5));
                    }
                }
                Ok(Step::Eof) | Err(_) => {
                    self.t.set_poll_blocking(true);
                    abort_job(handle.take().expect("handle live"), sink.as_deref());
                    return Err(Close::Gone);
                }
            }
        };
        self.t.set_poll_blocking(true);

        // ---- terminal frames -----------------------------------------
        match outcome {
            Ok(success) => {
                if stop_cancel {
                    // The job happened to finish despite the shutdown
                    // cancel; deliver its result, then close.
                    self.send_success(&success, incremental, sent_frames)?;
                    Err(Close::Shutdown)
                } else {
                    self.send_success(&success, incremental, sent_frames)
                }
            }
            Err(failure) => {
                if stop_cancel {
                    return Err(Close::Shutdown);
                }
                let code = match failure.error {
                    JobError::Pipeline(_) => ErrorCode::Pipeline,
                    JobError::Panicked(_) => ErrorCode::Panicked,
                    JobError::Cancelled => ErrorCode::Cancelled,
                    JobError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
                    JobError::Shutdown => ErrorCode::Shutdown,
                };
                Err(Close::App(code, failure.error.to_string()))
            }
        }
    }

    /// Corrected output, jump set, and the terminal summary.
    fn send_success(
        &mut self,
        success: &JobSuccess,
        incremental: bool,
        sent_frames: u64,
    ) -> Result<(), Close> {
        if !incremental {
            let bytes = to_binary_columnar_v3_blocked(&success.trace, OUT_BLOCK_EVENTS);
            for slice in bytes.chunks(CHUNK_PAYLOAD.max(1)) {
                self.send(&Frame::Chunk(slice.to_vec()))?;
            }
        }
        if let Some(clc) = &success.report.clc {
            let jumps: Vec<WireJump> = clc
                .jumps
                .iter()
                .map(|j| WireJump {
                    proc: j.event.proc,
                    idx: j.event.idx,
                    size_ps: j.size.as_ps(),
                })
                .collect();
            for batch in jumps.chunks(JUMP_BATCH) {
                self.send(&Frame::Jumps(batch.to_vec()))?;
            }
        }
        self.send(&Frame::JobResult(wire_result(success, incremental, sent_frames)))?;
        Ok(())
    }
}

/// Cancel an in-flight job and wait out its executor so the sink closure
/// (which borrows nothing, but whose queue nobody will drain) can't block
/// an executor thread after its connection died.
fn abort_job(handle: JobHandle, sink: Option<&SinkState>) {
    if let Some(s) = sink {
        s.close();
    }
    handle.cancel();
    let _ = handle.wait();
}

fn wire_result(success: &JobSuccess, incremental: bool, sent_frames: u64) -> WireJobResult {
    let report = &success.report;
    let (n_jumps, max_jump_ps, events_moved, events_total) =
        report.clc.as_ref().map_or((0, 0, 0, 0), |c| {
            (
                c.jumps.len() as u64,
                c.max_jump.as_ps(),
                c.events_moved as u64,
                c.events_total as u64,
            )
        });
    WireJobResult {
        queue_wait_us: success.queue_wait.as_micros() as u64,
        run_time_us: success.run_time.as_micros() as u64,
        n_jumps,
        max_jump_ps,
        events_moved,
        events_total,
        frames: if incremental {
            sent_frames
        } else {
            success.frames.len() as u64
        },
        census_present: !incremental,
        raw_violations: report.raw.total_violations() as u64,
        after_presync_violations: report.after_presync.total_violations() as u64,
        after_clc_violations: report
            .after_clc
            .as_ref()
            .map_or(u64::MAX, |s| s.total_violations() as u64),
    }
}

/// The bounded handoff between the executor's frame sink and the
/// connection thread's socket writer.
struct SinkState {
    q: Mutex<SinkQ>,
    space: Condvar,
}

struct SinkQ {
    items: VecDeque<(u64, Vec<u8>)>,
    buffered: usize,
    closed: bool,
}

impl SinkState {
    fn new() -> Self {
        SinkState {
            q: Mutex::new(SinkQ {
                items: VecDeque::new(),
                buffered: 0,
                closed: false,
            }),
            space: Condvar::new(),
        }
    }

    /// The executor-side frame sink. Returns `false` (cancelling the job)
    /// when the connection is gone or the reader has stalled past
    /// [`SINK_STALL`].
    fn offer(&self, idx: u64, chunk: &[u8]) -> bool {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        if q.closed {
            return false;
        }
        let deadline = Instant::now() + SINK_STALL;
        // Always accept at least one resident chunk so an oversized chunk
        // cannot wedge an otherwise-empty queue.
        while !q.items.is_empty() && q.buffered + chunk.len() > SINK_CAP && !q.closed {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            q = self
                .space
                .wait_timeout(q, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        if q.closed {
            return false;
        }
        q.buffered += chunk.len();
        q.items.push_back((idx, chunk.to_vec()));
        true
    }

    /// Connection-side: take everything queued (non-blocking).
    fn drain(&self) -> Vec<(u64, Vec<u8>)> {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        let out: Vec<_> = q.items.drain(..).collect();
        q.buffered = 0;
        drop(q);
        self.space.notify_all();
        out
    }

    /// Connection-side: the socket is gone; unblock and fail the sink.
    fn close(&self) {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::super::{NetServer, NetServerConfig, ScriptedTransport, TenantConfig};
    use super::*;
    use crate::job::JobInput;
    use crate::service::ServiceConfig;
    use clocksync::{OffsetMeasurement, PipelineConfig};
    use simclock::Dur;
    use std::io;
    use std::sync::mpsc;
    use syncd_wire::{encode_frame, WireLatency};
    use tracefmt::io::to_binary_columnar_v3_blocked;
    use tracefmt::UniformLatency;

    type Measurements = Vec<Option<OffsetMeasurement>>;

    /// The service tests' 2-rank trace of `msgs` messages, as a `DTC3`
    /// stream, and its measurements.
    fn fixture(msgs: usize) -> (Vec<u8>, Measurements, Measurements) {
        let (trace, init, fin) = crate::service::tests::fixture(msgs);
        (to_binary_columnar_v3_blocked(&trace, 16).to_vec(), init, fin)
    }

    fn server() -> NetServer {
        NetServer::start_loopback(NetServerConfig {
            tenants: vec![TenantConfig::new("tok")],
            ingest_window: 1 << 20,
            service: ServiceConfig { executors: 1, ..ServiceConfig::default() },
        })
        .expect("bind loopback")
    }

    /// Handshake and job header of a batch job over `fixture(msgs)`.
    fn session_head(init: &Measurements, fin: &Measurements) -> Vec<u8> {
        let config = WireJobConfig::new(&PipelineConfig::default(), WireLatency::Uniform(1_000_000))
            .with_measurements(init, Some(fin));
        let mut out = encode_frame(&Frame::Hello {
            magic: MAGIC,
            version: VERSION,
            token: "tok".into(),
        });
        out.extend(encode_frame(&Frame::JobConfig(Box::new(config))));
        out
    }

    fn reply_frames(t: &ScriptedTransport) -> Vec<Frame> {
        FrameScanner::new().feed(t.outbound()).expect("server writes well-formed frames")
    }

    /// A [`ScriptedTransport`] whose reads also end at the stream offsets
    /// in `cuts`, and which runs `before_read(bytes served so far)` ahead
    /// of every read — so a test can act between two reads of its choice.
    struct Staged<'a> {
        inner: ScriptedTransport,
        cuts: Vec<usize>,
        served: usize,
        reads: usize,
        before_read: Box<dyn FnMut(usize) + 'a>,
    }

    impl Transport for Staged<'_> {
        fn read_some(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome> {
            (self.before_read)(self.served);
            self.reads += 1;
            let cap = self
                .cuts
                .iter()
                .find(|&&c| c > self.served)
                .map_or(buf.len(), |c| (c - self.served).min(buf.len()));
            let out = self.inner.read_some(&mut buf[..cap])?;
            if let ReadOutcome::Data(n) = out {
                self.served += n;
            }
            Ok(out)
        }

        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.inner.write_all(buf)
        }
    }

    /// The shutdown check runs once per read, not once per frame: a peer
    /// that trickles single bytes of a frame it never completes — in the
    /// handshake or in the upload — is told `Shutdown` on the first read
    /// after the flag went up, and no partial read costs a back-off.
    #[test]
    fn stop_flag_is_seen_on_the_next_read_of_a_trickled_frame() {
        let (_, init, fin) = fixture(4);
        let never_completed = &encode_frame(&Frame::Chunk(vec![0; 4096]))[..1000];
        for (phase, head) in [("handshake", Vec::new()), ("upload", session_head(&init, &fin))] {
            let server = server();
            let raise_at = head.len() + 300;
            let mut inbound = head;
            inbound.extend_from_slice(never_completed);
            let stop = &server.net.stop;
            let mut t = Staged {
                inner: ScriptedTransport::new(inbound).read_limit(1),
                cuts: Vec::new(),
                served: 0,
                reads: 0,
                before_read: Box::new(move |served| {
                    if served == raise_at {
                        stop.store(true, Ordering::SeqCst);
                    }
                }),
            };
            server.serve_transport(&mut t);

            assert!(t.reads <= raise_at + 1, "{phase}: {} reads, flag up at {raise_at}", t.reads);
            assert!(
                matches!(
                    reply_frames(&t.inner).last(),
                    Some(Frame::Error { code: ErrorCode::Shutdown, .. })
                ),
                "{phase}: connection must end with the Shutdown error frame"
            );
            let m = server.metrics();
            assert!(m.counter(Counter::NetPartialReads) >= 300, "{phase}");
            assert_eq!(m.counter(Counter::NetIdleSleeps), 0, "{phase}: slept on progress");
            drop(t);
            server.shutdown();
        }
    }

    /// Run phase: a `Cancel` frame split across two reads is honoured —
    /// the first part is neither an unexpected frame nor a reason to park
    /// before reading the rest. The one executor is held by a job whose
    /// sink waits on a channel, released by the first read after the
    /// `Cancel` was delivered in full, so the cancelled job cannot have
    /// finished first. (The wait's timeout only turns a driver that stops
    /// reading into a failure instead of a hang.)
    #[test]
    fn cancel_split_across_two_run_phase_reads_is_honoured() {
        let (bytes, init, fin) = fixture(40);
        let server = server();

        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let blocker = JobSpec::new(
            JobInput::StreamIncremental { chunks: vec![bytes.clone()], window_events: 16 },
            init.clone(),
            Some(fin.clone()),
            Arc::new(UniformLatency(Dur::from_us(1))),
            PipelineConfig::default(),
        )
        .with_frame_sink(Arc::new(move |idx, _| {
            if idx == 0 {
                let _ = gate.lock().expect("gate lock").recv_timeout(Duration::from_secs(10));
            }
            true
        }));
        let blocker = server.net.service.submit(blocker).expect("blocker admitted");

        let mut inbound = session_head(&init, &fin);
        inbound.extend(encode_frame(&Frame::Chunk(bytes)));
        inbound.extend(encode_frame(&Frame::ChunkEnd));
        let upload_end = inbound.len();
        inbound.extend(encode_frame(&Frame::Cancel));
        let all = inbound.len();
        let mut release = Some(release);
        let mut t = Staged {
            inner: ScriptedTransport::new(inbound).close_after_reply(20_000),
            cuts: vec![upload_end, upload_end + 3],
            served: 0,
            reads: 0,
            before_read: Box::new(move |served| {
                if served == all {
                    release.take();
                }
            }),
        };
        server.serve_transport(&mut t);

        let replies = reply_frames(&t.inner);
        assert!(
            matches!(replies.last(), Some(Frame::Error { code: ErrorCode::Cancelled, .. })),
            "split Cancel must cancel the job, got {:?}",
            replies.last()
        );
        blocker.wait().expect("blocker finishes once released");
        let m = server.metrics();
        assert!(m.counter(Counter::NetPartialReads) >= 1, "the first part of Cancel is a partial read");
        assert!(m.counter(Counter::NetIdleSleeps) <= m.counter(Counter::NetIdleReads));
        assert_eq!(m.counter(Counter::Cancelled), 1);
        server.shutdown();
    }
}
