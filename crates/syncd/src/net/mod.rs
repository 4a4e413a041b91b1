//! The network front end: framed `syncd-wire` protocol over TCP.
//!
//! A [`NetServer`] owns one [`SyncService`] and a `std::net` accept loop
//! (thread per connection — no async runtime, so the crate stays
//! offline-friendly). Each connection speaks the `syncd-wire` frame
//! protocol:
//!
//! ```text
//! client                              server
//!   Hello{magic, version, token} ──▶
//!                               ◀──  HelloAck{version, credit: 0}
//!   JobConfig ──────────────────▶
//!                               ◀──  Credit{grant}          (repeatedly)
//!   Chunk* (≤ granted bytes) ───▶
//!   ChunkEnd ───────────────────▶        [admission + execution]
//!                               ◀──  CorrectedFrame*        (incremental)
//!                               ◀──  Chunk*                 (batch output)
//!                               ◀──  Jumps*
//!                               ◀──  JobResult | Error
//! ```
//!
//! **Backpressure is the admission budget.** The server never grants more
//! upload credit than it has *reserved* from the service's
//! byte-denominated memory budget ([`Shared::try_reserve`]): granted but
//! unspent credit and buffered-but-not-yet-submitted chunks are both
//! backed by a live reservation, released on submission or disconnect. A
//! slow, stalled, or hostile client can therefore never balloon server
//! memory beyond `ingest_window` per connection — it simply stops
//! receiving credit.
//!
//! Unused credit carries across sequential jobs on one connection (the
//! reservation carries with it), matching the client's running credit
//! counter. Any `Error` frame is **terminal for the connection**; a
//! client that wants to continue after a typed failure reconnects.
//!
//! Connection handling is sans-io at its core: [`serve_transport`] drives
//! the whole protocol over anything implementing [`Transport`], which is
//! how the simsched fault campaign injects partial writes, mid-stream
//! disconnects, and stalled readers without a socket.
//!
//! [`Shared::try_reserve`]: crate::service::Shared

use crate::metrics::Counter;
use crate::service::{ServiceConfig, SyncService};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod conn;

pub use conn::serve_transport;

/// How long a blocking [`TcpTransport`] read waits before reporting
/// [`ReadOutcome::Idle`] — the server's poll granularity for cancel
/// frames and shutdown while a job runs.
const POLL_READ_TIMEOUT: Duration = Duration::from_millis(25);

/// One tenant's identity and limits.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// The auth token presented in `Hello`.
    pub token: String,
    /// Upload quota per job, in stream bytes (`u64::MAX` = unlimited).
    pub max_job_bytes: u64,
    /// Concurrent connections allowed for this tenant.
    pub max_connections: usize,
}

impl TenantConfig {
    /// A tenant with the given token and no quotas.
    pub fn new(token: impl Into<String>) -> Self {
        TenantConfig {
            token: token.into(),
            max_job_bytes: u64::MAX,
            max_connections: 64,
        }
    }
}

/// Network server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Accepted tenants. A `Hello` token not in this list fails typed
    /// with [`syncd_wire::ErrorCode::AuthFailed`].
    pub tenants: Vec<TenantConfig>,
    /// Per-connection upload credit window in bytes; also the cap on
    /// server-side bytes buffered for a connection's in-flight upload.
    pub ingest_window: u64,
    /// Configuration of the owned [`SyncService`].
    pub service: ServiceConfig,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            tenants: vec![TenantConfig::new("default")],
            ingest_window: 1 << 20,
            service: ServiceConfig::default(),
        }
    }
}

/// Per-tenant live state shared by the accept loop and connections.
pub(crate) struct TenantState {
    pub(crate) cfg: TenantConfig,
    pub(crate) active: AtomicUsize,
}

/// What one read produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// `n` bytes were read into the buffer prefix. Progress, whether or
    /// not they complete a frame: the driver reads again at once.
    Data(usize),
    /// No byte was available (a blocking read timed out, a non-blocking
    /// one would block); the connection is still alive. The driver sleeps
    /// or parks only then — never after a read that returned bytes.
    Idle,
    /// Orderly end of stream.
    Eof,
}

/// A bidirectional byte stream the protocol driver can run over: TCP in
/// production, an in-memory fault-injecting pipe in the simsched
/// campaign.
pub trait Transport {
    /// Read some bytes; must bound its own blocking (return
    /// [`ReadOutcome::Idle`] periodically) so the driver can poll cancel
    /// and shutdown. `Idle` means no byte was available: it is the one
    /// outcome the driver backs off on, so a transport must not report it
    /// for a read that consumed input. While reads block, that wait is
    /// what paces the connection thread; a transport that never blocks is
    /// paced by the driver's 500 µs back-off per `Idle`.
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome>;
    /// Write the whole buffer or fail.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Switch reads between *blocking with a timeout* (upload and idle
    /// phases, where inbound frames are the only thing to wait for) and
    /// *immediate return* (the result loop, where job completion is on
    /// the critical path and a read must never sit on it). Transports
    /// that never block (in-memory scripts) ignore the hint.
    fn set_poll_blocking(&mut self, _blocking: bool) {}
}

/// [`Transport`] over a connected socket, polling via a read timeout.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap a connected stream, configuring the poll timeout.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_read_timeout(Some(POLL_READ_TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        use std::io::Read;
        match self.stream.read(buf) {
            Ok(0) => Ok(ReadOutcome::Eof),
            Ok(n) => Ok(ReadOutcome::Data(n)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(ReadOutcome::Idle)
            }
            Err(e) => Err(e),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.stream.write_all(buf)
    }

    fn set_poll_blocking(&mut self, blocking: bool) {
        // Non-blocking reads surface `WouldBlock`, which `read_some`
        // already maps to `Idle`; re-enabling blocking restores the
        // 25ms poll timeout configured at construction.
        let _ = self.stream.set_nonblocking(!blocking);
    }
}

/// Deterministic in-memory [`Transport`]: replays a scripted inbound byte
/// stream in bounded reads and records everything the server writes.
/// This is how the robustness proptests and the simsched chaos campaign
/// drive the full protocol stack — handshake, credit, admission, job
/// execution — without a socket, while injecting connection faults:
///
/// * **partial reads** — [`Self::read_limit`] caps bytes per read, so
///   frames arrive split at arbitrary boundaries;
/// * **slow senders** — [`Self::idle_every`] interleaves
///   [`ReadOutcome::Idle`] polls between data reads;
/// * **mid-stream disconnect** — the script simply ends (→ `Eof`), or
///   [`Self::fail_writes_after`] makes the server's next write fail with
///   `BrokenPipe` once a byte quota is spent, exactly like a peer that
///   vanished while the server streamed results at it.
pub struct ScriptedTransport {
    inbound: Vec<u8>,
    pos: usize,
    read_limit: usize,
    idle_every: usize,
    linger_polls: usize,
    close_after_reply: bool,
    /// Byte offset into `outbound` up to which frames have been scanned
    /// for a terminal kind.
    scan_pos: usize,
    saw_terminal: bool,
    reads: usize,
    write_quota: Option<u64>,
    outbound: Vec<u8>,
}

impl ScriptedTransport {
    /// A transport that will serve `inbound` and then report `Eof`.
    pub fn new(inbound: Vec<u8>) -> ScriptedTransport {
        ScriptedTransport {
            inbound,
            pos: 0,
            read_limit: usize::MAX,
            idle_every: 0,
            linger_polls: 0,
            close_after_reply: false,
            scan_pos: 0,
            saw_terminal: false,
            reads: 0,
            write_quota: None,
            outbound: Vec::new(),
        }
    }

    /// Cap every read at `n` bytes (≥ 1), splitting frames arbitrarily.
    pub fn read_limit(mut self, n: usize) -> ScriptedTransport {
        self.read_limit = n.max(1);
        self
    }

    /// Return [`ReadOutcome::Idle`] on every `k`-th poll (models a slow
    /// sender; `0` disables).
    pub fn idle_every(mut self, k: usize) -> ScriptedTransport {
        self.idle_every = k;
        self
    }

    /// After the script is exhausted, stay "connected" (answer reads with
    /// [`ReadOutcome::Idle`]) until the server has written a terminal
    /// [`Frame::JobResult`] or [`Frame::Error`] — then report `Eof`, like
    /// a real client that hangs up after receiving its verdict.
    /// `cap_polls` bounds the wait (for sessions the server can neither
    /// finish nor fail, e.g. an upload whose end-marker a corruption ate).
    ///
    /// [`Frame::JobResult`]: syncd_wire::Frame::JobResult
    /// [`Frame::Error`]: syncd_wire::Frame::Error
    pub fn close_after_reply(mut self, cap_polls: usize) -> ScriptedTransport {
        self.linger_polls = cap_polls;
        self.close_after_reply = true;
        self
    }

    /// Let the server write `bytes` successfully, then fail every further
    /// write with `BrokenPipe` (models a peer disconnecting mid-download).
    pub fn fail_writes_after(mut self, bytes: u64) -> ScriptedTransport {
        self.write_quota = Some(bytes);
        self
    }

    /// Everything successfully written so far.
    pub fn outbound(&self) -> &[u8] {
        &self.outbound
    }

    /// Has the server written a complete terminal frame (`JobResult` or
    /// `Error`) yet? Scans `outbound` incrementally.
    fn terminal_written(&mut self) -> bool {
        use syncd_wire::FrameKind;
        while !self.saw_terminal && self.outbound.len() >= self.scan_pos + 4 {
            let len = u32::from_le_bytes(
                self.outbound[self.scan_pos..self.scan_pos + 4]
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            if len == 0 {
                // Never written by a correct server; skip the header so
                // the scan still makes progress.
                self.scan_pos += 4;
                continue;
            }
            if self.outbound.len() < self.scan_pos + 4 + len {
                break;
            }
            let kind = self.outbound[self.scan_pos + 4];
            if kind == FrameKind::JobResult as u8 || kind == FrameKind::Error as u8 {
                self.saw_terminal = true;
            }
            self.scan_pos += 4 + len;
        }
        self.saw_terminal
    }
}

impl Transport for ScriptedTransport {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        self.reads += 1;
        if self.idle_every > 0 && self.reads.is_multiple_of(self.idle_every) {
            return Ok(ReadOutcome::Idle);
        }
        if self.pos >= self.inbound.len() {
            if self.close_after_reply && self.terminal_written() {
                return Ok(ReadOutcome::Eof);
            }
            if self.linger_polls > 0 {
                self.linger_polls -= 1;
                return Ok(ReadOutcome::Idle);
            }
            return Ok(ReadOutcome::Eof);
        }
        let n = buf
            .len()
            .min(self.read_limit)
            .min(self.inbound.len() - self.pos);
        buf[..n].copy_from_slice(&self.inbound[self.pos..self.pos + n]);
        self.pos += n;
        Ok(ReadOutcome::Data(n))
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(quota) = &mut self.write_quota {
            if (buf.len() as u64) > *quota {
                *quota = 0;
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "scripted peer hung up",
                ));
            }
            *quota -= buf.len() as u64;
        }
        self.outbound.extend_from_slice(buf);
        Ok(())
    }
}

/// Shared state between the accept loop and every connection thread.
pub(crate) struct NetShared {
    pub(crate) service: SyncService,
    pub(crate) tenants: Vec<Arc<TenantState>>,
    pub(crate) ingest_window: u64,
    pub(crate) stop: AtomicBool,
}

impl NetShared {
    pub(crate) fn tenant(&self, token: &str) -> Option<&Arc<TenantState>> {
        self.tenants.iter().find(|t| t.cfg.token == token)
    }
}

/// A running network front end: a bound listener, its accept thread, and
/// the owned [`SyncService`] behind it.
pub struct NetServer {
    net: Arc<NetShared>,
    local_addr: std::net::SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<HashMap<u64, std::thread::JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting.
    pub fn start(addr: &str, cfg: NetServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let net = Arc::new(NetShared {
            service: SyncService::start(cfg.service),
            tenants: cfg
                .tenants
                .into_iter()
                .map(|t| {
                    Arc::new(TenantState {
                        cfg: t,
                        active: AtomicUsize::new(0),
                    })
                })
                .collect(),
            ingest_window: cfg.ingest_window.max(4 * 1024),
            stop: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<HashMap<u64, std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let accept = {
            let net = Arc::clone(&net);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("syncd-accept".into())
                .spawn(move || accept_loop(&listener, &net, &conns))
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            net,
            local_addr,
            accept: Some(accept),
            conns,
        })
    }

    /// Bind an ephemeral loopback port with the given configuration.
    pub fn start_loopback(cfg: NetServerConfig) -> io::Result<NetServer> {
        NetServer::start("127.0.0.1:0", cfg)
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Metrics of the owned service (includes the `syncd_net_*` series).
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.net.service.metrics()
    }

    /// Drive one full protocol conversation over `transport` on the
    /// calling thread, against this server's service and tenant table —
    /// the sans-io path the simsched fault campaign uses.
    pub fn serve_transport<T: Transport>(&self, transport: &mut T) {
        conn::serve(transport, &self.net);
    }

    /// Stop accepting, close the listener, join every connection thread,
    /// and drain-shutdown the owned service. Returns the final metrics:
    /// unlike a [`Self::metrics`] snapshot they are read with no
    /// connection thread left to count between two of them.
    pub fn shutdown(mut self) -> crate::metrics::MetricsSnapshot {
        self.net.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept() awake with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let conns: Vec<_> = {
            let mut map = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            map.drain().map(|(_, h)| h).collect()
        };
        for h in conns {
            let _ = h.join();
        }
        // The service is inside an Arc; by now every thread that shared
        // it is joined, so this unwrap cannot race.
        match Arc::try_unwrap(self.net) {
            Ok(net) => {
                let metrics = Arc::clone(&net.service.shared().metrics);
                net.service.shutdown();
                metrics.snapshot()
            }
            Err(_) => unreachable!("net shared state still referenced after join"),
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    net: &Arc<NetShared>,
    conns: &Arc<Mutex<HashMap<u64, std::thread::JoinHandle<()>>>>,
) {
    let mut next_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if net.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if net.stop.load(Ordering::SeqCst) {
            return;
        }
        let id = next_id;
        next_id += 1;
        let net = Arc::clone(net);
        let conns2 = Arc::clone(conns);
        let handle = std::thread::Builder::new()
            .name(format!("syncd-conn-{id}"))
            .spawn(move || {
                if let Ok(mut t) = TcpTransport::new(stream) {
                    conn::serve(&mut t, &net);
                }
                // Reap our own entry so the map doesn't grow unboundedly
                // on a long-lived server; shutdown joins whatever is left.
                if let Ok(mut map) = conns2.lock() {
                    map.remove(&id);
                }
            })
            .expect("spawn connection thread");
        conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, handle);
    }
}

/// Decrements a tenant's live-connection gauge on drop.
pub(crate) struct TenantSlot {
    tenant: Arc<TenantState>,
}

impl TenantSlot {
    /// Try to claim a connection slot for the tenant.
    pub(crate) fn claim(tenant: &Arc<TenantState>) -> Option<TenantSlot> {
        let mut cur = tenant.active.load(Ordering::Relaxed);
        loop {
            if cur >= tenant.cfg.max_connections {
                return None;
            }
            match tenant.active.compare_exchange(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(TenantSlot {
                        tenant: Arc::clone(tenant),
                    })
                }
                Err(now) => cur = now,
            }
        }
    }
}

impl Drop for TenantSlot {
    fn drop(&mut self) {
        self.tenant.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Tag a metrics counter increment from the conn module without making
/// the registry pub(crate)-reachable paths noisy.
pub(crate) fn count(net: &NetShared, c: Counter) {
    net.service.shared().metrics.inc(c);
}
