//! The blocking connection: handshake, credit-bound upload, result
//! collection.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use syncd_wire::{
    ErrorCode, Frame, FrameScanner, WireError, WireJobConfig, WireJobResult, WireJump,
    CHUNK_PAYLOAD, MAGIC, VERSION,
};

/// The result summary of one network job. This is exactly the terminal
/// [`Frame::JobResult`] payload.
pub type JobSummary = WireJobResult;

/// Everything that can end a client call.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, or peer hangup).
    Io(String),
    /// The byte stream violated the frame protocol.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Remote {
        /// The error class.
        code: ErrorCode,
        /// Server-provided detail.
        detail: String,
    },
    /// The server sent a frame the protocol state does not allow.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Remote { code, detail } => write!(f, "server error {code:?}: {detail}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// One job to submit: the wire config plus the `DTC3` stream bytes.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Pipeline + scheduling header.
    pub config: WireJobConfig,
    /// Input stream chunks (any chunking; the client re-slices to
    /// [`CHUNK_PAYLOAD`]-sized wire frames).
    pub chunks: Vec<Vec<u8>>,
}

/// The collected outcome of one successful network job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Terminal summary frame.
    pub summary: JobSummary,
    /// The corrected output stream, in arrival order: batch jobs deliver
    /// it as `Chunk` frames after completion, incremental jobs as indexed
    /// `CorrectedFrame`s while running. Either way these bytes decode
    /// with `tracefmt::io::from_binary_columnar`.
    pub stream: Vec<Vec<u8>>,
    /// The full CLC jump set.
    pub jumps: Vec<WireJump>,
}

/// A blocking `syncd` connection. One job runs at a time; the connection
/// can be reused for any number of sequential jobs.
pub struct SyncClient {
    stream: TcpStream,
    scanner: FrameScanner,
    pending: VecDeque<Frame>,
    /// Chunk-payload bytes we may still send before waiting for a grant.
    credit: u64,
}

impl SyncClient {
    /// Connect and complete the Hello/HelloAck handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, token: &str) -> Result<SyncClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Generous safety-net timeout: every legal wait in the protocol is
        // bounded by server-side deadlines far below this.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let _ = stream.set_nodelay(true);
        let mut client = SyncClient {
            stream,
            scanner: FrameScanner::new(),
            pending: VecDeque::new(),
            credit: 0,
        };
        client.send(&Frame::Hello {
            magic: MAGIC,
            version: VERSION,
            token: token.to_string(),
        })?;
        match client.recv()? {
            Frame::HelloAck { version: _, credit } => {
                client.credit = credit;
                Ok(client)
            }
            Frame::Error { code, detail } => Err(ClientError::Remote { code, detail }),
            _ => Err(ClientError::Protocol("expected HelloAck")),
        }
    }

    /// Remaining send credit in bytes (test/diagnostic visibility).
    pub fn credit(&self) -> u64 {
        self.credit
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.stream.write_all(&frame.encode())?;
        Ok(())
    }

    /// Next frame from the server, reading as needed.
    fn recv(&mut self) -> Result<Frame, ClientError> {
        loop {
            if let Some(f) = self.pending.pop_front() {
                return Ok(f);
            }
            let mut buf = [0u8; 64 * 1024];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                self.scanner.finish()?;
                return Err(ClientError::Io("connection closed by server".into()));
            }
            self.pending.extend(self.scanner.feed(&buf[..n])?);
        }
    }

    /// Consume credit for `need` bytes, blocking on `Credit` grants. Any
    /// terminal `Error` frame that arrives instead aborts the upload.
    fn take_credit(&mut self, need: u64) -> Result<(), ClientError> {
        while self.credit < need {
            match self.recv()? {
                Frame::Credit { grant } => self.credit += grant,
                Frame::Error { code, detail } => {
                    return Err(ClientError::Remote { code, detail })
                }
                _ => return Err(ClientError::Protocol("expected Credit during upload")),
            }
        }
        self.credit -= need;
        Ok(())
    }

    /// Submit one job and block until its terminal frame.
    pub fn submit(&mut self, req: &JobRequest) -> Result<JobOutcome, ClientError> {
        self.send(&Frame::JobConfig(Box::new(req.config.clone())))?;
        for chunk in &req.chunks {
            for slice in chunk.chunks(CHUNK_PAYLOAD.max(1)) {
                self.take_credit(slice.len() as u64)?;
                self.send(&Frame::Chunk(slice.to_vec()))?;
            }
        }
        self.send(&Frame::ChunkEnd)?;
        self.collect()
    }

    /// Upload a job but hang up after `upload_bytes` stream bytes: the
    /// disconnect tests use this to abandon a job mid-stream.
    pub fn submit_truncated(
        mut self,
        req: &JobRequest,
        upload_bytes: usize,
    ) -> Result<(), ClientError> {
        self.send(&Frame::JobConfig(Box::new(req.config.clone())))?;
        let mut sent = 0usize;
        'outer: for chunk in &req.chunks {
            for slice in chunk.chunks(CHUNK_PAYLOAD.max(1)) {
                if sent >= upload_bytes {
                    break 'outer;
                }
                let cut = slice.len().min(upload_bytes - sent);
                self.take_credit(cut as u64)?;
                self.send(&Frame::Chunk(slice[..cut].to_vec()))?;
                sent += cut;
            }
        }
        // Drop without ChunkEnd: the server must release every admission
        // charge this connection held.
        Ok(())
    }

    /// Submit and then drop the connection after receiving `keep` result
    /// frames — a client that disappears mid-download.
    pub fn submit_abandon_result(
        mut self,
        req: &JobRequest,
        keep: usize,
    ) -> Result<(), ClientError> {
        self.send(&Frame::JobConfig(Box::new(req.config.clone())))?;
        for chunk in &req.chunks {
            for slice in chunk.chunks(CHUNK_PAYLOAD.max(1)) {
                self.take_credit(slice.len() as u64)?;
                self.send(&Frame::Chunk(slice.to_vec()))?;
            }
        }
        self.send(&Frame::ChunkEnd)?;
        for _ in 0..keep {
            match self.recv() {
                Ok(Frame::JobResult(_)) | Ok(Frame::Error { .. }) | Err(_) => return Ok(()),
                Ok(_) => {}
            }
        }
        Ok(())
    }

    /// Send a cancel for the in-flight job (fire and forget; the terminal
    /// frame still arrives through the normal path).
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Cancel)
    }

    fn collect(&mut self) -> Result<JobOutcome, ClientError> {
        let mut stream = Vec::new();
        let mut jumps = Vec::new();
        let mut next_idx = 0u64;
        loop {
            match self.recv()? {
                Frame::Chunk(bytes) => stream.push(bytes),
                Frame::CorrectedFrame { index, bytes } => {
                    // Each chunk is sent once, in order: a gap or a repeat
                    // is a protocol error.
                    if index != next_idx {
                        return Err(ClientError::Protocol("corrected frame out of sequence"));
                    }
                    stream.push(bytes);
                    next_idx += 1;
                }
                Frame::Jumps(batch) => jumps.extend(batch),
                Frame::Credit { grant } => self.credit += grant,
                Frame::JobResult(summary) => {
                    return Ok(JobOutcome { summary, stream, jumps })
                }
                Frame::Error { code, detail } => {
                    return Err(ClientError::Remote { code, detail })
                }
                _ => return Err(ClientError::Protocol("unexpected frame in result stream")),
            }
        }
    }
}
