//! # syncd-wire — the framed network protocol `syncd` speaks
//!
//! Everything that crosses a `syncd` connection is a **frame**:
//!
//! ```text
//! frame := u32 len (LE) | u8 kind | payload[len - 1]
//! ```
//!
//! `len` counts the kind byte plus the payload, so a frame occupies
//! `4 + len` bytes on the wire. The declared length is bounded by
//! [`MAX_FRAME_PAYLOAD`]; anything larger is a typed
//! [`WireError::Oversized`] *before* any allocation happens, so a hostile
//! peer cannot make the other side reserve gigabytes with four bytes.
//!
//! A connection opens with a [`Frame::Hello`] carrying the protocol
//! [`MAGIC`] and [`VERSION`] plus the tenant's auth token; the server
//! answers [`Frame::HelloAck`] with the negotiated version and the initial
//! byte **credit**. From then on the client may send at most as many
//! `Chunk` payload bytes as it holds credit for; the server replenishes
//! credit with [`Frame::Credit`] grants as (and only as) its admission
//! budget allows. That ties connection flow control directly to the
//! service's byte-denominated memory budget: a slow or hostile client
//! stalls *its own* connection, never the server's memory.
//!
//! Frame scanning is incremental: chunks of any size are scanned in
//! place, and at most one incomplete frame is ever buffered
//! ([`FrameScanner`]).
//!
//! The crate is sans-io on purpose: it never touches a socket. The server
//! (`syncd::net`) and the client (`syncd-client`) both drive these types
//! over whatever transport they have — including the deterministic
//! in-memory transports the simulation harness uses to inject
//! connection-level faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod scan;

pub use frame::{
    ErrorCode, Frame, FrameKind, WireClc, WireError, WireJobConfig, WireJobResult, WireJump,
    WireLatency, WireMeasurement, WireMode,
};
pub use scan::FrameScanner;

/// Protocol magic carried in every [`Frame::Hello`]: `"DSW\0"` with the
/// version negotiated separately.
pub const MAGIC: u32 = 0x0057_5344;

/// Protocol version this crate speaks. Version 3 dropped the `storage`
/// byte from the `JobConfig` payload (the pipeline has one timestamp
/// layout), version 4 its `parallel` section (a job is single-threaded),
/// version 5 its retry budget and the result's attempt count (a job runs
/// once) and method byte 0 (no CLC is method 1 without a CLC section);
/// a `Hello` of any other version is refused as
/// [`ErrorCode::VersionMismatch`].
pub const VERSION: u16 = 5;

/// Upper bound on a frame's declared payload length (kind byte included).
/// Large objects — trace streams, corrected traces — are chunked into
/// many frames well below this bound; a declared length above it is
/// rejected as [`WireError::Oversized`] before any buffering.
pub const MAX_FRAME_PAYLOAD: usize = 8 * 1024 * 1024;

/// Chunk payload size the reference client and server slice streams into.
/// Small enough to interleave credit grants and cancellation promptly,
/// large enough that framing overhead (5 bytes) is negligible.
pub const CHUNK_PAYLOAD: usize = 256 * 1024;

/// Encode one frame: length prefix, kind, payload.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    frame.encode()
}
