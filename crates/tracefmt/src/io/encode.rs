//! The whole-trace encoders: clients of the one [`FrameWriter`], with the
//! segment bytes from `segment`.

use super::frame::{self, ColumnarVersion, FrameWriter, BLOCK_EVENTS, MAX_BLOCK_EVENTS};
use super::segment;
use crate::event::EventRecord;
use crate::trace::Trace;
use bytes::Bytes;

/// Encode a trace as one stream of `version`, each timeline split into
/// blocks of at most `block_events` events, into one buffer allocated once.
fn encode_trace(version: ColumnarVersion, trace: &Trace, block_events: usize) -> Bytes {
    let block_events = block_events.clamp(1, MAX_BLOCK_EVENTS);
    // An empty timeline is preserved as one zero-event block.
    let n_blocks: usize =
        trace.procs.iter().map(|pt| pt.events.len().div_ceil(block_events).max(1)).sum();
    let record = 8 + segment::payload_bounds(version, 1).end();
    let mut buf = Vec::with_capacity(frame::stream_bound(n_blocks) + trace.n_events() * record);
    let mut writer = FrameWriter::new(version, &mut buf);
    for pt in &trace.procs {
        let mut emit = |block: &[EventRecord]| {
            let payload_len = segment::payload_len(version, block);
            writer.header(&mut buf, pt.location, block.len(), payload_len);
            segment::put_times(version, &mut buf, block.iter().map(|e| e.time.as_ps()));
            segment::put_payload(version, &mut buf, block);
        };
        if pt.events.is_empty() {
            emit(&[]);
        }
        pt.events.chunks(block_events).for_each(emit);
    }
    writer.finish(&mut buf);
    buf.into()
}

/// Encode a trace in the `DTC2` layout, splitting each timeline into
/// blocks of at most [`BLOCK_EVENTS`] events.
pub fn to_binary_columnar(trace: &Trace) -> Bytes {
    to_binary_columnar_blocked(trace, BLOCK_EVENTS)
}

/// [`to_binary_columnar`] with an explicit block size (clamped to ≥ 1).
/// Smaller blocks mean earlier data for a streaming reader at the cost of
/// more frame headers.
pub fn to_binary_columnar_blocked(trace: &Trace, block_events: usize) -> Bytes {
    encode_trace(ColumnarVersion::V2, trace, block_events)
}

/// Encode a trace in the `DTC3` layout with the default block size.
pub fn to_binary_columnar_v3(trace: &Trace) -> Bytes {
    to_binary_columnar_v3_blocked(trace, BLOCK_EVENTS)
}

/// [`to_binary_columnar_v3`] with an explicit block size (clamped to ≥ 1).
pub fn to_binary_columnar_v3_blocked(trace: &Trace, block_events: usize) -> Bytes {
    encode_trace(ColumnarVersion::V3, trace, block_events)
}
