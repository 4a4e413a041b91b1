//! The whole-trace encoders: clients of the one [`FrameWriter`], with the
//! segment bytes from `segment`.

use super::frame::{self, ColumnarVersion, FrameWriter, BLOCK_EVENTS, MAX_BLOCK_EVENTS};
use super::segment;
use crate::event::EventRecord;
use crate::ids::Location;
use crate::trace::Trace;
use bytes::Bytes;

/// Encode timelines as one stream of `version`, each split into blocks of
/// at most `block_events` events, into one buffer allocated once.
fn encode(
    version: ColumnarVersion,
    timelines: &[(Location, &[EventRecord])],
    block_events: usize,
) -> Vec<u8> {
    let block_events = block_events.clamp(1, MAX_BLOCK_EVENTS);
    let n_events: usize = timelines.iter().map(|(_, events)| events.len()).sum();
    // An empty timeline is preserved as one zero-event block.
    let n_blocks: usize =
        timelines.iter().map(|(_, events)| events.len().div_ceil(block_events).max(1)).sum();
    let record = 8 + segment::payload_bounds(version, 1).end();
    let mut buf = Vec::with_capacity(frame::stream_bound(n_blocks) + n_events * record);
    let mut writer = FrameWriter::new(version, &mut buf);
    for &(location, events) in timelines {
        let mut emit = |block: &[EventRecord]| {
            let payload_len = segment::payload_len(version, block);
            writer.header(&mut buf, location, block.len(), payload_len);
            segment::put_times(version, &mut buf, block.iter().map(|e| e.time.as_ps()));
            segment::put_payload(version, &mut buf, block);
        };
        if events.is_empty() {
            emit(&[]);
        }
        events.chunks(block_events).for_each(emit);
    }
    writer.finish(&mut buf);
    buf
}

fn encode_trace(version: ColumnarVersion, trace: &Trace, block_events: usize) -> Bytes {
    let timelines: Vec<_> =
        trace.procs.iter().map(|pt| (pt.location, pt.events.as_slice())).collect();
    encode(version, &timelines, block_events).into()
}

/// One timeline as a complete `DTC3` stream of its own — what an archive
/// stores per timeline file.
pub(crate) fn encode_timeline(location: Location, events: &[EventRecord]) -> Vec<u8> {
    encode(ColumnarVersion::V3, &[(location, events)], BLOCK_EVENTS)
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
