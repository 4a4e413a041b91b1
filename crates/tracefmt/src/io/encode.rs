//! The whole-trace encoders: clients of the one [`FrameWriter`], with the
//! segment bytes from `segment`.

use super::frame::{self, FrameWriter, BLOCK_EVENTS, MAX_BLOCK_EVENTS};
use super::segment;
use crate::event::EventRecord;
use crate::trace::Trace;
use bytes::Bytes;

/// Encode a trace in the `DTC3` layout with the default block size.
pub fn to_binary_columnar_v3(trace: &Trace) -> Bytes {
    to_binary_columnar_v3_blocked(trace, BLOCK_EVENTS)
}

/// [`to_binary_columnar_v3`] with an explicit block size (clamped to ≥ 1),
/// each timeline split into blocks of at most `block_events` events, into
/// one buffer allocated once. Smaller blocks mean earlier data for a
/// streaming reader at the cost of more frame headers.
pub fn to_binary_columnar_v3_blocked(trace: &Trace, block_events: usize) -> Bytes {
    let block_events = block_events.clamp(1, MAX_BLOCK_EVENTS);
    // An empty timeline is preserved as one zero-event block.
    let n_blocks: usize =
        trace.procs.iter().map(|pt| pt.events.len().div_ceil(block_events).max(1)).sum();
    let record = 8 + segment::payload_len(1);
    let mut buf = Vec::with_capacity(frame::stream_bound(n_blocks) + trace.n_events() * record);
    let mut writer = FrameWriter::new(&mut buf);
    for pt in &trace.procs {
        let mut emit = |block: &[EventRecord]| {
            writer.header(&mut buf, pt.location, block.len(), segment::payload_len(block.len()));
            segment::put_times(&mut buf, block.iter().map(|e| e.time.as_ps()));
            segment::put_payload(&mut buf, block);
        };
        if pt.events.is_empty() {
            emit(&[]);
        }
        pt.events.chunks(block_events).for_each(emit);
    }
    writer.finish(&mut buf);
    buf.into()
}
