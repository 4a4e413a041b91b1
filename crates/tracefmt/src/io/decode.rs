//! The body decoder: every block of an indexed stream decoded into its
//! timeline, the timestamps straight into their run of the column slab.

use super::index::{index_columnar_chunks, ChunkStore, StreamIndex};
use super::{segment, CodecError};
use crate::column::TraceColumns;
use crate::event::EventRecord;
use crate::trace::{ProcessTrace, Trace};
use bytes::Bytes;
use simclock::Time;

/// Decode every block of an indexed stream into the trace and its
/// timestamp columns — the ready-to-run input of the columnar pipeline,
/// produced with no separate gather pass.
///
/// The records of each timeline and the one column slab are allocated
/// once, sized from [`StreamIndex::proc_lens`]. Each block's timestamp
/// segment is decoded straight into its run of the slab, then its records
/// off that run. The index has already judged the frame grammar, so what
/// is left to fail is a payload: an unknown kind or collective code.
///
/// # Panics
/// When `index` does not describe `store`'s bytes — one built by
/// [`index_columnar_chunks`] over the same chunks always does, so a
/// mismatch is a logic error, not an input error.
///
/// ```
/// use tracefmt::io::{decode_indexed, index_columnar_chunks, to_binary_columnar_v3, ChunkStore};
/// # use tracefmt::{Trace, EventKind, RegionId};
/// # use simclock::Time;
/// # let mut trace = Trace::for_ranks(1);
/// # trace.procs[0].push(Time::from_us(1), EventKind::Enter { region: RegionId(0) });
/// let encoded = to_binary_columnar_v3(&trace);
/// let chunks: Vec<&[u8]> = encoded.chunks(64 * 1024).collect();
/// let index = index_columnar_chunks(&chunks)?;
/// let (decoded, columns) = decode_indexed(&index, &ChunkStore::new(&chunks))?;
/// # assert_eq!(decoded.n_events(), trace.n_events());
/// # assert_eq!(columns.n_events(), 1);
/// # Ok::<(), tracefmt::io::CodecError>(())
/// ```
pub fn decode_indexed(
    index: &StreamIndex,
    store: &ChunkStore,
) -> Result<(Trace, TraceColumns), CodecError> {
    let lens = index.proc_lens.iter().map(|&n| n as usize);
    let mut cols = TraceColumns::zeroed(lens.clone());
    let procs = index.locations.iter().zip(lens).map(|(&location, n)| ProcessTrace {
        location,
        events: Vec::with_capacity(n),
    });
    let mut trace = Trace { procs: procs.collect() };
    let mut scratch = Vec::new();
    for block in &index.blocks {
        let (p, n) = (block.timeline as usize, block.n_events as usize);
        let first = block.first_idx as usize;
        let times = &mut cols.col_mut(p)[first..first + n];
        segment::decode_block_times(store.read(block.times_off, n * 8, &mut scratch), times);
        let payload = store.read(block.payload_off, block.payload_len as usize, &mut scratch);
        let events = &mut trace.procs[p].events;
        segment::walk_records(payload, n, |i, record| {
            events.push(EventRecord::new(Time::from_ps(times[i]), record.kind()));
        })?;
    }
    Ok((trace, cols))
}

/// Decode the columnar format in one call: index the one buffer, then
/// [`decode_indexed`].
pub fn from_binary_columnar(buf: Bytes) -> Result<Trace, CodecError> {
    let chunks = [&buf[..]];
    let index = index_columnar_chunks(&chunks)?;
    decode_indexed(&index, &ChunkStore::new(&chunks)).map(|(trace, _)| trace)
}
