//! Admission control: memory-cost estimation and the bounded priority
//! queue.
//!
//! Cost estimation is deliberately cheap: the estimator runs
//! [`estimate_columnar_stream`] over a job's `DTC3` chunks — a header-only
//! scan that reads 16 bytes per block and skips every payload — so
//! admission never decodes (or allocates for) a stream it is about to
//! reject.

use crate::job::{JobInput, Priority};
use std::collections::VecDeque;
use tracefmt::io::estimate_columnar_stream;
use tracefmt::EventRecord;

/// Working-set estimate of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCost {
    /// Estimated peak bytes the job will pin while running.
    pub bytes: u64,
    /// Events the estimate is based on.
    pub events: u64,
    /// Whether the estimate saw the whole input (a truncated stream scan
    /// yields a lower bound; the run itself will then fail typed).
    pub complete: bool,
}

/// Per-event working-set charge on top of the decoded record: the columnar
/// timestamp copy, the capture's records, and the dependency graph and
/// census plan the pipeline builds. The graph keeps two words per event (a
/// timeline and a link) and shares one message table (16 bytes a message)
/// and one collective member table with the plan; a collective is its
/// member rows (a few words per `CollBegin`/`CollEnd`, whatever the
/// communicator's width), never its k·(k−1) logical messages, so a flat
/// per-event rate covers them. What does not scale with events is one
/// k × k `l_min` block per communicator — the order of the `LatencyTable`
/// every job freezes, and bounded with it by the pipeline's rank ceiling.
/// `tests/admission_memory.rs` holds the charge against the peak live heap
/// of a batch and a windowed job: with the stream's bytes, the `pop_batch`
/// input pins 102.4 bytes per event (the decoded trace and its columns,
/// then the capture, whose record column is reserved for every event)
/// against 105 charged.
const PER_EVENT_OVERHEAD: u64 = 40;

/// Flat charge per job (queue entry, report, per-proc maps).
const PER_JOB_BASE: u64 = 16 * 1024;

/// Estimate what admitting `input` will cost, without decoding it. A
/// malformed stream is priced like any other — the run answers for it.
pub fn estimate_job_cost(input: &JobInput) -> JobCost {
    match input {
        JobInput::Stream(chunks) => stream_cost(chunks, false),
        JobInput::StreamIncremental { chunks, .. } => stream_cost(chunks, true),
    }
}

/// Header-scan pricing shared by both stream job modes.
///
/// `emits_frames` is the incremental mode: the windowed engine keeps only
/// O(window) timestamp columns resident, but it re-encodes the whole
/// stream as corrected frames that accumulate until the submitter takes
/// them, so the job pins roughly input + output bytes. The per-event
/// record charge stays — the capture's records and the dependency graph
/// (a link per event, the message table, collectives as member rows) are
/// O(events) structural metadata on that path too.
fn stream_cost(chunks: &[Vec<u8>], emits_frames: bool) -> JobCost {
    let record = std::mem::size_of::<EventRecord>() as u64 + PER_EVENT_OVERHEAD;
    let est = estimate_columnar_stream(chunks.iter().map(|c| c.as_slice()));
    // A stream whose headers were unreadable (or cut off) still occupies
    // its own bytes; floor the event estimate on the encoded size so
    // garbage input cannot claim to be free. A *clean* complete scan is
    // authoritative — v3 frames carry more bytes per event than the
    // floor's divisor assumes, so flooring it would overcharge — but
    // `complete` alone is not clean: bytes after the trailer mean the
    // decoder will reject the stream, so a dirty tail keeps the floor
    // (trailing garbage must never under-charge the budget).
    let events = if est.complete && est.trailing_bytes == 0 {
        est.events
    } else {
        est.events.max(est.bytes / 24)
    };
    let stream_bytes = if emits_frames {
        est.bytes.saturating_mul(2)
    } else {
        est.bytes
    };
    JobCost { bytes: PER_JOB_BASE + stream_bytes + events * record, events, complete: est.complete }
}

/// One queued entry: the job plus its admission cost (generic so the
/// queue is testable without a full service around it).
#[derive(Debug)]
pub(crate) struct Queued<T> {
    pub(crate) job: T,
    pub(crate) cost: u64,
}

/// A bounded, strict-priority, FIFO-within-class queue.
///
/// Not internally synchronized — the service wraps it in its state mutex,
/// which it needs anyway for the condition variable.
#[derive(Debug)]
pub(crate) struct PriorityQueue<T> {
    classes: [VecDeque<Queued<T>>; Priority::COUNT],
    len: usize,
    capacity: usize,
}

impl<T> PriorityQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        PriorityQueue {
            classes: std::array::from_fn(|_| VecDeque::new()),
            len: 0,
            capacity,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push at the back of `priority`'s class. The caller must have
    /// checked `is_full` under the same lock.
    pub(crate) fn push(&mut self, priority: Priority, entry: Queued<T>) {
        debug_assert!(self.len < self.capacity);
        self.classes[priority.index()].push_back(entry);
        self.len += 1;
    }

    /// Pop the oldest entry of the highest non-empty class.
    pub(crate) fn pop(&mut self) -> Option<Queued<T>> {
        for class in self.classes.iter_mut() {
            if let Some(entry) = class.pop_front() {
                self.len -= 1;
                return Some(entry);
            }
        }
        None
    }

    /// Drain everything (used at shutdown to fail queued jobs typed).
    pub(crate) fn drain(&mut self) -> Vec<Queued<T>> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(entry) = self.pop() {
            out.push(entry);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::Time;
    use tracefmt::io::to_binary_columnar_v3_blocked;
    use tracefmt::{EventKind, RegionId, Trace};

    fn tiny_trace(events_per_proc: usize) -> Trace {
        let mut t = Trace::for_ranks(2);
        for r in 0..2 {
            for i in 0..events_per_proc {
                t.procs[r].push(
                    Time::from_ps((i as i64 + 1) * 1000),
                    EventKind::Enter { region: RegionId(1) },
                );
            }
        }
        t
    }

    #[test]
    fn stream_cost_scales_with_events() {
        let cost = |n| {
            let bytes = to_binary_columnar_v3_blocked(&tiny_trace(n), 16);
            estimate_job_cost(&JobInput::Stream(vec![bytes.to_vec()]))
        };
        let (small, large) = (cost(10), cost(1000));
        assert_eq!(small.events, 20);
        assert_eq!(large.events, 2000);
        assert!(large.bytes > small.bytes);
        assert!(small.complete && large.complete);
    }

    #[test]
    fn stream_cost_comes_from_headers_and_flags_truncation() {
        let trace = tiny_trace(64);
        let bytes = to_binary_columnar_v3_blocked(&trace, 16);
        let whole = estimate_job_cost(&JobInput::Stream(vec![bytes.to_vec()]));
        assert_eq!(whole.events, 128);
        assert!(whole.complete);

        let cut = bytes.len() / 2;
        let truncated = estimate_job_cost(&JobInput::Stream(vec![bytes[..cut].to_vec()]));
        assert!(!truncated.complete);
        assert!(truncated.bytes > 0);
    }

    #[test]
    fn garbage_streams_are_never_free() {
        let garbage = vec![vec![0xAB; 4096]];
        let cost = estimate_job_cost(&JobInput::Stream(garbage));
        assert!(!cost.complete);
        assert!(cost.events >= 4096 / 24);
        assert!(cost.bytes > 4096);
    }

    #[test]
    fn trailing_garbage_cannot_under_charge() {
        // Regression: a tiny valid stream with a large garbage tail scans
        // `complete` (the trailer WAS seen), but the decoder will reject
        // it — admission must price the tail, not trust the few events
        // the headers announce.
        let small = tiny_trace(4);
        let valid = to_binary_columnar_v3_blocked(&small, 16).to_vec();
        let mut dirty = valid.clone();
        dirty.extend(std::iter::repeat_n(0xA5u8, 64 * 1024));
        let total = dirty.len() as u64;
        let cost = estimate_job_cost(&JobInput::Stream(vec![dirty]));
        assert!(cost.complete, "trailer was present, scan is complete");
        assert!(
            cost.events >= total / 24,
            "byte floor must hold: {} events for {} bytes",
            cost.events,
            total
        );
        // And it must charge strictly more than the clean stream alone.
        let clean = estimate_job_cost(&JobInput::Stream(vec![valid]));
        assert!(cost.bytes > clean.bytes + 64 * 1024);
    }

    #[test]
    fn incremental_job_cost_covers_input_and_output() {
        let trace = tiny_trace(64);
        let chunks = vec![to_binary_columnar_v3_blocked(&trace, 16).to_vec()];
        let stream = estimate_job_cost(&JobInput::Stream(chunks.clone()));
        let incremental = estimate_job_cost(&JobInput::StreamIncremental {
            chunks,
            window_events: 32,
        });
        assert_eq!(incremental.events, stream.events);
        assert!(incremental.complete);
        // The incremental job accumulates corrected output frames on top
        // of its pinned input, so it must be priced above the plain
        // stream job.
        assert!(incremental.bytes > stream.bytes);
    }

    #[test]
    fn pop_order_is_strict_priority_then_fifo() {
        let mut q: PriorityQueue<u32> = PriorityQueue::new(8);
        q.push(Priority::Low, Queued { job: 1, cost: 0 });
        q.push(Priority::Normal, Queued { job: 2, cost: 0 });
        q.push(Priority::High, Queued { job: 3, cost: 0 });
        q.push(Priority::Normal, Queued { job: 4, cost: 0 });
        q.push(Priority::High, Queued { job: 5, cost: 0 });
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.job)).collect();
        assert_eq!(order, vec![3, 5, 2, 4, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_tracked_across_push_and_pop() {
        let mut q: PriorityQueue<u32> = PriorityQueue::new(2);
        assert!(!q.is_full());
        q.push(Priority::Normal, Queued { job: 1, cost: 0 });
        q.push(Priority::Low, Queued { job: 2, cost: 0 });
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
        assert_eq!(q.capacity(), 2);
        q.pop();
        assert!(!q.is_full());
        let drained = q.drain();
        assert_eq!(drained.len(), 1);
        assert!(q.is_empty());
    }
}
