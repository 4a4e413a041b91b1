//! Discrete-event core: a deterministic time-ordered event queue.
//!
//! Ties are broken by insertion order (a monotone sequence number), so two
//! events scheduled for the same instant pop in FIFO order — this keeps the
//! whole simulation reproducible bit-for-bit across runs and platforms,
//! which the experiment harness relies on.

use simclock::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    time: Time,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-priority queue of timed events with FIFO tie-breaking.
///
/// ```
/// use netsim::EventQueue;
/// use simclock::Time;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_us(3), "late");
/// q.push(Time::from_us(1), "early");
/// q.push(Time::from_us(1), "early-second"); // same instant: FIFO
/// assert_eq!(q.pop(), Some((Time::from_us(1), "early")));
/// assert_eq!(q.pop(), Some((Time::from_us(1), "early-second")));
/// assert_eq!(q.pop(), Some((Time::from_us(3), "late")));
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Queue with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Schedule `item` at `time`.
    pub fn push(&mut self, time: Time, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, item });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        self.heap.pop().map(|e| (e.time, e.item))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(3), "c");
        q.push(Time::from_us(1), "a");
        q.push(Time::from_us(2), "b");
        assert_eq!(q.pop(), Some((Time::from_us(1), "a")));
        assert_eq!(q.pop(), Some((Time::from_us(2), "b")));
        assert_eq!(q.pop(), Some((Time::from_us(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_us(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(7), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(10), 10);
        q.push(Time::from_us(5), 5);
        assert_eq!(q.pop(), Some((Time::from_us(5), 5)));
        q.push(Time::from_us(1), 1);
        q.push(Time::from_us(20), 20);
        assert_eq!(q.pop(), Some((Time::from_us(1), 1)));
        assert_eq!(q.pop(), Some((Time::from_us(10), 10)));
        assert_eq!(q.pop(), Some((Time::from_us(20), 20)));
    }
}
