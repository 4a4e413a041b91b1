//! Fidge/Mattern vector clocks.
//!
//! Each process keeps a vector of per-process counters; local events bump
//! the own component, receives merge the sender's vector element-wise
//! (paper §V, [25]–[27]). Unlike Lamport stamps, vector timestamps are
//! *complete*: `a happened-before b` **iff** `V(a) < V(b)`, so they can
//! decide concurrency, which makes them the reference oracle for validating
//! happened-before-based corrections.

use crate::clc::ClcError;
use crate::stamp::stamp_events;
use tracefmt::Trace;

/// A vector timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorStamp(pub Vec<u32>);

impl VectorStamp {
    /// Strict happened-before: every component ≤, at least one <.
    pub fn happened_before(&self, other: &VectorStamp) -> bool {
        let mut strict = false;
        for (a, b) in self.0.iter().zip(&other.0) {
            if a > b {
                return false;
            }
            if a < b {
                strict = true;
            }
        }
        strict
    }

    /// Neither happened before the other.
    pub fn concurrent_with(&self, other: &VectorStamp) -> bool {
        !self.happened_before(other) && !other.happened_before(self) && self != other
    }
}

/// Vector timestamps for every event: `out[p][i]` stamps event `i` of
/// process `p`. A trace whose messages cannot be ordered is
/// [`ClcError::CyclicTrace`].
pub fn vector_timestamps(trace: &Trace) -> Result<Vec<Vec<VectorStamp>>, ClcError> {
    let n = trace.n_procs();
    stamp_events(
        trace,
        |_| VectorStamp(vec![0; n]),
        |clock, sent| clock.0.iter_mut().zip(&sent.0).for_each(|(c, m)| *c = (*c).max(*m)),
        |clock, p| clock.0[p] += 1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::Time;
    use tracefmt::{match_messages, EventKind, Rank, RegionId, Tag};

    fn msg_trace() -> Trace {
        // p0: local, send     p1: local, recv, local
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(Time::from_us(0), EventKind::Enter { region: RegionId(0) });
        t.procs[0].push(Time::from_us(1), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(Time::from_us(0), EventKind::Enter { region: RegionId(0) });
        t.procs[1].push(Time::from_us(5), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        t.procs[1].push(Time::from_us(6), EventKind::Exit { region: RegionId(0) });
        t
    }

    #[test]
    fn components_advance_locally() {
        let t = msg_trace();
        let v = vector_timestamps(&t).unwrap();
        assert_eq!(v[0][0].0, vec![1, 0]);
        assert_eq!(v[0][1].0, vec![2, 0]);
        assert_eq!(v[1][0].0, vec![0, 1]);
        // Recv merges the sender's vector.
        assert_eq!(v[1][1].0, vec![2, 2]);
        assert_eq!(v[1][2].0, vec![2, 3]);
    }

    #[test]
    fn happened_before_iff_path() {
        let t = msg_trace();
        let v = vector_timestamps(&t).unwrap();
        // send happened-before recv and its successors.
        assert!(v[0][1].happened_before(&v[1][1]));
        assert!(v[0][1].happened_before(&v[1][2]));
        assert!(v[0][0].happened_before(&v[1][2]));
        // p1's first local event is concurrent with everything on p0.
        assert!(v[1][0].concurrent_with(&v[0][0]));
        assert!(v[1][0].concurrent_with(&v[0][1]));
        // Nothing happens before itself.
        assert!(!v[0][0].happened_before(&v[0][0]));
    }

    #[test]
    fn concurrency_is_symmetric() {
        let t = msg_trace();
        let v = vector_timestamps(&t).unwrap();
        assert_eq!(
            v[1][0].concurrent_with(&v[0][1]),
            v[0][1].concurrent_with(&v[1][0])
        );
    }

    #[test]
    fn vector_condition_matches_lamport_condition() {
        // Every message in a consistent or inconsistent trace must yield
        // send happened-before recv in the vector order.
        let t = msg_trace();
        let v = vector_timestamps(&t).unwrap();
        let m = match_messages(&t);
        for msg in &m.messages {
            assert!(v[msg.send.p()][msg.send.i()].happened_before(&v[msg.recv.p()][msg.recv.i()]));
        }
    }
}
