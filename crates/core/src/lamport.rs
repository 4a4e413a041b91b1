//! Lamport's discrete logical clock.
//!
//! The classic happened-before counter (paper §V, [24]): every local event
//! increments the process counter; a receive additionally raises it above
//! the send's value. Logical timestamps establish a *consistent* order —
//! they satisfy the clock condition by construction — but discard interval
//! lengths entirely, which is why the paper ultimately advocates the
//! controlled logical clock instead.

use crate::clc::ClcError;
use crate::stamp::stamp_events;
use tracefmt::{match_messages, Trace};

/// Lamport timestamps parallel to the trace layout: `out[p][i]` is the
/// logical time of event `i` on process `p`. A trace whose messages cannot
/// be ordered — a receive before its own timeline's send included — is
/// [`ClcError::CyclicTrace`].
pub fn lamport_timestamps(trace: &Trace) -> Result<Vec<Vec<u64>>, ClcError> {
    stamp_events(trace, |_| 0u64, |clock, sent| *clock = (*clock).max(*sent), |clock, _| *clock += 1)
}

/// Check the Lamport clock condition on the stamped trace: every receive's
/// logical time exceeds its send's. Mostly useful as a test oracle.
pub fn satisfies_lamport_condition(trace: &Trace, stamps: &[Vec<u64>]) -> bool {
    let matching = match_messages(trace);
    matching
        .messages
        .iter()
        .all(|m| stamps[m.recv.p()][m.recv.i()] > stamps[m.send.p()][m.send.i()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::Time;
    use tracefmt::{EventKind, Rank, RegionId, Tag};

    #[test]
    fn local_events_count_up() {
        let mut t = Trace::for_ranks(1);
        for i in 0..5 {
            t.procs[0].push(Time::from_us(i), EventKind::Enter { region: RegionId(0) });
        }
        let s = lamport_timestamps(&t).unwrap();
        assert_eq!(s[0], vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn recv_exceeds_send_even_with_reversed_timestamps() {
        let mut t = Trace::for_ranks(2);
        // Sender has done lots of local work: counter high.
        for i in 0..9 {
            t.procs[0].push(Time::from_us(i), EventKind::Enter { region: RegionId(0) });
        }
        t.procs[0].push(
            Time::from_us(100),
            EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 },
        );
        // Receiver's wall-clock timestamp is BEFORE the send (violation),
        // but Lamport ignores wall clocks entirely.
        t.procs[1].push(
            Time::from_us(50),
            EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 },
        );
        let s = lamport_timestamps(&t).unwrap();
        assert_eq!(s[0][9], 10);
        assert_eq!(s[1][0], 11);
        assert!(satisfies_lamport_condition(&t, &s));
    }

    #[test]
    fn cross_process_chains_propagate() {
        // 0 -> 1 -> 2 chain: stamps strictly increase along the chain.
        let mut t = Trace::for_ranks(3);
        t.procs[0].push(Time::from_us(0), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(Time::from_us(1), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        t.procs[1].push(Time::from_us(2), EventKind::Send { to: Rank(2), tag: Tag(0), bytes: 0 });
        t.procs[2].push(Time::from_us(3), EventKind::Recv { from: Rank(1), tag: Tag(0), bytes: 0 });
        let s = lamport_timestamps(&t).unwrap();
        assert!(s[0][0] < s[1][0]);
        assert!(s[1][1] < s[2][0]);
    }

    #[test]
    fn unmatched_recv_does_not_hang() {
        let mut t = Trace::for_ranks(2);
        t.procs[1].push(Time::from_us(1), EventKind::Recv { from: Rank(0), tag: Tag(9), bytes: 0 });
        let s = lamport_timestamps(&t).unwrap();
        assert_eq!(s[1][0], 1);
    }
}
