//! The one stamping walk under the logical clocks of [`crate::lamport`]
//! and [`crate::vector`]: the loop is fixed — timelines round-robin, a
//! receive waits until its send is stamped — and the clock varies in how a
//! local step extends it and how a receive merges the sender's stamp.

use crate::clc::ClcError;
use tracefmt::{match_messages, EventId, Trace};

/// Stamp every event of `trace`: `out[p][i]` is the clock of timeline `p`
/// after event `i`. Timeline `p` starts from `start(p)`; every event
/// applies `extend(clock, p)`, a matched receive first `merge`s the stamp
/// of its send (an unmatched one is a local event). A receive whose send
/// can never be stamped before it — the timelines wait on each other, or a
/// timeline receives its own later send — is [`ClcError::CyclicTrace`].
pub(crate) fn stamp_events<S: Clone>(
    trace: &Trace,
    start: impl Fn(usize) -> S,
    merge: impl Fn(&mut S, &S),
    extend: impl Fn(&mut S, usize),
) -> Result<Vec<Vec<S>>, ClcError> {
    let n = trace.n_procs();
    let mut send_of: Vec<Vec<Option<EventId>>> =
        trace.procs.iter().map(|p| vec![None; p.events.len()]).collect();
    for m in &match_messages(trace).messages {
        send_of[m.recv.p()][m.recv.i()] = Some(m.send);
    }
    let mut out: Vec<Vec<S>> = send_of.iter().map(|p| Vec::with_capacity(p.len())).collect();
    let mut clock: Vec<S> = (0..n).map(start).collect();

    loop {
        let mut progressed = false;
        for p in 0..n {
            while let Some(&send) = send_of[p].get(out[p].len()) {
                if let Some(s) = send {
                    let Some(sent) = out[s.p()].get(s.i()) else {
                        break; // send not stamped yet: leave the timeline here
                    };
                    merge(&mut clock[p], sent);
                }
                extend(&mut clock[p], p);
                out[p].push(clock[p].clone());
                progressed = true;
            }
        }
        if (0..n).all(|p| out[p].len() == send_of[p].len()) {
            return Ok(out);
        }
        if !progressed {
            return Err(ClcError::CyclicTrace);
        }
    }
}
