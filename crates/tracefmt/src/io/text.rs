//! The line-oriented text format: one event per line, `rank:thread time_ps
//! MNEMONIC args…` — for diffing and debugging, not for volume.

use super::segment::{kind_fields, kind_from_fields};
use super::CodecError;
use crate::event::EventRecord;
use crate::ids::{Location, Rank, ThreadId};
use crate::trace::{ProcessTrace, Trace};
use simclock::Time;
use std::fmt::Write as _;

/// Rough bytes-per-line estimate for sizing text output buffers: location,
/// picosecond timestamp, mnemonic and a few numeric args land near 40–60
/// characters per event in practice.
const TEXT_BYTES_PER_EVENT: usize = 56;

/// Encode a trace in the line-oriented text format.
///
/// The output buffer is preallocated from the event count so encoding a
/// large trace does not repeatedly regrow one giant `String`.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.n_events() * TEXT_BYTES_PER_EVENT);
    for pt in &trace.procs {
        for e in &pt.events {
            write_text_line(&mut out, pt.location, e);
        }
    }
    out
}

fn write_text_line(out: &mut String, loc: Location, e: &EventRecord) {
    let (code, a, b, c, d) = kind_fields(&e.kind);
    let (rank, thread) = (loc.rank.0, loc.thread.0);
    let _ = write!(out, "{rank}:{thread} {} {} {a}", e.time.as_ps(), e.kind.mnemonic());
    let _ = match code {
        2 | 3 => write!(out, " {b} {c}"),
        4 | 5 => write!(out, " {b} {} {d}", c as i64),
        _ => Ok(()),
    };
    out.push('\n');
}

/// Decode the text format back into a trace. Timelines appear in first-seen
/// order.
pub fn from_text(s: &str) -> Result<Trace, CodecError> {
    let mut trace = Trace::default();
    let mut index: std::collections::HashMap<Location, usize> = std::collections::HashMap::new();
    for line in s.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let mut next = || parts.next().ok_or(CodecError::Truncated);
        let loc_str = next()?;
        let (r, t) = loc_str
            .split_once(':')
            .ok_or_else(|| CodecError::BadField(loc_str.into()))?;
        let loc = Location {
            rank: Rank(parse(r)?),
            thread: ThreadId(parse(t)?),
        };
        let time = Time::from_ps(parse(next()?)?);
        let mn = next()?;
        // The code whose kind carries this mnemonic; its fields follow in
        // the order `kind_fields` names them, as many as the kind uses.
        let code = (0..=9u8)
            .find(|&code| kind_from_fields(code, 0, 0, 0, 0).is_ok_and(|k| k.mnemonic() == mn))
            .ok_or_else(|| CodecError::UnknownKind(mn.into()))?;
        let a = parse(next()?)?;
        let (b, c, d) = match code {
            2 | 3 => (parse(next()?)?, parse(next()?)?, 0),
            4 | 5 => (parse(next()?)?, parse::<i64>(next()?)? as u64, parse(next()?)?),
            _ => (0, 0, 0),
        };
        let kind = kind_from_fields(code, a, b, c, d)?;
        let p = *index.entry(loc).or_insert_with(|| {
            trace.procs.push(ProcessTrace::new(loc));
            trace.procs.len() - 1
        });
        trace.procs[p].push(time, kind);
    }
    Ok(trace)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, CodecError> {
    s.parse().map_err(|_| CodecError::BadField(s.into()))
}
