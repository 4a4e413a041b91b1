//! Babaoğlu/Drummond "(almost) no cost" synchronisation (paper references
//! [22], [23]).
//!
//! Observation: if the application itself performs **full message
//! exchanges** (all-to-all style collectives) in sufficiently short
//! intervals, those exchanges already carry all the information needed to
//! bound every pairwise clock offset — no extra synchronisation traffic is
//! required. Here the bounds are harvested from the trace's N-to-N
//! collective instances via the flavour mapping and fitted per process with
//! either a single line or Hofmann-style interval midpoints.

use super::hofmann::{minmax_map, MinMaxError};
use super::{corridor_from_collectives, duda, Corridor};
use clocksync::{IdentityMap, TimestampMap};
use tracefmt::{CollectiveInstance, MinLatency, Trace};

/// How the harvested corridor is fitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullExchangeFit {
    /// Single regression line (assumes constant drift between exchanges).
    Line,
    /// Piecewise midpoints over `n` intervals (tracks non-constant drift).
    Piecewise(usize),
}

/// Failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FullExchangeError {
    /// A worker shares no N-to-N collectives with the reference.
    NoExchanges(usize),
    /// Fitting failed for a worker.
    Fit(usize, String),
}

impl std::fmt::Display for FullExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FullExchangeError::NoExchanges(p) => {
                write!(f, "process {p} shares no full exchanges with the reference")
            }
            FullExchangeError::Fit(p, e) => write!(f, "fit failed for process {p}: {e}"),
        }
    }
}

impl std::error::Error for FullExchangeError {}

/// Build per-process maps onto the reference axis from the trace's
/// collective exchanges.
pub fn full_exchange_maps(
    trace: &Trace,
    insts: &[CollectiveInstance],
    lmin: &dyn MinLatency,
    reference: usize,
    fit: FullExchangeFit,
) -> Result<Vec<Box<dyn TimestampMap>>, FullExchangeError> {
    let mut maps: Vec<Box<dyn TimestampMap>> = Vec::with_capacity(trace.n_procs());
    for p in 0..trace.n_procs() {
        if p == reference {
            maps.push(Box::new(IdentityMap));
            continue;
        }
        let corridor: Corridor = corridor_from_collectives(trace, insts, reference, p, lmin);
        if corridor.is_empty() {
            return Err(FullExchangeError::NoExchanges(p));
        }
        match fit {
            FullExchangeFit::Line => {
                let m = duda::regression_map(&corridor)
                    .map_err(|e| FullExchangeError::Fit(p, e.to_string()))?;
                maps.push(Box::new(m));
            }
            FullExchangeFit::Piecewise(bins) => {
                match minmax_map(&corridor, bins) {
                    Ok(m) => maps.push(Box::new(m)),
                    // Gracefully fall back to a line when the run is too
                    // short for the requested resolution.
                    Err(MinMaxError::TooFewIntervals) => {
                        let m = duda::regression_map(&corridor)
                            .map_err(|e| FullExchangeError::Fit(p, e.to_string()))?;
                        maps.push(Box::new(m));
                    }
                    Err(e) => return Err(FullExchangeError::Fit(p, e.to_string())),
                }
            }
        }
    }
    Ok(maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::{Dur, Time};
    use tracefmt::{match_collectives, CollOp, CommId, EventKind, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(2_000_000)); // 2 µs

    /// `rounds` barrier instances on 3 ranks; worker clocks offset by the
    /// given amounts. True schedule: everyone begins together, ends 10 µs
    /// later.
    fn exchange_trace(offsets_us: [i64; 3], rounds: usize) -> Trace {
        let mut t = Trace::for_ranks(3);
        for k in 0..rounds {
            let base = (k as i64) * 1000;
            #[allow(clippy::needless_range_loop)]
            for p in 0..3 {
                t.procs[p].push(
                    Time::from_us(base + offsets_us[p]),
                    EventKind::CollBegin {
                        op: CollOp::Barrier,
                        comm: CommId::WORLD,
                        root: None,
                        bytes: 0,
                    },
                );
                t.procs[p].push(
                    Time::from_us(base + 10 + offsets_us[p]),
                    EventKind::CollEnd {
                        op: CollOp::Barrier,
                        comm: CommId::WORLD,
                        root: None,
                        bytes: 0,
                    },
                );
            }
        }
        t
    }

    #[test]
    fn full_exchanges_recover_offsets() {
        let t = exchange_trace([0, 250, -120], 30);
        let insts = match_collectives(&t).unwrap();
        let maps = full_exchange_maps(&t, &insts, &LMIN, 0, FullExchangeFit::Line).unwrap();
        // Corrected worker times should land near the reference axis;
        // the corridor half-width here is ~(10-2)=8 µs.
        let probe = Time::from_us(15_000 + 250);
        let err = (maps[1].map(probe) - Time::from_us(15_000)).abs();
        assert!(err < Dur::from_us(9), "proc1 err {err:?}");
        let probe2 = Time::from_us(15_000 - 120);
        let err2 = (maps[2].map(probe2) - Time::from_us(15_000)).abs();
        assert!(err2 < Dur::from_us(9), "proc2 err {err2:?}");
    }

    #[test]
    fn piecewise_fit_also_works() {
        let t = exchange_trace([0, 100, -50], 40);
        let insts = match_collectives(&t).unwrap();
        let maps =
            full_exchange_maps(&t, &insts, &LMIN, 0, FullExchangeFit::Piecewise(5)).unwrap();
        let probe = Time::from_us(20_000 + 100);
        let err = (maps[1].map(probe) - Time::from_us(20_000)).abs();
        assert!(err < Dur::from_us(9), "err {err:?}");
    }

    #[test]
    fn missing_exchanges_detected() {
        // Rank 2 participates in nothing; ranks 0/1 share several barriers
        // on a subcommunicator (enough for a pairwise fit).
        let mut t = Trace::for_ranks(3);
        for k in 0..5i64 {
            for p in 0..2 {
                t.procs[p].push(
                    Time::from_us(k * 100),
                    EventKind::CollBegin {
                        op: CollOp::Barrier,
                        comm: CommId(1),
                        root: None,
                        bytes: 0,
                    },
                );
                t.procs[p].push(
                    Time::from_us(k * 100 + 10),
                    EventKind::CollEnd {
                        op: CollOp::Barrier,
                        comm: CommId(1),
                        root: None,
                        bytes: 0,
                    },
                );
            }
        }
        t.procs[2].push(Time::ZERO, EventKind::Enter { region: tracefmt::RegionId(0) });
        let insts = match_collectives(&t).unwrap();
        let err = match full_exchange_maps(&t, &insts, &LMIN, 0, FullExchangeFit::Line) {
            Err(e) => e,
            Ok(_) => panic!("expected NoExchanges error"),
        };
        assert!(matches!(err, FullExchangeError::NoExchanges(2)));
    }

    #[test]
    fn piecewise_falls_back_to_line_on_short_runs() {
        let t = exchange_trace([0, 60, -60], 6);
        let insts = match_collectives(&t).unwrap();
        // 200 bins over 6 rounds: most empty → fallback path.
        let maps =
            full_exchange_maps(&t, &insts, &LMIN, 0, FullExchangeFit::Piecewise(200));
        assert!(maps.is_ok());
    }
}
