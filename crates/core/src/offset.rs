//! Offset estimation from remote clock-reading round trips (paper Eq. 2).
//!
//! Cristian's probabilistic technique: the master records `t1` when its
//! request leaves and `t2` when the reply arrives; the worker reports its
//! local time `t0` in between. Assuming the two message delays are equal,
//!
//! ```text
//! o = t1 + (t2 − t1)/2 − t0
//! ```
//!
//! estimates the master-minus-worker offset at worker time `t0`. Real
//! networks have *irregular* delays, so the exchange is repeated and the
//! round with the smallest round-trip time wins — that round's delays are
//! the most symmetric with the highest probability.

pub use onlinesync::OffsetMeasurement;
use simclock::{Dur, Time};

/// The three local timestamps of one request/reply exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSample {
    /// Master local time at request departure.
    pub t1: Time,
    /// Worker local time at reply.
    pub t0: Time,
    /// Master local time at reply arrival.
    pub t2: Time,
}

impl ProbeSample {
    /// Round-trip time as seen by the master.
    pub fn rtt(&self) -> Dur {
        self.t2 - self.t1
    }

    /// The Eq. 2 offset estimate (master − worker) from this round alone.
    pub fn offset(&self) -> Dur {
        self.t1 + (self.t2 - self.t1) / 2 - self.t0
    }
}

/// Estimate the offset from repeated probes by Cristian's min-round-trip
/// filter. Returns `None` for an empty slice.
///
/// ```
/// use clocksync::{estimate_offset, ProbeSample};
/// use simclock::{Dur, Time};
///
/// let rounds = [
///     // a jittery round (rtt 40 µs) and a clean one (rtt 10 µs)
///     ProbeSample { t1: Time::from_us(0), t0: Time::from_us(25), t2: Time::from_us(40) },
///     ProbeSample { t1: Time::from_us(100), t0: Time::from_us(105), t2: Time::from_us(110) },
/// ];
/// let m = estimate_offset(&rounds).unwrap();
/// assert_eq!(m.rtt, Dur::from_us(10));   // the clean round won
/// assert_eq!(m.offset, Dur::ZERO);       // Eq. 2 on symmetric delays
/// ```
pub fn estimate_offset(samples: &[ProbeSample]) -> Option<OffsetMeasurement> {
    let best = samples.iter().min_by_key(|s| s.rtt().as_ps())?;
    Some(OffsetMeasurement {
        worker_time: best.t0,
        offset: best.offset(),
        rtt: best.rtt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t1_us: i64, t0_us: i64, t2_us: i64) -> ProbeSample {
        ProbeSample {
            t1: Time::from_us(t1_us),
            t0: Time::from_us(t0_us),
            t2: Time::from_us(t2_us),
        }
    }

    #[test]
    fn eq2_on_symmetric_delays_is_exact() {
        // Worker is 100 µs behind the master; both delays 5 µs.
        // Master sends at t1=1000, true arrival 1005 → t0 = 905.
        // Reply arrives at master 1010.
        let s = sample(1000, 905, 1010);
        assert_eq!(s.offset(), Dur::from_us(100));
        assert_eq!(s.rtt(), Dur::from_us(10));
    }

    #[test]
    fn asymmetry_biases_by_half_the_difference() {
        // Forward delay 5 µs, backward 15 µs; true offset 0.
        // t1=0, worker reads t0 at true 5 → t0=5, reply lands at 20.
        let s = sample(0, 5, 20);
        // Estimate: 0 + 10 - 5 = 5 µs — half the 10 µs asymmetry.
        assert_eq!(s.offset(), Dur::from_us(5));
    }

    #[test]
    fn min_rtt_round_wins() {
        let rounds = vec![
            sample(0, 20, 40),    // rtt 40, jittery
            sample(100, 105, 110), // rtt 10, clean
            sample(200, 230, 260), // rtt 60
        ];
        let m = estimate_offset(&rounds).unwrap();
        assert_eq!(m.rtt, Dur::from_us(10));
        assert_eq!(m.worker_time, Time::from_us(105));
        assert_eq!(m.offset, Dur::from_us(0));
    }

    #[test]
    fn empty_probe_set() {
        assert!(estimate_offset(&[]).is_none());
    }

    #[test]
    fn negative_offsets_are_fine() {
        // Worker ahead of master by 50 µs, symmetric 4 µs delays:
        // t1=0, t0 = 4+50 = 54, t2 = 8.
        let s = sample(0, 54, 8);
        assert_eq!(s.offset(), Dur::from_us(-50));
    }
}
