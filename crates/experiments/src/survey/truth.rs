//! Ground truth: how far corrected timestamps lie from the true times of
//! the events they stamp.
//!
//! The simulator keeps each event's true time beside the clock read the
//! tracer stored (`mpisim::RunOutput::truth`). Eq. 3 maps every timeline
//! onto the master's clock, so a corrected trace is scored in that frame:
//! an event's truth is the master's ideal clock (its offset and drift,
//! without read noise) at the event's true time ([`eq3_frame`]). The
//! paper's §III requirement is an error below half the message latency;
//! [`TruthReport`] counts the events that meet it.

use crate::fig7::TracedRun;
use simclock::{Dur, Locality, Time};
use tracefmt::{percentile, Summary, Trace};

/// One corrected trace scored against the truth.
#[derive(Debug, Clone)]
pub struct TruthReport {
    /// Signed mean error (stamped − true), µs.
    pub mean_us: f64,
    /// Root-mean-square error, µs.
    pub rms_us: f64,
    /// Median |error|, µs.
    pub p50_abs_us: f64,
    /// 99th percentile of |error|, µs.
    pub p99_abs_us: f64,
    /// Largest |error|, µs.
    pub max_abs_us: f64,
    /// Share of events whose |error| is within the bound (§III: half the
    /// smallest inter-node `l_min`).
    pub within_share: f64,
    /// Events the correction moved closer to the truth than its input
    /// had them.
    pub moved_closer: usize,
    /// Events the correction moved further from the truth.
    pub moved_further: usize,
    /// Mean relative change of consecutive-event intervals against the true
    /// intervals, percent: each timeline's mean, averaged over timelines.
    pub interval_distortion_pct: f64,
}

impl TruthReport {
    /// Score `stamped` against `truth` (indexed like the trace, in the
    /// frame `stamped` is in), counting events within `bound`; `input` is
    /// the trace the correction started from, with the same events.
    pub fn new(input: &Trace, stamped: &Trace, truth: &[Vec<Time>], bound: Dur) -> Self {
        let mut abs = Vec::with_capacity(stamped.n_events());
        let (mut sum, mut sq, mut within, mut closer, mut further) = (0.0, 0.0, 0, 0, 0);
        let mut distortion = Summary::new();
        for ((before, after), truth) in input.procs.iter().zip(&stamped.procs).zip(truth) {
            for ((b, a), &t) in before.events.iter().zip(&after.events).zip(truth) {
                let (d, e) = ((a.time - t).abs(), (a.time - t).as_us_f64());
                sum += e;
                sq += e * e;
                abs.push(e.abs());
                within += usize::from(d <= bound);
                if a.time != b.time {
                    let was = (b.time - t).abs();
                    closer += usize::from(d < was);
                    further += usize::from(d > was);
                }
            }
            let per_proc =
                interval_distortion(truth.iter().copied(), after.events.iter().map(|e| e.time));
            if per_proc.count() > 0 {
                distortion.add(per_proc.mean());
            }
        }
        abs.sort_by(f64::total_cmp);
        let n = abs.len().max(1) as f64;
        TruthReport {
            mean_us: sum / n,
            rms_us: (sq / n).sqrt(),
            p50_abs_us: percentile(&abs, 50.0).unwrap_or(0.0),
            p99_abs_us: percentile(&abs, 99.0).unwrap_or(0.0),
            max_abs_us: abs.last().copied().unwrap_or(0.0),
            within_share: within as f64 / n,
            moved_closer: closer,
            moved_further: further,
            interval_distortion_pct: distortion.mean(),
        }
    }
}

/// The shortest reference interval [`interval_distortion`] scores, µs.
/// Below it a clock read's noise is a large part of the interval itself
/// (an `Enter` → `Exit` gap of a few hundred ns), and the relative change
/// measures that noise, not the correction.
pub const MIN_SCORED_INTERVAL_US: f64 = 1.0;

/// Relative change of every reference interval of at least
/// [`MIN_SCORED_INTERVAL_US`] between consecutive events of one timeline,
/// percent: `100 · |stamped − ref| / ref`, one sample per interval.
pub fn interval_distortion(
    reference: impl IntoIterator<Item = Time>,
    stamped: impl IntoIterator<Item = Time>,
) -> Summary {
    let mut out = Summary::new();
    let mut prev: Option<(Time, Time)> = None;
    for (r, s) in reference.into_iter().zip(stamped) {
        if let Some((pr, ps)) = prev {
            let orig = (r - pr).as_us_f64();
            if orig >= MIN_SCORED_INTERVAL_US {
                let corr = (s - ps).as_us_f64();
                out.add(100.0 * (corr - orig).abs() / orig);
            }
        }
        prev = Some((r, s));
    }
    out
}

/// A traced run's truth in Eq. 3's frame (the master's ideal clock at each
/// event's true time), and the §III bound: half the smallest inter-node
/// `l_min`. `l_min` depends only on the pair's locality, so every
/// inter-node pair has the same one.
pub fn eq3_frame(run: &TracedRun) -> (Vec<Vec<Time>>, Dur) {
    let c = &run.cluster;
    let master = c.placement.core_of(0);
    let truth = run
        .truth
        .iter()
        .map(|ts| ts.iter().map(|&t| c.clocks.ideal_at(master, t)).collect())
        .collect();
    let l_min = c.latency.send_overhead + c.latency.l_min(Locality::InterNode, 0);
    (truth, Dur::from_ps(l_min.as_ps() / 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefmt::{EventKind, RegionId};

    fn trace(times: &[i64]) -> Trace {
        let mut t = Trace::for_ranks(1);
        for &us in times {
            t.procs[0].push(Time::from_us(us), EventKind::Enter { region: RegionId(0) });
        }
        t
    }

    #[test]
    fn errors_counts_and_distortion_against_truth() {
        let truth = vec![[0i64, 10, 20, 30].map(Time::from_us).to_vec()];
        let input = trace(&[5, 15, 25, 35]);
        // The correction fixes the first two events, overshoots the third
        // to 19 and leaves the fourth.
        let stamped = trace(&[0, 10, 19, 35]);
        let r = TruthReport::new(&input, &stamped, &truth, Dur::from_us(2));
        assert_eq!((r.moved_closer, r.moved_further), (3, 0));
        assert!((r.mean_us - (0.0 + 0.0 - 1.0 + 5.0) / 4.0).abs() < 1e-9);
        assert!((r.rms_us - (26.0f64 / 4.0).sqrt()).abs() < 1e-9);
        assert_eq!(r.max_abs_us, 5.0);
        assert_eq!(r.within_share, 0.75);
        // True intervals 10, 10, 10; stamped 10, 9, 16.
        assert!((r.interval_distortion_pct - (0.0 + 10.0 + 60.0) / 3.0).abs() < 1e-9);

        let untouched = TruthReport::new(&input, &input, &truth, Dur::from_us(2));
        assert_eq!((untouched.moved_closer, untouched.moved_further), (0, 0));
        assert_eq!(untouched.interval_distortion_pct, 0.0);
        assert_eq!(untouched.within_share, 0.0);
    }

    #[test]
    fn intervals_under_a_microsecond_are_not_scored() {
        let reference = [0, 999_999, 2_000_000, 2_000_000].map(Time::from_ps);
        let stamped = [0, 1_999_999, 3_000_000, 3_500_000].map(Time::from_ps);
        // Only the 1 µs interval counts: stamped 1 µs, +0 %.
        let d = interval_distortion(reference, stamped);
        assert_eq!((d.count(), d.mean()), (1, 0.0));
    }
}
