//! The §IV intra-node finding: on the Xeon cluster, clocks co-located on
//! one SMP node deviate only by noise of roughly ±0.1 µs — whether between
//! chips or between cores of one chip, and with or without correction —
//! so MPI message semantics inside a node survive without postprocessing.

use crate::common::{print_claims, Claim};
use simclock::{ClockDomain, ClockEnsemble, Locality, Platform, Time, TimerKind};

/// Outcome per correction mode.
#[derive(Debug, Clone)]
pub struct IntranodeOutcome {
    /// Max |deviation| between cores on *different chips* of one node, µs.
    pub inter_chip_max_us: f64,
    /// Max |deviation| between cores on the *same chip*, µs.
    pub intra_chip_max_us: f64,
}

/// Measure co-located clock deviations over `duration_s`, sampling both
/// chips of one Xeon node. Three correction modes are reported: raw
/// (uncorrected), aligned at start, linear interpolation start→end.
pub fn intranode(duration_s: f64, seed: u64) -> [(&'static str, IntranodeOutcome); 3] {
    let shape = Platform::XeonCluster.shape(1);
    let profile = Platform::XeonCluster.clock_profile(TimerKind::IntelTsc, duration_s * 1.3 + 30.0);
    let mut clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);

    let cores: Vec<_> = shape.cores().collect();
    let samples = 120usize;
    // raw[c][k]: noisy reading of core c at sample k.
    let mut raw = vec![Vec::with_capacity(samples); cores.len()];
    let mut times = Vec::with_capacity(samples);
    for k in 0..=samples {
        let t = Time::from_secs_f64(duration_s * k as f64 / samples as f64);
        times.push(t);
        for (ci, &c) in cores.iter().enumerate() {
            raw[ci].push(clocks.sample(c, t));
        }
    }

    let deviation = |correct: &dyn Fn(usize, Time) -> Time| -> IntranodeOutcome {
        let mut inter: f64 = 0.0;
        let mut intra: f64 = 0.0;
        for a in 0..cores.len() {
            for b in (a + 1)..cores.len() {
                #[allow(clippy::needless_range_loop)]
                for k in 0..=samples {
                    let d = (correct(a, raw[a][k]) - correct(b, raw[b][k]))
                        .as_us_f64()
                        .abs();
                    match shape.locality(cores[a], cores[b]) {
                        Locality::SameChip => intra = intra.max(d),
                        Locality::SameNode => inter = inter.max(d),
                        _ => {}
                    }
                }
            }
        }
        IntranodeOutcome {
            inter_chip_max_us: inter,
            intra_chip_max_us: intra,
        }
    };

    // Correction anchors from the first and last samples: offsets of each
    // core's clock relative to core 0 at those instants.
    let off_first: Vec<_> = (0..cores.len()).map(|c| raw[c][0] - raw[0][0]).collect();
    let off_last: Vec<_> = (0..cores.len())
        .map(|c| raw[c][samples] - raw[0][samples])
        .collect();
    let w_first: Vec<_> = (0..cores.len()).map(|c| raw[c][0]).collect();
    let w_last: Vec<_> = (0..cores.len()).map(|c| raw[c][samples]).collect();

    let none = deviation(&|_c, t| t);
    let aligned = deviation(&|c, t| t - off_first[c]);
    let linear = deviation(&|c, t| {
        let span = (w_last[c] - w_first[c]).as_secs_f64();
        let slope = (off_last[c] - off_first[c]).as_secs_f64() / span;
        let predicted = off_first[c]
            + simclock::Dur::from_secs_f64(slope * (t - w_first[c]).as_secs_f64());
        t - predicted
    });

    [
        ("uncorrected", none),
        ("offset aligned", aligned),
        ("linear interpolation", linear),
    ]
}

/// The §IV claim: between chips of one node every correction mode leaves
/// only noise, under 0.5 µs.
pub fn claims(rows: &[(&'static str, IntranodeOutcome)]) -> Vec<Claim> {
    vec![Claim::new(
        "sec4.noise",
        rows.iter().all(|(_, o)| o.inter_chip_max_us < 0.5),
        "clocks on one SMP node deviate by noise only (inter-chip max < 0.5 us), so intra-node MPI semantics survive uncorrected",
    )]
}

/// Print the intra-node experiment and its claim.
pub fn print_intranode(rows: &[(&'static str, IntranodeOutcome)], duration_s: f64) -> Vec<Claim> {
    println!("\n## Intra-node deviations — Xeon SMP node (duration {duration_s} s)");
    println!(
        "{:<24} {:>18} {:>18}",
        "correction", "inter-chip max[us]", "intra-chip max[us]"
    );
    for (name, o) in rows {
        println!(
            "{name:<24} {:>18.3} {:>18.3}",
            o.inter_chip_max_us, o.intra_chip_max_us
        );
    }
    print_claims(claims(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intranode_claim_holds_and_cores_of_a_chip_agree() {
        let rows = intranode(300.0, 3);
        let claims = claims(&rows);
        assert!(claims[0].holds, "{claims:?}");
        // Cores of one chip share the clock: only read noise remains.
        for (name, o) in &rows {
            assert!(
                o.intra_chip_max_us <= o.inter_chip_max_us + 0.05,
                "{name}: intra-chip should not exceed inter-chip"
            );
        }
        let mut noisy = rows.clone();
        noisy[2].1.inter_chip_max_us = 0.6;
        assert!(!super::claims(&noisy)[0].holds, "one mode at 0.6 us");
    }
}
