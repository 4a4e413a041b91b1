//! Shared experiment infrastructure: the paper's claims, cluster
//! construction, deviation measurement via probing, and table/series
//! printing.

use clocksync::{estimate_offset, OffsetMeasurement, ProbeSample};
use mpisim::{probe_worker, Cluster};
use netsim::{HierarchicalLatency, Placement, Topology};
use simclock::{ClockDomain, ClockEnsemble, Dur, Platform, Time, TimerKind};
use std::fmt;

/// One of the paper's claims, judged on the rows a section computed. Each
/// section with claims has one function that derives them from its rows;
/// the section prints them, and the `experiments` binary exits 1 when one
/// it printed fails.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Short id (`fig5.worst`), the same on every seed.
    pub id: &'static str,
    /// Whether the rows bear the statement out.
    pub holds: bool,
    /// The paper's statement, with the condition that checks it.
    pub statement: &'static str,
}

impl Claim {
    /// A claim `id` stating `statement`, judged `holds`.
    pub fn new(id: &'static str, holds: bool, statement: &'static str) -> Self {
        Claim { id, holds, statement }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.holds { "holds" } else { "FAILS" };
        write!(f, "claim {}: {verdict} — {}", self.id, self.statement)
    }
}

/// Print one line per claim and hand the claims back.
pub fn print_claims(claims: Vec<Claim>) -> Vec<Claim> {
    for claim in &claims {
        println!("{claim}");
    }
    claims
}

/// Ordinary least-squares line fit `y = slope·x + intercept`.
///
/// Characterises drift lines in deviation series; also Duda's regression
/// baseline ([`crate::survey::duda`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept at `x = 0`.
    pub intercept: f64,
    /// Coefficient of determination `R²` (1.0 when the fit is exact;
    /// 0.0 returned for degenerate inputs).
    pub r2: f64,
}

/// Fit a least-squares line through `(x, y)` points.
///
/// Returns `None` for fewer than two points or zero x-variance.
pub fn fit_line(points: &[(f64, f64)]) -> Option<LineFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    Some(LineFit {
        slope,
        intercept,
        r2,
    })
}

/// How long to run and how densely to sample.
#[derive(Debug, Clone, Copy)]
pub struct RunLength {
    /// Run duration in seconds (paper: 300 / 1800 / 3600).
    pub duration_s: f64,
    /// Offset-sampling interval in seconds.
    pub sample_every_s: f64,
}

impl RunLength {
    /// The paper's "short run".
    pub fn short() -> Self {
        RunLength { duration_s: 300.0, sample_every_s: 2.0 }
    }

    /// The paper's "medium run".
    pub fn medium() -> Self {
        RunLength { duration_s: 1800.0, sample_every_s: 10.0 }
    }

    /// The paper's "long run".
    pub fn long() -> Self {
        RunLength { duration_s: 3600.0, sample_every_s: 20.0 }
    }
}

/// Latency model for a paper platform.
pub fn latency_of(platform: Platform) -> HierarchicalLatency {
    match platform {
        Platform::XeonCluster | Platform::ItaniumSmp => HierarchicalLatency::xeon_infiniband(),
        Platform::PowerPcCluster => HierarchicalLatency::powerpc_myrinet(),
        Platform::OpteronCluster => HierarchicalLatency::opteron_seastar(),
    }
}

/// Interconnect topology for a paper platform.
pub fn topology_of(platform: Platform, nodes: usize) -> Topology {
    match platform {
        Platform::OpteronCluster => {
            // SeaStar 3-D torus sized to cover the node count.
            let d = (nodes as f64).cbrt().ceil() as usize;
            Topology::Torus3D { dims: [d.max(1), d.max(1), d.max(1)] }
        }
        Platform::PowerPcCluster => Topology::FatTree { leaf_radix: 8 },
        _ => Topology::FatTree { leaf_radix: 16 },
    }
}

/// Build a cluster of `nodes` nodes with one rank per node — the deviation
/// experiments' setup ("all processes were located on different SMP
/// nodes").
pub fn cluster_one_rank_per_node(
    platform: Platform,
    timer: TimerKind,
    nodes: usize,
    horizon_s: f64,
    seed: u64,
) -> Cluster {
    let shape = platform.shape(nodes);
    let profile = platform.clock_profile(timer, horizon_s);
    let clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, seed);
    Cluster::new(
        Placement::one_per_node(shape, nodes),
        topology_of(platform, nodes),
        latency_of(platform),
        clocks,
        seed ^ 0x1234,
    )
}

/// One worker's deviation time series (seconds, microseconds).
#[derive(Debug, Clone)]
pub struct DeviationSeries {
    /// Worker rank (1-based in the paper's plots; rank 0 is the master).
    pub worker: usize,
    /// `(run time s, deviation µs)` samples.
    pub points: Vec<(f64, f64)>,
}

impl DeviationSeries {
    /// Largest absolute deviation in µs.
    pub fn max_abs_us(&self) -> f64 {
        self.points.iter().map(|p| p.1.abs()).fold(0.0, f64::max)
    }

    /// R² of a straight-line fit through the series — near 1.0 means the
    /// deviation grows linearly (constant drift), lower means kinks or
    /// curvature.
    pub fn linearity_r2(&self) -> f64 {
        fit_line(&self.points).map(|f| f.r2).unwrap_or(1.0)
    }

    /// Crude kink detector: number of sign-stable slope changes larger than
    /// `threshold_us_per_s` between consecutive window fits.
    pub fn count_kinks(&self, threshold_us_per_s: f64) -> usize {
        let w = 8usize;
        if self.points.len() < 3 * w {
            return 0;
        }
        let mut slopes = Vec::new();
        let mut i = 0;
        while i + w <= self.points.len() {
            if let Some(f) = fit_line(&self.points[i..i + w]) {
                slopes.push(f.slope);
            }
            i += w;
        }
        slopes
            .windows(2)
            .filter(|s| (s[1] - s[0]).abs() > threshold_us_per_s)
            .count()
    }
}

/// Correction applied before reporting deviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correction {
    /// None at all — raw offsets.
    None,
    /// Offset alignment at start (Fig. 4).
    AlignOnly,
    /// Eq. 3 between the first and last samples (Figs. 5/6).
    Linear,
}

/// Measure residual clock deviations of every worker against rank 0 over a
/// run, using Cristian probing at each sample point (the measurement itself
/// goes through the jittered network, as on a real cluster).
pub fn measure_deviations(
    cluster: &mut Cluster,
    length: RunLength,
    correction: Correction,
    probes_per_sample: usize,
) -> Vec<DeviationSeries> {
    let master = tracefmt::Rank(0);
    let n = cluster.n_ranks();
    let samples = (length.duration_s / length.sample_every_s).floor() as usize + 1;
    // measurements[w][k]: offset measurement of worker w at sample k.
    let mut measurements: Vec<Vec<OffsetMeasurement>> = vec![Vec::with_capacity(samples); n];
    for k in 0..samples {
        let t = Time::from_secs_f64(k as f64 * length.sample_every_s);
        #[allow(clippy::needless_range_loop)]
        for w in 1..n {
            let session = probe_worker(
                cluster,
                master,
                tracefmt::Rank(w as u32),
                probes_per_sample,
                t,
                Dur::from_us(200),
            );
            let rounds: Vec<ProbeSample> = session
                .rounds
                .iter()
                .map(|r| ProbeSample { t1: r.t1, t0: r.t0, t2: r.t2 })
                .collect();
            measurements[w].push(estimate_offset(&rounds).expect("non-empty probe set"));
        }
    }

    (1..n)
        .map(|w| {
            let ms = &measurements[w];
            let first = ms.first().expect("at least one sample");
            let last = ms.last().expect("at least one sample");
            let slope = if matches!(correction, Correction::Linear)
                && last.worker_time > first.worker_time
            {
                (last.offset - first.offset).as_secs_f64()
                    / (last.worker_time - first.worker_time).as_secs_f64()
            } else {
                0.0
            };
            let points = ms
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    let predicted = match correction {
                        Correction::None => Dur::ZERO,
                        Correction::AlignOnly => first.offset,
                        Correction::Linear => {
                            first.offset
                                + Dur::from_secs_f64(
                                    slope * (m.worker_time - first.worker_time).as_secs_f64(),
                                )
                        }
                    };
                    (
                        k as f64 * length.sample_every_s,
                        (predicted - m.offset).as_us_f64(),
                    )
                })
                .collect();
            DeviationSeries { worker: w, points }
        })
        .collect()
}

/// Print a set of deviation series as an aligned table, downsampled to at
/// most `max_rows` rows.
pub fn print_series(title: &str, series: &[DeviationSeries], max_rows: usize) {
    println!("\n## {title}");
    print!("{:>10}", "t [s]");
    for s in series {
        print!("{:>14}", format!("worker {} [us]", s.worker));
    }
    println!();
    let n = series.first().map_or(0, |s| s.points.len());
    let step = (n / max_rows.max(1)).max(1);
    let mut k = 0;
    while k < n {
        print!("{:>10.1}", series[0].points[k].0);
        for s in series {
            print!("{:>14.3}", s.points[k].1);
        }
        println!();
        k += step;
    }
    for s in series {
        println!(
            "worker {}: max |dev| = {:.3} us, linearity R^2 = {:.4}, kinks = {}",
            s.worker,
            s.max_abs_us(),
            s.linearity_r2(),
            s.count_kinks(0.05)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fit_exact() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        let f = fit_line(&pts).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn line_fit_degenerate() {
        assert!(fit_line(&[(1.0, 2.0)]).is_none());
        assert!(fit_line(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
        // Horizontal line: slope 0, r2 == 1 by convention (syy == 0).
        let f = fit_line(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn run_lengths_match_paper() {
        assert_eq!(RunLength::short().duration_s, 300.0);
        assert_eq!(RunLength::medium().duration_s, 1800.0);
        assert_eq!(RunLength::long().duration_s, 3600.0);
    }

    #[test]
    fn deviation_series_metrics() {
        // Perfectly linear series: R² = 1, no kinks.
        let s = DeviationSeries {
            worker: 1,
            points: (0..100).map(|i| (i as f64, 2.0 * i as f64)).collect(),
        };
        assert!((s.linearity_r2() - 1.0).abs() < 1e-9);
        assert_eq!(s.count_kinks(0.5), 0);
        assert_eq!(s.max_abs_us(), 198.0);
        // A sharp kink halfway.
        let k = DeviationSeries {
            worker: 1,
            points: (0..100)
                .map(|i| {
                    let t = i as f64;
                    (t, if t < 50.0 { 0.1 * t } else { 5.0 + 3.0 * (t - 50.0) })
                })
                .collect(),
        };
        assert!(k.linearity_r2() < 0.95);
        assert!(k.count_kinks(0.5) >= 1);
    }

    #[test]
    fn align_only_deviation_starts_near_zero_and_grows() {
        let mut cluster = cluster_one_rank_per_node(
            Platform::XeonCluster,
            TimerKind::IntelTsc,
            3,
            40.0,
            42,
        );
        let len = RunLength { duration_s: 30.0, sample_every_s: 2.0 };
        let series = measure_deviations(&mut cluster, len, Correction::AlignOnly, 8);
        assert_eq!(series.len(), 2);
        for s in &series {
            // First point is by construction ~0 (modulo probe noise).
            assert!(s.points[0].1.abs() < 1.0, "initial dev {}", s.points[0].1);
            // ppm-scale drift accumulates tens of µs over 30 s.
            assert!(
                s.max_abs_us() > 5.0,
                "worker {} drifted only {} µs",
                s.worker,
                s.max_abs_us()
            );
        }
    }

    #[test]
    fn linear_correction_beats_alignment() {
        let mk = || {
            cluster_one_rank_per_node(Platform::XeonCluster, TimerKind::IntelTsc, 3, 40.0, 7)
        };
        let len = RunLength { duration_s: 30.0, sample_every_s: 2.0 };
        let align = measure_deviations(&mut mk(), len, Correction::AlignOnly, 8);
        let linear = measure_deviations(&mut mk(), len, Correction::Linear, 8);
        let max_align: f64 = align.iter().map(|s| s.max_abs_us()).fold(0.0, f64::max);
        let max_linear: f64 = linear.iter().map(|s| s.max_abs_us()).fold(0.0, f64::max);
        assert!(
            max_linear < max_align / 3.0,
            "interpolation ({max_linear}) should beat alignment ({max_align})"
        );
    }
}
