//! Clock-domain-aware CLC.
//!
//! The paper's §VI names this as the CLC's other open limitation: "the
//! algorithm's inability to account for synchronized clocks within single
//! SMP nodes. … if the timestamp of a process is modified in the course of
//! applying the algorithm, timestamps of processes co-located on the same
//! SMP node that are close to the modified time may need to be modified as
//! well." Processes sharing a clock have *accurate relative* timestamps;
//! correcting one process without its clock-mates tears that intra-node
//! consistency apart.
//!
//! This module closes the gap: after the ordinary CLC, every jump is
//! broadcast to the jumping process's clock domain as a decaying shift
//! function (the same `(1−μ)` decay the forward amortization uses), so
//! domain members move *together*; a closing μ=1 forward-only CLC restores
//! any constraint the broadcast disturbed. Both CLC runs are
//! [`controlled_logical_clock`] itself, so this variant is written over
//! `clocksync`'s public API alone.

use clocksync::{controlled_logical_clock, ClcError, ClcParams, ClcReport};
use simclock::{Dur, Time};
use tracefmt::{MinLatency, Trace};

/// A decaying shift contribution: `Δ` at local time `t0`, fading at rate
/// `decay` per second of local time.
#[derive(Debug, Clone, Copy)]
struct ShiftPulse {
    t0: Time,
    delta: Dur,
}

/// Pulses of one domain, preprocessed for O(log n) queries.
///
/// All pulses decay at the same rate `d`, so
/// `max_j (Δ_j − d·(t − t0_j)) = max_j (Δ_j + d·t0_j) − d·t` over the
/// pulses with `t0_j ≤ t` — a prefix maximum over pulses sorted by `t0`.
struct DomainPulses {
    /// Sorted pulse start times.
    t0s: Vec<Time>,
    /// `prefix[i] = max_{j ≤ i} (Δ_j + d·t0_j)` in seconds.
    prefix: Vec<f64>,
    decay_per_s: f64,
}

impl DomainPulses {
    fn new(mut pulses: Vec<ShiftPulse>, decay_per_s: f64) -> Self {
        pulses.sort_by_key(|p| p.t0);
        let mut t0s = Vec::with_capacity(pulses.len());
        let mut prefix = Vec::with_capacity(pulses.len());
        let mut best = f64::NEG_INFINITY;
        for p in &pulses {
            best = best.max(p.delta.as_secs_f64() + decay_per_s * p.t0.as_secs_f64());
            t0s.push(p.t0);
            prefix.push(best);
        }
        DomainPulses {
            t0s,
            prefix,
            decay_per_s,
        }
    }

    fn is_empty(&self) -> bool {
        self.t0s.is_empty()
    }

    /// Combined shift at local time `t`.
    fn shift_at(&self, t: Time) -> Dur {
        // Pulses with t0 <= t form a prefix of the sorted starts.
        match self.t0s.partition_point(|&t0| t0 <= t) {
            0 => Dur::ZERO,
            n => {
                let val = self.prefix[n - 1] - self.decay_per_s * t.as_secs_f64();
                Dur::from_secs_f64(val.max(0.0))
            }
        }
    }
}

/// CLC with clock-domain awareness.
///
/// `domain_of_proc[p]` assigns each process to a clock domain (e.g. its SMP
/// node when node clocks are synchronised, or its chip). Processes alone in
/// their domain behave exactly as under [`controlled_logical_clock`].
/// Rewrites `trace` only when it returns `Ok`.
pub fn controlled_logical_clock_with_domains(
    trace: &mut Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    domain_of_proc: &[usize],
) -> Result<ClcReport, ClcError> {
    if domain_of_proc.len() != trace.n_procs() {
        return Err(ClcError::BadParams(format!(
            "{} domain entries for {} procs",
            domain_of_proc.len(),
            trace.n_procs()
        )));
    }
    // `trace` keeps the raw timestamps until the end; every phase works on
    // the copy.
    let mut work = trace.clone();

    // Phase 1: the ordinary CLC (forward + optional backward).
    let mut report = controlled_logical_clock(&mut work, lmin, params)?;

    // Phase 2: broadcast each jump to its domain as a decaying pulse.
    // The decay rate matches the forward amortization: a μ-amortized
    // timeline sheds (1−μ) of its shift per unit of local time.
    let decay_per_s = 1.0 - params.mu;
    let n_domains = domain_of_proc.iter().copied().max().map_or(0, |d| d + 1);
    // Pulses carry the originating process so a jump is never re-applied to
    // the process whose amortization already encodes it.
    let mut pulses: Vec<Vec<(usize, ShiftPulse)>> = vec![Vec::new(); n_domains];
    for j in &report.jumps {
        let p = j.event.p();
        // Pulse anchored at the *original* local time of the jumped event.
        pulses[domain_of_proc[p]].push((p, ShiftPulse { t0: trace.time(j.event), delta: j.size }));
    }
    for (p, (corrected, raw)) in work.procs.iter_mut().zip(&trace.procs).enumerate() {
        let dp = DomainPulses::new(
            pulses[domain_of_proc[p]]
                .iter()
                .filter(|&&(owner, _)| owner != p)
                .map(|&(_, pulse)| pulse)
                .collect(),
            decay_per_s,
        );
        if dp.is_empty() {
            continue;
        }
        for (c, e) in corrected.events.iter_mut().zip(&raw.events) {
            c.time = c.time.max(e.time.saturating_add(dp.shift_at(e.time)));
        }
    }

    // Phase 3: the broadcast may have advanced send events past their
    // receives — a μ=1 forward-only CLC restores every constraint.
    let fixup = ClcParams { mu: 1.0, backward: false, ..*params };
    let fixup = controlled_logical_clock(&mut work, lmin, &fixup)?;
    report.jumps.extend(fixup.jumps);
    report.max_jump = report.max_jump.max(fixup.max_jump);
    report.events_moved = work
        .iter_events()
        .zip(trace.iter_events())
        .filter(|((_, c), (_, e))| c.time != e.time)
        .count();
    *trace = work;
    Ok(report)
}

/// Intra-domain misalignment diagnostic: the largest difference between the
/// shifts applied to events of different processes of one domain that lie
/// within `window` of each other (in original local time). Zero means the
/// domain moved perfectly rigidly; the plain CLC typically reports the full
/// jump size here.
pub fn domain_misalignment(
    before: &Trace,
    after: &Trace,
    domain_of_proc: &[usize],
    window: Dur,
) -> Dur {
    let mut worst = Dur::ZERO;
    let n = before.n_procs();
    for a in 0..n {
        for b in (a + 1)..n {
            if domain_of_proc[a] != domain_of_proc[b] {
                continue;
            }
            for (i, ea) in before.procs[a].events.iter().enumerate() {
                let shift_a = after.procs[a].events[i].time - ea.time;
                for (j, eb) in before.procs[b].events.iter().enumerate() {
                    if (ea.time - eb.time).abs() > window {
                        continue;
                    }
                    let shift_b = after.procs[b].events[j].time - eb.time;
                    worst = worst.max((shift_a - shift_b).abs());
                }
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefmt::{EventKind, Rank, RegionId, Tag, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    /// Three procs: 0 and 1 share a clock domain (same skew), 2 is remote.
    /// Proc 2's send to proc 0 is violated, forcing a jump on proc 0.
    /// Procs 0 and 1 carry parallel local activity that should stay
    /// aligned.
    fn fixture() -> (Trace, Vec<usize>) {
        let mut t = Trace::for_ranks(3);
        // Parallel local activity on the clock-mates, every 10 µs.
        for k in 0..10i64 {
            t.procs[0].push(us(k * 10), EventKind::Enter { region: RegionId(0) });
            t.procs[1].push(us(k * 10), EventKind::Enter { region: RegionId(0) });
        }
        // The violated message lands mid-stream on proc 0 (local time 100).
        t.procs[2].push(us(250), EventKind::Send { to: Rank(0), tag: Tag(0), bytes: 0 });
        t.procs[0].push(us(100), EventKind::Recv { from: Rank(2), tag: Tag(0), bytes: 0 });
        // More aligned local activity afterwards.
        for k in 11..40i64 {
            t.procs[0].push(us(k * 10), EventKind::Enter { region: RegionId(0) });
            t.procs[1].push(us(k * 10), EventKind::Enter { region: RegionId(0) });
        }
        (t, vec![0, 0, 1])
    }

    #[test]
    fn plain_clc_tears_domains_apart_domain_clc_does_not() {
        let (base, domains) = fixture();
        let params = ClcParams { mu: 0.99, backward: false, ..Default::default() };

        let mut plain = base.clone();
        controlled_logical_clock(&mut plain, &LMIN, &params).unwrap();
        let plain_mis = domain_misalignment(&base, &plain, &domains, Dur::from_us(5));

        let mut aware = base.clone();
        controlled_logical_clock_with_domains(&mut aware, &LMIN, &params, &domains).unwrap();
        let aware_mis = domain_misalignment(&base, &aware, &domains, Dur::from_us(5));

        // The jump is 250+4-100 ≈ 154 µs; plain CLC shifts only proc 0.
        assert!(
            plain_mis > Dur::from_us(100),
            "plain CLC should misalign the domain: {plain_mis:?}"
        );
        assert!(
            aware_mis < plain_mis / 10,
            "domain-aware CLC should keep clock-mates together: {aware_mis:?} vs {plain_mis:?}"
        );
    }

    #[test]
    fn constraints_still_hold_after_domain_broadcast() {
        let (base, domains) = fixture();
        let mut t = base;
        controlled_logical_clock_with_domains(&mut t, &LMIN, &ClcParams::default(), &domains)
            .unwrap();
        let m = tracefmt::match_messages(&t);
        let rep = tracefmt::check_p2p(&t, &m, &LMIN);
        assert!(rep.violations.is_empty());
        assert!(t.is_locally_monotone());
    }

    #[test]
    fn singleton_domains_match_plain_clc() {
        let (base, _) = fixture();
        let domains = vec![0, 1, 2]; // everyone alone
        let params = ClcParams::default();
        let mut plain = base.clone();
        controlled_logical_clock(&mut plain, &LMIN, &params).unwrap();
        let mut aware = base.clone();
        controlled_logical_clock_with_domains(&mut aware, &LMIN, &params, &domains).unwrap();
        for p in 0..3 {
            assert_eq!(plain.procs[p].events, aware.procs[p].events);
        }
    }

    #[test]
    fn no_jumps_means_no_changes() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(0), EventKind::Send { to: Rank(1), tag: Tag(0), bytes: 0 });
        t.procs[1].push(us(100), EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 });
        let before = t.clone();
        let rep = controlled_logical_clock_with_domains(
            &mut t,
            &LMIN,
            &ClcParams::default(),
            &[0, 0],
        )
        .unwrap();
        assert_eq!(rep.n_jumps(), 0);
        for p in 0..2 {
            assert_eq!(t.procs[p].events, before.procs[p].events);
        }
    }

    #[test]
    fn bad_domain_vector_rejected() {
        let (mut t, _) = fixture();
        let err = controlled_logical_clock_with_domains(
            &mut t,
            &LMIN,
            &ClcParams::default(),
            &[0, 0],
        )
        .unwrap_err();
        assert!(matches!(err, ClcError::BadParams(_)));
    }

    #[test]
    fn shift_pulse_decay() {
        // decay 0.01 per second = 10 µs per ms.
        let d = 0.01;
        let dp = DomainPulses::new(
            vec![ShiftPulse { t0: us(100), delta: Dur::from_us(50) }],
            d,
        );
        assert_eq!(dp.shift_at(us(50)), Dur::ZERO);
        assert_eq!(dp.shift_at(us(100)), Dur::from_us(50));
        // After 1 ms of local time, 10 µs has faded.
        assert_eq!(dp.shift_at(us(1100)), Dur::from_us(40));
        // Fully faded after 5 ms.
        assert_eq!(dp.shift_at(us(5100)), Dur::ZERO);
    }

    #[test]
    fn pulse_prefix_max_combines_overlapping_pulses() {
        let d = 0.01;
        let dp = DomainPulses::new(
            vec![
                ShiftPulse { t0: us(0), delta: Dur::from_us(30) },
                ShiftPulse { t0: us(1000), delta: Dur::from_us(15) },
            ],
            d,
        );
        // At t=1 ms: first pulse faded to 20 µs, second just fired at 15 µs
        // → max is 20.
        assert_eq!(dp.shift_at(us(1000)), Dur::from_us(20));
        // At t=2 ms: 10 vs 5 → 10.
        assert_eq!(dp.shift_at(us(2000)), Dur::from_us(10));
        // At t=3.5 ms: first fully faded (35 > 30/0.01·...), second at 0? →
        // first: 30-35=-5→0; second: 15-25=-10→0.
        assert_eq!(dp.shift_at(us(3500)), Dur::ZERO);
    }

    /// A cycle found in phase 1 — after its forward pass met a jump —
    /// leaves the trace as it was: two timelines whose receives wait on
    /// each other's later sends, behind a late send that forces a jump on
    /// timeline 1 first.
    #[test]
    fn error_leaves_the_trace_untouched() {
        let send = |to, tag| EventKind::Send { to: Rank(to), tag: Tag(tag), bytes: 0 };
        let recv = |from, tag| EventKind::Recv { from: Rank(from), tag: Tag(tag), bytes: 0 };
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(100), send(1, 0));
        t.procs[0].push(us(110), recv(1, 1));
        t.procs[0].push(us(120), send(1, 2));
        t.procs[1].push(us(50), recv(0, 0));
        t.procs[1].push(us(60), recv(0, 2));
        t.procs[1].push(us(70), send(0, 1));
        let before = t.clone();
        let err = controlled_logical_clock_with_domains(&mut t, &LMIN, &ClcParams::default(), &[0, 0]);
        assert_eq!(err.unwrap_err(), ClcError::CyclicTrace);
        for (got, was) in t.procs.iter().zip(&before.procs) {
            assert_eq!(got.events, was.events);
        }
    }

    /// The domain-aware CLC on the bench corpus (`bench::skewed_trace`, 16
    /// ranks in four domains of four): FNV-1a fingerprints of the corrected
    /// timestamps and of the jump sequence, recorded before its three
    /// phases moved onto one lowered graph and one set of columns.
    #[test]
    fn domain_aware_clc_reproduces_its_recorded_output() {
        use bench::{lmin_table, skewed_trace};
        let fnv1a = |words: &mut dyn Iterator<Item = i64>| {
            words.flat_map(i64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let (cluster, base) = skewed_trace(16, 150, 19);
        let lmin = lmin_table(&cluster, 16);
        let domains: Vec<usize> = (0..16).map(|p| p / 4).collect();
        for (backward, times, jumps, n_jumps, moved) in [
            (true, 0x2e31_a133_bdb1_eb77_u64, 0x0fa1_d20f_6ffa_1900_u64, 3_149, 31_232),
            (false, 0xeb3e_f715_ae47_3ef4, 0x23b0_5c0e_b783_6b58, 2_974, 31_208),
        ] {
            let mut t = base.clone();
            let params = ClcParams { backward, ..ClcParams::default() };
            let rep = controlled_logical_clock_with_domains(&mut t, &lmin, &params, &domains).unwrap();
            assert_eq!(fnv1a(&mut t.iter_events().map(|(_, e)| e.time.as_ps())), times);
            let words = |j: &clocksync::Jump| {
                [i64::from(j.event.proc), i64::from(j.event.idx), j.size.as_ps()]
            };
            assert_eq!(fnv1a(&mut rep.jumps.iter().flat_map(words)), jumps);
            assert_eq!(
                (rep.n_jumps(), rep.max_jump.as_ps(), rep.events_moved, rep.events_total),
                (n_jumps, 91_885_587_376, moved, 31_232)
            );
        }
    }
}
