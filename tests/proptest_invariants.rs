//! Property-based invariants on the core data structures and algorithms.

mod common;

use common::{arb_skewed_trace, arb_skewed_trace_with_barriers};

use drift_lab::clocksync::{controlled_logical_clock, ClcParams, LinearInterpolation,
    OffsetMeasurement, PreSync, TimestampMap};
use drift_lab::prelude::*;
use drift_lab::simclock::{ConstantDrift, NoiseSpec, PiecewiseLinearDrift, SinusoidalDrift};
use drift_lab::simclock::DriftModel;
use drift_lab::tracefmt::io;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- CLC postconditions -------------------------------------------------

    #[test]
    fn clc_always_restores_the_clock_condition((trace, lmin_us) in arb_skewed_trace()) {
        let mut t = trace;
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        controlled_logical_clock(&mut t, &lmin, &ClcParams::default()).unwrap();
        let m = match_messages(&t);
        let rep = check_p2p(&t, &m, &lmin);
        prop_assert!(rep.violations.is_empty(),
            "CLC left {} violations", rep.violations.len());
        prop_assert!(t.is_locally_monotone(), "CLC broke local order");
    }

    #[test]
    fn clc_never_moves_events_backward((trace, lmin_us) in arb_skewed_trace()) {
        let before = trace.clone();
        let mut t = trace;
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        controlled_logical_clock(&mut t, &lmin, &ClcParams::default()).unwrap();
        for p in 0..t.n_procs() {
            for (a, b) in t.procs[p].events.iter().zip(&before.procs[p].events) {
                prop_assert!(a.time >= b.time,
                    "event moved backward on proc {p}");
            }
        }
    }

    #[test]
    fn clc_is_idempotent((trace, lmin_us) in arb_skewed_trace()) {
        let mut t = trace;
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        controlled_logical_clock(&mut t, &lmin, &ClcParams::default()).unwrap();
        let snapshot = t.clone();
        let rep = controlled_logical_clock(&mut t, &lmin, &ClcParams::default()).unwrap();
        prop_assert_eq!(rep.n_jumps(), 0, "second application found jumps");
        for p in 0..t.n_procs() {
            prop_assert_eq!(&t.procs[p].events, &snapshot.procs[p].events);
        }
    }

    /// Adapter ≡ oracle ≡ pipeline: the map-based CLC of `tests/common` is
    /// the oracle of the CSR kernel, which runs behind the public
    /// `controlled_logical_clock` and inside `synchronize`. On a random
    /// trace with barriers all three leave the same timestamps, and the
    /// first two the same report.
    #[test]
    fn pipeline_clc_equals_the_map_oracle(
        (trace, lmin_us) in arb_skewed_trace_with_barriers(Some(4)),
    ) {
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        let params = ClcParams::default();
        let n = trace.n_procs();
        let rep = common::assert_adapter_matches_oracle(&trace, &lmin, &params, "adapter vs oracle");
        prop_assert!(rep.is_ok(), "a causally valid trace is acyclic: {rep:?}");
        let mut adapted = trace.clone();
        controlled_logical_clock(&mut adapted, &lmin, &params).unwrap();
        let mut piped = trace;
        let cfg = drift_lab::clocksync::PipelineConfig {
            presync: PreSync::None,
            clc: Some(params),
            ..Default::default()
        };
        drift_lab::clocksync::synchronize(&mut piped, &vec![None; n], None, &lmin, &cfg).unwrap();
        for p in 0..n {
            prop_assert_eq!(&adapted.procs[p].events, &piped.procs[p].events);
        }
    }

    // --- equivariances: no oracle, so a defect the oracle shares shows ------
    //
    // Batch, streamed and windowed drivers share one matcher, one lowering
    // and one CLC step with each other, and the matcher with the oracle; a
    // symmetry of the *problem* needs none of them to be right to be checked.

    /// The CLC sees differences of timestamps only: every timestamp moved
    /// by one constant (far from the `i64` edges, where saturation is the
    /// documented exception) moves every corrected timestamp by it.
    #[test]
    fn clc_commutes_with_a_shift_of_the_time_axis(
        (trace, lmin_us) in arb_skewed_trace_with_barriers(Some(5)),
        shift_ps in -(1i64 << 58)..(1i64 << 58),
    ) {
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        let shift = Dur::from_ps(shift_ps);
        let mut moved = trace.clone();
        for e in moved.procs.iter_mut().flat_map(|p| p.events.iter_mut()) {
            e.time += shift;
        }
        let here = common::clc_drivers(&trace, &lmin, &ClcParams::default());
        let there = common::clc_drivers(&moved, &lmin, &ClcParams::default());
        for ((driver, here), (_, there)) in here.into_iter().zip(there) {
            for ((location, a), (_, b)) in here.into_iter().zip(there) {
                let a: Vec<Time> = a.into_iter().map(|t| t + shift).collect();
                prop_assert_eq!(a, b, "{} driver, {:?}, shift {} ps", driver, location, shift_ps);
            }
        }
    }

    /// Which timeline is stored first is an accident of the file: the same
    /// timelines in reverse order get the same timestamps, location by
    /// location (the schedule, and so the order jumps are found in, differs).
    #[test]
    fn clc_ignores_the_storage_order_of_timelines(
        (trace, lmin_us) in arb_skewed_trace_with_barriers(Some(5)),
    ) {
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        let mut reversed = trace.clone();
        reversed.procs.reverse();
        let stored = common::clc_drivers(&trace, &lmin, &ClcParams::default());
        let turned = common::clc_drivers(&reversed, &lmin, &ClcParams::default());
        for ((driver, stored), (_, turned)) in stored.into_iter().zip(turned) {
            prop_assert_eq!(stored, turned, "{} driver", driver);
        }
    }

    // --- codecs ---------------------------------------------------------------

    #[test]
    fn codecs_round_trip((trace, _) in arb_skewed_trace()) {
        let bin = io::to_binary_columnar_v3(&trace);
        let back = io::from_binary_columnar(bin).unwrap();
        for p in 0..trace.n_procs() {
            prop_assert_eq!(&back.procs[p].events, &trace.procs[p].events);
        }
    }

    // --- clock physics --------------------------------------------------------

    #[test]
    fn clock_ideal_time_is_monotone_for_sane_drifts(
        rate in -1e-4f64..1e-4,
        offset_us in -1_000_000i64..1_000_000,
        amp in 0.0f64..1e-5,
        period in 10.0f64..2000.0,
    ) {
        let drift = drift_lab::simclock::CompositeDrift::new(vec![
            Box::new(ConstantDrift::new(rate)),
            Box::new(SinusoidalDrift::new(amp, period, 0.0)),
        ]);
        let clock = SimClock::new(
            TimerKind::IntelTsc,
            Dur::from_us(offset_us),
            Arc::new(drift),
            NoiseSpec::noiseless(),
            0,
        );
        // |rate| + amp << 1, so local time must be strictly increasing.
        let mut prev = clock.ideal_at(Time::ZERO);
        for k in 1..200 {
            let t = Time::from_ms(k * 37);
            let v = clock.ideal_at(t);
            prop_assert!(v > prev, "ideal time not increasing at step {k}");
            prev = v;
        }
    }

    #[test]
    fn piecewise_drift_integral_matches_numeric_integration(
        rates in prop::collection::vec(-1e-5f64..1e-5, 2..6),
    ) {
        let points: Vec<(Time, f64)> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (Time::from_secs(i as i64 * 10), r))
            .collect();
        let d = PiecewiseLinearDrift::new(points);
        // Trapezoid-rule numeric integral at fine resolution.
        let end = Time::from_secs((rates.len() as i64 - 1) * 10 + 5);
        let steps = 2000;
        let h = end.as_secs_f64() / steps as f64;
        let mut num = 0.0;
        for i in 0..steps {
            let a = d.rate_at(Time::from_secs_f64(i as f64 * h));
            let b = d.rate_at(Time::from_secs_f64((i + 1) as f64 * h));
            num += 0.5 * (a + b) * h;
        }
        let exact = d.integrated(end);
        prop_assert!((num - exact).abs() < 1e-9,
            "integral mismatch: numeric {num}, analytic {exact}");
    }

    // --- interpolation ----------------------------------------------------------

    #[test]
    fn interpolation_is_exact_at_anchors_and_linear_between(
        w1 in 0i64..1000, o1 in -500i64..500,
        dw in 1i64..1000, do_ in -500i64..500,
    ) {
        let a = OffsetMeasurement {
            worker_time: Time::from_ms(w1),
            offset: Dur::from_us(o1),
            rtt: Dur::from_us(10),
        };
        let b = OffsetMeasurement {
            worker_time: Time::from_ms(w1 + dw),
            offset: Dur::from_us(o1 + do_),
            rtt: Dur::from_us(10),
        };
        let li = LinearInterpolation::new(&a, &b);
        prop_assert_eq!(li.map(a.worker_time), a.worker_time + a.offset);
        prop_assert_eq!(li.map(b.worker_time), b.worker_time + b.offset);
        // Midpoint maps to the midpoint of the corrected anchors.
        let mid = a.worker_time + (b.worker_time - a.worker_time) / 2;
        let expected = {
            let ca = li.map(a.worker_time);
            let cb = li.map(b.worker_time);
            ca + (cb - ca) / 2
        };
        let got = li.map(mid);
        prop_assert!((got - expected).abs() <= Dur::from_ps(1000),
            "midpoint off by {:?}", got - expected);
    }
}

// -------- pipeline invariants (sequential and sharded) ---------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After the pipeline's CLC stage, no matched message may violate
    /// `t_recv >= t_send + l_min` — checked explicitly against the event
    /// times, not just via the report.
    #[test]
    fn pipeline_clc_leaves_no_latency_violations(
        (trace, lmin_us) in arb_skewed_trace(),
    ) {
        let n = trace.n_procs();
        let mut t = trace;
        let lmin = Dur::from_us(lmin_us);
        let cfg = drift_lab::clocksync::PipelineConfig {
            presync: PreSync::None,
            clc: Some(ClcParams::default()),
            ..Default::default()
        };
        let rep = drift_lab::clocksync::synchronize(
            &mut t, &vec![None; n], None, &UniformLatency(lmin), &cfg,
        ).unwrap();
        prop_assert_eq!(rep.after_clc.unwrap().total_violations(), 0);
        let m = match_messages(&t);
        for msg in &m.messages {
            let ts = t.procs[msg.send.p()].events[msg.send.i()].time;
            let tr = t.procs[msg.recv.p()].events[msg.recv.i()].time;
            prop_assert!(tr >= ts + lmin,
                "message {:?} -> {:?} violates t_recv >= t_send + l_min", msg.send, msg.recv);
        }
    }

    /// Corrected timestamps stay monotone along every rank's timeline.
    #[test]
    fn pipeline_output_is_monotone_per_rank(
        (trace, lmin_us) in arb_skewed_trace(),
    ) {
        let n = trace.n_procs();
        let mut t = trace;
        let cfg = drift_lab::clocksync::PipelineConfig {
            presync: PreSync::None,
            clc: Some(ClcParams::default()),
            ..Default::default()
        };
        drift_lab::clocksync::synchronize(
            &mut t, &vec![None; n], None, &UniformLatency(Dur::from_us(lmin_us)), &cfg,
        ).unwrap();
        prop_assert!(t.is_locally_monotone(), "pipeline broke local order");
        for p in 0..n {
            for w in t.procs[p].events.windows(2) {
                prop_assert!(w[0].time <= w[1].time, "non-monotone on rank {p}");
            }
        }
    }

    /// The identity configuration — no pre-synchronisation, no CLC — must
    /// leave every timestamp untouched.
    #[test]
    fn identity_pipeline_leaves_trace_unchanged(
        (trace, lmin_us) in arb_skewed_trace(),
    ) {
        let n = trace.n_procs();
        let before = trace.clone();
        let mut t = trace;
        let cfg = drift_lab::clocksync::PipelineConfig {
            presync: PreSync::None,
            clc: None,
            ..Default::default()
        };
        let rep = drift_lab::clocksync::synchronize(
            &mut t, &vec![None; n], None, &UniformLatency(Dur::from_us(lmin_us)), &cfg,
        ).unwrap();
        for p in 0..n {
            prop_assert_eq!(&t.procs[p].events, &before.procs[p].events,
                "identity pipeline modified rank {}", p);
        }
        prop_assert_eq!(
            rep.raw.total_violations(),
            rep.after_presync.total_violations()
        );
    }
}

proptest! {
    // Cheap cases, and the ones that matter — an offset that carries only
    // part of a timeline over the edge — are a twentieth of them.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pre-synchronisation within 1 % of the `i64` edges — timestamps,
    /// anchors and offsets — saturates instead of wrapping: no driver
    /// panics, a timeline that ran forwards still does, and the batch and
    /// the windowed driver agree on every picosecond. (Every timeline sits
    /// at the same edge and takes an offset of the same class, so corrected
    /// timelines stay within `i64` range of each other: the censuses
    /// subtract plainly.)
    #[test]
    fn presync_saturates_at_the_i64_edges(
        (trace, lmin_us) in arb_skewed_trace(),
        flags in 0u8..8,
        inset in (0usize..3, 0..i64::MAX / 200),
        offset_class in 0usize..3,
        offset_inset in 0..i64::MAX / 100,
        slope in -0.5f64..0.5,
    ) {
        let (high_edge, linear, clc) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        // Slide the trace onto its edge: a nanosecond, a millisecond or up to
        // half a percent of the range away from it, so that small offsets
        // cross the edge in the middle of a timeline too.
        let inset = inset.1 % [1 << 10, 1 << 30, i64::MAX / 200][inset.0];
        let times = || trace.iter_events().map(|(_, e)| e.time.as_ps());
        let (lo, hi) = (times().min().expect("events"), times().max().expect("events"));
        let onto_edge = |t: i64| {
            Time::from_ps(if high_edge { i64::MAX - inset + (t - hi) } else { i64::MIN + inset + (t - lo) })
        };
        let mut base = trace.clone();
        base.map_times(|_, t| onto_edge(t.as_ps()));
        let (w1, w2) = (onto_edge(lo), onto_edge(hi));

        // Offsets near either edge, or within a millisecond of zero on the
        // side that crosses the trace's edge; the finalize offset keeps the
        // fitted slope within ±0.5, where Eq. 3 is monotone.
        let small = offset_inset % (1 << 30) * if high_edge { 1 } else { -1 };
        let o1 = Dur::from_ps([i64::MAX - offset_inset, i64::MIN + offset_inset, small][offset_class]);
        let o2 = o1.saturating_add((w2 - w1).scale(slope));
        let rtt = Dur::from_us(10);
        let n = base.n_procs();
        let init = vec![Some(OffsetMeasurement::new(w1, o1, rtt)); n];
        let fin = vec![Some(OffsetMeasurement::new(w2, o2, rtt)); n];
        let cfg = drift_lab::clocksync::PipelineConfig {
            presync: if linear { PreSync::Linear } else { PreSync::AlignOnly },
            clc: clc.then(ClcParams::default),
            ..Default::default()
        };
        let lmin = UniformLatency(Dur::from_us(lmin_us));

        let mut batch = base.clone();
        drift_lab::clocksync::synchronize(&mut batch, &init, Some(&fin), &lmin, &cfg).unwrap();
        let bytes = io::to_binary_columnar_v3_blocked(&base, 4);
        let (frames, _) = drift_lab::clocksync::synchronize_stream_incremental(
            &[&bytes[..]], &init, Some(&fin), &lmin, &cfg, 3,
        ).unwrap();
        let windowed = io::from_binary_columnar(frames.concat().into()).unwrap();

        prop_assert_eq!(
            common::times_by_location(&batch),
            common::times_by_location(&windowed),
            "batch and windowed differ"
        );
        for (p, (before, after)) in base.procs.iter().zip(&batch.procs).enumerate() {
            for (i, pair) in before.events.windows(2).enumerate() {
                if pair[0].time <= pair[1].time {
                    prop_assert!(after.events[i].time <= after.events[i + 1].time,
                        "rank {p}: events {i}, {} ran forwards before presync, backwards after",
                        i + 1);
                }
            }
        }
    }

    /// The violation censuses at the `i64` edges: each timeline sits near
    /// the bottom of the range, near zero or near its top, so a message
    /// between two of them is ordinary or carries a transfer past the range
    /// either way, and one allreduce at the end spans every timeline. The
    /// plan census (AVX2 or forced-scalar kernels), the pipeline's raw
    /// census, the reference walk and exact `i128` arithmetic count the same
    /// violations and reversals.
    #[test]
    fn censuses_count_exactly_at_the_i64_edges(
        (trace, lmin_us) in arb_skewed_trace(),
        edges in prop::collection::vec(0usize..3, 6),
        inset in 0..i64::MAX / 4,
    ) {
        use drift_lab::tracefmt::{
            check_collectives_at, check_p2p_messages_at, Capture, CensusPlan, CollReport,
            EventId, P2pReport, TraceColumns,
        };
        let mut t = trace;
        let (op, comm, root, bytes) = (CollOp::Allreduce, CommId::WORLD, None, 8);
        for pt in &mut t.procs {
            let last = pt.events.last().map_or(Time::ZERO, |e| e.time);
            pt.push(last + Dur::from_us(1), EventKind::CollBegin { op, comm, root, bytes });
            pt.push(last + Dur::from_us(2), EventKind::CollEnd { op, comm, root, bytes });
        }
        // Slide each timeline onto its edge: its earliest event `inset`
        // above `i64::MIN`, or its latest `inset` below `i64::MAX`.
        for (p, pt) in t.procs.iter_mut().enumerate() {
            let lo = pt.events.iter().map(|e| e.time.as_ps()).min().expect("events");
            let hi = pt.events.iter().map(|e| e.time.as_ps()).max().expect("events");
            for e in &mut pt.events {
                let ps = e.time.as_ps();
                e.time = Time::from_ps(match edges[p] {
                    0 => i64::MIN + inset + (ps - lo),
                    1 => ps,
                    _ => i64::MAX - inset - (hi - ps),
                });
            }
        }
        let lmin = UniformLatency(Dur::from_us(lmin_us));
        let l = i128::from(Dur::from_us(lmin_us).as_ps());
        let at = |id: EventId| i128::from(t.procs[id.p()].events[id.i()].time.as_ps());

        let (matching, insts) = Capture::of(&t).finish();
        let insts = insts.expect("one allreduce");
        let (mut violated, mut reversed) = (0, 0);
        for m in &matching.messages {
            let transfer = at(m.recv) - at(m.send);
            violated += usize::from(transfer < l);
            reversed += usize::from(transfer < l && transfer < 0);
        }
        let (mut logical, mut logical_violated, mut logical_reversed) = (0, 0, 0);
        for a in &insts[0].members {
            for b in insts[0].members.iter().filter(|b| b.rank != a.rank) {
                let transfer = at(b.end) - at(a.begin);
                logical += 1;
                logical_violated += usize::from(transfer < l);
                logical_reversed += usize::from(transfer < l && transfer < 0);
            }
        }
        let exact = (violated, reversed, logical, logical_violated, logical_reversed);

        let cols = TraceColumns::gather(&t);
        let lens: Vec<usize> = t.procs.iter().map(|pt| pt.events.len()).collect();
        let plan = CensusPlan::build(&lens, &matching.messages, &insts, &lmin).expect("fits");
        let (p2p, coll) = (plan.p2p_census(plan.flat_of(&cols)), plan.collective_census(plan.flat_of(&cols)));
        let reference_p2p = check_p2p_messages_at(&cols, &matching.messages, &lmin);
        let reference_coll = check_collectives_at(&cols, &insts, &lmin);
        let counts = |p2p: &P2pReport, coll: &CollReport| {
            (p2p.violations.len(), p2p.reversed, coll.logical_total, coll.logical_violated, coll.logical_reversed)
        };
        prop_assert_eq!(counts(&p2p, &coll), exact, "plan census");
        prop_assert_eq!(counts(&reference_p2p, &reference_coll), exact, "reference census");
        prop_assert_eq!(&p2p.violations, &reference_p2p.violations);

        let n = t.n_procs();
        let cfg = drift_lab::clocksync::PipelineConfig { presync: PreSync::None, clc: None, ..Default::default() };
        let rep = drift_lab::clocksync::synchronize(&mut t, &vec![None; n], None, &lmin, &cfg).unwrap();
        prop_assert_eq!(counts(&rep.raw.p2p, &rep.raw.coll), exact, "pipeline census");
    }
}

// -------- extensions: POMP CLC -------------------------------------------------

/// A random POMP trace: a team of 2–6 threads, several region instances,
/// per-thread clock skews corrupting the recorded timestamps.
fn arb_pomp_trace() -> impl Strategy<Value = Trace> {
    (
        2usize..6,
        2usize..8,
        prop::collection::vec(-20i64..20, 6),
    )
        .prop_map(|(threads, regions, skews)| {
            let r = RegionId(0);
            let mut t = Trace::for_threads(threads);
            let mut now = 10i64;
            for k in 0..regions {
                t.procs[0].push(
                    Time::from_us(now + skews[0]),
                    EventKind::Fork { region: r },
                );
                let start = now + 2;
                let mut enters = Vec::new();
                #[allow(clippy::needless_range_loop)]
                for th in 0..threads {
                    let body_end = start + 30 + ((th + k) as i64 * 7) % 17;
                    t.procs[th].push(
                        Time::from_us(start + skews[th]),
                        EventKind::Enter { region: r },
                    );
                    t.procs[th].push(
                        Time::from_us(body_end + skews[th]),
                        EventKind::BarrierEnter { region: r },
                    );
                    enters.push(body_end);
                }
                let all_in = *enters.iter().max().expect("non-empty") + 1;
                #[allow(clippy::needless_range_loop)]
                for th in 0..threads {
                    t.procs[th].push(
                        Time::from_us(all_in + th as i64 + skews[th]),
                        EventKind::BarrierExit { region: r },
                    );
                }
                now = all_in + threads as i64 + 2;
                t.procs[0].push(
                    Time::from_us(now + skews[0]),
                    EventKind::Join { region: r },
                );
                now += 10;
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pomp_clc_always_restores_pomp_rules(trace in arb_pomp_trace()) {
        use drift_lab::clocksync::controlled_logical_clock_pomp;
        let mut t = trace;
        controlled_logical_clock_pomp(
            &mut t,
            Dur::from_ns(100),
            &drift_lab::clocksync::ClcParams::default(),
        )
        .unwrap();
        let regions = match_parallel_regions(&t).unwrap();
        let rep = check_pomp(&t, &regions);
        prop_assert_eq!(rep.any_violations, 0, "POMP CLC left violations");
        prop_assert!(t.is_locally_monotone());
    }
}
