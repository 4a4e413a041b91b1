//! The constant-skew point-to-point fixture: random message traffic
//! recorded through clocks that are each a fixed offset away from rank 0's.
//!
//! The skews make real clock-condition violations, so a pipeline run over
//! the trace does forward and backward CLC work; the init/finalize
//! measurements undo each skew to within 2 µs, so presync has something to
//! do as well. The kernel benches, the `syncd` simulation campaign and the
//! wire example all take their jobs from here.

use onlinesync::OffsetMeasurement;
use rand::rngs::StdRng;
use rand::Rng;
use simclock::{Dur, Time};
use tracefmt::{EventKind, Rank, Tag, Trace};

/// A causally valid trace of `msgs` messages between `procs` ranks, each
/// worker's clock skewed by a constant drawn from `-skew_us..skew_us`, plus
/// the matching init and finalize offset measurements (`None` for rank 0,
/// the reference).
///
/// The draws from `rng` are part of the contract — the skews first, then
/// per message the sender, the receiver, the send gap (5–40 µs) and the
/// transfer jitter (4 µs + 0–20 µs): recorded simulation campaigns replay
/// against it.
pub fn skewed_p2p(
    rng: &mut StdRng,
    procs: usize,
    msgs: usize,
    skew_us: i64,
) -> (Trace, Vec<Option<OffsetMeasurement>>, Vec<Option<OffsetMeasurement>>) {
    let offsets: Vec<i64> = (0..procs)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-skew_us..skew_us) })
        .collect();
    let local = |p: usize, t: i64| t + offsets[p];
    let mut trace = Trace::for_ranks(procs);
    let mut now = vec![0i64; procs];
    for m in 0..msgs {
        let from = rng.gen_range(0usize..procs);
        let to = (from + rng.gen_range(1usize..procs)) % procs;
        let send_true = now[from] + rng.gen_range(5i64..40);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + 4 + rng.gen_range(0i64..20);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(local(from, send_true)),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(local(to, recv_true)),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
    }
    let end = now.iter().max().copied().unwrap_or(0) + 100;
    let measure = |p: usize, t: i64| {
        (p != 0).then(|| {
            OffsetMeasurement::new(
                Time::from_us(local(p, t)),
                Dur::from_us(-offsets[p] + 2),
                Dur::from_us(10),
            )
        })
    };
    let init = (0..procs).map(|p| measure(p, 0)).collect();
    let fin = (0..procs).map(|p| measure(p, end)).collect();
    (trace, init, fin)
}
