//! The capture stage's heap budget, counted rather than timed.
//!
//! A job starts from a trimmed heap, so every byte the capture allocates is
//! a page it faults in; the bytes are what this test holds, on any host.
//! One `#[test]` on purpose: the counters are process-wide, and a second
//! test running on another thread would allocate into them.

use drift_lab::clocksync::TraceAnalysis;
use drift_lab::onlinesync::NetworkConfig;
use drift_lab::tracefmt::Trace;
use drift_lab::workloads::churn_scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
/// `realloc` keeps the trait's default (allocate, copy, free), so a move
/// counts the old and the new block together, as the heap holds them.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live heap of the two-pass capture this one replaced, on this trace
/// and counted by this allocator: 3 503 228 B for 27 500 messages, 127.4 B
/// per message — four send and three receive columns grown by doubling,
/// two ordinal arrays per side, `partner` and `consumed`, and `messages`
/// pushed without a reserve. The one-scan capture holds 80.3 B: the
/// 24-byte records of both sides in one column sized by the event count,
/// and `messages` sized to the match count.
const TWO_PASS_PEAK_BYTES: usize = 3_503_228;

/// A trace shaped like the benchmark's `online_churn` inputs: 27 500
/// messages between eight churning nodes, every event a send or a receive,
/// each message its own tag. The horizon grows until the generator has
/// placed enough traffic, as the benchmark's does.
fn churn_trace() -> (Trace, usize) {
    let mut cfg = NetworkConfig::default();
    loop {
        let s = churn_scenario(cfg.clone(), 27_500, 2008);
        if s.trace.n_events() >= 50_000 {
            return (s.trace, s.messages);
        }
        cfg.horizon_s *= 1.5;
    }
}

#[test]
fn capture_peaks_under_three_quarters_of_the_two_pass_heap() {
    let (trace, messages) = churn_trace();
    assert_eq!(messages, 27_500, "the trace the two-pass figure was counted on");
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let analysis = TraceAnalysis::capture(&trace).expect("churn traces carry no collectives");
    let peak = PEAK.load(Relaxed) - base;
    let m = &analysis.matching;
    assert_eq!(m.messages.len(), messages, "every churn message matches");
    let budget = TWO_PASS_PEAK_BYTES * 3 / 4;
    println!(
        "capture peak {peak} B for {messages} messages ({:.1} B each; budget {budget} B)",
        peak as f64 / messages as f64
    );
    assert!(peak <= budget, "capture peaked at {peak} B, over its {budget} B budget");
    assert_eq!(m.messages.capacity(), m.messages.len(), "`messages` is sized before it is written");
}
