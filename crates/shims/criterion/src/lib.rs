//! Offline shim for the `criterion` API surface used by drift-lab's benches.
//!
//! Provides [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`Bencher::iter_custom`], [`BenchmarkId`], [`Throughput`], [`black_box`]
//! and the `criterion_group!`/`criterion_main!` macros. A positional
//! argument filters benchmarks by `group/name` substring. Measurement is a plain
//! wall-clock loop (short warm-up, then `sample_size` timed samples) that
//! prints median time per iteration and derived throughput. Under
//! `--test` (as in `cargo bench -- --test`) each benchmark body runs exactly
//! once so CI can smoke-test benches without paying for measurement.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier, re-exported so benches can defeat constant folding.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Units processed per benchmark iteration, used to derive throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (events, messages, ...) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Identifier combining a function name and a parameter, shown as
/// `name/param` (mirrors `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `name/parameter` id.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { full: format!("{}/{}", name.into(), parameter) }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.full)
    }
}

/// Anything usable as a benchmark name: `&str`, `String`, or a
/// [`BenchmarkId`].
pub trait IntoBenchmarkName {
    fn into_name(self) -> String;
}

impl IntoBenchmarkName for &str {
    fn into_name(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkName for String {
    fn into_name(self) -> String {
        self
    }
}

impl IntoBenchmarkName for BenchmarkId {
    fn into_name(self) -> String {
        self.full
    }
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    /// Median nanoseconds per iteration of the last `iter` call.
    last_ns_per_iter: f64,
}

impl Bencher {
    /// Run `routine` repeatedly and record its median wall-clock time.
    ///
    /// In `--test` mode the routine runs exactly once and no timing is
    /// recorded.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            t0.elapsed()
        });
    }

    /// Like [`Bencher::iter`] for a routine that times itself: it is
    /// called with an iteration count and returns the time those
    /// iterations took — the part of them the benchmark is about (mirrors
    /// `criterion::Bencher::iter_custom`). In `--test` mode it is called
    /// once, for one iteration.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        if self.test_mode {
            black_box(routine(1));
            self.last_ns_per_iter = 0.0;
            return;
        }

        // Warm-up: run until ~50ms elapsed to settle caches/branch
        // predictors, and learn how many iterations fit a sample.
        let warmup_budget = Duration::from_millis(50);
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        let mut warmup_measured = Duration::ZERO;
        while warmup_start.elapsed() < warmup_budget {
            warmup_measured += routine(1);
            warmup_iters += 1;
        }
        let ns_est = (warmup_measured.as_nanos() as f64 / warmup_iters as f64).max(1.0);

        // Aim each sample at ~20ms of work, at least one iteration.
        let iters_per_sample = ((20_000_000.0 / ns_est).ceil() as u64).max(1);
        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            samples.push(routine(iters_per_sample).as_nanos() as f64 / iters_per_sample as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.last_ns_per_iter = samples[samples.len() / 2];
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named group of related benchmarks (mirrors
/// `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set per-iteration throughput units for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Number of timed samples per benchmark (the real criterion enforces
    /// a minimum of 10; this shim just takes the value).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Run one benchmark.
    pub fn bench_function<N: IntoBenchmarkName, F: FnMut(&mut Bencher)>(
        &mut self,
        id: N,
        mut f: F,
    ) -> &mut Self {
        self.run(id.into_name(), |b| f(b));
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<N: IntoBenchmarkName, I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: N,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run(id.into_name(), |b| f(b, input));
        self
    }

    fn run(&self, name: String, mut f: impl FnMut(&mut Bencher)) {
        if !self.criterion.matches(&format!("{}/{}", self.name, name)) {
            return;
        }
        let mut b = Bencher {
            test_mode: self.criterion.test_mode,
            sample_size: self.sample_size,
            last_ns_per_iter: 0.0,
        };
        f(&mut b);
        let full = format!("{}/{}", self.name, name);
        if self.criterion.test_mode {
            println!("test {full} ... ok (ran once, --test mode)");
            return;
        }
        let mut line = format!("{full:<55} {:>12}/iter", fmt_ns(b.last_ns_per_iter));
        if b.last_ns_per_iter > 0.0 {
            match self.throughput {
                Some(Throughput::Elements(n)) => {
                    let eps = n as f64 * 1_000_000_000.0 / b.last_ns_per_iter;
                    line.push_str(&format!("  {:>12.0} elem/s", eps));
                }
                Some(Throughput::Bytes(n)) => {
                    let bps = n as f64 * 1_000_000_000.0 / b.last_ns_per_iter;
                    line.push_str(&format!("  {:>12.0} B/s", bps));
                }
                None => {}
            }
        }
        println!("{line}");
    }

    /// End the group (output is flushed eagerly; this is API compatibility).
    pub fn finish(&mut self) {}
}

/// Benchmark harness entry point (mirrors `criterion::Criterion`).
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        // libtest-style args arrive after `--bench`; honor `--test` and a
        // positional substring filter, ignore everything else.
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                "--bench" => {}
                a if a.starts_with('-') => {}
                a => filter = Some(a.to_owned()),
            }
        }
        Criterion { test_mode, filter }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: 30,
        }
    }

    /// Run one stand-alone benchmark (group of its own name).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let g = BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            throughput: None,
            sample_size: 30,
        };
        g.run("single".to_owned(), |b| f(b));
        self
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Called by `criterion_main!` after all groups ran.
    pub fn final_summary(&self) {}
}

/// Declare a set of benchmark functions runnable by `criterion_main!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the given `criterion_group!` sets.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_smoke() {
        let mut c = Criterion { test_mode: true, filter: None };
        let mut g = c.benchmark_group("smoke");
        g.throughput(Throughput::Elements(100)).sample_size(10);
        let mut runs = 0;
        g.bench_function("once", |b| b.iter(|| runs += 1));
        g.bench_with_input(BenchmarkId::new("param", 4), &4usize, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        g.finish();
        assert_eq!(runs, 1, "--test mode must run the body exactly once");
    }

    #[test]
    fn measured_iter_records_time() {
        let mut b = Bencher { test_mode: false, sample_size: 3, last_ns_per_iter: 0.0 };
        b.iter(|| black_box((0..100u64).sum::<u64>()));
        assert!(b.last_ns_per_iter > 0.0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("sweep", 8).to_string(), "sweep/8");
    }
}
