//! The `host` layer: what the machine adds to every job without showing
//! up in any `PipelineStats` row — page faults, kernel time, neighbour
//! noise — plus the factors a reader needs to compare two runs.
//!
//! Everything here reads `/proc/self/*`; nothing tunes the allocator
//! (no `GLIBC_TUNABLES`, no `mallopt`): the benchmark makes the
//! page-fault churn visible, it does not remove it.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::time::Instant;

/// Kernel clock ticks per second. `/proc/self/stat` reports CPU time in
/// `USER_HZ`, which Linux fixes at 100 on every architecture it exposes
/// to userspace; std offers no `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process-wide counters in `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Minor page faults so far (exact).
    pub minor_faults: u64,
    /// User CPU seconds so far (10 ms granularity).
    pub user_s: f64,
    /// Kernel CPU seconds so far (10 ms granularity).
    pub sys_s: f64,
}

/// A kept-open `/proc/self/stat`, re-read with one `pread` per sample.
pub struct HostProbe {
    stat: File,
}

impl HostProbe {
    /// Open the stat file once.
    pub fn open() -> std::io::Result<HostProbe> {
        Ok(HostProbe {
            stat: File::open("/proc/self/stat")?,
        })
    }

    /// Current counters (all threads of the process). Zeros if the file
    /// cannot be parsed, which no Linux has been seen to do.
    pub fn sample(&self) -> HostSample {
        let mut buf = [0u8; 1024];
        let n = self.stat.read_at(&mut buf, 0).unwrap_or(0);
        parse_stat(&String::from_utf8_lossy(&buf[..n])).unwrap_or_default()
    }
}

/// Fields after the parenthesised command name, which may itself hold
/// spaces: state is field 3, so `minflt` (10), `utime` (14) and `stime`
/// (15) sit at offsets 7, 11 and 12.
fn parse_stat(s: &str) -> Option<HostSample> {
    let rest = &s[s.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    Some(HostSample {
        minor_faults: f.get(7)?.parse().ok()?,
        user_s: f.get(11)?.parse::<f64>().ok()? / TICKS_PER_S,
        sys_s: f.get(12)?.parse::<f64>().ok()? / TICKS_PER_S,
    })
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Reset `VmHWM` to the current resident set (`echo 5 > clear_refs`), so
/// the peak describes the measured rounds and not the input generators
/// that ran in set-up. Returns whether the kernel accepted the write;
/// where it does not, `peak_rss_mb` includes set-up.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// What [`Calibrator::sample_ms`] read on the reference host while it was
/// quiet. A round's host factor is its median calibration over this
/// constant, and a host-normalised second is a wall second divided by
/// that factor. The constant only fixes the scale; comparisons between
/// two runs never depend on it.
pub const CALIB_NOMINAL_MS: f64 = 4.0;

const CALIB_WORDS: usize = (32 << 20) / 8;
const CALIB_TOUCHES: usize = 600_000;

/// The fixed calibration kernel: 600 000 reads, then 600 000 writes, at
/// pseudo-random indices of a resident 32 MiB buffer; a sample is the
/// geometric mean of the two phases. It touches nothing of the repo, and
/// it moves with what moved the workloads on the sandbox this was sized
/// on: neighbours on the machine's memory system, which slowed whole
/// minutes of every workload by tens of percent while a register-only
/// loop ran flat.
///
/// The buffer is resident and allocated once on purpose. A kernel that
/// maps and touches *fresh* pages tracked `stream_windowed` and
/// `online_churn` better still, but what it measures depends on whose
/// freed pages it is handed: inside a `pop_batch` process (32 MiB
/// unmapped per job) the same kernel read anything from 3.6 to 9 ms
/// while the jobs around it took the same 0.068 s.
///
/// Sampled between the slices of every round, it turns wall seconds into
/// host-normalised seconds; reported as `host.calib_ms`, it makes the
/// noise visible.
pub struct Calibrator {
    resident: Vec<u64>,
}

impl Calibrator {
    /// Allocate and touch the resident buffer.
    pub fn new() -> Calibrator {
        Calibrator {
            resident: (0..CALIB_WORDS as u64).collect(),
        }
    }

    /// MiB of resident memory the calibrator itself holds; `peak_rss_mb`
    /// is reported net of it.
    pub fn resident_mb(&self) -> f64 {
        (self.resident.len() * 8) as f64 / (1 << 20) as f64
    }

    /// Push `reps` samples into `into`, after one discarded pass that
    /// takes the first misses on whatever the jobs evicted.
    pub fn sample_into(&mut self, reps: usize, into: &mut Vec<f64>) {
        self.sample_ms();
        into.extend((0..reps).map(|_| self.sample_ms()));
    }

    fn sample_ms(&mut self) -> f64 {
        let mut next = {
            let mut idx = 0x2545_F491_4F6C_DD1Du64;
            move || {
                idx = idx
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (idx >> 33) as usize % CALIB_WORDS
            }
        };
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..CALIB_TOUCHES {
            acc = acc.wrapping_add(self.resident[next()]);
        }
        let gather_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        for _ in 0..CALIB_TOUCHES {
            self.resident[next()] = acc;
        }
        std::hint::black_box(&self.resident);
        let scatter_ms = t1.elapsed().as_secs_f64() * 1e3;
        (gather_ms * scatter_ms).sqrt()
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free memory back to the kernel, so the next job
/// starts from the state a job in a fresh process starts from and pays
/// its whole page-fault bill. Without this, glibc's dynamic thresholds
/// leave a process in one of two states for its whole life — free heap
/// retained (0 minor faults per `pop_batch` job, ~0.03 s) or trimmed
/// after every job (~8 200 faults, ~0.045 s) — and which one is decided
/// by allocation-order accidents during set-up, not by the seed or the
/// code. This changes no allocator setting (no `GLIBC_TUNABLES`, no
/// `mallopt`): it pins the benchmark to the cold state, where the
/// page-fault churn the ISSUE wants visible is always in the job.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` is glibc's documented, thread-safe entry
    // point; it takes the arena locks itself, frees no live memory, and
    // its `pad` argument is a plain byte count.
    unsafe {
        malloc_trim(0);
    }
}

/// The factors of a run, recorded once (arXiv:1505.07734: a number
/// without its factors cannot be compared).
pub fn factors() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    vec![
        ("nproc", nproc.to_string()),
        ("avx2", avx2.to_string()),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "allocator",
            "system default, malloc_trim(0) before each single-threaded job".to_string(),
        ),
        ("GLIBC_TUNABLES", env("GLIBC_TUNABLES")),
        ("TRACEFMT_NO_AVX2", env("TRACEFMT_NO_AVX2")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_command_parses() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 777 8 9 10 250 50 0 0 20 0 3 0 1 2 3";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s.minor_faults, 777);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.5);
    }

    #[test]
    fn live_counters_are_monotone() {
        let probe = HostProbe::open().expect("procfs");
        let a = probe.sample();
        std::hint::black_box(vec![1u8; 8 << 20]);
        let b = probe.sample();
        assert!(b.minor_faults >= a.minor_faults);
        assert!(peak_rss_mb() > 0.0);
    }
}
