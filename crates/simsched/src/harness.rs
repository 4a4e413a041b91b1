//! The simulation harness: seeded chaos schedules over a stepped
//! [`syncd::StepService`] on a virtual clock.
//!
//! One run is two PRNG streams derived from one seed — the *workload*
//! stream fixes the jobs ([`crate::workload`]), the *schedule* stream
//! picks, round after round, which enabled action happens next: submit a
//! job, step an executor (optionally with a one-shot fault armed at a
//! pipeline checkpoint), cancel a job from outside, advance the virtual
//! clock, or begin shutdown. Every choice is recorded as a
//! [`Decision`], so a failing run replays exactly from `(seed,
//! decisions)` — and because the deterministic drain can finish a run
//! from *any* prefix, a failure shrinks to a minimal decision prefix
//! (see [`crate::shrink`]).
//!
//! Invariants ([`crate::invariant`]) are checked after every decision
//! and once more at quiescence; the first broken one stops the run.

use crate::decision::{Decision, FaultOp};
use crate::invariant::{
    check_job, check_quiescence, check_step, GroundTruth, ObservedEvents, TrackedOutcome,
    Violation,
};
use crate::rt::SimRuntime;
use crate::workload::{self, WorkItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;
use syncd::{
    AttemptProbe, Counter, JobHandle, ServiceConfig, StepEvent, StepService,
};

/// Distinct PRNG stream for scheduling so that decision shrinking never
/// perturbs the workload (golden-ratio offset, as in SplitMix).
const SCHED_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Simulation shape: service knobs plus campaign workload size.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Logical executors.
    pub executors: usize,
    /// Submission queue capacity (small, so QueueFull is reachable).
    pub queue_capacity: usize,
    /// Memory budget (small, so OverBudget is reachable).
    pub memory_budget_bytes: u64,
    /// Service-default retry budget.
    pub max_retries: u32,
    /// Base retry backoff (virtual time).
    pub retry_backoff: Duration,
    /// Jobs per seed.
    pub jobs: usize,
    /// Scheduling decisions per seed before the deterministic drain.
    pub max_decisions: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            executors: 3,
            queue_capacity: 6,
            memory_budget_bytes: 192 * 1024,
            max_retries: 3,
            retry_backoff: Duration::from_micros(400),
            jobs: 10,
            max_decisions: 300,
        }
    }
}

impl SimConfig {
    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            executors: self.executors,
            queue_capacity: self.queue_capacity,
            memory_budget_bytes: self.memory_budget_bytes,
            max_retries: self.max_retries,
            retry_backoff: self.retry_backoff,
            default_deadline: None,
        }
    }
}

/// The outcome of one simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// The seed the run derives from.
    pub seed: u64,
    /// Decisions actually applied (recording or replaying); replaying
    /// this list with the same seed reproduces the run bit-for-bit.
    pub decisions: Vec<Decision>,
    /// Total steps taken, deterministic drain included.
    pub steps: usize,
    /// The first broken invariant, if any.
    pub violation: Option<Violation>,
    /// Digest of final counters, clock, and per-job outcomes — equal
    /// fingerprints mean indistinguishable runs.
    pub fingerprint: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that failed (all typed reasons).
    pub failed: u64,
    /// Terminal state of every job the service accepted, in submission
    /// order: `"ok"`, `"pipeline"`, `"panicked"`, `"cancelled"`,
    /// `"deadline"`, `"shutdown"`, or `"unresolved"` (the last is
    /// unreachable in a passing run — quiescence requires every accepted
    /// job to settle).
    pub outcomes: Vec<&'static str>,
}

/// The `outcomes` tag for one settled (or not) job handle.
fn outcome_kind(handle: &JobHandle) -> &'static str {
    match handle.peek() {
        None => "unresolved",
        Some(Ok(_)) => "ok",
        Some(Err(failure)) => match failure.error {
            syncd::JobError::Pipeline(_) => "pipeline",
            syncd::JobError::Panicked(_) => "panicked",
            syncd::JobError::Cancelled => "cancelled",
            syncd::JobError::DeadlineExceeded => "deadline",
            syncd::JobError::Shutdown => "shutdown",
        },
    }
}

/// Injected-crash panics carry this payload; the quiet hook (installed by
/// every run) suppresses their default stderr backtrace while leaving all
/// other panics untouched.
pub const CRASH_PAYLOAD: &str = "simsched: injected worker crash";

/// Install (once) a panic hook that silences injected-crash panics.
pub fn install_quiet_crash_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            // Formatted panics carry String payloads, literal ones &str;
            // injected crashes are formatted, but check both to be safe.
            let injected = payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .is_some_and(|s| s.contains(CRASH_PAYLOAD));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A one-shot fault armed for a single executor step, delivered at the
/// n-th pipeline checkpoint the attempt reaches.
struct FaultPlan {
    skip: AtomicU32,
    op: FaultOp,
    canceller: Option<Arc<dyn Fn() + Send + Sync>>,
    rt: Arc<SimRuntime>,
    delivered: AtomicBool,
}

impl FaultPlan {
    fn probe(self: &Arc<Self>) -> AttemptProbe {
        let plan = Arc::clone(self);
        Arc::new(move || {
            if plan.delivered.load(Ordering::Relaxed) {
                return false;
            }
            if plan.skip.load(Ordering::Relaxed) > 0 {
                plan.skip.fetch_sub(1, Ordering::Relaxed);
                return false;
            }
            match plan.op {
                FaultOp::Cancel => match &plan.canceller {
                    Some(cancel) => {
                        plan.delivered.store(true, Ordering::Relaxed);
                        cancel();
                        true
                    }
                    None => false,
                },
                FaultOp::Crash => {
                    plan.delivered.store(true, Ordering::Relaxed);
                    panic!("{}", CRASH_PAYLOAD);
                }
                FaultOp::Jump { ns } => {
                    plan.delivered.store(true, Ordering::Relaxed);
                    plan.rt.advance(Duration::from_nanos(ns));
                    false
                }
            }
        })
    }
}

/// Checker-side state for one submitted job.
struct Tracked {
    handle: JobHandle,
    item_idx: usize,
    deadline: Option<Duration>,
    cancel_requested: bool,
    crashes: u64,
}

struct Sim {
    cfg: SimConfig,
    rt: Arc<SimRuntime>,
    svc: StepService,
    items: Vec<WorkItem>,
    next_submit: usize,
    tracked: Vec<Tracked>,
    by_id: HashMap<u64, usize>,
    shutdown_sent: bool,
    abandon_sent: bool,
    backoffs: u64,
    crashes_delivered: u64,
    decisions: Vec<Decision>,
    steps: usize,
    violation: Option<Violation>,
}

impl Sim {
    fn new(seed: u64, cfg: SimConfig) -> Self {
        install_quiet_crash_hook();
        let rt = Arc::new(SimRuntime::new());
        let svc = StepService::new(cfg.service_config(), Arc::clone(&rt) as _);
        let items = workload::generate(seed, cfg.jobs);
        Sim {
            cfg,
            rt,
            svc,
            items,
            next_submit: 0,
            tracked: Vec::new(),
            by_id: HashMap::new(),
            shutdown_sent: false,
            abandon_sent: false,
            backoffs: 0,
            crashes_delivered: 0,
            decisions: Vec::new(),
            steps: 0,
            violation: None,
        }
    }

    fn held_jobs(&self) -> usize {
        (0..self.svc.executors())
            .filter(|&i| self.svc.current_job(i).is_some())
            .count()
    }

    fn ground_truth(&self) -> GroundTruth {
        GroundTruth {
            admitted_bytes: self.svc.admitted_bytes(),
            queue_len: self.svc.queue_len(),
            held_jobs: self.held_jobs(),
            budget: self.cfg.memory_budget_bytes,
            executors: self.svc.executors(),
        }
    }

    fn fail(&mut self, message: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                step: self.steps,
                message,
            });
        }
    }

    fn unresolved(&self) -> Vec<usize> {
        self.tracked
            .iter()
            .enumerate()
            .filter(|(_, t)| t.handle.peek().is_none())
            .map(|(i, _)| i)
            .collect()
    }

    fn submit_next(&mut self) {
        let Some(item) = self.items.get(self.next_submit) else {
            return;
        };
        let item_idx = self.next_submit;
        self.next_submit += 1;
        let spec = item.spec.clone();
        let deadline_rel = spec.deadline;
        match self.svc.submit(spec) {
            Ok(handle) => {
                let deadline = deadline_rel.map(|d| self.rt.now() + d);
                self.by_id.insert(handle.id().0, self.tracked.len());
                self.tracked.push(Tracked {
                    handle,
                    item_idx,
                    deadline,
                    cancel_requested: false,
                    crashes: 0,
                });
            }
            Err(_) => {
                // Typed rejection (QueueFull / OverBudget / Shutdown):
                // the job never entered the service, so the checker owes
                // it nothing.
            }
        }
    }

    fn observe(&mut self, event: StepEvent) {
        match event {
            StepEvent::BackoffStarted { job, until } => {
                self.backoffs += 1;
                if let Some(&idx) = self.by_id.get(&job.0) {
                    if let Some(deadline) = self.tracked[idx].deadline {
                        if until >= deadline {
                            self.fail(format!(
                                "{job} parked in retry backoff until {until:?}, past its \
                                 deadline {deadline:?}: the retry is doomed and the executor \
                                 is head-of-line blocked"
                            ));
                        }
                    }
                }
            }
            StepEvent::Dispatched { .. }
            | StepEvent::Parked { .. }
            | StepEvent::Finished { .. }
            | StepEvent::Idle
            | StepEvent::Exited { .. }
            | StepEvent::Stopped => {}
        }
    }

    fn step_exec(&mut self, exec: usize, fault: Option<(u8, FaultOp)>) {
        if exec >= self.svc.executors() {
            return;
        }
        let target = self.svc.current_job(exec);
        let event = match fault {
            None => self.svc.step(exec, None),
            Some((skip, op)) => {
                let canceller = target
                    .and_then(|id| self.by_id.get(&id.0))
                    .map(|&idx| self.tracked[idx].handle.canceller());
                let plan = Arc::new(FaultPlan {
                    skip: AtomicU32::new(skip as u32),
                    op,
                    canceller,
                    rt: Arc::clone(&self.rt),
                    delivered: AtomicBool::new(false),
                });
                let probe = plan.probe();
                let event = self.svc.step(exec, Some(&probe));
                if plan.delivered.load(Ordering::Relaxed) {
                    if let Some(&idx) = target.and_then(|id| self.by_id.get(&id.0)) {
                        match op {
                            FaultOp::Crash => {
                                self.crashes_delivered += 1;
                                self.tracked[idx].crashes += 1;
                            }
                            FaultOp::Cancel => self.tracked[idx].cancel_requested = true,
                            FaultOp::Jump { .. } => {}
                        }
                    }
                }
                event
            }
        };
        self.observe(event);
    }

    /// Apply one decision and run the per-step checks.
    fn apply(&mut self, d: Decision) {
        self.decisions.push(d);
        self.steps += 1;
        match d {
            Decision::Submit => self.submit_next(),
            Decision::Exec { exec } => self.step_exec(exec as usize, None),
            Decision::ExecFault { exec, skip, op } => {
                self.step_exec(exec as usize, Some((skip, op)))
            }
            Decision::Cancel { nth } => {
                let unresolved = self.unresolved();
                if !unresolved.is_empty() {
                    let idx = unresolved[nth as usize % unresolved.len()];
                    self.tracked[idx].handle.cancel();
                    self.tracked[idx].cancel_requested = true;
                }
            }
            Decision::Advance { ns } => {
                self.rt.advance(Duration::from_nanos(ns));
            }
            Decision::Shutdown { abandon } => {
                if !self.shutdown_sent {
                    self.svc.begin_shutdown(abandon);
                    self.shutdown_sent = true;
                    self.abandon_sent = abandon;
                }
            }
        }
        if let Some(msg) = check_step(&self.svc.metrics(), &self.ground_truth()) {
            self.fail(msg);
        }
    }

    /// One unrecorded drain step (round-robin over executors, advance the
    /// clock to the next wake when stuck, shut down when idle).
    fn drain_step(&mut self) -> bool {
        self.steps += 1;
        let mut progressed = false;
        for exec in 0..self.svc.executors() {
            if self.svc.can_progress(exec) {
                self.step_exec(exec, None);
                progressed = true;
                if self.violation.is_some() {
                    return false;
                }
            }
        }
        if let Some(msg) = check_step(&self.svc.metrics(), &self.ground_truth()) {
            self.fail(msg);
            return false;
        }
        if progressed {
            return true;
        }
        if let Some(wake) = self.svc.next_wake() {
            self.rt.advance_to(wake);
            return true;
        }
        if !self.shutdown_sent {
            self.svc.begin_shutdown(false);
            self.shutdown_sent = true;
            return true;
        }
        !self.svc.all_stopped()
    }

    /// Submit whatever the schedule never got to, then run the service to
    /// full quiescence.
    fn drain(&mut self) {
        while self.next_submit < self.items.len() && self.violation.is_none() {
            self.submit_next();
            if let Some(msg) = check_step(&self.svc.metrics(), &self.ground_truth()) {
                self.fail(msg);
            }
        }
        const DRAIN_LIMIT: usize = 200_000;
        let mut budget = DRAIN_LIMIT;
        while self.violation.is_none() && !self.svc.all_stopped() {
            if budget == 0 {
                self.fail(format!(
                    "service did not quiesce within {DRAIN_LIMIT} drain steps (livelock)"
                ));
                return;
            }
            budget -= 1;
            if !self.drain_step() && self.svc.all_stopped() {
                break;
            }
        }
    }

    fn quiescence_checks(&mut self) {
        if self.violation.is_some() {
            return;
        }
        let m = self.svc.metrics();
        let observed = ObservedEvents {
            backoffs: self.backoffs,
            crashes_delivered: self.crashes_delivered,
        };
        if let Some(msg) = check_quiescence(&m, &self.ground_truth(), &observed) {
            self.fail(msg);
            return;
        }
        for i in 0..self.tracked.len() {
            let t = &self.tracked[i];
            let outcome = TrackedOutcome {
                item: &self.items[t.item_idx],
                outcome: t.handle.peek(),
                had_deadline: t.deadline.is_some(),
                cancel_requested: t.cancel_requested,
                crashes: t.crashes,
            };
            if let Some(msg) = check_job(t.handle.id().0, &outcome) {
                self.fail(msg);
                return;
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        let m = self.svc.metrics();
        for c in Counter::ALL {
            h.write(m.counter(c));
        }
        h.write(self.rt.now().as_nanos() as u64);
        for t in &self.tracked {
            match t.handle.peek() {
                None => h.write(0),
                Some(Ok(success)) => {
                    h.write(1);
                    h.write(success.attempts as u64);
                    for p in &success.trace.procs {
                        for e in &p.events {
                            h.write(e.time.as_ps() as u64);
                        }
                    }
                }
                Some(Err(failure)) => {
                    h.write(2);
                    h.write(failure.attempts as u64);
                    h.write(match failure.error {
                        syncd::JobError::Pipeline(_) => 10,
                        syncd::JobError::Panicked(_) => 11,
                        syncd::JobError::Cancelled => 12,
                        syncd::JobError::DeadlineExceeded => 13,
                        syncd::JobError::Shutdown => 14,
                    });
                }
            }
        }
        h.finish()
    }

    fn report(mut self, seed: u64) -> SimReport {
        self.quiescence_checks();
        let m = self.svc.metrics();
        SimReport {
            seed,
            fingerprint: self.fingerprint(),
            completed: m.counter(Counter::Completed),
            failed: m.counter(Counter::Failed),
            outcomes: self.tracked.iter().map(|t| outcome_kind(&t.handle)).collect(),
            decisions: self.decisions,
            steps: self.steps,
            violation: self.violation,
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Record mode: run `seed` with a PRNG-driven schedule, checking
/// invariants throughout, and return the full report (decision trace
/// included).
pub fn run_random(seed: u64, cfg: &SimConfig) -> SimReport {
    let mut sim = Sim::new(seed, cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ SCHED_STREAM);
    while sim.violation.is_none() && sim.decisions.len() < sim.cfg.max_decisions {
        let pending = sim.next_submit < sim.items.len();
        let mut candidates: Vec<Decision> = Vec::with_capacity(24);
        if pending {
            for _ in 0..3 {
                candidates.push(Decision::Submit);
            }
        }
        for exec in 0..sim.svc.executors() {
            if !sim.svc.can_progress(exec) {
                continue;
            }
            for _ in 0..3 {
                candidates.push(Decision::Exec { exec: exec as u8 });
            }
            if sim.svc.current_job(exec).is_some() {
                let op = match rng.gen_range(0u8..3) {
                    0 => FaultOp::Cancel,
                    1 => FaultOp::Crash,
                    _ => FaultOp::Jump { ns: rng.gen_range(100_000u64..10_000_000) },
                };
                candidates.push(Decision::ExecFault {
                    exec: exec as u8,
                    skip: rng.gen_range(0u8..8),
                    op,
                });
            }
        }
        let unresolved = sim.unresolved();
        if !unresolved.is_empty() {
            candidates.push(Decision::Cancel {
                nth: rng.gen_range(0u16..unresolved.len() as u16),
            });
        }
        candidates.push(Decision::Advance {
            ns: rng.gen_range(1_000u64..2_000_000),
        });
        candidates.push(Decision::Advance {
            ns: rng.gen_range(1_000u64..2_000_000),
        });
        if !sim.shutdown_sent && (!pending || rng.gen_bool(0.02)) {
            candidates.push(Decision::Shutdown {
                abandon: rng.gen_bool(0.5),
            });
        }
        // Finished seeds stop early: everything submitted, resolved, and
        // the service fully stopped.
        if !pending && unresolved.is_empty() && sim.svc.all_stopped() {
            break;
        }
        let d = candidates[rng.gen_range(0usize..candidates.len())];
        sim.apply(d);
    }
    sim.drain();
    sim.report(seed)
}

/// Replay mode: apply a recorded (or truncated) decision list, then let
/// the deterministic drain finish the run. With the full recorded list
/// this reproduces the original run exactly (equal fingerprints).
pub fn replay(seed: u64, cfg: &SimConfig, decisions: &[Decision]) -> SimReport {
    let mut sim = Sim::new(seed, cfg.clone());
    for &d in decisions {
        if sim.violation.is_some() {
            break;
        }
        sim.apply(d);
    }
    sim.drain();
    sim.report(seed)
}
