//! The simulated MPI runtime.
//!
//! [`Cluster`] bundles the machine model (placement, topology, latency,
//! clocks); [`run`] executes a [`Program`] on it with a conservative
//! rank-stepping scheduler:
//!
//! * each rank advances greedily along its script until it blocks on a
//!   receive whose message has not been delivered or on an incomplete
//!   collective;
//! * sends are eager — the sender deposits the message with a sampled
//!   arrival time and moves on; per-channel arrival times are clamped
//!   monotone so MPI's non-overtaking rule holds;
//! * collectives complete via [`crate::collective::schedule_collective`]
//!   once every member has entered.
//!
//! Every MPI semantic is written once: one send path for `Send` and `Isend`
//! (a blocking send is an `Isend` whose request is complete on return), one
//! receive completion for `Recv`, `Wait` and `Waitall` (a blocking receive
//! is post + wait), one `Enter`/`Exit` bracket, and one record site.
//!
//! The tracer mirrors a PMPI interposition layer (paper §III): every MPI
//! call is bracketed by `Enter`/`Exit` events, and each event costs one
//! local clock read whose overhead advances the rank's true time. Recorded
//! timestamps come from the rank's core-local [`simclock::SimClock`] — they
//! are exactly as wrong as the paper says.

use crate::collective::{schedule_collective, CollTuning, PairwiseLatency};
use crate::program::{regions, MpiOp, Program, ReqId};
use netsim::rng::streams;
use netsim::{HierarchicalLatency, Placement, SeedTree, Topology};
use rand::rngs::StdRng;
use simclock::{gaussian, ClockEnsemble, Dur, Locality, Time};
use std::collections::{HashMap, VecDeque};
use tracefmt::{CollOp, CommId, EventKind, Rank, RegionId, Tag, Trace};

/// The simulated machine: placement, network, and clocks.
pub struct Cluster {
    /// Rank → core pinning.
    pub placement: Placement,
    /// Node interconnect.
    pub topology: Topology,
    /// Hierarchical latency model.
    pub latency: HierarchicalLatency,
    /// Per-core clocks.
    pub clocks: ClockEnsemble,
    /// Collective software costs.
    pub coll_tuning: CollTuning,
    net_rng: StdRng,
    seeds: SeedTree,
}

impl Cluster {
    /// Assemble a cluster.
    pub fn new(
        placement: Placement,
        topology: Topology,
        latency: HierarchicalLatency,
        clocks: ClockEnsemble,
        seed: u64,
    ) -> Self {
        let seeds = SeedTree::new(seed);
        Cluster {
            placement,
            topology,
            latency,
            clocks,
            coll_tuning: CollTuning::default(),
            net_rng: seeds.rng(streams::NETWORK),
            seeds,
        }
    }

    /// Number of placed ranks.
    pub fn n_ranks(&self) -> usize {
        self.placement.n_ranks()
    }

    /// Hierarchy relation of two ranks.
    pub fn locality(&self, a: Rank, b: Rank) -> Locality {
        self.placement.locality(a.idx(), b.idx())
    }

    /// Network hops between the nodes of two ranks.
    pub fn hops(&self, a: Rank, b: Rank) -> u32 {
        self.topology
            .hops(self.placement.node_of(a.idx()), self.placement.node_of(b.idx()))
    }

    /// Sample one transfer delay between two ranks, departing at true time
    /// `at` (selects the instantaneous background network load, if any).
    /// Congestion is directional: the lower-rank → higher-rank direction of
    /// each pair carries the full queueing delay, the reverse only its
    /// `asymmetry` fraction.
    pub fn sample_transfer(&mut self, from: Rank, to: Rank, bytes: u64, at: Time) -> Dur {
        let loc = self.locality(from, to);
        let hops = self.hops(from, to);
        let mut d = self.latency.sample(&mut self.net_rng, loc, hops, bytes, at);
        if loc == Locality::InterNode {
            if let Some(w) = self.latency.load {
                d += w.congestion_at(at, from < to);
            }
        }
        d
    }

    /// The user-visible minimum latency between two ranks — send overhead
    /// plus minimum transfer. This is the `l_min` of the clock condition.
    pub fn l_min(&self, from: Rank, to: Rank, bytes: u64) -> Dur {
        self.latency.send_overhead + self.latency.l_min(self.locality(from, to), bytes)
    }

    /// A closure implementing [`tracefmt::MinLatency`] for zero-byte
    /// messages, usable by the violation checkers after the run.
    pub fn l_min_model(&self) -> impl Fn(Rank, Rank) -> Dur + '_ {
        move |a, b| self.l_min(a, b, 0)
    }

    /// The seed tree of this cluster (for derived RNG streams).
    pub fn seeds(&self) -> SeedTree {
        self.seeds
    }
}

impl PairwiseLatency for Cluster {
    fn sample_latency(&mut self, from: Rank, to: Rank, bytes: u64, at: Time) -> Dur {
        self.sample_transfer(from, to, bytes, at)
    }
}

/// Options controlling a run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Bracket each MPI call with `Enter`/`Exit` wrapper events, as PMPI
    /// tracers do.
    pub wrap_mpi_calls: bool,
    /// True time at which all ranks start.
    pub start_time: Time,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { wrap_mpi_calls: true, start_time: Time::ZERO }
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// True time when the last rank finished.
    pub end_time: Time,
    /// Point-to-point messages transferred.
    pub messages: usize,
    /// Collective instances completed.
    pub collectives: usize,
    /// Events recorded in the trace.
    pub events: usize,
}

/// A finished run: the recorded trace plus statistics.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The event trace with local-clock timestamps.
    pub trace: Trace,
    /// Each event's true (simulator) time, indexed like `trace`: what the
    /// tracer's clock read is compared with. A tracer cannot know it, so
    /// it never enters a codec.
    pub truth: Vec<Vec<Time>>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Errors the scheduler can detect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No rank can make progress but not all are finished.
    Deadlock {
        /// Ranks stuck waiting, with their program counters.
        stuck: Vec<(u32, usize)>,
    },
    /// Program references a rank outside the placement.
    BadRank(Rank),
    /// Mismatched collective ops on one communicator instance.
    CollectiveMismatch(String),
    /// A wait referenced an unknown or already-completed request.
    BadRequest(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { stuck } => write!(f, "deadlock; stuck ranks: {stuck:?}"),
            SimError::BadRank(r) => write!(f, "rank {r} not placed"),
            SimError::CollectiveMismatch(s) => write!(f, "collective mismatch: {s}"),
            SimError::BadRequest(s) => write!(f, "bad request: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    No,
    /// In a `Recv`, `Wait` or `Waitall` whose message is still in flight;
    /// the op runs again on the next visit.
    Msg,
    /// In collective instance `.0` (an index into `Sim::collectives`) until
    /// it completes.
    Coll(usize),
    Done,
}

/// A posted non-blocking request.
#[derive(Debug, Clone, Copy)]
enum PendingReq {
    /// Eager send: already complete.
    SendDone,
    /// Posted receive: channel plus its slot in the channel's posting order.
    Recv { key: ChannelKey, slot: usize },
}

struct RankState {
    pc: usize,
    now: Time,
    blocked: Blocked,
    /// Wrapper Enter already recorded for the current (possibly blocking)
    /// call.
    entered_call: bool,
    tracing: bool,
    /// Monotone clamp for this rank's timestamp stream.
    last_ts: Time,
    /// Slot claimed by an in-progress blocking receive.
    active_slot: Option<usize>,
    /// Outstanding non-blocking requests.
    reqs: HashMap<ReqId, PendingReq>,
    /// Posting order of outstanding requests (for Waitall).
    req_order: Vec<ReqId>,
    /// Progress cursor into `req_order` during a Waitall.
    waitall_idx: usize,
    /// Collective calls issued so far: the instance number of the next.
    colls: usize,
    /// The `ComputeJitter` stream.
    rng: StdRng,
}

/// One collective instance on `CommId::WORLD`, as its first member entered
/// it.
struct CollState {
    op: CollOp,
    root: Option<Rank>,
    bytes: u64,
    /// Begin true-time per rank; None until entered.
    begun: Vec<Option<Time>>,
    /// Completion times, computed when the last member enters.
    ends: Option<Vec<Time>>,
}

type ChannelKey = (u32, u32, u32); // from, to, tag

/// Assign delivered messages to receive-posting slots in order; returns the
/// arrival time for `slot` once enough messages have been delivered.
fn claim(
    mailboxes: &mut HashMap<ChannelKey, VecDeque<Time>>,
    claimed: &mut HashMap<ChannelKey, Vec<Time>>,
    key: ChannelKey,
    slot: usize,
) -> Option<Time> {
    let c = claimed.entry(key).or_default();
    while c.len() <= slot {
        match mailboxes.get_mut(&key).and_then(|q| q.pop_front()) {
            Some(t) => c.push(t),
            None => return None,
        }
    }
    Some(c[slot])
}

/// Everything a run changes: the ranks, the trace, the channels and the
/// collective instances.
struct Sim<'c> {
    cluster: &'c mut Cluster,
    wrap: bool,
    states: Vec<RankState>,
    trace: Trace,
    truth: Vec<Vec<Time>>,
    mailboxes: HashMap<ChannelKey, VecDeque<Time>>,
    channel_clamp: HashMap<ChannelKey, Time>,
    // Receive matching: MPI pairs messages with receives in *posting*
    // order per channel. `posted` counts posted receives; `claimed` maps
    // posting slots to delivered arrival times.
    posted: HashMap<ChannelKey, usize>,
    claimed: HashMap<ChannelKey, Vec<Time>>,
    collectives: Vec<CollState>,
    messages: usize,
}

/// Execute `program` on `cluster`.
pub fn run(cluster: &mut Cluster, program: &Program, opts: &RunOptions) -> Result<RunOutput, SimError> {
    let n = program.n_ranks();
    if n > cluster.n_ranks() {
        return Err(SimError::BadRank(Rank(cluster.n_ranks() as u32)));
    }
    let states = (0..n as u64)
        .map(|r| RankState {
            pc: 0,
            now: opts.start_time,
            blocked: Blocked::No,
            entered_call: false,
            tracing: true,
            last_ts: Time::MIN,
            active_slot: None,
            reqs: HashMap::new(),
            req_order: Vec::new(),
            waitall_idx: 0,
            colls: 0,
            rng: cluster.seeds().child(streams::WORKLOAD).rng(r),
        })
        .collect();
    let mut sim = Sim {
        cluster,
        wrap: opts.wrap_mpi_calls,
        states,
        trace: Trace::for_ranks(n),
        truth: vec![Vec::new(); n],
        mailboxes: HashMap::new(),
        channel_clamp: HashMap::new(),
        posted: HashMap::new(),
        claimed: HashMap::new(),
        collectives: Vec::new(),
        messages: 0,
    };

    loop {
        let mut progressed = false;
        for rank in 0..n {
            loop {
                match sim.states[rank].blocked {
                    Blocked::Done => break,
                    Blocked::Coll(ci) => {
                        if !sim.leave_coll(rank, ci) {
                            break;
                        }
                        progressed = true;
                        continue;
                    }
                    // Re-run the blocked op; its Enter is already recorded.
                    Blocked::Msg => sim.states[rank].blocked = Blocked::No,
                    Blocked::No => {}
                }
                let Some(op) = program.ranks[rank].ops.get(sim.states[rank].pc) else {
                    sim.states[rank].blocked = Blocked::Done;
                    progressed = true;
                    break;
                };
                sim.step(rank, op)?;
                match sim.states[rank].blocked {
                    Blocked::No => progressed = true,
                    // Entering a collective is progress; its CollEnd is
                    // recorded on resume.
                    Blocked::Coll(_) => {
                        progressed = true;
                        break;
                    }
                    _ => break,
                }
            }
        }
        if sim.states.iter().all(|s| s.blocked == Blocked::Done) {
            break;
        }
        if !progressed {
            let stuck = sim
                .states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.blocked != Blocked::Done)
                .map(|(r, s)| (r as u32, s.pc))
                .collect();
            return Err(SimError::Deadlock { stuck });
        }
    }

    let end_time = sim.states.iter().map(|s| s.now).max().unwrap_or(opts.start_time);
    let events = sim.trace.n_events();
    Ok(RunOutput {
        trace: sim.trace,
        truth: sim.truth,
        stats: RunStats {
            end_time,
            messages: sim.messages,
            collectives: sim.collectives.len(),
            events,
        },
    })
}

impl Sim<'_> {
    /// Run `op` at `rank`'s program counter. The pc advances unless the op
    /// left the rank blocked.
    fn step(&mut self, rank: usize, op: &MpiOp) -> Result<(), SimError> {
        let n = self.states.len();
        let placed = |r: Rank| if r.idx() < n { Ok(()) } else { Err(SimError::BadRank(r)) };
        let st = &mut self.states[rank];
        match *op {
            MpiOp::Compute { dur } => st.now += dur,
            MpiOp::ComputeJitter { mean, cv } => {
                let factor = (1.0 + cv * gaussian(&mut st.rng)).max(0.05);
                st.now += mean.scale(factor);
            }
            MpiOp::TraceOn => st.tracing = true,
            MpiOp::TraceOff => st.tracing = false,
            MpiOp::Enter { region } => self.record(rank, EventKind::Enter { region }),
            MpiOp::Exit { region } => self.record(rank, EventKind::Exit { region }),
            MpiOp::Send { to, tag, bytes } => {
                placed(to)?;
                self.call(rank, regions::MPI_SEND, |sim| sim.send(rank, to, tag, bytes));
            }
            MpiOp::Isend { to, tag, bytes, req } => {
                placed(to)?;
                self.call(rank, regions::MPI_ISEND, |sim| sim.send(rank, to, tag, bytes));
                self.add_request(rank, req, PendingReq::SendDone)?;
            }
            MpiOp::Recv { from, tag } => {
                placed(from)?;
                // A blocking receive is post + wait: post once, then wait
                // for the slot's delivery.
                let key = (from.0, rank as u32, tag.0);
                self.call(rank, regions::MPI_RECV, |sim| {
                    let slot = sim.states[rank].active_slot.unwrap_or_else(|| sim.post_recv(key));
                    let done = sim.complete(rank, PendingReq::Recv { key, slot });
                    sim.states[rank].active_slot = (!done).then_some(slot);
                    done
                });
            }
            MpiOp::Irecv { from, tag, req } => {
                placed(from)?;
                let key = (from.0, rank as u32, tag.0);
                self.call(rank, regions::MPI_IRECV, |_| true);
                let slot = self.post_recv(key);
                self.add_request(rank, req, PendingReq::Recv { key, slot })?;
            }
            MpiOp::Wait { req } => {
                let Some(&pending) = self.states[rank].reqs.get(&req) else {
                    return Err(SimError::BadRequest(format!(
                        "rank {rank}: wait on unknown request {req:?}"
                    )));
                };
                self.call(rank, regions::MPI_WAIT, |sim| {
                    let done = sim.complete(rank, pending);
                    if done {
                        sim.states[rank].reqs.remove(&req);
                    }
                    done
                });
            }
            MpiOp::Waitall => self.call(rank, regions::MPI_WAIT, |sim| {
                // Posting order; a request an explicit Wait completed is
                // no longer in `reqs` and is skipped.
                loop {
                    let st = &sim.states[rank];
                    let Some(&req) = st.req_order.get(st.waitall_idx) else { break };
                    if let Some(&pending) = st.reqs.get(&req) {
                        if !sim.complete(rank, pending) {
                            return false;
                        }
                    }
                    let st = &mut sim.states[rank];
                    st.reqs.remove(&req);
                    st.waitall_idx += 1;
                }
                let st = &mut sim.states[rank];
                st.req_order.clear();
                st.waitall_idx = 0;
                true
            }),
            MpiOp::Coll { op, comm, root, bytes } => {
                if comm != CommId::WORLD {
                    return Err(SimError::CollectiveMismatch(format!("unknown {comm}")));
                }
                let ci = self.states[rank].colls;
                let first = self.collectives.get(ci);
                if let Some(cs) = first.filter(|cs| (cs.op, cs.root) != (op, root)) {
                    let msg = format!("instance {ci} on {comm}: {:?} vs {op:?}", cs.op);
                    return Err(SimError::CollectiveMismatch(msg));
                }
                self.call(rank, regions::coll_region(op), |sim| {
                    sim.enter_coll(rank, op, root, bytes);
                    false
                });
            }
        }
        if self.states[rank].blocked == Blocked::No {
            self.states[rank].pc += 1;
        }
        Ok(())
    }

    /// The one record site: one local clock read on `rank`'s core, whose
    /// overhead advances its true time; the timestamp stream is clamped
    /// monotone, and the true time of the read is kept beside it. Nothing
    /// is recorded while the rank's tracing is off.
    fn record(&mut self, rank: usize, kind: EventKind) {
        let st = &mut self.states[rank];
        if !st.tracing {
            return;
        }
        let core = self.cluster.placement.core_of(rank);
        st.now += self.cluster.clocks.read_overhead(core);
        let ts = self.cluster.clocks.sample(core, st.now).max(st.last_ts);
        st.last_ts = ts;
        self.trace.procs[rank].push(ts, kind);
        self.truth[rank].push(st.now);
    }

    /// One MPI call as a PMPI wrapper sees it: `Enter(region)`, the body,
    /// `Exit(region)`. A body that returns false left the rank blocked; the
    /// call then runs again on a later visit and records its Enter once.
    fn call(&mut self, rank: usize, region: RegionId, body: impl FnOnce(&mut Self) -> bool) {
        if self.wrap && !self.states[rank].entered_call {
            self.record(rank, EventKind::Enter { region });
        }
        self.states[rank].entered_call = true;
        if body(self) {
            self.exit(rank, region);
        }
    }

    /// Leave the current call: `Exit(region)` and the Enter latch reset.
    fn exit(&mut self, rank: usize, region: RegionId) {
        if self.wrap {
            self.record(rank, EventKind::Exit { region });
        }
        self.states[rank].entered_call = false;
    }

    /// The one send path, `Send` and `Isend` alike (sends are eager):
    /// record the Send, sample the transfer, clamp the channel's arrivals
    /// monotone and deposit the message. Always completes.
    fn send(&mut self, rank: usize, to: Rank, tag: Tag, bytes: u64) -> bool {
        self.record(rank, EventKind::Send { to, tag, bytes });
        let now = self.states[rank].now;
        let transfer = self.cluster.sample_transfer(Rank(rank as u32), to, bytes, now);
        let depart = now + self.cluster.latency.send_overhead;
        let key: ChannelKey = (rank as u32, to.0, tag.0);
        // MPI non-overtaking: a later message on the same channel never
        // arrives before an earlier one.
        let clamp = self.channel_clamp.entry(key).or_insert(Time::MIN);
        *clamp = (depart + transfer).max(*clamp);
        self.mailboxes.entry(key).or_default().push_back(*clamp);
        self.messages += 1;
        self.states[rank].now = depart;
        true
    }

    /// Post a receive on `key`; returns its slot in the channel's posting
    /// order.
    fn post_recv(&mut self, key: ChannelKey) -> usize {
        let posted = self.posted.entry(key).or_insert(0);
        *posted += 1;
        *posted - 1
    }

    /// The one completion, for `Recv`, `Wait` and `Waitall`. A send is
    /// complete already; a receive claims the message delivered to its
    /// posting slot, advances past its arrival and records the Recv. False,
    /// with the rank blocked, while the message is in flight.
    fn complete(&mut self, rank: usize, pending: PendingReq) -> bool {
        let PendingReq::Recv { key, slot } = pending else {
            return true;
        };
        let Some(arrival) = claim(&mut self.mailboxes, &mut self.claimed, key, slot) else {
            self.states[rank].blocked = Blocked::Msg;
            return false;
        };
        let st = &mut self.states[rank];
        st.now = st.now.max(arrival) + self.cluster.latency.send_overhead;
        // The Recv DSL op carries no byte count; matching recovers sizes
        // from the send side.
        self.record(rank, EventKind::Recv { from: Rank(key.0), tag: Tag(key.2), bytes: 0 });
        true
    }

    /// Register a non-blocking request under a rank-local id not in use.
    fn add_request(
        &mut self,
        rank: usize,
        req: ReqId,
        pending: PendingReq,
    ) -> Result<(), SimError> {
        let st = &mut self.states[rank];
        if st.reqs.insert(req, pending).is_some() {
            let msg = format!("rank {rank}: request {req:?} already in use");
            return Err(SimError::BadRequest(msg));
        }
        st.req_order.push(req);
        Ok(())
    }

    /// Enter a collective: record its begin and park the rank in its
    /// instance; the last member to enter schedules every member's end.
    fn enter_coll(&mut self, rank: usize, op: CollOp, root: Option<Rank>, bytes: u64) {
        self.record(rank, EventKind::CollBegin { op, comm: CommId::WORLD, root, bytes });
        let n = self.states.len();
        let st = &mut self.states[rank];
        let ci = st.colls;
        st.colls += 1;
        st.blocked = Blocked::Coll(ci);
        // Every rank issues instances in order, so instance `ci` is created
        // by its first member, right after instance `ci - 1`.
        if ci == self.collectives.len() {
            let begun = vec![None; n];
            self.collectives.push(CollState { op, root, bytes, begun, ends: None });
        }
        let cs = &mut self.collectives[ci];
        cs.begun[rank] = Some(st.now);
        if cs.begun.iter().all(Option::is_some) {
            let begins: Vec<(Rank, Time)> =
                cs.begun.iter().enumerate().map(|(r, b)| (Rank(r as u32), b.unwrap())).collect();
            let tuning = self.cluster.coll_tuning;
            cs.ends = Some(schedule_collective(op, &begins, root, self.cluster, &tuning, cs.bytes));
        }
    }

    /// Resume a rank parked in collective `ci` once the instance completed:
    /// record its end and leave the call. False while it is incomplete.
    fn leave_coll(&mut self, rank: usize, ci: usize) -> bool {
        let cs = &self.collectives[ci];
        let Some(ends) = &cs.ends else {
            return false;
        };
        self.states[rank].now = ends[rank];
        let (op, root, bytes) = (cs.op, cs.root, cs.bytes);
        self.record(rank, EventKind::CollEnd { op, comm: CommId::WORLD, root, bytes });
        self.exit(rank, regions::coll_region(op));
        let st = &mut self.states[rank];
        st.blocked = Blocked::No;
        st.pc += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, RankProgram, ReqId};
    use simclock::{ClockDomain, ClockProfile, MachineShape, TimerKind};
    use tracefmt::{match_collectives, match_messages, Tag, UniformLatency};

    fn ideal_cluster(nodes: usize, ranks: usize) -> Cluster {
        let shape = MachineShape::new(nodes, 2, 4);
        let profile = ClockProfile::bare(TimerKind::IntelTsc);
        let clocks = ClockEnsemble::build(shape, ClockDomain::Global, &profile, 1);
        Cluster::new(
            netsim::Placement::round_robin(shape, ranks),
            Topology::Crossbar,
            HierarchicalLatency::xeon_infiniband(),
            clocks,
            7,
        )
    }

    #[test]
    fn ping_pong_produces_consistent_trace() {
        let mut cluster = ideal_cluster(2, 2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new()
                    .send(Rank(1), Tag(0), 8)
                    .recv(Rank(1), Tag(1))
            } else {
                RankProgram::new()
                    .recv(Rank(0), Tag(0))
                    .send(Rank(0), Tag(1), 8)
            }
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        assert_eq!(out.stats.messages, 2);
        let m = match_messages(&out.trace);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 2);
        // With a global ideal clock there can be no violations.
        let report = tracefmt::check_p2p(&out.trace, &m, &UniformLatency(Dur::from_us(4)));
        assert!(report.violations.is_empty());
        // Wrapper events present: Enter(MPI_Send) Send Exit + Enter(MPI_Recv) Recv Exit.
        assert_eq!(out.trace.procs[0].len(), 6);
    }

    #[test]
    fn recv_before_send_blocks_and_completes() {
        // Rank 1 posts its recv long before rank 0 sends.
        let mut cluster = ideal_cluster(2, 2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new()
                    .compute(Dur::from_ms(5))
                    .send(Rank(1), Tag(0), 8)
            } else {
                RankProgram::new().recv(Rank(0), Tag(0))
            }
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        let m = match_messages(&out.trace);
        assert!(m.is_complete());
        // Receive completes after the send plus transfer.
        let send_t = out.trace.time(m.messages[0].send);
        let recv_t = out.trace.time(m.messages[0].recv);
        assert!(recv_t - send_t >= Dur::from_us(4));
        assert!(recv_t >= Time::from_ms(5));
    }

    #[test]
    fn deadlock_is_detected() {
        let mut cluster = ideal_cluster(2, 2);
        // Both ranks receive first: classic deadlock.
        let prog = Program::build(2, |r| {
            RankProgram::new()
                .recv(Rank(1 - r.0), Tag(0))
                .send(Rank(1 - r.0), Tag(0), 8)
        });
        let err = run(&mut cluster, &prog, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn collective_trace_is_well_formed() {
        let mut cluster = ideal_cluster(4, 4);
        let prog = Program::build(4, |_| {
            RankProgram::new()
                .compute(Dur::from_us(50))
                .barrier(CommId::WORLD)
                .allreduce(CommId::WORLD, 8)
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        assert_eq!(out.stats.collectives, 2);
        let insts = match_collectives(&out.trace).unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].op, CollOp::Barrier);
        assert_eq!(insts[1].op, CollOp::Allreduce);
        // With ideal clocks, no collective violations either.
        let r = tracefmt::check_collectives(
            &out.trace,
            &insts,
            &UniformLatency(Dur::from_ns(100)),
        );
        assert_eq!(r.logical_violated, 0);
    }

    #[test]
    fn barrier_synchronises_stragglers() {
        let mut cluster = ideal_cluster(4, 4);
        let prog = Program::build(4, |r| {
            RankProgram::new()
                .compute(Dur::from_ms(r.0 as i64 * 10))
                .barrier(CommId::WORLD)
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        let insts = match_collectives(&out.trace).unwrap();
        // All ends after the last begin (rank 3 at 30 ms).
        for m in &insts[0].members {
            assert!(out.trace.time(m.end) >= Time::from_ms(30));
        }
    }

    #[test]
    fn non_overtaking_holds_under_jitter() {
        // Transfer jitter (1 µs) far above the send spacing (0.1 µs), so
        // unclamped arrivals would reorder. The receiver posts every
        // receive, then waits for them last-first: non-overtaking means the
        // last message arrives last, so once its wait returns every other
        // wait completes at once, and the Recv events are evenly spaced.
        let mut cluster = ideal_cluster(2, 2);
        cluster.latency.inter_node.jitter_sigma = Dur::from_us(1);
        let n_msgs = 200;
        let prog = Program::build(2, |r| {
            let mut p = RankProgram::new();
            for i in 0..n_msgs {
                p = match r.0 {
                    0 => p.send(Rank(1), Tag(0), 8),
                    _ => p.irecv(Rank(0), Tag(0), ReqId(i)),
                };
            }
            if r.0 == 1 {
                for i in (0..n_msgs).rev() {
                    p = p.wait(ReqId(i));
                }
            }
            p
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        assert!(match_messages(&out.trace).is_complete());
        let recvs: Vec<Time> = out.trace.procs[1]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Recv { .. }))
            .map(|e| e.time)
            .collect();
        assert_eq!(recvs.len(), n_msgs as usize);
        let gaps: Vec<Dur> = recvs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g == gaps[0]), "a later message arrived first: {gaps:?}");
    }

    #[test]
    fn trace_off_suppresses_events() {
        let mut cluster = ideal_cluster(2, 2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new()
                    .trace_off()
                    .send(Rank(1), Tag(0), 8)
                    .trace_on()
                    .send(Rank(1), Tag(1), 8)
            } else {
                RankProgram::new()
                    .recv(Rank(0), Tag(0))
                    .recv(Rank(0), Tag(1))
            }
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        // Rank 0 recorded only the second send (3 events with wrappers).
        assert_eq!(out.trace.procs[0].len(), 3);
        // Rank 1 recorded both receives.
        assert_eq!(out.trace.procs[1].len(), 6);
    }

    #[test]
    fn local_timestamps_are_monotone_even_with_drifting_clocks() {
        let shape = MachineShape::new(2, 2, 4);
        let profile = ClockProfile::bare(TimerKind::Gettimeofday)
            .with_node_spread(1e-3, 5e-6)
            .with_noise(simclock::NoiseSpec {
                resolution: Dur::from_us(1),
                base_sigma: Dur::from_ns(200),
                spike_prob: 1e-2,
                spike_mean: Dur::from_us(3),
                read_overhead: Dur::from_ns(60),
            })
            .with_horizon(10.0);
        let clocks = ClockEnsemble::build(shape, ClockDomain::PerChip, &profile, 3);
        let mut cluster = Cluster::new(
            netsim::Placement::packed(shape, 8),
            Topology::Crossbar,
            HierarchicalLatency::xeon_infiniband(),
            clocks,
            9,
        );
        let prog = Program::build(8, |r| {
            let next = Rank((r.0 + 1) % 8);
            let prev = Rank((r.0 + 7) % 8);
            let mut p = RankProgram::new();
            for i in 0..50 {
                p = p
                    .compute(Dur::from_us(20))
                    .send(next, Tag(i), 64)
                    .recv(prev, Tag(i));
            }
            p
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        assert!(out.trace.is_locally_monotone());
        assert_eq!(out.stats.messages, 400);
    }

    #[test]
    fn truth_has_one_nondecreasing_entry_per_event() {
        let mut cluster = ideal_cluster(2, 4);
        let prog = Program::build(4, |r| {
            let next = Rank((r.0 + 1) % 4);
            let prev = Rank((r.0 + 3) % 4);
            let mut p = RankProgram::new().trace_off().send(next, Tag(99), 8).recv(prev, Tag(99));
            p = p.trace_on();
            for i in 0..20 {
                p = p
                    .compute_jitter(Dur::from_us(10), 0.5)
                    .send(next, Tag(i), 64)
                    .recv(prev, Tag(i))
                    .allreduce(CommId::WORLD, 8);
            }
            p
        });
        let start_time = Time::from_ms(3);
        let out = run(&mut cluster, &prog, &RunOptions { start_time, ..RunOptions::default() })
            .unwrap();
        assert_eq!(out.truth.len(), out.trace.n_procs());
        for (times, proc) in out.truth.iter().zip(&out.trace.procs) {
            assert_eq!(times.len(), proc.len());
            assert!(times.first().is_some_and(|&t| t > start_time));
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times.last().is_some_and(|&t| t <= out.stats.end_time));
        }
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::program::{Program, RankProgram, ReqId};
    use simclock::{ClockDomain, ClockProfile, MachineShape, TimerKind};
    use tracefmt::{match_messages, Tag};

    fn ideal_cluster(ranks: usize) -> Cluster {
        let shape = MachineShape::new(ranks, 1, 2);
        let clocks = ClockEnsemble::build(
            shape,
            ClockDomain::Global,
            &ClockProfile::bare(TimerKind::IntelTsc),
            0,
        );
        Cluster::new(
            netsim::Placement::one_per_node(shape, ranks),
            Topology::Crossbar,
            HierarchicalLatency::xeon_infiniband(),
            clocks,
            5,
        )
    }

    #[test]
    fn isend_wait_matches_blocking_recv() {
        let mut cluster = ideal_cluster(2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new()
                    .isend(Rank(1), Tag(0), 64, ReqId(1))
                    .compute(simclock::Dur::from_us(100))
                    .wait(ReqId(1))
            } else {
                RankProgram::new().recv(Rank(0), Tag(0))
            }
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        let m = match_messages(&out.trace);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 1);
    }

    #[test]
    fn irecv_overlaps_compute() {
        // Receiver posts early, computes, waits: completion time must not
        // include the transfer (overlap), unlike post-compute-blocking-recv.
        let mut cluster = ideal_cluster(2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new().send(Rank(1), Tag(0), 0)
            } else {
                RankProgram::new()
                    .irecv(Rank(0), Tag(0), ReqId(7))
                    .compute(simclock::Dur::from_ms(1))
                    .wait(ReqId(7))
            }
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        // Recv event exists and run ends just after the 1 ms compute.
        let m = match_messages(&out.trace);
        assert_eq!(m.messages.len(), 1);
        assert!(out.stats.end_time < Time::from_us(1100));
    }

    #[test]
    fn posting_order_matching_with_mixed_waits() {
        // Two messages on one channel; requests waited out of order must
        // still match in posting order (MPI non-overtaking).
        let mut cluster = ideal_cluster(2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new()
                    .send(Rank(1), Tag(3), 1)
                    .send(Rank(1), Tag(3), 2)
            } else {
                RankProgram::new()
                    .irecv(Rank(0), Tag(3), ReqId(1))
                    .irecv(Rank(0), Tag(3), ReqId(2))
                    .wait(ReqId(2))
                    .wait(ReqId(1))
            }
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        let m = match_messages(&out.trace);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 2);
        // Matching follows program order of recvs: the first *recorded*
        // recv belongs to the wait(ReqId(2)) — slot 1 — so its payload is
        // the second message. The checker sees sizes from the send side.
        assert_eq!(m.messages[0].bytes, 1);
        assert_eq!(m.messages[1].bytes, 2);
    }

    #[test]
    fn waitall_completes_everything() {
        let mut cluster = ideal_cluster(3);
        let prog = Program::build(3, |r| {
            let next = Rank((r.0 + 1) % 3);
            let prev = Rank((r.0 + 2) % 3);
            let mut p = RankProgram::new();
            for i in 0..5u32 {
                p = p
                    .irecv(prev, Tag(i), ReqId(100 + i))
                    .isend(next, Tag(i), 32, ReqId(i));
            }
            p.waitall()
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        let m = match_messages(&out.trace);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 15);
    }

    #[test]
    fn duplicate_request_id_is_an_error() {
        let mut cluster = ideal_cluster(2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new()
                    .isend(Rank(1), Tag(0), 0, ReqId(1))
                    .isend(Rank(1), Tag(1), 0, ReqId(1))
                    .waitall()
            } else {
                RankProgram::new().recv(Rank(0), Tag(0)).recv(Rank(0), Tag(1))
            }
        });
        let err = run(&mut cluster, &prog, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::BadRequest(_)));
    }

    #[test]
    fn wait_on_unknown_request_is_an_error() {
        let mut cluster = ideal_cluster(1);
        let prog = Program::build(1, |_| RankProgram::new().wait(ReqId(9)));
        let err = run(&mut cluster, &prog, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::BadRequest(_)));
    }

    #[test]
    fn deadlock_free_exchange_with_nonblocking() {
        // Symmetric simultaneous exchange that would deadlock with
        // blocking receives first: irecv + isend + waitall sails through.
        let mut cluster = ideal_cluster(2);
        let prog = Program::build(2, |r| {
            let peer = Rank(1 - r.0);
            RankProgram::new()
                .irecv(peer, Tag(0), ReqId(0))
                .isend(peer, Tag(0), 128, ReqId(1))
                .waitall()
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        let m = match_messages(&out.trace);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 2);
    }
}

#[cfg(test)]
mod sendrecv_tests {
    use super::*;
    use crate::program::{Program, RankProgram};
    use simclock::{ClockDomain, ClockProfile, MachineShape, TimerKind};
    use tracefmt::{match_messages, Tag};

    #[test]
    fn symmetric_sendrecv_ring_does_not_deadlock() {
        let shape = MachineShape::new(4, 1, 1);
        let clocks = ClockEnsemble::build(
            shape,
            ClockDomain::Global,
            &ClockProfile::bare(TimerKind::IntelTsc),
            0,
        );
        let mut cluster = Cluster::new(
            netsim::Placement::one_per_node(shape, 4),
            Topology::Crossbar,
            HierarchicalLatency::xeon_infiniband(),
            clocks,
            1,
        );
        let prog = Program::build(4, |r| {
            let next = Rank((r.0 + 1) % 4);
            let prev = Rank((r.0 + 3) % 4);
            let mut p = RankProgram::new();
            for i in 0..10u32 {
                p = p.sendrecv(next, Tag(i), 128, prev, Tag(i));
            }
            p
        });
        let out = run(&mut cluster, &prog, &RunOptions::default()).unwrap();
        let m = match_messages(&out.trace);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 40);
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use crate::program::{Program, RankProgram};
    use simclock::{ClockDomain, ClockProfile, MachineShape, TimerKind};
    use tracefmt::Tag;

    fn tiny_cluster(ranks: usize) -> Cluster {
        let shape = MachineShape::new(ranks, 1, 1);
        let clocks = ClockEnsemble::build(
            shape,
            ClockDomain::Global,
            &ClockProfile::bare(TimerKind::IntelTsc),
            0,
        );
        Cluster::new(
            netsim::Placement::one_per_node(shape, ranks),
            Topology::Crossbar,
            HierarchicalLatency::xeon_infiniband(),
            clocks,
            2,
        )
    }

    #[test]
    fn send_to_unknown_rank_is_an_error() {
        let mut c = tiny_cluster(2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new().send(Rank(7), Tag(0), 8)
            } else {
                RankProgram::new()
            }
        });
        assert!(matches!(
            run(&mut c, &prog, &RunOptions::default()),
            Err(SimError::BadRank(Rank(7)))
        ));
    }

    #[test]
    fn program_larger_than_cluster_is_an_error() {
        let mut c = tiny_cluster(2);
        let prog = Program::new(5);
        assert!(matches!(
            run(&mut c, &prog, &RunOptions::default()),
            Err(SimError::BadRank(_))
        ));
    }

    #[test]
    fn mismatched_collective_ops_are_an_error() {
        let mut c = tiny_cluster(2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new().barrier(CommId::WORLD)
            } else {
                RankProgram::new().allreduce(CommId::WORLD, 8)
            }
        });
        assert!(matches!(
            run(&mut c, &prog, &RunOptions::default()),
            Err(SimError::CollectiveMismatch(_))
        ));
    }

    #[test]
    fn unknown_communicator_is_an_error() {
        let mut c = tiny_cluster(2);
        let prog = Program::build(2, |_| RankProgram::new().barrier(CommId(9)));
        assert!(matches!(
            run(&mut c, &prog, &RunOptions::default()),
            Err(SimError::CollectiveMismatch(_))
        ));
    }

    #[test]
    fn unwrapped_calls_shrink_the_trace() {
        let mut c = tiny_cluster(2);
        let prog = Program::build(2, |r| {
            if r.0 == 0 {
                RankProgram::new().send(Rank(1), Tag(0), 8)
            } else {
                RankProgram::new().recv(Rank(0), Tag(0))
            }
        });
        let opts = RunOptions {
            wrap_mpi_calls: false,
            ..RunOptions::default()
        };
        let out = run(&mut c, &prog, &opts).unwrap();
        // Just Send + Recv, no Enter/Exit wrappers.
        assert_eq!(out.trace.n_events(), 2);
    }

    #[test]
    fn empty_programs_finish_immediately() {
        let mut c = tiny_cluster(3);
        let out = run(&mut c, &Program::new(3), &RunOptions::default()).unwrap();
        assert_eq!(out.stats.events, 0);
        assert_eq!(out.stats.messages, 0);
        assert_eq!(out.stats.end_time, Time::ZERO);
    }

    #[test]
    fn start_time_offsets_the_whole_run() {
        let mut c = tiny_cluster(1);
        let prog = Program::build(1, |_| {
            RankProgram::new().compute(simclock::Dur::from_us(50))
        });
        let opts = RunOptions {
            start_time: Time::from_secs(5),
            ..RunOptions::default()
        };
        let out = run(&mut c, &prog, &opts).unwrap();
        assert_eq!(out.stats.end_time, Time::from_secs(5) + simclock::Dur::from_us(50));
    }
}
