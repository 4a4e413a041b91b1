//! The simulated-program DSL.
//!
//! A [`Program`] is one [`RankProgram`] (a linear script of [`MpiOp`]s) per
//! rank. Workload generators build these scripts; the [`crate::runtime`]
//! executes them against the simulated cluster while the tracer records
//! events with local-clock timestamps — exactly the structure of a PMPI-
//! instrumented application run.

use simclock::Dur;
use tracefmt::{CollOp, CommId, Rank, RegionId, Tag};

/// Handle of a non-blocking operation within one rank's script (the MPI
/// request object). Ids are rank-local and chosen by the program author.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u32);

/// One operation in a rank's script.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiOp {
    /// Busy work for a fixed duration.
    Compute {
        /// How long the computation takes.
        dur: Dur,
    },
    /// Busy work with multiplicative log-normal-ish jitter: actual duration
    /// is `mean · max(0.05, 1 + cv·N(0,1))`, drawn from the rank's workload
    /// RNG stream.
    ComputeJitter {
        /// Mean duration.
        mean: Dur,
        /// Coefficient of variation.
        cv: f64,
    },
    /// Blocking standard send.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload bytes.
        bytes: u64,
    },
    /// Blocking receive.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
    },
    /// Non-blocking send: the message departs immediately (eager protocol);
    /// the matching [`MpiOp::Wait`] completes instantly.
    Isend {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload bytes.
        bytes: u64,
        /// Request handle for the later wait.
        req: ReqId,
    },
    /// Non-blocking receive: posts the request; the `Recv` event is
    /// recorded when [`MpiOp::Wait`] observes the message.
    Irecv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Request handle for the later wait.
        req: ReqId,
    },
    /// Block until the given request completes.
    Wait {
        /// The request to complete.
        req: ReqId,
    },
    /// Block until every outstanding request of this rank completes
    /// (in posting order).
    Waitall,
    /// Collective operation on a communicator.
    Coll {
        /// Which collective.
        op: CollOp,
        /// Communicator.
        comm: CommId,
        /// Root for rooted flavours.
        root: Option<Rank>,
        /// Per-process payload bytes.
        bytes: u64,
    },
    /// Enter a user code region (traced).
    Enter {
        /// Region id.
        region: RegionId,
    },
    /// Leave a user code region (traced).
    Exit {
        /// Region id.
        region: RegionId,
    },
    /// Switch event recording on for this rank.
    TraceOn,
    /// Switch event recording off for this rank.
    TraceOff,
}

/// The script of one rank, with a builder API.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankProgram {
    /// Operations in program order.
    pub ops: Vec<MpiOp>,
}

impl RankProgram {
    /// Empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a fixed-duration compute phase.
    pub fn compute(mut self, dur: Dur) -> Self {
        self.ops.push(MpiOp::Compute { dur });
        self
    }

    /// Append a jittered compute phase.
    pub fn compute_jitter(mut self, mean: Dur, cv: f64) -> Self {
        self.ops.push(MpiOp::ComputeJitter { mean, cv });
        self
    }

    /// Append a send.
    pub fn send(mut self, to: Rank, tag: Tag, bytes: u64) -> Self {
        self.ops.push(MpiOp::Send { to, tag, bytes });
        self
    }

    /// Append a receive.
    pub fn recv(mut self, from: Rank, tag: Tag) -> Self {
        self.ops.push(MpiOp::Recv { from, tag });
        self
    }

    /// Append a combined send/receive exchange (`MPI_Sendrecv`): the send
    /// is posted non-blocking, the receive completes, then the send request
    /// is drained — the standard deadlock-free exchange idiom.
    pub fn sendrecv(
        mut self,
        to: Rank,
        send_tag: Tag,
        bytes: u64,
        from: Rank,
        recv_tag: Tag,
    ) -> Self {
        // An internal request id far above the user range keeps sendrecv
        // composable with explicit Isend/Wait usage.
        const SENDRECV_REQ: ReqId = ReqId(u32::MAX);
        self.ops.push(MpiOp::Isend { to, tag: send_tag, bytes, req: SENDRECV_REQ });
        self.ops.push(MpiOp::Recv { from, tag: recv_tag });
        self.ops.push(MpiOp::Wait { req: SENDRECV_REQ });
        self
    }

    /// Append a non-blocking send.
    pub fn isend(mut self, to: Rank, tag: Tag, bytes: u64, req: ReqId) -> Self {
        self.ops.push(MpiOp::Isend { to, tag, bytes, req });
        self
    }

    /// Append a non-blocking receive.
    pub fn irecv(mut self, from: Rank, tag: Tag, req: ReqId) -> Self {
        self.ops.push(MpiOp::Irecv { from, tag, req });
        self
    }

    /// Append a wait on one request.
    pub fn wait(mut self, req: ReqId) -> Self {
        self.ops.push(MpiOp::Wait { req });
        self
    }

    /// Append a wait on all outstanding requests.
    pub fn waitall(mut self) -> Self {
        self.ops.push(MpiOp::Waitall);
        self
    }

    /// Append a barrier on `comm`.
    pub fn barrier(mut self, comm: CommId) -> Self {
        self.ops.push(MpiOp::Coll {
            op: CollOp::Barrier,
            comm,
            root: None,
            bytes: 0,
        });
        self
    }

    /// Append an allreduce on `comm`.
    pub fn allreduce(mut self, comm: CommId, bytes: u64) -> Self {
        self.ops.push(MpiOp::Coll {
            op: CollOp::Allreduce,
            comm,
            root: None,
            bytes,
        });
        self
    }

    /// Append a prefix reduction (scan) on `comm`.
    pub fn scan(mut self, comm: CommId, bytes: u64) -> Self {
        self.ops.push(MpiOp::Coll {
            op: CollOp::Scan,
            comm,
            root: None,
            bytes,
        });
        self
    }

    /// Append an arbitrary collective.
    pub fn coll(mut self, op: CollOp, comm: CommId, root: Option<Rank>, bytes: u64) -> Self {
        self.ops.push(MpiOp::Coll {
            op,
            comm,
            root,
            bytes,
        });
        self
    }

    /// Append a region enter.
    pub fn enter(mut self, region: RegionId) -> Self {
        self.ops.push(MpiOp::Enter { region });
        self
    }

    /// Append a region exit.
    pub fn exit(mut self, region: RegionId) -> Self {
        self.ops.push(MpiOp::Exit { region });
        self
    }

    /// Append a tracing switch-on.
    pub fn trace_on(mut self) -> Self {
        self.ops.push(MpiOp::TraceOn);
        self
    }

    /// Append a tracing switch-off.
    pub fn trace_off(mut self) -> Self {
        self.ops.push(MpiOp::TraceOff);
        self
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the script is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Scripts for all ranks of a run.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// One script per rank; index is the rank number.
    pub ranks: Vec<RankProgram>,
}

impl Program {
    /// Program with `n` empty rank scripts.
    pub fn new(n: usize) -> Self {
        Program {
            ranks: vec![RankProgram::new(); n],
        }
    }

    /// Build each rank's script with a closure.
    pub fn build<F: FnMut(Rank) -> RankProgram>(n: usize, mut f: F) -> Self {
        Program {
            ranks: (0..n).map(|r| f(Rank(r as u32))).collect(),
        }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total operation count across ranks.
    pub fn n_ops(&self) -> usize {
        self.ranks.iter().map(|r| r.ops.len()).sum()
    }
}

/// Well-known region ids for MPI call wrappers (the `Enter`/`Exit` pairs a
/// PMPI tracer emits around each call) and user code.
pub mod regions {
    use tracefmt::{CollOp, RegionId};

    /// `MPI_Send` wrapper region.
    pub const MPI_SEND: RegionId = RegionId(1);
    /// `MPI_Recv` wrapper region.
    pub const MPI_RECV: RegionId = RegionId(2);
    /// `MPI_Init` wrapper region.
    pub const MPI_INIT: RegionId = RegionId(3);
    /// `MPI_Finalize` wrapper region.
    pub const MPI_FINALIZE: RegionId = RegionId(4);
    /// `MPI_Isend` wrapper region.
    pub const MPI_ISEND: RegionId = RegionId(5);
    /// `MPI_Irecv` wrapper region.
    pub const MPI_IRECV: RegionId = RegionId(6);
    /// `MPI_Wait` / `MPI_Waitall` wrapper region.
    pub const MPI_WAIT: RegionId = RegionId(7);
    /// First id reserved for user regions.
    pub const USER_BASE: u32 = 1000;

    /// Wrapper region of a collective operation.
    pub fn coll_region(op: CollOp) -> RegionId {
        RegionId(match op {
            CollOp::Barrier => 10,
            CollOp::Bcast => 11,
            CollOp::Scatter => 12,
            CollOp::Reduce => 13,
            CollOp::Gather => 14,
            CollOp::Allreduce => 15,
            CollOp::Allgather => 16,
            CollOp::Alltoall => 17,
            CollOp::Scan => 18,
        })
    }

    /// A user region.
    pub fn user(n: u32) -> RegionId {
        RegionId(USER_BASE + n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = RankProgram::new()
            .enter(regions::user(0))
            .compute(Dur::from_us(100))
            .send(Rank(1), Tag(0), 64)
            .recv(Rank(1), Tag(1))
            .barrier(CommId::WORLD)
            .exit(regions::user(0));
        assert_eq!(p.len(), 6);
        assert!(matches!(p.ops[2], MpiOp::Send { bytes: 64, .. }));
        assert!(matches!(
            p.ops[4],
            MpiOp::Coll { op: CollOp::Barrier, .. }
        ));
    }

    #[test]
    fn program_build_per_rank() {
        let prog = Program::build(4, |r| {
            RankProgram::new().send(Rank((r.0 + 1) % 4), Tag(0), 8)
        });
        assert_eq!(prog.n_ranks(), 4);
        assert_eq!(prog.n_ops(), 4);
        assert!(matches!(
            prog.ranks[3].ops[0],
            MpiOp::Send { to: Rank(0), .. }
        ));
    }

    #[test]
    fn sendrecv_expands_to_the_exchange_idiom() {
        let p = RankProgram::new().sendrecv(Rank(1), Tag(0), 64, Rank(2), Tag(1));
        assert_eq!(p.len(), 3);
        assert!(matches!(p.ops[0], MpiOp::Isend { to: Rank(1), .. }));
        assert!(matches!(p.ops[1], MpiOp::Recv { from: Rank(2), .. }));
        assert!(matches!(p.ops[2], MpiOp::Wait { .. }));
    }

    #[test]
    fn region_ids_do_not_collide() {
        use std::collections::HashSet;
        let mut ids = HashSet::new();
        for r in [
            regions::MPI_SEND,
            regions::MPI_RECV,
            regions::MPI_INIT,
            regions::MPI_FINALIZE,
            regions::coll_region(CollOp::Barrier),
            regions::coll_region(CollOp::Allreduce),
            regions::coll_region(CollOp::Bcast),
            regions::user(0),
            regions::user(1),
        ] {
            assert!(ids.insert(r), "duplicate region id {r:?}");
        }
    }
}
