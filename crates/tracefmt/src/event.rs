//! The event model.
//!
//! Mirrors what MPI/OpenMP tracers record (paper §III): entering and leaving
//! code regions, sending and receiving point-to-point messages, collective
//! operations, and the POMP shared-memory events (fork/join, barrier
//! enter/exit) of Mohr et al. Each [`EventRecord`] carries the local
//! timestamp the tracing library read on the executing core — exactly the
//! value that postmortem synchronisation later has to repair.

use crate::ids::{CommId, Rank, RegionId, Tag};
use serde::{Deserialize, Serialize};
use simclock::Time;
use std::fmt;

/// Flavours of MPI collective operations, grouped by their data-flow
/// direction. The direction drives the collective → point-to-point mapping
/// used for clock-condition checking and by the CLC extension (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollOp {
    /// Synchronisation only (N-to-N).
    Barrier,
    /// Root to all (1-to-N).
    Bcast,
    /// Root distributes distinct pieces (1-to-N).
    Scatter,
    /// All to root (N-to-1).
    Reduce,
    /// All to root (N-to-1).
    Gather,
    /// Reduction distributed to all (N-to-N).
    Allreduce,
    /// Everyone's data to everyone (N-to-N).
    Allgather,
    /// Personalised all-to-all exchange (N-to-N).
    Alltoall,
    /// Prefix reduction: rank i receives the combination of ranks 0..=i
    /// (prefix data flow).
    Scan,
}

/// Data-flow direction of a collective (paper §V: "taking the semantics of
/// the different flavors of MPI collective operations into account").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollFlavor {
    /// Root sends to all others (Bcast, Scatter).
    OneToN,
    /// All others send to the root (Reduce, Gather).
    NToOne,
    /// Everyone communicates with everyone (Barrier, Allreduce, …).
    NToN,
    /// Rank i depends on every lower rank (Scan).
    Prefix,
}

impl CollOp {
    /// The operation's data-flow flavour.
    pub fn flavor(self) -> CollFlavor {
        match self {
            CollOp::Bcast | CollOp::Scatter => CollFlavor::OneToN,
            CollOp::Reduce | CollOp::Gather => CollFlavor::NToOne,
            CollOp::Barrier | CollOp::Allreduce | CollOp::Allgather | CollOp::Alltoall => {
                CollFlavor::NToN
            }
            CollOp::Scan => CollFlavor::Prefix,
        }
    }

    /// Does the operation take a root argument?
    pub fn has_root(self) -> bool {
        matches!(self.flavor(), CollFlavor::OneToN | CollFlavor::NToOne)
    }

    /// MPI-style name.
    pub fn label(self) -> &'static str {
        match self {
            CollOp::Barrier => "MPI_Barrier",
            CollOp::Bcast => "MPI_Bcast",
            CollOp::Scatter => "MPI_Scatter",
            CollOp::Reduce => "MPI_Reduce",
            CollOp::Gather => "MPI_Gather",
            CollOp::Allreduce => "MPI_Allreduce",
            CollOp::Allgather => "MPI_Allgather",
            CollOp::Alltoall => "MPI_Alltoall",
            CollOp::Scan => "MPI_Scan",
        }
    }
}

impl fmt::Display for CollOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Control flow entered a code region.
    Enter {
        /// The region entered.
        region: RegionId,
    },
    /// Control flow left a code region.
    Exit {
        /// The region left.
        region: RegionId,
    },
    /// A point-to-point message left this process.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
    },
    /// A point-to-point message was received.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
    },
    /// A collective operation began on this process.
    CollBegin {
        /// Which collective.
        op: CollOp,
        /// Communicator it runs on.
        comm: CommId,
        /// Root rank for rooted flavours.
        root: Option<Rank>,
        /// Per-process payload size.
        bytes: u64,
    },
    /// A collective operation completed on this process.
    CollEnd {
        /// Which collective.
        op: CollOp,
        /// Communicator it runs on.
        comm: CommId,
        /// Root rank for rooted flavours.
        root: Option<Rank>,
        /// Per-process payload size.
        bytes: u64,
    },
    /// OpenMP: master forked a parallel team (POMP).
    Fork {
        /// Parallel-region id.
        region: RegionId,
    },
    /// OpenMP: master joined the team back (POMP).
    Join {
        /// Parallel-region id.
        region: RegionId,
    },
    /// OpenMP: a thread arrived at a barrier (explicit or implicit).
    BarrierEnter {
        /// Parallel-region id the barrier belongs to.
        region: RegionId,
    },
    /// OpenMP: a thread left a barrier.
    BarrierExit {
        /// Parallel-region id the barrier belongs to.
        region: RegionId,
    },
}

impl EventKind {
    /// Is this a message-transfer event (send or receive)? Used for the
    /// paper's Fig. 7 metric "message transfer events in relation to the
    /// total number of events".
    pub fn is_message(self) -> bool {
        matches!(self, EventKind::Send { .. } | EventKind::Recv { .. })
    }
}

/// One trace record: a timestamp taken from the executing core's local clock
/// plus the event description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Local timestamp (possibly wrong — that is the point of the paper).
    pub time: Time,
    /// What happened.
    pub kind: EventKind,
}

impl EventRecord {
    /// Construct a record.
    pub fn new(time: Time, kind: EventKind) -> Self {
        EventRecord { time, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavors_match_the_paper() {
        assert_eq!(CollOp::Bcast.flavor(), CollFlavor::OneToN);
        assert_eq!(CollOp::Scatter.flavor(), CollFlavor::OneToN);
        assert_eq!(CollOp::Reduce.flavor(), CollFlavor::NToOne);
        assert_eq!(CollOp::Gather.flavor(), CollFlavor::NToOne);
        assert_eq!(CollOp::Barrier.flavor(), CollFlavor::NToN);
        assert_eq!(CollOp::Allreduce.flavor(), CollFlavor::NToN);
        assert_eq!(CollOp::Allgather.flavor(), CollFlavor::NToN);
        assert_eq!(CollOp::Alltoall.flavor(), CollFlavor::NToN);
        assert_eq!(CollOp::Scan.flavor(), CollFlavor::Prefix);
    }

    #[test]
    fn rooted_ops_have_roots() {
        assert!(CollOp::Bcast.has_root());
        assert!(CollOp::Reduce.has_root());
        assert!(!CollOp::Barrier.has_root());
        assert!(!CollOp::Alltoall.has_root());
        assert!(!CollOp::Scan.has_root());
    }

    #[test]
    fn message_classification() {
        let send = EventKind::Send {
            to: Rank(1),
            tag: Tag(0),
            bytes: 8,
        };
        let enter = EventKind::Enter {
            region: RegionId(0),
        };
        assert!(send.is_message());
        assert!(!enter.is_message());
    }
}
