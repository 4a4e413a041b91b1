//! The collective member table: every collective constraint of a trace,
//! stored once, without expanding it into logical messages.
//!
//! The paper's §V maps a collective onto point-to-point semantics (an
//! N-to-N instance is "every end ≥ every other begin + `l_min`"), which
//! makes an instance over `k` timelines `k·(k−1)` logical messages. Storing
//! those is quadratic in the communicator for every *instance*; what they
//! encode is `k` `(begin, end)` pairs, a flavour, a root, and a `k × k`
//! latency matrix that every instance over the same timelines shares. A
//! [`CollTable`] stores exactly that:
//!
//! * per instance — flavour, root position, the range of its member rows,
//!   and the id of its latency block;
//! * per member row — the flat offsets (`gid`s: position in the
//!   timeline-major concatenation of all timelines) of its `CollBegin` and
//!   `CollEnd`;
//! * per [`LatBlock`] — one per distinct member sequence, in practice one
//!   per communicator — the member ranks and `l_min` for every ordered
//!   rank pair, row-major and transposed, so both "one begin against every
//!   end" and "one end against every begin" read a contiguous row. `l_min`
//!   is queried once per rank pair per block, never per instance. A block
//!   whose latencies depend only on a few member classes also carries that
//!   class table ([`BlockClasses`]), found once at build and verified pair
//!   by pair.
//!
//! The two consumers derive the logical messages on the fly and apply
//! their own exclusion rule, which is why the table stores ranks *and*
//! positions: the CLC's dependency graph (`clocksync::DepGraph`) excludes a
//! member's own begin by **position**, the violation census
//! ([`CensusPlan`](crate::CensusPlan)) excludes pairs of equal **rank**,
//! like the reference checks each is compared against. The two differ when
//! two timelines of one communicator share a rank.

use crate::analysis::CollectiveInstance;
use crate::census::{bases, locate, PlanBuildError};
use crate::event::CollFlavor;
use crate::ids::{EventId, Rank};
use crate::violation::MinLatency;
use std::collections::HashMap;

/// Most classes a [`BlockClasses`] may have: the per-instance cost of a
/// consumer is O(k + classes²), so this keeps it O(k).
pub(crate) const MAX_CLASSES: usize = 8;

/// A [`LatBlock`] whose off-diagonal latencies depend only on which of a
/// few *classes* the two members fall in — same node, same switch, remote —
/// so that `l_min(i → j) == lat(class_of[i], class_of[j])` for every
/// `i ≠ j`. Uniform latency is the one-class case. Present only when that
/// identity was verified over all `k·(k−1)` ordered pairs.
#[derive(Debug, Clone)]
pub struct BlockClasses {
    class_of: Vec<u8>,
    n: usize,
    /// `lat[a * n + b]` = `l_min` from any member of class `a` to any
    /// *other* member of class `b`. The diagonal entry of a one-member
    /// class stands for no pair and is never read through `i ≠ j`.
    lat: Vec<i64>,
}

impl BlockClasses {
    /// Group the members of a `k × k` row-major latency matrix: each member
    /// joins the first class whose first member has the same latency to and
    /// from every third member (and a symmetric latency to the candidate),
    /// else opens a class. The grouping is a guess; the exhaustive check at
    /// the end is what makes a returned table exact. `None` when that check
    /// fails, when more than [`MAX_CLASSES`] classes would be needed, or
    /// when the table would have a class per member and so compress nothing.
    fn find(k: usize, lat: &[i64]) -> Option<BlockClasses> {
        let limit = MAX_CLASSES.min(k.saturating_sub(1));
        let mut firsts: Vec<usize> = Vec::new();
        let mut class_of = vec![0u8; k];
        for j in 0..k {
            let alike = |&r: &usize| {
                lat[j * k + r] == lat[r * k + j]
                    && (0..k).all(|m| {
                        m == j
                            || m == r
                            || (lat[j * k + m] == lat[r * k + m] && lat[m * k + j] == lat[m * k + r])
                    })
            };
            let class = match firsts.iter().position(alike) {
                Some(c) => c,
                None if firsts.len() == limit => return None,
                None => {
                    firsts.push(j);
                    firsts.len() - 1
                }
            };
            class_of[j] = class as u8;
        }
        let n = firsts.len();
        let mut table = vec![0i64; n * n];
        for (a, &i) in firsts.iter().enumerate() {
            for b in 0..n {
                // Any member of `b` other than `i` itself.
                if let Some(j) = (0..k).find(|&j| j != i && usize::from(class_of[j]) == b) {
                    table[a * n + b] = lat[i * k + j];
                }
            }
        }
        let classes = BlockClasses { class_of, n, lat: table };
        let exact = (0..k).all(|i| {
            (0..k).all(|j| i == j || lat[i * k + j] == classes.lat(classes.of(i), classes.of(j)))
        });
        exact.then_some(classes)
    }

    /// Number of classes, at most 8 and fewer than the block has members.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.n
    }

    /// Class of member `i`, in `0..n_classes()`.
    #[inline]
    pub fn of(&self, i: usize) -> usize {
        usize::from(self.class_of[i])
    }

    /// `l_min` in picoseconds from a member of class `from` to another
    /// member of class `to`.
    #[inline]
    pub fn lat(&self, from: usize, to: usize) -> i64 {
        self.lat[from * self.n + to]
    }

    fn heap_bytes(&self) -> usize {
        self.class_of.len() + 8 * self.lat.len()
    }
}

/// `l_min` between every ordered pair of one member sequence.
#[derive(Debug, Clone)]
pub struct LatBlock {
    ranks: Vec<Rank>,
    /// `lat[i * k + j]` = `l_min(ranks[i] → ranks[j])` in picoseconds.
    lat: Vec<i64>,
    /// The transpose: `lat_t[j * k + i]` = `lat[i * k + j]`.
    lat_t: Vec<i64>,
    ranks_distinct: bool,
    classes: Option<BlockClasses>,
}

impl LatBlock {
    fn new(ranks: Vec<Rank>, lmin: &dyn MinLatency) -> LatBlock {
        let k = ranks.len();
        let mut lat = vec![0i64; k * k];
        let mut lat_t = vec![0i64; k * k];
        for (i, &from) in ranks.iter().enumerate() {
            for (j, &to) in ranks.iter().enumerate() {
                let ps = lmin.l_min(from, to).as_ps();
                lat[i * k + j] = ps;
                lat_t[j * k + i] = ps;
            }
        }
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        let ranks_distinct = sorted.windows(2).all(|w| w[0] != w[1]);
        let classes = BlockClasses::find(k, &lat);
        LatBlock { ranks, lat, lat_t, ranks_distinct, classes }
    }

    /// Number of members.
    #[inline]
    pub fn k(&self) -> usize {
        self.ranks.len()
    }

    /// Member ranks, by position.
    #[inline]
    pub fn ranks(&self) -> &[Rank] {
        &self.ranks
    }

    /// Do all members have different ranks? Then excluding by rank and
    /// excluding by position select the same pairs.
    #[inline]
    pub fn ranks_distinct(&self) -> bool {
        self.ranks_distinct
    }

    /// `l_min` from member `i` to every member, by position.
    #[inline]
    pub fn from_member(&self, i: usize) -> &[i64] {
        let k = self.k();
        &self.lat[i * k..(i + 1) * k]
    }

    /// `l_min` from every member, by position, to member `j`.
    #[inline]
    pub fn to_member(&self, j: usize) -> &[i64] {
        let k = self.k();
        &self.lat_t[j * k..(j + 1) * k]
    }

    /// The block's latencies as a class table, when they have that shape:
    /// what lets a consumer evaluate an N-to-N instance in O(k) instead of
    /// walking `k` rows of `k`.
    #[inline]
    pub fn classes(&self) -> Option<&BlockClasses> {
        self.classes.as_ref()
    }

    fn heap_bytes(&self) -> usize {
        4 * self.ranks.len()
            + 8 * (self.lat.len() + self.lat_t.len())
            + self.classes.as_ref().map_or(0, BlockClasses::heap_bytes)
    }
}

/// One instance's row of the table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    flavor: CollFlavor,
    /// Position of the root among the members, [`NO_ROOT`] for unrooted
    /// flavours and for a root rank no member has.
    root_pos: u32,
    /// First member row.
    start: u32,
    block: u32,
}

const NO_ROOT: u32 = u32::MAX;

/// One instance, borrowed from a [`CollTable`]. Member `i` of the instance
/// is `(begins[i], ends[i])` with rank `block.ranks()[i]`.
#[derive(Debug, Clone, Copy)]
pub struct CollInstRef<'a> {
    /// Data-flow flavour.
    pub flavor: CollFlavor,
    /// Position of the root member — the first member carrying the root
    /// rank — for a rooted flavour whose root takes part.
    pub root_pos: Option<usize>,
    /// Row of the first member in the table's flat member arrays.
    pub first_row: usize,
    /// Flat offsets of the members' `CollBegin` events.
    pub begins: &'a [u32],
    /// Flat offsets of the members' `CollEnd` events.
    pub ends: &'a [u32],
    /// The members' ranks and pairwise latencies.
    pub block: &'a LatBlock,
}

impl CollInstRef<'_> {
    /// Logical messages the §V mapping derives from this instance when a
    /// member is excluded by position only: what the CLC constrains.
    pub fn n_logical_by_position(&self) -> usize {
        let k = self.begins.len();
        match self.flavor {
            CollFlavor::OneToN | CollFlavor::NToOne => {
                self.root_pos.map_or(0, |_| k - 1)
            }
            CollFlavor::NToN => k * k.saturating_sub(1),
            CollFlavor::Prefix => k * k.saturating_sub(1) / 2,
        }
    }
}

/// Every collective instance of one trace in member-table form. See the
/// module docs.
///
/// Instances that share a [`LatBlock`] have their members on the same
/// timelines, position by position (the block is keyed by rank *and*
/// timeline of every member), so anything that depends only on which
/// timelines the members live on can be computed once per block.
#[derive(Debug, Clone, Default)]
pub struct CollTable {
    /// Events of the trace shape the table was built for.
    n_events: u32,
    entries: Vec<Entry>,
    begin_gid: Vec<u32>,
    end_gid: Vec<u32>,
    blocks: Vec<LatBlock>,
}

impl CollTable {
    /// Lower `instances` for a trace shape given as per-timeline event
    /// counts. `lmin` is queried once per ordered rank pair of every
    /// distinct member sequence.
    pub fn build(
        timeline_lens: &[usize],
        instances: &[CollectiveInstance],
        lmin: &dyn MinLatency,
    ) -> Result<CollTable, PlanBuildError> {
        let base = bases(timeline_lens)?;
        let n_events = *base.last().expect("one base per timeline, plus the end");
        if instances.is_empty() {
            // A point-to-point trace pays for no table: nothing allocated.
            return Ok(CollTable { n_events, ..CollTable::default() });
        }
        let locate = |id: EventId| locate(&base, id);

        let n_members: usize = instances.iter().map(|inst| inst.members.len()).sum();
        if u32::try_from(n_members).is_err() {
            return Err(PlanBuildError::TraceTooLarge);
        }
        let mut table = CollTable {
            n_events,
            entries: Vec::with_capacity(instances.len()),
            begin_gid: Vec::with_capacity(n_members),
            end_gid: Vec::with_capacity(n_members),
            blocks: Vec::new(),
        };
        // Block lookup: a run of instances on one communicator — nearly
        // every trace — matches the previous instance's key without
        // hashing; the map is probed only on a switch.
        let mut block_of: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut last: Option<(Vec<u32>, u32)> = None;
        let mut key: Vec<u32> = Vec::new();
        for inst in instances {
            let start = table.begin_gid.len() as u32;
            key.clear();
            for m in &inst.members {
                table.begin_gid.push(locate(m.begin)?);
                table.end_gid.push(locate(m.end)?);
                key.extend([m.rank.0, m.begin.proc, m.end.proc]);
            }
            let block = match &last {
                Some((k, b)) if *k == key => *b,
                _ => {
                    let b = match block_of.get(&key) {
                        Some(&b) => b,
                        None => {
                            let b = table.blocks.len() as u32;
                            let ranks = inst.members.iter().map(|m| m.rank).collect();
                            table.blocks.push(LatBlock::new(ranks, lmin));
                            block_of.insert(key.clone(), b);
                            b
                        }
                    };
                    last = Some((key.clone(), b));
                    b
                }
            };
            let root_pos = inst
                .root
                .and_then(|r| inst.members.iter().position(|m| m.rank == r))
                .map_or(NO_ROOT, |pos| pos as u32);
            table.entries.push(Entry { flavor: inst.op.flavor(), root_pos, start, block });
        }
        Ok(table)
    }

    /// Event count of the trace shape the table was built for.
    pub fn n_events(&self) -> usize {
        self.n_events as usize
    }

    /// Number of instances.
    pub fn n_instances(&self) -> usize {
        self.entries.len()
    }

    /// Number of member rows over all instances.
    pub fn n_members(&self) -> usize {
        self.begin_gid.len()
    }

    /// Number of distinct latency blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Id of instance `i`'s latency block, in `0..n_blocks()`.
    #[cfg(test)]
    fn block_of(&self, i: usize) -> usize {
        self.entries[i].block as usize
    }

    /// Instance `i`.
    #[inline]
    pub fn instance(&self, i: usize) -> CollInstRef<'_> {
        let e = self.entries[i];
        let block = &self.blocks[e.block as usize];
        let rows = e.start as usize..e.start as usize + block.k();
        CollInstRef {
            flavor: e.flavor,
            root_pos: (e.root_pos != NO_ROOT).then_some(e.root_pos as usize),
            first_row: rows.start,
            begins: &self.begin_gid[rows.clone()],
            ends: &self.end_gid[rows],
            block,
        }
    }

    /// All instances, in table order.
    pub fn instances(&self) -> impl Iterator<Item = CollInstRef<'_>> {
        (0..self.entries.len()).map(|i| self.instance(i))
    }

    /// Heap bytes the table holds: O(members + Σ k² over blocks).
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>()
            + 4 * (self.begin_gid.len() + self.end_gid.len())
            + self.blocks.iter().map(LatBlock::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::CollMember;
    use crate::event::CollOp;
    use crate::ids::CommId;
    use simclock::Dur;

    /// `l_min(a → b) = 10·a + b` µs: asymmetric, distinct for every pair.
    struct Directed;
    impl MinLatency for Directed {
        fn l_min(&self, from: Rank, to: Rank) -> Dur {
            Dur::from_us(10 * i64::from(from.0) + i64::from(to.0))
        }
    }

    fn inst(op: CollOp, root: Option<u32>, members: &[(u32, usize, usize)]) -> CollectiveInstance {
        CollectiveInstance {
            op,
            comm: CommId::WORLD,
            root: root.map(Rank),
            members: members
                .iter()
                .map(|&(rank, p, i)| CollMember {
                    rank: Rank(rank),
                    begin: EventId::new(p, i),
                    end: EventId::new(p, i + 1),
                })
                .collect(),
        }
    }

    #[test]
    fn blocks_are_shared_per_member_sequence_and_keep_direction() {
        let lens = [4usize, 4, 4];
        let world = [(0, 0, 0), (1, 1, 0), (2, 2, 0)];
        let world2 = [(0, 0, 2), (1, 1, 2), (2, 2, 2)];
        let sub = [(0, 0, 0), (2, 2, 0)];
        let insts = [
            inst(CollOp::Barrier, None, &world),
            inst(CollOp::Bcast, Some(2), &world2),
            inst(CollOp::Allreduce, None, &sub),
        ];
        let t = CollTable::build(&lens, &insts, &Directed).unwrap();
        assert_eq!((t.n_instances(), t.n_members(), t.n_blocks()), (3, 8, 2));
        assert_eq!(t.block_of(0), t.block_of(1));
        assert_ne!(t.block_of(0), t.block_of(2));

        let b = t.instance(1);
        assert_eq!(b.root_pos, Some(2));
        assert_eq!(b.begins, &[2, 6, 10]);
        assert_eq!(b.ends, &[3, 7, 11]);
        // Row = from one member, column (transposed row) = to one member.
        let us = |v: i64| Dur::from_us(v).as_ps();
        assert_eq!(b.block.from_member(1), &[us(10), us(11), us(12)]);
        assert_eq!(b.block.to_member(1), &[us(1), us(11), us(21)]);
        assert!(b.block.ranks_distinct());
        assert_eq!(b.n_logical_by_position(), 2);
        assert_eq!(t.instance(0).n_logical_by_position(), 6);

        let s = t.instance(2);
        assert_eq!(s.block.ranks(), &[Rank(0), Rank(2)]);
        assert_eq!(s.block.from_member(0), &[us(0), us(2)]);
    }

    #[test]
    fn same_ranks_on_other_timelines_get_their_own_block() {
        // Two timelines share rank 5: the sequences (5@0, 5@1) and
        // (5@1, 5@0) have equal ranks but different timelines.
        let lens = [2usize, 2];
        let insts = [
            inst(CollOp::Barrier, None, &[(5, 0, 0), (5, 1, 0)]),
            inst(CollOp::Barrier, None, &[(5, 1, 0), (5, 0, 0)]),
        ];
        let t = CollTable::build(&lens, &insts, &Directed).unwrap();
        assert_eq!(t.n_blocks(), 2);
        assert!(!t.instance(0).block.ranks_distinct());
    }

    #[test]
    fn absent_root_and_out_of_range_members() {
        let lens = [2usize, 2];
        let t = CollTable::build(
            &lens,
            &[inst(CollOp::Reduce, Some(9), &[(0, 0, 0), (1, 1, 0)])],
            &Directed,
        )
        .unwrap();
        assert_eq!(t.instance(0).root_pos, None);
        assert_eq!(t.instance(0).n_logical_by_position(), 0);

        let bad = inst(CollOp::Barrier, None, &[(0, 0, 0), (1, 1, 1)]);
        assert_eq!(
            CollTable::build(&lens, &[bad], &Directed).unwrap_err(),
            PlanBuildError::EventOutOfRange(EventId::new(1, 2))
        );
        let bad = inst(CollOp::Barrier, None, &[(0, 3, 0)]);
        assert!(CollTable::build(&lens, &[bad], &Directed).is_err());
    }

    /// Latency by rank through a fixed matrix.
    struct ByMatrix(usize, Vec<i64>);
    impl MinLatency for ByMatrix {
        fn l_min(&self, from: Rank, to: Rank) -> Dur {
            Dur::from_ps(self.1[from.idx() * self.0 + to.idx()])
        }
    }

    fn block_of(k: usize, cell: impl Fn(usize, usize) -> i64) -> LatBlock {
        let lat = (0..k * k).map(|at| cell(at / k, at % k)).collect();
        LatBlock::new((0..k as u32).map(Rank).collect(), &ByMatrix(k, lat))
    }

    /// A class table, when there is one, is the matrix off the diagonal.
    fn assert_exact(block: &LatBlock) {
        let Some(classes) = block.classes() else { return };
        assert!(classes.n_classes() <= MAX_CLASSES && classes.n_classes() < block.k());
        for i in 0..block.k() {
            for j in (0..block.k()).filter(|&j| j != i) {
                let got = classes.lat(classes.of(i), classes.of(j));
                assert_eq!(got, block.from_member(i)[j], "{i} -> {j}");
            }
        }
    }

    #[test]
    fn latency_classes_are_found_exactly_or_not_at_all() {
        // Uniform off the diagonal, anything on it: one class.
        let uniform = block_of(5, |i, j| if i == j { 77 } else { 4 });
        assert_eq!(uniform.classes().map(BlockClasses::n_classes), Some(1));
        assert_exact(&uniform);

        // Nodes of 4 under switches of 8, direction-dependent between
        // switches: a class per node.
        let level = |i: usize, j: usize| match (i / 4 == j / 4, i / 8 == j / 8) {
            (true, _) => 1,
            (_, true) => 10,
            _ => 100 + (i / 8) as i64,
        };
        let tree = block_of(24, level);
        assert_eq!(tree.classes().map(BlockClasses::n_classes), Some(6));
        assert_eq!(tree.classes().map(|c| (c.of(3), c.of(4), c.of(23))), Some((0, 1, 5)));
        assert_exact(&tree);

        // One cell off: its row's and its column's member leave their
        // class — still exact — and with the classes used up, nothing.
        let dented = block_of(24, |i, j| level(i, j) + i64::from((i, j) == (5, 17)));
        assert_eq!(dented.classes().map(BlockClasses::n_classes), Some(8));
        assert_exact(&dented);
        let twice = block_of(24, |i, j| level(i, j) + i64::from((i, j) == (5, 17) || (i, j) == (9, 2)));
        assert!(twice.classes().is_none());

        // Asymmetric inside a would-be class, a class per member, nine
        // nodes, a lone member: no table.
        assert!(block_of(2, |i, _| 5 + i as i64).classes().is_none());
        assert!(block_of(6, |i, j| 10 * i as i64 + j as i64).classes().is_none());
        assert!(block_of(18, |i, j| 1 + i64::from(i / 2 != j / 2)).classes().is_none());
        assert!(block_of(1, |_, _| 3).classes().is_none());
        // Eight nodes of two are fine; the diagonal is never consulted.
        let pairs = block_of(16, |i, j| if i == j { -1 } else { 1 + i64::from(i / 2 != j / 2) });
        assert_eq!(pairs.classes().map(BlockClasses::n_classes), Some(8));
        assert_exact(&pairs);
    }

    #[test]
    fn empty_table_allocates_nothing() {
        let t = CollTable::build(&[10, 10], &[], &Directed).unwrap();
        assert_eq!((t.n_instances(), t.n_members(), t.n_blocks()), (0, 0, 0));
        assert_eq!(t.heap_bytes(), 0);
        assert_eq!(t.n_events(), 20);
    }
}
