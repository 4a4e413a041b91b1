//! Jézéquel's spanning-tree generalisation (paper reference [20]).
//!
//! Duda's pairwise fit needs two-way traffic between every process and the
//! reference — rarely true on arbitrary topologies. Jézéquel builds a
//! spanning tree over the *communication graph*, fits a pairwise map per
//! tree edge (where traffic exists), and composes the affine maps along
//! each process's tree path to the reference. Edge weight is the number of
//! messages: more messages mean tighter corridors, so a **maximum** spanning
//! tree is used.

use super::duda::{convex_hull_map, regression_map};
use super::{corridor_between, AffineMap};
use tracefmt::{Matching, MinLatency, Trace};

/// Failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The communication graph does not connect every process to the
    /// reference.
    Disconnected(usize),
    /// A tree edge's corridor could not be fitted.
    EdgeFit(usize, usize),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Disconnected(p) => write!(f, "process {p} unreachable from reference"),
            TreeError::EdgeFit(a, b) => write!(f, "cannot fit edge {a}–{b}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Per-process affine maps onto the reference process's axis, composed
/// along a maximum spanning tree of the two-way communication graph.
pub fn spanning_tree_maps(
    trace: &Trace,
    matching: &Matching,
    lmin: &dyn MinLatency,
    reference: usize,
) -> Result<Vec<AffineMap>, TreeError> {
    let n = trace.n_procs();
    // Count messages per unordered pair, in each direction.
    let mut fwd = std::collections::HashMap::<(usize, usize), usize>::new();
    for m in &matching.messages {
        *fwd.entry((m.send.p(), m.recv.p())).or_default() += 1;
    }
    // Two-way weight of an unordered pair: min of the direction counts
    // (a corridor needs both sides).
    let weight = |a: usize, b: usize| -> usize {
        let ab = fwd.get(&(a, b)).copied().unwrap_or(0);
        let ba = fwd.get(&(b, a)).copied().unwrap_or(0);
        ab.min(ba)
    };

    // Prim's algorithm from the reference, maximising edge weight.
    let mut in_tree = vec![false; n];
    let mut parent = vec![usize::MAX; n];
    let mut best = vec![0usize; n];
    in_tree[reference] = true;
    let mut frontier: Vec<usize> = (0..n).filter(|&p| p != reference).collect();
    for p in &frontier {
        best[*p] = weight(reference, *p);
        parent[*p] = reference;
    }
    while !frontier.is_empty() {
        // Pick the frontier node with the heaviest connecting edge.
        let (fi, &p) = frontier
            .iter()
            .enumerate()
            .max_by_key(|(_, &p)| best[p])
            .expect("non-empty frontier");
        if best[p] == 0 {
            return Err(TreeError::Disconnected(p));
        }
        frontier.swap_remove(fi);
        in_tree[p] = true;
        for &q in frontier.iter() {
            let w = weight(p, q);
            if w > best[q] {
                best[q] = w;
                parent[q] = p;
            }
        }
    }

    // Fit each tree edge child→parent, then compose down from the root.
    // Processing order: parents before children (BFS from reference).
    let mut maps: Vec<Option<AffineMap>> = vec![None; n];
    maps[reference] = Some(AffineMap::identity());
    let mut queue = std::collections::VecDeque::from([reference]);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for p in 0..n {
        if p != reference {
            children[parent[p]].push(p);
        }
    }
    while let Some(p) = queue.pop_front() {
        for &c in &children[p] {
            let corridor = corridor_between(trace, matching, p, c, lmin);
            // Prefer the convex-hull fit: application traces contain
            // wait states, so most bound points carry huge slack and bias
            // a regression; the hull uses only the tightest constraints.
            let pairwise = convex_hull_map(&corridor)
                .or_else(|_| regression_map(&corridor))
                .map_err(|_| TreeError::EdgeFit(p, c))?;
            let parent_map = maps[p].expect("BFS order");
            maps[c] = Some(parent_map.compose(&pairwise));
            queue.push_back(c);
        }
    }
    Ok(maps.into_iter().map(|m| m.expect("spanning tree covers all")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync::TimestampMap;
    use simclock::{Dur, Time};
    use tracefmt::{match_messages, EventKind, Rank, Tag, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    /// Chain topology 0 – 1 – 2 with known per-process offsets; messages
    /// only between neighbours, many, both directions.
    fn chain_trace(offsets_us: [i64; 3]) -> Trace {
        let mut t = Trace::for_ranks(3);
        let mut tag = 0u32;
        let mut true_now = 0i64;
        for _ in 0..40 {
            for (a, b) in [(0usize, 1usize), (1, 2)] {
                // a -> b, true transfer 10 µs.
                true_now += 37;
                t.procs[a].push(
                    Time::from_us(true_now + offsets_us[a]),
                    EventKind::Send { to: Rank(b as u32), tag: Tag(tag), bytes: 0 },
                );
                t.procs[b].push(
                    Time::from_us(true_now + 10 + offsets_us[b]),
                    EventKind::Recv { from: Rank(a as u32), tag: Tag(tag), bytes: 0 },
                );
                tag += 1;
                // b -> a.
                true_now += 41;
                t.procs[b].push(
                    Time::from_us(true_now + offsets_us[b]),
                    EventKind::Send { to: Rank(a as u32), tag: Tag(tag), bytes: 0 },
                );
                t.procs[a].push(
                    Time::from_us(true_now + 10 + offsets_us[a]),
                    EventKind::Recv { from: Rank(b as u32), tag: Tag(tag), bytes: 0 },
                );
                tag += 1;
            }
        }
        t
    }

    #[test]
    fn chain_offsets_recovered_through_composition() {
        // Process 2 never talks to the reference directly.
        let t = chain_trace([0, 400, -300]);
        let m = match_messages(&t);
        let maps = spanning_tree_maps(&t, &m, &LMIN, 0).unwrap();
        // Corrected times of all procs should land on the true axis
        // (reference offset 0), to within the message jitter (~10 µs).
        let probe = Time::from_us(1000 + 400);
        let corrected = maps[1].map(probe);
        let err = (corrected - Time::from_us(1000)).abs();
        assert!(err < Dur::from_us(12), "proc1 err {err:?}");
        let probe2 = Time::from_us(1000 - 300);
        let err2 = (maps[2].map(probe2) - Time::from_us(1000)).abs();
        assert!(err2 < Dur::from_us(20), "proc2 err {err2:?}");
        // Reference map is the identity.
        assert_eq!(maps[0], AffineMap::identity());
    }

    #[test]
    fn disconnected_process_detected() {
        let mut t = chain_trace([0, 0, 0]);
        // Add an isolated process 3.
        t.procs.push(tracefmt::ProcessTrace::new(tracefmt::Location::rank(3)));
        t.procs[3].push(Time::ZERO, EventKind::Enter { region: tracefmt::RegionId(0) });
        let m = match_messages(&t);
        let err = spanning_tree_maps(&t, &m, &LMIN, 0).unwrap_err();
        assert_eq!(err, TreeError::Disconnected(3));
    }

    #[test]
    fn heavier_edges_win() {
        // 0-1 heavy, 0-2 light, 1-2 heavy: tree should attach 2 via 1.
        // We verify indirectly: fitting succeeds and recovers offsets even
        // though 0-2 has too few messages for a direct fit.
        let mut t = chain_trace([0, 100, 200]);
        // One single pair of messages 0<->2 (not enough for a pairwise fit
        // on its own, weight 1 vs 80 via the chain).
        t.procs[0].push(
            Time::from_us(900_000),
            EventKind::Send { to: Rank(2), tag: Tag(9999), bytes: 0 },
        );
        t.procs[2].push(
            Time::from_us(900_010 + 200),
            EventKind::Recv { from: Rank(0), tag: Tag(9999), bytes: 0 },
        );
        let m = match_messages(&t);
        let maps = spanning_tree_maps(&t, &m, &LMIN, 0).unwrap();
        let probe = Time::from_us(500 + 200);
        let err = (maps[2].map(probe) - Time::from_us(500)).abs();
        assert!(err < Dur::from_us(25), "proc2 err {err:?}");
    }
}
