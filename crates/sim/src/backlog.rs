//! The pending-launch backlog, indexed by launch group.
//!
//! Movements wait here until the launch rule lets them go. The rule reads
//! only whether a movement's destination has a free dock and whether the
//! track its direction uses is free. So every movement of a *launch group*
//! — a (direction, destination) pair — passes or fails together, and only
//! each group's oldest movement can launch next. [`Backlog`] keeps one FIFO
//! per group, each entry tagged with its global sequence number (the order
//! one FIFO would have kept).
//!
//! The track test depends only on the direction, so a scan of the group
//! heads would decide on two of them: the oldest dock-free head of each
//! direction. Each direction therefore has a tournament tree over
//! destinations whose leaf `to` holds the head's sequence number while
//! group `(d, to)` is non-empty and `to` has a free dock, and `u64::MAX`
//! otherwise; the root is the scan's winner. A push into an empty group, a
//! pop and a dock-free change ([`Backlog::set_dock_free`]) refresh a leaf
//! in O(log endpoints); choosing a launch reads two roots. The trees are
//! derived state: [`Backlog::to_fifo`] merges the groups back by sequence
//! number for checkpoint capture and [`Backlog::from_fifo`] rebuilds them.

use std::collections::VecDeque;

use dhl_rng::check::{Counted, Tally};

use crate::system::{DhlSystem, Direction, EndpointId, Movement};

/// Pending launches, one FIFO per (direction, destination) group.
pub(crate) struct Backlog {
    /// Group `2 * to + d` holds the movements bound for endpoint `to` in
    /// direction `d` (0 outbound, 1 inbound), oldest first.
    groups: Touched<Vec<Group>>,
    /// Per direction, a tournament tree over destinations (see the module
    /// docs): `tree[width + to]` is leaf `to`, and node `i` holds
    /// `(sequence number, destination)`, the smaller of nodes `2i` and
    /// `2i + 1`.
    trees: [Touched<Vec<(u64, EndpointId)>>; 2],
    /// Whether each endpoint has a free dock.
    dock_free: Touched<Vec<bool>>,
    next_seq: u64,
    len: usize,
}

/// One launch group's movements, each with its global sequence number.
type Group = Touched<VecDeque<(u64, Movement)>>;

/// Counted access to the backlog's storage.
///
/// The groups, their entries, the tree nodes and the dock flags sit behind
/// [`Touched`], whose contents the rest of this file cannot reach: each
/// element read or written through it adds one to `TOUCHED` in unit tests.
/// A scan over the groups or the pending movements is therefore counted
/// without opting in. Release builds compile the accessors to plain
/// indexing.
type Touched<C> = Counted<C, Touch>;

/// The [`Tally`] behind [`Touched`].
#[derive(Clone, Default)]
struct Touch;

#[cfg(test)]
thread_local! {
    /// Groups, group entries, tree nodes and dock flags this thread's
    /// backlogs have reached: the unit tests' per-event work count.
    static TOUCHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Tally for Touch {
    #[inline(always)]
    fn count() {
        #[cfg(test)]
        TOUCHED.with(|n| n.set(n.get() + 1));
    }
}

fn group_of(m: &Movement) -> usize {
    let inbound = DhlSystem::direction_of(m.from, m.to) == Direction::Inbound;
    2 * m.to + usize::from(inbound)
}

impl Backlog {
    /// An empty backlog over `endpoints` endpoints, none of them with a
    /// free dock until [`Backlog::set_dock_free`] says so.
    pub(crate) fn new(endpoints: usize) -> Self {
        let tree = Touched::new(vec![(u64::MAX, 0); 2 * endpoints.next_power_of_two()]);
        Self {
            groups: Touched::new(vec![Touched::default(); 2 * endpoints]),
            trees: [tree.clone(), tree],
            dock_free: Touched::new(vec![false; endpoints]),
            next_seq: 0,
            len: 0,
        }
    }

    /// A backlog holding `fifo` in order, over endpoints whose docks are
    /// free where `dock_free` says. Every movement's destination must be
    /// one of them. Each group is sized once, before its pushes, and each
    /// tree built once, after them.
    pub(crate) fn from_fifo(dock_free: Vec<bool>, fifo: &[Movement]) -> Self {
        let mut backlog = Self::new(dock_free.len());
        let mut sizes = vec![0; backlog.groups.len()];
        fifo.iter().for_each(|m| sizes[group_of(m)] += 1);
        for (group, size) in sizes.into_iter().enumerate() {
            backlog.groups[group].reserve_exact(size);
        }
        for (seq, &m) in (0..).zip(fifo) {
            backlog.groups[group_of(&m)].push_back((seq, m));
        }
        (backlog.next_seq, backlog.len) = (fifo.len() as u64, fifo.len());
        backlog.dock_free = Touched::new(dock_free);
        for group in 0..backlog.groups.len() {
            let (tree, to) = (group % 2, group / 2);
            let width = backlog.trees[tree].len() / 2;
            backlog.trees[tree][width + to] = backlog.leaf(group);
        }
        for tree in &mut backlog.trees {
            for i in (1..tree.len() / 2).rev() {
                tree[i] = tree[2 * i].min(tree[2 * i + 1]);
            }
        }
        backlog
    }

    /// Number of pending movements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-derives group `group`'s leaf from its head and dock state, and
    /// the leaf's ancestors from their children.
    fn refresh(&mut self, group: usize) {
        let leaf = self.leaf(group);
        let tree = &mut self.trees[group % 2];
        let mut i = tree.len() / 2 + group / 2;
        tree[i] = leaf;
        while i > 1 {
            i /= 2;
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
    }

    /// Group `group`'s leaf: its head's sequence number while it has one
    /// and its destination a free dock, else `u64::MAX`.
    fn leaf(&self, group: usize) -> (u64, EndpointId) {
        let to = group / 2;
        let head = self.groups[group].front().map(|&(seq, _)| seq);
        (head.filter(|_| self.dock_free[to]).unwrap_or(u64::MAX), to)
    }

    /// Records whether endpoint `ep` has a free dock.
    pub(crate) fn set_dock_free(&mut self, ep: EndpointId, free: bool) {
        if self.dock_free[ep] != free {
            self.dock_free[ep] = free;
            self.refresh(2 * ep);
            self.refresh(2 * ep + 1);
        }
    }

    /// Queues `m` behind every movement already pending.
    pub(crate) fn push(&mut self, m: Movement) {
        let group = group_of(&m);
        self.groups[group].push_back((self.next_seq, m));
        if self.groups[group].len() == 1 {
            self.refresh(group);
        }
        self.next_seq += 1;
        self.len += 1;
    }

    /// The sequence number and destination of the oldest movement bound in
    /// direction `d` to an endpoint with a free dock.
    pub(crate) fn oldest(&self, d: Direction) -> Option<(u64, EndpointId)> {
        Some(self.trees[d as usize][1]).filter(|&(seq, _)| seq != u64::MAX)
    }

    /// Removes and returns the movement [`Backlog::oldest`] names for `d`.
    pub(crate) fn pop(&mut self, d: Direction) -> Movement {
        let (_, to) = self.oldest(d).expect("a dock-free head");
        let group = 2 * to + d as usize;
        let (_, m) = self.groups[group].pop_front().expect("indexed group");
        self.refresh(group);
        self.len -= 1;
        m
    }

    /// Every pending movement in global FIFO order.
    pub(crate) fn to_fifo(&self) -> Vec<Movement> {
        // Sorting references moves a sixth of the bytes that sorting the
        // entries would.
        let groups = self.groups.iter().flat_map(Group::iter);
        let mut entries: Vec<&(u64, Movement)> = groups.collect();
        entries.sort_unstable_by_key(|&&(seq, _)| seq);
        entries.into_iter().map(|&(_, m)| m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EndpointKind, EndpointSpec, SimConfig};
    use dhl_rng::check::forall;
    use dhl_units::{Bytes, Metres, Seconds};

    const DIRECTIONS: [Direction; 2] = [Direction::Outbound, Direction::Inbound];

    fn mv(cart: usize, from: EndpointId, to: EndpointId) -> Movement {
        Movement {
            cart,
            from,
            to,
            payload: Bytes::ZERO,
            attempt: 0,
        }
    }

    /// A backlog holding `fifo` with every dock free.
    fn all_free(endpoints: usize, fifo: &[Movement]) -> Backlog {
        Backlog::from_fifo(vec![true; endpoints], fifo)
    }

    #[test]
    fn groups_split_by_direction_and_destination() {
        let fifo = [
            mv(0, 0, 2),
            mv(1, 2, 0),
            mv(2, 0, 1),
            mv(3, 0, 2),
            mv(4, 1, 0),
        ];
        let mut backlog = all_free(3, &fifo);
        assert_eq!(backlog.len(), 5);
        assert_eq!(backlog.oldest(Direction::Outbound), Some((0, 2)));
        assert_eq!(backlog.oldest(Direction::Inbound), Some((1, 0)));
        // A full destination hides its group; cart 3 queues behind cart 0
        // in a group, so the next outbound head is cart 2's.
        backlog.set_dock_free(2, false);
        assert_eq!(backlog.oldest(Direction::Outbound), Some((2, 1)));
        backlog.set_dock_free(0, false);
        assert_eq!(backlog.oldest(Direction::Inbound), None);
        assert_eq!(backlog.to_fifo(), fifo.to_vec());
    }

    #[test]
    fn pop_takes_a_group_front_and_keeps_the_global_order() {
        let fifo = [mv(0, 0, 2), mv(1, 2, 0), mv(2, 0, 2), mv(3, 0, 1)];
        let mut backlog = all_free(3, &fifo);
        assert_eq!(backlog.pop(Direction::Outbound), fifo[0]);
        assert_eq!(backlog.pop(Direction::Outbound), fifo[2]);
        assert_eq!(backlog.oldest(Direction::Outbound), Some((3, 1)));
        assert_eq!(backlog.to_fifo(), vec![fifo[1], fifo[3]]);
        backlog.push(mv(4, 0, 2));
        assert_eq!(backlog.to_fifo(), vec![fifo[1], fifo[3], mv(4, 0, 2)]);
        assert_eq!(backlog.len(), 3);
        assert!(!backlog.is_empty());
    }

    /// The rule the index replaces: scanning every pending movement in
    /// FIFO order, the first one in direction `d` whose destination has a
    /// free dock.
    fn scan(fifo: &[(u64, Movement)], dock_free: &[bool], d: Direction) -> Option<(u64, usize)> {
        fifo.iter()
            .find(|(_, m)| DhlSystem::direction_of(m.from, m.to) == d && dock_free[m.to])
            .map(|&(seq, m)| (seq, m.to))
    }

    #[test]
    fn oldest_matches_a_full_scan_under_random_operations() {
        forall("backlog index matches a full scan", 256, |g| {
            let endpoints = g.usize_in(1, 71);
            let mut backlog = Backlog::new(endpoints);
            let mut fifo: Vec<(u64, Movement)> = Vec::new();
            let mut dock_free = vec![false; endpoints];
            let mut next_seq = 0u64;
            for _ in 0..g.usize_in(0, 400) {
                match g.usize_in(0, 4) {
                    0 | 1 if endpoints > 1 => {
                        let from = g.usize_in(0, endpoints);
                        let to = (from + g.usize_in(1, endpoints)) % endpoints;
                        let m = mv(next_seq as usize, from, to);
                        backlog.push(m);
                        fifo.push((next_seq, m));
                        next_seq += 1;
                    }
                    2 => {
                        let d = DIRECTIONS[usize::from(g.bool())];
                        if let Some((seq, _)) = scan(&fifo, &dock_free, d) {
                            let at = fifo.iter().position(|&(s, _)| s == seq).expect("seq");
                            assert_eq!(backlog.pop(d), fifo.remove(at).1);
                        }
                    }
                    _ => {
                        let ep = g.usize_in(0, endpoints);
                        dock_free[ep] = g.bool();
                        backlog.set_dock_free(ep, dock_free[ep]);
                    }
                }
                for d in DIRECTIONS {
                    assert_eq!(backlog.oldest(d), scan(&fifo, &dock_free, d), "{d:?}");
                }
                assert_eq!(backlog.len(), fifo.len());
            }
            let pending: Vec<Movement> = fifo.iter().map(|&(_, m)| m).collect();
            assert_eq!(backlog.to_fifo(), pending);
            let rebuilt = Backlog::from_fifo(dock_free.clone(), &backlog.to_fifo());
            for d in DIRECTIONS {
                let before = backlog.oldest(d).map(|(_, to)| to);
                assert_eq!(rebuilt.oldest(d).map(|(_, to)| to), before, "{d:?}");
            }
            assert_eq!(rebuilt.to_fifo(), pending);
            assert_eq!(rebuilt.len(), pending.len());
        });
    }

    /// A campus and the data owed to each of its racks.
    type Campus = (SimConfig, Vec<(EndpointId, Bytes)>);

    /// A library and `racks` racks of 4 docks 300 m apart, with `carts`
    /// carts and `petabytes` owed to each rack.
    fn campus(racks: usize, carts: u32, petabytes: f64) -> Campus {
        let mut cfg = SimConfig::paper_default();
        cfg.num_carts = carts;
        cfg.endpoints = vec![EndpointSpec {
            position: Metres::ZERO,
            docks: carts,
            kind: EndpointKind::Library,
        }];
        for rack in 1..=racks {
            cfg.endpoints.push(EndpointSpec {
                position: Metres::new(300.0 * rack as f64),
                docks: 4,
                kind: EndpointKind::Rack,
            });
        }
        let demands = (1..=racks)
            .map(|rack| (rack, Bytes::from_petabytes(petabytes)))
            .collect();
        (cfg, demands)
    }

    /// `(entries touched, events)` over one whole campus mission.
    fn touched_and_events((cfg, demands): &Campus) -> (u64, u64) {
        TOUCHED.with(|n| n.set(0));
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid campus");
        sys.begin_multi_rack(demands).expect("mission accepted");
        sys.run_until(Seconds::new(f64::INFINITY)).expect("runs");
        let events = sys.finish().events_processed;
        (TOUCHED.with(std::cell::Cell::get), events)
    }

    /// Per DES event, the larger campus touches at most `bound` times the
    /// entries the smaller one touches.
    fn assert_per_event_within(small: (u64, u64), large: (u64, u64), bound: f64) {
        let per_event = |(touched, events): (u64, u64)| touched as f64 / events as f64;
        let ratio = per_event(large) / per_event(small);
        assert!(
            ratio < bound,
            "{large:?} vs {small:?}: {ratio:.3}x (bound {bound}x)"
        );
    }

    /// Choosing a launch reads two roots, and a push, pop or dock change
    /// refreshes a leaf and its ancestors, whatever the number of carts
    /// waiting. A full 128-cart fleet toggles its racks' docks more often
    /// than 32 carts do, so it touches 1.10x as much per event; a scan of
    /// the pending movements grows with the carts waiting in it.
    #[test]
    fn choosing_a_launch_does_not_grow_with_the_backlog() {
        let small = touched_and_events(&campus(16, 32, 16.0));
        let large = touched_and_events(&campus(16, 128, 16.0));
        assert_per_event_within(small, large, 1.25);
        assert_eq!(small, (80_322, 7_056));
        assert_eq!(large, (88_258, 7_056));
    }

    /// Eight times the racks deepen each tree from 5 to 8 levels, so the
    /// count grows as their logarithm (1.31x per event); a scan of the
    /// groups grows with their number.
    #[test]
    fn choosing_a_launch_grows_as_the_log_of_the_racks() {
        let small = touched_and_events(&campus(8, 64, 32.0));
        let large = touched_and_events(&campus(64, 512, 32.0));
        assert_per_event_within(small, large, 2.0);
        assert_eq!(small, (79_938, 7_000));
        assert_eq!(large, (840_802, 56_000));
    }
}
