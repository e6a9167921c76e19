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

use crate::system::{DhlSystem, Direction, EndpointId, Movement};

/// Pending launches, one FIFO per (direction, destination) group.
pub(crate) struct Backlog {
    /// Group `2 * to + d` holds the movements bound for endpoint `to` in
    /// direction `d` (0 outbound, 1 inbound), oldest first.
    groups: Vec<VecDeque<(u64, Movement)>>,
    /// Per direction, a tournament tree over destinations (see the module
    /// docs): `tree[width + to]` is leaf `to`, and node `i` holds
    /// `(sequence number, destination)`, the smaller of nodes `2i` and
    /// `2i + 1`.
    trees: [Vec<(u64, EndpointId)>; 2],
    /// Whether each endpoint has a free dock.
    dock_free: Vec<bool>,
    next_seq: u64,
    len: usize,
}

fn group_of(m: &Movement) -> usize {
    let inbound = DhlSystem::direction_of(m.from, m.to) == Direction::Inbound;
    2 * m.to + usize::from(inbound)
}

impl Backlog {
    /// An empty backlog over `endpoints` endpoints, none of them with a
    /// free dock until [`Backlog::set_dock_free`] says so.
    pub(crate) fn new(endpoints: usize) -> Self {
        let tree = vec![(u64::MAX, 0); 2 * endpoints.next_power_of_two()];
        Self {
            groups: vec![VecDeque::new(); 2 * endpoints],
            trees: [tree.clone(), tree],
            dock_free: vec![false; endpoints],
            next_seq: 0,
            len: 0,
        }
    }

    /// A backlog over `endpoints` endpoints holding `fifo` in order.
    /// Every movement's destination must be below `endpoints`. Each group
    /// is sized once, before its pushes.
    pub(crate) fn from_fifo(endpoints: usize, fifo: &[Movement]) -> Self {
        let mut backlog = Self::new(endpoints);
        let mut sizes = vec![0; backlog.groups.len()];
        fifo.iter().for_each(|m| sizes[group_of(m)] += 1);
        let groups = backlog.groups.iter_mut().zip(sizes);
        groups.for_each(|(group, size)| group.reserve_exact(size));
        fifo.iter().for_each(|&m| backlog.push(m));
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
        let to = group / 2;
        let head = self.groups[group].front().map(|&(seq, _)| seq);
        let tree = &mut self.trees[group % 2];
        let mut i = tree.len() / 2 + to;
        tree[i] = (head.filter(|_| self.dock_free[to]).unwrap_or(u64::MAX), to);
        while i > 1 {
            i /= 2;
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
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
        let mut entries: Vec<(u64, Movement)> = self.groups.iter().flatten().copied().collect();
        entries.sort_unstable_by_key(|&(seq, _)| seq);
        entries.into_iter().map(|(_, m)| m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_rng::check::forall;
    use dhl_units::Bytes;

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
        let mut backlog = Backlog::from_fifo(endpoints, fifo);
        for ep in 0..endpoints {
            backlog.set_dock_free(ep, true);
        }
        backlog
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
            let rebuilt = Backlog::from_fifo(endpoints, &backlog.to_fifo());
            assert_eq!(rebuilt.to_fifo(), pending);
            assert_eq!(rebuilt.len(), pending.len());
        });
    }
}
