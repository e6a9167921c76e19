//! The pending-launch backlog, indexed by launch group.
//!
//! Movements wait here until the launch rule lets them go. The rule reads
//! only two things about a movement: whether its destination has a free
//! dock (`dock_used[to]`) and whether the track its direction uses is free
//! (`check_track(direction)`). So every movement that shares a
//! *launch group* — a (direction, destination) pair — passes or fails the
//! test together, and only the oldest movement of each group can be the
//! next to launch.
//!
//! [`Backlog`] therefore keeps one FIFO per group, tags each entry with a
//! global sequence number (the order a single FIFO would have kept), and
//! lists the non-empty groups with the sequence number of each one's
//! oldest entry. Choosing a launch walks that dense list — at most two
//! groups per endpoint — instead of the whole backlog, and removing the
//! chosen movement pops a group's front instead of shifting the middle of
//! one long queue. The global order survives intact:
//! [`Backlog::to_fifo`] merges the groups back by sequence number for
//! checkpoint capture, and [`Backlog::from_fifo`] rebuilds the index on
//! resume.

use std::collections::VecDeque;

use crate::system::{DhlSystem, Direction, EndpointId, Movement};

/// The oldest movement of one non-empty launch group.
pub(crate) struct Head {
    /// Where the group sits in the live list, to hand back to
    /// [`Backlog::pop`].
    pub(crate) slot: usize,
    /// Position of the movement in global FIFO order.
    pub(crate) seq: u64,
    pub(crate) to: EndpointId,
    pub(crate) direction: Direction,
}

/// Pending launches, one FIFO per (direction, destination) group.
pub(crate) struct Backlog {
    /// Group `2 * to + d` holds the movements bound for endpoint `to` in
    /// direction `d` (0 outbound, 1 inbound), oldest first.
    groups: Vec<VecDeque<(u64, Movement)>>,
    /// The non-empty groups, in no particular order, each with the
    /// sequence number of its oldest entry.
    live: Vec<Live>,
    next_seq: u64,
    len: usize,
}

struct Live {
    group: usize,
    head: u64,
}

fn group_of(m: &Movement) -> usize {
    let inbound = DhlSystem::direction_of(m.from, m.to) == Direction::Inbound;
    2 * m.to + usize::from(inbound)
}

impl Backlog {
    /// An empty backlog over `endpoints` endpoints.
    pub(crate) fn new(endpoints: usize) -> Self {
        Self {
            groups: vec![VecDeque::new(); 2 * endpoints],
            live: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// A backlog over `endpoints` endpoints holding `fifo` in order.
    /// Every movement's destination must be below `endpoints`.
    pub(crate) fn from_fifo(endpoints: usize, fifo: impl IntoIterator<Item = Movement>) -> Self {
        let mut backlog = Self::new(endpoints);
        for m in fifo {
            backlog.push(m);
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

    /// Queues `m` behind every movement already pending.
    pub(crate) fn push(&mut self, m: Movement) {
        let group = group_of(&m);
        let fifo = &mut self.groups[group];
        if fifo.is_empty() {
            self.live.push(Live {
                group,
                head: self.next_seq,
            });
        }
        fifo.push_back((self.next_seq, m));
        self.next_seq += 1;
        self.len += 1;
    }

    /// The oldest movement of every non-empty group.
    pub(crate) fn heads(&self) -> impl Iterator<Item = Head> + '_ {
        self.live.iter().enumerate().map(|(slot, live)| Head {
            slot,
            seq: live.head,
            to: live.group / 2,
            direction: if live.group % 2 == 0 {
                Direction::Outbound
            } else {
                Direction::Inbound
            },
        })
    }

    /// Removes and returns the oldest movement of the group in live-list
    /// slot `slot` (a [`Head::slot`] from the current [`Backlog::heads`]).
    pub(crate) fn pop(&mut self, slot: usize) -> Movement {
        let live = &mut self.live[slot];
        let fifo = &mut self.groups[live.group];
        let (_, m) = fifo.pop_front().expect("live groups are non-empty");
        match fifo.front() {
            Some(&(next, _)) => live.head = next,
            None => {
                self.live.swap_remove(slot);
            }
        }
        self.len -= 1;
        m
    }

    /// Every pending movement in global FIFO order.
    pub(crate) fn to_fifo(&self) -> Vec<Movement> {
        let mut entries: Vec<(u64, Movement)> = self
            .live
            .iter()
            .flat_map(|live| self.groups[live.group].iter().copied())
            .collect();
        entries.sort_unstable_by_key(|&(seq, _)| seq);
        entries.into_iter().map(|(_, m)| m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_units::Bytes;

    fn mv(cart: usize, from: EndpointId, to: EndpointId) -> Movement {
        Movement {
            cart,
            from,
            to,
            payload: Bytes::ZERO,
            attempt: 0,
        }
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
        let backlog = Backlog::from_fifo(3, fifo);
        assert_eq!(backlog.len(), 5);
        let mut heads: Vec<(u64, EndpointId, Direction)> = backlog
            .heads()
            .map(|h| (h.seq, h.to, h.direction))
            .collect();
        heads.sort_unstable_by_key(|&(seq, ..)| seq);
        // Carts 3 and 4 queue behind the heads of their groups.
        assert_eq!(
            heads,
            vec![
                (0, 2, Direction::Outbound),
                (1, 0, Direction::Inbound),
                (2, 1, Direction::Outbound),
            ]
        );
        assert_eq!(backlog.to_fifo(), fifo.to_vec());
    }

    #[test]
    fn pop_takes_a_group_front_and_keeps_the_global_order() {
        let fifo = [mv(0, 0, 2), mv(1, 2, 0), mv(2, 0, 2), mv(3, 0, 1)];
        let mut backlog = Backlog::from_fifo(3, fifo);
        let slot = |b: &Backlog, seq| b.heads().find(|h| h.seq == seq).expect("head").slot;
        assert_eq!(backlog.pop(slot(&backlog, 0)), fifo[0]);
        assert_eq!(backlog.pop(slot(&backlog, 2)), fifo[2]);
        assert_eq!(backlog.heads().count(), 2, "emptied group left the list");
        assert_eq!(backlog.to_fifo(), vec![fifo[1], fifo[3]]);
        backlog.push(mv(4, 0, 2));
        assert_eq!(backlog.to_fifo(), vec![fifo[1], fifo[3], mv(4, 0, 2)]);
        assert_eq!(backlog.len(), 3);
        assert!(!backlog.is_empty());
    }
}
