//! A minimal, deterministic discrete-event engine.
//!
//! [`EventQueue`] is a time-ordered priority queue with a monotonic clock.
//! Ties are broken by insertion order, so simulations are fully
//! deterministic. The simulation loop lives with the caller:
//!
//! ```rust
//! use dhl_sim::engine::EventQueue;
//! use dhl_units::Seconds;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(Seconds::new(2.0), Ev::Pong);
//! q.schedule(Seconds::new(1.0), Ev::Ping);
//! let mut order = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     order.push((t.seconds(), ev));
//! }
//! assert_eq!(order, vec![(1.0, Ev::Ping), (2.0, Ev::Pong)]);
//! ```
//!
//! # Implementation: one binary heap
//!
//! Pending events are `(time, seq, event)` slots in a
//! [`BinaryHeap`], earliest first. `seq` is the insertion counter, so
//! `(time, seq)` is a total order: equal times pop first-in first-out,
//! and the pop order is a function of the schedule calls alone.
//! Checkpoints ([`EventQueue::pending_entries`] /
//! [`EventQueue::from_entries`]) carry that sorted logical view, never the
//! heap's layout, so a restored queue has an identical future.
//!
//! A heap suits the traffic the simulator makes. The deepest pending set
//! over a whole perfbench run is 9 events on `clean`, 25 on `faulty` and
//! 10 on `large`, so a pop is a handful of compares.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use dhl_units::Seconds;

/// A pending event: fires at `time`, FIFO within equal times.
struct Slot<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Slot<E> {}

impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first. Every
        // schedule path clamps into `[now, ∞)`, so times are finite.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are always finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, time-ordered event queue with a simulation clock.
///
/// The clock only moves forward: popping an event advances `now` to the
/// event's timestamp. Scheduling into the past is rejected.
pub struct EventQueue<E> {
    heap: BinaryHeap<Slot<E>>,
    now: f64,
    seq: u64,
    processed: u64,
    /// NaN/negative/past schedules coerced to `now`. Surfaced as the
    /// `sim.events_clamped` metric so silent coercion is observable.
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
            clamped: 0,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        Seconds::new(self.now)
    }

    /// Number of events popped so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The sequence number the next scheduled event will receive — part of
    /// the queue's checkpoint state (see [`EventQueue::from_entries`]).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules whose NaN/negative/past timestamps were clamped to `now`
    /// instead of firing when asked. Part of the checkpoint state: see
    /// [`EventQueue::set_clamped`].
    #[must_use]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Restores the clamped-schedule count from a checkpoint (the one piece
    /// of queue state [`EventQueue::from_entries`] cannot reconstruct from
    /// the entries themselves).
    pub fn set_clamped(&mut self, clamped: u64) {
        self.clamped = clamped;
    }

    /// Schedules `event` to fire `delay` after the current time.
    ///
    /// A NaN, infinite or negative delay is a caller bug (bad config
    /// arithmetic or a corrupted checkpoint): debug and release builds alike
    /// clamp it to zero — counting the coercion in [`EventQueue::clamped`] —
    /// so the queue cannot be wedged with an unpoppable or time-travelling
    /// entry.
    pub fn schedule(&mut self, delay: Seconds, event: E) {
        let delay_s = if delay.is_finite() && delay.seconds() > 0.0 {
            delay.seconds()
        } else {
            if !(delay.is_finite() && delay.seconds() == 0.0) {
                self.clamped += 1; // NaN, ±∞, and negative delays
            }
            0.0 // all coerce to "now"
        };
        self.push(self.now + delay_s, event);
    }

    /// Schedules `event` at an absolute simulation time.
    ///
    /// A non-finite or past `at` is a caller bug: it is clamped to the
    /// current time and counted (see [`EventQueue::schedule`]).
    pub fn schedule_at(&mut self, at: Seconds, event: E) {
        let time = if at.is_finite() && at.seconds() > self.now {
            at.seconds()
        } else {
            if !(at.is_finite() && at.seconds() == self.now) {
                self.clamped += 1; // NaN, ±∞, and past times
            }
            self.now
        };
        self.push(time, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        self.pop_at_or_before(Seconds::new(f64::INFINITY))
    }

    /// Pops the earliest event only if it fires at or before `limit`,
    /// advancing the clock to its timestamp. Returns `None` when the queue
    /// is empty *or* the next event lies beyond `limit` — one peek either
    /// way, where a peek-then-pop pair would look twice.
    pub fn pop_at_or_before(&mut self, limit: Seconds) -> Option<(Seconds, E)> {
        let head = self.heap.peek_mut()?;
        if head.time > limit.seconds() {
            return None;
        }
        let slot = PeekMut::pop(head);
        self.now = slot.time;
        self.processed += 1;
        Some((Seconds::new(slot.time), slot.event))
    }

    /// Peeks at the next event time without popping.
    #[must_use]
    pub fn next_time(&self) -> Option<Seconds> {
        self.heap.peek().map(|slot| Seconds::new(slot.time))
    }

    /// The pending entries as `(time, seq, event)` in deterministic pop
    /// order — the exact order [`EventQueue::pop`] would drain them, since
    /// `(time, seq)` is a total order. This is the checkpoint view of the
    /// queue: feeding it back through [`EventQueue::from_entries`] rebuilds
    /// a queue with an identical future.
    #[must_use]
    pub fn pending_entries(&self) -> Vec<(Seconds, u64, &E)> {
        let mut slots: Vec<&Slot<E>> = self.heap.iter().collect();
        // `Slot` orders latest-first for the max-heap; reverse it back.
        slots.sort_by(|a, b| b.cmp(a));
        slots
            .into_iter()
            .map(|slot| (Seconds::new(slot.time), slot.seq, &slot.event))
            .collect()
    }

    /// Rebuilds a queue from checkpointed state: the clock, the next
    /// sequence number, the processed-event count, and the pending entries
    /// with their original sequence numbers. Pop order is identical to the
    /// queue the state was exported from because `(time, seq)` totally
    /// orders entries.
    ///
    /// Corrupted input is tolerated, not trusted: entry times are clamped
    /// into `[now, ∞)` (NaN → `now`, counted in [`EventQueue::clamped`])
    /// and the sequence counter is advanced past every restored entry so
    /// future schedules cannot collide.
    #[must_use]
    pub fn from_entries(
        now: Seconds,
        seq: u64,
        processed: u64,
        entries: impl IntoIterator<Item = (Seconds, u64, E)>,
    ) -> Self {
        let now_s = if now.is_finite() && now.seconds() > 0.0 {
            now.seconds()
        } else {
            0.0
        };
        let mut queue = Self::new();
        queue.now = now_s;
        queue.seq = seq;
        queue.processed = processed;
        let mut slots = Vec::new();
        for (time, entry_seq, event) in entries {
            let time_s = if time.is_finite() && time.seconds() > now_s {
                time.seconds()
            } else {
                if !(time.is_finite() && time.seconds() == now_s) {
                    queue.clamped += 1;
                }
                now_s
            };
            slots.push(Slot {
                time: time_s,
                seq: entry_seq,
                event,
            });
            queue.seq = queue.seq.max(entry_seq + 1);
        }
        queue.heap = BinaryHeap::from(slots);
        queue
    }

    fn push(&mut self, time: f64, event: E) {
        self.heap.push(Slot {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .field("clamped", &self.clamped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(3.0), "c");
        q.schedule(Seconds::new(1.0), "a");
        q.schedule(Seconds::new(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Seconds::new(5.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(1.5), ());
        q.schedule(Seconds::new(0.5), ());
        assert_eq!(q.now().seconds(), 0.0);
        q.pop();
        assert_eq!(q.now().seconds(), 0.5);
        q.pop();
        assert_eq!(q.now().seconds(), 1.5);
        assert!(q.pop().is_none());
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(10.0), "first");
        q.pop();
        q.schedule(Seconds::new(5.0), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.seconds(), 15.0);
    }

    #[test]
    fn negative_delay_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(10.0), "first");
        q.pop();
        q.schedule(Seconds::new(-1.0), "negative");
        assert_eq!(q.clamped(), 1);
        let (t, ev) = q.pop().unwrap();
        assert_eq!((t.seconds(), ev), (10.0, "negative"));
    }

    #[test]
    fn scheduling_into_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(10.0), "first");
        q.pop();
        q.schedule_at(Seconds::new(5.0), "past");
        assert_eq!(q.clamped(), 1);
        let (t, ev) = q.pop().unwrap();
        assert_eq!((t.seconds(), ev), (10.0, "past"));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(2.0), ());
        assert_eq!(q.next_time().unwrap().seconds(), 2.0);
        assert_eq!(q.now().seconds(), 0.0);
        assert_eq!(q.pending(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_at_or_before_includes_the_limit_and_no_later() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(2.0), "at");
        q.schedule(Seconds::new(3.0), "after");
        assert_eq!(q.pop_at_or_before(Seconds::new(1.5)), None);
        assert_eq!(q.now().seconds(), 0.0, "a refused pop leaves the clock");
        assert_eq!(
            q.pop_at_or_before(Seconds::new(2.0)),
            Some((Seconds::new(2.0), "at"))
        );
        assert_eq!(q.pop_at_or_before(Seconds::new(2.5)), None);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.events_processed(), 1);
        assert_eq!(
            q.pop_at_or_before(Seconds::new(f64::INFINITY)),
            Some((Seconds::new(3.0), "after"))
        );
        assert_eq!(q.pop_at_or_before(Seconds::new(f64::INFINITY)), None);
    }

    #[test]
    fn debug_output_is_informative() {
        let q: EventQueue<()> = EventQueue::new();
        let s = format!("{q:?}");
        assert!(s.contains("now"));
        assert!(s.contains("pending"));
    }

    #[test]
    fn bad_delays_clamp_to_now_and_are_counted() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(10.0), "later");
        assert_eq!(q.clamped(), 0);
        q.schedule(Seconds::new(f64::NAN), "nan");
        q.schedule(Seconds::new(-5.0), "negative");
        assert_eq!(q.clamped(), 2);
        let (t, ev) = q.pop().unwrap();
        assert_eq!((t.seconds(), ev), (0.0, "nan"));
        let (t, ev) = q.pop().unwrap();
        assert_eq!((t.seconds(), ev), (0.0, "negative"));
        q.schedule_at(Seconds::new(-1.0), "past");
        assert_eq!(q.clamped(), 3);
        let (t, ev) = q.pop().unwrap();
        assert_eq!((t.seconds(), ev), (0.0, "past"));
        // A zero delay and a schedule at exactly `now` are legitimate, not
        // clamps.
        q.schedule(Seconds::ZERO, "zero");
        q.schedule_at(q.now(), "at-now");
        assert_eq!(q.clamped(), 3);
    }

    #[test]
    fn snapshot_and_restore_reproduce_pop_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(3.0), 'c');
        q.schedule(Seconds::new(1.0), 'a');
        q.schedule(Seconds::new(1.0), 'b'); // FIFO tie with 'a'
        q.pop(); // advance the clock to 1.0, consuming 'a'
        let entries: Vec<(Seconds, u64, char)> = q
            .pending_entries()
            .into_iter()
            .map(|(t, s, &e)| (t, s, e))
            .collect();
        assert_eq!(
            entries
                .iter()
                .map(|&(t, _, e)| (t.seconds(), e))
                .collect::<Vec<_>>(),
            vec![(1.0, 'b'), (3.0, 'c')],
            "entries come back in pop order"
        );
        let mut restored = EventQueue::from_entries(q.now(), 99, q.events_processed(), entries);
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.events_processed(), 1);
        assert_eq!(restored.pending(), 2);
        let rest: Vec<_> = std::iter::from_fn(|| restored.pop())
            .map(|(_, e)| e)
            .collect();
        let orig: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, orig);
    }

    #[test]
    fn restore_advances_seq_past_entries_and_sanitises_times() {
        // seq 5 < entry seq 7: the counter must jump past it.
        let mut q = EventQueue::from_entries(
            Seconds::new(2.0),
            5,
            0,
            vec![
                (Seconds::new(4.0), 7u64, "ok"),
                (Seconds::new(1.0), 3, "past, clamped to now"),
            ],
        );
        assert_eq!(q.clamped(), 1, "the past entry counts as a clamp");
        assert_eq!(q.next_seq(), 8, "the counter jumps past seq 7");
        q.schedule(Seconds::new(0.0), "new"); // gets seq 8
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.seconds(), e))
            .collect();
        assert_eq!(
            order,
            vec![(2.0, "past, clamped to now"), (2.0, "new"), (4.0, "ok"),]
        );
    }

    #[test]
    fn set_clamped_restores_checkpointed_count() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.clamped(), 0);
        q.set_clamped(7);
        assert_eq!(q.clamped(), 7);
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        // Times twelve orders of magnitude apart, scheduled out of order.
        for (i, t) in [1.0e9, 3.0, 1.0e6, 2.0e12, 50.0].iter().enumerate() {
            q.schedule(Seconds::new(*t), i);
        }
        assert_eq!(q.next_time().unwrap().seconds(), 3.0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.seconds(), e))
            .collect();
        assert_eq!(
            order,
            vec![(3.0, 1), (50.0, 4), (1.0e6, 2), (1.0e9, 0), (2.0e12, 3)]
        );
    }

    #[test]
    fn short_delays_after_a_far_pop_keep_order() {
        // Pop far ahead, then schedule short delays from the new `now`:
        // they must still pop before another far event.
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(1.0e7), "far");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.seconds(), 1.0e7);
        q.schedule(Seconds::new(2.0), "b");
        q.schedule(Seconds::new(1.0), "a");
        q.schedule(Seconds::new(1.0e7), "far again");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "far again"]);
    }

    #[test]
    fn deep_backlog_with_ties_drains_sorted() {
        // Push a few thousand events, then drain, checking full
        // sortedness throughout.
        let mut q = EventQueue::new();
        let mut t = 0.0;
        for i in 0..4096 {
            // Deterministic scatter with exact ties every 8th event.
            t += if i % 8 == 0 {
                0.0
            } else {
                0.125 * f64::from(i % 7)
            };
            q.schedule_at(Seconds::new(t), i);
        }
        assert_eq!(q.pending(), 4096);
        let drained: Vec<(f64, i32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.seconds(), e))
            .collect();
        assert_eq!(drained.len(), 4096);
        for pair in drained.windows(2) {
            assert!(
                pair[0].0 < pair[1].0 || (pair[0].0 == pair[1].0 && pair[0].1 < pair[1].1),
                "out of order: {pair:?}"
            );
        }
    }

    #[test]
    fn matches_min_scan_oracle_on_mixed_churn() {
        // A compact inline differential check against a `Vec` popped by a
        // linear min-scan on `(time, seq)`; the randomized deep version
        // lives in tests/queue_equivalence.rs.
        let mut q = EventQueue::new();
        let mut oracle: Vec<(f64, u64, u32)> = Vec::new();
        let oracle_pop = |oracle: &mut Vec<(f64, u64, u32)>| {
            let head = (0..oracle.len()).min_by(|&a, &b| {
                let (x, y) = (oracle[a], oracle[b]);
                x.0.total_cmp(&y.0).then(x.1.cmp(&y.1))
            })?;
            let (t, _, id) = oracle.swap_remove(head);
            Some((Seconds::new(t), id))
        };
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..2000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delay = ((x >> 11) % 1000) as f64 / 64.0; // quantized: many ties
            oracle.push((q.now().seconds() + delay, u64::from(i), i));
            q.schedule(Seconds::new(delay), i);
            if x.is_multiple_of(3) {
                assert_eq!(q.pop(), oracle_pop(&mut oracle));
            }
        }
        loop {
            let (a, b) = (q.pop(), oracle_pop(&mut oracle));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
