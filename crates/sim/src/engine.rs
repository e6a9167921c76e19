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
//! # Implementation: a sorted run, or a heap when deep
//!
//! Pending events are `(time, seq, event)` slots. `seq` is the insertion
//! counter, so `(time, seq)` is a total order: equal times pop first-in
//! first-out, and the pop order is a function of the schedule calls alone.
//! Checkpoints ([`EventQueue::pending_entries`] /
//! [`EventQueue::from_entries`]) carry that sorted logical view, never the
//! storage layout, so a restored queue has an identical future.
//!
//! Up to [`RUN_MAX`] slots sit in a `Vec` sorted latest-first: a pop is
//! `Vec::pop`, and a push scans back from the earliest end and inserts. No
//! perfbench run holds more than 25 (9 on `clean`, 25 on `faulty`, 10 on
//! `large`), so the simulator stays in this form. A deeper queue moves to a
//! [`BinaryHeap`] and back once a pop leaves [`HEAP_MIN`]; the gap keeps a
//! queue near the limit from converting on every push.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use dhl_units::Seconds;

/// The form limits: a run holds at most `RUN_MAX` slots, and a heap popped
/// down to `HEAP_MIN` turns back into a run.
const RUN_MAX: usize = 64;
const HEAP_MIN: usize = 16;

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
    /// The slots sorted latest-first, or empty while `heap` holds them.
    run: Vec<Slot<E>>,
    /// The slots of a deep queue, or empty.
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
            run: Vec::new(),
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
        self.run.len() + self.heap.len()
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
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
        let time = self.clamp(at);
        self.push(time, event);
    }

    /// `at`, or `now` if `at` is not a finite time from `now` on, counting
    /// the clamp unless `at` was `now` itself.
    fn clamp(&mut self, at: Seconds) -> f64 {
        if at.is_finite() && at.seconds() > self.now {
            return at.seconds();
        }
        if !(at.is_finite() && at.seconds() == self.now) {
            self.clamped += 1; // NaN, ±∞, and past times
        }
        self.now
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
        let due = |slot: &Slot<E>| slot.time <= limit.seconds();
        let slot = if self.heap.is_empty() {
            self.run.pop_if(|slot| due(slot))?
        } else {
            let slot = PeekMut::pop(self.heap.peek_mut().filter(|head| due(head))?);
            if self.heap.len() <= HEAP_MIN {
                self.switch_to_run();
            }
            slot
        };
        self.now = slot.time;
        self.processed = self.processed.saturating_add(1);
        Some((Seconds::new(slot.time), slot.event))
    }

    /// Peeks at the next event time without popping.
    #[must_use]
    pub fn next_time(&self) -> Option<Seconds> {
        let head = self.run.last().or(self.heap.peek());
        head.map(|slot| Seconds::new(slot.time))
    }

    /// The pending entries as `(time, seq, event)` in deterministic pop
    /// order — the exact order [`EventQueue::pop`] would drain them, since
    /// `(time, seq)` is a total order. This is the checkpoint view of the
    /// queue: feeding it back through [`EventQueue::from_entries`] rebuilds
    /// a queue with an identical future.
    #[must_use]
    pub fn pending_entries(&self) -> Vec<(Seconds, u64, &E)> {
        let mut slots: Vec<&Slot<E>> = self.run.iter().chain(&self.heap).collect();
        // `Slot` orders latest-first; reverse it back.
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
        for (time, entry_seq, event) in entries {
            let time = queue.clamp(time);
            queue.run.push(Slot {
                time,
                seq: entry_seq,
                event,
            });
            queue.seq = queue.seq.max(entry_seq.saturating_add(1));
        }
        queue.run.sort_unstable();
        if queue.run.len() > RUN_MAX {
            queue.switch_to_heap();
        }
        queue
    }

    fn push(&mut self, time: f64, event: E) {
        let slot = Slot {
            time,
            seq: self.seq,
            event,
        };
        self.seq = self.seq.saturating_add(1);
        if self.heap.is_empty() {
            // The new slot has the largest `seq`, so it pops after every
            // slot at its time.
            let before = self.run.iter().rev().take_while(|s| s.time <= time).count();
            self.run.insert(self.run.len() - before, slot);
            if self.run.len() > RUN_MAX {
                self.switch_to_heap();
            }
        } else {
            self.heap.push(slot);
        }
    }

    #[cold]
    fn switch_to_heap(&mut self) {
        self.heap = BinaryHeap::from(std::mem::take(&mut self.run));
    }

    #[cold]
    fn switch_to_run(&mut self) {
        self.run = std::mem::take(&mut self.heap).into_sorted_vec();
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
    fn counters_at_the_top_of_their_range_saturate() {
        let mut q = EventQueue::from_entries(
            Seconds::ZERO,
            0,
            u64::MAX,
            vec![(Seconds::new(1.0), u64::MAX, 'a')],
        );
        assert_eq!(q.next_seq(), u64::MAX);
        assert_eq!(q.pop(), Some((Seconds::new(1.0), 'a')));
        assert_eq!(q.events_processed(), u64::MAX);
        q.schedule(Seconds::ZERO, 'b');
        assert_eq!(q.next_seq(), u64::MAX);
    }

    #[test]
    fn set_clamped_restores_checkpointed_count() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.clamped(), 0);
        q.set_clamped(7);
        assert_eq!(q.clamped(), 7);
    }

    #[test]
    fn forms_switch_at_the_limits_only() {
        let mut q = EventQueue::new();
        for i in 0..RUN_MAX {
            q.schedule(Seconds::new(i as f64), i);
        }
        assert!(q.heap.is_empty(), "a run holds up to RUN_MAX");
        q.schedule(Seconds::ZERO, RUN_MAX);
        assert!(q.run.is_empty(), "one more makes a heap");
        while q.pending() > HEAP_MIN + 1 {
            q.pop();
        }
        q.schedule(Seconds::ZERO, 0);
        q.pop();
        assert!(q.run.is_empty(), "a heap above HEAP_MIN stays one");
        q.pop();
        assert!(q.heap.is_empty(), "a pop down to HEAP_MIN makes a run");
        assert_eq!(q.pending(), HEAP_MIN);
    }

    #[test]
    fn pending_entries_read_the_same_from_a_run_and_a_heap() {
        // Dense ties, so the order rests on `seq` as much as on `time`.
        let mut heap = EventQueue::new();
        for i in 0..=RUN_MAX {
            heap.schedule(Seconds::new((i % 5) as f64), i);
        }
        heap.pop();
        assert!(heap.run.is_empty());
        let entries: Vec<(Seconds, u64, usize)> = heap
            .pending_entries()
            .into_iter()
            .map(|(t, s, &e)| (t, s, e))
            .collect();
        let mut run = EventQueue::from_entries(heap.now(), heap.next_seq(), 1, entries.clone());
        assert!(run.heap.is_empty());
        assert!(run
            .pending_entries()
            .into_iter()
            .map(|(t, s, &e)| (t, s, e))
            .eq(entries.iter().copied()));
        let drain = |q: &mut EventQueue<usize>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut run), drain(&mut heap));
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
