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
//! # Implementation: wrapped calendar queue with an index-min overflow tier
//!
//! Internally the queue is a *calendar queue* (Brown, CACM 1988): pending
//! events live in an array of time buckets, each `width` seconds wide.
//! Every entry carries an integer cycle index `k = ⌊(time − base)/width⌋`
//! computed once at insertion; its bucket is `k mod nbuckets` (the
//! calendar *wraps*, so next-cycle events coexist in the array with
//! current-cycle ones), and a global cycle cursor pops entries whose `k`
//! matches it exactly. Because `k` is a single monotone function of time
//! and every pop-side comparison is on integers, there are no
//! floating-point boundary cases: the pop order `(k, time, seq)` provably
//! equals the total order `(time, seq)`. Scheduling is O(1); the cursor
//! bucket is sorted once on first pop and then drained from the back in
//! O(1) per event, so each bucket's memory is streamed once per cycle.
//! Events more than two cycles ahead land in an *overflow* vector with a
//! cached index-min key — the far-future fallback tier — and migrate into
//! the calendar once per cycle as the cursor approaches them; events
//! within the window never migrate at all.
//!
//! The structure is pure mechanism: pop order is the total order
//! `(time, seq)` regardless of bucket geometry, so determinism,
//! checkpoint/restore ([`EventQueue::pending_entries`] /
//! [`EventQueue::from_entries`] serialize the sorted logical view, not the
//! layout), and thread-invariance are unaffected by resizes or geometry
//! rebuilds. [`ReferenceQueue`] pins the previous `BinaryHeap`
//! implementation as a differential-testing and benchmarking oracle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dhl_units::Seconds;

/// A calendar-queue slot: fires at `time` in cycle `k`, FIFO within equal
/// times. `k` is computed once at insertion from the queue's current
/// `(base, width)` geometry and is what the pop path compares — exactly,
/// as an integer — against the cycle cursor. It is stored truncated to
/// `u32`: bucketed cycle indices always lie within two laps (< 2²¹
/// cycles) of the cursor, so comparing modulo 2³² is exact, and the
/// narrower field keeps the slot small enough that bucket sorts and
/// drains stream less memory. Overflow-tier slots re-derive their full
/// index from `time` at migration instead of trusting the truncation.
struct Slot<E> {
    time: f64,
    seq: u64,
    k: u32,
    event: E,
}

impl<E> Slot<E> {
    /// The total order `(time, seq)` as a pair of integers: event times
    /// are always non-negative and finite (every schedule path clamps
    /// through `now ≥ 0`, and IEEE addition of non-negatives never
    /// produces `-0.0`), so `f64::to_bits` is strictly monotone in the
    /// time and integer comparison avoids the branchy float path in the
    /// sort and insert hot loops.
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time.to_bits(), self.seq)
    }
}

/// A reference-queue entry: fires at `time`, FIFO within equal times.
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are always finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Smallest calendar size; also the size of a fresh queue.
const MIN_BUCKETS: usize = 16;
/// Largest calendar size (a runaway-growth backstop, not a capacity limit).
const MAX_BUCKETS: usize = 1 << 20;
/// Target bucket occupancy. A handful of entries per bucket keeps the pop
/// min-scan a few contiguous compares while dividing the bucket-header
/// array (the randomly-accessed part of a push) by the same factor, which
/// is what keeps it cache-resident under deep backlogs.
const TARGET_FILL: usize = 1024;
/// Window rebuilds tolerated against a non-empty overflow tier before the
/// bucket width is recalibrated — catches a width that has drifted far from
/// the actual event spacing without waiting for the occupancy thresholds.
const MAX_STALE_REBUILDS: u32 = 32;

/// A deterministic, time-ordered event queue with a simulation clock.
///
/// The clock only moves forward: popping an event advances `now` to the
/// event's timestamp. Scheduling into the past is rejected.
///
/// See the [module docs](self) for the calendar-queue internals; the
/// observable behaviour is identical to a `(time, seq)`-ordered heap.
pub struct EventQueue<E> {
    /// The wrapped calendar: a slot with cycle index `k` lives in bucket
    /// `k mod nbuckets` (`nbuckets` is always a power of two), unsorted
    /// except for the cursor bucket mid-drain.
    buckets: Vec<Vec<Slot<E>>>,
    /// Bucket width in simulated seconds.
    width: f64,
    /// `1 / width`, cached so cycle-index placement is a multiply.
    /// Placement only has to be *monotone* in time (a smaller-timed event
    /// can never get a larger `k`), which any fixed multiplier satisfies —
    /// it need not agree bit-for-bit with the division.
    inv_width: f64,
    /// Time origin of the cycle-index space: `k(t) = ⌊(t − base)·inv_width⌋`.
    /// Changes only on full rebuilds, which recompute every slot's `k`.
    base: f64,
    /// The global cycle cursor: only slots with `k == kcursor` are
    /// poppable, and late insertions whose time places below it are
    /// clamped onto it (they are still the minimum, so pop order is
    /// preserved). Monotone except on full rebuilds, which reset the
    /// whole `k`-space.
    kcursor: u64,
    /// Next `kcursor` value at which the overflow tier is swept for slots
    /// that now fall within the two-cycle placement horizon — once per
    /// lap of the calendar, so a sweep is amortized O(1) per pop.
    next_migrate: u64,
    /// Whether the cursor's bucket is currently sorted descending by key.
    /// The first pop from a bucket sorts it once; subsequent pops drain
    /// from the back in O(1), so each bucket's memory is streamed through
    /// once per lap instead of rescanned on every pop. Pushes that land
    /// on the sorted cursor bucket insert in position.
    cur_sorted: bool,
    /// Far-future events (placed two or more laps ahead), unsorted.
    overflow: Vec<Slot<E>>,
    /// Cached `(time.to_bits(), seq)` minimum over `overflow` — the
    /// index-min key of the fallback tier. Exact whenever `overflow` is
    /// non-empty: removals only happen wholesale during migration sweeps,
    /// which recompute it.
    overflow_min: Option<(u64, u64)>,
    /// Events currently stored in `buckets`.
    bucketed: usize,
    /// Migration sweeps since the last recalibration that left events
    /// stranded in overflow (see [`MAX_STALE_REBUILDS`]).
    stale_rebuilds: u32,
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
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            inv_width: 1.0,
            base: 0.0,
            kcursor: 0,
            next_migrate: MIN_BUCKETS as u64,
            cur_sorted: false,
            overflow: Vec::new(),
            overflow_min: None,
            bucketed: 0,
            stale_rebuilds: 0,
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
        self.bucketed + self.overflow.len()
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
        self.push_entry(self.now + delay_s, event);
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
        self.push_entry(time, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        self.pop_entry(f64::INFINITY)
    }

    /// Pops the earliest event only if it fires at or before `limit`,
    /// advancing the clock to its timestamp. Returns `None` when the queue
    /// is empty *or* the next event lies beyond `limit` — one bucket scan
    /// either way, where a peek-then-pop pair would scan twice.
    pub fn pop_at_or_before(&mut self, limit: Seconds) -> Option<(Seconds, E)> {
        self.pop_entry(limit.seconds())
    }

    /// Peeks at the next event time without popping.
    ///
    /// Read-only twin of the pop scan: walks cycles from the cursor until
    /// it finds a bucket whose minimum slot belongs to the cycle under
    /// inspection (bounded by the two-lap placement horizon), then takes
    /// the smaller of that and the overflow index-min — a freshly pushed
    /// bucketed slot may briefly place beyond an overflow slot that has
    /// not hit its migration sweep yet.
    #[must_use]
    pub fn next_time(&self) -> Option<Seconds> {
        let mut best = self.overflow_min;
        if self.bucketed > 0 {
            let mask = self.nbuckets() as u32 - 1;
            let mut k = self.kcursor;
            // Fast path: mid-drain the cursor bucket is sorted descending,
            // so its back element is the bucketed minimum — O(1), which
            // keeps peek-then-pop loops from rescanning the bucket.
            let sorted_head = if self.cur_sorted {
                self.buckets[(self.kcursor as u32 & mask) as usize]
                    .last()
                    .filter(|head| head.k == self.kcursor as u32)
            } else {
                None
            };
            let min_key = if let Some(head) = sorted_head {
                head.key()
            } else {
                loop {
                    let bucket = &self.buckets[(k as u32 & mask) as usize];
                    if let Some(min_slot) = bucket.iter().min_by_key(|s| s.key()) {
                        if min_slot.k == k as u32 {
                            break min_slot.key();
                        }
                    }
                    k = k.saturating_add(1);
                }
            };
            best = match best {
                Some(b) if b <= min_key => Some(b),
                _ => Some(min_key),
            };
        }
        best.map(|(t, _)| Seconds::new(f64::from_bits(t)))
    }

    /// The pending entries as `(time, seq, event)` in deterministic pop
    /// order — the exact order [`EventQueue::pop`] would drain them, since
    /// `(time, seq)` is a total order. This is the checkpoint view of the
    /// queue: feeding it back through [`EventQueue::from_entries`] rebuilds
    /// a queue with an identical future, independent of how entries were
    /// distributed across buckets and overflow at capture time.
    #[must_use]
    pub fn pending_entries(&self) -> Vec<(Seconds, u64, &E)> {
        let mut entries: Vec<_> = self
            .buckets
            .iter()
            .flatten()
            .chain(&self.overflow)
            .map(|e| (Seconds::new(e.time), e.seq, &e.event))
            .collect();
        entries.sort_by(|a, b| {
            a.0.seconds()
                .partial_cmp(&b.0.seconds())
                .expect("event times are always finite")
                .then_with(|| a.1.cmp(&b.1))
        });
        entries
    }

    /// Rebuilds a queue from checkpointed state: the clock, the next
    /// sequence number, the processed-event count, and the pending entries
    /// with their original sequence numbers. Pop order is identical to the
    /// queue the state was exported from because `(time, seq)` totally
    /// orders entries regardless of how they land in the calendar.
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
        queue.base = now_s;
        for (time, entry_seq, event) in entries {
            let time_s = if time.is_finite() && time.seconds() > now_s {
                time.seconds()
            } else {
                if !(time.is_finite() && time.seconds() == now_s) {
                    queue.clamped += 1;
                }
                now_s
            };
            queue.push_raw(time_s, entry_seq, event);
            queue.seq = queue.seq.max(entry_seq + 1);
        }
        queue
    }

    // ------------------------------------------------------------------
    // Calendar mechanics. Correctness rests on two facts. (1) Cycle
    // placement `k(t)` is a single monotone function of time between
    // rebuilds, so a smaller-timed event can never get a larger `k`, and
    // the lexicographic pop order `(k, time, seq)` equals `(time, seq)`.
    // (2) The cursor only leaves cycle `k` once no slot with that `k`
    // remains, and late insertions that would place behind it are clamped
    // onto it — so the bucket at `kcursor mod nbuckets` always holds the
    // global minimum (or overflow does, when no slots are bucketed).
    // ------------------------------------------------------------------

    #[inline]
    fn nbuckets(&self) -> usize {
        self.buckets.len()
    }

    /// The cycle index for `time` under the current `(base, width)`
    /// geometry: `⌊(time − base)/width⌋`, saturating. Monotone in `time`,
    /// which is the only property pop-order correctness needs. Capped one
    /// below `u64::MAX` so a cursor standing on a saturated index can
    /// still sweep overflow with an exclusive bound.
    #[inline]
    fn place_k(&self, time: f64) -> u64 {
        let rel = (time - self.base) * self.inv_width;
        if rel > 0.0 {
            (rel as u64).min(u64::MAX - 1)
        } else {
            0
        }
    }

    fn push_entry(&mut self, time: f64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push_raw(time, seq, event);
        if self.pending() * 2 > self.nbuckets() * TARGET_FILL && self.nbuckets() < MAX_BUCKETS {
            let doubled = self.nbuckets() * 2;
            self.rebuild(doubled);
        }
    }

    fn push_raw(&mut self, time: f64, seq: u64, event: E) {
        debug_assert!(time.is_sign_positive(), "event times are never negative");
        let k = self.place_k(time).max(self.kcursor);
        let horizon = self.kcursor.saturating_add(2 * self.nbuckets() as u64);
        let slot = Slot {
            time,
            seq,
            k: k as u32,
            event,
        };
        if k >= horizon {
            let key = slot.key();
            self.overflow_min = match self.overflow_min {
                Some(best) if best <= key => Some(best),
                _ => Some(key),
            };
            self.overflow.push(slot);
        } else {
            self.bucket_insert(slot);
        }
    }

    /// Places a slot whose cycle index is within the two-lap horizon into
    /// its bucket, preserving the cursor bucket's partitioned order
    /// mid-drain: unsorted next-lap prefix, then this cycle's slots
    /// sorted descending (see the sort step in [`EventQueue::pop_entry`]).
    fn bucket_insert(&mut self, slot: Slot<E>) {
        let mask = self.nbuckets() as u32 - 1;
        let idx = (slot.k & mask) as usize;
        if self.cur_sorted && idx == (self.kcursor as u32 & mask) as usize {
            let kc = self.kcursor as u32;
            let bucket = &mut self.buckets[idx];
            // Both predicates are monotone over prefix-then-suffix, so a
            // binary search lands the slot in its region in order.
            let pos = if slot.k == kc {
                let key = slot.key();
                bucket.partition_point(|x| x.k != kc || x.key() > key)
            } else {
                bucket.partition_point(|x| x.k != kc)
            };
            bucket.insert(pos, slot);
        } else {
            self.buckets[idx].push(slot);
        }
        self.bucketed += 1;
    }

    fn pop_entry(&mut self, limit: f64) -> Option<(Seconds, E)> {
        if self.is_empty() {
            return None;
        }
        loop {
            if self.bucketed == 0 {
                // Everything pending sits in the overflow tier: jump the
                // cursor to its index-min and sweep it in.
                let (tmin_bits, _) = self.overflow_min.expect("pending events are in overflow");
                let tmin = f64::from_bits(tmin_bits);
                if tmin > limit {
                    return None;
                }
                self.kcursor = self.kcursor.max(self.place_k(tmin));
                self.migrate_overflow();
                continue;
            }
            let mask = self.nbuckets() as u32 - 1;
            let idx = (self.kcursor as u32 & mask) as usize;
            if !self.buckets[idx].is_empty() {
                if !self.cur_sorted {
                    // Partition this cycle's slots to the tail and sort
                    // only them; next-lap slots sharing the physical
                    // bucket stay unsorted in the prefix and never pay
                    // sort compares for a cycle that cannot pop them.
                    let kc = self.kcursor as u32;
                    let bucket = &mut self.buckets[idx];
                    let mut j = bucket.len();
                    let mut i = 0;
                    while i < j {
                        if bucket[i].k == kc {
                            j -= 1;
                            bucket.swap(i, j);
                        } else {
                            i += 1;
                        }
                    }
                    bucket[j..].sort_unstable_by_key(|s| core::cmp::Reverse(s.key()));
                    self.cur_sorted = true;
                }
                let head = self.buckets[idx]
                    .last()
                    .expect("cursor bucket is non-empty");
                if head.k == self.kcursor as u32 {
                    if head.time > limit {
                        return None;
                    }
                    let e = self.buckets[idx].pop().expect("cursor bucket is non-empty");
                    self.bucketed -= 1;
                    debug_assert!(e.time >= self.now);
                    self.now = e.time;
                    self.processed += 1;
                    if self.nbuckets() > MIN_BUCKETS
                        && self.pending() * 16 < self.nbuckets() * TARGET_FILL
                    {
                        let halved = self.nbuckets() / 2;
                        self.rebuild(halved);
                    }
                    return Some((Seconds::new(e.time), e.event));
                }
            }
            // Nothing fires in this cycle (the bucket is empty, or its
            // earliest slot belongs to a later lap): advance the cursor.
            // Cursor movement is a function of the pending set alone —
            // never of `limit` — so run-until boundaries cannot perturb
            // determinism.
            self.kcursor = self.kcursor.saturating_add(1);
            self.cur_sorted = false;
            if self.kcursor >= self.next_migrate {
                self.migrate_overflow();
            }
        }
    }

    /// Sweeps overflow slots whose cycle index now falls within the
    /// two-lap placement horizon into the calendar, recomputing the
    /// overflow index-min along the way. Runs once per lap of the cursor
    /// (or when the cursor jumps to a far-future index-min), so steady
    /// workloads whose events land within the horizon never pay for it.
    fn migrate_overflow(&mut self) {
        let n = self.nbuckets() as u64;
        self.next_migrate = self.kcursor.saturating_add(n);
        let horizon = self.kcursor.saturating_add(2 * n);
        self.overflow_min = None;
        let mut i = 0;
        while i < self.overflow.len() {
            // The stored `k` is truncated; re-derive the full cycle index
            // from the timestamp (placement is a pure function of time
            // between rebuilds, so this is the value push saw).
            let k = self.place_k(self.overflow[i].time).max(self.kcursor);
            if k < horizon {
                let mut slot = self.overflow.swap_remove(i);
                slot.k = k as u32;
                self.bucket_insert(slot);
            } else {
                let key = self.overflow[i].key();
                self.overflow_min = match self.overflow_min {
                    Some(best) if best <= key => Some(best),
                    _ => Some(key),
                };
                i += 1;
            }
        }
        if self.overflow.is_empty() {
            self.stale_rebuilds = 0;
        } else {
            // Sweeps keep leaving events stranded beyond the horizon: the
            // width no longer matches the event spacing. Recalibrate.
            self.stale_rebuilds += 1;
            if self.stale_rebuilds > MAX_STALE_REBUILDS {
                let nbuckets = self.nbuckets();
                self.rebuild(nbuckets);
            }
        }
    }

    /// Full recalibration: gathers every pending slot, re-derives the
    /// bucket width from the spacing of the earliest events, re-anchors
    /// the cycle-index space at the minimum, and redistributes into
    /// `nbuckets` buckets (always a power of two).
    fn rebuild(&mut self, nbuckets: usize) {
        let mut entries: Vec<Slot<E>> = Vec::with_capacity(self.pending());
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        entries.append(&mut self.overflow);
        entries.sort_unstable_by_key(Slot::key);
        self.width = Self::pick_width(&entries);
        self.inv_width = self.width.recip();
        if self.buckets.len() != nbuckets {
            self.buckets.resize_with(nbuckets, Vec::new);
        }
        self.base = entries.first().map_or(self.now, |e| e.time);
        self.kcursor = 0;
        self.next_migrate = nbuckets as u64;
        self.cur_sorted = false;
        self.bucketed = 0;
        self.overflow_min = None;
        self.stale_rebuilds = 0;
        for e in entries {
            self.push_raw(e.time, e.seq, e.event);
        }
    }

    /// Bucket width from the event density near the head (entries must be
    /// sorted): the time span of the earliest few thousand events divided
    /// by their count, scaled to [`TARGET_FILL`] per bucket. Measuring a
    /// span rather than averaging adjacent gaps is robust to runs of tied
    /// timestamps (a tie contributes zero gap but still occupies a bucket
    /// slot). Focusing on the head keeps a far-future cluster from
    /// stretching the width — it belongs in the overflow tier, not the
    /// calendar.
    fn pick_width(entries: &[Slot<E>]) -> f64 {
        const HEAD_SAMPLE: usize = 4096;
        let k = entries.len().saturating_sub(1).min(HEAD_SAMPLE);
        if k == 0 {
            return 1.0;
        }
        let span = entries[k].time - entries[0].time;
        if span <= 0.0 {
            return 1.0;
        }
        let fill = TARGET_FILL as f64;
        (fill * span / k as f64).max(f64::MIN_POSITIVE)
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .field("buckets", &self.nbuckets())
            .field("width", &self.width)
            .field("overflow", &self.overflow.len())
            .field("clamped", &self.clamped)
            .finish()
    }
}

/// The previous `BinaryHeap`-backed event queue, kept as a pinned reference
/// model: the queue-equivalence property tests replay identical operation
/// sequences against it and [`EventQueue`] asserting identical pop order
/// (ties included), and the `sim/events_per_sec_queue_churn` benchmark
/// measures the calendar queue's speedup against it.
///
/// Behaviourally identical to [`EventQueue`] for every operation both
/// support; deliberately *not* used by the simulator.
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: f64,
    seq: u64,
    processed: u64,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
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

    /// Schedules `event` to fire `delay` after the current time, with the
    /// same clamp semantics as [`EventQueue::schedule`].
    pub fn schedule(&mut self, delay: Seconds, event: E) {
        let delay_s = if delay.is_finite() && delay.seconds() > 0.0 {
            delay.seconds()
        } else {
            0.0
        };
        self.schedule_at(Seconds::new(self.now + delay_s), event);
    }

    /// Schedules `event` at an absolute time, with the same clamp semantics
    /// as [`EventQueue::schedule_at`].
    pub fn schedule_at(&mut self, at: Seconds, event: E) {
        let time = if at.is_finite() && at.seconds() > self.now {
            at.seconds()
        } else {
            self.now
        };
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        self.processed += 1;
        Some((Seconds::new(entry.time), entry.event))
    }

    /// Peeks at the next event time without popping.
    #[must_use]
    pub fn next_time(&self) -> Option<Seconds> {
        self.heap.peek().map(|e| Seconds::new(e.time))
    }
}

impl<E> core::fmt::Debug for ReferenceQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReferenceQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
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
        q.schedule(Seconds::new(0.0), "new"); // gets seq 8, after "ok"
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
    fn far_future_events_route_through_the_overflow_tier() {
        let mut q = EventQueue::new();
        // A fresh queue's window spans 16 s; these land 3 tiers of window
        // jumps apart, so every pop crosses the overflow fallback.
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
    fn interleaved_pushes_keep_order_across_window_jumps() {
        // Pop far ahead of the window, then schedule short delays from the
        // new `now`: the freshly anchored window must absorb them in order.
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
    fn grows_and_shrinks_through_churn_without_reordering() {
        // Push enough to force several calendar doublings, then drain
        // through the shrink path, checking full sortedness throughout.
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
    fn matches_reference_queue_on_mixed_churn() {
        // A compact inline differential check; the randomized deep version
        // lives in tests/queue_equivalence.rs.
        let mut cal = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..2000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delay = ((x >> 11) % 1000) as f64 / 64.0; // quantized: many ties
            cal.schedule(Seconds::new(delay), i);
            reference.schedule(Seconds::new(delay), i);
            if x.is_multiple_of(3) {
                assert_eq!(cal.pop(), reference.pop());
                assert_eq!(cal.now(), reference.now());
            }
        }
        loop {
            let (a, b) = (cal.pop(), reference.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
