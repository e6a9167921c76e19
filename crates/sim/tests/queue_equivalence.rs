//! Differential property tests: the [`EventQueue`] must pop in exactly
//! the order of an independent oracle — a plain `Vec` drained by a linear
//! min-scan on `(time, seq)` — with identical payloads, clock and lifetime
//! counters, across every workload shape that historically broke event
//! queues: uniform churn, bursty delays, far-future spikes, dense ties,
//! mid-stream checkpoint round trips that rebuild the queue from its
//! pending entries, and depths that swing across the limits where the
//! queue's sorted run turns into a heap and back.
//!
//! The randomized driver is seeded (`DeterministicRng`), so a failure here
//! reproduces exactly; CI runs it in debug (`build-test`) and release
//! (`release-tests`).

use dhl_rng::{DeterministicRng, Rng};
use dhl_sim::engine::EventQueue;
use dhl_units::Seconds;

/// The oracle: pending `(time, seq, id)` triples popped by a linear
/// min-scan, under [`EventQueue::schedule`]'s clamp rule (a NaN, infinite
/// or negative delay fires now and is counted).
#[derive(Default)]
struct Oracle {
    pending: Vec<(f64, u64, u32)>,
    now: f64,
    seq: u64,
    processed: u64,
    clamped: u64,
}

impl Oracle {
    fn schedule(&mut self, delay: f64, id: u32) {
        let valid = delay.is_finite() && delay >= 0.0;
        self.clamped += u64::from(!valid);
        let time = self.now + if valid { delay } else { 0.0 };
        self.pending.push((time, self.seq, id));
        self.seq += 1;
    }

    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (x, y) = (self.pending[a], self.pending[b]);
            x.0.total_cmp(&y.0).then(x.1.cmp(&y.1))
        })
    }

    fn next_time(&self) -> Option<Seconds> {
        self.head().map(|i| Seconds::new(self.pending[i].0))
    }

    fn pop(&mut self) -> Option<(Seconds, u32)> {
        let (time, _, id) = self.pending.swap_remove(self.head()?);
        self.now = time;
        self.processed += 1;
        Some((Seconds::new(time), id))
    }
}

/// The queue's form limits: past `RUN_MAX` pending events the sorted run
/// turns into a heap, and a heap popped down to `HEAP_MIN` turns back.
const RUN_MAX: usize = 64;
const HEAP_MIN: usize = 16;

/// Bounds on a round's pushes and pops: each is uniform below the bound.
type Shape = fn(round: u32) -> (u64, u64);

/// Up to 7 pushes and 7 pops a round: the depth wanders near zero.
const BALANCED: Shape = |_| (8, 8);

/// Ten push-heavy rounds, then ten pop-heavy ones: the depth swings from
/// below `HEAP_MIN` to past `RUN_MAX` and back, converting both ways.
const SWINGING: Shape = |round| if round % 20 < 10 { (20, 4) } else { (4, 28) };

/// What the queue's depth did over a drive.
#[derive(Debug, Default)]
struct Depths {
    /// Climbs past `RUN_MAX` from at or below `HEAP_MIN`.
    climbs: u32,
    /// Rebuilds at or below `RUN_MAX` (a run) and past it (a heap).
    run_rebuilds: u32,
    heap_rebuilds: u32,
    /// At or below `HEAP_MIN` since the last climb.
    shallow: bool,
}

impl Depths {
    fn observe(&mut self, depth: usize) {
        if depth > RUN_MAX && self.shallow {
            self.climbs += 1;
            self.shallow = false;
        }
        self.shallow |= depth <= HEAP_MIN;
    }
}

/// [`drive_shaped`] with [`BALANCED`] rounds.
fn drive(
    seed: u64,
    rounds: u32,
    delay: impl Fn(&mut DeterministicRng) -> f64,
    roundtrip_every: Option<u32>,
) {
    drive_shaped(seed, rounds, delay, roundtrip_every, BALANCED);
}

/// Interleaves random pushes and pops on the queue and the oracle,
/// asserting lock-step equivalence, then drains both to empty.
/// `roundtrip_every` additionally rebuilds the queue from its pending
/// entries mid-stream every N rounds — the rebuild must not change a
/// single pop.
fn drive_shaped(
    seed: u64,
    rounds: u32,
    delay: impl Fn(&mut DeterministicRng) -> f64,
    roundtrip_every: Option<u32>,
    shape: Shape,
) -> Depths {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut r = Oracle::default();
    let mut next_id: u32 = 0;
    let mut depths = Depths {
        shallow: true,
        ..Depths::default()
    };
    for round in 0..rounds {
        let (pushes, pops) = shape(round);
        for _ in 0..rng.next_u64() % pushes {
            let d = delay(&mut rng);
            q.schedule(Seconds::new(d), next_id);
            r.schedule(d, next_id);
            next_id += 1;
            depths.observe(q.pending());
        }
        for _ in 0..rng.next_u64() % pops {
            assert_eq!(q.next_time(), r.next_time(), "peek diverged (seed {seed})");
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b, "pop diverged (seed {seed}, round {round})");
            if a.is_none() {
                break;
            }
            depths.observe(q.pending());
        }
        if roundtrip_every.is_some_and(|n| round % n == n - 1) {
            if q.pending() > RUN_MAX {
                depths.heap_rebuilds += 1;
            } else {
                depths.run_rebuilds += 1;
            }
            let entries: Vec<(Seconds, u64, u32)> = q
                .pending_entries()
                .into_iter()
                .map(|(t, s, e)| (t, s, *e))
                .collect();
            let clamped = q.clamped();
            q = EventQueue::from_entries(q.now(), q.next_seq(), q.events_processed(), entries);
            q.set_clamped(clamped);
        }
    }
    loop {
        assert_eq!(
            q.next_time(),
            r.next_time(),
            "drain peek diverged (seed {seed})"
        );
        let (a, b) = (q.pop(), r.pop());
        assert_eq!(a, b, "drain pop diverged (seed {seed})");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(q.now().seconds(), r.now);
    assert_eq!(q.events_processed(), r.processed);
    assert_eq!(q.next_seq(), r.seq);
    assert_eq!(q.clamped(), r.clamped);
    assert_eq!(u64::from(next_id), q.events_processed());
    depths
}

#[test]
fn uniform_churn_matches_reference() {
    for seed in 0..8 {
        drive(seed, 400, |rng| rng.random_f64() * 100.0, None);
    }
}

#[test]
fn bursty_delays_match_reference() {
    // Mostly sub-second gaps with occasional thousand-second bursts: a
    // bimodal delay distribution.
    for seed in 100..108 {
        drive(
            seed,
            400,
            |rng| {
                if rng.next_u64() % 4 == 0 {
                    rng.random_f64() * 1000.0
                } else {
                    rng.random_f64()
                }
            },
            None,
        );
    }
}

#[test]
fn far_future_spikes_match_reference() {
    // One in sixteen events lands ~1e6 s out, six orders of magnitude
    // beyond the rest, and must wait behind all of them.
    for seed in 200..208 {
        drive(
            seed,
            400,
            |rng| {
                if rng.next_u64() % 16 == 0 {
                    1e6 + rng.random_f64() * 1e6
                } else {
                    rng.random_f64() * 10.0
                }
            },
            None,
        );
    }
}

#[test]
fn dense_ties_pop_in_insertion_order() {
    // Delays quantized to four values (including zero) produce long runs
    // of identical times; ties must break by sequence number, i.e.
    // insertion order.
    for seed in 300..308 {
        drive(seed, 400, |rng| (rng.next_u64() % 4) as f64, None);
    }
}

#[test]
fn mid_stream_rebuilds_change_nothing() {
    // Rebuilding the queue from its pending entries every 16 rounds (the
    // checkpoint path) must leave the pop order bit-identical to the
    // never-rebuilt oracle.
    for seed in 400..404 {
        drive(seed, 400, |rng| rng.random_f64() * 50.0, Some(16));
    }
    for seed in 404..408 {
        drive(
            seed,
            400,
            |rng| {
                if rng.next_u64() % 16 == 0 {
                    1e7 + rng.random_f64() * 1e7
                } else {
                    rng.random_f64() * 5.0
                }
            },
            Some(16),
        );
    }
}

#[test]
fn deep_backlogs_convert_to_a_heap_and_back() {
    // Forty push-heavy rounds build a backlog of a few hundred events;
    // forty pop-heavy rounds drain it.
    let phases: Shape = |round| if round % 80 < 40 { (20, 4) } else { (4, 28) };
    for seed in 500..504 {
        let depths = drive_shaped(seed, 400, |rng| rng.random_f64() * 100.0, None, phases);
        assert!(depths.climbs >= 4, "seed {seed}: {depths:?}");
    }
}

#[test]
fn depths_swinging_across_both_limits_match_reference() {
    for seed in 600..604 {
        let depths = drive_shaped(seed, 400, |rng| rng.random_f64() * 10.0, None, SWINGING);
        assert!(depths.climbs >= 10, "seed {seed}: {depths:?}");
    }
}

#[test]
fn dense_ties_survive_conversions() {
    // Four distinct delays: every conversion moves long runs of equal
    // times, which must keep their insertion order in both forms.
    for seed in 700..704 {
        let depths = drive_shaped(seed, 400, |rng| (rng.next_u64() % 4) as f64, None, SWINGING);
        assert!(depths.climbs >= 10, "seed {seed}: {depths:?}");
    }
}

#[test]
fn rebuilds_on_either_side_of_the_limit_change_nothing() {
    // A rebuild every 7 rounds lands at every phase of the 20-round swing.
    for seed in 800..804 {
        let depths = drive_shaped(
            seed,
            400,
            |rng| (rng.next_u64() % 8) as f64,
            Some(7),
            SWINGING,
        );
        assert!(
            depths.run_rebuilds >= 10 && depths.heap_rebuilds >= 10,
            "seed {seed}: {depths:?}"
        );
    }
}
