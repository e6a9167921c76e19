//! Differential property tests: the calendar-bucketed [`EventQueue`] must
//! pop in exactly the order the reference `BinaryHeap` implementation pops
//! — identical `(time, seq)` keys, identical payloads, identical clock and
//! lifetime counters — across every workload shape that has historically
//! broken calendar queues: uniform churn, bursty delays, far-future spikes
//! that exercise the overflow tier, dense ties, and mid-stream
//! checkpoint round-trips that rebuild the bucket layout from scratch.
//!
//! The randomized driver is seeded (`DeterministicRng`), so a failure here
//! reproduces exactly; CI runs it in debug (`build-test`) and release
//! (`release-tests`).

use dhl_rng::{DeterministicRng, Rng};
use dhl_sim::engine::{EventQueue, ReferenceQueue};
use dhl_units::Seconds;

/// Interleaves random pushes and pops on both queues, asserting lock-step
/// equivalence, then drains both to empty. `roundtrip_every` additionally
/// serializes and rebuilds the calendar queue mid-stream every N rounds —
/// the rebuilt bucket geometry must not change a single pop.
fn drive(
    seed: u64,
    rounds: u32,
    delay: impl Fn(&mut DeterministicRng) -> f64,
    roundtrip_every: Option<u32>,
) {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut r: ReferenceQueue<u32> = ReferenceQueue::new();
    let mut next_id: u32 = 0;
    for round in 0..rounds {
        for _ in 0..rng.next_u64() % 8 {
            let d = delay(&mut rng);
            q.schedule(Seconds::new(d), next_id);
            r.schedule(Seconds::new(d), next_id);
            next_id += 1;
        }
        for _ in 0..rng.next_u64() % 8 {
            assert_eq!(q.next_time(), r.next_time(), "peek diverged (seed {seed})");
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b, "pop diverged (seed {seed}, round {round})");
            if a.is_none() {
                break;
            }
        }
        if roundtrip_every.is_some_and(|n| round % n == n - 1) {
            let entries: Vec<(Seconds, u64, u32)> = q
                .pending_entries()
                .into_iter()
                .map(|(t, s, e)| (t, s, *e))
                .collect();
            q = EventQueue::from_entries(q.now(), q.next_seq(), q.events_processed(), entries);
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
    assert_eq!(q.now(), r.now());
    assert_eq!(q.events_processed(), r.events_processed());
    assert_eq!(u64::from(next_id), q.events_processed());
}

#[test]
fn uniform_churn_matches_reference() {
    for seed in 0..8 {
        drive(seed, 400, |rng| rng.random_f64() * 100.0, None);
    }
}

#[test]
fn bursty_delays_match_reference() {
    // Mostly sub-second gaps with occasional thousand-second bursts: the
    // width calibration sees a bimodal distribution and must still order
    // correctly whichever mode it tunes for.
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
fn far_future_spikes_exercise_the_overflow_tier() {
    // One in sixteen events lands ~1e6 s out — far beyond any bucket
    // window, so it must route through the unsorted overflow tier and
    // migrate back when the window eventually reaches it.
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
    // of identical times; both queues must break ties by sequence number,
    // i.e. insertion order.
    for seed in 300..308 {
        drive(seed, 400, |rng| (rng.next_u64() % 4) as f64, None);
    }
}

#[test]
fn mid_stream_rebuilds_change_nothing() {
    // Serializing the calendar queue and rebuilding it from entries every
    // 16 rounds rebucketizes everything (fresh width, fresh window); the
    // pop order must be bit-identical to the never-rebuilt reference.
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
