//! Differential property tests: the heap-backed [`EventQueue`] must pop
//! in exactly the order of an independent oracle — a plain `Vec` drained
//! by a linear min-scan on `(time, seq)` — with identical payloads,
//! clock and lifetime counters, across every workload shape that
//! historically broke event queues: uniform churn, bursty delays,
//! far-future spikes, dense ties, and mid-stream checkpoint round trips
//! that rebuild the queue from its pending entries.
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

/// Interleaves random pushes and pops on the queue and the oracle,
/// asserting lock-step equivalence, then drains both to empty.
/// `roundtrip_every` additionally rebuilds the queue from its pending
/// entries mid-stream every N rounds — the rebuild must not change a
/// single pop.
fn drive(
    seed: u64,
    rounds: u32,
    delay: impl Fn(&mut DeterministicRng) -> f64,
    roundtrip_every: Option<u32>,
) {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut r = Oracle::default();
    let mut next_id: u32 = 0;
    for round in 0..rounds {
        for _ in 0..rng.next_u64() % 8 {
            let d = delay(&mut rng);
            q.schedule(Seconds::new(d), next_id);
            r.schedule(d, next_id);
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
