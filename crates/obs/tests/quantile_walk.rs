//! Differential test: `Histogram::quantiles` resolves several quantiles, in
//! any order, in one walk over the buckets, and must agree bit for bit with
//! a separate walk per quantile. The reference below is that per-quantile
//! walk, written against the public bucket view: the `q`-th observation's
//! rank, then the geometric midpoint of its bucket (or the observed extreme
//! for underflow and overflow), clamped to the observed range. With no
//! finite observation the underflow bucket holds only `-∞` and the overflow
//! bucket only `+∞`, so those are their extremes.

use dhl_obs::histogram::{BUCKETS, MIN_EXP};
use dhl_obs::{Histogram, SloSummary};
use dhl_rng::{DeterministicRng, Rng};

fn reference(h: &Histogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let finite = h.raw_max() >= h.raw_min();
    let (min, max) = if finite {
        (h.min(), h.max())
    } else {
        (f64::NEG_INFINITY, f64::INFINITY)
    };
    let rank = ((q.clamp(0.0, 1.0) * h.count() as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (slot, c) in h.sparse_buckets() {
        seen += c;
        if seen >= rank {
            let estimate = match slot as usize {
                0 => min,
                s if s == BUCKETS + 1 => max,
                s => Histogram::bucket_lower_bound(s - 1) * std::f64::consts::SQRT_2,
            };
            return estimate.clamp(min, max);
        }
    }
    max
}

/// Quantile triples: the SLO triple, the extremes, a descending one, and
/// random ones, each also in a shuffled order.
fn triples(rng: &mut DeterministicRng) -> Vec<[f64; 3]> {
    let mut out = vec![
        [0.5, 0.95, 0.99],
        [0.0, 0.0, 1.0],
        [0.0, 0.5, 1.0],
        [0.99, 0.5, 0.01],
    ];
    for _ in 0..16 {
        out.push([rng.random_f64(), rng.random_f64(), rng.random_f64()]);
    }
    for i in 0..out.len() {
        let mut t = out[i];
        for j in (1..t.len()).rev() {
            t.swap(j, rng.random_range_u64(0, j as u64 + 1) as usize);
        }
        out.push(t);
    }
    out
}

fn assert_agrees(h: &Histogram, rng: &mut DeterministicRng, case: &str) {
    for qs in triples(rng) {
        let walked = h.quantiles(qs);
        for (q, got) in qs.into_iter().zip(walked) {
            let want = reference(h, q);
            assert_eq!(got.to_bits(), want.to_bits(), "{case}: q = {q} of {qs:?}");
            assert_eq!(h.quantile(q).to_bits(), want.to_bits(), "{case}: q = {q}");
        }
    }
    let slo = SloSummary::of(h);
    let want = [0.50, 0.95, 0.99].map(|q| reference(h, q).to_bits());
    assert_eq!(
        [slo.p50, slo.p95, slo.p99].map(f64::to_bits),
        want,
        "{case}"
    );
}

#[test]
fn one_walk_matches_a_walk_per_quantile() {
    let mut rng = DeterministicRng::seed_from_u64(0x5107);
    let lowest = f64::powi(2.0, MIN_EXP);
    let highest = f64::powi(2.0, MIN_EXP + BUCKETS as i32);

    assert_agrees(&Histogram::new(), &mut rng, "empty");

    let mut single = Histogram::new();
    for _ in 0..37 {
        single.record(rng.random_range_f64(1.0, 2.0));
    }
    assert_agrees(&single, &mut rng, "one bucket");

    let mut under = Histogram::new();
    for v in [0.0, -3.0, lowest / 4.0, lowest / 2.0] {
        under.record(v);
    }
    assert_agrees(&under, &mut rng, "underflow only");

    let mut over = Histogram::new();
    for v in [highest, highest * 8.0, f64::INFINITY] {
        over.record(v);
    }
    assert_agrees(&over, &mut rng, "overflow only");

    let mut infinities = Histogram::new();
    for v in [f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY] {
        infinities.record(v);
    }
    assert_agrees(&infinities, &mut rng, "infinities only");

    for round in 0..200 {
        let mut h = Histogram::new();
        let n = rng.random_range_u64(1, 400);
        for _ in 0..n {
            let v = match rng.random_range_u64(0, 11) {
                0 => rng.random_range_f64(-1.0, lowest),
                1 => highest * rng.random_range_f64(1.0, 1e3),
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => 10f64.powf(rng.random_range_f64(-9.0, 10.0)),
            };
            h.record(v);
        }
        assert_agrees(&h, &mut rng, &format!("mixed round {round}"));
    }
}

#[test]
fn infinite_observations_alone_give_infinite_quantiles() {
    let mut h = Histogram::new();
    for _ in 0..3 {
        h.record(f64::INFINITY);
    }
    assert_eq!(h.quantiles([0.0, 0.5, 0.95, 1.0]), [f64::INFINITY; 4]);
    let slo = SloSummary::of(&h);
    assert_eq!([slo.p50, slo.p95, slo.p99], [f64::INFINITY; 3]);
    assert_eq!((slo.max, h.min()), (0.0, 0.0));
    // One finite observation makes the overflow slot read as the maximum.
    h.record(2.0);
    assert_eq!(h.quantiles([0.0, 0.95]), [2.0, 2.0]);
}

#[test]
fn negative_infinity_alone_gives_negative_infinite_quantiles() {
    let mut h = Histogram::new();
    for _ in 0..3 {
        h.record(f64::NEG_INFINITY);
    }
    assert_eq!(
        h.sparse_buckets(),
        [(0, 3)],
        "counted in the underflow slot"
    );
    assert_eq!(h.quantiles([0.0, 0.5, 0.95, 1.0]), [f64::NEG_INFINITY; 4]);
    let slo = SloSummary::of(&h);
    assert_eq!([slo.p50, slo.p95, slo.p99], [f64::NEG_INFINITY; 3]);
    assert_eq!((slo.max, h.min()), (0.0, 0.0));
    // One finite observation makes the underflow slot read as the minimum.
    h.record(2.0);
    assert_eq!(h.quantiles([0.0, 0.95]), [2.0, 2.0]);
}

#[test]
fn bucket_bounds_are_the_powers_of_two() {
    for i in 0..BUCKETS {
        let want = f64::powi(2.0, MIN_EXP + i as i32);
        assert_eq!(
            Histogram::bucket_lower_bound(i).to_bits(),
            want.to_bits(),
            "{i}"
        );
    }
}

#[test]
fn clear_restores_a_new_histogram() {
    let mut h = Histogram::new();
    for v in [0.0, 1.5, 3e9, f64::INFINITY, 1e-12] {
        h.record(v);
    }
    h.clear();
    assert_eq!(h, Histogram::new());
    h.record(2.5);
    let mut fresh = Histogram::new();
    fresh.record(2.5);
    assert_eq!(h, fresh);
}
