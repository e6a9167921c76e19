//! Differential test: merging two [`HistogramSummary`]s must give, bit for
//! bit, the summary of the two live histograms merged with
//! [`Histogram::merge`]. Replica aggregation only ever holds summaries, so
//! this is what lets it stand in for one histogram that saw every replica's
//! observations.
//!
//! The histograms are drawn from a seeded generator and cover the edge
//! kinds the summary's clamped `min`/`max` and sparse buckets have to get
//! right: empty sides, NaN-only (recorded but never counted), negative and
//! underflow values, overflow values, `+∞` only, `-∞` only, and ordinary
//! mixes. A side that saw only infinities summarises with `min` and `max`
//! clamped to 0, which must not merge as an observed 0.

use dhl_obs::histogram::{BUCKETS, MIN_EXP};
use dhl_obs::{Histogram, HistogramSummary};
use dhl_rng::{DeterministicRng, Rng};

const PAIRS: usize = 16_000;

/// One histogram of a randomly chosen kind.
fn histogram(rng: &mut DeterministicRng) -> Histogram {
    let lowest = f64::powi(2.0, MIN_EXP);
    let highest = f64::powi(2.0, MIN_EXP + BUCKETS as i32);
    let mut h = Histogram::new();
    let n = rng.random_range_u64(1, 40);
    let kind = rng.random_range_u64(0, 9);
    for _ in 0..n {
        let v = match kind {
            0 => return h,
            1 => f64::NAN,
            2 => -rng.random_range_f64(0.0, 1e3),
            3 => rng.random_range_f64(0.0, lowest),
            4 => highest * rng.random_range_f64(1.0, 1e3),
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            _ => match rng.random_range_u64(0, 9) {
                0 => f64::NAN,
                1 => -rng.random_range_f64(0.0, 1.0),
                2 => rng.random_range_f64(0.0, lowest),
                3 => highest * rng.random_range_f64(1.0, 1e3),
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                _ => 10f64.powf(rng.random_range_f64(-9.0, 10.0)),
            },
        };
        h.record(v);
    }
    h
}

fn bits(s: &HistogramSummary) -> (&str, u64, [u64; 6], &[(u32, u64)]) {
    (
        &s.name,
        s.count,
        [s.min, s.max, s.mean, s.p50, s.p95, s.sum].map(f64::to_bits),
        &s.buckets,
    )
}

#[test]
fn infinite_only_summaries_merge_to_infinite_quantiles() {
    let mut inf = Histogram::new();
    inf.record(f64::INFINITY);
    let mut merged = HistogramSummary::of("lhs", &inf);
    assert_eq!((merged.p50, merged.p95), (f64::INFINITY, f64::INFINITY));
    merged.merge(&HistogramSummary::of("rhs", &inf));
    assert_eq!(
        (merged.count, merged.p50, merged.p95),
        (2, f64::INFINITY, f64::INFINITY)
    );
    assert_eq!((merged.min, merged.max), (0.0, 0.0));
    let mut finite = Histogram::new();
    finite.record(3.0);
    merged.merge(&HistogramSummary::of("rhs", &finite));
    assert_eq!((merged.min, merged.max, merged.p50), (3.0, 3.0, 3.0));
}

#[test]
fn negative_infinite_only_summaries_merge_to_negative_infinite_quantiles() {
    let mut inf = Histogram::new();
    inf.record(f64::NEG_INFINITY);
    let mut merged = HistogramSummary::of("lhs", &inf);
    assert_eq!(
        (merged.p50, merged.p95),
        (f64::NEG_INFINITY, f64::NEG_INFINITY)
    );
    merged.merge(&HistogramSummary::of("rhs", &inf));
    let (p50, p95) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    assert_eq!((merged.count, merged.p50, merged.p95), (2, p50, p95));
    assert_eq!((merged.min, merged.max), (0.0, 0.0));
    let mut zeros = Histogram::new();
    zeros.record(0.0);
    merged.merge(&HistogramSummary::of("rhs", &zeros));
    assert_eq!((merged.min, merged.max, merged.p50), (0.0, 0.0, 0.0));
}

#[test]
fn summary_merge_equals_merging_the_live_histograms() {
    let mut rng = DeterministicRng::seed_from_u64(0x4d45_5247);
    for pair in 0..PAIRS {
        let (a, b) = (histogram(&mut rng), histogram(&mut rng));
        let mut merged = HistogramSummary::of("lhs", &a);
        merged.merge(&HistogramSummary::of("rhs", &b));
        let mut live = a.clone();
        live.merge(&b);
        let want = HistogramSummary::of("lhs", &live);
        assert_eq!(bits(&merged), bits(&want), "pair {pair}: {a:?} + {b:?}");
    }
}
