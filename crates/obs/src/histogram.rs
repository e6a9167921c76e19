//! A log-bucketed histogram for non-negative `f64` observations.
//!
//! Buckets are powers of two: bucket `i` covers `[2^(MIN_EXP + i),
//! 2^(MIN_EXP + i + 1))`, spanning roughly one nanosecond to three
//! centuries when observations are in seconds. Values below the range land
//! in the underflow bucket, values above in the overflow bucket, so no
//! observation is ever dropped. Recording is O(1) with no allocation after
//! construction; quantiles are estimated from the bucket mass with the
//! geometric midpoint of the resolved bucket, clamped into the exact
//! `[min, max]` observed. `-∞` is counted in the underflow bucket and `+∞`
//! in the overflow bucket, so a histogram of only infinities reports them.

/// Exponent of the first regular bucket's lower bound (`2^-30` ≈ 0.93 ns).
pub const MIN_EXP: i32 = -30;

/// Number of regular buckets. The last regular bucket's upper bound is
/// `2^(MIN_EXP + BUCKETS)` ≈ 1.7e10 (about 545 years in seconds).
pub const BUCKETS: usize = 64;

/// A fixed-size log₂-bucketed histogram.
#[derive(Clone, PartialEq, Debug)]
pub struct Histogram {
    /// `[underflow, regular buckets…, overflow]`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS + 2],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Empties the histogram, keeping its storage: it then equals `new()`.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Index into `counts` for a value (0 = underflow, BUCKETS+1 = overflow).
    ///
    /// For finite non-negative `value` the IEEE-754 biased exponent *is*
    /// `floor(log2(value))`, so the bucket index comes straight from bit
    /// extraction — no float log, no rounding. (The retired `log2().floor()`
    /// path could round a value half an ULP below a power of two up into the
    /// bucket it doesn't belong to; the exponent bits cannot.) Zero and
    /// subnormals decode to exponent `-1023`, far below `MIN_EXP`, and land
    /// in the underflow bucket as before.
    #[inline]
    fn slot(value: f64) -> usize {
        let exp = ((value.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let idx = exp - MIN_EXP;
        if idx < 0 {
            0
        } else if idx as usize >= BUCKETS {
            BUCKETS + 1
        } else {
            idx as usize + 1
        }
    }

    /// Lower bound of regular bucket `i` (`0 <= i < BUCKETS`): `2^(MIN_EXP
    /// + i)`, built from its exponent bits.
    #[must_use]
    pub fn bucket_lower_bound(i: usize) -> f64 {
        f64::from_bits(((MIN_EXP + i as i32 + 1023) as u64) << 52)
    }

    /// Records one observation. NaN is ignored; negative values and `-∞`
    /// are counted in the underflow bucket, `+∞` in the overflow bucket,
    /// and infinities are excluded from `min`/`max`/`sum`.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.counts[Self::slot(value.max(0.0))] += 1;
        } else {
            self.counts[if value > 0.0 { BUCKETS + 1 } else { 0 }] += 1;
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.min.is_finite() {
            self.min
        } else {
            0.0
        }
    }

    /// Largest finite observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Mean of finite observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`: the geometric midpoint of the
    /// bucket holding the `q`-th observation, clamped to the observed
    /// `[min, max]`. Returns 0 when empty; with no finite observation, `-∞`
    /// or `+∞` as the `q`-th observation was.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantiles([q])[0]
    }

    /// [`Histogram::quantile`] at each of `qs`, which may come in any
    /// order; ascending `qs` share one walk over the buckets.
    #[must_use]
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        Self::quantiles_in(
            self.counts.iter().enumerate().map(|(s, &c)| (s as u32, c)),
            self.count,
            self.min,
            self.max,
            qs,
        )
    }

    /// Nonzero bucket slots as `(slot, count)` pairs in slot order. Slot 0
    /// is underflow, slots `1..=BUCKETS` are the regular buckets, slot
    /// `BUCKETS + 1` is overflow — the same indexing [`Histogram::quantile`]
    /// walks. The sparse form is what [`crate::HistogramSummary`] carries so
    /// merged snapshots can re-estimate quantiles.
    #[must_use]
    pub fn sparse_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(s, &c)| (s as u32, c))
            .collect()
    }

    /// Estimated quantile over `(slot, count)` buckets with a known
    /// observation `count` and *raw* `min`/`max` (see
    /// [`Histogram::raw_min`]) — the exact walk [`Histogram::quantile`]
    /// performs, exposed for merged summaries that no longer hold the full
    /// histogram. Buckets must be in slot order.
    #[must_use]
    pub fn quantile_from_buckets(
        buckets: &[(u32, u64)],
        count: u64,
        min: f64,
        max: f64,
        q: f64,
    ) -> f64 {
        Self::quantiles_in(buckets.iter().copied(), count, min, max, [q])[0]
    }

    /// Every quantile estimate's walk: the bucket where the `q`-th
    /// observation falls gives its geometric midpoint (or the observed
    /// extreme for underflow and overflow), clamped to `[min, max]`. Each
    /// quantile resumes the walk where the one before it stopped, or
    /// restarts it when its rank is lower, so ascending `qs` cost one walk.
    /// With no finite value recorded (raw `min > max`), underflow holds
    /// only `-∞` and overflow only `+∞`: those are their extremes.
    fn quantiles_in<const N: usize>(
        buckets: impl Iterator<Item = (u32, u64)> + Clone,
        count: u64,
        min: f64,
        max: f64,
        qs: [f64; N],
    ) -> [f64; N] {
        if count == 0 {
            return [0.0; N];
        }
        let (min, max) = if min <= max {
            (min, max)
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        let mut out = [max; N];
        let mut walk = buckets.clone();
        let (mut seen, mut slot, mut last) = (0, 0, 0);
        for (q, out) in qs.into_iter().zip(&mut out) {
            let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
            if rank < last {
                (walk, seen, slot) = (buckets.clone(), 0, 0);
            }
            last = rank;
            while seen < rank {
                let Some((s, c)) = walk.next() else {
                    break;
                };
                (seen, slot) = (seen + c, s as usize);
            }
            if seen >= rank {
                let estimate = match slot {
                    0 => min,
                    s if s == BUCKETS + 1 => max,
                    // Geometric midpoint of [lo, 2·lo).
                    s => Self::bucket_lower_bound(s - 1) * std::f64::consts::SQRT_2,
                };
                *out = estimate.clamp(min, max);
            }
        }
        out
    }

    /// The raw running minimum: `+∞` until a finite value is recorded.
    /// Unlike [`Histogram::min`] this does not clamp to zero, so the exact
    /// internal state can be exported and re-imported bit-identically.
    #[must_use]
    pub fn raw_min(&self) -> f64 {
        self.min
    }

    /// The raw running maximum: `-∞` until a finite value is recorded (see
    /// [`Histogram::raw_min`]).
    #[must_use]
    pub fn raw_max(&self) -> f64 {
        self.max
    }

    /// Rebuilds a histogram from previously exported exact state: the
    /// observation `count`, running `sum`, *raw* `min`/`max` (as returned by
    /// [`Histogram::raw_min`]/[`Histogram::raw_max`], i.e. `±∞` when no
    /// finite value was seen), and the sparse `(slot, count)` buckets from
    /// [`Histogram::sparse_buckets`].
    ///
    /// The result compares equal (`PartialEq`, hence bit-identical `f64`
    /// fields) to the histogram the state was exported from, which is what
    /// checkpoint/resume needs: subsequent `record` calls continue the same
    /// non-associative `sum` accumulation the original would have performed.
    #[must_use]
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64, buckets: &[(u32, u64)]) -> Self {
        let mut h = Self::new();
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        for &(slot, c) in buckets {
            if let Some(entry) = h.counts.get_mut(slot as usize) {
                *entry = c;
            }
        }
        h
    }

    /// Merges another histogram into this one: bucket-wise count addition,
    /// summed count/sum, combined min/max. Commutative and associative, so
    /// the merged result is independent of replica merge order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_lower_bound(0), f64::powi(2.0, MIN_EXP));
        assert_eq!(Histogram::bucket_lower_bound(30), 1.0);
        assert_eq!(Histogram::bucket_lower_bound(31), 2.0);
        // A value exactly on a boundary lands in the bucket it opens.
        assert_eq!(Histogram::slot(1.0), 31);
        assert_eq!(Histogram::slot(1.999), 31);
        assert_eq!(Histogram::slot(2.0), 32);
    }

    #[test]
    fn slot_is_exact_at_ulp_boundaries() {
        // Values half an ULP below a power of two belong to the lower
        // bucket; a float `log2().floor()` can round them up, the exponent
        // bits cannot.
        for exp in [1i32, 2, 5, 10, 33] {
            let boundary = f64::powi(2.0, MIN_EXP + exp);
            let below = f64::from_bits(boundary.to_bits() - 1);
            assert_eq!(Histogram::slot(boundary), exp as usize + 1);
            assert_eq!(Histogram::slot(below), exp as usize, "2^{exp} - 1 ulp");
        }
        // Subnormals and the first-regular-bucket boundary.
        assert_eq!(Histogram::slot(f64::MIN_POSITIVE / 2.0), 0);
        let first = Histogram::bucket_lower_bound(0);
        assert_eq!(Histogram::slot(first), 1);
        assert_eq!(Histogram::slot(f64::from_bits(first.to_bits() - 1)), 0);
    }

    #[test]
    fn out_of_range_values_hit_underflow_and_overflow() {
        assert_eq!(Histogram::slot(0.0), 0);
        assert_eq!(Histogram::slot(1e-12), 0);
        assert_eq!(Histogram::slot(1e30), BUCKETS + 1);
        let mut h = Histogram::new();
        h.record(-5.0); // negative: counted, bucketed as underflow
        h.record(1e30);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 1e30);
    }

    #[test]
    fn nan_is_ignored_and_infinity_counted_without_poisoning_stats() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        h.record(1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1.0);
        assert_eq!(h.sum(), 1.0);
    }

    #[test]
    fn exact_stats_track_observations() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        assert_eq!(h.mean(), 2.5);
    }

    #[test]
    fn quantiles_are_ordered_and_bracketed() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i) * 1e-3); // 1 ms .. 1 s
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!(h.min() <= p50 && p50 <= p95 && p95 <= h.max());
        // Log-bucket resolution is a factor of two: p50 within [0.25, 1.0].
        assert!((0.25..=1.0).contains(&p50), "p50 = {p50}");
        assert!(p95 >= 0.5, "p95 = {p95}");
    }

    #[test]
    fn single_observation_quantiles_collapse_to_it() {
        let mut h = Histogram::new();
        h.record(0.125);
        assert_eq!(h.quantile(0.0), 0.125);
        assert_eq!(h.quantile(0.5), 0.125);
        assert_eq!(h.quantile(1.0), 0.125);
    }

    #[test]
    fn merge_is_bucket_wise_add_and_equals_combined_recording() {
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        let mut combined = Histogram::new();
        for v in [0.001, 0.5, 8.6, 17.2] {
            left.record(v);
            combined.record(v);
        }
        for v in [0.25, 8.6, 1e30, -1.0] {
            right.record(v);
            combined.record(v);
        }
        left.merge(&right);
        assert_eq!(left, combined);
        assert_eq!(left.count(), 8);
        assert_eq!(left.min(), combined.min());
        assert_eq!(left.max(), combined.max());
        assert_eq!(left.quantile(0.5), combined.quantile(0.5));
        assert_eq!(left.quantile(0.95), combined.quantile(0.95));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(2.0);
        let orig = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, orig);
        let mut empty = Histogram::new();
        empty.merge(&orig);
        assert_eq!(empty, orig);
    }

    #[test]
    fn sparse_buckets_reproduce_dense_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(f64::from(i) * 0.1);
        }
        let sparse = h.sparse_buckets();
        assert!(sparse.iter().all(|&(_, c)| c > 0));
        assert_eq!(sparse.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(
                Histogram::quantile_from_buckets(&sparse, h.count(), h.min(), h.max(), q),
                h.quantile(q)
            );
        }
    }

    #[test]
    fn quantile_from_buckets_of_empty_is_zero() {
        assert_eq!(Histogram::quantile_from_buckets(&[], 0, 0.0, 0.0, 0.5), 0.0);
    }

    #[test]
    fn from_parts_round_trips_exact_state() {
        let mut h = Histogram::new();
        for v in [0.001, 0.1 + 0.2, 8.6, 17.2, 1e30, -1.0] {
            h.record(v);
        }
        let rebuilt = Histogram::from_parts(
            h.count(),
            h.sum(),
            h.raw_min(),
            h.raw_max(),
            &h.sparse_buckets(),
        );
        assert_eq!(rebuilt, h);
        // Continuing to record after restore matches the uninterrupted
        // histogram bit-for-bit (same sum accumulation order).
        let mut a = h.clone();
        let mut b = rebuilt;
        for v in [0.3, 2.25, 1e-9] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_of_empty_histogram_is_empty() {
        let h = Histogram::new();
        let rebuilt = Histogram::from_parts(0, 0.0, h.raw_min(), h.raw_max(), &[]);
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.min(), 0.0);
        assert_eq!(rebuilt.max(), 0.0);
    }
}
