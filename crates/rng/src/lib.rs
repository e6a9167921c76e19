//! Deterministic random numbers for the DHL simulators.
//!
//! The simulators promise *bit-for-bit replayable* runs: the same seed must
//! produce the same failure injections on every platform and every release.
//! `rand`'s `StdRng` explicitly does not guarantee cross-version stream
//! stability (and is unavailable in the offline build), so the workspace
//! owns its generator: [`DeterministicRng`], an xoshiro256++ generator
//! seeded through SplitMix64, exactly as recommended by the xoshiro
//! authors. The [`check`] module layers a tiny property-test harness on top
//! so the crates' randomized tests stay dependency-free too.
//!
//! # Examples
//!
//! ```rust
//! use dhl_rng::{DeterministicRng, Rng};
//!
//! let mut a = DeterministicRng::seed_from_u64(7);
//! let mut b = DeterministicRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64()); // identical streams
//! assert!((0.0..1.0).contains(&a.random_f64()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;

/// Sampling operations over a raw `u64` stream.
///
/// The single required method is [`Rng::next_u64`]; everything else is
/// derived from it, so any generator (or test double) can plug in.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` built from the top 53 bits.
    fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.random_f64() < p
    }

    /// A binomial draw: how many of `n` independent trials, each `true`
    /// with probability `p`, come out `true`.
    ///
    /// Inversion (BINV, Kachitvichyanukul & Schmeiser 1988): one uniform
    /// walks the binomial CDF up from 0, and `p > ½` draws the complement.
    /// The trials are taken in chunks of at most [`BINOMIAL_CHUNK`], one
    /// word each, so a draw reads `⌈n / BINOMIAL_CHUNK⌉` words whatever the
    /// outcome, where `n` Bernoulli trials read `n`. `n = 0`, `p ≤ 0`,
    /// `p ≥ 1` and NaN (which gives 0, as in [`Rng::random_bool`]) read
    /// none. Kept out of line: it is cold beside its callers' hot paths.
    #[inline(never)]
    fn random_binomial(&mut self, n: u64, p: f64) -> u64 {
        if n == 0 || p.is_nan() || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // 1 − p is exact for p in (½, 1) (Sterbenz).
        let (p, complement) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
        let (mut left, mut hits) = (n, 0);
        while left > 0 {
            let m = left.min(BINOMIAL_CHUNK);
            hits += binomial_inversion(self.random_f64(), m, p);
            left -= m;
        }
        if complement {
            n - hits
        } else {
            hits
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn random_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Multiply-shift bounded sampling (Lemire); the tiny modulo bias of
        // the plain widening multiply is irrelevant for simulation use.
        let wide = u128::from(self.next_u64()) * u128::from(span);
        lo + (wide >> 64) as u64
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or non-finite.
    fn random_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad range [{lo}, {hi})"
        );
        lo + self.random_f64() * (hi - lo)
    }
}

/// The most trials [`Rng::random_binomial`] settles with one uniform. With
/// `p ≤ ½`, `q = 1 − p ≥ ½`, so `qᵐ ≥ 2⁻¹⁰²²` stays a normal float.
pub const BINOMIAL_CHUNK: u64 = 1022;

/// The binomial(m, p) outcome at which the uniform `u` meets the CDF,
/// for `0 < p ≤ ½` and `1 ≤ m ≤ BINOMIAL_CHUNK`.
///
/// Each step takes the point mass `f(k)` off `u` and moves to
/// `f(k+1) = f(k)·((m+1)/(k+1) − 1)·p/q`. The walk stops at `m`, so the
/// few ulps that rounding leaves in the CDF cannot carry it past.
fn binomial_inversion(mut u: f64, m: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (m + 1) as f64 * s;
    let mut f = power(q, m);
    let mut k = 0;
    while u >= f && k < m {
        u -= f;
        k += 1;
        f *= a / k as f64 - s;
    }
    k
}

/// `base^exp` by square-and-multiply. `f64::powi` is not used: its
/// precision is unspecified, and it may differ between debug and release.
fn power(mut base: f64, mut exp: u64) -> f64 {
    let mut acc = 1.0;
    loop {
        if exp & 1 == 1 {
            acc *= base;
        }
        exp >>= 1;
        if exp == 0 {
            return acc;
        }
        base *= base;
    }
}

/// The SplitMix64 finaliser: a cheap, well-mixed permutation of 64-bit
/// values, for deriving independent seeds from related ones.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's deterministic generator: xoshiro256++ seeded via
/// SplitMix64. Streams are stable across platforms and releases.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeterministicRng {
    s: [u64; 4],
}

impl DeterministicRng {
    /// Expands a 64-bit seed into the full 256-bit state with SplitMix64
    /// (the xoshiro authors' recommended seeding procedure).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(sm)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// A child generator whose stream is independent of (but determined by)
    /// this one — for giving each test case or subsystem its own stream.
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }

    /// The generator's full 256-bit internal state, for checkpointing. A
    /// generator rebuilt with [`DeterministicRng::from_state`] continues the
    /// exact stream this one would have produced.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a previously exported [`state`]. This is a
    /// resume primitive, not a seeding procedure — use
    /// [`DeterministicRng::seed_from_u64`] for fresh streams (an all-zero
    /// state would be a fixed point of xoshiro256++, so it is nudged to the
    /// SplitMix64 expansion of seed 0).
    ///
    /// [`state`]: DeterministicRng::state
    #[must_use]
    pub fn from_state(state: [u64; 4]) -> Self {
        if state == [0; 4] {
            return Self::seed_from_u64(0);
        }
        Self { s: state }
    }
}

impl Rng for DeterministicRng {
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ (Blackman & Vigna, public domain reference).
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed_from_u64(42);
        let mut b = DeterministicRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::seed_from_u64(1);
        let mut b = DeterministicRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = DeterministicRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.random_f64();
            assert!((0.0..1.0).contains(&x), "got {x}");
        }
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = DeterministicRng::seed_from_u64(7);
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
        assert!(!rng.random_bool(-3.0));
        assert!(rng.random_bool(2.0));
    }

    #[test]
    fn bernoulli_rate_roughly_matches_p() {
        let mut rng = DeterministicRng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.random_bool(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "got {rate}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = DeterministicRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let n = rng.random_range_u64(10, 20);
            assert!((10..20).contains(&n));
            let x = rng.random_range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent_a = DeterministicRng::seed_from_u64(5);
        let mut parent_b = DeterministicRng::seed_from_u64(5);
        let mut child_a = parent_a.fork();
        let mut child_b = parent_b.fork();
        assert_eq!(child_a.next_u64(), child_b.next_u64());
        assert_ne!(child_a.next_u64(), parent_a.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_integer_range_panics() {
        DeterministicRng::seed_from_u64(0).random_range_u64(5, 5);
    }

    #[test]
    fn state_export_import_resumes_the_exact_stream() {
        let mut original = DeterministicRng::seed_from_u64(0xD41);
        for _ in 0..173 {
            original.next_u64(); // advance mid-stream
        }
        let snapshot = original.state();
        let mut resumed = DeterministicRng::from_state(snapshot);
        assert_eq!(resumed, original);
        for _ in 0..1000 {
            assert_eq!(resumed.next_u64(), original.next_u64());
        }
        // Export/import round-trips at any point, including before any draw.
        let fresh = DeterministicRng::seed_from_u64(9);
        assert_eq!(DeterministicRng::from_state(fresh.state()), fresh);
    }

    #[test]
    fn all_zero_state_is_rejected_as_a_fixed_point() {
        let mut rng = DeterministicRng::from_state([0; 4]);
        assert_eq!(rng, DeterministicRng::seed_from_u64(0));
        assert_ne!(rng.next_u64(), 0); // actually produces entropy
    }

    #[test]
    fn a_binomial_draw_reads_one_word_per_chunk_whatever_p() {
        for n in [1, 32, 1021, 1022, 1023, 1500, 2044, 2045, 10_000] {
            for p in [1e-9, 3e-9, 0.01, 0.3, 0.5, 0.75, 0.99, 1.0 - 1e-12] {
                let mut rng = check::CountedRng::new(DeterministicRng::seed_from_u64(n));
                for _ in 0..50 {
                    rng.random_binomial(n, p);
                }
                assert_eq!(rng.words(), 50 * n.div_ceil(BINOMIAL_CHUNK), "n {n}, p {p}");
            }
        }
        // A 32-SSD cart: one word, where 32 Bernoulli trials read 32.
        let mut rng = check::CountedRng::new(DeterministicRng::seed_from_u64(1));
        rng.random_binomial(32, 3e-9);
        assert_eq!(rng.words(), 1);
    }

    #[test]
    fn binomial_edges_read_no_words() {
        let mut rng = check::CountedRng::new(DeterministicRng::seed_from_u64(2));
        assert_eq!(rng.random_binomial(0, 0.5), 0);
        for p in [0.0, -0.0, -0.5, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(rng.random_binomial(32, p), 0, "p {p}");
        }
        for p in [1.0, 1.5, f64::INFINITY] {
            assert_eq!(rng.random_binomial(32, p), 32, "p {p}");
        }
        assert_eq!(rng.words(), 0);
    }

    #[test]
    fn binomial_draws_never_exceed_n() {
        check::forall("binomial_draws_never_exceed_n", 512, |g| {
            let n = g.u64_in(0, 3_000);
            let p = match g.u64_in(0, 4) {
                0 => g.f64_in(0.0, 1e-6),
                1 => 1.0 - g.f64_in(0.0, 1e-6),
                _ => g.f64_in(-0.1, 1.1),
            };
            let k = g.rng().random_binomial(n, p);
            assert!(k <= n, "binomial({n}, {p}) gave {k}");
        });
    }

    #[test]
    fn a_binomial_above_one_half_is_the_complement_of_its_mirror() {
        let mut a = DeterministicRng::seed_from_u64(11);
        let mut b = a.clone();
        for n in [1, 32, 1500] {
            for _ in 0..100 {
                assert_eq!(a.random_binomial(n, 0.75), n - b.random_binomial(n, 0.25));
            }
        }
    }

    /// The binomial(n, p) pmf, from log factorials.
    fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
        let mut ln_fact = vec![0.0f64; n as usize + 1];
        for i in 1..=n as usize {
            ln_fact[i] = ln_fact[i - 1] + (i as f64).ln();
        }
        let ln = |k: usize, m: usize| ln_fact[k + m] - ln_fact[k] - ln_fact[m];
        (0..=n as usize)
            .map(|k| {
                let rest = n as usize - k;
                (ln(k, rest) + k as f64 * p.ln() + rest as f64 * (1.0 - p).ln()).exp()
            })
            .collect()
    }

    /// Pearson's statistic of `seen` against `draws × pmf`, with neighbouring
    /// outcomes pooled until each bin expects at least 5 draws, and its
    /// degrees of freedom.
    fn chi_square(seen: &[u64], pmf: &[f64], draws: u64) -> (f64, usize) {
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let (mut expected, mut observed) = (0.0, 0.0);
        for (&o, &pk) in seen.iter().zip(pmf) {
            expected += pk * draws as f64;
            observed += o as f64;
            if expected >= 5.0 {
                bins.push((expected, observed));
                (expected, observed) = (0.0, 0.0);
            }
        }
        match bins.last_mut() {
            Some(last) => *last = (last.0 + expected, last.1 + observed),
            None => bins.push((expected, observed)),
        }
        let statistic = bins.iter().map(|&(e, o)| (o - e) * (o - e) / e).sum();
        (statistic, bins.len() - 1)
    }

    #[test]
    fn binomial_draws_follow_the_exact_pmf() {
        const DRAWS: u64 = 400_000;
        let mut rng = DeterministicRng::seed_from_u64(0xB1A5);
        for (n, p) in [
            (1, 0.3),
            (32, 1e-3),
            (32, 0.02),
            (32, 0.5),
            (32, 0.9),
            (600, 0.3),
            (1500, 0.01),
            (1500, 0.5),
        ] {
            let mut seen = vec![0u64; n as usize + 1];
            for _ in 0..DRAWS {
                seen[rng.random_binomial(n, p) as usize] += 1;
            }
            let (statistic, df) = chi_square(&seen, &binomial_pmf(n, p), DRAWS);
            // About 6 standard deviations above the mean: a correct sampler
            // passes at any seed, a wrong one lands far above.
            let bound = df as f64 + 6.0 * (2.0 * df as f64).sqrt() + 10.0;
            assert!(
                statistic < bound,
                "binomial({n}, {p}): chi-square {statistic:.1} on {df} df, bound {bound:.1}"
            );
        }
    }
}
