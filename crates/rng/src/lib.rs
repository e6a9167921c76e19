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
}
