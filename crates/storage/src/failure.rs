//! SSD failure injection and RAID tolerance (§III-D).
//!
//! "If an SSD fails in-flight, the endpoint's DHL API will report the error,
//! and RAID and backups can ameliorate the issue." This module provides the
//! stochastic failure model the simulator injects and the RAID arithmetic
//! that decides whether a cart's data survived.

use dhl_rng::Rng;

use dhl_units::Seconds;

/// Exponential (constant-hazard) SSD failure model parameterised by annual
/// failure rate (AFR).
///
/// # Examples
///
/// ```rust
/// use dhl_storage::failure::FailureModel;
/// use dhl_units::Seconds;
///
/// let model = FailureModel::new(0.01); // 1 % AFR, typical enterprise SSD
/// let p = model.failure_probability(Seconds::new(8.6));
/// assert!(p > 0.0 && p < 1e-8); // one trip is essentially risk-free
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FailureModel {
    annual_failure_rate: f64,
}

impl FailureModel {
    /// Seconds per (365-day) year.
    const SECONDS_PER_YEAR: f64 = 365.0 * 86_400.0;

    /// A model with the given annual failure rate, clamped into `[0, 1)`.
    /// A non-finite AFR (NaN or ±∞ would otherwise leak through `clamp`
    /// into every survival probability) is treated as zero.
    #[must_use]
    pub fn new(annual_failure_rate: f64) -> Self {
        let afr = if annual_failure_rate.is_finite() {
            annual_failure_rate
        } else {
            0.0
        };
        Self {
            annual_failure_rate: afr.clamp(0.0, 1.0 - f64::EPSILON),
        }
    }

    /// A typical enterprise SSD at 1 % AFR.
    #[must_use]
    pub fn typical_enterprise_ssd() -> Self {
        Self::new(0.01)
    }

    /// The annual failure rate.
    #[must_use]
    pub fn annual_failure_rate(&self) -> f64 {
        self.annual_failure_rate
    }

    /// Constant hazard rate λ (per second) such that
    /// `1 - exp(-λ·year) = AFR`.
    #[must_use]
    pub fn hazard_per_second(&self) -> f64 {
        -(1.0 - self.annual_failure_rate).ln() / Self::SECONDS_PER_YEAR
    }

    /// Probability that one SSD fails within `duration`. Negative and
    /// non-finite durations are clamped to zero exposure rather than
    /// propagating NaN into the survival arithmetic.
    #[must_use]
    pub fn failure_probability(&self, duration: Seconds) -> f64 {
        let exposure = if duration.seconds().is_finite() {
            duration.seconds().max(0.0)
        } else if duration.seconds() == f64::INFINITY {
            return if self.annual_failure_rate > 0.0 {
                1.0
            } else {
                0.0
            };
        } else {
            0.0
        };
        1.0 - (-self.hazard_per_second() * exposure).exp()
    }

    /// Samples how many of `ssd_count` independent SSDs fail within
    /// `duration`: one binomial draw, one word of `rng` for up to
    /// [`dhl_rng::BINOMIAL_CHUNK`] SSDs.
    pub fn sample_failures<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        ssd_count: u32,
        duration: Seconds,
    ) -> u32 {
        let p = self.failure_probability(duration);
        // At most `ssd_count`, so the narrowing is exact.
        rng.random_binomial(u64::from(ssd_count), p) as u32
    }
}

/// A RAID layout across a cart's SSDs.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::failure::RaidConfig;
/// use dhl_units::Bytes;
///
/// // 28 data + 4 parity drives on a 32-SSD cart (RAID-6-style, two groups).
/// let raid = RaidConfig::new(28, 4).unwrap();
/// assert!(raid.tolerates(4));
/// assert!(!raid.tolerates(5));
/// // Usable capacity loses the parity fraction.
/// let usable = raid.usable_capacity(Bytes::from_terabytes(256.0));
/// assert_eq!(usable.terabytes(), 224.0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RaidConfig {
    data_drives: u32,
    parity_drives: u32,
}

/// Error constructing a degenerate RAID layout.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct InvalidRaid;

impl core::fmt::Display for InvalidRaid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "raid layout needs at least one data drive")
    }
}

impl std::error::Error for InvalidRaid {}

impl RaidConfig {
    /// A layout of `data_drives` data and `parity_drives` parity drives.
    ///
    /// # Errors
    ///
    /// [`InvalidRaid`] if there are zero data drives.
    pub fn new(data_drives: u32, parity_drives: u32) -> Result<Self, InvalidRaid> {
        if data_drives == 0 {
            return Err(InvalidRaid);
        }
        Ok(Self {
            data_drives,
            parity_drives,
        })
    }

    /// No redundancy: every drive carries unique data.
    ///
    /// `drives` must be at least 1; a zero-drive layout is meaningless and
    /// is clamped to a single data drive (debug builds assert instead, so
    /// the bug surfaces in tests rather than silently shifting capacity
    /// arithmetic). Use [`RaidConfig::new`] when the drive count is not
    /// statically known to be positive — it returns a `Result`.
    #[must_use]
    pub fn none(drives: u32) -> Self {
        debug_assert!(drives >= 1, "RaidConfig::none requires at least one drive");
        Self {
            data_drives: drives.max(1),
            parity_drives: 0,
        }
    }

    /// Total drives in the layout.
    #[must_use]
    pub fn total_drives(&self) -> u32 {
        self.data_drives + self.parity_drives
    }

    /// Number of parity drives.
    #[must_use]
    pub fn parity_drives(&self) -> u32 {
        self.parity_drives
    }

    /// Whether the layout survives `failures` simultaneous drive losses.
    #[must_use]
    pub fn tolerates(&self, failures: u32) -> bool {
        failures <= self.parity_drives
    }

    /// Usable (non-parity) fraction of a raw capacity.
    #[must_use]
    pub fn usable_capacity(&self, raw: dhl_units::Bytes) -> dhl_units::Bytes {
        let frac = f64::from(self.data_drives) / f64::from(self.total_drives());
        dhl_units::Bytes::new((raw.as_f64() * frac).round() as u64)
    }

    /// Probability the cart's data survives a trip, given a per-SSD failure
    /// probability `p` (binomial survival across the layout).
    ///
    /// Each binomial term is O(1) via the memoised/Stirling
    /// `ln_factorial`, so the whole sum is O(parity) rather than
    /// O(drives × parity).
    #[must_use]
    pub fn trip_survival_probability(&self, p: f64) -> f64 {
        let n = self.total_drives();
        let p = p.clamp(0.0, 1.0);
        // Sum P(k failures) for k = 0..=parity.
        let mut survival = 0.0;
        for k in 0..=self.parity_drives.min(n) {
            survival += binomial_pmf(n, k, p);
        }
        survival.min(1.0)
    }
}

/// Binomial probability mass function, computed in log space for stability.
fn binomial_pmf(n: u32, k: u32, p: f64) -> f64 {
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_choose = ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k);
    (ln_choose + f64::from(k) * p.ln() + f64::from(n - k) * (1.0 - p).ln()).exp()
}

/// How many `ln(n!)` values the exact cumulative table covers. Carts top out
/// at a few hundred SSDs, so lookups almost never fall through to Stirling.
const LN_FACTORIAL_TABLE_SIZE: usize = 1025;

/// `ln(n!)` in O(1): an exact memoised prefix-sum table for `n < 1025`,
/// falling back to a Stirling-series approximation beyond it (error
/// < 1e-12 relative there, far below the table boundary values).
fn ln_factorial(n: u32) -> f64 {
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = Vec::with_capacity(LN_FACTORIAL_TABLE_SIZE);
        let mut acc = 0.0f64;
        t.push(acc); // ln(0!) = 0
        for i in 1..LN_FACTORIAL_TABLE_SIZE as u64 {
            acc += (i as f64).ln();
            t.push(acc);
        }
        t
    });
    if let Some(&v) = table.get(n as usize) {
        return v;
    }
    // Stirling's series for ln(n!) = ln Γ(n+1).
    let x = f64::from(n) + 1.0;
    let ln_2pi = (2.0 * std::f64::consts::PI).ln();
    (x - 0.5) * x.ln() - x + 0.5 * ln_2pi + 1.0 / (12.0 * x) - 1.0 / (360.0 * x.powi(3))
        + 1.0 / (1260.0 * x.powi(5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_rng::DeterministicRng;

    #[test]
    fn afr_round_trips_through_hazard() {
        let m = FailureModel::new(0.01);
        let year = Seconds::new(365.0 * 86_400.0);
        assert!((m.failure_probability(year) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn per_trip_probability_is_tiny() {
        let m = FailureModel::typical_enterprise_ssd();
        let p = m.failure_probability(Seconds::new(8.6));
        assert!(p < 3e-9, "got {p}");
        assert!(p > 0.0);
    }

    #[test]
    fn zero_duration_never_fails() {
        let m = FailureModel::new(0.5);
        assert_eq!(m.failure_probability(Seconds::ZERO), 0.0);
        assert_eq!(m.failure_probability(Seconds::new(-5.0)), 0.0);
    }

    #[test]
    fn degenerate_afr_is_sanitised() {
        // Non-finite AFRs would previously slip through `clamp` and poison
        // every downstream survival probability with NaN.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let m = FailureModel::new(bad);
            assert_eq!(m.annual_failure_rate(), 0.0, "AFR {bad} must sanitise");
            assert_eq!(m.failure_probability(Seconds::new(8.6)), 0.0);
        }
        // Negative AFRs clamp to zero; ≥ 1 clamps just below certainty.
        assert_eq!(FailureModel::new(-0.3).annual_failure_rate(), 0.0);
        let certain = FailureModel::new(2.0);
        assert!(certain.annual_failure_rate() < 1.0);
        assert!(certain.hazard_per_second().is_finite());
    }

    #[test]
    fn degenerate_durations_are_clamped() {
        let m = FailureModel::new(0.01);
        // NaN exposure clamps to zero exposure, not NaN probability.
        assert_eq!(m.failure_probability(Seconds::new(f64::NAN)), 0.0);
        assert_eq!(m.failure_probability(Seconds::new(f64::NEG_INFINITY)), 0.0);
        // Unbounded exposure with a positive hazard is certain failure...
        assert_eq!(m.failure_probability(Seconds::new(f64::INFINITY)), 1.0);
        // ...but a zero-hazard model never fails even over infinite time
        // (previously 0 × ∞ = NaN).
        let immortal = FailureModel::new(0.0);
        assert_eq!(
            immortal.failure_probability(Seconds::new(f64::INFINITY)),
            0.0
        );
        // Sampling with sanitised inputs stays well-defined.
        let mut rng = DeterministicRng::seed_from_u64(7);
        assert_eq!(m.sample_failures(&mut rng, 32, Seconds::new(f64::NAN)), 0);
    }

    #[test]
    fn sampling_matches_expectation_roughly() {
        let mut rng = DeterministicRng::seed_from_u64(42);
        let m = FailureModel::new(0.5);
        let long = Seconds::new(365.0 * 86_400.0); // a full year: p = 0.5
        let trials = 2_000u32;
        let mut total = 0;
        for _ in 0..trials {
            total += m.sample_failures(&mut rng, 1, long);
        }
        let rate = f64::from(total) / f64::from(trials);
        assert!((rate - 0.5).abs() < 0.05, "got {rate}");
    }

    #[test]
    fn a_cart_of_ssds_is_sampled_with_one_word() {
        let mut rng = dhl_rng::check::CountedRng::new(DeterministicRng::seed_from_u64(3));
        let m = FailureModel::typical_enterprise_ssd();
        for _ in 0..10 {
            m.sample_failures(&mut rng, 32, Seconds::new(8.6));
        }
        assert_eq!(rng.words(), 10);
    }

    #[test]
    fn raid_tolerance_and_capacity() {
        let raid = RaidConfig::new(28, 4).unwrap();
        assert_eq!(raid.total_drives(), 32);
        assert!(raid.tolerates(0));
        assert!(raid.tolerates(4));
        assert!(!raid.tolerates(5));
        let usable = raid.usable_capacity(dhl_units::Bytes::from_terabytes(256.0));
        assert_eq!(usable.terabytes(), 224.0);
    }

    #[test]
    fn raid_none_tolerates_nothing() {
        let raid = RaidConfig::none(32);
        assert!(raid.tolerates(0));
        assert!(!raid.tolerates(1));
        assert_eq!(
            raid.usable_capacity(dhl_units::Bytes::from_terabytes(256.0))
                .terabytes(),
            256.0
        );
    }

    #[test]
    fn zero_data_drives_rejected() {
        assert_eq!(RaidConfig::new(0, 4), Err(InvalidRaid));
    }

    #[test]
    fn survival_probability_boundaries() {
        let raid = RaidConfig::new(28, 4).unwrap();
        assert!((raid.trip_survival_probability(0.0) - 1.0).abs() < 1e-12);
        assert!(raid.trip_survival_probability(1.0) < 1e-12);
        // Tiny p: survival is essentially certain with 4 parity drives.
        assert!(raid.trip_survival_probability(1e-9) > 0.999_999_999);
    }

    #[test]
    fn survival_improves_with_parity() {
        let p = 0.01;
        let none = RaidConfig::none(32).trip_survival_probability(p);
        let raid4 = RaidConfig::new(28, 4).unwrap().trip_survival_probability(p);
        assert!(raid4 > none);
        // 32 drives at 1% each: ~72.5% chance all survive.
        assert!((none - 0.99f64.powi(32)).abs() < 1e-12);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 10;
        let p = 0.3;
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
