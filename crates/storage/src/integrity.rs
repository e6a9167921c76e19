//! End-to-end payload integrity: checksums and silent corruption models.
//!
//! The paper's §II-A durability story covers *whole-drive* loss (RAID across
//! a cart's SSDs, [`crate::failure`]); this module covers the other half of
//! the sneakernet integrity problem — *silent* corruption of bytes that
//! still read back. Three physical substrates drive the corruption hazard:
//!
//! - **bit rot** over the shard's exposure window, scaled by NAND wear
//!   ([`crate::wear::CartWear::wear_fraction`]);
//! - **mating errors** on the docking connector, growing as the connector
//!   approaches its rated cycles ([`crate::connectors::DockingConnector`]);
//! - **thermal stress**: a docking bay that cannot cool every SSD
//!   ([`crate::thermal::ThermalModel::bandwidth_derating`]) reads hotter
//!   drives, multiplying the error rate.
//!
//! Checksums are an in-tree, zero-dependency 64-bit FNV-1a — the same
//! no-new-crates discipline as `dhl-obs`'s JSON writer.

use dhl_rng::Rng;

use dhl_units::Seconds;

use crate::cart::CartStorage;
use crate::thermal::ThermalModel;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the 64-bit FNV-1a checksum of a byte slice.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::integrity::fnv1a_64;
///
/// assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a_64(b"shard-0"), fnv1a_64(b"shard-1"));
/// ```
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An incremental FNV-1a 64-bit checksum, for data that arrives in chunks.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Checksum64 {
    state: u64,
}

impl Checksum64 {
    /// A fresh checksum (the FNV-1a offset basis).
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Feeds a chunk of bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The checksum over everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Formatting into a checksum feeds it the text, with no `String` between.
impl core::fmt::Write for Checksum64 {
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Silent-corruption hazard model for shards riding a cart.
///
/// Combines three per-shard effects into one trip corruption probability:
/// a constant bit-rot hazard scaled up by NAND wear, a per-mating-cycle
/// error probability scaled up by connector wear, and a thermal multiplier
/// (≥ 1) for bays that run their drives throttled-hot.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::integrity::CorruptionModel;
/// use dhl_units::Seconds;
///
/// let model = CorruptionModel::paper_default();
/// let fresh = model.shard_corruption_probability(Seconds::new(8.6), 0.0, 0.0);
/// let worn = model.shard_corruption_probability(Seconds::new(8.6), 1.0, 1.0);
/// assert!(fresh < worn);
/// assert!((0.0..=1.0).contains(&worn));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CorruptionModel {
    /// Baseline per-shard bit-rot hazard (per second of exposure) on fresh
    /// NAND.
    pub bit_rot_hazard_per_second: f64,
    /// How strongly wear amplifies the bit-rot hazard: the effective hazard
    /// is `base × (1 + wear_multiplier × wear_fraction)`.
    pub wear_multiplier: f64,
    /// Per-shard corruption probability added by one connector mating on
    /// fresh pins; grows linearly to twice that at rated wear-out.
    pub mating_error_per_cycle: f64,
    /// Error-rate multiplier (≥ 1) for thermal stress; see
    /// [`CorruptionModel::with_thermal`].
    pub thermal_multiplier: f64,
}

impl CorruptionModel {
    /// A conservative nominal model: consumer-NAND UBER-scale bit rot
    /// (~1e-9/s per 8 TB shard), wear doubling the hazard at end of life
    /// (wear multiplier 1), a 1e-9 mating-error floor, no thermal stress.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            bit_rot_hazard_per_second: 1e-9,
            wear_multiplier: 1.0,
            mating_error_per_cycle: 1e-9,
            thermal_multiplier: 1.0,
        }
    }

    /// A model that never corrupts anything (verification still runs and
    /// costs time/energy).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            bit_rot_hazard_per_second: 0.0,
            wear_multiplier: 0.0,
            mating_error_per_cycle: 0.0,
            thermal_multiplier: 1.0,
        }
    }

    /// Sets the thermal multiplier from the docking bay's envelope: a bay
    /// that can only keep a fraction `d` of the cart's SSDs inside its heat
    /// budget runs them hotter, multiplying the error rate by `1 / d`
    /// (1.0 when fully heat-sinked, as in the paper's default bay).
    #[must_use]
    pub fn with_thermal(mut self, bay: &ThermalModel, cart: &CartStorage) -> Self {
        let derating = bay.bandwidth_derating(cart);
        self.thermal_multiplier = if derating > 0.0 { 1.0 / derating } else { 1.0 };
        self
    }

    /// Whether every hazard term is zero (no sampling needed).
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.bit_rot_hazard_per_second == 0.0 && self.mating_error_per_cycle == 0.0
    }

    /// Validates the model's parameters, returning the first violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let non_negative_finite = |name: &str, v: f64| {
            if !v.is_finite() || v < 0.0 {
                Err(format!("{name} must be non-negative and finite, got {v}"))
            } else {
                Ok(())
            }
        };
        non_negative_finite("bit_rot_hazard_per_second", self.bit_rot_hazard_per_second)?;
        non_negative_finite("wear_multiplier", self.wear_multiplier)?;
        if !self.mating_error_per_cycle.is_finite()
            || !(0.0..=1.0).contains(&self.mating_error_per_cycle)
        {
            return Err(format!(
                "mating_error_per_cycle must be a probability in [0, 1], got {}",
                self.mating_error_per_cycle
            ));
        }
        if !self.thermal_multiplier.is_finite() || self.thermal_multiplier < 1.0 {
            return Err(format!(
                "thermal_multiplier must be ≥ 1 and finite, got {}",
                self.thermal_multiplier
            ));
        }
        Ok(())
    }

    /// Probability that one shard is silently corrupted over a trip:
    /// `exposure` seconds of transit + docked dwell, at the cart's current
    /// NAND `wear_fraction` (0 fresh → 1 worn out) and the connector's
    /// `connector_wear` fraction (0 fresh → 1 at rated cycles).
    ///
    /// Non-finite or negative inputs are clamped rather than propagated.
    #[must_use]
    pub fn shard_corruption_probability(
        &self,
        exposure: Seconds,
        wear_fraction: f64,
        connector_wear: f64,
    ) -> f64 {
        let t = if exposure.seconds().is_finite() {
            exposure.seconds().max(0.0)
        } else {
            0.0
        };
        let sanitise = |v: f64| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        let wear = sanitise(wear_fraction);
        let conn = sanitise(connector_wear);
        let hazard = self.bit_rot_hazard_per_second * (1.0 + self.wear_multiplier * wear);
        let p_rot = 1.0 - (-hazard * t).exp();
        let p_mate = self.mating_error_per_cycle * (1.0 + conn);
        // Independent failure modes, then the thermal stress multiplier.
        let combined = p_rot + p_mate - p_rot * p_mate;
        (combined * self.thermal_multiplier).clamp(0.0, 1.0)
    }

    /// Samples how many of `shard_count` shards corrupt over one trip: one
    /// binomial draw, one word of `rng` for up to
    /// [`dhl_rng::BINOMIAL_CHUNK`] shards.
    pub fn sample_corrupted_shards<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        shard_count: u64,
        exposure: Seconds,
        wear_fraction: f64,
        connector_wear: f64,
    ) -> u64 {
        if self.is_disabled() || shard_count == 0 {
            return 0;
        }
        let p = self.shard_corruption_probability(exposure, wear_fraction, connector_wear);
        rng.random_binomial(shard_count, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_rng::DeterministicRng;

    #[test]
    fn fnv_vectors_match_the_reference() {
        // Classic FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut c = Checksum64::new();
        c.update(b"foo");
        c.update(b"bar");
        assert_eq!(c.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn corruption_probability_is_monotone_in_wear_and_exposure() {
        let model = CorruptionModel {
            bit_rot_hazard_per_second: 1e-6,
            wear_multiplier: 2.0,
            mating_error_per_cycle: 1e-5,
            thermal_multiplier: 1.0,
        };
        let t = Seconds::new(1_000.0);
        let fresh = model.shard_corruption_probability(t, 0.0, 0.0);
        let worn = model.shard_corruption_probability(t, 0.8, 0.0);
        let worn_conn = model.shard_corruption_probability(t, 0.8, 0.9);
        assert!(fresh < worn && worn < worn_conn);
        let longer = model.shard_corruption_probability(Seconds::new(10_000.0), 0.0, 0.0);
        assert!(longer > fresh);
    }

    #[test]
    fn thermal_stress_multiplies_the_error_rate() {
        use crate::cart::CartStorage;
        use crate::thermal::ThermalModel;
        let base = CorruptionModel::paper_default();
        // Heat-sinked bay: derating 1.0 → multiplier 1.0.
        let cool = base.with_thermal(&ThermalModel::paper_default(), &CartStorage::paper_large());
        assert_eq!(cool.thermal_multiplier, 1.0);
        // Bare bay throttles a 64-SSD cart to 11 active drives.
        let hot = base.with_thermal(
            &ThermalModel::without_heatsinks(),
            &CartStorage::paper_large(),
        );
        assert!(hot.thermal_multiplier > 5.0);
        let p_cool = cool.shard_corruption_probability(Seconds::new(100.0), 0.0, 0.0);
        let p_hot = hot.shard_corruption_probability(Seconds::new(100.0), 0.0, 0.0);
        assert!((p_hot / p_cool - hot.thermal_multiplier).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs_are_clamped_not_propagated() {
        let model = CorruptionModel::paper_default();
        for p in [
            model.shard_corruption_probability(Seconds::new(f64::NAN), 0.5, 0.5),
            model.shard_corruption_probability(Seconds::new(-10.0), f64::NAN, 2.0),
            model.shard_corruption_probability(Seconds::new(f64::INFINITY), -1.0, -1.0),
        ] {
            assert!((0.0..=1.0).contains(&p), "got {p}");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(CorruptionModel::paper_default().validate().is_ok());
        assert!(CorruptionModel::disabled().validate().is_ok());
        let mut m = CorruptionModel::paper_default();
        m.bit_rot_hazard_per_second = f64::NAN;
        assert!(m.validate().is_err());
        let mut m = CorruptionModel::paper_default();
        m.mating_error_per_cycle = 1.5;
        assert!(m.validate().is_err());
        let mut m = CorruptionModel::paper_default();
        m.thermal_multiplier = 0.5;
        assert!(m.validate().is_err());
    }

    #[test]
    fn disabled_model_samples_nothing() {
        let mut rng = DeterministicRng::seed_from_u64(1);
        let n = CorruptionModel::disabled().sample_corrupted_shards(
            &mut rng,
            1_000,
            Seconds::new(1e12),
            1.0,
            1.0,
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn a_cart_of_shards_is_sampled_with_one_word() {
        let mut rng = dhl_rng::check::CountedRng::new(DeterministicRng::seed_from_u64(4));
        let model = CorruptionModel::paper_default();
        for _ in 0..10 {
            model.sample_corrupted_shards(&mut rng, 32, Seconds::new(8.6), 0.5, 0.5);
        }
        assert_eq!(rng.words(), 10);
    }

    #[test]
    fn sampling_matches_expectation_roughly() {
        let model = CorruptionModel {
            bit_rot_hazard_per_second: 0.0,
            wear_multiplier: 0.0,
            mating_error_per_cycle: 0.25,
            thermal_multiplier: 1.0,
        };
        let mut rng = DeterministicRng::seed_from_u64(9);
        let n = model.sample_corrupted_shards(&mut rng, 10_000, Seconds::ZERO, 0.0, 0.0);
        let rate = n as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "got {rate}");
    }
}
