//! Docked-cart thermal model (§VI "Heat Sinks").
//!
//! An M.2 SSD can consume up to 10 W under load; a 64-drive cart would
//! dissipate 640 W if all drives were active at once. The paper's fix is
//! conductive heat sinks between the M.2 connectors. We model a docking bay
//! with a finite heat-dissipation capacity and compute how many SSDs can run
//! concurrently.

use dhl_units::Watts;

use crate::cart::CartStorage;

/// Thermal envelope of a docking bay.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::thermal::ThermalModel;
/// use dhl_storage::cart::CartStorage;
///
/// let bay = ThermalModel::paper_default();
/// // With heat sinks, the default 32-SSD cart can run fully active.
/// assert!(bay.can_sustain_full_load(&CartStorage::paper_default()));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ThermalModel {
    dissipation_capacity: Watts,
    ambient_headroom: f64,
}

impl ThermalModel {
    /// Dissipation capacity of a heat-sinked docking bay. Budgeted to cover
    /// a fully active 64-SSD cart (640 W) with margin: 800 W.
    pub const PAPER_DISSIPATION: Watts = Watts::new(800.0);
    /// Fraction of capacity usable after ambient/airflow derating.
    pub const PAPER_HEADROOM: f64 = 0.9;

    /// The paper-calibrated heat-sinked bay.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            dissipation_capacity: Self::PAPER_DISSIPATION,
            ambient_headroom: Self::PAPER_HEADROOM,
        }
    }

    /// A bay without heat sinks: convection only, ~2 W per M.2 slot over the
    /// 64-slot footprint.
    #[must_use]
    pub fn without_heatsinks() -> Self {
        Self {
            dissipation_capacity: Watts::new(128.0),
            ambient_headroom: Self::PAPER_HEADROOM,
        }
    }

    /// A custom envelope. `headroom` is clamped into `(0, 1]`.
    #[must_use]
    pub fn new(dissipation_capacity: Watts, headroom: f64) -> Self {
        Self {
            dissipation_capacity: Watts::new(dissipation_capacity.value().max(0.0)),
            ambient_headroom: headroom.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }

    /// Usable dissipation budget after derating.
    #[must_use]
    pub fn usable_budget(&self) -> Watts {
        self.dissipation_capacity * self.ambient_headroom
    }

    /// Maximum number of `cart`'s SSDs that may be active concurrently.
    #[must_use]
    pub fn max_concurrent_ssds(&self, cart: &CartStorage) -> u32 {
        let per_ssd = cart.device().active_power_watts;
        if per_ssd <= 0.0 {
            return cart.ssd_count();
        }
        let limit = (self.usable_budget().value() / per_ssd).floor() as u32;
        limit.min(cart.ssd_count())
    }

    /// Whether every SSD on the cart can be active at once.
    #[must_use]
    pub fn can_sustain_full_load(&self, cart: &CartStorage) -> bool {
        self.max_concurrent_ssds(cart) == cart.ssd_count()
    }

    /// Fraction of the cart's aggregate bandwidth usable under this thermal
    /// envelope (active SSDs / total SSDs).
    #[must_use]
    pub fn bandwidth_derating(&self, cart: &CartStorage) -> f64 {
        if cart.ssd_count() == 0 {
            return 1.0;
        }
        f64::from(self.max_concurrent_ssds(cart)) / f64::from(cart.ssd_count())
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatsinked_bay_sustains_all_paper_carts() {
        let bay = ThermalModel::paper_default();
        for cart in [CartStorage::paper_default(), CartStorage::paper_large()] {
            assert!(
                bay.can_sustain_full_load(&cart),
                "{} SSDs",
                cart.ssd_count()
            );
            assert_eq!(bay.bandwidth_derating(&cart), 1.0);
        }
    }

    #[test]
    fn bare_bay_throttles_large_carts() {
        // Without heat sinks only 11 of 64 SSDs (10 W each, 115.2 W budget)
        // can run — the §VI motivation for adding them.
        let bay = ThermalModel::without_heatsinks();
        let large = CartStorage::paper_large();
        assert_eq!(bay.max_concurrent_ssds(&large), 11);
        assert!(!bay.can_sustain_full_load(&large));
        assert!(bay.bandwidth_derating(&large) < 0.2);
    }

    #[test]
    fn limit_never_exceeds_ssd_count() {
        let bay = ThermalModel::new(Watts::new(1e9), 1.0);
        let cart = CartStorage::paper_default();
        assert_eq!(bay.max_concurrent_ssds(&cart), 32);
    }

    #[test]
    fn zero_capacity_allows_nothing() {
        let bay = ThermalModel::new(Watts::ZERO, 1.0);
        assert_eq!(bay.max_concurrent_ssds(&CartStorage::paper_default()), 0);
        assert_eq!(bay.bandwidth_derating(&CartStorage::paper_default()), 0.0);
    }

    #[test]
    fn headroom_is_clamped() {
        let bay = ThermalModel::new(Watts::new(100.0), 2.0);
        assert!((bay.usable_budget().value() - 100.0).abs() < 1e-9);
    }
}
