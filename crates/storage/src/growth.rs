//! Dataset and density growth projections (§II, §II-A).
//!
//! "For decades there has been exponential growth in data creation and
//! dataset sizes" — and on the other side, SSD density "has been quietly
//! skyrocketing". This module projects both exponentials so deployments can
//! ask when a dataset outgrows a cart fleet, and whether NAND scaling keeps
//! pace.

use dhl_units::Bytes;

/// An exponential growth process with a fixed annual rate.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct GrowthModel {
    /// Size at year zero.
    pub initial: Bytes,
    /// Annual growth factor (1.4 = +40 %/year).
    pub annual_factor: f64,
}

impl GrowthModel {
    /// Dataset growth at the rough doubling-every-two-years rate implied by
    /// Table I's trajectory (Meta: 3 → 13 → 29 PB over ~2 years ≈ 3×/year
    /// at the steep end; we default to √2 ≈ 1.41×/year as the long-run
    /// rate).
    #[must_use]
    pub fn dataset_default(initial: Bytes) -> Self {
        Self {
            initial,
            annual_factor: std::f64::consts::SQRT_2,
        }
    }

    /// NAND density growth: ~1.3×/year (layer-count stacking cadence).
    #[must_use]
    pub fn nand_density_default(initial: Bytes) -> Self {
        Self {
            initial,
            annual_factor: 1.3,
        }
    }

    /// Projected size after `years` (fractional years allowed).
    #[must_use]
    pub fn size_after(&self, years: f64) -> Bytes {
        let projected = self.initial.as_f64() * self.annual_factor.powf(years);
        Bytes::new(projected.min(u64::MAX as f64) as u64)
    }
}

/// Whether a cart fleet keeps up with a growing dataset: compares the
/// number of carts a dataset needs over time under both exponentials.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FleetProjection {
    /// The dataset's growth.
    pub dataset: GrowthModel,
    /// Per-cart capacity growth (NAND density; cart count and mass fixed).
    pub cart_capacity: GrowthModel,
}

impl FleetProjection {
    /// Carts needed `years` from now.
    #[must_use]
    pub fn carts_needed_after(&self, years: f64) -> u64 {
        let data = self.dataset.size_after(years);
        let cart = self.cart_capacity.size_after(years);
        if cart.is_zero() {
            return u64::MAX;
        }
        data.div_ceil(cart)
    }

    /// Whether the cart count stays bounded by `limit` over a horizon
    /// (checked at yearly granularity).
    #[must_use]
    pub fn fleet_stays_within(&self, limit: u64, horizon_years: u32) -> bool {
        (0..=horizon_years).all(|y| self.carts_needed_after(f64::from(y)) <= limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn growth(initial: Bytes, annual_factor: f64) -> GrowthModel {
        GrowthModel {
            initial,
            annual_factor,
        }
    }

    #[test]
    fn projection_math() {
        let g = growth(Bytes::from_petabytes(29.0), 2.0);
        assert_eq!(g.size_after(0.0), Bytes::from_petabytes(29.0));
        assert_eq!(g.size_after(1.0), Bytes::from_petabytes(58.0));
        assert_eq!(g.size_after(2.0), Bytes::from_petabytes(116.0));
    }

    #[test]
    fn meta_trajectory_is_steeper_than_the_default() {
        // 3 → 29 PB in ~2 years is ≈ 3.1×/year — Table I's steep end.
        let implied = (29.0f64 / 3.0).powf(0.5);
        assert!(implied > GrowthModel::dataset_default(Bytes::from_petabytes(3.0)).annual_factor);
    }

    #[test]
    fn nand_density_nearly_keeps_up_with_default_dataset_growth() {
        // Dataset at √2/year vs carts at 1.3/year: the fleet grows slowly
        // (ratio 1.088/year) — a 114-cart fleet stays under 200 carts for
        // ~6 years.
        let p = FleetProjection {
            dataset: GrowthModel::dataset_default(Bytes::from_petabytes(29.0)),
            cart_capacity: GrowthModel::nand_density_default(Bytes::from_terabytes(256.0)),
        };
        assert_eq!(p.carts_needed_after(0.0), 114);
        assert!(p.fleet_stays_within(200, 6));
        assert!(!p.fleet_stays_within(200, 15));
    }

    #[test]
    fn meta_rate_outruns_nand() {
        // At Meta's observed 3×/year the fleet balloons within a few years
        // even with NAND scaling — a real adoption risk worth surfacing.
        let p = FleetProjection {
            dataset: growth(Bytes::from_petabytes(29.0), 3.0),
            cart_capacity: GrowthModel::nand_density_default(Bytes::from_terabytes(256.0)),
        };
        assert!(p.carts_needed_after(3.0) > 1_000);
    }

    #[test]
    fn fractional_years() {
        let g = growth(Bytes::from_petabytes(4.0), 4.0);
        assert_eq!(g.size_after(0.5), Bytes::from_petabytes(8.0));
    }
}
