//! Cart mass budgeting (§IV-A).
//!
//! The paper's cart is a polyacetal frame carrying M.2 SSDs, with neodymium
//! Halbach arrays for levitation (10 % of total mass) and an aluminium fin
//! for LIM propulsion (15 % of total mass). Given the payload and frame mass,
//! total mass follows from `M = (m_ssds + m_frame) / (1 - f_magnets - f_fin)`.

use dhl_units::Kilograms;

use crate::PhysicsError;

/// Parameterised cart mass model.
///
/// # Examples
///
/// Reproducing the paper's three cart masses (Table V: 161/282/524 g):
///
/// ```rust
/// use dhl_physics::CartMassModel;
/// let model = CartMassModel::paper_default();
/// assert!((model.budget(16).total.grams() - 160.96).abs() < 0.01);
/// assert!((model.budget(32).total.grams() - 281.92).abs() < 0.01);
/// assert!((model.budget(64).total.grams() - 523.84).abs() < 0.01);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CartMassModel {
    ssd_mass: Kilograms,
    frame_mass: Kilograms,
    magnet_fraction: f64,
    fin_fraction: f64,
}

/// The mass of every cart component, produced by [`CartMassModel::budget`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CartMassBudget {
    /// Neodymium Halbach arrays plus correcting magnets.
    pub magnets: Kilograms,
    /// The central aluminium propulsion fin.
    pub fin: Kilograms,
    /// All M.2 SSDs on board.
    pub ssds: Kilograms,
    /// The polyacetal frame.
    pub frame: Kilograms,
    /// Total cart mass (sum of the above).
    pub total: Kilograms,
}

impl CartMassModel {
    /// Mass of one Sabrent Rocket 4 Plus 8 TB M.2 SSD (Table II): 5.67 g.
    pub const PAPER_SSD_MASS: Kilograms = Kilograms::new(5.67e-3);
    /// The paper's frame mass bound: 30 g.
    pub const PAPER_FRAME_MASS: Kilograms = Kilograms::new(30.0e-3);
    /// Magnets are 10 % of total cart mass for a 10 mm air gap (§IV-A).
    pub const PAPER_MAGNET_FRACTION: f64 = 0.10;
    /// The aluminium fin is 15 % of total cart mass (§IV-A).
    pub const PAPER_FIN_FRACTION: f64 = 0.15;

    /// The paper's cart composition (§IV-A).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ssd_mass: Self::PAPER_SSD_MASS,
            frame_mass: Self::PAPER_FRAME_MASS,
            magnet_fraction: Self::PAPER_MAGNET_FRACTION,
            fin_fraction: Self::PAPER_FIN_FRACTION,
        }
    }

    /// A custom composition.
    ///
    /// # Errors
    ///
    /// - [`PhysicsError::NonPositive`] if `ssd_mass` is not positive or
    ///   `frame_mass` is negative;
    /// - [`PhysicsError::MassFractionsTooLarge`] if
    ///   `magnet_fraction + fin_fraction >= 1` (the payload would need
    ///   non-positive mass) or either fraction is negative.
    pub fn new(
        ssd_mass: Kilograms,
        frame_mass: Kilograms,
        magnet_fraction: f64,
        fin_fraction: f64,
    ) -> Result<Self, PhysicsError> {
        if ssd_mass.value() <= 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "ssd mass",
                value: ssd_mass.value(),
            });
        }
        if frame_mass.value() < 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "frame mass",
                value: frame_mass.value(),
            });
        }
        let sum = magnet_fraction + fin_fraction;
        if magnet_fraction < 0.0 || fin_fraction < 0.0 || sum >= 1.0 || !sum.is_finite() {
            return Err(PhysicsError::MassFractionsTooLarge { sum });
        }
        Ok(Self {
            ssd_mass,
            frame_mass,
            magnet_fraction,
            fin_fraction,
        })
    }

    /// Mass of a single SSD in this model.
    #[must_use]
    pub fn ssd_mass(&self) -> Kilograms {
        self.ssd_mass
    }

    /// Frame mass in this model.
    #[must_use]
    pub fn frame_mass(&self) -> Kilograms {
        self.frame_mass
    }

    /// Fraction of total mass devoted to levitation magnets.
    #[must_use]
    pub fn magnet_fraction(&self) -> f64 {
        self.magnet_fraction
    }

    /// Fraction of total mass devoted to the propulsion fin.
    #[must_use]
    pub fn fin_fraction(&self) -> f64 {
        self.fin_fraction
    }

    /// Computes the full mass budget for a cart carrying `ssd_count` SSDs.
    #[must_use]
    pub fn budget(&self, ssd_count: u32) -> CartMassBudget {
        let ssds = self.ssd_mass * f64::from(ssd_count);
        let payload = ssds + self.frame_mass;
        let total = payload / (1.0 - self.magnet_fraction - self.fin_fraction);
        CartMassBudget {
            magnets: total * self.magnet_fraction,
            fin: total * self.fin_fraction,
            ssds,
            frame: self.frame_mass,
            total,
        }
    }
}

impl Default for CartMassModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl CartMassBudget {
    /// Consistency check: components sum to the total (within float noise).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let sum = self.magnets + self.fin + self.ssds + self.frame;
        (sum.value() - self.total.value()).abs() <= 1e-12 * self.total.value().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cart_masses_match_table_v() {
        let m = CartMassModel::paper_default();
        // Paper §IV-A quotes SSD masses of 91/180/363 g for 16/32/64 drives
        // (rounded from 90.72/181.44/362.88) and totals of 161/282/524 g.
        assert!((m.budget(16).total.grams() - 160.96).abs() < 0.01);
        assert!((m.budget(32).total.grams() - 281.92).abs() < 0.01);
        assert!((m.budget(64).total.grams() - 523.84).abs() < 0.01);
        assert!((m.budget(32).ssds.grams() - 181.44).abs() < 0.01);
    }

    #[test]
    fn budget_components_are_consistent() {
        let m = CartMassModel::paper_default();
        for n in [1, 16, 32, 64, 128] {
            let b = m.budget(n);
            assert!(b.is_consistent(), "inconsistent budget for {n} SSDs: {b:?}");
            assert!((b.magnets.value() / b.total.value() - 0.10).abs() < 1e-12);
            assert!((b.fin.value() / b.total.value() - 0.15).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_ssds_is_frame_plus_overheads() {
        let b = CartMassModel::paper_default().budget(0);
        assert!((b.total.grams() - 40.0).abs() < 1e-9); // 30 g / 0.75
        assert!(b.is_consistent());
    }

    #[test]
    fn rejects_bad_fractions() {
        let err = CartMassModel::new(
            CartMassModel::PAPER_SSD_MASS,
            CartMassModel::PAPER_FRAME_MASS,
            0.6,
            0.5,
        )
        .unwrap_err();
        assert_eq!(err, PhysicsError::MassFractionsTooLarge { sum: 1.1 });
        assert!(CartMassModel::new(
            CartMassModel::PAPER_SSD_MASS,
            CartMassModel::PAPER_FRAME_MASS,
            -0.1,
            0.2
        )
        .is_err());
    }

    #[test]
    fn rejects_non_positive_masses() {
        assert!(matches!(
            CartMassModel::new(Kilograms::ZERO, Kilograms::ZERO, 0.1, 0.15),
            Err(PhysicsError::NonPositive {
                what: "ssd mass",
                ..
            })
        ));
        assert!(matches!(
            CartMassModel::new(
                CartMassModel::PAPER_SSD_MASS,
                Kilograms::from_grams(-1.0),
                0.1,
                0.15
            ),
            Err(PhysicsError::NonPositive {
                what: "frame mass",
                ..
            })
        ));
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(CartMassModel::default(), CartMassModel::paper_default());
    }

    #[test]
    fn heavier_ssds_scale_linearly() {
        let heavy = CartMassModel::new(
            Kilograms::from_grams(11.34), // double the paper SSD
            CartMassModel::PAPER_FRAME_MASS,
            0.10,
            0.15,
        )
        .unwrap();
        let light = CartMassModel::paper_default();
        // Doubling per-SSD mass for 32 drives equals 64 light drives.
        assert!((heavy.budget(32).total.value() - light.budget(64).total.value()).abs() < 1e-12);
    }
}
