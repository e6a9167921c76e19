//! Halbach-array levitation and magnetic drag (§III-A, §IV-A.2).
//!
//! The cart levitates on an inductrack: permanent-magnet Halbach arrays over
//! conductive rail coils. Levitation drag is characterised by the
//! lift-to-drag ratio `c₁`, which grows with speed and exceeds 50 above a few
//! dozen m/s (the paper assumes a pessimistic `c₁ ≈ 10`). Coasting energy
//! loss follows the paper's equation `L_d = (g + 2c₂)·M·x / c₁` where `c₂`
//! is the downward acceleration contributed by the upper (guidance) Halbach
//! array.

use dhl_units::{
    Joules, Kilograms, Metres, MetresPerSecond, MetresPerSecondSquared, Newtons, STANDARD_GRAVITY,
};

use crate::PhysicsError;

/// Speed-dependent lift-to-drag ratio of an inductrack.
///
/// Modelled as `c₁(v) = c₁_∞ · v / (v + v_half)`: zero lift-to-drag at rest
/// (an inductrack cannot levitate a stationary cart), approaching the
/// asymptotic ratio at high speed — the qualitative shape from Murai &
/// Hasegawa cited by the paper.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LiftDragCurve {
    asymptotic_ratio: f64,
    half_speed: MetresPerSecond,
}

impl LiftDragCurve {
    /// The paper's pessimistic asymptotic lift-to-drag ratio (`c₁ ≈ 10`).
    pub const PAPER_PESSIMISTIC_RATIO: f64 = 10.0;
    /// Copper-coil rails exceed 50 above a few dozen m/s (§III-B.2).
    pub const COPPER_COIL_RATIO: f64 = 50.0;

    /// A curve approaching `asymptotic_ratio`, reaching half of it at
    /// `half_speed`.
    ///
    /// # Errors
    ///
    /// [`PhysicsError::NonPositive`] if either parameter is not positive.
    pub fn new(asymptotic_ratio: f64, half_speed: MetresPerSecond) -> Result<Self, PhysicsError> {
        if asymptotic_ratio.is_nan() || asymptotic_ratio <= 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "lift-to-drag ratio",
                value: asymptotic_ratio,
            });
        }
        if half_speed.value().is_nan() || half_speed.value() <= 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "half speed",
                value: half_speed.value(),
            });
        }
        Ok(Self {
            asymptotic_ratio,
            half_speed,
        })
    }

    /// The paper's pessimistic curve: asymptote 10, half-ratio at 10 m/s.
    #[must_use]
    pub fn paper_pessimistic() -> Self {
        Self {
            asymptotic_ratio: Self::PAPER_PESSIMISTIC_RATIO,
            half_speed: MetresPerSecond::new(10.0),
        }
    }

    /// Lift-to-drag ratio at a given speed.
    #[must_use]
    pub fn ratio_at(&self, speed: MetresPerSecond) -> f64 {
        let v = speed.value().max(0.0);
        self.asymptotic_ratio * v / (v + self.half_speed.value())
    }

    /// The asymptotic (high-speed) ratio — the paper's constant `c₁`.
    #[must_use]
    pub fn asymptotic_ratio(&self) -> f64 {
        self.asymptotic_ratio
    }
}

/// The complete levitation model for a cart on the rail.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LevitationModel {
    lift_drag: LiftDragCurve,
    guidance_accel: MetresPerSecondSquared,
    air_gap: Metres,
}

impl LevitationModel {
    /// The paper's standard 10 mm levitation air gap (§IV-A).
    pub const PAPER_AIR_GAP: Metres = Metres::new(0.010);

    /// The paper's model: pessimistic `c₁ ≈ 10`, negligible guidance-array
    /// downforce (`c₂ ≈ 0`, achieved by riding low on the rail), 10 mm gap.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            lift_drag: LiftDragCurve::paper_pessimistic(),
            guidance_accel: MetresPerSecondSquared::ZERO,
            air_gap: Self::PAPER_AIR_GAP,
        }
    }

    /// A custom model.
    ///
    /// # Errors
    ///
    /// [`PhysicsError::NonPositive`] if the air gap is not positive or the
    /// guidance acceleration is negative.
    pub fn new(
        lift_drag: LiftDragCurve,
        guidance_accel: MetresPerSecondSquared,
        air_gap: Metres,
    ) -> Result<Self, PhysicsError> {
        if air_gap.value().is_nan() || air_gap.value() <= 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "air gap",
                value: air_gap.value(),
            });
        }
        if guidance_accel.value() < 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "guidance acceleration",
                value: guidance_accel.value(),
            });
        }
        Ok(Self {
            lift_drag,
            guidance_accel,
            air_gap,
        })
    }

    /// The lift-to-drag curve in effect.
    #[must_use]
    pub fn lift_drag(&self) -> LiftDragCurve {
        self.lift_drag
    }

    /// The levitation air gap.
    #[must_use]
    pub fn air_gap(&self) -> Metres {
        self.air_gap
    }

    /// Lift force required to levitate a cart: `F = M·(g + 2c₂)`.
    #[must_use]
    pub fn required_lift(&self, mass: Kilograms) -> Newtons {
        mass * (STANDARD_GRAVITY + self.guidance_accel * 2.0)
    }

    /// Magnetic drag force on a coasting cart at `speed`.
    #[must_use]
    pub fn drag_force(&self, mass: Kilograms, speed: MetresPerSecond) -> Newtons {
        let ratio = self.lift_drag.ratio_at(speed);
        Newtons::new(self.required_lift(mass).value() / ratio)
    }

    /// Energy lost to magnetic drag coasting a distance `x`, using the
    /// paper's high-speed constant-ratio form:
    /// `L_d = (g + 2c₂)·M·x / c₁`.
    ///
    /// For the default parameters (282 g cart, 500 m, `c₁ = 10`) this is
    /// ≈ 138 J — under 1 % of the 15 kJ launch energy, justifying the
    /// paper's decision to neglect drag.
    #[must_use]
    pub fn coasting_drag_loss(&self, mass: Kilograms, distance: Metres) -> Joules {
        let effective_g = STANDARD_GRAVITY + self.guidance_accel * 2.0;
        Joules::new(
            effective_g.value() * mass.value() * distance.value()
                / self.lift_drag.asymptotic_ratio(),
        )
    }

    /// Whether drag over `distance` is negligible relative to `launch_energy`
    /// (less than `threshold`, e.g. 0.01 for 1 %).
    #[must_use]
    pub fn drag_is_negligible(
        &self,
        mass: Kilograms,
        distance: Metres,
        launch_energy: Joules,
        threshold: f64,
    ) -> bool {
        self.coasting_drag_loss(mass, distance).value() < threshold * launch_energy.value()
    }
}

impl Default for LevitationModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CART: Kilograms = Kilograms::new(0.28192);

    #[test]
    fn drag_loss_matches_paper_equation() {
        let lev = LevitationModel::paper_default();
        // L_d = g·M·x/c₁ with c₂ = 0.
        let l = lev.coasting_drag_loss(CART, Metres::new(500.0));
        let expect = 9.80665 * 0.28192 * 500.0 / 10.0;
        assert!((l.value() - expect).abs() < 1e-9);
        assert!((l.value() - 138.2).abs() < 0.1);
    }

    #[test]
    fn drag_is_negligible_for_paper_configs() {
        // §IV-A.2: at 200 m/s over 500 m or 1000 m the loss is negligible
        // compared to the 15 kJ launch energy.
        let lev = LevitationModel::paper_default();
        let launch = Joules::from_kilojoules(15.04);
        assert!(lev.drag_is_negligible(CART, Metres::new(500.0), launch, 0.01));
        assert!(lev.drag_is_negligible(CART, Metres::new(1000.0), launch, 0.02));
        // ...but would not be negligible at 0.1% threshold.
        assert!(!lev.drag_is_negligible(CART, Metres::new(500.0), launch, 0.001));
    }

    #[test]
    fn lift_drag_curve_shape() {
        let c = LiftDragCurve::paper_pessimistic();
        assert_eq!(c.ratio_at(MetresPerSecond::ZERO), 0.0);
        assert!((c.ratio_at(MetresPerSecond::new(10.0)) - 5.0).abs() < 1e-12);
        // Approaches the asymptote from below, monotonically.
        let r100 = c.ratio_at(MetresPerSecond::new(100.0));
        let r300 = c.ratio_at(MetresPerSecond::new(300.0));
        assert!(r100 < r300);
        assert!(r300 < 10.0);
        assert!(r300 > 9.5);
    }

    #[test]
    fn copper_coils_exceed_fifty_at_a_few_dozen_mps() {
        // §III-B.2's claim, with our curve reaching 50+ by ~36 m/s when the
        // asymptote is the copper-coil ratio scaled for margin.
        let copper = LiftDragCurve::new(
            LiftDragCurve::COPPER_COIL_RATIO * 1.4,
            MetresPerSecond::new(10.0),
        )
        .unwrap();
        assert!(copper.ratio_at(MetresPerSecond::new(36.0)) > 50.0);
    }

    #[test]
    fn required_lift_includes_guidance_downforce() {
        let lev = LevitationModel::new(
            LiftDragCurve::paper_pessimistic(),
            MetresPerSecondSquared::new(1.0),
            LevitationModel::PAPER_AIR_GAP,
        )
        .unwrap();
        let f = lev.required_lift(Kilograms::new(1.0));
        assert!((f.value() - (9.80665 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn drag_force_diverges_at_standstill() {
        let lev = LevitationModel::paper_default();
        let f = lev.drag_force(CART, MetresPerSecond::ZERO);
        assert!(f.value().is_infinite());
        let f200 = lev.drag_force(CART, MetresPerSecond::new(200.0));
        assert!(f200.value() > 0.0 && f200.value().is_finite());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LiftDragCurve::new(0.0, MetresPerSecond::new(1.0)).is_err());
        assert!(LiftDragCurve::new(10.0, MetresPerSecond::ZERO).is_err());
        assert!(LevitationModel::new(
            LiftDragCurve::paper_pessimistic(),
            MetresPerSecondSquared::ZERO,
            Metres::ZERO
        )
        .is_err());
        assert!(LevitationModel::new(
            LiftDragCurve::paper_pessimistic(),
            MetresPerSecondSquared::new(-1.0),
            LevitationModel::PAPER_AIR_GAP
        )
        .is_err());
    }

    #[test]
    fn drag_scales_linearly_with_mass_and_distance() {
        let lev = LevitationModel::paper_default();
        let base = lev.coasting_drag_loss(CART, Metres::new(500.0));
        let double_mass =
            lev.coasting_drag_loss(Kilograms::new(CART.value() * 2.0), Metres::new(500.0));
        let double_dist = lev.coasting_drag_loss(CART, Metres::new(1000.0));
        assert!((double_mass.value() - 2.0 * base.value()).abs() < 1e-9);
        assert!((double_dist.value() - 2.0 * base.value()).abs() < 1e-9);
    }
}
