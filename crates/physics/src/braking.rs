//! Braking alternatives (§III-B.4, §VI).
//!
//! The paper's default decelerates with the endpoint LIM, pessimistically
//! costed equal to acceleration. §VI discusses two alternatives: passive
//! eddy-current brakes (zero electrical cost, enabled by a dual-track
//! layout) and regenerative braking recovering 16–70 % of the kinetic
//! energy.

use dhl_units::{kinetic_energy, Joules, Kilograms, MetresPerSecond};

use crate::{LinearInductionMotor, PhysicsError};

/// Valid regenerative-braking recovery fractions cited by the paper (§VI).
pub const REGEN_RECOVERY_RANGE: core::ops::RangeInclusive<f64> = 0.16..=0.70;

/// How the cart is decelerated at the end of a trip.
#[derive(Copy, Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum BrakingSystem {
    /// Reverse-driving the endpoint LIM; costs as much electrical energy as
    /// acceleration did (the paper's pessimistic default).
    Lim(LinearInductionMotor),
    /// A passive set of permanent magnets inducing drag in the fin. Free to
    /// operate, but cannot re-accelerate the cart for precise docking, so the
    /// paper pairs it with dual (unidirectional) tracks.
    EddyCurrent,
    /// An LIM operated as a generator, recovering a fraction of the kinetic
    /// energy (negative net cost).
    Regenerative {
        /// Fraction of kinetic energy recovered, in [0.16, 0.70].
        recovery: f64,
    },
}

impl BrakingSystem {
    /// The paper's default: LIM braking with the paper's motor.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::Lim(LinearInductionMotor::paper_default())
    }

    /// A regenerative brake with a validated recovery fraction.
    ///
    /// # Errors
    ///
    /// [`PhysicsError::RecoveryOutOfRange`] if `recovery` is outside the
    /// 16–70 % range the paper cites.
    pub fn regenerative(recovery: f64) -> Result<Self, PhysicsError> {
        if !REGEN_RECOVERY_RANGE.contains(&recovery) {
            return Err(PhysicsError::RecoveryOutOfRange { value: recovery });
        }
        Ok(Self::Regenerative { recovery })
    }

    /// Net electrical energy drawn from the grid to stop `mass` from
    /// `speed`.
    ///
    /// Negative values mean energy was returned (regenerative braking).
    #[must_use]
    pub fn decel_energy(&self, mass: Kilograms, speed: MetresPerSecond) -> Joules {
        match self {
            Self::Lim(lim) => lim.decel_energy(mass, speed),
            Self::EddyCurrent => Joules::ZERO,
            Self::Regenerative { recovery } => -(kinetic_energy(mass, speed) * *recovery),
        }
    }

    /// Whether this brake can also re-accelerate the cart for precise
    /// docking alignment (§IV-C requires this of the library's brake).
    #[must_use]
    pub fn supports_precise_positioning(&self) -> bool {
        matches!(self, Self::Lim(_) | Self::Regenerative { .. })
    }
}

impl Default for BrakingSystem {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CART: Kilograms = Kilograms::new(0.28192);
    const V: MetresPerSecond = MetresPerSecond::new(200.0);

    #[test]
    fn lim_braking_costs_the_acceleration_energy() {
        let brake = BrakingSystem::paper_default();
        let e = brake.decel_energy(CART, V);
        assert!((e.kilojoules() - 7.52).abs() < 0.01);
    }

    #[test]
    fn eddy_current_is_free() {
        assert_eq!(
            BrakingSystem::EddyCurrent.decel_energy(CART, V),
            Joules::ZERO
        );
    }

    #[test]
    fn regenerative_returns_energy() {
        let brake = BrakingSystem::regenerative(0.5).unwrap();
        let e = brake.decel_energy(CART, V);
        // Recovers half of the 5.64 kJ kinetic energy.
        assert!((e.kilojoules() + 2.82).abs() < 0.01);
        assert!(e.value() < 0.0);
    }

    #[test]
    fn regenerative_bounds_are_enforced() {
        assert!(BrakingSystem::regenerative(0.16).is_ok());
        assert!(BrakingSystem::regenerative(0.70).is_ok());
        assert!(matches!(
            BrakingSystem::regenerative(0.15),
            Err(PhysicsError::RecoveryOutOfRange { .. })
        ));
        assert!(BrakingSystem::regenerative(0.71).is_err());
        assert!(BrakingSystem::regenerative(f64::NAN).is_err());
    }

    #[test]
    fn positioning_capability() {
        assert!(BrakingSystem::paper_default().supports_precise_positioning());
        assert!(BrakingSystem::regenerative(0.3)
            .unwrap()
            .supports_precise_positioning());
        assert!(!BrakingSystem::EddyCurrent.supports_precise_positioning());
    }

    #[test]
    fn ordering_of_alternatives() {
        // §VI's claim: eddy-current halves round-trip energy vs LIM braking,
        // regenerative does even better.
        let lim = BrakingSystem::paper_default().decel_energy(CART, V);
        let eddy = BrakingSystem::EddyCurrent.decel_energy(CART, V);
        let regen = BrakingSystem::regenerative(0.3)
            .unwrap()
            .decel_energy(CART, V);
        assert!(regen < eddy);
        assert!(eddy < lim);
    }
}
