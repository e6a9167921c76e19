//! Active stabilisation power (§III-A, §IV-A.2).
//!
//! Properly tuned magnet arrays need negligible force to hold the cart at
//! its equilibrium point; active control only intervenes on deviations. The
//! paper cites [46] for minimal power usage. We model it as a small constant
//! power per cart while in motion.

use dhl_units::{Joules, Seconds, Watts};

use crate::PhysicsError;

/// Active-stabilisation controller model.
///
/// # Examples
///
/// ```rust
/// use dhl_physics::ActiveStabilisation;
/// use dhl_units::Seconds;
///
/// let stab = ActiveStabilisation::paper_default();
/// // Over a 2.6 s cruise the controller burns ~13 J — noise next to 15 kJ.
/// let e = stab.energy(Seconds::new(2.6));
/// assert!(e.value() < 20.0);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ActiveStabilisation {
    hold_power: Watts,
}

impl ActiveStabilisation {
    /// Budgeted stabilisation power per moving cart: 5 W (sensor array +
    /// correcting-coil drivers; "minimal power usage" per §IV-A.2 ref.&nbsp;46).
    pub const PAPER_HOLD_POWER: Watts = Watts::new(5.0);

    /// The paper-calibrated controller.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            hold_power: Self::PAPER_HOLD_POWER,
        }
    }

    /// A controller with a custom hold power.
    ///
    /// # Errors
    ///
    /// [`PhysicsError::NonPositive`] if `hold_power` is negative.
    pub fn new(hold_power: Watts) -> Result<Self, PhysicsError> {
        if hold_power.value() < 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "stabilisation power",
                value: hold_power.value(),
            });
        }
        Ok(Self { hold_power })
    }

    /// Steady power draw while the cart is in motion.
    #[must_use]
    pub fn power(&self) -> Watts {
        self.hold_power
    }

    /// Energy consumed stabilising over a trip of the given duration.
    #[must_use]
    pub fn energy(&self, duration: Seconds) -> Joules {
        self.hold_power * duration
    }
}

impl Default for ActiveStabilisation {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_linear_in_time() {
        let s = ActiveStabilisation::paper_default();
        assert_eq!(s.energy(Seconds::new(2.0)).value(), 10.0);
        assert_eq!(s.energy(Seconds::new(4.0)).value(), 20.0);
        assert_eq!(s.energy(Seconds::ZERO), Joules::ZERO);
    }

    #[test]
    fn negligible_relative_to_launch_energy() {
        // Stabilising the longest paper trip (1000 m at 100 m/s ≈ 10 s)
        // costs 50 J — under 2% of even the cheapest 3.7 kJ launch.
        let e = ActiveStabilisation::paper_default().energy(Seconds::new(10.0));
        assert!(e.value() / 3700.0 < 0.02);
    }

    #[test]
    fn rejects_negative_power() {
        assert!(ActiveStabilisation::new(Watts::new(-1.0)).is_err());
        assert!(ActiveStabilisation::new(Watts::ZERO).is_ok());
    }

    #[test]
    fn default_matches_paper() {
        assert_eq!(
            ActiveStabilisation::default().power(),
            ActiveStabilisation::PAPER_HOLD_POWER
        );
    }
}
