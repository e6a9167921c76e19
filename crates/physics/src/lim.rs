//! Linear induction motor model (§III-B.3, §IV-A.1).

use dhl_units::{
    kinetic_energy, Joules, Kilograms, Metres, MetresPerSecond, MetresPerSecondSquared, Newtons,
    Seconds, Watts,
};

use crate::PhysicsError;

/// A linear induction motor used for both acceleration and braking.
///
/// The paper chooses LIMs over linear synchronous motors for their lower
/// component complexity and cost, rates them at > 75 % efficiency, and drives
/// the cart at a constant 1000 m/s² (Table V).
///
/// # Examples
///
/// ```rust
/// use dhl_physics::LinearInductionMotor;
/// use dhl_units::{Kilograms, MetresPerSecond};
///
/// let lim = LinearInductionMotor::paper_default();
/// // Table V: LIM lengths of 5/20/45 m for 100/200/300 m/s.
/// assert_eq!(lim.length_for(MetresPerSecond::new(100.0)).value(), 5.0);
/// assert_eq!(lim.length_for(MetresPerSecond::new(200.0)).value(), 20.0);
/// assert_eq!(lim.length_for(MetresPerSecond::new(300.0)).value(), 45.0);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LinearInductionMotor {
    efficiency: f64,
    acceleration: MetresPerSecondSquared,
}

impl LinearInductionMotor {
    /// The paper's LIM efficiency (Table V): 75 %.
    pub const PAPER_EFFICIENCY: f64 = 0.75;
    /// The paper's acceleration rate (Table V): 1000 m/s².
    pub const PAPER_ACCELERATION: MetresPerSecondSquared = MetresPerSecondSquared::new(1000.0);

    /// The paper's LIM: 75 % efficient at 1000 m/s².
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            efficiency: Self::PAPER_EFFICIENCY,
            acceleration: Self::PAPER_ACCELERATION,
        }
    }

    /// A custom LIM.
    ///
    /// # Errors
    ///
    /// - [`PhysicsError::InvalidEfficiency`] unless `efficiency ∈ (0, 1]`;
    /// - [`PhysicsError::NonPositive`] unless `acceleration > 0`.
    pub fn new(
        efficiency: f64,
        acceleration: MetresPerSecondSquared,
    ) -> Result<Self, PhysicsError> {
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(PhysicsError::InvalidEfficiency { value: efficiency });
        }
        if acceleration.value().is_nan() || acceleration.value() <= 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "acceleration",
                value: acceleration.value(),
            });
        }
        Ok(Self {
            efficiency,
            acceleration,
        })
    }

    /// Electrical-to-mechanical efficiency, in `(0, 1]`.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Constant acceleration the motor imparts.
    #[must_use]
    pub fn acceleration(&self) -> MetresPerSecondSquared {
        self.acceleration
    }

    /// Motor length required to reach `speed`: `ℓ = v² / 2a`.
    #[must_use]
    pub fn length_for(&self, speed: MetresPerSecond) -> Metres {
        Metres::new(speed.value() * speed.value() / (2.0 * self.acceleration.value()))
    }

    /// Time spent in the motor reaching `speed`: `t = v / a`.
    #[must_use]
    pub fn accel_time(&self, speed: MetresPerSecond) -> Seconds {
        speed / self.acceleration
    }

    /// Thrust applied to a cart of the given mass: `F = m·a`.
    #[must_use]
    pub fn thrust(&self, mass: Kilograms) -> Newtons {
        mass * self.acceleration
    }

    /// Electrical energy to accelerate `mass` to `speed`: `½mv² / η`.
    #[must_use]
    pub fn accel_energy(&self, mass: Kilograms, speed: MetresPerSecond) -> Joules {
        kinetic_energy(mass, speed) / self.efficiency
    }

    /// Electrical energy to brake `mass` from `speed`, pessimistically equal
    /// to the acceleration energy (§IV-A.3: in practice deceleration is
    /// aided by inherent magnetic drag).
    #[must_use]
    pub fn decel_energy(&self, mass: Kilograms, speed: MetresPerSecond) -> Joules {
        self.accel_energy(mass, speed)
    }

    /// Peak electrical power draw, reached at the end of the acceleration
    /// ramp: `P = F·v / η = m·a·v / η`.
    ///
    /// This is Table VI's "Peak Power" column (75 kW for the default cart).
    #[must_use]
    pub fn peak_power(&self, mass: Kilograms, speed: MetresPerSecond) -> Watts {
        self.thrust(mass) * speed / self.efficiency
    }
}

impl Default for LinearInductionMotor {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cart() -> Kilograms {
        Kilograms::from_grams(281.92)
    }

    #[test]
    fn table_v_lim_lengths() {
        let lim = LinearInductionMotor::paper_default();
        for (v, l) in [(100.0, 5.0), (200.0, 20.0), (300.0, 45.0)] {
            assert_eq!(lim.length_for(MetresPerSecond::new(v)).value(), l);
        }
    }

    #[test]
    fn accel_energy_matches_table_vi() {
        let lim = LinearInductionMotor::paper_default();
        let m = paper_cart();
        // One-way (accel only) energies: Table VI doubles these.
        let e100 = lim.accel_energy(m, MetresPerSecond::new(100.0));
        let e200 = lim.accel_energy(m, MetresPerSecond::new(200.0));
        let e300 = lim.accel_energy(m, MetresPerSecond::new(300.0));
        assert!((2.0 * e100.kilojoules() - 3.76).abs() < 0.01); // Table VI: 3.7
        assert!((2.0 * e200.kilojoules() - 15.04).abs() < 0.01); // Table VI: 15
        assert!((2.0 * e300.kilojoules() - 33.83).abs() < 0.01); // Table VI: 34
    }

    #[test]
    fn peak_power_matches_table_vi() {
        let lim = LinearInductionMotor::paper_default();
        let m = paper_cart();
        assert!((lim.peak_power(m, MetresPerSecond::new(100.0)).kilowatts() - 37.6).abs() < 0.05);
        assert!((lim.peak_power(m, MetresPerSecond::new(200.0)).kilowatts() - 75.2).abs() < 0.05);
        assert!((lim.peak_power(m, MetresPerSecond::new(300.0)).kilowatts() - 112.8).abs() < 0.1);
    }

    #[test]
    fn decel_is_pessimistically_equal_to_accel() {
        let lim = LinearInductionMotor::paper_default();
        let m = paper_cart();
        let v = MetresPerSecond::new(200.0);
        assert_eq!(lim.accel_energy(m, v), lim.decel_energy(m, v));
    }

    #[test]
    fn accel_time_and_thrust() {
        let lim = LinearInductionMotor::paper_default();
        assert!((lim.accel_time(MetresPerSecond::new(200.0)).seconds() - 0.2).abs() < 1e-12);
        assert!((lim.thrust(paper_cart()).value() - 281.92).abs() < 0.01);
    }

    #[test]
    fn perfect_efficiency_gives_pure_kinetic_energy() {
        let lim = LinearInductionMotor::new(1.0, LinearInductionMotor::PAPER_ACCELERATION).unwrap();
        let e = lim.accel_energy(Kilograms::new(1.0), MetresPerSecond::new(10.0));
        assert!((e.value() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_parameters() {
        use crate::PhysicsError;
        assert!(matches!(
            LinearInductionMotor::new(0.0, LinearInductionMotor::PAPER_ACCELERATION),
            Err(PhysicsError::InvalidEfficiency { .. })
        ));
        assert!(matches!(
            LinearInductionMotor::new(1.1, LinearInductionMotor::PAPER_ACCELERATION),
            Err(PhysicsError::InvalidEfficiency { .. })
        ));
        assert!(matches!(
            LinearInductionMotor::new(f64::NAN, LinearInductionMotor::PAPER_ACCELERATION),
            Err(PhysicsError::InvalidEfficiency { .. })
        ));
        assert!(matches!(
            LinearInductionMotor::new(0.75, MetresPerSecondSquared::ZERO),
            Err(PhysicsError::NonPositive { .. })
        ));
    }

    #[test]
    fn lower_acceleration_cuts_peak_power_proportionally() {
        // §V-A's "Note": reducing the acceleration rate reduces peak power.
        let fast = LinearInductionMotor::paper_default();
        let slow = LinearInductionMotor::new(0.75, MetresPerSecondSquared::new(500.0)).unwrap();
        let m = paper_cart();
        let v = MetresPerSecond::new(200.0);
        assert!(
            (slow.peak_power(m, v).value() / fast.peak_power(m, v).value() - 0.5).abs() < 1e-12
        );
        // ...at the cost of a longer motor and ramp time.
        assert_eq!(slow.length_for(v).value(), 2.0 * fast.length_for(v).value());
        assert_eq!(
            slow.accel_time(v).seconds(),
            2.0 * fast.accel_time(v).seconds()
        );
        // ...while the energy is unchanged (same kinetic energy).
        assert_eq!(slow.accel_energy(m, v), fast.accel_energy(m, v));
    }
}
