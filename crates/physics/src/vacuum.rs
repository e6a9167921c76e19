//! Vacuum-tube aerodynamics and maintenance (§IV-B).
//!
//! The DHL runs in a *rough vacuum* (≈ 1 millibar), which makes aerodynamic
//! drag negligible and can be maintained with minimal pumping power thanks to
//! the tube's small cross-section.

use dhl_units::{Joules, Metres, MetresPerSecond, Newtons, Seconds, Watts};

use crate::PhysicsError;

/// Sea-level air density at one standard atmosphere, kg/m³.
pub const SEA_LEVEL_AIR_DENSITY: f64 = 1.225;
/// One standard atmosphere in millibar.
pub const ATMOSPHERIC_PRESSURE_MILLIBAR: f64 = 1013.25;

/// A low-pressure tube enclosing the DHL track.
///
/// # Examples
///
/// ```rust
/// use dhl_physics::VacuumTube;
/// use dhl_units::{Metres, MetresPerSecond};
///
/// let tube = VacuumTube::paper_default(Metres::new(500.0)).unwrap();
/// // At 1 mbar, aerodynamic drag on the cart at 200 m/s is under a newton —
/// // vs the 282 N of LIM thrust.
/// let drag = tube.aero_drag(MetresPerSecond::new(200.0));
/// assert!(drag.value() < 1.0);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct VacuumTube {
    pressure_millibar: f64,
    frontal_area: f64,
    drag_coefficient: f64,
    length: Metres,
    pump_power_per_metre: Watts,
}

impl VacuumTube {
    /// The paper's rough-vacuum operating pressure: 1 millibar.
    pub const PAPER_PRESSURE_MILLIBAR: f64 = 1.0;
    /// Frontal area of the cart inside the tube, m² (cart cross-section is
    /// roughly the 60 mm × 80 mm SSD stack plus structure; we budget
    /// 0.01 m²).
    pub const PAPER_FRONTAL_AREA: f64 = 0.01;
    /// A bluff-body drag coefficient for the boxy cart.
    pub const PAPER_DRAG_COEFFICIENT: f64 = 1.0;
    /// Pumping power to hold rough vacuum, per metre of small-bore tube.
    /// Rough vacuum is cheap (§IV-B, ref. 76); we budget 1 W/m, so a 500 m tube
    /// needs 500 W — negligible next to the 75 kW launch peak.
    pub const PAPER_PUMP_POWER_PER_METRE: Watts = Watts::new(1.0);

    /// The paper's tube at a given length.
    ///
    /// # Errors
    ///
    /// [`PhysicsError::NonPositive`] if `length` is not positive.
    pub fn paper_default(length: Metres) -> Result<Self, PhysicsError> {
        Self::new(
            Self::PAPER_PRESSURE_MILLIBAR,
            Self::PAPER_FRONTAL_AREA,
            Self::PAPER_DRAG_COEFFICIENT,
            length,
            Self::PAPER_PUMP_POWER_PER_METRE,
        )
    }

    /// A custom tube.
    ///
    /// # Errors
    ///
    /// [`PhysicsError::NonPositive`] if pressure, area, drag coefficient or
    /// length is not positive, or pump power is negative.
    pub fn new(
        pressure_millibar: f64,
        frontal_area: f64,
        drag_coefficient: f64,
        length: Metres,
        pump_power_per_metre: Watts,
    ) -> Result<Self, PhysicsError> {
        for (what, value) in [
            ("pressure", pressure_millibar),
            ("frontal area", frontal_area),
            ("drag coefficient", drag_coefficient),
            ("tube length", length.value()),
        ] {
            if value.is_nan() || value <= 0.0 {
                return Err(PhysicsError::NonPositive { what, value });
            }
        }
        if pump_power_per_metre.value() < 0.0 {
            return Err(PhysicsError::NonPositive {
                what: "pump power",
                value: pump_power_per_metre.value(),
            });
        }
        Ok(Self {
            pressure_millibar,
            frontal_area,
            drag_coefficient,
            length,
            pump_power_per_metre,
        })
    }

    /// Operating pressure in millibar.
    #[must_use]
    pub fn pressure_millibar(&self) -> f64 {
        self.pressure_millibar
    }

    /// Tube length.
    #[must_use]
    pub fn length(&self) -> Metres {
        self.length
    }

    /// Air density inside the tube, kg/m³ (ideal-gas scaling with pressure).
    #[must_use]
    pub fn air_density(&self) -> f64 {
        SEA_LEVEL_AIR_DENSITY * self.pressure_millibar / ATMOSPHERIC_PRESSURE_MILLIBAR
    }

    /// Aerodynamic drag on the cart at `speed`: `F = ½ρv²·C_d·A`.
    #[must_use]
    pub fn aero_drag(&self, speed: MetresPerSecond) -> Newtons {
        let v = speed.value();
        Newtons::new(0.5 * self.air_density() * v * v * self.drag_coefficient * self.frontal_area)
    }

    /// Energy lost to aerodynamic drag coasting the tube's full length at
    /// `speed` (upper bound: uses top speed everywhere).
    #[must_use]
    pub fn aero_loss(&self, speed: MetresPerSecond) -> Joules {
        self.aero_drag(speed) * self.length
    }

    /// Steady-state pumping power to maintain the vacuum.
    #[must_use]
    pub fn pump_power(&self) -> Watts {
        self.pump_power_per_metre * self.length.value()
    }

    /// Pumping energy over a duration.
    #[must_use]
    pub fn pump_energy(&self, duration: Seconds) -> Joules {
        self.pump_power() * duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tube() -> VacuumTube {
        VacuumTube::paper_default(Metres::new(500.0)).unwrap()
    }

    #[test]
    fn density_scales_with_pressure() {
        let t = tube();
        let expected = 1.225 / 1013.25;
        assert!((t.air_density() - expected).abs() < 1e-12);
        let atm = VacuumTube::new(
            ATMOSPHERIC_PRESSURE_MILLIBAR,
            0.01,
            1.0,
            Metres::new(500.0),
            Watts::new(1.0),
        )
        .unwrap();
        assert!((atm.air_density() - SEA_LEVEL_AIR_DENSITY).abs() < 1e-12);
    }

    #[test]
    fn rough_vacuum_makes_drag_negligible() {
        let t = tube();
        let v = MetresPerSecond::new(200.0);
        // Sub-newton drag vs 282 N of LIM thrust.
        assert!(t.aero_drag(v).value() < 0.5);
        // Full-length loss far below 1% of the 15 kJ launch energy.
        assert!(t.aero_loss(v).value() < 0.01 * 15_040.0);
    }

    #[test]
    fn at_atmosphere_drag_would_matter() {
        let atm = VacuumTube::new(
            ATMOSPHERIC_PRESSURE_MILLIBAR,
            0.01,
            1.0,
            Metres::new(500.0),
            Watts::new(1.0),
        )
        .unwrap();
        // ~245 N at 200 m/s — comparable to the LIM thrust; the vacuum is
        // what makes the DHL efficient.
        assert!(atm.aero_drag(MetresPerSecond::new(200.0)).value() > 200.0);
    }

    #[test]
    fn pump_power_scales_with_length() {
        assert_eq!(tube().pump_power().value(), 500.0);
        let long = VacuumTube::paper_default(Metres::new(1000.0)).unwrap();
        assert_eq!(long.pump_power().value(), 1000.0);
        assert_eq!(tube().pump_energy(Seconds::new(10.0)).value(), 5000.0);
    }

    #[test]
    fn drag_is_quadratic_in_speed() {
        let t = tube();
        let d1 = t.aero_drag(MetresPerSecond::new(100.0)).value();
        let d2 = t.aero_drag(MetresPerSecond::new(200.0)).value();
        assert!((d2 / d1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(VacuumTube::paper_default(Metres::ZERO).is_err());
        assert!(VacuumTube::new(0.0, 0.01, 1.0, Metres::new(1.0), Watts::ZERO).is_err());
        assert!(VacuumTube::new(1.0, 0.0, 1.0, Metres::new(1.0), Watts::ZERO).is_err());
        assert!(VacuumTube::new(1.0, 0.01, 0.0, Metres::new(1.0), Watts::ZERO).is_err());
        assert!(VacuumTube::new(1.0, 0.01, 1.0, Metres::new(1.0), Watts::new(-1.0)).is_err());
    }
}
