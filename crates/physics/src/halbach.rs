//! Halbach-array field and inductrack lift model (§III-A, [58], [70], [73]).
//!
//! The cart levitates on Halbach arrays of neodymium magnets. This module
//! models the array's surface field, its exponential decay across the air
//! gap, and the ideal inductrack lift pressure at speed — enough to check
//! the paper's §IV-A claim that **10 % of the cart's mass in magnets
//! suffices for a 10 mm air gap**.
//!
//! Field model (standard Halbach results):
//!
//! ```text
//! B₀ = B_r · (1 − e^(−2πd/λ)) · sin(π/M)/(π/M)     surface field
//! B(g) = B₀ · e^(−2πg/λ)                            at air gap g
//! P(g) = B(g)² / (2μ₀)                              ideal lift pressure
//! ```
//!
//! where `B_r` is the magnet remanence, `d` the array thickness, `λ` the
//! array wavelength, and `M` the segments per wavelength.

use dhl_units::{Kilograms, Metres, Newtons, STANDARD_GRAVITY};

use crate::PhysicsError;

/// Vacuum permeability, H/m.
const MU_0: f64 = 4.0e-7 * core::f64::consts::PI;

/// A linear Halbach array of permanent magnets.
///
/// # Examples
///
/// ```rust
/// use dhl_physics::HalbachArray;
/// use dhl_units::{Kilograms, Metres};
///
/// let array = HalbachArray::paper_ndfeb().unwrap();
/// // The §IV-A budget: 10 % of the 282 g cart in magnets levitates the
/// // cart at the standard 10 mm gap, with margin.
/// let cart = Kilograms::from_grams(282.0);
/// let magnets = Kilograms::from_grams(28.2);
/// assert!(array.can_levitate(cart, magnets, Metres::from_millimetres(10.0)));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct HalbachArray {
    remanence_tesla: f64,
    wavelength: Metres,
    thickness: Metres,
    segments_per_wavelength: u32,
    magnet_density: f64,
}

impl HalbachArray {
    /// NdFeB remanence, tesla (N42-grade ≈ 1.3 T).
    pub const NDFEB_REMANENCE: f64 = 1.3;
    /// Neodymium magnet density (§IV-A: ≈ 7.5 g/cm³ = 7500 kg/m³).
    pub const NDFEB_DENSITY: f64 = 7_500.0;

    /// The paper-scale array: NdFeB, 40 mm wavelength, 10 mm thick,
    /// 4 segments per wavelength.
    ///
    /// # Errors
    ///
    /// Never for these constants; the `Result` mirrors [`HalbachArray::new`].
    pub fn paper_ndfeb() -> Result<Self, PhysicsError> {
        Self::new(
            Self::NDFEB_REMANENCE,
            Metres::from_millimetres(40.0),
            Metres::from_millimetres(10.0),
            4,
            Self::NDFEB_DENSITY,
        )
    }

    /// A custom array.
    ///
    /// # Errors
    ///
    /// [`PhysicsError::NonPositive`] if any parameter is not strictly
    /// positive (segments must be ≥ 2 for a rotating magnetisation).
    pub fn new(
        remanence_tesla: f64,
        wavelength: Metres,
        thickness: Metres,
        segments_per_wavelength: u32,
        magnet_density: f64,
    ) -> Result<Self, PhysicsError> {
        for (what, value) in [
            ("remanence", remanence_tesla),
            ("wavelength", wavelength.value()),
            ("thickness", thickness.value()),
            ("magnet density", magnet_density),
        ] {
            if value.is_nan() || value <= 0.0 {
                return Err(PhysicsError::NonPositive { what, value });
            }
        }
        if segments_per_wavelength < 2 {
            return Err(PhysicsError::NonPositive {
                what: "segments per wavelength",
                value: f64::from(segments_per_wavelength),
            });
        }
        Ok(Self {
            remanence_tesla,
            wavelength,
            thickness,
            segments_per_wavelength,
            magnet_density,
        })
    }

    /// Peak field at the array surface.
    #[must_use]
    pub fn surface_field_tesla(&self) -> f64 {
        let k = 2.0 * core::f64::consts::PI / self.wavelength.value();
        let m = f64::from(self.segments_per_wavelength);
        let segment_factor = (core::f64::consts::PI / m).sin() / (core::f64::consts::PI / m);
        self.remanence_tesla * (1.0 - (-k * self.thickness.value()).exp()) * segment_factor
    }

    /// Field at an air gap `g` below the array.
    #[must_use]
    pub fn field_at_gap_tesla(&self, gap: Metres) -> f64 {
        let k = 2.0 * core::f64::consts::PI / self.wavelength.value();
        self.surface_field_tesla() * (-k * gap.value().max(0.0)).exp()
    }

    /// Ideal inductrack lift pressure (Pa) at an air gap, in the high-speed
    /// limit where the track behaves as a flux mirror.
    #[must_use]
    pub fn lift_pressure_at_gap(&self, gap: Metres) -> f64 {
        let b = self.field_at_gap_tesla(gap);
        b * b / (2.0 * MU_0)
    }

    /// Array mass per square metre of footprint.
    #[must_use]
    pub fn mass_per_area(&self) -> f64 {
        self.thickness.value() * self.magnet_density
    }

    /// Footprint area (m²) achievable with a given magnet mass budget.
    #[must_use]
    pub fn area_for_mass(&self, magnet_mass: Kilograms) -> f64 {
        magnet_mass.value() / self.mass_per_area()
    }

    /// Maximum lift force from a magnet mass budget at an air gap.
    #[must_use]
    pub fn lift_force(&self, magnet_mass: Kilograms, gap: Metres) -> Newtons {
        Newtons::new(self.area_for_mass(magnet_mass) * self.lift_pressure_at_gap(gap))
    }

    /// Whether `magnet_mass` of this array levitates a cart of `cart_mass`
    /// at the given air gap.
    #[must_use]
    pub fn can_levitate(&self, cart_mass: Kilograms, magnet_mass: Kilograms, gap: Metres) -> bool {
        let required = (cart_mass * STANDARD_GRAVITY).value();
        self.lift_force(magnet_mass, gap).value() >= required
    }

    /// The largest air gap at which `magnet_mass` still levitates
    /// `cart_mass` (bisection to 0.01 mm).
    #[must_use]
    pub fn max_gap(&self, cart_mass: Kilograms, magnet_mass: Kilograms) -> Metres {
        let mut lo = 0.0;
        let mut hi = self.wavelength.value(); // field is negligible past one λ
        if !self.can_levitate(cart_mass, magnet_mass, Metres::new(lo)) {
            return Metres::ZERO;
        }
        while hi - lo > 1e-5 {
            let mid = 0.5 * (lo + hi);
            if self.can_levitate(cart_mass, magnet_mass, Metres::new(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Metres::new(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> HalbachArray {
        HalbachArray::paper_ndfeb().unwrap()
    }

    #[test]
    fn surface_field_is_sub_remanence() {
        let b0 = array().surface_field_tesla();
        // (1 − e^(−π/2)) · sin(π/4)/(π/4) · 1.3 ≈ 0.93 T
        assert!((b0 - 0.927).abs() < 0.01, "{b0}");
        assert!(b0 < HalbachArray::NDFEB_REMANENCE);
    }

    #[test]
    fn field_decays_exponentially_with_gap() {
        let a = array();
        let b0 = a.field_at_gap_tesla(Metres::ZERO);
        let b10 = a.field_at_gap_tesla(Metres::from_millimetres(10.0));
        let b20 = a.field_at_gap_tesla(Metres::from_millimetres(20.0));
        assert!((b10 / b0 - (-core::f64::consts::PI / 2.0).exp()).abs() < 1e-12);
        assert!((b20 / b10 - b10 / b0).abs() < 1e-12, "constant decay ratio");
    }

    #[test]
    fn ten_percent_magnet_mass_levitates_every_paper_cart_at_10mm() {
        // §IV-A: "we only require 10% of the cart's mass to be comprised of
        // magnets to achieve the necessary levitation force with an air gap
        // of 10 mm".
        let a = array();
        let gap = Metres::from_millimetres(10.0);
        for grams in [160.96, 281.92, 523.84] {
            let cart = Kilograms::from_grams(grams);
            let magnets = cart * 0.10;
            assert!(
                a.can_levitate(cart, magnets, gap),
                "{grams} g cart: lift {} N vs weight {} N",
                a.lift_force(magnets, gap).value(),
                (cart * STANDARD_GRAVITY).value()
            );
        }
    }

    #[test]
    fn levitation_margin_is_comfortable_but_finite() {
        let a = array();
        let cart = Kilograms::from_grams(281.92);
        let magnets = cart * 0.10;
        let margin = a
            .lift_force(magnets, Metres::from_millimetres(10.0))
            .value()
            / (cart * STANDARD_GRAVITY).value();
        assert!(margin > 1.5, "margin {margin}");
        assert!(margin < 5.0, "margin {margin} suspiciously large");
        // …and a 25 mm gap is out of reach for the same budget.
        assert!(!a.can_levitate(cart, magnets, Metres::from_millimetres(25.0)));
    }

    #[test]
    fn max_gap_brackets_10mm() {
        let a = array();
        let cart = Kilograms::from_grams(281.92);
        let gap = a.max_gap(cart, cart * 0.10);
        assert!(gap.millimetres() > 10.0, "{}", gap.millimetres());
        assert!(gap.millimetres() < 25.0, "{}", gap.millimetres());
    }

    #[test]
    fn max_gap_zero_when_budget_is_hopeless() {
        let a = array();
        let cart = Kilograms::new(1e6); // a thousand tonnes
        assert_eq!(a.max_gap(cart, Kilograms::from_grams(1.0)), Metres::ZERO);
    }

    #[test]
    fn more_segments_raise_the_field() {
        let coarse =
            HalbachArray::new(1.3, Metres::new(0.04), Metres::new(0.01), 2, 7500.0).unwrap();
        let fine =
            HalbachArray::new(1.3, Metres::new(0.04), Metres::new(0.01), 16, 7500.0).unwrap();
        assert!(fine.surface_field_tesla() > coarse.surface_field_tesla());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(HalbachArray::new(0.0, Metres::new(0.04), Metres::new(0.01), 4, 7500.0).is_err());
        assert!(HalbachArray::new(1.3, Metres::ZERO, Metres::new(0.01), 4, 7500.0).is_err());
        assert!(HalbachArray::new(1.3, Metres::new(0.04), Metres::ZERO, 4, 7500.0).is_err());
        assert!(HalbachArray::new(1.3, Metres::new(0.04), Metres::new(0.01), 1, 7500.0).is_err());
        assert!(HalbachArray::new(1.3, Metres::new(0.04), Metres::new(0.01), 4, 0.0).is_err());
    }

    #[test]
    fn mass_per_area_matches_density_times_thickness() {
        assert!((array().mass_per_area() - 75.0).abs() < 1e-9); // 0.01 m × 7500
    }
}
