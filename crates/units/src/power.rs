//! Time, energy, and power quantities with the Joule/Watt/Second triangle.

use core::ops::{Div, Mul};

scalar_quantity!(
    /// A duration in seconds.
    ///
    /// ```rust
    /// use dhl_units::Seconds;
    /// let dock = Seconds::new(3.0);
    /// let undock = Seconds::new(3.0);
    /// assert_eq!((dock + undock).seconds(), 6.0);
    /// ```
    Seconds,
    "s"
);

scalar_quantity!(
    /// An amount of energy in joules.
    ///
    /// ```rust
    /// use dhl_units::Joules;
    /// let launch = Joules::from_kilojoules(15.0);
    /// assert_eq!(launch.value(), 15_000.0);
    /// ```
    Joules,
    "J"
);

scalar_quantity!(
    /// A power draw in watts.
    ///
    /// ```rust
    /// use dhl_units::{Joules, Seconds, Watts};
    /// let energy: Joules = Watts::new(12.0) * Seconds::new(10.0);
    /// assert_eq!(energy.value(), 120.0);
    /// ```
    Watts,
    "W"
);

impl Seconds {
    /// The duration in seconds (alias of [`Seconds::value`] for readability).
    #[must_use]
    pub const fn seconds(self) -> f64 {
        self.value()
    }

    /// Constructs from hours.
    #[must_use]
    pub const fn from_hours(hours: f64) -> Self {
        Self::new(hours * 3_600.0)
    }

    /// Constructs from days.
    #[must_use]
    pub const fn from_days(days: f64) -> Self {
        Self::new(days * 86_400.0)
    }

    /// The duration in hours.
    #[must_use]
    pub fn hours(self) -> f64 {
        self.value() / 3_600.0
    }

    /// The duration in days (the paper quotes 580 000 s as "6.71 days").
    #[must_use]
    pub fn days(self) -> f64 {
        self.value() / 86_400.0
    }
}

impl Joules {
    /// Constructs from kilojoules (Table VI's launch-energy unit).
    #[must_use]
    pub const fn from_kilojoules(kj: f64) -> Self {
        Self::new(kj * 1e3)
    }

    /// Constructs from megajoules (Fig. 2's dataset-transfer unit).
    #[must_use]
    pub const fn from_megajoules(mj: f64) -> Self {
        Self::new(mj * 1e6)
    }

    /// The energy in kilojoules.
    #[must_use]
    pub fn kilojoules(self) -> f64 {
        self.value() / 1e3
    }

    /// The energy in megajoules.
    #[must_use]
    pub fn megajoules(self) -> f64 {
        self.value() / 1e6
    }
}

impl Watts {
    /// Constructs from kilowatts (Table VI's peak-power unit).
    #[must_use]
    pub const fn from_kilowatts(kw: f64) -> Self {
        Self::new(kw * 1e3)
    }

    /// The power in kilowatts.
    #[must_use]
    pub fn kilowatts(self) -> f64 {
        self.value() / 1e3
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Power sustained for a duration is energy: `P · t = E`.
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Energy spread over a duration is average power: `E / t = P`.
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// How long a power draw can be sustained by an energy budget: `E / P = t`.
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_second_joule_triangle() {
        let p = Watts::new(24.0);
        let t = Seconds::new(580_000.0);
        let e = p * t;
        assert!((e.megajoules() - 13.92).abs() < 1e-9);
        let p2 = e / t;
        assert!((p2.value() - 24.0).abs() < 1e-9);
        let t2 = e / p;
        assert!((t2.seconds() - 580_000.0).abs() < 1e-6);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(Seconds::from_hours(1.0).seconds(), 3600.0);
        assert_eq!(Seconds::from_days(1.0).seconds(), 86_400.0);
        // The paper's 6.71 day baseline.
        assert!((Seconds::new(580_000.0).days() - 6.713).abs() < 0.001);
    }

    #[test]
    fn energy_unit_scaling() {
        assert_eq!(Joules::from_kilojoules(15.0).value(), 15_000.0);
        assert_eq!(Joules::from_megajoules(13.92).kilojoules(), 13_920.0);
        assert_eq!(Watts::from_kilowatts(1.75).value(), 1750.0);
        assert!((Watts::new(75_200.0).kilowatts() - 75.2).abs() < 1e-9);
    }

    #[test]
    fn same_type_arithmetic_from_macro() {
        let a = Joules::new(3.0);
        let b = Joules::new(4.5);
        assert_eq!((a + b).value(), 7.5);
        assert_eq!((b - a).value(), 1.5);
        assert_eq!((a * 2.0).value(), 6.0);
        assert_eq!((2.0 * a).value(), 6.0);
        assert_eq!((b / 3.0).value(), 1.5);
        assert_eq!(b / a, 1.5);
        assert_eq!((-a).value(), -3.0);
        let mut c = a;
        c += b;
        assert_eq!(c.value(), 7.5);
        c -= a;
        assert_eq!(c.value(), 4.5);
    }

    #[test]
    fn sum_min_max_clamp() {
        let xs = [Watts::new(1.0), Watts::new(2.0), Watts::new(3.0)];
        let total: Watts = xs.iter().sum();
        assert_eq!(total.value(), 6.0);
        assert_eq!(Watts::new(1.0).max(Watts::new(2.0)).value(), 2.0);
        assert_eq!(Watts::new(1.0).min(Watts::new(2.0)).value(), 1.0);
        assert_eq!(
            Watts::new(5.0)
                .clamp(Watts::new(0.0), Watts::new(2.0))
                .value(),
            2.0
        );
        assert_eq!(Watts::new(-1.5).abs().value(), 1.5);
    }

    #[test]
    fn display_with_and_without_precision() {
        assert_eq!(format!("{}", Watts::new(12.0)), "12 W");
        assert_eq!(format!("{:.2}", Joules::new(1.2345)), "1.23 J");
        assert_eq!(format!("{:.1}", Seconds::new(8.62)), "8.6 s");
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Seconds::ZERO).is_empty());
        assert!(format!("{:?}", Joules::new(1.0)).contains("Joules"));
    }
}
