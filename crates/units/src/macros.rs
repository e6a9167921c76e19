//! The `scalar_quantity!` macro that defines an `f64`-backed dimensioned
//! newtype with the common trait surface and same-type arithmetic.

/// Defines an `f64` newtype quantity.
///
/// Generates:
/// - `Copy`, `Clone`, `PartialEq`, `PartialOrd`, `Debug`, `Default`,
///   `Display` (value + unit suffix);
/// - a `const fn new(f64)` constructor and a `const fn value(self) -> f64`
///   accessor;
/// - same-type `Add`/`Sub`/`AddAssign`/`SubAssign`, scaling by `f64`
///   (`Mul<f64>`, `Div<f64>`, and `f64 * Q`), negation, and the
///   dimensionless ratio `Q / Q -> f64`;
/// - `Sum` over iterators of the quantity;
/// - `min`/`max`/`abs`/`clamp` helpers and an `is_finite` check.
macro_rules! scalar_quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, PartialOrd, Debug, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw value expressed in the quantity's base unit.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the quantity's base unit.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN (as
            /// [`f64::clamp`] does).
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Whether the underlying value is finite (not NaN/±∞).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                // Respect precision if given: `{:.2}` → "1.23 J".
                match f.precision() {
                    Some(p) => write!(f, "{:.*} {}", p, self.0, $unit),
                    None => write!(f, "{} {}", self.0, $unit),
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}
