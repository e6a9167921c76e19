//! Exact byte counts with decimal constructors.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// One decimal kilobyte (10³ bytes).
pub const KILOBYTE: u64 = 1_000;
/// One decimal megabyte (10⁶ bytes).
pub const MEGABYTE: u64 = 1_000_000;
/// One decimal gigabyte (10⁹ bytes).
pub const GIGABYTE: u64 = 1_000_000_000;
/// One decimal terabyte (10¹² bytes) — the paper's storage unit.
pub const TERABYTE: u64 = 1_000_000_000_000;
/// One decimal petabyte (10¹⁵ bytes) — the paper's dataset unit.
pub const PETABYTE: u64 = 1_000_000_000_000_000;

/// An exact count of bytes.
///
/// The paper's datasets (up to 29 PB) and cart capacities (up to 512 TB) fit
/// comfortably in a `u64` (max ≈ 18.4 EB). Arithmetic panics on overflow in
/// debug builds like ordinary integers; use [`Bytes::checked_add`] /
/// [`Bytes::checked_mul`] when the inputs are untrusted.
///
/// # Examples
///
/// ```rust
/// use dhl_units::{Bytes, TERABYTE};
///
/// let cart = Bytes::from_terabytes(256.0);
/// assert_eq!(cart.as_u64(), 256 * TERABYTE);
/// assert_eq!(format!("{cart}"), "256.000 TB");
///
/// // ceil-division: how many 256 TB carts does 29 PB need?
/// let dataset = Bytes::from_petabytes(29.0);
/// assert_eq!(dataset.div_ceil(cart), 114);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Self = Self(0);

    /// Wraps an exact byte count.
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        Self(bytes)
    }

    /// Constructs from decimal gigabytes.
    ///
    /// # Panics
    ///
    /// Panics if `gb` is negative, NaN, or larger than `u64::MAX` bytes.
    #[must_use]
    pub fn from_gigabytes(gb: f64) -> Self {
        Self::from_f64_unit(gb, GIGABYTE)
    }

    /// Constructs from decimal terabytes. See [`Bytes::from_gigabytes`] for panics.
    #[must_use]
    pub fn from_terabytes(tb: f64) -> Self {
        Self::from_f64_unit(tb, TERABYTE)
    }

    /// Constructs from decimal petabytes. See [`Bytes::from_gigabytes`] for panics.
    #[must_use]
    pub fn from_petabytes(pb: f64) -> Self {
        Self::from_f64_unit(pb, PETABYTE)
    }

    fn from_f64_unit(value: f64, unit: u64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "byte quantity must be finite and non-negative, got {value}"
        );
        let bytes = value * unit as f64;
        assert!(
            bytes <= u64::MAX as f64,
            "byte quantity overflows u64: {value} x {unit}"
        );
        Self(bytes.round() as u64)
    }

    /// The exact byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as an `f64` (exact up to 2⁵³ bytes ≈ 9 PB; above that
    /// the nearest representable value, which is far finer than any model
    /// tolerance in this workspace).
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// The count in bits (for network transfer-time math).
    #[must_use]
    pub fn bits(self) -> f64 {
        self.as_f64() * 8.0
    }

    /// Decimal kilobytes.
    #[must_use]
    pub fn kilobytes(self) -> f64 {
        self.as_f64() / KILOBYTE as f64
    }

    /// Decimal megabytes.
    #[must_use]
    pub fn megabytes(self) -> f64 {
        self.as_f64() / MEGABYTE as f64
    }

    /// Decimal gigabytes.
    #[must_use]
    pub fn gigabytes(self) -> f64 {
        self.as_f64() / GIGABYTE as f64
    }

    /// Decimal terabytes.
    #[must_use]
    pub fn terabytes(self) -> f64 {
        self.as_f64() / TERABYTE as f64
    }

    /// Decimal petabytes.
    #[must_use]
    pub fn petabytes(self) -> f64 {
        self.as_f64() / PETABYTE as f64
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    #[must_use]
    pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Checked multiplication by a scalar count; `None` on overflow.
    #[must_use]
    pub const fn checked_mul(self, count: u64) -> Option<Self> {
        match self.0.checked_mul(count) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// How many `chunk`-sized pieces are needed to cover `self`, rounding up.
    ///
    /// This is the paper's "trips" computation: 29 PB over 256 TB carts
    /// requires `ceil(29 000 / 256) = 114` one-way deliveries.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    #[must_use]
    pub fn div_ceil(self, chunk: Self) -> u64 {
        assert!(chunk.0 > 0, "chunk size must be non-zero");
        self.0.div_ceil(chunk.0)
    }

    /// Returns the smaller of the two counts.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns the larger of the two counts.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Whether this is exactly zero bytes.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Bytes {
    /// Human-readable decimal rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= PETABYTE {
            write!(f, "{:.3} PB", self.petabytes())
        } else if b >= TERABYTE {
            write!(f, "{:.3} TB", self.terabytes())
        } else if b >= GIGABYTE {
            write!(f, "{:.3} GB", self.gigabytes())
        } else if b >= MEGABYTE {
            write!(f, "{:.3} MB", self.megabytes())
        } else if b >= KILOBYTE {
            write!(f, "{:.3} kB", self.kilobytes())
        } else {
            write!(f, "{b} B")
        }
    }
}

impl From<u64> for Bytes {
    fn from(bytes: u64) -> Self {
        Self(bytes)
    }
}

impl From<Bytes> for u64 {
    fn from(bytes: Bytes) -> Self {
        bytes.0
    }
}

impl Add for Bytes {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Bytes {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Self;
    fn mul(self, count: u64) -> Self {
        Self(self.0 * count)
    }
}

impl Mul<Bytes> for u64 {
    type Output = Bytes;
    fn mul(self, bytes: Bytes) -> Bytes {
        Bytes(self * bytes.0)
    }
}

impl Div<u64> for Bytes {
    type Output = Self;
    fn div(self, count: u64) -> Self {
        Self(self.0 / count)
    }
}

impl Rem for Bytes {
    type Output = Self;
    fn rem(self, rhs: Self) -> Self {
        Self(self.0 % rhs.0)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|b| b.0).sum())
    }
}

impl<'a> Sum<&'a Bytes> for Bytes {
    fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        Self(iter.map(|b| b.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_constructors_round_trip() {
        assert_eq!(Bytes::from_terabytes(256.0).as_u64(), 256 * TERABYTE);
        assert_eq!(Bytes::from_petabytes(29.0).as_u64(), 29 * PETABYTE);
        assert_eq!(Bytes::from_gigabytes(0.5).as_u64(), GIGABYTE / 2);
        assert!((Bytes::from_petabytes(29.0).terabytes() - 29_000.0).abs() < 1e-6);
    }

    #[test]
    fn trips_for_paper_cart_sizes() {
        let dataset = Bytes::from_petabytes(29.0);
        assert_eq!(dataset.div_ceil(Bytes::from_terabytes(128.0)), 227);
        assert_eq!(dataset.div_ceil(Bytes::from_terabytes(256.0)), 114);
        assert_eq!(dataset.div_ceil(Bytes::from_terabytes(512.0)), 57);
    }

    #[test]
    fn div_ceil_exact_and_inexact() {
        assert_eq!(Bytes::new(100).div_ceil(Bytes::new(10)), 10);
        assert_eq!(Bytes::new(101).div_ceil(Bytes::new(10)), 11);
        assert_eq!(Bytes::ZERO.div_ceil(Bytes::new(10)), 0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn div_ceil_zero_chunk_panics() {
        let _ = Bytes::new(1).div_ceil(Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_constructor_panics() {
        let _ = Bytes::from_terabytes(-1.0);
    }

    #[test]
    fn checked_ops() {
        assert_eq!(
            Bytes::new(u64::MAX).checked_add(Bytes::new(1)),
            None,
            "overflow must be detected"
        );
        assert_eq!(Bytes::new(1).checked_sub(Bytes::new(2)), None);
        assert_eq!(Bytes::new(2).checked_mul(u64::MAX), None);
        assert_eq!(
            Bytes::new(3).checked_add(Bytes::new(4)),
            Some(Bytes::new(7))
        );
        assert_eq!(Bytes::new(1).saturating_sub(Bytes::new(5)), Bytes::ZERO);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", Bytes::new(12)), "12 B");
        assert_eq!(format!("{}", Bytes::from_terabytes(256.0)), "256.000 TB");
        assert_eq!(format!("{}", Bytes::from_petabytes(29.0)), "29.000 PB");
        assert_eq!(format!("{}", Bytes::new(1_500_000)), "1.500 MB");
    }

    #[test]
    fn bits_for_transfer_math() {
        // 1 GB = 8 Gbit.
        assert!((Bytes::from_gigabytes(1.0).bits() - 8.0e9).abs() < 1.0);
    }

    #[test]
    fn sum_and_arithmetic() {
        let parts = [Bytes::new(1), Bytes::new(2), Bytes::new(3)];
        let total: Bytes = parts.iter().sum();
        assert_eq!(total, Bytes::new(6));
        assert_eq!(Bytes::new(6) % Bytes::new(4), Bytes::new(2));
        assert_eq!(3 * Bytes::new(2), Bytes::new(6));
        assert_eq!(Bytes::new(6) / 2, Bytes::new(3));
    }
}
