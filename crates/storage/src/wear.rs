//! SSD write-endurance model.
//!
//! DHL carts are written every time a dataset is (re)staged onto them, so
//! NAND endurance bounds a cart's service life. This module models the
//! standard TBW (terabytes-written) rating and drive-writes-per-day (DWPD)
//! arithmetic so deployments can budget cart replacement alongside §VI's
//! connector replacement.

use dhl_units::{Bytes, Seconds};

use crate::devices::StorageDevice;

/// Endurance rating of a drive.
#[derive(Clone, PartialEq, Debug)]
pub struct EnduranceModel {
    /// Total bytes the drive may absorb before wear-out (its TBW rating).
    pub rated_writes: Bytes,
    /// Warranty period the DWPD figure is quoted over.
    pub warranty: Seconds,
}

impl EnduranceModel {
    /// The Rocket 4 Plus 8 TB's rating: 5600 TBW over a 5-year warranty.
    #[must_use]
    pub fn rocket_4_plus_8tb() -> Self {
        Self {
            rated_writes: Bytes::from_terabytes(5_600.0),
            warranty: Seconds::from_days(5.0 * 365.0),
        }
    }

    /// A custom rating.
    ///
    /// # Panics
    ///
    /// Panics if either quantity is zero.
    #[must_use]
    pub fn new(rated_writes: Bytes, warranty: Seconds) -> Self {
        assert!(!rated_writes.is_zero(), "TBW rating must be non-zero");
        assert!(warranty.seconds() > 0.0, "warranty must be positive");
        Self {
            rated_writes,
            warranty,
        }
    }

    /// Drive-writes-per-day implied by the rating for a given capacity.
    #[must_use]
    pub fn dwpd(&self, device: &StorageDevice) -> f64 {
        let full_writes = self.rated_writes.as_f64() / device.capacity.as_f64();
        full_writes / self.warranty.days()
    }

    /// Service life under a steady write load (bytes per day), assuming
    /// perfect wear levelling.
    #[must_use]
    pub fn lifetime(&self, daily_writes: Bytes) -> Seconds {
        if daily_writes.is_zero() {
            return Seconds::new(f64::INFINITY);
        }
        Seconds::from_days(self.rated_writes.as_f64() / daily_writes.as_f64())
    }

    /// How many complete rewrites of `device` the rating allows.
    #[must_use]
    pub fn full_rewrites(&self, device: &StorageDevice) -> u64 {
        self.rated_writes.as_u64() / device.capacity.as_u64()
    }
}

/// Wear accounting for a whole cart in DHL service.
#[derive(Clone, PartialEq, Debug)]
pub struct CartWear {
    endurance: EnduranceModel,
    cart_capacity: Bytes,
    written: Bytes,
}

impl CartWear {
    /// A fresh cart with the given per-cart capacity and per-drive-fleet
    /// endurance (rating scales with the number of drives, so we track at
    /// cart granularity: rated cart writes = TBW × drives = TBW ×
    /// capacity/drive-capacity; equivalently full rewrites are constant).
    #[must_use]
    pub fn new(endurance: EnduranceModel, cart_capacity: Bytes) -> Self {
        Self {
            endurance,
            cart_capacity,
            written: Bytes::ZERO,
        }
    }

    /// Rated bytes for the whole cart (TBW scaled by cart/drive ratio).
    #[must_use]
    pub fn rated_cart_writes(&self) -> Bytes {
        let device = StorageDevice::sabrent_rocket_4_plus();
        let drives = self.cart_capacity.as_f64() / device.capacity.as_f64();
        Bytes::new((self.endurance.rated_writes.as_f64() * drives) as u64)
    }

    /// Records a full-cart restage (writing `bytes` across the cart).
    pub fn record_write(&mut self, bytes: Bytes) {
        self.written += bytes;
    }

    /// Bytes written so far.
    #[must_use]
    pub fn written(&self) -> Bytes {
        self.written
    }

    /// Fraction of rated life consumed, ≥ 1 means due for replacement.
    #[must_use]
    pub fn wear_fraction(&self) -> f64 {
        self.written.as_f64() / self.rated_cart_writes().as_f64()
    }

    /// Whether the cart has exhausted its rated writes.
    #[must_use]
    pub fn is_worn_out(&self) -> bool {
        self.wear_fraction() >= 1.0
    }

    /// Full-cart restages remaining before wear-out.
    #[must_use]
    pub fn restages_remaining(&self) -> u64 {
        let remaining = self.rated_cart_writes().saturating_sub(self.written);
        remaining.as_u64() / self.cart_capacity.as_u64().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rocket_dwpd_is_fractional() {
        // 5600 TBW / 8 TB / (5 × 365) days ≈ 0.38 DWPD — a consumer-class
        // rating.
        let e = EnduranceModel::rocket_4_plus_8tb();
        let dwpd = e.dwpd(&StorageDevice::sabrent_rocket_4_plus());
        assert!((dwpd - 0.3836).abs() < 0.001, "{dwpd}");
        assert_eq!(
            e.full_rewrites(&StorageDevice::sabrent_rocket_4_plus()),
            700
        );
    }

    #[test]
    fn lifetime_under_daily_backups() {
        // A cart restaged once a day (256 TB written across 32 drives =
        // 8 TB/drive/day = 1 DWPD) lasts 700 days — under 2 years, so wear
        // budgeting matters for the backup use case.
        let e = EnduranceModel::rocket_4_plus_8tb();
        let life = e.lifetime(Bytes::from_terabytes(8.0));
        assert!((life.days() - 700.0).abs() < 0.5);
        // Idle carts last forever.
        assert!(!e.lifetime(Bytes::ZERO).is_finite());
    }

    #[test]
    fn cart_wear_accumulates_and_wears_out() {
        let mut wear = CartWear::new(
            EnduranceModel::rocket_4_plus_8tb(),
            Bytes::from_terabytes(256.0),
        );
        // 32 drives × 5600 TBW = 179 200 TB of rated cart writes = 700
        // restages.
        assert_eq!(wear.restages_remaining(), 700);
        for _ in 0..699 {
            wear.record_write(Bytes::from_terabytes(256.0));
        }
        assert!(!wear.is_worn_out());
        assert_eq!(wear.restages_remaining(), 1);
        wear.record_write(Bytes::from_terabytes(256.0));
        assert!(wear.is_worn_out());
        assert!((wear.wear_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ml_reuse_barely_wears_carts() {
        // The ML use case *reads* repeatedly but writes once per dataset
        // refresh: monthly restaging wears a cart out in 700 months — the
        // connector (§VI) and the SSDs' read path retire first.
        let mut wear = CartWear::new(
            EnduranceModel::rocket_4_plus_8tb(),
            Bytes::from_terabytes(256.0),
        );
        for _ in 0..24 {
            wear.record_write(Bytes::from_terabytes(256.0)); // two years monthly
        }
        assert!(wear.wear_fraction() < 0.04);
    }

    #[test]
    #[should_panic(expected = "TBW rating must be non-zero")]
    fn zero_rating_rejected() {
        let _ = EnduranceModel::new(Bytes::ZERO, Seconds::from_days(1.0));
    }

    #[test]
    fn partial_writes_count_proportionally() {
        let mut wear = CartWear::new(
            EnduranceModel::rocket_4_plus_8tb(),
            Bytes::from_terabytes(256.0),
        );
        wear.record_write(Bytes::from_terabytes(128.0));
        assert!((wear.wear_fraction() - 0.5 / 700.0).abs() < 1e-9);
        assert_eq!(wear.written(), Bytes::from_terabytes(128.0));
    }
}
