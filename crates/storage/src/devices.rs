//! The storage device a cart carries (Table II).

use dhl_units::{Bytes, BytesPerSecond, Kilograms};

/// Physical packaging of a storage device.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum FormFactor {
    /// A 3.5-inch drive bay unit.
    ThreePointFiveInch,
    /// A U.2 2.5-inch enterprise SSD.
    U2,
    /// An M.2 2280 stick — the paper's chosen form factor.
    M2,
}

/// A storage device with the attributes the DHL models need.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::devices::StorageDevice;
///
/// let m2 = StorageDevice::sabrent_rocket_4_plus();
/// // §II-A: 8 TB in under 6 g.
/// assert_eq!(m2.capacity.terabytes(), 8.0);
/// assert!(m2.mass.grams() < 6.0);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct StorageDevice {
    /// Marketing name.
    pub name: std::borrow::Cow<'static, str>,
    /// Usable capacity.
    pub capacity: Bytes,
    /// Physical packaging.
    pub form_factor: FormFactor,
    /// Device mass.
    pub mass: Kilograms,
    /// Sequential read bandwidth.
    pub read_bandwidth: BytesPerSecond,
    /// Sequential write bandwidth.
    pub write_bandwidth: BytesPerSecond,
    /// Active power draw under load.
    pub active_power_watts: f64,
}

impl StorageDevice {
    /// Sabrent Rocket 4 Plus 8 TB M.2 SSD (Table II) — the paper's cart
    /// payload. 5.67 g, 7100/6000 MB/s sequential, up to 10 W under load
    /// (§VI).
    #[must_use]
    pub fn sabrent_rocket_4_plus() -> Self {
        Self {
            name: "Sabrent Rocket 4 Plus".into(),
            capacity: Bytes::from_terabytes(8.0),
            form_factor: FormFactor::M2,
            mass: Kilograms::from_grams(5.67),
            read_bandwidth: BytesPerSecond::from_megabytes_per_second(7100.0),
            write_bandwidth: BytesPerSecond::from_megabytes_per_second(6000.0),
            active_power_watts: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let m2 = StorageDevice::sabrent_rocket_4_plus();
        assert_eq!(m2.capacity.terabytes(), 8.0);
        assert!((m2.mass.grams() - 5.67).abs() < 1e-9);
        assert_eq!(m2.form_factor, FormFactor::M2);
    }
}
