//! The DHL model configuration (Table V).

use dhl_physics::{CartMassModel, LinearInductionMotor, PhysicsError, TimeModel};
use dhl_storage::devices::StorageDevice;
use dhl_units::{Bytes, Kilograms, Metres, MetresPerSecond, Seconds};

/// Parameters of one DHL design point (Table V; bold defaults).
///
/// # Examples
///
/// ```rust
/// use dhl_core::DhlConfig;
///
/// let cfg = DhlConfig::paper_default();
/// assert_eq!(cfg.max_speed.value(), 200.0);
/// assert_eq!(cfg.track_length.value(), 500.0);
/// assert_eq!(cfg.cart_capacity.terabytes(), 256.0);
/// assert!((cfg.cart_mass.grams() - 281.92).abs() < 0.01);
/// assert_eq!(cfg.lim_length().value(), 20.0);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct DhlConfig {
    /// Maximum cart speed (Table V: 100 / **200** / 300 m/s).
    pub max_speed: MetresPerSecond,
    /// Distance between the two endpoints (Table V: 100 / **500** / 1000 m).
    pub track_length: Metres,
    /// Data stored per cart (Table V: 128 / **256** / 512 TB).
    pub cart_capacity: Bytes,
    /// Loaded cart mass (Table V: 161 / **282** / 524 g).
    pub cart_mass: Kilograms,
    /// Time to dock (Table V pessimistic: 3 s).
    pub dock_time: Seconds,
    /// Time to undock (Table V pessimistic: 3 s).
    pub undock_time: Seconds,
    /// The LIM: 75 % efficiency at 1000 m/s² (Table V).
    pub lim: LinearInductionMotor,
    /// Trip-time accounting (defaults to the paper-matching single ramp).
    pub time_model: TimeModel,
}

impl DhlConfig {
    /// The paper's bold Table V configuration: 200 m/s, 500 m, 32 × 8 TB
    /// SSDs (256 TB, 282 g).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::with_ssd_count(MetresPerSecond::new(200.0), Metres::new(500.0), 32)
    }

    /// A configuration whose cart carries `ssd_count` of the paper's 8 TB
    /// M.2 SSDs; capacity and mass follow from the Table II device and the
    /// §IV-A mass model.
    #[must_use]
    pub fn with_ssd_count(
        max_speed: MetresPerSecond,
        track_length: Metres,
        ssd_count: u32,
    ) -> Self {
        let device = StorageDevice::sabrent_rocket_4_plus();
        Self {
            max_speed,
            track_length,
            cart_capacity: device.capacity * u64::from(ssd_count),
            cart_mass: CartMassModel::paper_default().budget(ssd_count).total,
            dock_time: Seconds::new(3.0),
            undock_time: Seconds::new(3.0),
            lim: LinearInductionMotor::paper_default(),
            time_model: TimeModel::PaperSingleRamp,
        }
    }

    /// A fully custom cart (used e.g. by the §V-E crossover's 360 GB cart).
    #[must_use]
    pub fn with_custom_cart(
        max_speed: MetresPerSecond,
        track_length: Metres,
        cart_capacity: Bytes,
        cart_mass: Kilograms,
    ) -> Self {
        Self {
            max_speed,
            track_length,
            cart_capacity,
            cart_mass,
            dock_time: Seconds::new(3.0),
            undock_time: Seconds::new(3.0),
            lim: LinearInductionMotor::paper_default(),
            time_model: TimeModel::PaperSingleRamp,
        }
    }

    /// Validates physical sanity: positive, finite speed/length/mass/capacity,
    /// finite, non-negative dock and undock times, and a track long enough
    /// for the ramps.
    ///
    /// # Errors
    ///
    /// The first violated [`PhysicsError`].
    pub fn validate(&self) -> Result<(), PhysicsError> {
        for (what, value) in [
            ("max speed", self.max_speed.value()),
            ("track length", self.track_length.value()),
            ("cart mass", self.cart_mass.value()),
            ("cart capacity", self.cart_capacity.as_f64()),
        ] {
            if value.is_nan() || value <= 0.0 {
                return Err(PhysicsError::NonPositive { what, value });
            }
            if value.is_infinite() {
                let range = "finite";
                return Err(PhysicsError::OutOfRange { what, value, range });
            }
        }
        for (what, value) in [
            ("dock time", self.dock_time.seconds()),
            ("undock time", self.undock_time.seconds()),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                let range = "finite and non-negative";
                return Err(PhysicsError::OutOfRange { what, value, range });
            }
        }
        // The trip must fit acceleration and braking ramps.
        dhl_physics::TripKinematics::new(self.track_length, self.max_speed, self.lim.acceleration())
            .map(|_| ())
    }

    /// Length of the LIM needed for this speed (Table V: 5/20/45 m).
    #[must_use]
    pub fn lim_length(&self) -> Metres {
        self.lim.length_for(self.max_speed)
    }

    /// Total docking overhead per one-way trip (6 s by default).
    #[must_use]
    pub fn docking_overhead(&self) -> Seconds {
        self.dock_time + self.undock_time
    }
}

impl Default for DhlConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_defaults() {
        let cfg = DhlConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.docking_overhead().seconds(), 6.0);
        assert_eq!(cfg.lim.efficiency(), 0.75);
        assert_eq!(cfg.lim.acceleration().value(), 1000.0);
    }

    #[test]
    fn table_v_cart_variants() {
        for (n, tb, grams) in [
            (16, 128.0, 160.96),
            (32, 256.0, 281.92),
            (64, 512.0, 523.84),
        ] {
            let cfg = DhlConfig::with_ssd_count(MetresPerSecond::new(200.0), Metres::new(500.0), n);
            assert_eq!(cfg.cart_capacity.terabytes(), tb);
            assert!((cfg.cart_mass.grams() - grams).abs() < 0.01);
        }
    }

    #[test]
    fn table_v_lim_lengths() {
        for (v, l) in [(100.0, 5.0), (200.0, 20.0), (300.0, 45.0)] {
            let cfg = DhlConfig::with_ssd_count(MetresPerSecond::new(v), Metres::new(500.0), 32);
            assert_eq!(cfg.lim_length().value(), l);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = DhlConfig::paper_default();
        cfg.max_speed = MetresPerSecond::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = DhlConfig::paper_default();
        cfg.track_length = Metres::new(10.0); // can't fit 200 m/s ramps
        assert!(matches!(
            cfg.validate(),
            Err(PhysicsError::TrackTooShort { .. })
        ));

        let mut cfg = DhlConfig::paper_default();
        cfg.cart_mass = Kilograms::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn custom_cart_constructor() {
        let cfg = DhlConfig::with_custom_cart(
            MetresPerSecond::new(10.0),
            Metres::new(10.0),
            Bytes::from_gigabytes(360.0),
            Kilograms::from_grams(50.0),
        );
        cfg.validate().unwrap();
        assert_eq!(cfg.cart_capacity.gigabytes(), 360.0);
    }
}
