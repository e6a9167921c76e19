//! Single-launch metrics (Table VI, left half).

use dhl_physics::TripKinematics;
use dhl_units::{BytesPerSecond, GigabytesPerJoule, Joules, Seconds, Watts};

use crate::config::DhlConfig;

/// The five §IV-D metrics for a single cart launch between two endpoints.
///
/// # Examples
///
/// The paper's default row of Table VI (200 m/s, 500 m, 256 TB):
///
/// ```rust
/// use dhl_core::{DhlConfig, LaunchMetrics};
///
/// let m = LaunchMetrics::evaluate(&DhlConfig::paper_default());
/// assert!((m.energy.kilojoules() - 15.04).abs() < 0.01);   // table: 15
/// assert!((m.trip_time.seconds() - 8.6).abs() < 1e-9);     // table: 8.6
/// assert!((m.efficiency.value() - 17.0).abs() < 0.1);      // table: 17
/// assert!((m.bandwidth.terabytes_per_second() - 29.8).abs() < 0.1); // table: 30
/// assert!((m.peak_power.kilowatts() - 75.2).abs() < 0.1);  // table: 75
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LaunchMetrics {
    /// Energy to launch **and** decelerate the cart (both LIM-costed).
    pub energy: Joules,
    /// Data moved per unit energy.
    pub efficiency: GigabytesPerJoule,
    /// Un-dock + motion + dock time.
    pub trip_time: Seconds,
    /// Embodied bandwidth: capacity ÷ trip time (no pipelining).
    pub bandwidth: BytesPerSecond,
    /// Peak electrical power during the acceleration ramp.
    pub peak_power: Watts,
}

impl LaunchMetrics {
    /// Evaluates the analytical model at a design point.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (callers should
    /// [`DhlConfig::validate`] untrusted inputs first).
    #[must_use]
    pub fn evaluate(cfg: &DhlConfig) -> Self {
        cfg.validate().expect("invalid DhlConfig");
        let kin = TripKinematics::new(cfg.track_length, cfg.max_speed, cfg.lim.acceleration())
            .expect("validated");
        let motion = kin.motion_time(cfg.time_model);
        let trip_time = cfg.docking_overhead() + motion;

        // §V-A: acceleration and (pessimistically equal) deceleration
        // dominate; drag and stabilisation are negligible and excluded, as
        // in the paper.
        let energy = cfg.lim.accel_energy(cfg.cart_mass, cfg.max_speed)
            + cfg.lim.decel_energy(cfg.cart_mass, cfg.max_speed);

        Self {
            energy,
            efficiency: cfg.cart_capacity / energy,
            trip_time,
            bandwidth: cfg.cart_capacity / trip_time,
            peak_power: cfg.lim.peak_power(cfg.cart_mass, cfg.max_speed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_units::{Metres, MetresPerSecond};

    fn eval(speed: f64, length: f64, ssds: u32) -> LaunchMetrics {
        LaunchMetrics::evaluate(&DhlConfig::with_ssd_count(
            MetresPerSecond::new(speed),
            Metres::new(length),
            ssds,
        ))
    }

    /// Every row of Table VI's "Metrics for a single launch" block, checked
    /// against the paper's printed (rounded) values.
    #[test]
    fn table_vi_left_all_rows() {
        // (speed, length, ssds, energy kJ, eff GB/J, time s, bw TB/s, power kW)
        type Row = (f64, f64, u32, f64, f64, f64, f64, f64);
        let rows: [Row; 13] = [
            (100.0, 500.0, 32, 3.7, 68.0, 11.0, 23.0, 38.0),
            (200.0, 500.0, 32, 15.0, 17.0, 8.6, 30.0, 75.0),
            (300.0, 500.0, 32, 34.0, 7.6, 7.8, 33.0, 113.0),
            (200.0, 100.0, 32, 15.0, 17.0, 6.6, 39.0, 75.0),
            (200.0, 500.0, 32, 15.0, 17.0, 8.6, 30.0, 75.0),
            (200.0, 1000.0, 32, 15.0, 17.0, 11.0, 23.0, 75.0),
            (200.0, 500.0, 16, 8.6, 15.0, 8.6, 15.0, 43.0),
            (200.0, 500.0, 32, 15.0, 17.0, 8.6, 30.0, 75.0),
            (200.0, 500.0, 64, 28.0, 18.0, 8.6, 60.0, 140.0),
            (100.0, 500.0, 16, 2.1, 60.0, 11.0, 12.0, 22.0),
            (100.0, 500.0, 64, 7.0, 73.0, 11.0, 46.0, 70.0),
            (300.0, 500.0, 16, 19.0, 6.6, 7.8, 16.0, 64.0),
            (300.0, 500.0, 64, 63.0, 8.0, 7.8, 66.0, 210.0),
        ];
        for (v, l, n, kj, eff, t, bw, kw) in rows {
            let m = eval(v, l, n);
            let tol = |x: f64| (x * 0.04).max(0.06); // printed values are 2-sig-fig rounded
            assert!(
                (m.energy.kilojoules() - kj).abs() < tol(kj),
                "{v}/{l}/{n}: energy {} vs {kj}",
                m.energy.kilojoules()
            );
            assert!(
                (m.efficiency.value() - eff).abs() < tol(eff),
                "{v}/{l}/{n}: efficiency {} vs {eff}",
                m.efficiency.value()
            );
            assert!(
                (m.trip_time.seconds() - t).abs() < tol(t),
                "{v}/{l}/{n}: time {} vs {t}",
                m.trip_time.seconds()
            );
            assert!(
                (m.bandwidth.terabytes_per_second() - bw).abs() < tol(bw),
                "{v}/{l}/{n}: bandwidth {} vs {bw}",
                m.bandwidth.terabytes_per_second()
            );
            assert!(
                (m.peak_power.kilowatts() - kw).abs() < tol(kw),
                "{v}/{l}/{n}: power {} vs {kw}",
                m.peak_power.kilowatts()
            );
        }
    }

    #[test]
    fn abstract_headline_efficiency() {
        // "improved embodied data transmission power efficiency of up to
        // 73.3 GB/J" — the 100 m/s, 512 TB configuration.
        let m = eval(100.0, 500.0, 64);
        assert!((m.efficiency.value() - 73.28).abs() < 0.05);
    }

    #[test]
    fn energy_does_not_depend_on_track_length() {
        let short = eval(200.0, 100.0, 32);
        let long = eval(200.0, 1000.0, 32);
        assert_eq!(short.energy, long.energy);
        assert_eq!(short.peak_power, long.peak_power);
        assert!(short.trip_time < long.trip_time);
    }

    #[test]
    fn observation_b_doubling_data_costs_less_than_double() {
        // §V-A observation (b): 8.6 → 15 → 28 kJ for 128 → 256 → 512 TB.
        let e128 = eval(200.0, 500.0, 16).energy.kilojoules();
        let e256 = eval(200.0, 500.0, 32).energy.kilojoules();
        let e512 = eval(200.0, 500.0, 64).energy.kilojoules();
        assert!(e256 / e128 < 2.0);
        assert!(e512 / e256 < 2.0);
    }

    #[test]
    fn bandwidth_is_300_to_1200x_fibre() {
        // §V-A: 15–60 TB/s is 300×–1200× faster than a 50 GB/s fibre link.
        let fibre_gbps = 50.0e9;
        let low = eval(200.0, 500.0, 16).bandwidth.value() / fibre_gbps;
        let high = eval(200.0, 500.0, 64).bandwidth.value() / fibre_gbps;
        assert!(low >= 295.0, "low {low}");
        assert!((1150.0..=1250.0).contains(&high), "high {high}");
    }

    #[test]
    fn docking_dominates_trip_time_at_default() {
        // §V-A observation (a): docking/undocking has a huge impact — 6 s of
        // the 8.6 s trip.
        let m = eval(200.0, 500.0, 32);
        let dock_fraction = 6.0 / m.trip_time.seconds();
        assert!(dock_fraction > 0.65);
    }

    #[test]
    #[should_panic(expected = "invalid DhlConfig")]
    fn panics_on_invalid_config() {
        let mut cfg = DhlConfig::paper_default();
        cfg.track_length = Metres::new(1.0);
        let _ = LaunchMetrics::evaluate(&cfg);
    }
}
