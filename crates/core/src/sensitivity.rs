//! Parameter sensitivity analyses for the §V-A observations and the §II-A
//! scaling argument.
//!
//! Three sweeps the paper motivates but does not tabulate:
//!
//! - **Docking time** — "the docking/un-docking time has a huge impact on
//!   the total time to move DHL" (§V-A): trip time and embodied bandwidth
//!   vs the 3 s pessimistic assumption.
//! - **Acceleration rate** — "we can reduce DHL's peak power by adjusting
//!   the acceleration rate … slightly increasing acceleration time but
//!   reducing power" (§V-A note).
//! - **SSD density scaling** — "as storage density improves … DHLs will
//!   achieve higher embodied data transmission rates. We only need to
//!   upgrade the carts' SSDs and not the hyperloop itself" (§II-A).

use dhl_physics::LinearInductionMotor;
use dhl_units::{Bytes, Metres, MetresPerSecondSquared, Seconds};

use crate::config::DhlConfig;
use crate::launch::LaunchMetrics;

/// One row of the docking-time sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct DockingSensitivityRow {
    /// Dock (= undock) time assumed.
    pub dock_time: Seconds,
    /// Resulting launch metrics.
    pub metrics: LaunchMetrics,
    /// Fraction of the trip spent docking.
    pub docking_fraction: f64,
}

/// Sweeps the dock/undock time from `times` over a base configuration.
#[must_use]
pub fn docking_time_sweep(base: &DhlConfig, times: &[Seconds]) -> Vec<DockingSensitivityRow> {
    times
        .iter()
        .map(|&t| {
            let mut cfg = base.clone();
            cfg.dock_time = t;
            cfg.undock_time = t;
            let metrics = LaunchMetrics::evaluate(&cfg);
            DockingSensitivityRow {
                dock_time: t,
                docking_fraction: (t.seconds() * 2.0) / metrics.trip_time.seconds(),
                metrics,
            }
        })
        .collect()
}

/// One row of the acceleration sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct AccelerationSensitivityRow {
    /// Acceleration rate assumed.
    pub acceleration: MetresPerSecondSquared,
    /// LIM length this rate requires.
    pub lim_length: Metres,
    /// Resulting launch metrics (peak power falls with the rate).
    pub metrics: LaunchMetrics,
}

/// Sweeps the LIM acceleration rate over a base configuration.
///
/// # Panics
///
/// Panics if a rate is so low the track cannot fit the ramps.
#[must_use]
pub fn acceleration_sweep(
    base: &DhlConfig,
    rates: &[MetresPerSecondSquared],
) -> Vec<AccelerationSensitivityRow> {
    rates
        .iter()
        .map(|&a| {
            let mut cfg = base.clone();
            cfg.lim = LinearInductionMotor::new(cfg.lim.efficiency(), a).expect("positive rate");
            let metrics = LaunchMetrics::evaluate(&cfg);
            AccelerationSensitivityRow {
                acceleration: a,
                lim_length: cfg.lim_length(),
                metrics,
            }
        })
        .collect()
}

/// One row of the SSD-density scaling projection.
#[derive(Clone, PartialEq, Debug)]
pub struct DensityScalingRow {
    /// Capacity multiplier relative to today's 8 TB M.2 at the same mass.
    pub density_factor: f64,
    /// Cart capacity at that density.
    pub cart_capacity: Bytes,
    /// Resulting launch metrics — bandwidth and GB/J scale with density
    /// while energy, time and power stay fixed.
    pub metrics: LaunchMetrics,
}

/// Projects the default cart forward through NAND density scaling: same
/// cart mass and kinematics, `factor ×` the bytes.
#[must_use]
pub fn density_scaling(base: &DhlConfig, factors: &[f64]) -> Vec<DensityScalingRow> {
    factors
        .iter()
        .map(|&factor| {
            let mut cfg = base.clone();
            cfg.cart_capacity = Bytes::new((cfg.cart_capacity.as_f64() * factor).round() as u64);
            let metrics = LaunchMetrics::evaluate(&cfg);
            DensityScalingRow {
                density_factor: factor,
                cart_capacity: cfg.cart_capacity,
                metrics,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_units::MetresPerSecond;

    #[test]
    fn docking_dominates_and_shrinking_it_pays() {
        let base = DhlConfig::paper_default();
        let rows = docking_time_sweep(&base, &[0.0, 1.0, 2.0, 3.0, 5.0].map(Seconds::new));
        // At the paper's 3 s, docking is ~70 % of the trip.
        let at3 = &rows[3];
        assert!((at3.docking_fraction - 6.0 / 8.6).abs() < 1e-9);
        // Zero docking collapses the trip to 2.6 s and triples bandwidth.
        assert!((rows[0].metrics.trip_time.seconds() - 2.6).abs() < 1e-9);
        assert!(rows[0].metrics.bandwidth.value() > 3.0 * at3.metrics.bandwidth.value());
        // Energy is untouched by docking time.
        for r in &rows {
            assert_eq!(r.metrics.energy, at3.metrics.energy);
        }
        // Bandwidth decreases monotonically with docking time.
        for pair in rows.windows(2) {
            assert!(pair[0].metrics.bandwidth > pair[1].metrics.bandwidth);
        }
    }

    #[test]
    fn halving_acceleration_halves_peak_power() {
        let base = DhlConfig::paper_default();
        let rows = acceleration_sweep(&base, &[500.0, 1000.0].map(MetresPerSecondSquared::new));
        let half = &rows[0];
        let full = &rows[1];
        assert!(
            (half.metrics.peak_power.value() / full.metrics.peak_power.value() - 0.5).abs() < 1e-12
        );
        // At the cost of a doubled LIM (40 m vs 20 m)...
        assert_eq!(half.lim_length.value(), 2.0 * full.lim_length.value());
        // ...a slightly longer trip...
        assert!(half.metrics.trip_time > full.metrics.trip_time);
        assert!(half.metrics.trip_time.seconds() - full.metrics.trip_time.seconds() < 0.2);
        // ...and identical energy.
        assert_eq!(half.metrics.energy, full.metrics.energy);
    }

    #[test]
    fn density_scaling_boosts_bandwidth_and_efficiency_only() {
        let base = DhlConfig::paper_default();
        let rows = density_scaling(&base, &[1.0, 2.0, 4.0, 8.0]);
        let today = &rows[0];
        for (i, r) in rows.iter().enumerate() {
            let k = [1.0, 2.0, 4.0, 8.0][i];
            assert!((r.cart_capacity.terabytes() - 256.0 * k).abs() < 1e-6);
            // Same physics...
            assert_eq!(r.metrics.energy, today.metrics.energy);
            assert_eq!(r.metrics.trip_time, today.metrics.trip_time);
            assert_eq!(r.metrics.peak_power, today.metrics.peak_power);
            // ...k× the data rate and data-per-joule.
            assert!(
                (r.metrics.bandwidth.value() / today.metrics.bandwidth.value() - k).abs() < 1e-9
            );
            assert!(
                (r.metrics.efficiency.value() / today.metrics.efficiency.value() - k).abs() < 1e-9
            );
        }
        // An 8× density future: 2 PB carts at 238 TB/s embodied.
        let future = &rows[3];
        assert!(future.metrics.bandwidth.terabytes_per_second() > 230.0);
    }

    #[test]
    fn sweeps_accept_the_speed_variants() {
        for v in [100.0, 300.0] {
            let cfg = DhlConfig::with_ssd_count(MetresPerSecond::new(v), Metres::new(500.0), 32);
            assert_eq!(docking_time_sweep(&cfg, &[Seconds::new(3.0)]).len(), 1);
            assert_eq!(
                acceleration_sweep(&cfg, &[MetresPerSecondSquared::new(1000.0)]).len(),
                1
            );
        }
    }
}
