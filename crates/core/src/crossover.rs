//! Minimum specifications for DHL to outperform optical (§V-E).
//!
//! The 6 s docking overhead is unavoidable even for tiny transfers, so a DHL
//! only wins above a minimum dataset size. The paper's example: a DHL with
//! 360 GB carts at 10 m/s over 10 m completes a one-way transfer in ≈ 7.2 s
//! — the same time a single A0 optical link needs for 360 GB — while using
//! a minuscule amount of energy vs the link's ≈ 144–173 J.

use dhl_net::route::Route;
use dhl_units::{Bytes, Joules, Kilograms, Metres, MetresPerSecond, Seconds};

use crate::config::DhlConfig;
use crate::launch::LaunchMetrics;

/// The §V-E example DHL: 360 GB cart, 10 m/s, 10 m, ~50 g cart.
#[must_use]
pub fn paper_minimal_dhl() -> DhlConfig {
    DhlConfig::with_custom_cart(
        MetresPerSecond::new(10.0),
        Metres::new(10.0),
        Bytes::from_gigabytes(360.0),
        // A 360 GB payload is well under one 8 TB M.2; the cart is
        // essentially frame + magnets + fin: ≈ 50 g.
        Kilograms::from_grams(50.0),
    )
}

/// Result of comparing a minimal DHL against a single optical link.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CrossoverPoint {
    /// One-way DHL transfer time for the cart.
    pub dhl_time: Seconds,
    /// DHL launch energy.
    pub dhl_energy: Joules,
    /// Dataset size at which a single A0 link needs exactly `dhl_time`.
    pub breakeven_dataset: Bytes,
    /// Energy the A0 link spends moving `breakeven_dataset`.
    pub optical_energy: Joules,
}

/// Computes the time-parity dataset size for a DHL configuration: the
/// payload at which one A0 optical link ties the DHL's one-way trip time.
/// Below it the link wins on latency; above it the DHL wins on both time
/// and (vastly) energy.
#[must_use]
pub fn crossover(cfg: &DhlConfig) -> CrossoverPoint {
    let m = LaunchMetrics::evaluate(cfg);
    let a0 = Route::a0();
    let rate = a0.line_rate().bytes_per_second();
    let breakeven = rate * m.trip_time;
    CrossoverPoint {
        dhl_time: m.trip_time,
        dhl_energy: m.energy,
        breakeven_dataset: breakeven,
        optical_energy: a0.power() * m.trip_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_minimal_dhl_takes_about_7_seconds() {
        // Paper: 7.2 s. Our kinematics give 6 + 10/10 + 10/(2·1000) ≈ 7.0 s
        // (the paper's 7.2 s corresponds to a slightly gentler ramp).
        let c = crossover(&paper_minimal_dhl());
        assert!((c.dhl_time.seconds() - 7.005).abs() < 0.001);
    }

    #[test]
    fn breakeven_dataset_is_about_360_gb() {
        // Paper: "DHL is desirable when transferring datasets of size at
        // least 360 GB over at least 10 metres." Our 7.005 s trip ties A0 at
        // 350 GB — within 3 % of the paper's 360 GB.
        let c = crossover(&paper_minimal_dhl());
        let gb = c.breakeven_dataset.gigabytes();
        assert!((gb - 350.25).abs() < 0.5, "got {gb}");
        assert!((gb - 360.0).abs() / 360.0 < 0.03);
    }

    #[test]
    fn optical_energy_at_breakeven_is_well_over_100_joules() {
        // Paper prints 144 J (24 W × 6 s); the full 7.2 s trip costs
        // 172.8 J. Ours: 24 W × 7.005 s = 168.1 J. Either way, orders of
        // magnitude above the DHL's launch energy.
        let c = crossover(&paper_minimal_dhl());
        assert!((c.optical_energy.value() - 168.1).abs() < 0.2);
        assert!(c.optical_energy.value() > 140.0);
    }

    #[test]
    fn dhl_energy_is_minuscule() {
        // ½·0.05 kg·(10 m/s)² / 0.75 × 2 = 6.7 J — vs 168 J for optical.
        let c = crossover(&paper_minimal_dhl());
        assert!((c.dhl_energy.value() - 6.667).abs() < 0.01);
        assert!(c.optical_energy.value() / c.dhl_energy.value() > 20.0);
    }

    #[test]
    fn above_breakeven_dhl_wins_both_time_and_energy() {
        let cfg = paper_minimal_dhl();
        let c = crossover(&cfg);
        let bigger = Bytes::new(c.breakeven_dataset.as_u64() * 2);
        // The cart holds 360 GB < 700 GB, but a single one-way trip moves
        // whatever fits; compare per-payload-byte rates instead: DHL time is
        // constant per trip while optical time doubles.
        let optical_time = Route::a0().transfer_time(bigger);
        assert!(optical_time.seconds() > c.dhl_time.seconds());
        let optical_energy = Route::a0().transfer_energy(bigger);
        assert!(optical_energy.value() > c.dhl_energy.value());
    }

    #[test]
    fn faster_minimal_dhl_lowers_the_breakeven() {
        // A quicker trip ties optical at a smaller dataset.
        let mut fast = paper_minimal_dhl();
        fast.max_speed = MetresPerSecond::new(20.0);
        // Halve docking too, since it dominates.
        fast.dock_time = Seconds::new(1.0);
        fast.undock_time = Seconds::new(1.0);
        let base = crossover(&paper_minimal_dhl());
        let quick = crossover(&fast);
        assert!(quick.breakeven_dataset < base.breakeven_dataset);
    }
}
