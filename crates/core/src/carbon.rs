//! Carbon-footprint accounting (§II-D.3).
//!
//! "This creates a strong argument for data centre architects to invest in
//! special data centre-scale solutions to reduce the carbon footprint of
//! training (both in terms of computation and data ingestion), potentially
//! creating big savings in energy bills." This module converts the energy
//! models into CO₂-equivalent emissions and electricity cost, so the
//! DHL-vs-network comparison can be stated in tonnes and dollars per year.

use dhl_units::{Joules, Usd};

/// Grid carbon intensity and electricity price.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct GridModel {
    /// kg CO₂e emitted per kWh drawn.
    pub kg_co2e_per_kwh: f64,
    /// Electricity price, USD per kWh.
    pub usd_per_kwh: f64,
}

impl GridModel {
    /// The 2023 US grid average: ≈ 0.39 kg CO₂e/kWh at ≈ $0.083/kWh
    /// (industrial rate).
    #[must_use]
    pub fn us_average() -> Self {
        Self {
            kg_co2e_per_kwh: 0.39,
            usd_per_kwh: 0.083,
        }
    }

    /// Emissions for an energy draw, in kg CO₂e.
    #[must_use]
    pub fn emissions_kg(&self, energy: Joules) -> f64 {
        energy.value() / 3.6e6 * self.kg_co2e_per_kwh
    }

    /// Electricity cost for an energy draw.
    #[must_use]
    pub fn electricity_cost(&self, energy: Joules) -> Usd {
        Usd::new(energy.value() / 3.6e6 * self.usd_per_kwh)
    }
}

impl Default for GridModel {
    fn default() -> Self {
        Self::us_average()
    }
}

/// Annualised comparison of two communication substrates.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AnnualFootprint {
    /// Yearly energy of the baseline (network).
    pub baseline_energy: Joules,
    /// Yearly energy of the DHL alternative.
    pub dhl_energy: Joules,
    /// Yearly CO₂e avoided, kg.
    pub kg_co2e_saved: f64,
    /// Yearly electricity-bill saving.
    pub usd_saved: Usd,
}

/// Annualises a per-event energy pair over `events_per_year` occurrences
/// (e.g. daily backups ⇒ 365).
#[must_use]
pub fn annualise(
    grid: &GridModel,
    baseline_per_event: Joules,
    dhl_per_event: Joules,
    events_per_year: f64,
) -> AnnualFootprint {
    let baseline_energy = baseline_per_event * events_per_year;
    let dhl_energy = dhl_per_event * events_per_year;
    let saved = baseline_energy - dhl_energy;
    AnnualFootprint {
        baseline_energy,
        dhl_energy,
        kg_co2e_saved: grid.emissions_kg(saved),
        usd_saved: grid.electricity_cost(saved),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::{paper_dataset, BulkTransfer};
    use crate::config::DhlConfig;
    use dhl_net::route::Route;

    #[test]
    fn unit_conversions() {
        let grid = GridModel::us_average();
        // 1 kWh = 3.6 MJ.
        assert!((grid.emissions_kg(Joules::from_megajoules(3.6)) - 0.39).abs() < 1e-12);
        assert!(
            (grid.electricity_cost(Joules::from_megajoules(3.6)).value() - 0.083).abs() < 1e-12
        );
    }

    #[test]
    fn daily_29pb_on_route_c_saves_tonnes_per_year() {
        // Daily re-staging of the 29 PB dataset: route C burns 299.45 MJ a
        // day; the DHL 3.43 MJ.
        let grid = GridModel::us_average();
        let baseline = Route::c().transfer_energy(paper_dataset());
        let dhl = BulkTransfer::evaluate(&DhlConfig::paper_default(), paper_dataset()).energy;
        let year = annualise(&grid, baseline, dhl, 365.0);
        // ≈ 108 GJ saved ⇒ ≈ 11.7 t CO₂e and ≈ $2.5k of electricity.
        assert!(year.kg_co2e_saved > 10_000.0, "{}", year.kg_co2e_saved);
        assert!(year.kg_co2e_saved < 14_000.0, "{}", year.kg_co2e_saved);
        assert!(year.usd_saved.value() > 2_000.0 && year.usd_saved.value() < 3_000.0);
    }

    #[test]
    fn grid_choice_scales_emissions_not_energy() {
        let baseline = Joules::from_megajoules(100.0);
        let dhl = Joules::from_megajoules(1.0);
        let us = annualise(&GridModel::us_average(), baseline, dhl, 1.0);
        // A coal-heavy grid, and a hydro/nuclear-heavy one.
        let coal_heavy = GridModel {
            kg_co2e_per_kwh: 0.82,
            usd_per_kwh: 0.09,
        };
        let low_carbon = GridModel {
            kg_co2e_per_kwh: 0.03,
            usd_per_kwh: 0.05,
        };
        let coal = annualise(&coal_heavy, baseline, dhl, 1.0);
        let clean = annualise(&low_carbon, baseline, dhl, 1.0);
        assert_eq!(us.baseline_energy, coal.baseline_energy);
        assert!(coal.kg_co2e_saved > us.kg_co2e_saved);
        assert!(us.kg_co2e_saved > clean.kg_co2e_saved);
        let ratio = coal.kg_co2e_saved / clean.kg_co2e_saved;
        assert!((ratio - 0.82 / 0.03).abs() < 1e-9);
    }

    #[test]
    fn zero_events_zero_savings() {
        let year = annualise(
            &GridModel::us_average(),
            Joules::from_megajoules(10.0),
            Joules::from_megajoules(1.0),
            0.0,
        );
        assert_eq!(year.kg_co2e_saved, 0.0);
        assert_eq!(year.usd_saved.value(), 0.0);
    }

    #[test]
    fn negative_savings_possible_if_dhl_loses() {
        // Degenerate case: a "baseline" cheaper than the DHL reports a
        // negative saving rather than lying.
        let year = annualise(
            &GridModel::us_average(),
            Joules::from_megajoules(1.0),
            Joules::from_megajoules(10.0),
            1.0,
        );
        assert!(year.kg_co2e_saved < 0.0);
        assert!(year.usd_saved.value() < 0.0);
    }
}
