//! Multi-model training campaigns (§II-D.3).
//!
//! "New models with their own independent architectures are regularly being
//! trained on the same, large datasets … we see potential for ongoing
//! savings repeatedly and over the long term as these same datasets must be
//! used again and again to train a variety of different models."
//!
//! A campaign trains `models` independent models, each for `iterations`
//! gradient steps, on one shared dataset. For every model the dataset must
//! first be collected onto that model's compute nodes (one fabric delivery);
//! subsequent iterations stream it from local storage at the docked PCIe /
//! local-disk rate. The communication fabric therefore pays `models`
//! deliveries, not `models × iterations`.

use dhl_units::{Bytes, BytesPerSecond, Joules, Seconds, Watts};

use crate::fabric::CommFabric;
use crate::workload::DlrmWorkload;

/// A campaign of independent model trainings over one shared dataset.
#[derive(Clone, PartialEq, Debug)]
pub struct TrainingCampaign {
    /// Number of independent models trained on the dataset.
    pub models: u32,
    /// Gradient iterations per model.
    pub iterations_per_model: u32,
    /// The iteration model (dataset + overlap constants).
    pub workload: DlrmWorkload,
    /// Local re-read bandwidth once the data is resident (docked cart PCIe
    /// or node-local NVMe).
    pub local_read_bandwidth: BytesPerSecond,
}

/// Cost of running a campaign over one fabric.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignCost {
    /// Fabric used, by name.
    pub fabric: String,
    /// Wall-clock time for the whole campaign.
    pub total_time: Seconds,
    /// Communication energy (fabric deliveries only).
    pub comm_energy: Joules,
    /// Average communication power over the campaign.
    pub avg_comm_power: Watts,
    /// Time spent on first-iteration dataset collection.
    pub delivery_time: Seconds,
    /// Time spent on the remaining (locally fed) iterations.
    pub local_time: Seconds,
}

impl TrainingCampaign {
    /// The paper-scale campaign: 29 PB DLRM data, local re-reads at the
    /// PCIe-6 ×64 docked rate (≈ 480 GB/s).
    #[must_use]
    pub fn paper_default(models: u32, iterations_per_model: u32) -> Self {
        Self {
            models,
            iterations_per_model,
            workload: DlrmWorkload::paper_dlrm(),
            local_read_bandwidth: BytesPerSecond::from_gigabytes_per_second(480.0),
        }
    }

    /// Iteration time once the dataset is resident locally.
    #[must_use]
    pub fn local_iteration_time(&self) -> Seconds {
        self.workload.iteration_time(
            self.local_read_bandwidth
                .transfer_time(self.workload.dataset),
        )
    }

    /// Evaluates the campaign over a fabric.
    ///
    /// The first iteration of each model overlaps its compute with the
    /// fabric delivery (`DlrmWorkload::iteration_time`); the remaining
    /// `iterations_per_model − 1` run at the local rate.
    #[must_use]
    pub fn evaluate<F: CommFabric>(&self, fabric: &F) -> CampaignCost {
        let dataset: Bytes = self.workload.dataset;
        let delivery = fabric.delivery_time(dataset);
        let first_iter = self.workload.iteration_time(delivery);
        let local_iter = self.local_iteration_time();

        let per_model_local = local_iter * f64::from(self.iterations_per_model.saturating_sub(1));
        let per_model = first_iter + per_model_local;
        let total_time = per_model * f64::from(self.models);

        // The fabric draws power only while delivering.
        let comm_energy = fabric.power() * delivery * f64::from(self.models);
        let avg_comm_power = if total_time.seconds() > 0.0 {
            comm_energy / total_time
        } else {
            Watts::ZERO
        };
        CampaignCost {
            fabric: fabric.name(),
            total_time,
            comm_energy,
            avg_comm_power,
            delivery_time: delivery * f64::from(self.models),
            local_time: per_model_local * f64::from(self.models),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{DhlFabric, OpticalFabric};
    use dhl_net::route::Route;
    use dhl_units::Watts;

    fn dhl() -> DhlFabric {
        DhlFabric::paper_default()
    }

    fn optical() -> OpticalFabric {
        OpticalFabric::max_for_power(Route::b(), Watts::new(1_750.0))
    }

    #[test]
    fn single_model_single_iteration_is_one_delivery() {
        let campaign = TrainingCampaign::paper_default(1, 1);
        let cost = campaign.evaluate(&dhl());
        // One delivery at the DHL's 980 s + overlapped compute.
        assert!((cost.delivery_time.seconds() - 980.4).abs() < 0.1);
        assert_eq!(cost.local_time.seconds(), 0.0);
        assert!((cost.total_time.seconds() - 1212.0).abs() < 2.0);
    }

    #[test]
    fn comm_energy_scales_with_models_not_iterations() {
        let campaign_1 = TrainingCampaign::paper_default(1, 1);
        let campaign_many_iters = TrainingCampaign::paper_default(1, 100);
        let campaign_many_models = TrainingCampaign::paper_default(10, 1);
        let f = dhl();
        let e1 = campaign_1.evaluate(&f).comm_energy.value();
        let e_iters = campaign_many_iters.evaluate(&f).comm_energy.value();
        let e_models = campaign_many_models.evaluate(&f).comm_energy.value();
        assert!(
            (e_iters - e1).abs() < 1e-6,
            "iterations reuse resident data"
        );
        assert!(
            (e_models - 10.0 * e1).abs() < 1e-3,
            "each model re-collects"
        );
    }

    #[test]
    fn dhl_saves_energy_over_optical_for_every_campaign_shape() {
        for (models, iters) in [(1, 1), (5, 10), (20, 100)] {
            let campaign = TrainingCampaign::paper_default(models, iters);
            let saving = campaign.evaluate(&optical()).comm_energy.value()
                / campaign.evaluate(&dhl()).comm_energy.value();
            assert!(saving > 5.0, "{models}x{iters}: saving {saving}");
        }
    }

    #[test]
    fn local_iterations_dominate_long_campaigns() {
        let campaign = TrainingCampaign::paper_default(1, 1000);
        let cost = campaign.evaluate(&dhl());
        assert!(cost.local_time > cost.delivery_time * 10.0);
        // Average comm power falls as iterations amortise the delivery.
        let short = TrainingCampaign::paper_default(1, 1).evaluate(&dhl());
        assert!(cost.avg_comm_power.value() < short.avg_comm_power.value() / 10.0);
    }

    #[test]
    fn local_iteration_time_uses_local_bandwidth() {
        let campaign = TrainingCampaign::paper_default(1, 2);
        // 29 PB at 480 GB/s ≈ 60 417 s of local streaming, plus overheads.
        let t = campaign.local_iteration_time().seconds();
        let raw = 29e15 / 480e9;
        assert!(t > raw * 0.9 && t < raw * 1.1, "{t} vs {raw}");
    }

    #[test]
    fn zero_models_cost_nothing() {
        let campaign = TrainingCampaign::paper_default(0, 10);
        let cost = campaign.evaluate(&dhl());
        assert_eq!(cost.total_time.seconds(), 0.0);
        assert_eq!(cost.comm_energy.value(), 0.0);
        assert_eq!(cost.avg_comm_power, Watts::ZERO);
    }
}
