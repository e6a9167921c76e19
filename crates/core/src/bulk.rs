//! Bulk-transfer comparison vs optical networking (Table VI, right half).

use dhl_net::route::{Route, RouteId};
use dhl_units::{Bytes, Joules, Seconds};

use crate::config::DhlConfig;
use crate::launch::LaunchMetrics;

/// The paper's 29 PB reference dataset (Meta's DLRM training data).
#[must_use]
pub fn paper_dataset() -> Bytes {
    Bytes::from_petabytes(29.0)
}

/// Closed-form model of moving a whole dataset through a DHL (§V-B).
///
/// One-way deliveries are `ceil(dataset / capacity)`; the endpoint's limited
/// docking capacity forces every cart back to the library, **doubling** the
/// movement count (the paper's conservative accounting — see
/// `dhl-sim` for what pipelining and dual tracks recover).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct BulkTransfer {
    /// One-way cart deliveries required.
    pub deliveries: u64,
    /// Total movements including returns (2 × deliveries).
    pub movements: u64,
    /// Total transfer time.
    pub time: Seconds,
    /// Total electrical energy.
    pub energy: Joules,
}

impl BulkTransfer {
    /// Evaluates the model for `dataset` under `cfg`.
    #[must_use]
    pub fn evaluate(cfg: &DhlConfig, dataset: Bytes) -> Self {
        let launch = LaunchMetrics::evaluate(cfg);
        let deliveries = if dataset.is_zero() {
            0
        } else {
            dataset.div_ceil(cfg.cart_capacity)
        };
        let movements = 2 * deliveries;
        Self {
            deliveries,
            movements,
            time: launch.trip_time * movements as f64,
            energy: launch.energy * movements as f64,
        }
    }
}

/// One comparison row: DHL vs every optical route for a fixed dataset
/// (Table VI's right half).
#[derive(Clone, PartialEq, Debug)]
pub struct BulkComparison {
    /// The DHL transfer being compared.
    pub dhl: BulkTransfer,
    /// Baseline single-link (route-independent) transfer time.
    pub network_time: Seconds,
    /// Time speedup of DHL over one 400 Gb/s link.
    pub time_speedup: f64,
    /// Energy reduction factor per route, in [`RouteId::ALL`] order.
    pub energy_reduction: [(RouteId, f64); 5],
}

impl BulkComparison {
    /// Compares `cfg` moving `dataset` against all five routes.
    #[must_use]
    pub fn evaluate(cfg: &DhlConfig, dataset: Bytes) -> Self {
        let dhl = BulkTransfer::evaluate(cfg, dataset);
        let network_time = Route::a0().transfer_time(dataset);
        let time_speedup = network_time.seconds() / dhl.time.seconds();
        let energy_reduction = RouteId::ALL.map(|id| {
            let route_energy = Route::from_id(id).transfer_energy(dataset);
            (id, route_energy.value() / dhl.energy.value())
        });
        Self {
            dhl,
            network_time,
            time_speedup,
            energy_reduction,
        }
    }

    /// Energy-reduction factor against one route.
    #[must_use]
    pub fn reduction_vs(&self, id: RouteId) -> f64 {
        self.energy_reduction
            .iter()
            .find(|(r, _)| *r == id)
            .map(|(_, x)| *x)
            .expect("all routes present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_units::{Metres, MetresPerSecond};

    fn cmp(speed: f64, length: f64, ssds: u32) -> BulkComparison {
        BulkComparison::evaluate(
            &DhlConfig::with_ssd_count(MetresPerSecond::new(speed), Metres::new(length), ssds),
            paper_dataset(),
        )
    }

    #[test]
    fn trip_counts_match_section_v_b() {
        // "DHL needs 227, 114 or 57 trips ... doubled."
        assert_eq!(cmp(200.0, 500.0, 16).dhl.deliveries, 227);
        assert_eq!(cmp(200.0, 500.0, 32).dhl.deliveries, 114);
        assert_eq!(cmp(200.0, 500.0, 64).dhl.deliveries, 57);
        assert_eq!(cmp(200.0, 500.0, 32).dhl.movements, 228);
    }

    /// Table VI right half: every row's time speedup and A0/C energy
    /// reductions, within 1.5 % of the paper's printed values (the paper's
    /// own spreadsheet rounds intermediates; see EXPERIMENTS.md).
    #[test]
    fn table_vi_right_all_rows() {
        let rows: [(f64, f64, u32, f64, f64, f64); 13] = [
            // speed, len, ssds, speedup, vs A0, vs C
            (100.0, 500.0, 32, 229.6, 16.3, 350.9),
            (200.0, 500.0, 32, 295.1, 4.1, 87.7),
            (300.0, 500.0, 32, 324.6, 1.8, 39.0),
            (200.0, 100.0, 32, 384.5, 4.1, 87.7),
            (200.0, 500.0, 32, 295.1, 4.1, 87.7),
            (200.0, 1000.0, 32, 228.6, 4.1, 87.7),
            (200.0, 500.0, 16, 147.5, 3.6, 76.8),
            (200.0, 500.0, 32, 295.1, 4.1, 87.7),
            (200.0, 500.0, 64, 587.5, 4.4, 94.0),
            (100.0, 500.0, 16, 114.8, 14.3, 307.3),
            (100.0, 500.0, 64, 457.3, 17.5, 376.1),
            (300.0, 500.0, 16, 162.3, 1.6, 34.1),
            (300.0, 500.0, 64, 646.4, 1.9, 41.8),
        ];
        for (v, l, n, speedup, vs_a0, vs_c) in rows {
            let c = cmp(v, l, n);
            let rel = |got: f64, want: f64| (got - want).abs() / want;
            assert!(
                rel(c.time_speedup, speedup) < 0.015,
                "{v}/{l}/{n}: speedup {} vs {speedup}",
                c.time_speedup
            );
            assert!(
                rel(c.reduction_vs(RouteId::A0), vs_a0) < 0.03,
                "{v}/{l}/{n}: vs A0 {} vs {vs_a0}",
                c.reduction_vs(RouteId::A0)
            );
            assert!(
                rel(c.reduction_vs(RouteId::C), vs_c) < 0.03,
                "{v}/{l}/{n}: vs C {} vs {vs_c}",
                c.reduction_vs(RouteId::C)
            );
        }
    }

    #[test]
    fn headline_ranges() {
        // Abstract: energy reductions 1.6×–376.1×, speedups 114.8×–646.4×.
        let mut min_red = f64::INFINITY;
        let mut max_red: f64 = 0.0;
        let mut min_speed = f64::INFINITY;
        let mut max_speed: f64 = 0.0;
        for (v, n) in [
            (100.0, 16),
            (100.0, 32),
            (100.0, 64),
            (200.0, 16),
            (200.0, 32),
            (200.0, 64),
            (300.0, 16),
            (300.0, 32),
            (300.0, 64),
        ] {
            let c = cmp(v, 500.0, n);
            for (_, r) in c.energy_reduction {
                min_red = min_red.min(r);
                max_red = max_red.max(r);
            }
            min_speed = min_speed.min(c.time_speedup);
            max_speed = max_speed.max(c.time_speedup);
        }
        assert!((min_red - 1.6).abs() < 0.05, "min reduction {min_red}");
        assert!(
            (max_red - 376.1).abs() / 376.1 < 0.01,
            "max reduction {max_red}"
        );
        assert!(
            (min_speed - 114.8).abs() / 114.8 < 0.015,
            "min speedup {min_speed}"
        );
        assert!(
            (max_speed - 646.4).abs() / 646.4 < 0.015,
            "max speedup {max_speed}"
        );
    }

    #[test]
    fn dhl_beats_even_transceiver_only_baseline_everywhere() {
        // §V-B: "Across all configurations, DHL outperforms ... Option A0."
        for v in [100.0, 200.0, 300.0] {
            for n in [16, 32, 64] {
                let c = cmp(v, 500.0, n);
                assert!(
                    c.reduction_vs(RouteId::A0) > 1.0,
                    "{v} m/s / {n} SSDs: {}",
                    c.reduction_vs(RouteId::A0)
                );
            }
        }
    }

    #[test]
    fn reductions_are_monotone_in_route_cost() {
        let c = cmp(200.0, 500.0, 32);
        let vals: Vec<f64> = c.energy_reduction.iter().map(|(_, x)| *x).collect();
        for pair in vals.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn zero_dataset_is_free() {
        let t = BulkTransfer::evaluate(&DhlConfig::paper_default(), Bytes::ZERO);
        assert_eq!(t.deliveries, 0);
        assert_eq!(t.time.seconds(), 0.0);
        assert_eq!(t.energy, Joules::ZERO);
    }
}
