//! The §V-C experiments: Fig. 6's iso-power sweep and Table VII's
//! iso-power / iso-time comparisons.

use dhl_core::DhlConfig;
use dhl_net::route::{Route, RouteId};
use dhl_units::{Seconds, Watts};

use crate::fabric::{CommFabric, DhlFabric, OpticalFabric};
use crate::workload::DlrmWorkload;

/// One scheme's result at a fixed operating point.
#[derive(Clone, PartialEq, Debug)]
pub struct SchemeResult {
    /// Scheme label ("DHL", "A0", …).
    pub scheme: String,
    /// Average communication power.
    pub power: Watts,
    /// Time per training iteration.
    pub time_per_iteration: Seconds,
    /// Factor relative to the DHL row (slowdown in iso-power, power
    /// increase in iso-time).
    pub factor_vs_dhl: f64,
}

/// Table VII(a): every scheme at a fixed power budget.
#[derive(Clone, PartialEq, Debug)]
pub struct IsoPowerTable {
    /// The shared power budget.
    pub budget: Watts,
    /// DHL first, then routes A0–C.
    pub rows: Vec<SchemeResult>,
}

/// Table VII(b): every scheme at the DHL's iteration time.
#[derive(Clone, PartialEq, Debug)]
pub struct IsoTimeTable {
    /// The shared iteration time (the DHL's).
    pub target_time: Seconds,
    /// DHL first, then routes A0–C.
    pub rows: Vec<SchemeResult>,
}

/// Runs the iso-power experiment (Table VII(a)).
///
/// The budget defaults in the paper to the single default DHL's average
/// power (≈ 1.75 kW); pass [`DhlFabric::track_power`] of your design for
/// the same construction.
#[must_use]
pub fn iso_power(workload: &DlrmWorkload, dhl: &DhlConfig, budget: Watts) -> IsoPowerTable {
    let dhl_fabric = DhlFabric::max_for_power(dhl.clone(), budget);
    let dhl_time = workload.iteration_time(dhl_fabric.delivery_time(workload.dataset));
    let mut rows = vec![SchemeResult {
        scheme: "DHL".to_owned(),
        power: dhl_fabric.power(),
        time_per_iteration: dhl_time,
        factor_vs_dhl: 1.0,
    }];
    for id in RouteId::ALL {
        let fabric = OpticalFabric::max_for_power(Route::from_id(id), budget);
        let t = workload.iteration_time(fabric.delivery_time(workload.dataset));
        rows.push(SchemeResult {
            scheme: id.to_string(),
            power: fabric.power(),
            time_per_iteration: t,
            factor_vs_dhl: t.seconds() / dhl_time.seconds(),
        });
    }
    IsoPowerTable { budget, rows }
}

/// Runs the iso-time experiment (Table VII(b)): finds, for each route, the
/// (continuous) link count whose iteration time matches the DHL's, and
/// reports the power that bundle draws.
///
/// # Panics
///
/// Panics if the DHL's iteration time does not exceed the workload's fixed
/// overhead (no finite link count can match it).
#[must_use]
pub fn iso_time(workload: &DlrmWorkload, dhl: &DhlConfig) -> IsoTimeTable {
    let dhl_fabric = DhlFabric::new(dhl.clone(), 1);
    let target = workload.iteration_time(dhl_fabric.delivery_time(workload.dataset));
    let exposed = target - workload.fixed_overhead;
    assert!(
        exposed.seconds() > 0.0,
        "target iteration time must exceed the fixed overhead"
    );
    let mut rows = vec![SchemeResult {
        scheme: "DHL".to_owned(),
        power: dhl_fabric.power(),
        time_per_iteration: target,
        factor_vs_dhl: 1.0,
    }];
    let dhl_power = dhl_fabric.power().value();
    for id in RouteId::ALL {
        let route = Route::from_id(id);
        let single_link_comm = route.transfer_time(workload.dataset);
        // overlap · T₁/n + overhead = target  ⇒  n = overlap · T₁ / exposed
        let links = workload.comm_overlap * single_link_comm.seconds() / exposed.seconds();
        let fabric = OpticalFabric::with_links(route, links);
        rows.push(SchemeResult {
            scheme: id.to_string(),
            power: fabric.power(),
            time_per_iteration: target,
            factor_vs_dhl: fabric.power().value() / dhl_power,
        });
    }
    IsoTimeTable {
        target_time: target,
        rows,
    }
}

/// One curve of Fig. 6: a scheme's iteration time across power budgets.
#[derive(Clone, PartialEq, Debug)]
pub struct Fig6Series {
    /// Curve label.
    pub scheme: String,
    /// `(power, time-per-iteration)` points, increasing in power.
    pub points: Vec<(Watts, Seconds)>,
}

/// Generates Fig. 6: DHL curves are quantised (1, 2, … tracks); network
/// curves are evaluated at each budget in `power_grid` with a continuous
/// link count.
#[must_use]
pub fn fig6(
    workload: &DlrmWorkload,
    dhl_configs: &[DhlConfig],
    route_ids: &[RouteId],
    power_grid: &[Watts],
    max_tracks: u32,
) -> Vec<Fig6Series> {
    let mut series = Vec::new();
    for cfg in dhl_configs {
        let mut points = Vec::new();
        for k in 1..=max_tracks {
            let fabric = DhlFabric::new(cfg.clone(), k);
            let t = workload.iteration_time(fabric.delivery_time(workload.dataset));
            points.push((fabric.power(), t));
        }
        let label = DhlFabric::new(cfg.clone(), 1).name();
        series.push(Fig6Series {
            scheme: label.trim_end_matches("×1").to_owned(),
            points,
        });
    }
    for id in route_ids {
        let route = Route::from_id(*id);
        let mut points = Vec::new();
        for &budget in power_grid {
            if budget.value() <= 0.0 {
                continue;
            }
            let fabric = OpticalFabric::max_for_power(route.clone(), budget);
            let t = workload.iteration_time(fabric.delivery_time(workload.dataset));
            points.push((budget, t));
        }
        series.push(Fig6Series {
            scheme: format!("Network {id}"),
            points,
        });
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_a() -> IsoPowerTable {
        let workload = DlrmWorkload::paper_dlrm();
        let dhl = DhlConfig::paper_default();
        let budget = DhlFabric::new(dhl.clone(), 1).track_power();
        iso_power(&workload, &dhl, budget)
    }

    #[test]
    fn iso_power_reproduces_table_vii_a_shape() {
        // Paper: DHL 1350 s; slowdowns 5.7/9.3/19.9/69.1/118×.
        // Ours (derived, not fitted): DHL ≈ 1212 s; slowdowns
        // ≈ 6.3/10.3/22.1/76.7/131× — same ordering, within ~15 %.
        let t = table_a();
        assert_eq!(t.rows.len(), 6);
        let dhl_time = t.rows[0].time_per_iteration.seconds();
        assert!(
            (dhl_time - 1350.0).abs() / 1350.0 < 0.15,
            "DHL time {dhl_time} vs paper 1350"
        );
        let paper = [5.7, 9.3, 19.9, 69.1, 118.0];
        for (row, want) in t.rows[1..].iter().zip(paper) {
            let got = row.factor_vs_dhl;
            assert!(
                (got - want).abs() / want < 0.15,
                "{}: slowdown {got} vs paper {want}",
                row.scheme
            );
        }
    }

    #[test]
    fn iso_power_budget_is_about_1750_watts() {
        let t = table_a();
        assert!((t.budget.kilowatts() - 1.75).abs() < 0.01);
        // every optical row saturates the budget
        for row in &t.rows[1..] {
            assert!((row.power.value() - t.budget.value()).abs() < 1e-6);
        }
    }

    #[test]
    fn iso_power_slowdowns_are_ordered() {
        let t = table_a();
        let factors: Vec<f64> = t.rows.iter().map(|r| r.factor_vs_dhl).collect();
        for pair in factors.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn iso_time_reproduces_table_vii_b_shape() {
        // Paper: power increases 6.4/10.5/22.8/79.4/135×.
        // Ours: ≈ 8.1/13.3/28.9/101/173× — same ordering; our DHL point is
        // faster than the paper's (1212 vs 1350 s), which raises every
        // optical power requirement by the same ~1.3× factor.
        let t = iso_time(&DlrmWorkload::paper_dlrm(), &DhlConfig::paper_default());
        assert_eq!(t.rows.len(), 6);
        let paper = [6.4, 10.5, 22.8, 79.4, 135.0];
        for (row, want) in t.rows[1..].iter().zip(paper) {
            let got = row.factor_vs_dhl;
            assert!(
                got / want > 1.0 && got / want < 1.45,
                "{}: power increase {got} vs paper {want}",
                row.scheme
            );
            assert!((row.time_per_iteration.seconds() - t.target_time.seconds()).abs() < 1e-6);
        }
    }

    #[test]
    fn iso_time_factors_are_ordered_and_all_above_one() {
        let t = iso_time(&DlrmWorkload::paper_dlrm(), &DhlConfig::paper_default());
        let factors: Vec<f64> = t.rows[1..].iter().map(|r| r.factor_vs_dhl).collect();
        assert!(factors[0] > 1.0);
        for pair in factors.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn fig6_curves_decrease_with_power() {
        use dhl_units::{Metres, MetresPerSecond};
        let workload = DlrmWorkload::paper_dlrm();
        let configs = [
            DhlConfig::paper_default(),
            DhlConfig::with_ssd_count(MetresPerSecond::new(100.0), Metres::new(500.0), 16),
        ];
        let grid: Vec<Watts> = (1..=40).map(|i| Watts::new(i as f64 * 500.0)).collect();
        let series = fig6(
            &workload,
            &configs,
            &[RouteId::A0, RouteId::B, RouteId::C],
            &grid,
            8,
        );
        assert_eq!(series.len(), 5);
        for s in &series {
            assert!(!s.points.is_empty(), "{}", s.scheme);
            for pair in s.points.windows(2) {
                assert!(pair[0].0.value() < pair[1].0.value(), "{} power", s.scheme);
                assert!(
                    pair[0].1.seconds() >= pair[1].1.seconds() - 1e-6,
                    "{} time should fall with power",
                    s.scheme
                );
            }
        }
    }

    #[test]
    fn fig6_dhl_dominates_networks_at_equal_power() {
        // §V-C: "for a fixed power budget, DHL consistently outperforms the
        // different network scenarios."
        let workload = DlrmWorkload::paper_dlrm();
        let series = fig6(
            &workload,
            &[DhlConfig::paper_default()],
            &[RouteId::A0],
            &[
                Watts::new(1_749.3),
                Watts::new(3_498.6),
                Watts::new(5_247.9),
            ],
            3,
        );
        let dhl = &series[0];
        let a0 = &series[1];
        for ((dp, dt), (np, nt)) in dhl.points.iter().zip(&a0.points) {
            assert!((dp.value() - np.value()).abs() / np.value() < 0.01);
            assert!(dt.seconds() < nt.seconds());
        }
    }

    #[test]
    #[should_panic(expected = "target iteration time must exceed")]
    fn iso_time_rejects_degenerate_workload() {
        let mut w = DlrmWorkload::paper_dlrm();
        w.fixed_overhead = Seconds::new(1e9);
        // overhead alone exceeds any finite target derived from it — the
        // exposed communication time is zero or negative.
        w.comm_overlap = 0.0;
        let _ = iso_time(&w, &DhlConfig::paper_default());
    }
}
