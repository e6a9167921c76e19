//! Table and figure regeneration for every result in the paper's
//! evaluation section.
//!
//! Each `render_*` function recomputes one table or figure from the models
//! and returns it as formatted text with the paper's reference values
//! alongside, so `cargo run -p dhl-bench --bin report` regenerates the whole
//! evaluation and `report <name>` prints one table or figure. The
//! renderers' texts are pinned byte for byte by `tests/output_golden.rs`;
//! their timing is perfbench's `paper_ms`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use dhl_core::{crossover, paper_dataset, paper_minimal_dhl, paper_table_vi, CostModel, DhlConfig};
use dhl_mlsim::{fig6, iso_power, iso_time, DesDhlFabric, DhlFabric, DlrmWorkload};
use dhl_net::route::{Route, RouteId};
use dhl_physics::{BrakingSystem, TimeModel};
use dhl_sim::{DhlSystem, SimConfig};
use dhl_units::{Bytes, Metres, MetresPerSecond, Watts};

use dhl_mlsim::CommFabric as _;

/// Renders Fig. 2 (right): the energy to move 29 PB over routes A0–C.
#[must_use]
pub fn render_fig2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 2 (right): energy to move 29 PB over 400 Gb/s routes"
    );
    let _ = writeln!(
        out,
        "{:<6} {:>10} {:>14} {:>14}",
        "route", "power W", "energy MJ", "paper MJ"
    );
    let paper = [13.92, 22.97, 50.05, 174.75, 299.45];
    for (route, want) in Route::all().into_iter().zip(paper) {
        let e = route.transfer_energy(paper_dataset());
        let _ = writeln!(
            out,
            "{:<6} {:>10.2} {:>14.2} {:>14.2}",
            route.name(),
            route.power().value(),
            e.megajoules(),
            want
        );
    }
    out
}

/// Renders Table VI: the design-space exploration (left) and the 29 PB
/// comparison (right).
#[must_use]
pub fn render_table6() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VI: DHL design space exploration (29 PB vs 400 Gb/s optical)"
    );
    let _ = writeln!(
        out,
        "{:>5} {:>5} {:>5} | {:>8} {:>8} {:>6} {:>7} {:>8} | {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "m/s",
        "m",
        "TB",
        "kJ",
        "GB/J",
        "s",
        "TB/s",
        "kW",
        "speedup",
        "vsA0",
        "vsA1",
        "vsA2",
        "vsB",
        "vsC"
    );
    for p in paper_table_vi() {
        let l = &p.launch;
        let c = &p.comparison;
        let _ = writeln!(
            out,
            "{:>5.0} {:>5.0} {:>5.0} | {:>8.1} {:>8.1} {:>6.2} {:>7.1} {:>8.1} | {:>8.1}x {:>6.1}x {:>6.1}x {:>6.1}x {:>6.1}x {:>6.1}x",
            p.config.max_speed.value(),
            p.config.track_length.value(),
            p.config.cart_capacity.terabytes(),
            l.energy.kilojoules(),
            l.efficiency.value(),
            l.trip_time.seconds(),
            l.bandwidth.terabytes_per_second(),
            l.peak_power.kilowatts(),
            c.time_speedup,
            c.reduction_vs(RouteId::A0),
            c.reduction_vs(RouteId::A1),
            c.reduction_vs(RouteId::A2),
            c.reduction_vs(RouteId::B),
            c.reduction_vs(RouteId::C),
        );
    }
    out
}

/// Renders Table VII (a) iso-power and (b) iso-time comparisons.
#[must_use]
pub fn render_table7() -> String {
    let workload = DlrmWorkload::paper_dlrm();
    let dhl = DhlConfig::paper_default();
    let budget = DhlFabric::new(dhl.clone(), 1).track_power();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VII(a): time per DLRM iteration at fixed {:.2} kW",
        budget.kilowatts()
    );
    let paper_a = [1.0, 5.7, 9.3, 19.9, 69.1, 118.0];
    let a = iso_power(&workload, &dhl, budget);
    let _ = writeln!(
        out,
        "{:<6} {:>10} {:>12} {:>12} {:>12}",
        "scheme", "kW", "s/iter", "slowdown", "paper"
    );
    for (row, want) in a.rows.iter().zip(paper_a) {
        let _ = writeln!(
            out,
            "{:<6} {:>10.2} {:>12.0} {:>11.1}x {:>11.1}x",
            row.scheme,
            row.power.kilowatts(),
            row.time_per_iteration.seconds(),
            row.factor_vs_dhl,
            want
        );
    }

    let b = iso_time(&workload, &dhl);
    let paper_b = [1.0, 6.4, 10.5, 22.8, 79.4, 135.0];
    let _ = writeln!(
        out,
        "\nTable VII(b): communication power at fixed {:.0} s/iter",
        b.target_time.seconds()
    );
    let _ = writeln!(
        out,
        "{:<6} {:>10} {:>12} {:>12} {:>12}",
        "scheme", "kW", "s/iter", "power x", "paper"
    );
    for (row, want) in b.rows.iter().zip(paper_b) {
        let _ = writeln!(
            out,
            "{:<6} {:>10.2} {:>12.0} {:>11.1}x {:>11.1}x",
            row.scheme,
            row.power.kilowatts(),
            row.time_per_iteration.seconds(),
            row.factor_vs_dhl,
            want
        );
    }
    out
}

/// Renders Table VIII: the commodity cost model.
#[must_use]
pub fn render_table8() -> String {
    let m = CostModel::paper();
    let mut out = String::new();
    let _ = writeln!(out, "Table VIII(a): rail cost by distance");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "m", "aluminium", "pvc rail", "pvc tube", "total"
    );
    for d in [100.0, 500.0, 1000.0] {
        let c = m.rail_cost(Metres::new(d));
        let _ = writeln!(
            out,
            "{:>8.0} {:>12} {:>12} {:>12} {:>12}",
            d,
            c.aluminium.display_dollars(),
            c.pvc_rail.display_dollars(),
            c.pvc_tube.display_dollars(),
            c.total().display_dollars()
        );
    }
    let _ = writeln!(out, "\nTable VIII(b): accelerator cost by top speed");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12}",
        "m/s", "copper", "vfd", "total"
    );
    for v in [100.0, 200.0, 300.0] {
        let c = m.lim_cost(MetresPerSecond::new(v));
        let _ = writeln!(
            out,
            "{:>8.0} {:>12} {:>12} {:>12}",
            v,
            c.copper.display_dollars(),
            c.vfd.display_dollars(),
            c.total().display_dollars()
        );
    }
    let _ = writeln!(out, "\nTable VIII(c): overall total cost");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12}",
        "m \\ m/s", "100", "200", "300"
    );
    for d in [100.0, 500.0, 1000.0] {
        let mut row = format!("{d:>8.0}");
        for v in [100.0, 200.0, 300.0] {
            let _ = write!(
                row,
                " {:>12}",
                m.total_cost(Metres::new(d), MetresPerSecond::new(v))
                    .display_dollars()
            );
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Renders Fig. 6: iteration time vs communication power for DHL designs
/// and network baselines.
#[must_use]
pub fn render_fig6() -> String {
    let workload = DlrmWorkload::paper_dlrm();
    let configs = [
        DhlConfig::with_ssd_count(MetresPerSecond::new(100.0), Metres::new(500.0), 16),
        DhlConfig::paper_default(),
        DhlConfig::with_ssd_count(MetresPerSecond::new(300.0), Metres::new(500.0), 64),
    ];
    let grid: Vec<Watts> = (1..=32)
        .map(|i| Watts::new(f64::from(i) * 1_000.0))
        .collect();
    let series = fig6(
        &workload,
        &configs,
        &[RouteId::A0, RouteId::B, RouteId::C],
        &grid,
        8,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 6: time per iteration (s) vs communication power (kW), log-scale data"
    );
    for s in &series {
        let _ = writeln!(out, "  {}:", s.scheme);
        for (p, t) in &s.points {
            let _ = writeln!(
                out,
                "    {:>8.2} kW  {:>12.1} s",
                p.kilowatts(),
                t.seconds()
            );
        }
    }
    out
}

/// Renders the §V-E crossover analysis.
#[must_use]
pub fn render_crossover() -> String {
    let c = crossover(&paper_minimal_dhl());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Minimum specifications for DHL to outperform optical (§V-E)"
    );
    let _ = writeln!(out, "  minimal DHL (10 m, 10 m/s, 360 GB cart):");
    let _ = writeln!(
        out,
        "    one-way trip time  {:>8.3} s   (paper: 7.2 s)",
        c.dhl_time.seconds()
    );
    let _ = writeln!(
        out,
        "    launch energy      {:>8.2} J   (paper: 'minuscule')",
        c.dhl_energy.value()
    );
    let _ = writeln!(
        out,
        "    breakeven dataset  {:>8.1} GB  (paper: 360 GB)",
        c.breakeven_dataset.gigabytes()
    );
    let _ = writeln!(
        out,
        "    optical A0 energy  {:>8.1} J   (paper: 144 J; 24 W for the full trip gives {:.1} J)",
        c.optical_energy.value(),
        c.optical_energy.value()
    );
    out
}

/// Renders the DES ablations: analytical vs simulated bulk transfer,
/// time-model, braking, fleet/dock pipelining, and dual-track variants.
#[must_use]
pub fn render_des_ablation() -> String {
    let dataset = Bytes::from_petabytes(29.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "DES ablations: 29 PB bulk transfer (analytical model vs simulator)"
    );
    let _ = writeln!(
        out,
        "{:<42} {:>12} {:>12} {:>10}",
        "variant", "time s", "energy MJ", "avg kW"
    );

    let analytical = dhl_core::BulkTransfer::evaluate(&DhlConfig::paper_default(), dataset);
    let _ = writeln!(
        out,
        "{:<42} {:>12.1} {:>12.3} {:>10.2}",
        "analytical (serial round trips)",
        analytical.time.seconds(),
        analytical.energy.megajoules(),
        analytical.energy.value() / analytical.time.seconds() / 1000.0
    );

    let variants: Vec<(String, SimConfig)> = vec![
        (
            "DES serial (1 cart, 1 dock)".into(),
            SimConfig::paper_serial(),
        ),
        (
            "DES pipelined (8 carts, 4 docks)".into(),
            SimConfig::paper_default(),
        ),
        ("DES pipelined + dual track".into(), {
            let mut c = SimConfig::paper_default();
            c.dual_track = true;
            c
        }),
        ("DES pipelined + eddy-current braking".into(), {
            let mut c = SimConfig::paper_default();
            c.dual_track = true;
            c.braking = BrakingSystem::EddyCurrent;
            c
        }),
        ("DES pipelined + regenerative braking".into(), {
            let mut c = SimConfig::paper_default();
            c.braking = BrakingSystem::regenerative(0.5).expect("0.5 in range");
            c
        }),
        ("DES full-trapezoid time model".into(), {
            let mut c = SimConfig::paper_default();
            c.time_model = TimeModel::FullTrapezoid;
            c
        }),
        ("DES 16 carts, 8 docks".into(), {
            let mut c = SimConfig::paper_default();
            c.num_carts = 16;
            c.endpoints[0].docks = 16;
            c.endpoints[1].docks = 8;
            c
        }),
    ];
    for (name, cfg) in variants {
        let report = DhlSystem::new(cfg)
            .expect("valid variant")
            .run_bulk_transfer(dataset)
            .expect("converges");
        let _ = writeln!(
            out,
            "{:<42} {:>12.1} {:>12.3} {:>10.2}",
            name,
            report.completion_time.seconds(),
            report.total_energy.megajoules(),
            report.average_power.kilowatts()
        );
    }

    let des_fabric = DesDhlFabric::paper_default();
    let ideal = DhlFabric::paper_default();
    let _ = writeln!(
        out,
        "\nmlsim delivery-time check: idealised link {:.0} s vs DES {:.0} s",
        ideal.delivery_time(dataset).seconds(),
        des_fabric.delivery_time(dataset).seconds()
    );
    out
}

fn sensitivity_docking() -> String {
    use dhl_core::docking_time_sweep;
    use dhl_units::Seconds;

    let base = DhlConfig::paper_default();
    let mut out = String::new();
    let _ = writeln!(out, "Sensitivity: dock/undock time (§V-A observation a)");
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>12}",
        "dock s", "trip s", "TB/s", "dock frac"
    );
    for row in docking_time_sweep(&base, &[0.0, 1.0, 2.0, 3.0, 5.0].map(Seconds::new)) {
        let _ = writeln!(
            out,
            "{:>8.1} {:>10.2} {:>10.1} {:>11.1}%",
            row.dock_time.seconds(),
            row.metrics.trip_time.seconds(),
            row.metrics.bandwidth.terabytes_per_second(),
            row.docking_fraction * 100.0
        );
    }
    out
}

fn sensitivity_acceleration() -> String {
    use dhl_core::acceleration_sweep;
    use dhl_units::MetresPerSecondSquared;

    let base = DhlConfig::paper_default();
    let mut out = String::new();
    let _ = writeln!(out, "\nSensitivity: acceleration rate (§V-A note)");
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>10}",
        "m/s^2", "peak kW", "LIM m", "trip s"
    );
    for row in acceleration_sweep(
        &base,
        &[250.0, 500.0, 1000.0, 2000.0].map(MetresPerSecondSquared::new),
    ) {
        let _ = writeln!(
            out,
            "{:>10.0} {:>10.1} {:>10.1} {:>10.2}",
            row.acceleration.value(),
            row.metrics.peak_power.kilowatts(),
            row.lim_length.value(),
            row.metrics.trip_time.seconds()
        );
    }
    out
}

fn sensitivity_density() -> String {
    use dhl_core::density_scaling;

    let base = DhlConfig::paper_default();
    let mut out = String::new();
    let _ = writeln!(out, "\nProjection: NAND density scaling (§II-A)");
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>10} {:>10}",
        "x", "cart TB", "TB/s", "GB/J"
    );
    for row in density_scaling(&base, &[1.0, 2.0, 4.0, 8.0]) {
        let _ = writeln!(
            out,
            "{:>6.0} {:>12.0} {:>10.1} {:>10.1}",
            row.density_factor,
            row.cart_capacity.terabytes(),
            row.metrics.bandwidth.terabytes_per_second(),
            row.metrics.efficiency.value()
        );
    }
    out
}

fn sensitivity_campaigns() -> String {
    use dhl_mlsim::{OpticalFabric, TrainingCampaign};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nTraining campaigns: comm energy, DHL vs route B at 1.75 kW (§II-D.3)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>14} {:>14} {:>8}",
        "models", "iters", "DHL MJ", "optical MJ", "saving"
    );
    let optical = OpticalFabric::max_for_power(dhl_net::route::Route::b(), Watts::new(1_750.0));
    for (models, iters) in [(1u32, 1u32), (5, 10), (20, 100)] {
        let campaign = TrainingCampaign::paper_default(models, iters);
        let d = campaign.evaluate(&DhlFabric::paper_default());
        let o = campaign.evaluate(&optical);
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>14.2} {:>14.2} {:>7.1}x",
            models,
            iters,
            d.comm_energy.megajoules(),
            o.comm_energy.megajoules(),
            o.comm_energy.value() / d.comm_energy.value()
        );
    }
    out
}

/// Renders the sensitivity sweeps (§V-A observations, §II-A scaling) and
/// the §II-D.3 training-campaign amortisation. The four sections run
/// serially: together they take tens of microseconds, less than spawning
/// one worker thread costs.
#[must_use]
pub fn render_sensitivity() -> String {
    [
        sensitivity_docking(),
        sensitivity_acceleration(),
        sensitivity_density(),
        sensitivity_campaigns(),
    ]
    .concat()
}

/// Renders the fleet-sizing / total-cost-of-ownership analysis (beyond the
/// paper: Table VIII plus carts).
#[must_use]
pub fn render_fleet() -> String {
    use dhl_core::{plan_for_bandwidth, CartCostModel, PipelineModel};
    use dhl_units::BytesPerSecond;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet sizing: dollars per sustained TB/s (Table VIII + carts)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "pipeline model", "tracks", "carts", "TB/s", "infra", "carts $", "$ per TB/s"
    );
    for (name, model) in [
        ("serial round trips", PipelineModel::SerialRoundTrips),
        ("pipelined one-way", PipelineModel::PipelinedOneWay),
        ("headway limited", PipelineModel::HeadwayLimited),
    ] {
        let plan = plan_for_bandwidth(
            BytesPerSecond::from_terabytes_per_second(100.0),
            &DhlConfig::paper_default(),
            model,
            &CostModel::paper(),
            &CartCostModel::paper_era(),
        );
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>8} {:>10.1} {:>12} {:>12} {:>12.0}",
            name,
            plan.tracks,
            plan.carts_per_track * plan.tracks,
            plan.sustained_bandwidth.terabytes_per_second(),
            plan.infrastructure_cost.display_dollars(),
            plan.cart_cost.display_dollars(),
            plan.usd_per_terabyte_per_second()
        );
    }
    out
}

/// A table/figure renderer, as listed by [`all_reports`].
pub type ReportFn = fn() -> String;

/// All renderers, keyed by the names the `report` binary accepts.
#[must_use]
pub fn all_reports() -> Vec<(&'static str, ReportFn)> {
    vec![
        ("fig2", render_fig2 as ReportFn),
        ("table6", render_table6),
        ("table7", render_table7),
        ("table8", render_table8),
        ("fig6", render_fig6),
        ("crossover", render_crossover),
        ("ablation", render_des_ablation),
        ("sensitivity", render_sensitivity),
        ("fleet", render_fleet),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_contains_all_routes_and_matching_energies() {
        let s = render_fig2();
        for route in ["A0", "A1", "A2", "B", "C"] {
            assert!(s.contains(route), "{s}");
        }
        assert!(s.contains("13.92"));
        assert!(s.contains("299.45"));
    }

    #[test]
    fn table6_has_13_data_rows() {
        let s = render_table6();
        let data_rows = s.lines().filter(|l| l.contains('|')).count();
        assert_eq!(data_rows, 14); // header + 13
    }

    #[test]
    fn table7_has_both_halves() {
        let s = render_table7();
        assert!(s.contains("Table VII(a)"));
        assert!(s.contains("Table VII(b)"));
        assert!(s.contains("DHL"));
        assert!(s.matches('C').count() >= 2);
    }

    #[test]
    fn table8_matches_paper_cells() {
        let s = render_table8();
        for cell in [
            "$733", "$3,665", "$7,330", "$8,792", "$10,904", "$14,512", "$9,525", "$14,569",
            "$21,842",
        ] {
            assert!(s.contains(cell), "missing {cell} in:\n{s}");
        }
    }

    #[test]
    fn fig6_has_six_series() {
        let s = render_fig6();
        assert_eq!(s.matches("DHL-").count(), 3);
        assert_eq!(s.matches("Network").count(), 3);
    }

    #[test]
    fn crossover_mentions_breakeven() {
        let s = render_crossover();
        assert!(s.contains("breakeven"));
        assert!(s.contains("360 GB"));
    }

    #[test]
    fn ablation_orders_variants_sensibly() {
        let s = render_des_ablation();
        assert!(s.contains("analytical"));
        assert!(s.contains("dual track"));
        // Serial DES time ≈ analytical time appears (1960.8).
        assert!(s.contains("1960.8"), "{s}");
    }

    #[test]
    fn sensitivity_covers_all_four_sweeps() {
        let s = render_sensitivity();
        assert!(s.contains("dock/undock"));
        assert!(s.contains("acceleration rate"));
        assert!(s.contains("NAND density"));
        assert!(s.contains("Training campaigns"));
    }

    #[test]
    fn fleet_lists_three_pipeline_models() {
        let s = render_fleet();
        assert!(s.contains("serial round trips"));
        assert!(s.contains("pipelined one-way"));
        assert!(s.contains("headway limited"));
        assert!(s.contains("$ per TB/s"));
    }

    #[test]
    fn all_reports_render_nonempty() {
        for (name, f) in all_reports() {
            let s = f();
            assert!(s.len() > 100, "{name} too short");
        }
    }
}
