//! Table and figure regeneration for every result in the paper's
//! evaluation section.
//!
//! Each `render_*` function recomputes one table or figure from the models
//! and returns it as formatted text with the paper's reference values
//! alongside, so `cargo run -p dhl-bench --bin report` regenerates the whole
//! evaluation. The same binary is the only benchmark runner:
//! [`run_bench_suite`] times every renderer and the simulator, scheduler
//! and metrics cases under [`harness`], and `report --check` gates them
//! against a committed baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report_file;

use std::fmt::Write as _;

use dhl_core::{crossover, paper_dataset, paper_minimal_dhl, paper_table_vi, CostModel, DhlConfig};
use dhl_mlsim::{fig6, iso_power, iso_time, DesDhlFabric, DhlFabric, DlrmWorkload};
use dhl_net::route::{Route, RouteId};
use dhl_physics::{BrakingSystem, TimeModel};
use dhl_sim::{run_replicas, Checkpoint, DhlSystem, IntegritySpec, ReliabilitySpec, SimConfig};
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

/// Runs the engine event-throughput family (`sim/events_per_sec/…`).
///
/// Five workload shapes:
///
/// - **queue churn** — a classic hold model (constant events in flight,
///   every operation pops the head and schedules a replacement) on
///   [`dhl_sim::engine::EventQueue`], isolating the queue from the rest of
///   the simulator;
/// - **steady state** — a full 2 PB bulk-transfer mission;
/// - **checkpoint heavy** — the same mission interrupted every 60
///   simulated seconds by a checkpoint → JSON → parse → resume round trip;
/// - **campus backlog** — a 16-rack campus mission with 128 carts, whose
///   64 rack docks leave most of the fleet waiting to launch. The same
///   campus also runs with 32 carts, interleaved with the 128-cart runs,
///   and the suite asserts that the larger fleet's per-event cost stays
///   below twice the smaller one's: the cost of choosing the next launch
///   must not grow with the backlog;
/// - **campus racks** — the same gate for 8 vs 64 racks (8 carts, 4 docks
///   and 32 PB per rack): choosing a launch must not grow with racks either.
///
/// The derived events/sec rates are printed to stderr alongside the
/// recorded ns/iter cases.
#[must_use]
fn events_per_sec_cases() -> Vec<report_file::BenchCase> {
    use dhl_sim::engine::EventQueue;
    use dhl_units::Seconds;
    use report_file::BenchCase;

    // Held-in-flight event count for the churn case: far deeper than any
    // simulation gets (the DES holds at most a few dozen pending events),
    // so the heap's O(log n) sift chases cache- and TLB-missing levels and
    // the case bounds the queue's worst-case cost. Fast mode holds a
    // shallower backlog so CI smoke runs spend their time measuring, not
    // seeding.
    let pending: u32 = if harness::fast_mode() {
        1_048_576
    } else {
        12_582_912
    };

    fn lcg_delay(x: &mut u64) -> f64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((*x >> 11) as f64) / (1u64 << 53) as f64 // uniform [0, 1)
    }

    let mut cases = Vec::new();

    let mut q: EventQueue<u32> = EventQueue::new();
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..pending {
        q.schedule(Seconds::new(lcg_delay(&mut seed)), i);
    }
    let churn = harness::bench_function("sim/events_per_sec/queue_churn", || {
        let (_, id) = q.pop().expect("hold model never drains");
        q.schedule(Seconds::new(lcg_delay(&mut seed)), id);
        id
    });
    cases.push(BenchCase {
        result: churn,
        metrics: None,
    });

    let steady_events = DhlSystem::new(SimConfig::paper_default())
        .expect("valid paper config")
        .run_bulk_transfer(Bytes::from_petabytes(2.0))
        .expect("converges")
        .events_processed;
    let steady = harness::bench_function("sim/events_per_sec/steady_state", || {
        DhlSystem::new(SimConfig::paper_default())
            .expect("valid paper config")
            .run_bulk_transfer(Bytes::from_petabytes(2.0))
            .expect("converges")
            .events_processed
    });
    eprintln!(
        "sim/events_per_sec: steady state {} events per mission, {:.2}M ev/s end to end",
        steady_events,
        f64::from(u32::try_from(steady_events).unwrap_or(u32::MAX)) * 1e3 / steady.mean_ns
    );
    cases.push(BenchCase {
        result: steady,
        metrics: None,
    });

    let checkpoint_cfg = SimConfig::paper_default();
    let heavy = harness::bench_function("sim/events_per_sec/checkpoint_heavy", || {
        let mut sys = DhlSystem::new(checkpoint_cfg.clone()).expect("valid paper config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(2.0))
            .expect("mission accepted");
        let mut horizon = 60.0;
        loop {
            let drained = sys.run_until(Seconds::new(horizon)).expect("runs");
            if drained {
                break;
            }
            let json = sys.checkpoint().to_json();
            let restored = Checkpoint::from_json(&json).expect("own output parses");
            sys = DhlSystem::resume(checkpoint_cfg.clone(), &restored)
                .expect("same configuration fingerprint");
            horizon += 60.0;
        }
        sys.finish().events_processed
    });
    eprintln!(
        "sim/events_per_sec: checkpoint-heavy mission {:.2}M ev/s including serialise/resume every 60 sim-seconds",
        f64::from(u32::try_from(steady_events).unwrap_or(u32::MAX)) * 1e3 / heavy.mean_ns
    );
    cases.push(BenchCase {
        result: heavy,
        metrics: None,
    });
    let fleets = [campus(16, 32, 16.0), campus(16, 128, 16.0)];
    cases.push(campus_scaling_case(
        "campus_backlog",
        &fleets,
        CAMPUS_BACKLOG_MAX_RATIO,
    ));
    let racks = [campus(8, 64, 32.0), campus(64, 512, 32.0)];
    cases.push(campus_scaling_case(
        "campus_racks",
        &racks,
        CAMPUS_RACKS_MAX_RATIO,
    ));
    cases
}

/// Per-unit cost of each of two runs, the minimum over interleaved rounds
/// (both sides see the same machine state; the minimum sheds noise).
/// `timed(i)` runs side `i` and returns its ns per event or arrival.
fn interleaved_min(mut timed: impl FnMut(usize) -> f64) -> [f64; 2] {
    let rounds = if harness::fast_mode() { 7 } else { 21 };
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for (i, best) in best.iter_mut().enumerate() {
            *best = best.min(timed(i));
        }
    }
    best
}

/// How many times the cost of `record(0, i)` the cost of `record(1, i)`
/// is, each side's best batch over [`interleaved_min`] rounds.
fn record_pair_ratio(mut record: impl FnMut(usize, usize)) -> f64 {
    const BATCH: usize = 16_384;
    let [handle, reference] = interleaved_min(|side| {
        let start = std::time::Instant::now();
        for i in 0..BATCH {
            record(side, std::hint::black_box(i));
        }
        start.elapsed().as_secs_f64()
    });
    reference / handle
}

/// Bound on the 128-cart campus's per-event cost as a multiple of the
/// 32-cart campus's (see [`events_per_sec_cases`]). Scanning the whole
/// backlog at every event put the ratio above 3; indexing it by launch
/// group brought it near 1.15.
const CAMPUS_BACKLOG_MAX_RATIO: f64 = 2.0;

/// The same bound for 64 racks against 8. Scanning every launch group's
/// head put the ratio near 3; a per-direction min-index brought it to 1.3.
const CAMPUS_RACKS_MAX_RATIO: f64 = 2.0;

/// A campus and the data owed to each of its racks.
type Campus = (SimConfig, Vec<(usize, Bytes)>);

/// A library and `racks` racks of 4 docks at 300 m spacing, with `carts`
/// carts and `petabytes` owed to each rack.
fn campus(racks: usize, carts: u32, petabytes: f64) -> Campus {
    use dhl_sim::{EndpointKind, EndpointSpec};
    let mut cfg = SimConfig::paper_default();
    cfg.num_carts = carts;
    cfg.endpoints = vec![EndpointSpec {
        position: Metres::ZERO,
        docks: carts,
        kind: EndpointKind::Library,
    }];
    for rack in 1..=racks {
        cfg.endpoints.push(EndpointSpec {
            position: Metres::new(300.0 * rack as f64),
            docks: 4,
            kind: EndpointKind::Rack,
        });
    }
    let demands = (1..=racks)
        .map(|rack| (rack, Bytes::from_petabytes(petabytes)))
        .collect();
    (cfg, demands)
}

/// The `sim/events_per_sec/{name}` case and its scaling gate: the larger
/// campus's per-event cost, timing the events alone (not `DhlSystem::new`),
/// must stay below `bound` times the smaller one's.
///
/// # Panics
///
/// If `campuses[1]` costs `bound` times `campuses[0]` per event or more.
fn campus_scaling_case(name: &str, campuses: &[Campus; 2], bound: f64) -> report_file::BenchCase {
    use dhl_units::Seconds;
    use std::time::Instant;

    let begun = |(cfg, demands): &Campus| {
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid campus");
        sys.begin_multi_rack(demands).expect("mission accepted");
        sys
    };
    let run = |mut sys: DhlSystem| {
        sys.run_until(Seconds::new(f64::INFINITY)).expect("runs");
        sys.finish().events_processed
    };
    let mut events = [0u64; 2];
    let best = interleaved_min(|i| {
        let sys = begun(&campuses[i]);
        let start = Instant::now();
        events[i] = std::hint::black_box(run(sys));
        start.elapsed().as_secs_f64() * 1e9 / events[i] as f64
    });
    let ratio = best[1] / best[0];
    eprintln!(
        "sim/events_per_sec: {name} {:.1} ns/event ({} events) vs {:.1} ns/event ({} events) — {ratio:.2}x",
        best[1], events[1], best[0], events[0],
    );
    assert!(
        ratio < bound,
        "{name}: the larger campus costs {ratio:.2}x the smaller per event (bound {bound}x)"
    );
    let result = harness::bench_function(&format!("sim/events_per_sec/{name}"), || {
        run(begun(&campuses[1]))
    });
    report_file::BenchCase {
        result,
        metrics: None,
    }
}

/// Bound on deadline-aware admission's per-arrival cost with 4096 requests
/// pending, as a multiple of its cost with 64 pending (see
/// [`deadline_backlog_case`]). Walking the pending set at every arrival put
/// the ratio far above this; a certified running backlog holds it near 1.
const DEADLINE_BACKLOG_MAX_RATIO: f64 = 2.0;

/// The `sched/requests_per_sec/deadline_backlog` case and its scaling gate:
/// a saturating open-loop run in which every arrival carries a deadline,
/// with the pending queue capped at 64 and at 4096.
///
/// # Panics
///
/// If the 4096-pending run costs [`DEADLINE_BACKLOG_MAX_RATIO`] times the
/// 64-pending run per arrival or more.
fn deadline_backlog_case() -> report_file::BenchCase {
    use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, TenantId};
    use dhl_sched::placement::Placement;
    use dhl_sched::scheduler::{Priority, Scheduler, TransferRequest};
    use dhl_sim::{ArrivalGenerator, ArrivalSpec};
    use dhl_units::Seconds;
    use std::time::Instant;

    // Long enough that the final drain of the deep queue is a small share
    // of the run's services.
    let arrivals = if harness::fast_mode() {
        65_536
    } else {
        262_144
    };
    let build = |max_pending_global: usize| {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let small = p.store(dhl_storage::datasets::laion_5b()); // 1 cart
        let mut sched = Scheduler::new(SimConfig::paper_default(), p)
            .expect("valid")
            .with_admission(AdmissionSpec {
                max_pending_global,
                max_pending_per_tenant: max_pending_global,
                policy: OverloadPolicy::Reject,
                deadline_aware: true,
                ..AdmissionSpec::default()
            });
        sched.set_metrics_enabled(false);
        // 4x the track's saturation rate keeps the queue at its cap; the
        // deadline clears any backlog the cap allows, so every arrival
        // runs the deadline check and none is refused by it.
        let spec = ArrivalSpec::poisson(4.0 / 17.2, Seconds::new(1e15), 7).with_tenants(64);
        for (i, arrival) in ArrivalGenerator::new(&spec).take(arrivals).enumerate() {
            let priority = [Priority::Background, Priority::Normal, Priority::Urgent][i % 3];
            sched.submit(
                TransferRequest::new(small, 1, priority, arrival.at)
                    .with_tenant(TenantId(arrival.tenant))
                    .with_deadline(arrival.at + Seconds::new(1e7)),
            );
        }
        sched
    };
    let serve = |sched: &mut Scheduler| {
        let report = sched
            .try_run()
            .expect("valid")
            .admission
            .expect("open loop");
        assert_eq!(report.rejected_deadline, 0, "the deadline never binds");
        report.served
    };
    // Interleaved pairs, min of each side, timing the serve loop alone.
    let caps = [64, 4096];
    let best = interleaved_min(|i| {
        let mut sched = build(caps[i]);
        let start = Instant::now();
        std::hint::black_box(serve(&mut sched));
        start.elapsed().as_secs_f64() * 1e9 / arrivals as f64
    });
    let ratio = best[1] / best[0];
    eprintln!(
        "sched/requests_per_sec: deadline admission {:.1} ns/arrival at {} pending vs {:.1} ns/arrival at {} pending — {ratio:.2}x",
        best[1], caps[1], best[0], caps[0],
    );
    assert!(
        ratio < DEADLINE_BACKLOG_MAX_RATIO,
        "deadline admission must not grow with the pending backlog: {} pending cost \
         {ratio:.2}x the {}-pending run per arrival (bound {DEADLINE_BACKLOG_MAX_RATIO}x)",
        caps[1],
        caps[0],
    );
    let result = harness::bench_function("sched/requests_per_sec/deadline_backlog", || {
        serve(&mut build(caps[1]))
    });
    report_file::BenchCase {
        result,
        metrics: None,
    }
}

/// Runs the scheduler serving-throughput family
/// (`sched/requests_per_sec/…`).
///
/// Three kinds of case:
///
/// - **service churn** — a hold model on the indexed
///   [`dhl_sched::service_queue::ServiceQueue`] (constant pending set;
///   every operation serves the best entry and admits a replacement with a
///   later arrival), isolating the service structure from the rest of the
///   scheduler. The identical operation stream also runs on the retired
///   O(n)-scan [`dhl_sched::reference_service::ReferenceServiceQueue`], so
///   the speedup is measured live on every run — and asserted ≥5× — rather
///   than claimed from a historical number;
/// - **end-to-end open-loop runs** — full `Scheduler::try_run` sweeps under
///   admission control: a saturating Poisson mix (1 M arrivals, 100 k in
///   fast mode), a high-tenant-count variant, a retry-heavy variant with
///   in-transit losses, and a shortest-job-first variant over mixed cart
///   counts;
/// - **deadline backlog** — deadline-aware admission at two queue depths
///   (`deadline_backlog_case`), gated on their per-arrival cost ratio.
///
/// The derived requests/sec rates are printed to stderr alongside the
/// recorded ns/iter cases.
///
/// # Panics
///
/// Panics if the indexed structure fails to beat the reference pin by ≥5×
/// on the churn case, or if deadline admission's per-arrival cost grows
/// with the pending backlog — the regressions this family exists to catch.
#[must_use]
#[allow(clippy::too_many_lines)]
fn requests_per_sec_cases() -> Vec<report_file::BenchCase> {
    use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, RetryBudgetSpec, TenantId};
    use dhl_sched::placement::{DatasetId, Placement};
    use dhl_sched::reference_service::{ReferencePending, ReferenceServiceQueue};
    use dhl_sched::scheduler::{
        FaultAwareness, Policy, Priority, RequestId, ScheduleOutcome, Scheduler, TransferRequest,
    };
    use dhl_sched::service_queue::{ServiceEntry, ServiceQueue};
    use dhl_sim::{ArrivalGenerator, ArrivalSpec};
    use dhl_storage::datasets;
    use dhl_units::Seconds;
    use report_file::BenchCase;

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 11
    }

    /// The next admitted entry for the hold model: arrivals advance
    /// monotonically (the open-loop admission invariant), priorities and
    /// cart counts mix across classes.
    fn churn_entry(id: u64, rng: &mut u64, arrival: &mut f64) -> ServiceEntry {
        *arrival += (lcg(rng) % 1000) as f64 * 0.017;
        let priority = match lcg(rng) % 3 {
            0 => Priority::Background,
            1 => Priority::Normal,
            _ => Priority::Urgent,
        };
        let carts = 1 + (lcg(rng) % 36) as usize;
        let service_s = carts as f64 * 17.2;
        ServiceEntry {
            id: RequestId(id),
            req: TransferRequest {
                dataset: DatasetId(lcg(rng) % 3),
                destination: 1,
                priority,
                arrival: Seconds::new(*arrival),
                dwell: Seconds::ZERO,
                tenant: TenantId((lcg(rng) % 64) as u32),
                deadline: None,
            },
            carts,
            service_s,
        }
    }

    let mut cases = Vec::new();

    // Held-pending size for the churn pair: deep enough that the retired
    // scan's O(n) walk per service decision (and the Vec::remove shift
    // behind it) dominates — the regime the per-class rings and B-trees
    // are built for. Fast mode holds a shallower backlog for CI smoke.
    let held: u64 = if harness::fast_mode() {
        131_072
    } else {
        1_048_576
    };

    let mut q = ServiceQueue::new(Policy::PriorityFifo);
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut arrival = 0.0f64;
    let mut next_id = 0u64;
    for _ in 0..held {
        q.push(churn_entry(next_id, &mut rng, &mut arrival));
        next_id += 1;
    }
    let churn = harness::bench_function("sched/requests_per_sec/service_churn", || {
        let served = q.pop_next().expect("hold model never drains");
        q.push(churn_entry(next_id, &mut rng, &mut arrival));
        next_id += 1;
        served.id.0
    });
    cases.push(BenchCase {
        result: churn.clone(),
        metrics: None,
    });

    let mut r = ReferenceServiceQueue::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut arrival = 0.0f64;
    let mut next_id = 0u64;
    for _ in 0..held {
        let e = churn_entry(next_id, &mut rng, &mut arrival);
        r.push(ReferencePending {
            id: e.id,
            req: e.req,
            carts: e.carts,
            service_s: e.service_s,
        });
        next_id += 1;
    }
    let reference =
        harness::bench_function("sched/requests_per_sec/service_churn_reference", || {
            let served = r
                .pop_next(Policy::PriorityFifo)
                .expect("hold model never drains");
            let e = churn_entry(next_id, &mut rng, &mut arrival);
            r.push(ReferencePending {
                id: e.id,
                req: e.req,
                carts: e.carts,
                service_s: e.service_s,
            });
            next_id += 1;
            served.id.0
        });
    cases.push(BenchCase {
        result: reference.clone(),
        metrics: None,
    });
    let ratio = reference.mean_ns / churn.mean_ns;
    eprintln!(
        "sched/requests_per_sec: indexed service queue {:.1} ns/op ({:.2}M req/s) vs reference scan {:.1} ns/op — {:.2}x on service churn ({held} pending)",
        churn.mean_ns,
        1e3 / churn.mean_ns,
        reference.mean_ns,
        ratio
    );
    assert!(
        ratio >= 5.0,
        "indexed service queue must beat the reference pin by ≥5x on churn \
         (measured {ratio:.2}x at {held} pending)"
    );

    // End-to-end open-loop sweeps: saturating Poisson arrival streams
    // pushed through the full admission controller and serving loop.
    let open_loop_run = |policy: Policy,
                         arrivals: usize,
                         tenants: u32,
                         spec: AdmissionSpec,
                         faults: Option<FaultAwareness>,
                         mixed_sizes: bool|
     -> ScheduleOutcome {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let small = p.store(datasets::laion_5b()); // 1 cart
        let big = p.store(datasets::common_crawl()); // 36 carts
        let mut sched = Scheduler::new(SimConfig::paper_default(), p)
            .expect("valid")
            .with_policy(policy)
            .with_admission(spec);
        if let Some(f) = faults {
            sched = sched.with_faults(f);
        }
        // Metrics off for the timed runs: the family measures the serving
        // path, not the observability registry's hash maps.
        sched.set_metrics_enabled(false);
        let arrival_spec =
            ArrivalSpec::poisson(4.0 / 17.2, Seconds::new(1e15), 11).with_tenants(tenants);
        for (i, arrival) in ArrivalGenerator::new(&arrival_spec)
            .take(arrivals)
            .enumerate()
        {
            let dataset = if mixed_sizes && i % 7 == 0 {
                big
            } else {
                small
            };
            let priority = match i % 3 {
                0 => Priority::Background,
                1 => Priority::Normal,
                _ => Priority::Urgent,
            };
            sched.submit(
                TransferRequest::new(dataset, 1, priority, Seconds::new(arrival.at.seconds()))
                    .with_tenant(TenantId(arrival.tenant)),
            );
        }
        sched.try_run().expect("valid requests")
    };
    let report_rate = |case: &harness::CaseResult, arrivals: usize| {
        eprintln!(
            "sched/requests_per_sec: {} admits+serves {:.2}M arrivals/s end to end",
            case.name,
            arrivals as f64 * 1e3 / case.mean_ns
        );
    };

    // Saturating Poisson mix: a deep pending queue (the churn regime) with
    // rejection at the rim.
    let arrivals = if harness::fast_mode() {
        100_000
    } else {
        1_000_000
    };
    let poisson = harness::bench_function("sched/requests_per_sec/poisson_mix", || {
        open_loop_run(
            Policy::PriorityFifo,
            arrivals,
            64,
            AdmissionSpec {
                max_pending_global: 1 << 16,
                max_pending_per_tenant: 1 << 16,
                policy: OverloadPolicy::Reject,
                ..AdmissionSpec::default()
            },
            None,
            false,
        )
        .admission
        .expect("open loop")
        .served
    });
    report_rate(&poisson, arrivals);
    cases.push(BenchCase {
        result: poisson,
        metrics: None,
    });

    // High tenant count: thousands of per-tenant pending counters and
    // small per-tenant caps, the regime the O(n) filter count collapsed in.
    let tenant_arrivals = if harness::fast_mode() {
        32_768
    } else {
        262_144
    };
    let high_tenant = harness::bench_function("sched/requests_per_sec/high_tenant_mix", || {
        open_loop_run(
            Policy::PriorityFifo,
            tenant_arrivals,
            4_096,
            AdmissionSpec {
                max_pending_global: 16_384,
                max_pending_per_tenant: 8,
                policy: OverloadPolicy::ShedLowestPriority,
                ..AdmissionSpec::default()
            },
            None,
            false,
        )
        .admission
        .expect("open loop")
        .served
    });
    report_rate(&high_tenant, tenant_arrivals);
    cases.push(BenchCase {
        result: high_tenant,
        metrics: None,
    });

    // Retry heavy: in-transit losses burn budgeted, backed-off retries on
    // every serviced request.
    let retry_arrivals = if harness::fast_mode() {
        16_384
    } else {
        131_072
    };
    let retry_heavy = harness::bench_function("sched/requests_per_sec/retry_heavy", || {
        open_loop_run(
            Policy::PriorityFifo,
            retry_arrivals,
            64,
            AdmissionSpec {
                max_pending_global: 8_192,
                max_pending_per_tenant: 1_024,
                policy: OverloadPolicy::Reject,
                retry: RetryBudgetSpec {
                    tokens_per_tenant: 1 << 20,
                    max_attempts_per_request: 6,
                    ..RetryBudgetSpec::default()
                },
                ..AdmissionSpec::default()
            },
            Some(FaultAwareness {
                loss_probability: 0.3,
                max_attempts: 6,
                seed: 42,
                downtime: Vec::new(),
            }),
            false,
        )
        .admission
        .expect("open loop")
        .retries
    });
    report_rate(&retry_heavy, retry_arrivals);
    cases.push(BenchCase {
        result: retry_heavy,
        metrics: None,
    });

    // Shortest-job-first over mixed cart counts: exercises the (carts, id)
    // B-tree index instead of the FIFO rings.
    let sjf_arrivals = if harness::fast_mode() {
        32_768
    } else {
        262_144
    };
    let sjf = harness::bench_function("sched/requests_per_sec/sjf_mix", || {
        open_loop_run(
            Policy::ShortestJobFirst,
            sjf_arrivals,
            64,
            AdmissionSpec {
                max_pending_global: 1 << 15,
                max_pending_per_tenant: 1 << 15,
                policy: OverloadPolicy::Reject,
                ..AdmissionSpec::default()
            },
            None,
            true,
        )
        .admission
        .expect("open loop")
        .served
    });
    report_rate(&sjf, sjf_arrivals);
    cases.push(BenchCase {
        result: sjf,
        metrics: None,
    });
    cases.push(deadline_backlog_case());

    cases
}

/// Runs the observability recording-throughput family
/// (`obs/record_throughput/…`).
///
/// Three kinds of case:
///
/// - **hot-path record ops** — tight counter/gauge/histogram recording
///   loops on the dense-slot [`dhl_obs::MetricsRegistry`] through
///   pre-interned handles, cycling a pool of realistic metric names. The
///   identical operation stream also runs on the retired map-walk
///   [`dhl_obs::reference_registry::ReferenceRegistry`], so the speedup is
///   measured live on every run — and asserted ≥5× for counters and
///   histograms — rather than claimed from a historical number;
/// - **disabled no-op** — the same handle ops against a disabled registry,
///   quantifying the floor a metrics-off run pays per call site;
/// - **metrics-on vs metrics-off deltas** — the `sim/events_per_sec`
///   steady-state mission and a `sched/requests_per_sec`-shaped open-loop
///   sweep, each run with the registry enabled and disabled, with the
///   measured observability tax printed to stderr.
///
/// # Panics
///
/// Panics if the handle path fails to beat the reference pin by ≥5× on the
/// counter or histogram record case — the regression this family exists to
/// catch.
#[must_use]
#[allow(clippy::too_many_lines)]
fn record_throughput_cases() -> Vec<report_file::BenchCase> {
    use dhl_obs::reference_registry::ReferenceRegistry;
    use dhl_obs::MetricsRegistry;
    use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, TenantId};
    use dhl_sched::placement::Placement;
    use dhl_sched::scheduler::{Priority, Scheduler, TransferRequest};
    use dhl_sim::{ArrivalGenerator, ArrivalSpec};
    use dhl_storage::datasets;
    use dhl_units::Seconds;
    use report_file::BenchCase;

    // A realistic name pool: the shared `sim.` / `sched.` prefixes are
    // exactly what the retired registry's per-record string comparisons
    // paid for on every hot-path call, so the reference side of each pair
    // walks representative keys, not toy ones.
    const COUNTERS: [&str; 16] = [
        "sim.deliveries",
        "sim.cart_stalls",
        "sim.carts_launched",
        "sim.repressurisations",
        "sim.ssd_failures",
        "sim.redeliveries",
        "sim.shards_scanned",
        "sim.events",
        "sched.requests",
        "sched.deliveries",
        "sched.offered",
        "sched.admitted",
        "sched.shed",
        "sched.retries",
        "sched.deadline_hits",
        "sched.deadline_misses",
    ];
    const GAUGES: [&str; 16] = [
        "sim.completion_s",
        "sim.wall_time_s",
        "sim.sim_seconds_per_wall_second",
        "sim.events_per_wall_second",
        "sched.makespan_s",
        "sched.track_utilisation",
        "sched.track_downtime_s",
        "sched.dock_downtime_s",
        "sched.wall_time_s",
        "sched.goodput_bytes_per_s",
        "net.phase.wake_s",
        "net.phase.transfer_s",
        "net.phase.idle_s",
        "net.phase.wake_j",
        "net.phase.transfer_j",
        "net.phase.idle_j",
    ];
    const HISTOGRAMS: [&str; 16] = [
        "sim.transit_s",
        "sim.queue_depth",
        "sim.dock_recovery_s",
        "sim.verify_s",
        "sim.reconstruction_s",
        "sched.placement_latency_s",
        "sched.delivery_latency_s",
        "sched.retry_backoff_s",
        "sim.a.transit_s",
        "sim.b.transit_s",
        "sim.c.transit_s",
        "sim.d.transit_s",
        "sched.a.latency_s",
        "sched.b.latency_s",
        "sched.c.latency_s",
        "sched.d.latency_s",
    ];

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 11
    }

    /// A positive, finite value spanning several histogram buckets.
    fn lcg_value(x: &mut u64) -> f64 {
        (lcg(x) % 1_000_000) as f64 * 1e-3 + 1e-3
    }

    // Value stream for the gauge/histogram pairs, generated outside the
    // timed loops so each pair measures recording cost, not the RNG.
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let values: Vec<f64> = (0..1024).map(|_| lcg_value(&mut seed)).collect();

    let mut cases = Vec::new();

    // Counter pair: handle add vs reference name-walk inc.
    let mut reg = MetricsRegistry::enabled();
    let counter_ids: Vec<_> = COUNTERS
        .into_iter()
        .map(|name| reg.register_counter(name))
        .collect();
    let mut n = 0u64;
    let counter = harness::bench_function("obs/record_throughput/counter_add", || {
        let i = (n & 15) as usize;
        n += 1;
        reg.add(counter_ids[i], 1);
        i
    });
    cases.push(BenchCase {
        result: counter.clone(),
        metrics: None,
    });

    let mut r = ReferenceRegistry::enabled();
    let mut n = 0u64;
    let counter_ref = harness::bench_function("obs/record_throughput/counter_reference", || {
        let i = (n & 15) as usize;
        n += 1;
        r.inc(COUNTERS[i], 1);
        i
    });
    cases.push(BenchCase {
        result: counter_ref.clone(),
        metrics: None,
    });
    // The gates compare interleaved rounds: a side timed alone can lose its
    // whole window to a busy runner.
    let counter_ratio = record_pair_ratio(|side, i| {
        if side == 0 {
            reg.add(counter_ids[i & 15], 1);
        } else {
            r.inc(COUNTERS[i & 15], 1);
        }
    });
    eprintln!(
        "obs/record_throughput: counter add {:.1} ns/op ({:.0}M rec/s) vs reference {:.1} ns/op — {counter_ratio:.2}x interleaved",
        counter.p50_ns,
        1e3 / counter.p50_ns,
        counter_ref.p50_ns,
    );

    // Gauge pair: handle set vs reference name-walk set.
    let mut reg = MetricsRegistry::enabled();
    let gauge_ids: Vec<_> = GAUGES
        .into_iter()
        .map(|name| reg.register_gauge(name))
        .collect();
    let mut n = 0u64;
    let gauge = harness::bench_function("obs/record_throughput/gauge_set", || {
        let i = (n & 1023) as usize;
        n += 1;
        reg.set(gauge_ids[i & 15], values[i]);
        i
    });
    cases.push(BenchCase {
        result: gauge.clone(),
        metrics: None,
    });

    let mut r = ReferenceRegistry::enabled();
    let mut n = 0u64;
    let gauge_ref = harness::bench_function("obs/record_throughput/gauge_reference", || {
        let i = (n & 1023) as usize;
        n += 1;
        r.set_gauge(GAUGES[i & 15], values[i]);
        i
    });
    cases.push(BenchCase {
        result: gauge_ref.clone(),
        metrics: None,
    });
    eprintln!(
        "obs/record_throughput: gauge set {:.1} ns/op vs reference {:.1} ns/op — {:.2}x",
        gauge.p50_ns,
        gauge_ref.p50_ns,
        gauge_ref.p50_ns / gauge.p50_ns
    );

    // Histogram pair: handle record (to_bits exponent bucketing) vs
    // reference name walk plus float-log bucketing.
    let mut reg = MetricsRegistry::enabled();
    let histogram_ids: Vec<_> = HISTOGRAMS
        .into_iter()
        .map(|name| reg.register_histogram(name))
        .collect();
    let mut n = 0u64;
    let histogram = harness::bench_function("obs/record_throughput/histogram_record", || {
        let i = (n & 1023) as usize;
        n += 1;
        reg.record(histogram_ids[i & 15], values[i]);
        i
    });
    cases.push(BenchCase {
        result: histogram.clone(),
        metrics: None,
    });

    let mut r = ReferenceRegistry::enabled();
    let mut n = 0u64;
    let histogram_ref =
        harness::bench_function("obs/record_throughput/histogram_reference", || {
            let i = (n & 1023) as usize;
            n += 1;
            r.observe(HISTOGRAMS[i & 15], values[i]);
            i
        });
    cases.push(BenchCase {
        result: histogram_ref.clone(),
        metrics: None,
    });
    let histogram_ratio = record_pair_ratio(|side, i| {
        let i = i & 1023;
        if side == 0 {
            reg.record(histogram_ids[i & 15], values[i]);
        } else {
            r.observe(HISTOGRAMS[i & 15], values[i]);
        }
    });
    eprintln!(
        "obs/record_throughput: histogram record {:.1} ns/op ({:.0}M rec/s) vs reference {:.1} ns/op — {histogram_ratio:.2}x interleaved",
        histogram.p50_ns,
        1e3 / histogram.p50_ns,
        histogram_ref.p50_ns,
    );
    assert!(
        counter_ratio >= 5.0,
        "handle-path counter add must beat the reference pin by ≥5x \
         (measured {counter_ratio:.2}x)"
    );
    assert!(
        histogram_ratio >= 5.0,
        "handle-path histogram record must beat the reference pin by ≥5x \
         (measured {histogram_ratio:.2}x)"
    );

    // Disabled floor: the same three handle ops against a metrics-off
    // registry — the cost every instrumented call site pays when
    // observability is switched off.
    let mut reg = MetricsRegistry::disabled();
    let c = reg.register_counter("sim.deliveries");
    let g = reg.register_gauge("sim.completion_s");
    let h = reg.register_histogram("sim.transit_s");
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let disabled = harness::bench_function("obs/record_throughput/disabled_noop", || {
        let v = lcg_value(&mut seed);
        reg.add(c, 1);
        reg.set(g, v);
        reg.record(h, v);
        v
    });
    eprintln!(
        "obs/record_throughput: disabled registry {:.1} ns for a counter+gauge+histogram triple",
        disabled.mean_ns
    );
    cases.push(BenchCase {
        result: disabled,
        metrics: None,
    });

    // Metrics tax on the engine: the `sim/events_per_sec` steady-state
    // mission with the registry enabled vs disabled.
    let sim_mission = |metrics_on: bool| {
        let mut sys = DhlSystem::new(SimConfig::paper_default()).expect("valid paper config");
        sys.set_metrics_enabled(metrics_on);
        sys.run_bulk_transfer(Bytes::from_petabytes(2.0))
            .expect("converges")
            .events_processed
    };
    let sim_on = harness::bench_function("obs/record_throughput/sim_mission_metrics_on", || {
        sim_mission(true)
    });
    let sim_off = harness::bench_function("obs/record_throughput/sim_mission_metrics_off", || {
        sim_mission(false)
    });
    eprintln!(
        "obs/record_throughput: sim/events_per_sec steady-state mission {:.0} ns with metrics vs {:.0} ns without — {:+.2}% observability tax",
        sim_on.mean_ns,
        sim_off.mean_ns,
        (sim_on.mean_ns / sim_off.mean_ns - 1.0) * 100.0
    );
    cases.push(BenchCase {
        result: sim_on,
        metrics: None,
    });
    cases.push(BenchCase {
        result: sim_off,
        metrics: None,
    });

    // Metrics tax on the scheduler: a `sched/requests_per_sec`-shaped
    // open-loop Poisson sweep with the registry enabled vs disabled.
    let sched_arrivals = if harness::fast_mode() {
        32_768
    } else {
        262_144
    };
    let open_loop = |metrics_on: bool| {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let dataset = p.store(datasets::laion_5b());
        let mut sched = Scheduler::new(SimConfig::paper_default(), p)
            .expect("valid")
            .with_admission(AdmissionSpec {
                max_pending_global: 1 << 16,
                max_pending_per_tenant: 1 << 16,
                policy: OverloadPolicy::Reject,
                ..AdmissionSpec::default()
            });
        sched.set_metrics_enabled(metrics_on);
        let arrival_spec =
            ArrivalSpec::poisson(4.0 / 17.2, Seconds::new(1e15), 11).with_tenants(64);
        for (i, arrival) in ArrivalGenerator::new(&arrival_spec)
            .take(sched_arrivals)
            .enumerate()
        {
            let priority = match i % 3 {
                0 => Priority::Background,
                1 => Priority::Normal,
                _ => Priority::Urgent,
            };
            sched.submit(
                TransferRequest::new(dataset, 1, priority, Seconds::new(arrival.at.seconds()))
                    .with_tenant(TenantId(arrival.tenant)),
            );
        }
        sched
            .try_run()
            .expect("valid requests")
            .admission
            .expect("open loop")
            .served
    };
    let sched_on =
        harness::bench_function("obs/record_throughput/sched_open_loop_metrics_on", || {
            open_loop(true)
        });
    let sched_off =
        harness::bench_function("obs/record_throughput/sched_open_loop_metrics_off", || {
            open_loop(false)
        });
    eprintln!(
        "obs/record_throughput: sched/requests_per_sec open-loop sweep ({sched_arrivals} arrivals) {:.0} ns with metrics vs {:.0} ns without — {:+.2}% observability tax",
        sched_on.mean_ns,
        sched_off.mean_ns,
        (sched_on.mean_ns / sched_off.mean_ns - 1.0) * 100.0
    );
    cases.push(BenchCase {
        result: sched_on,
        metrics: None,
    });
    cases.push(BenchCase {
        result: sched_off,
        metrics: None,
    });

    cases
}

/// Runs the full machine-readable benchmark suite: every renderer timed
/// under [`harness::bench_function`], plus simulator- and scheduler-backed
/// cases that attach their [`dhl_obs`] metrics snapshots.
///
/// Honours `DHL_BENCH_FAST` (see [`harness::fast_mode`]) for CI smoke runs.
#[must_use]
pub fn run_bench_suite() -> Vec<report_file::BenchCase> {
    use dhl_sched::placement::Placement;
    use dhl_sched::scheduler::{Priority, Scheduler, TransferRequest};
    use dhl_storage::datasets;
    use dhl_units::Seconds;
    use report_file::BenchCase;

    let mut cases = Vec::new();
    for (name, render) in all_reports() {
        let case_name = format!("render/{name}");
        cases.push(BenchCase {
            result: harness::bench_function(&case_name, render),
            metrics: None,
        });
    }

    // DES-backed case: a 2 PB bulk transfer, with the simulator's own
    // observability snapshot attached.
    let sim_run = || {
        DhlSystem::new(SimConfig::paper_default())
            .expect("valid paper config")
            .run_bulk_transfer(Bytes::from_petabytes(2.0))
            .expect("converges")
    };
    let result = harness::bench_function("sim/bulk_transfer_2pb", || sim_run().movements);
    cases.push(BenchCase {
        result,
        metrics: Some(sim_run().metrics),
    });

    // The same transfer with verify-on-dock enabled (clean corruption
    // model): measures the delivery state machine's scrub overhead.
    let verify_run = || {
        let mut cfg = SimConfig::paper_default();
        cfg.integrity = Some(IntegritySpec::verification_only());
        DhlSystem::new(cfg)
            .expect("valid paper config")
            .run_bulk_transfer(Bytes::from_petabytes(2.0))
            .expect("converges")
    };
    let result = harness::bench_function("sim/verify_on_dock_2pb", || {
        verify_run().integrity.shards_scanned
    });
    cases.push(BenchCase {
        result,
        metrics: Some(verify_run().metrics),
    });

    // Checkpoint/restore case: capture a mid-run checkpoint, serialise it
    // to JSON, parse it back, and resume a fresh simulator from it — the
    // full crash-recovery round trip, measured end to end. The attached
    // metrics come from draining the resumed run, so they equal the
    // uninterrupted run's metrics by the bit-identity guarantee.
    let roundtrip_cfg = {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec::typical());
        cfg
    };
    let mut mid_run = DhlSystem::new(roundtrip_cfg.clone()).expect("valid paper config");
    mid_run
        .begin_bulk_transfer(Bytes::from_petabytes(2.0))
        .expect("mission accepted");
    mid_run
        .run_until(dhl_units::Seconds::new(30.0))
        .expect("runs to the capture point");
    let result = harness::bench_function("sim/checkpoint_roundtrip", || {
        let json = mid_run.checkpoint().to_json();
        let restored = Checkpoint::from_json(&json).expect("own output parses");
        let resumed = DhlSystem::resume(roundtrip_cfg.clone(), &restored)
            .expect("same configuration fingerprint");
        resumed.now().seconds() as u64
    });
    let resumed_metrics = {
        let checkpoint = mid_run.checkpoint();
        let mut sys = DhlSystem::resume(roundtrip_cfg.clone(), &checkpoint)
            .expect("same configuration fingerprint");
        sys.run_until(dhl_units::Seconds::new(f64::INFINITY))
            .expect("drains");
        sys.finish().metrics
    };
    cases.push(BenchCase {
        result,
        metrics: Some(resumed_metrics),
    });

    // Replica-driver case: a seeded Monte-Carlo set, run in replica order.
    let replica_cfg = {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec::typical());
        cfg
    };
    let (replicas, replica_dataset) = (8, Bytes::from_terabytes(512.0));
    let replica_run =
        || run_replicas(&replica_cfg, replica_dataset, replicas, None).expect("replicas converge");
    let result = harness::bench_function("sim/replicas_serial", || replica_run().replica_count());
    cases.push(BenchCase {
        result,
        metrics: Some(replica_run().metrics),
    });

    // Scheduler-backed case: a small multi-tenant mix.
    let sched_run = || {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let a = p.store(datasets::laion_5b());
        let b = p.store(datasets::common_crawl());
        let mut sched = Scheduler::new(SimConfig::paper_default(), p).expect("valid");
        sched.submit(TransferRequest::new(b, 1, Priority::Normal, Seconds::ZERO));
        sched.submit(TransferRequest::new(
            a,
            1,
            Priority::Urgent,
            Seconds::new(5.0),
        ));
        sched.try_run().expect("valid requests")
    };
    let result =
        harness::bench_function("sched/multi_tenant_mix", || sched_run().makespan.seconds());
    cases.push(BenchCase {
        result,
        metrics: Some(sched_run().metrics),
    });

    // Open-loop overload case: 96 Poisson arrivals at 4x the track's
    // saturation rate pushed through admission control (bounded queues,
    // shed-lowest-priority, budgeted retries with backoff).
    use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, TenantId};
    use dhl_sim::{ArrivalGenerator, ArrivalSpec};
    let overload_run = || {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let a = p.store(datasets::laion_5b());
        let b = p.store(datasets::genomics_17pb());
        let ids = [a, b];
        let arrival_spec = ArrivalSpec::poisson(4.0 / 17.2, Seconds::new(1e12), 7).with_tenants(2);
        let mut sched = Scheduler::new(SimConfig::paper_default(), p)
            .expect("valid")
            .with_admission(AdmissionSpec {
                max_pending_global: 16,
                max_pending_per_tenant: 12,
                policy: OverloadPolicy::ShedLowestPriority,
                ..AdmissionSpec::default()
            })
            .with_faults(dhl_sched::scheduler::FaultAwareness {
                loss_probability: 0.05,
                max_attempts: 8,
                seed: 42,
                downtime: Vec::new(),
            });
        for arrival in ArrivalGenerator::new(&arrival_spec).take(96) {
            sched.submit(
                TransferRequest::new(
                    ids[arrival.tenant as usize % 2],
                    1,
                    if arrival.tenant == 0 {
                        Priority::Urgent
                    } else {
                        Priority::Normal
                    },
                    Seconds::new(arrival.at.seconds()),
                )
                .with_tenant(TenantId(arrival.tenant)),
            );
        }
        sched.try_run().expect("valid requests")
    };
    let result = harness::bench_function("sched/overload_sweep", || {
        overload_run()
            .admission
            .expect("open loop")
            .goodput_bytes_per_s
    });
    cases.push(BenchCase {
        result,
        metrics: Some(overload_run().metrics),
    });

    // Engine event-throughput family.
    cases.extend(events_per_sec_cases());

    // Scheduler serving-throughput family.
    cases.extend(requests_per_sec_cases());

    // Observability recording-throughput family.
    cases.extend(record_throughput_cases());
    cases
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
