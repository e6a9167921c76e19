//! Design exploration: sweep the DHL parameter space beyond the paper's 13
//! rows, test the §V-A sensitivity knobs, and project NAND density scaling.
//!
//! ```text
//! cargo run --example design_explorer
//! ```

use datacentre_hyperloop::core::{
    acceleration_sweep, density_scaling, docking_time_sweep, sweep, CostModel, DhlConfig,
};
use datacentre_hyperloop::units::{
    Bytes, Metres, MetresPerSecond, MetresPerSecondSquared, Seconds,
};

fn main() {
    // 1. A 135-point sweep (vs the paper's 13).
    let speeds: Vec<MetresPerSecond> = (2..=10)
        .map(|v| MetresPerSecond::new(f64::from(v) * 30.0))
        .collect();
    let lengths: Vec<Metres> = [100.0, 250.0, 500.0, 750.0, 1000.0].map(Metres::new).into();
    let counts = [16, 32, 64];
    let points = sweep(&speeds, &lengths, &counts, Bytes::from_petabytes(29.0));
    let best_eff = points
        .iter()
        .max_by(|a, b| {
            a.launch
                .efficiency
                .value()
                .total_cmp(&b.launch.efficiency.value())
        })
        .expect("non-empty sweep");
    let best_bw = points
        .iter()
        .max_by(|a, b| {
            a.launch
                .bandwidth
                .value()
                .total_cmp(&b.launch.bandwidth.value())
        })
        .expect("non-empty sweep");
    println!("explored {} design points:", points.len());
    println!(
        "  best efficiency: {:.1} GB/J at {:.0} m/s / {:.0} TB",
        best_eff.launch.efficiency.value(),
        best_eff.config.max_speed.value(),
        best_eff.config.cart_capacity.terabytes()
    );
    println!(
        "  best bandwidth:  {:.1} TB/s at {:.0} m/s / {:.0} m / {:.0} TB",
        best_bw.launch.bandwidth.terabytes_per_second(),
        best_bw.config.max_speed.value(),
        best_bw.config.track_length.value(),
        best_bw.config.cart_capacity.terabytes()
    );

    // 2. Docking-time sensitivity (§V-A: docking dominates the trip).
    println!("\ndock/undock time → embodied bandwidth:");
    for row in docking_time_sweep(
        &DhlConfig::paper_default(),
        &[0.5, 1.0, 2.0, 3.0, 5.0].map(Seconds::new),
    ) {
        println!(
            "  {:>4.1} s  → {:>6.1} TB/s ({:>4.1}% of trip spent docking)",
            row.dock_time.seconds(),
            row.metrics.bandwidth.terabytes_per_second(),
            row.docking_fraction * 100.0
        );
    }

    // 3. Peak-power vs acceleration (§V-A note).
    println!("\nacceleration → peak power (LIM length):");
    for row in acceleration_sweep(
        &DhlConfig::paper_default(),
        &[250.0, 500.0, 1000.0, 2000.0].map(MetresPerSecondSquared::new),
    ) {
        println!(
            "  {:>6.0} m/s² → {:>6.1} kW ({:>5.1} m LIM, {:>5.2} s trip)",
            row.acceleration.value(),
            row.metrics.peak_power.kilowatts(),
            row.lim_length.value(),
            row.metrics.trip_time.seconds()
        );
    }

    // 4. NAND density futures (§II-A): upgrade the SSDs, keep the track.
    println!("\nSSD density → cart capacity, bandwidth, efficiency:");
    for row in density_scaling(&DhlConfig::paper_default(), &[1.0, 2.0, 4.0, 8.0]) {
        println!(
            "  {:>3.0}× → {:>7.1} TB carts, {:>6.1} TB/s, {:>6.1} GB/J",
            row.density_factor,
            row.cart_capacity.terabytes(),
            row.metrics.bandwidth.terabytes_per_second(),
            row.metrics.efficiency.value()
        );
    }

    // 5. What does the best design cost to build?
    let cost = CostModel::paper().total_cost(best_bw.config.track_length, best_bw.config.max_speed);
    println!(
        "\nthe best-bandwidth design costs {} in commodity materials",
        cost.display_dollars()
    );
}
