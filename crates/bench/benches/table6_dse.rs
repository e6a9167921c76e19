//! Bench + regeneration for Table VI: the design-space exploration.

use std::hint::black_box;

use dhl_bench::harness::bench_function;
use dhl_core::{paper_dataset, paper_table_vi, sweep, DhlConfig, DsePoint};
use dhl_sim::parallel_map;
use dhl_units::{Metres, MetresPerSecond};

fn main() {
    println!("{}", dhl_bench::render_table6());
    bench_function("table6/paper_13_rows", || black_box(paper_table_vi()).len());

    // A much larger grid than the paper's, exercising the sweep drivers.
    let speeds: Vec<MetresPerSecond> = (4..=30)
        .map(|v| MetresPerSecond::new(f64::from(v) * 10.0))
        .collect();
    let lengths: Vec<Metres> = (1..=10)
        .map(|l| Metres::new(f64::from(l) * 100.0))
        .collect();
    let counts: Vec<u32> = vec![8, 16, 32, 64, 128];

    bench_function("table6/sweep_serial_1350_points", || {
        sweep(&speeds, &lengths, &counts, paper_dataset()).len()
    });
    // The same grid, in `sweep`'s order, fanned across 8 workers.
    let mut grid = Vec::with_capacity(speeds.len() * lengths.len() * counts.len());
    for &v in &speeds {
        for &l in &lengths {
            grid.extend(counts.iter().map(|&n| (v, l, n)));
        }
    }
    bench_function("table6/parallel_map_1350_points", || {
        parallel_map(grid.clone(), 8, |(v, l, n)| {
            DsePoint::evaluate(DhlConfig::with_ssd_count(v, l, n), paper_dataset())
        })
        .len()
    });
}
