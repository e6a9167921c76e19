//! Bench + regeneration for Table VI: the design-space exploration.

use std::hint::black_box;

use dhl_bench::harness::bench_function;
use dhl_core::{paper_dataset, paper_table_vi, sweep};
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
}
