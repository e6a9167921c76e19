//! A minimal wall-clock benchmark harness.
//!
//! Stands in for Criterion in the offline build: the `report` binary's
//! suite ([`crate::run_bench_suite`]) calls [`bench_function`] for every
//! case. The harness warms the case up over a short window (so calibration
//! never hinges on one cold first call), picks an iteration count that
//! fills a fixed measurement window, and measures in batches to report
//! min/mean/p50/p95 per iteration. Each call returns its [`CaseResult`],
//! which the suite collects and `report` exports as machine-readable JSON.
//!
//! Setting `DHL_BENCH_FAST=1` shrinks both windows ~10× for CI smoke runs;
//! the statistics get noisier but every case still executes.

use std::time::{Duration, Instant};

/// How long each case is measured for (after warm-up).
const MEASURE_WINDOW: Duration = Duration::from_millis(250);

/// How long the warm-up/calibration loop runs.
const WARMUP_WINDOW: Duration = Duration::from_millis(50);

/// Upper bound on measured iterations, so trivially cheap cases terminate.
pub const MAX_ITERS: u32 = 100_000;

/// Upper bound on warm-up calls (cheap cases would otherwise spin the whole
/// warm-up window through the clock).
const MAX_WARMUP_CALLS: u32 = 1_024;

/// How many timed batches the measurement window is split into; percentiles
/// are computed over per-batch means.
const MAX_SAMPLES: u32 = 50;

/// One measured case: iteration count plus per-iteration statistics in
/// nanoseconds.
#[derive(Clone, PartialEq, Debug)]
pub struct CaseResult {
    /// Case name as passed to [`bench_function`].
    pub name: String,
    /// Iterations actually measured.
    pub iters: u32,
    /// Mean wall-clock time per iteration.
    pub mean_ns: f64,
    /// Fastest batch's per-iteration time.
    pub min_ns: f64,
    /// Median per-iteration time across batches.
    pub p50_ns: f64,
    /// 95th-percentile per-iteration time across batches.
    pub p95_ns: f64,
}

/// Whether `DHL_BENCH_FAST` is set (to anything but `0`): ~10× shorter
/// warm-up and measurement windows for CI smoke runs.
#[must_use]
pub fn fast_mode() -> bool {
    std::env::var_os("DHL_BENCH_FAST").is_some_and(|v| v != "0")
}

/// Picks the iteration count that fills `window` given the warm-up's mean
/// per-call time, clamped into `[1, MAX_ITERS]`.
fn calibrate(window: Duration, mean_call: Duration) -> u32 {
    let per_call = mean_call.as_secs_f64().max(1e-9);
    let raw = (window.as_secs_f64() / per_call).ceil();
    if raw < 1.0 {
        1
    } else if raw >= f64::from(MAX_ITERS) {
        MAX_ITERS
    } else {
        raw as u32
    }
}

/// Nearest-rank quantile over an unsorted sample set (`q` in `[0, 1]`).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = (q.clamp(0.0, 1.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank]
}

/// Measures `f`'s wall-clock time, prints one summary line, and returns the
/// [`CaseResult`].
///
/// Calibration runs the closure repeatedly for a short warm-up window (not
/// a single cold first call, which over-estimated the per-call cost of
/// anything with lazily initialised state and so under-iterated), then the
/// measurement window is split into up to `MAX_SAMPLES` timed batches so
/// p50/p95 can be reported alongside the mean.
///
/// The closure's return value is passed through [`std::hint::black_box`] so
/// the computation cannot be optimised away.
pub fn bench_function<T>(name: &str, mut f: impl FnMut() -> T) -> CaseResult {
    let (warmup_window, measure_window) = if fast_mode() {
        (WARMUP_WINDOW / 10, MEASURE_WINDOW / 10)
    } else {
        (WARMUP_WINDOW, MEASURE_WINDOW)
    };

    // Warm-up + calibration: keep calling until the window (or call cap) is
    // reached, and derive the per-call estimate from the whole window.
    let start = Instant::now();
    let mut warm_calls = 0u32;
    loop {
        std::hint::black_box(f());
        warm_calls += 1;
        if start.elapsed() >= warmup_window || warm_calls >= MAX_WARMUP_CALLS {
            break;
        }
    }
    let mean_call = start.elapsed() / warm_calls;
    let iters = calibrate(measure_window, mean_call);

    // Measure in batches: `samples` per-batch per-iteration means.
    let batch = iters.div_ceil(MAX_SAMPLES);
    let batches = iters.div_ceil(batch);
    let iters = batch * batches; // actually executed
    let mut samples = Vec::with_capacity(batches as usize);
    let mut total = Duration::ZERO;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        total += elapsed;
        samples.push(elapsed.as_secs_f64() * 1e9 / f64::from(batch));
    }

    let mean_ns = total.as_secs_f64() * 1e9 / f64::from(iters);
    let min_ns = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let p50_ns = percentile(&mut samples, 0.50);
    let p95_ns = percentile(&mut samples, 0.95);
    println!(
        "bench {name:<44} {:>12} /iter (p50 {:>10}, p95 {:>10}, {iters} iters)",
        format_time(mean_ns * 1e-9),
        format_time(p50_ns * 1e-9),
        format_time(p95_ns * 1e-9),
    );

    CaseResult {
        name: name.to_string(),
        iters,
        mean_ns,
        min_ns,
        p50_ns,
        p95_ns,
    }
}

/// Renders a duration in the most readable unit.
fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_reports_consistent_statistics() {
        let r = bench_function("noop", || 1 + 1);
        assert!(r.iters >= 1);
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.p50_ns);
        assert!(r.p50_ns <= r.p95_ns);
    }

    #[test]
    fn calibration_clamps_into_the_iteration_range() {
        // A per-call cost far above the window → exactly one iteration.
        assert_eq!(
            calibrate(Duration::from_millis(250), Duration::from_secs(10)),
            1
        );
        // A zero-cost call → the cap, not infinity.
        assert_eq!(
            calibrate(Duration::from_millis(250), Duration::ZERO),
            MAX_ITERS
        );
        // A mid-range cost lands in between.
        let mid = calibrate(Duration::from_millis(250), Duration::from_micros(50));
        assert!(mid > 1 && mid < MAX_ITERS, "{mid}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut s, 0.50), 3.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut s, 1.0), 5.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn times_format_in_sensible_units() {
        assert!(format_time(2.5).ends_with(" s"));
        assert!(format_time(2.5e-3).ends_with(" ms"));
        assert!(format_time(2.5e-6).ends_with(" µs"));
        assert!(format_time(2.5e-9).ends_with(" ns"));
    }
}
