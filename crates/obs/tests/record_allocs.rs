//! Allocation gate for the record path.
//!
//! The workspace's counting global allocator tallies the heap allocations
//! each thread makes, so the numbers below are exact and do not depend on
//! what other tests in this binary are doing. Recording takes only the handles that
//! registration hands out, so a record reaches its slot without a name
//! lookup, a hash or a string; histograms own their buckets from
//! registration on. Every `add`, `store`, `set` and `record` must therefore
//! allocate nothing, on an enabled registry and on a disabled one.

use dhl_obs::MetricsRegistry;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Metric names as the simulator and scheduler register them.
const NAMES: [&str; 8] = [
    "sim.deliveries",
    "sim.cart_stalls",
    "sim.transit_time_s",
    "sim.queue_depth",
    "sched.placement_latency_s",
    "sched.delivery_latency_s",
    "sched.admission.offered",
    "sched.admission.shed",
];

/// Operations of each kind per registry.
const OPS: usize = 16_384;

/// Values from 2^-600 to 2^665, and the histogram's edge cases: zero,
/// subnormals, powers of two and their neighbours, huge values, both
/// infinities and NaN.
fn value(i: usize) -> f64 {
    const EDGES: [f64; 10] = [
        0.0,
        f64::MIN_POSITIVE,
        5e-324,
        1.0,
        1.0 - f64::EPSILON / 2.0,
        1024.0,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    match i % 4 {
        0 => EDGES[(i / 4) % EDGES.len()],
        _ => ((i % 2_048) as f64 * 0.618_033_988_749_895 - 600.0).exp2(),
    }
}

fn assert_records_allocate_nothing(mut registry: MetricsRegistry) {
    let counters = NAMES.map(|n| registry.register_counter(n));
    let gauges = NAMES.map(|n| registry.register_gauge(n));
    let histograms = NAMES.map(|n| registry.register_histogram(n));
    let enabled = registry.is_enabled();
    let pick = |i: usize| i % NAMES.len();
    let adds = allocations(|| (0..OPS).for_each(|i| registry.add(counters[pick(i)], 3))).1;
    let stores = allocations(|| (0..OPS).for_each(|i| registry.store(counters[pick(i)], 7))).1;
    let sets = allocations(|| (0..OPS).for_each(|i| registry.set(gauges[pick(i)], value(i)))).1;
    let records =
        allocations(|| (0..OPS).for_each(|i| registry.record(histograms[pick(i)], value(i)))).1;
    assert_eq!(
        [adds, stores, sets, records],
        [0; 4],
        "allocations by {OPS} adds, stores, sets and records (enabled: {enabled})"
    );
    let recorded = registry.snapshot().histograms.len();
    assert_eq!(recorded, if enabled { NAMES.len() } else { 0 });
}

#[test]
fn recording_on_an_enabled_registry_allocates_nothing() {
    assert_records_allocate_nothing(MetricsRegistry::enabled());
}

#[test]
fn recording_on_a_disabled_registry_allocates_nothing() {
    assert_records_allocate_nothing(MetricsRegistry::disabled());
}
