//! Differential suite: the dense-slot handle registry, driven only through
//! `register_*` and handle operations, vs the pinned name-keyed map-walk
//! `reference_registry` (a module of this test), following the
//! `queue_equivalence` / `service_equivalence` convention — drive both
//! implementations through randomized operation interleavings and assert
//! byte-identical [`MetricsSnapshot`] JSON at every checkpoint.
//!
//! The generators draw finite values from an RNG, where the two bucket-index
//! computations (exponent-bit extraction vs the retired float log₂) agree;
//! the one input class where they deliberately differ — values half an ULP
//! below a power of two, which the float path misbuckets — is covered by a
//! dedicated unit test in `histogram.rs`, not fuzzed here.

mod reference_registry;

use dhl_obs::{Histogram, MetricsRegistry};
use reference_registry::{ReferenceHistogram, ReferenceRegistry};

/// splitmix64 — the repo's stock tiny deterministic generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        dhl_rng::splitmix64(self.0)
    }

    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A finite value spanning the histogram range, underflow and overflow
    /// included: 10^u for u ∈ [-12, 12).
    fn value(&mut self) -> f64 {
        10f64.powf(self.uniform() * 24.0 - 12.0)
    }

    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[(self.next_u64() % pool.len() as u64) as usize]
    }
}

const COUNTERS: &[&str] = &[
    "sim.events",
    "sim.deliveries",
    "sched.admitted",
    "sched.shed",
    "engine.events_processed",
];
const GAUGES: &[&str] = &[
    "sim.wall_time_s",
    "sched.makespan_s",
    "net.eee.idle_j",
    "sim.completion_s",
];
const HISTOGRAMS: &[&str] = &[
    "sim.transit_s",
    "sim.queue_depth",
    "sched.placement_latency_s",
    "sched.retry_backoff_s",
];

fn assert_identical(live: &MetricsRegistry, reference: &ReferenceRegistry, context: &str) {
    let a = live.snapshot();
    let b = reference.snapshot();
    assert_eq!(a, b, "snapshot mismatch {context}");
    assert_eq!(a.to_ndjson(), b.to_ndjson(), "JSON byte mismatch {context}");
    assert_eq!(
        a.to_ndjson(),
        b.to_ndjson(),
        "NDJSON byte mismatch {context}"
    );
}

/// The core differential: random interleavings of every recording
/// operation, checked for byte-identical exports at interior checkpoints.
/// The live registry registers each name on first use, as a restore does;
/// the reference sees names.
#[test]
fn randomized_interleavings_export_byte_identically() {
    for seed in 0..32u64 {
        let mut rng = Rng(0xD41_0000 + seed);
        let mut live = MetricsRegistry::enabled();
        let mut reference = ReferenceRegistry::enabled();
        for step in 0..2_000u32 {
            match rng.next_u64() % 100 {
                0..=34 => {
                    let name = rng.pick(COUNTERS);
                    let by = rng.next_u64() % 1_000;
                    let id = live.register_counter(name);
                    live.add(id, by);
                    reference.inc(name, by);
                }
                35..=54 => {
                    let name = rng.pick(GAUGES);
                    let v = rng.value();
                    let id = live.register_gauge(name);
                    live.set(id, v);
                    reference.set_gauge(name, v);
                }
                55..=89 => {
                    let name = rng.pick(HISTOGRAMS);
                    let v = rng.value();
                    let id = live.register_histogram(name);
                    live.record(id, v);
                    reference.observe(name, v);
                }
                90..=93 => {
                    let name = rng.pick(COUNTERS);
                    let v = rng.next_u64();
                    let id = live.register_counter(name);
                    live.store(id, v);
                    reference.set_counter(name, v);
                }
                94..=96 => {
                    // Restore a histogram rebuilt from an identical record
                    // stream — the checkpoint-resume path.
                    let name = rng.pick(HISTOGRAMS);
                    let n = rng.next_u64() % 20;
                    let mut h = Histogram::new();
                    let mut r = ReferenceHistogram::new();
                    for _ in 0..n {
                        let v = rng.value();
                        h.record(v);
                        r.record(v);
                    }
                    let id = live.register_histogram(name);
                    live.restore(id, h);
                    reference.restore_histogram(name, r);
                }
                97 => {
                    live.reset();
                    reference.reset();
                }
                _ => {
                    // Zero-increment still creates the entry in both.
                    let name = rng.pick(COUNTERS);
                    let id = live.register_counter(name);
                    live.add(id, 0);
                    reference.inc(name, 0);
                }
            }
            if step % 250 == 0 {
                assert_identical(&live, &reference, &format!("seed {seed} step {step}"));
            }
        }
        assert_identical(&live, &reference, &format!("seed {seed} final"));
    }
}

/// Handles registered up front, before anything is recorded, must be
/// indistinguishable from the reference too: drive the live registry
/// through pre-interned ids while the reference sees names.
#[test]
fn handle_path_matches_reference_byte_for_byte() {
    for seed in 0..16u64 {
        let mut rng = Rng(0xAB1E_0000 + seed);
        let mut live = MetricsRegistry::enabled();
        let mut reference = ReferenceRegistry::enabled();
        let counter_ids: Vec<_> = COUNTERS.iter().map(|n| live.register_counter(n)).collect();
        let gauge_ids: Vec<_> = GAUGES.iter().map(|n| live.register_gauge(n)).collect();
        let hist_ids: Vec<_> = HISTOGRAMS
            .iter()
            .map(|n| live.register_histogram(n))
            .collect();
        assert_identical(&live, &reference, "registration must be invisible");
        for _ in 0..3_000u32 {
            match rng.next_u64() % 10 {
                0..=3 => {
                    let i = (rng.next_u64() % COUNTERS.len() as u64) as usize;
                    let by = rng.next_u64() % 1_000;
                    live.add(counter_ids[i], by);
                    reference.inc(COUNTERS[i], by);
                }
                4..=5 => {
                    let i = (rng.next_u64() % GAUGES.len() as u64) as usize;
                    let v = rng.value();
                    live.set(gauge_ids[i], v);
                    reference.set_gauge(GAUGES[i], v);
                }
                6..=8 => {
                    let i = (rng.next_u64() % HISTOGRAMS.len() as u64) as usize;
                    let v = rng.value();
                    live.record(hist_ids[i], v);
                    reference.observe(HISTOGRAMS[i], v);
                }
                _ => {
                    let i = (rng.next_u64() % COUNTERS.len() as u64) as usize;
                    let v = rng.next_u64();
                    live.store(counter_ids[i], v);
                    reference.set_counter(COUNTERS[i], v);
                }
            }
        }
        assert_identical(&live, &reference, &format!("seed {seed} handle-path"));
    }
}

/// Audit-shaped workload: the metric mix `overload_audit` and
/// `crash_recovery_audit` produce (end-of-run set_counter/set_gauge block
/// over accumulated counters and latency histograms), including a mid-run
/// export/restore cycle as the crash audit performs.
#[test]
fn audit_shaped_workload_with_restore_cycle_is_byte_identical() {
    let mut rng = Rng(0x000C_4A54);
    let mut live = MetricsRegistry::enabled();
    let mut reference = ReferenceRegistry::enabled();
    let events = live.register_counter("sim.events");
    let deliveries = live.register_counter("sim.deliveries");
    let ssd_failures = live.register_counter("sim.ssd_failures");
    let transit = live.register_histogram("sim.transit_s");
    for _ in 0..5_000u32 {
        live.add(events, 1);
        reference.inc("sim.events", 1);
        if rng.next_u64().is_multiple_of(3) {
            live.add(deliveries, 1);
            reference.inc("sim.deliveries", 1);
            let v = rng.value();
            live.record(transit, v);
            reference.observe("sim.transit_s", v);
        }
        if rng.next_u64().is_multiple_of(50) {
            live.add(ssd_failures, u64::from(rng.next_u64().is_multiple_of(2)));
            reference.inc("sim.ssd_failures", u64::from(rng.next_u64() % 2 == 1));
        }
    }
    // ssd_failures counts drifted apart above (independent RNG draws) —
    // square them up through the absolute-set path before comparing.
    let absolute = 17;
    live.store(ssd_failures, absolute);
    reference.set_counter("sim.ssd_failures", absolute);

    // Checkpoint: export the live registry's exact state, rebuild both.
    let mut live2 = MetricsRegistry::enabled();
    let mut reference2 = ReferenceRegistry::enabled();
    for (name, v) in live.counters() {
        let id = live2.register_counter(name);
        live2.store(id, v);
        reference2.set_counter(name, v);
    }
    for (name, v) in live.gauges() {
        let id = live2.register_gauge(name);
        live2.set(id, v);
        reference2.set_gauge(name, v);
    }
    for (name, h) in live.histograms() {
        let (count, sum, min, max, buckets) = (
            h.count(),
            h.sum(),
            h.raw_min(),
            h.raw_max(),
            h.sparse_buckets(),
        );
        let id = live2.register_histogram(name);
        live2.restore(id, Histogram::from_parts(count, sum, min, max, &buckets));
        reference2.restore_histogram(
            name,
            ReferenceHistogram::from_parts(count, sum, min, max, &buckets),
        );
    }
    assert_identical(&live2, &reference2, "post-restore");
    assert_eq!(
        live2.snapshot().to_ndjson(),
        live.snapshot().to_ndjson(),
        "restore must be lossless"
    );

    // Finish the run on the restored registries.
    let events = live2.register_counter("sim.events");
    let transit = live2.register_histogram("sim.transit_s");
    for _ in 0..1_000u32 {
        live2.add(events, 1);
        reference2.inc("sim.events", 1);
        let v = rng.value();
        live2.record(transit, v);
        reference2.observe("sim.transit_s", v);
    }
    let wall = live2.register_gauge("sim.wall_time_s");
    let completion = live2.register_gauge("sim.completion_s");
    live2.set(wall, 1.25);
    reference2.set_gauge("sim.wall_time_s", 1.25);
    live2.set(completion, 86.5);
    reference2.set_gauge("sim.completion_s", 86.5);
    assert_identical(&live2, &reference2, "final");
}
