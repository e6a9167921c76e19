//! Pre-interned metric handles for the simulator's hot paths: every metric
//! [`crate::system::DhlSystem`] records is registered once into a
//! [`SimMetrics`] bundle of `Copy` ids, so recording is a dense-slot write
//! instead of a name lookup per event. The event loop records none of the
//! [`PUBLISHED`] counters: it bumps only their report tallies.

use dhl_obs::{CounterId, GaugeId, HistogramId, MetricsRegistry};

use crate::system::DhlSystem;

type Tally = fn(&DhlSystem) -> u64;

/// The counters kept once, as report tallies the event loop bumps:
/// `finish` publishes them, and a checkpoint leaves them out.
#[rustfmt::skip]
pub(crate) const PUBLISHED: [(&str, Tally); 13] = [
    ("sim.carts_launched", |s| s.movements),
    ("sim.repressurisations", |s| s.counters.repressurisations),
    ("sim.cart_stalls", |s| s.counters.cart_stalls),
    ("sim.connector_replacements", |s| s.counters.connector_replacements),
    ("sim.dock_controller_crashes", |s| s.counters.dock_crashes),
    ("sim.ssd_failures", |s| s.counters.ssd_failures),
    ("sim.data_loss_events", |s| s.counters.data_loss_events),
    ("sim.redeliveries", |s| s.counters.redeliveries),
    ("sim.shards_scanned", |s| s.counters.shards_scanned),
    ("sim.deliveries_verified", |s| s.counters.deliveries_verified),
    ("sim.shards_corrupted", |s| s.counters.shards_corrupted),
    ("sim.shards_reconstructed", |s| s.counters.shards_reconstructed),
    ("sim.deliveries_reshipped", |s| s.counters.deliveries_reshipped),
];

/// Whether `name` is one of the [`PUBLISHED`] counters.
pub(crate) fn is_published(name: &str) -> bool {
    PUBLISHED.iter().any(|&(p, _)| p == name)
}

/// Handles for every metric the simulator records.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SimMetrics {
    pub published: [CounterId; PUBLISHED.len()],
    // Counters bumped inside the event loop.
    pub deliveries: CounterId,
    pub delivery_failures: CounterId,
    // End-of-run accounting counters.
    pub events: CounterId,
    pub events_processed: CounterId,
    pub events_clamped: CounterId,
    // Histograms observed inside the event loop.
    pub transit_s: HistogramId,
    pub queue_depth: HistogramId,
    pub dock_recovery_s: HistogramId,
    pub verify_s: HistogramId,
    pub reconstruction_s: HistogramId,
    // End-of-run pacing gauges.
    pub completion_s: GaugeId,
    pub wall_time_s: GaugeId,
    pub sim_seconds_per_wall_second: GaugeId,
    pub events_per_wall_second: GaugeId,
}

impl SimMetrics {
    /// Interns every simulator metric in `registry` and returns the handle
    /// bundle. Call again after swapping the registry out — handles are
    /// only valid for the registry (or clones of it) that issued them.
    pub fn register(registry: &mut MetricsRegistry) -> Self {
        // The counters, gauges and histograms listed below.
        registry.reserve(PUBLISHED.len() + 5, 4, 5);
        Self {
            published: PUBLISHED.map(|(name, _)| registry.register_counter(name)),
            deliveries: registry.register_counter("sim.deliveries"),
            delivery_failures: registry.register_counter("sim.delivery_failures"),
            events: registry.register_counter("sim.events"),
            events_processed: registry.register_counter("engine.events_processed"),
            events_clamped: registry.register_counter("sim.events_clamped"),
            transit_s: registry.register_histogram("sim.transit_s"),
            queue_depth: registry.register_histogram("sim.queue_depth"),
            dock_recovery_s: registry.register_histogram("sim.dock_recovery_s"),
            verify_s: registry.register_histogram("sim.verify_s"),
            reconstruction_s: registry.register_histogram("sim.reconstruction_s"),
            completion_s: registry.register_gauge("sim.completion_s"),
            wall_time_s: registry.register_gauge("sim.wall_time_s"),
            sim_seconds_per_wall_second: registry.register_gauge("sim.sim_seconds_per_wall_second"),
            events_per_wall_second: registry.register_gauge("sim.events_per_wall_second"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_invisible() {
        let mut reg = MetricsRegistry::enabled();
        let a = SimMetrics::register(&mut reg);
        let b = SimMetrics::register(&mut reg);
        assert_eq!(a.published, b.published);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.transit_s, b.transit_s);
        assert_eq!(a.wall_time_s, b.wall_time_s);
        assert!(
            reg.snapshot().is_empty(),
            "registering handles must not create visible metrics"
        );
        reg.add(a.deliveries, 2);
        reg.add(b.deliveries, 1);
        assert_eq!(reg.snapshot().counter("sim.deliveries"), Some(3));
    }
}
