//! Pre-interned metric handles for the scheduler's serve loop.
//!
//! The serve loop records per-request metrics; [`SchedMetrics`] interns
//! every name once so it records through dense `Copy` ids instead of paying
//! a name lookup per request. Re-register the bundle whenever the registry is
//! replaced (`set_metrics_enabled`) — registration is idempotent.

use dhl_obs::{CounterId, GaugeId, HistogramId, MetricsRegistry};

/// Handles for every metric the scheduler records.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SchedMetrics {
    // Per-request counters (every run).
    pub requests: CounterId,
    pub deliveries: CounterId,
    pub redeliveries: CounterId,
    pub reshipments: CounterId,
    pub abandoned: CounterId,
    pub dock_crashes: CounterId,
    // Admission-control counters (only with an `AdmissionSpec`).
    pub offered: CounterId,
    pub rejected_deadline: CounterId,
    pub shed: CounterId,
    pub rejected_queue_full: CounterId,
    pub rejected_backpressure: CounterId,
    pub degraded: CounterId,
    pub admitted: CounterId,
    pub retry_tokens_exhausted: CounterId,
    pub retries: CounterId,
    pub deadline_hits: CounterId,
    pub deadline_misses: CounterId,
    // Latency histograms.
    pub placement_latency_s: HistogramId,
    pub delivery_latency_s: HistogramId,
    pub retry_backoff_s: HistogramId,
    // End-of-run gauges.
    pub makespan_s: GaugeId,
    pub track_utilisation: GaugeId,
    pub track_downtime_s: GaugeId,
    pub dock_downtime_s: GaugeId,
    pub wall_time_s: GaugeId,
    pub goodput_bytes_per_s: GaugeId,
}

impl SchedMetrics {
    /// Interns every scheduler metric in `registry` and returns the handle
    /// bundle.
    pub fn register(registry: &mut MetricsRegistry) -> Self {
        Self {
            requests: registry.register_counter("sched.requests"),
            deliveries: registry.register_counter("sched.deliveries"),
            redeliveries: registry.register_counter("sched.redeliveries"),
            reshipments: registry.register_counter("sched.reshipments"),
            abandoned: registry.register_counter("sched.abandoned"),
            dock_crashes: registry.register_counter("sched.dock_crashes"),
            offered: registry.register_counter("sched.offered"),
            rejected_deadline: registry.register_counter("sched.rejected_deadline"),
            shed: registry.register_counter("sched.shed"),
            rejected_queue_full: registry.register_counter("sched.rejected_queue_full"),
            rejected_backpressure: registry.register_counter("sched.rejected_backpressure"),
            degraded: registry.register_counter("sched.degraded"),
            admitted: registry.register_counter("sched.admitted"),
            retry_tokens_exhausted: registry.register_counter("sched.retry_tokens_exhausted"),
            retries: registry.register_counter("sched.retries"),
            deadline_hits: registry.register_counter("sched.deadline_hits"),
            deadline_misses: registry.register_counter("sched.deadline_misses"),
            placement_latency_s: registry.register_histogram("sched.placement_latency_s"),
            delivery_latency_s: registry.register_histogram("sched.delivery_latency_s"),
            retry_backoff_s: registry.register_histogram("sched.retry_backoff_s"),
            makespan_s: registry.register_gauge("sched.makespan_s"),
            track_utilisation: registry.register_gauge("sched.track_utilisation"),
            track_downtime_s: registry.register_gauge("sched.track_downtime_s"),
            dock_downtime_s: registry.register_gauge("sched.dock_downtime_s"),
            wall_time_s: registry.register_gauge("sched.wall_time_s"),
            goodput_bytes_per_s: registry.register_gauge("sched.goodput_bytes_per_s"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_invisible() {
        let mut reg = MetricsRegistry::enabled();
        let a = SchedMetrics::register(&mut reg);
        let b = SchedMetrics::register(&mut reg);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.placement_latency_s, b.placement_latency_s);
        assert_eq!(a.goodput_bytes_per_s, b.goodput_bytes_per_s);
        assert!(reg.snapshot().is_empty());
    }
}
