//! Pre-interned metric handles for the scheduler's serve loop, which
//! records through dense `Copy` ids instead of a name lookup per request.
//! Re-register the bundle whenever the registry is replaced
//! (`set_metrics_enabled`) — registration is idempotent.

use dhl_obs::{CounterId, GaugeId, HistogramId, MetricsRegistry};

use crate::admission::AdmissionReport;
use crate::scheduler::RequestOutcome;

type Count<T> = fn(&T) -> u64;

/// The admission counters, kept once as report fields: `serve` adds each
/// that is non-zero when the run ends.
pub(crate) const ADMISSION: [(&str, Count<AdmissionReport>); 11] = [
    ("sched.offered", |r| r.offered),
    ("sched.rejected_deadline", |r| r.rejected_deadline),
    ("sched.shed", |r| r.shed),
    ("sched.rejected_queue_full", |r| r.rejected_queue_full),
    ("sched.rejected_backpressure", |r| r.rejected_backpressure),
    ("sched.degraded", |r| r.degraded),
    ("sched.admitted", |r| r.admitted),
    ("sched.retry_tokens_exhausted", |r| r.retry_tokens_exhausted),
    ("sched.retries", |r| r.retries),
    ("sched.deadline_hits", |r| r.deadline_hits),
    ("sched.deadline_misses", |r| r.deadline_misses),
];

/// The per-request counters, each with what one served request adds: `serve`
/// adds every sum when the run ends, once it served a request.
pub(crate) const PER_REQUEST: [(&str, Count<RequestOutcome>); 6] = [
    ("sched.requests", |_| 1),
    ("sched.deliveries", |o| o.deliveries),
    ("sched.redeliveries", |o| o.redeliveries),
    ("sched.reshipments", |o| o.reshipments),
    ("sched.abandoned", |o| o.abandoned),
    ("sched.dock_crashes", |o| o.dock_crashes),
];

/// Handles for every metric the scheduler records.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SchedMetrics {
    pub admission: [CounterId; ADMISSION.len()],
    pub per_request: [CounterId; PER_REQUEST.len()],
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
        // The counters, gauges and histograms listed below.
        registry.reserve(ADMISSION.len() + PER_REQUEST.len(), 6, 3);
        Self {
            admission: ADMISSION.map(|(name, _)| registry.register_counter(name)),
            per_request: PER_REQUEST.map(|(name, _)| registry.register_counter(name)),
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
        assert_eq!(a.admission, b.admission);
        assert_eq!(a.per_request, b.per_request);
        assert_eq!(a.placement_latency_s, b.placement_latency_s);
        assert_eq!(a.goodput_bytes_per_s, b.goodput_bytes_per_s);
        assert!(reg.snapshot().is_empty());
    }
}
