//! Simulation result reports.

use dhl_obs::MetricsSnapshot;

use dhl_units::{Bytes, BytesPerSecond, Joules, Seconds, Watts};

/// Outcome of a bulk-transfer simulation (§V-B, via DES rather than the
/// closed-form model).
///
/// Equality compares the *simulation* outcome only: the [`metrics`] snapshot
/// carries wall-clock observability data (span timers, events/second) that
/// legitimately differs between two otherwise identical runs, so it is
/// excluded from `PartialEq`.
///
/// [`metrics`]: BulkTransferReport::metrics
#[derive(Clone, Debug)]
pub struct BulkTransferReport {
    /// Time until every shard was delivered and every cart was home.
    pub completion_time: Seconds,
    /// Bytes delivered to the rack.
    pub delivered: Bytes,
    /// Number of cart deliveries (one per shard).
    pub deliveries: u64,
    /// Deliveries broken down by destination rack (endpoint index, count).
    pub deliveries_by_endpoint: Vec<(usize, u64)>,
    /// Total cart movements, including returns.
    pub movements: u64,
    /// Net electrical energy across all movements.
    pub total_energy: Joules,
    /// `total_energy / completion_time`.
    pub average_power: Watts,
    /// `delivered / completion_time` — the DES analogue of Table VI's
    /// embodied bandwidth.
    pub embodied_bandwidth: BytesPerSecond,
    /// Cumulative busy time per track (1 entry for single, 2 for dual).
    pub track_busy_time: Vec<Seconds>,
    /// Peak number of carts simultaneously in motion.
    pub max_carts_in_flight: u32,
    /// Events the engine processed.
    pub events_processed: u64,
    /// SSDs that failed in flight (0 unless failure injection is enabled).
    pub ssd_failures: u64,
    /// Deliveries whose failures exceeded the RAID tolerance.
    pub data_loss_events: u64,
    /// Fault-injection and recovery accounting (all zeros when
    /// `SimConfig::faults` is `None`).
    pub reliability: ReliabilityReport,
    /// Verify-on-dock and reconstruction accounting (all zeros when
    /// `SimConfig::integrity` is `None`).
    pub integrity: IntegrityReport,
    /// Observability snapshot from the simulator's [`dhl_obs`] registry:
    /// deterministic event/launch/retry counters plus wall-clock pacing
    /// gauges. Excluded from equality (see the type-level docs).
    pub metrics: MetricsSnapshot,
}

impl PartialEq for BulkTransferReport {
    fn eq(&self, other: &Self) -> bool {
        self.completion_time == other.completion_time
            && self.delivered == other.delivered
            && self.deliveries == other.deliveries
            && self.deliveries_by_endpoint == other.deliveries_by_endpoint
            && self.movements == other.movements
            && self.total_energy == other.total_energy
            && self.average_power == other.average_power
            && self.embodied_bandwidth == other.embodied_bandwidth
            && self.track_busy_time == other.track_busy_time
            && self.max_carts_in_flight == other.max_carts_in_flight
            && self.events_processed == other.events_processed
            && self.ssd_failures == other.ssd_failures
            && self.data_loss_events == other.data_loss_events
            && self.reliability == other.reliability
            && self.integrity == other.integrity
    }
}

/// End-to-end integrity accounting for a bulk transfer with verify-on-dock
/// enabled.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct IntegrityReport {
    /// Shards checksummed at rack docks.
    pub shards_scanned: u64,
    /// Shards whose checksum no longer matched the staged manifest.
    pub shards_corrupted: u64,
    /// Corrupted shards rebuilt in place from RAID parity.
    pub shards_reconstructed: u64,
    /// Deliveries that completed verification intact (clean, or after
    /// parity reconstruction).
    pub deliveries_verified: u64,
    /// Deliveries re-shipped because corruption exceeded the RAID tolerance.
    pub deliveries_reshipped: u64,
    /// Total dock time spent scrubbing payloads.
    pub verification_time: Seconds,
    /// Total dock time spent rebuilding shards from parity.
    pub reconstruction_time: Seconds,
    /// Energy drawn by the dock-side scrubs (also included in the run's
    /// `total_energy`).
    pub verification_energy: Joules,
}

/// Recovery-path accounting for a bulk transfer under fault injection.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ReliabilityReport {
    /// Shards re-dispatched after a RAID-uncovered in-flight loss.
    pub redeliveries: u64,
    /// Extra cart time spent on failed attempts (round trips whose payload
    /// did not survive).
    pub retry_time: Seconds,
    /// `requested bytes / completion_time` — useful bytes per second, which
    /// excludes redelivered duplicates.
    pub goodput: BytesPerSecond,
    /// `gross delivered bytes / completion_time` — includes every attempt's
    /// payload, failed or not.
    pub throughput: BytesPerSecond,
    /// Cumulative blocked time per track caused by stalled carts.
    pub track_downtime: Vec<Seconds>,
    /// Cart mechanical stalls injected.
    pub cart_stalls: u64,
    /// Docking-connector replacements performed.
    pub connector_replacements: u64,
    /// Tube repressurisation events injected.
    pub repressurisations: u64,
    /// Dock-station controller crashes injected.
    pub dock_controller_crashes: u64,
    /// Total docking time lost to controller recoveries (journal replay or
    /// payload re-scan, per the configured policy).
    pub dock_recovery_time: Seconds,
    /// Controller downtime per endpoint (indexed like
    /// `SimConfig::endpoints`; the library never crashes, so entry 0 is 0).
    pub dock_downtime: Vec<Seconds>,
}

impl BulkTransferReport {
    /// Transmission efficiency in GB/J, comparable to Table VI.
    #[must_use]
    pub fn efficiency(&self) -> dhl_units::GigabytesPerJoule {
        self.delivered / self.total_energy
    }

    /// Mean utilisation of the busiest track over the run.
    #[must_use]
    pub fn peak_track_utilisation(&self) -> f64 {
        if self.completion_time.seconds() <= 0.0 {
            return 0.0;
        }
        self.track_busy_time
            .iter()
            .map(|b| b.seconds() / self.completion_time.seconds())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BulkTransferReport {
        BulkTransferReport {
            completion_time: Seconds::new(100.0),
            delivered: Bytes::from_terabytes(512.0),
            deliveries: 2,
            deliveries_by_endpoint: vec![(1, 2)],
            movements: 4,
            total_energy: Joules::from_kilojoules(60.0),
            average_power: Watts::new(600.0),
            embodied_bandwidth: BytesPerSecond::from_terabytes_per_second(5.12),
            track_busy_time: vec![Seconds::new(40.0), Seconds::new(80.0)],
            max_carts_in_flight: 2,
            events_processed: 42,
            ssd_failures: 0,
            data_loss_events: 0,
            reliability: ReliabilityReport::default(),
            integrity: IntegrityReport::default(),
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn efficiency_in_gb_per_joule() {
        // 512 000 GB / 60 000 J ≈ 8.53 GB/J.
        assert!((sample().efficiency().value() - 8.533).abs() < 0.01);
    }

    #[test]
    fn peak_utilisation_takes_the_busiest_track() {
        assert!((sample().peak_track_utilisation() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_time_has_zero_utilisation() {
        let mut r = sample();
        r.completion_time = Seconds::ZERO;
        assert_eq!(r.peak_track_utilisation(), 0.0);
    }

    #[test]
    fn metrics_are_excluded_from_report_equality() {
        let a = sample();
        let mut b = sample();
        b.metrics.counters.push(("sim.events".into(), 42));
        assert_eq!(a, b, "observability data must not affect outcome equality");
        let mut c = sample();
        c.deliveries = 99;
        assert_ne!(a, c);
    }

    #[test]
    fn integrity_is_part_of_report_equality() {
        let a = sample();
        let mut b = sample();
        b.integrity.shards_scanned = 128;
        assert_ne!(a, b, "a lost verify counter must show");
        let mut c = sample();
        c.integrity.verification_time = Seconds::new(4_000.0);
        assert_ne!(a, c);
    }

    #[test]
    fn integrity_report_defaults_to_zero() {
        let r = IntegrityReport::default();
        assert_eq!(
            r.shards_scanned
                + r.shards_corrupted
                + r.shards_reconstructed
                + r.deliveries_verified
                + r.deliveries_reshipped,
            0
        );
        assert_eq!(r.verification_time, Seconds::ZERO);
        assert_eq!(r.reconstruction_time, Seconds::ZERO);
        assert_eq!(r.verification_energy, Joules::ZERO);
    }

    #[test]
    fn reliability_report_defaults_to_zero() {
        let r = ReliabilityReport::default();
        assert_eq!(r.redeliveries, 0);
        assert_eq!(r.retry_time, Seconds::ZERO);
        assert_eq!(r.goodput, BytesPerSecond::ZERO);
        assert_eq!(r.throughput, BytesPerSecond::ZERO);
        assert!(r.track_downtime.is_empty());
        assert_eq!(
            r.cart_stalls
                + r.connector_replacements
                + r.repressurisations
                + r.dock_controller_crashes,
            0
        );
        assert_eq!(r.dock_recovery_time, Seconds::ZERO);
        assert!(r.dock_downtime.is_empty());
    }
}
