//! Determinism properties of the replica driver: `run_replicas` must be
//! bit-identical to running each seeded replica by hand and merging the
//! reports in index order, which pins both the per-replica seeding and the
//! merge order.

use dhl_rng::check::forall;
use dhl_sim::replicas::{replica_config, run_replicas, ReplicaReport};
use dhl_sim::{DhlSystem, FaultSpec, IntegritySpec, ReliabilitySpec, SimConfig};
use dhl_units::Bytes;

/// A configuration exercising every stochastic stream: SSD failures,
/// physical faults, and silent corruption.
fn stochastic_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.reliability = Some(ReliabilitySpec::typical());
    cfg.integrity = Some(IntegritySpec::typical());
    cfg.faults = Some(FaultSpec::recovery_only());
    cfg
}

/// The reference: run each seeded replica serially, merge in index order.
fn serial_reference(cfg: &SimConfig, dataset: Bytes, replicas: usize) -> ReplicaReport {
    let reports = (0..replicas)
        .map(|i| {
            DhlSystem::new(replica_config(cfg.clone(), i as u64))
                .unwrap()
                .run_bulk_transfer(dataset)
                .unwrap()
        })
        .collect();
    ReplicaReport::from_reports(reports)
}

#[test]
fn run_replicas_is_bit_identical_to_the_serial_loop() {
    let cfg = stochastic_config();
    let dataset = Bytes::from_petabytes(2.0);
    let replicas = 9;
    let serial = serial_reference(&cfg, dataset, replicas);
    assert_eq!(serial.replica_count(), replicas);
    let driven = run_replicas(&cfg, dataset, replicas, None).unwrap();
    // Simulation outcomes, per replica and in order.
    assert_eq!(driven.reports, serial.reports);
    // The merged snapshot — counters, wall-free gauges, histograms — down
    // to the exact JSON bytes.
    assert_eq!(driven.metrics.to_ndjson(), serial.metrics.to_ndjson());
    // And the full merged report, aggregates included.
    assert_eq!(driven, serial);
}

#[test]
fn randomised_workloads_match_the_serial_loop() {
    forall("randomised_workloads_match_the_serial_loop", 12, |g| {
        let dataset = Bytes::from_terabytes(g.f64_in(1.0, 4_000.0));
        let replicas = 1 + (g.u64_in(0, 6) as usize);
        let cfg = stochastic_config();
        let serial = serial_reference(&cfg, dataset, replicas);
        let driven = run_replicas(&cfg, dataset, replicas, None).unwrap();
        assert_eq!(driven, serial, "replicas = {replicas}");
        assert_eq!(driven.metrics.to_ndjson(), serial.metrics.to_ndjson());
    });
}

#[test]
fn merged_aggregates_summarise_the_replica_outcomes() {
    let cfg = stochastic_config();
    let dataset = Bytes::from_petabytes(1.0);
    let merged = run_replicas(&cfg, dataset, 5, None).unwrap();
    let times: Vec<f64> = merged
        .reports
        .iter()
        .map(|r| r.completion_time.seconds())
        .collect();
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    assert!((merged.completion_time.mean - mean).abs() < 1e-9);
    assert!(merged.completion_time.min <= merged.completion_time.p50);
    assert!(merged.completion_time.p50 <= merged.completion_time.p95);
    assert!(merged.completion_time.p95 <= merged.completion_time.max);
    assert!(merged.completion_time.ci95 >= 0.0);
    // Counters merged across replicas: deliveries sum exactly.
    let total_deliveries: u64 = merged.reports.iter().map(|r| r.deliveries).sum();
    assert_eq!(
        merged.metrics.counter("sim.deliveries"),
        Some(total_deliveries)
    );
}
