//! Reliability audit (§III-D, §VI): stress the DHL with stochastic SSD
//! failures, RAID layouts, mechanical faults, and connector wear, and show
//! the recovery machinery (redelivery, bounded retries, track draining)
//! keeping goodput equal to the request.
//!
//! ```text
//! cargo run --example reliability_audit
//! ```

use datacentre_hyperloop::core::{annualise, DhlConfig, GridModel};
use datacentre_hyperloop::net::route::Route;
use datacentre_hyperloop::sim::{
    DhlSystem, FaultSpec, IntegritySpec, ReliabilitySpec, SimConfig, SimError,
};
use datacentre_hyperloop::storage::connectors::ConnectorKind;
use datacentre_hyperloop::storage::failure::{FailureModel, RaidConfig};
use datacentre_hyperloop::storage::integrity::CorruptionModel;
use datacentre_hyperloop::storage::wear::{CartWear, EnduranceModel};
use datacentre_hyperloop::units::{Bytes, Seconds};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Bytes::from_petabytes(29.0);

    // 1. In-flight SSD failures under RAID, simulated end-to-end.
    println!("29 PB bulk transfer with failure injection (1% AFR, 28+4 RAID):");
    let mut cfg = SimConfig::paper_default();
    cfg.reliability = Some(ReliabilitySpec::typical());
    let report = DhlSystem::new(cfg)?.run_bulk_transfer(dataset)?;
    println!(
        "  {} movements, {} SSD failures, {} data-loss events",
        report.movements, report.ssd_failures, report.data_loss_events
    );

    // Even 50% AFR drives survive 8.6 s trips: in-flight exposure is tiny.
    let mut hostile = SimConfig::paper_default();
    hostile.reliability = Some(ReliabilitySpec {
        failure: FailureModel::new(0.5),
        raid: RaidConfig::none(32),
        ssds_per_cart: 32,
        seed: 42,
    });
    let hostile_report = DhlSystem::new(hostile)?.run_bulk_transfer(dataset)?;
    println!(
        "  (even 50% AFR with no RAID: {} failures in seconds-long trips —\n   in-flight exposure is negligible; RAID guards the *docked* hours)",
        hostile_report.ssd_failures
    );

    // 2. Recovery: long docked dwells make shard loss routine (~64 % of
    // deliveries here) — the mission redelivers every lost shard until
    // goodput matches the request.
    println!("\nRecovery under heavy loss (200 h docked per trip, no RAID):");
    let mut lossy = SimConfig::paper_default();
    lossy.dock_time = Seconds::from_hours(200.0);
    lossy.reliability = Some(ReliabilitySpec {
        failure: FailureModel::new(0.5),
        raid: RaidConfig::none(32),
        ssds_per_cart: 32,
        seed: 42,
    });
    lossy.faults = Some(FaultSpec {
        max_delivery_attempts: 64,
        ..FaultSpec::recovery_only()
    });
    let recovered = DhlSystem::new(lossy.clone())?.run_bulk_transfer(Bytes::from_petabytes(2.0))?;
    let rel = &recovered.reliability;
    println!(
        "  {} deliveries ({} redeliveries), {} lost then re-served; all {} delivered",
        recovered.deliveries, rel.redeliveries, recovered.data_loss_events, recovered.delivered
    );
    println!(
        "  goodput {:.1} MB/s vs gross throughput {:.1} MB/s ({:.1} h of retry traffic)",
        rel.goodput.value() / 1e6,
        rel.throughput.value() / 1e6,
        rel.retry_time.seconds() / 3600.0
    );

    // With a tight retry budget the same losses become a typed error
    // instead of silent degradation.
    let mut bounded = lossy;
    bounded.reliability.as_mut().expect("set above").failure = FailureModel::new(0.999);
    bounded
        .faults
        .as_mut()
        .expect("set above")
        .max_delivery_attempts = 2;
    match DhlSystem::new(bounded)?.run_bulk_transfer(Bytes::from_terabytes(512.0)) {
        Err(SimError::DeliveryAbandoned { endpoint, attempts }) => println!(
            "  (budget of 2 attempts at 99.9% AFR: shard for endpoint {endpoint} abandoned\n   after {attempts} attempts — surfaced as a typed error, not lost silently)"
        ),
        other => println!("  unexpected outcome under certain loss: {other:?}"),
    }

    // 3. Mechanical faults: stalls, tube leaks, and connector wear-out over
    // a 58 PB serial campaign (456 movements on one cart — enough to wear
    // out a bare M.2 connector, rated for 250 cycles).
    println!("\nMechanical faults (stalls, repressurisation, worn connectors; 58 PB serial):");
    let campaign = Bytes::from_petabytes(58.0);
    let mut mech = SimConfig::paper_serial();
    let mut spec = FaultSpec::stress();
    spec.cart_stall
        .as_mut()
        .expect("stress stalls")
        .probability_per_movement = 0.05;
    spec.repressurisation
        .as_mut()
        .expect("stress leaks")
        .probability_per_movement = 0.02;
    spec.docking_connector
        .as_mut()
        .expect("stress connectors")
        .kind = ConnectorKind::M2;
    mech.faults = Some(spec);
    let mech_report = DhlSystem::new(mech)?.run_bulk_transfer(campaign)?;
    let mrel = &mech_report.reliability;
    let downtime: f64 = mrel.track_downtime.iter().map(|s| s.seconds()).sum();
    println!(
        "  {} cart stalls ({:.0} s of track downtime), {} tube repressurisations,\n  {} connector replacements; completion {:.1} s vs {:.1} s fault-free",
        mrel.cart_stalls,
        downtime,
        mrel.repressurisations,
        mrel.connector_replacements,
        mech_report.completion_time.seconds(),
        DhlSystem::new(SimConfig::paper_serial())?
            .run_bulk_transfer(campaign)?
            .completion_time
            .seconds()
    );

    // 4. Connector wear (§VI): how many 29 PB campaigns per USB-C connector?
    let dockings_per_campaign = report.movements; // one mate per movement
    let campaigns_per_connector =
        u64::from(ConnectorKind::UsbC.rated_cycles()) / dockings_per_campaign;
    println!(
        "\nConnector endurance: {} dockings per campaign; one USB-C connector\n  survives {} campaigns (bare M.2 would survive {}).",
        dockings_per_campaign,
        campaigns_per_connector,
        u64::from(ConnectorKind::M2.rated_cycles()) / dockings_per_campaign
    );

    // 5. SSD write endurance: restaging the dataset monthly.
    let mut wear = CartWear::new(
        EnduranceModel::rocket_4_plus_8tb(),
        Bytes::from_terabytes(256.0),
    );
    wear.record_write(Bytes::from_terabytes(256.0));
    println!(
        "\nWrite endurance: one full restage consumes {:.3}% of a cart's rated\n  writes; {} restages remain.",
        wear.wear_fraction() * 100.0,
        wear.restages_remaining()
    );

    // 6. Carbon: daily 29 PB restaging for a year, DHL vs route C.
    let grid = GridModel::us_average();
    let baseline = Route::c().transfer_energy(dataset);
    let dhl_energy =
        datacentre_hyperloop::core::BulkTransfer::evaluate(&DhlConfig::paper_default(), dataset)
            .energy;
    let year = annualise(&grid, baseline, dhl_energy, 365.0);
    println!(
        "\nCarbon (daily restaging, US grid): {:.1} t CO2e and {} of electricity\n  saved per year vs optical route C.",
        year.kg_co2e_saved / 1000.0,
        year.usd_saved.display_dollars()
    );

    // 7. Observability: every report carries the simulator's dhl-obs
    // snapshot — the same counters the audit above summarised, exportable
    // as NDJSON for log pipelines.
    let metrics = &mech_report.metrics;
    assert!(
        !metrics.is_empty(),
        "fault-injected runs always record metrics"
    );
    println!(
        "\nObservability snapshot of the mechanical-fault run ({} counters, {} gauges, {} histograms):",
        metrics.counters.len(),
        metrics.gauges.len(),
        metrics.histograms.len()
    );
    // Only the counters are printed: they are deterministic per seed,
    // whereas the gauges include wall-clock pacing that varies run to run.
    for line in metrics
        .to_ndjson()
        .lines()
        .filter(|l| l.contains("\"counter\""))
    {
        println!("  {line}");
    }

    // 8. End-to-end payload integrity: verify-on-dock checksum scrubs with
    // corruption injection. Intermittent mating errors corrupt shards in
    // flight; the 28+4 parity rebuilds most deliveries at the dock, and the
    // few that exceed tolerance re-ship through the recovery machinery.
    println!("\nPayload integrity (verify-on-dock, corruption injection, 8 PB):");
    let mut corrupting = SimConfig::paper_default();
    corrupting.integrity = Some(IntegritySpec {
        corruption: CorruptionModel {
            mating_error_per_cycle: 0.12,
            ..CorruptionModel::paper_default()
        },
        ..IntegritySpec::typical()
    });
    corrupting.faults = Some(FaultSpec {
        max_delivery_attempts: 64,
        ..FaultSpec::recovery_only()
    });
    let audit = DhlSystem::new(corrupting)?.run_bulk_transfer(Bytes::from_petabytes(8.0))?;
    let integ = &audit.integrity;
    println!(
        "  {} shards scanned, {} corrupted, {} rebuilt from parity",
        integ.shards_scanned, integ.shards_corrupted, integ.shards_reconstructed
    );
    println!(
        "  {} deliveries verified, {} re-shipped beyond RAID tolerance",
        integ.deliveries_verified, integ.deliveries_reshipped
    );
    println!(
        "  scrub time {:.0} s (+{:.1} MJ), reconstruction reads {:.0} s; all {} delivered",
        integ.verification_time.seconds(),
        integ.verification_energy.value() / 1e6,
        integ.reconstruction_time.seconds(),
        audit.delivered
    );

    // CI snapshot: DHL_AUDIT_METRICS_JSON=<path> writes the deterministic
    // portion of the audit (simulation outcome, integrity accounting, and
    // counters — no wall-clock gauges) as JSON, which CI diffs byte for
    // byte against tests/golden/reliability_audit_metrics.json.
    if let Ok(path) = std::env::var("DHL_AUDIT_METRICS_JSON") {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"completion_time_s\": {},\n  \"delivered_bytes\": {},\n  \"deliveries\": {},\n  \"movements\": {},\n",
            audit.completion_time.seconds(),
            audit.delivered.as_u64(),
            audit.deliveries,
            audit.movements
        ));
        json.push_str(&format!(
            "  \"redeliveries\": {},\n  \"shards_scanned\": {},\n  \"shards_corrupted\": {},\n  \"shards_reconstructed\": {},\n  \"deliveries_verified\": {},\n  \"deliveries_reshipped\": {},\n",
            audit.reliability.redeliveries,
            integ.shards_scanned,
            integ.shards_corrupted,
            integ.shards_reconstructed,
            integ.deliveries_verified,
            integ.deliveries_reshipped
        ));
        json.push_str(&format!(
            "  \"verification_time_s\": {},\n  \"reconstruction_time_s\": {},\n",
            integ.verification_time.seconds(),
            integ.reconstruction_time.seconds()
        ));
        let mut counters: Vec<_> = audit.metrics.counters.clone();
        counters.sort();
        json.push_str("  \"counters\": {\n");
        let body: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("    \"{name}\": {value}"))
            .collect();
        json.push_str(&body.join(",\n"));
        json.push_str("\n  }\n}\n");
        std::fs::write(&path, json)?;
        println!("  (deterministic audit snapshot written to {path})");
    }
    Ok(())
}
