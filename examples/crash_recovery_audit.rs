//! Crash-recovery audit: checkpoint/restore bit-identity, replica
//! retry-with-resume, and the availability cost of crash-prone dock-station
//! controllers under each recovery policy (journal replay vs
//! rebuild-from-scan).
//!
//! ```text
//! cargo run --example crash_recovery_audit
//! ```
//!
//! CI hooks:
//!
//! - `DHL_CRASH_AUDIT_MODE=complete|resume` selects whether the snapshot
//!   below comes from the uninterrupted run or the mid-run
//!   checkpoint-then-resume run (default `resume`). The two must be
//!   byte-identical — the kill-and-resume CI job diffs them.
//! - `DHL_CRASH_AUDIT_JSON=<path>` writes the deterministic portion of the
//!   audit (outcome plus counters, no wall-clock gauges) as JSON.

use datacentre_hyperloop::sched::{
    DockRecoveryAwareness, Placement, Priority, Scheduler, TransferRequest,
};
use datacentre_hyperloop::sim::{
    run_replicas, Checkpoint, CrashInjection, DhlSystem, DockControllerFaultSpec, FaultSpec,
    RecoveryOptions, ReliabilitySpec, SimConfig,
};
use datacentre_hyperloop::storage::datasets;
use datacentre_hyperloop::units::{Bytes, Seconds};

/// A stressed configuration exercising every checkpointed subsystem: SSD
/// reliability, mechanical faults, and crash-prone dock controllers.
fn audited_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.reliability = Some(ReliabilitySpec {
        seed: 7,
        ..ReliabilitySpec::typical()
    });
    let mut faults = FaultSpec::stress();
    if let Some(dock) = faults.dock_controller.as_mut() {
        // Stress preset crashes 0.1% of dockings — too rare for a short
        // audit; make controller recovery a routine part of this run.
        dock.crash_probability_per_docking = 0.3;
    }
    cfg.faults = Some(faults);
    cfg
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Bytes::from_petabytes(2.0);
    let cfg = audited_config();

    // 1. Run the stressed scenario to completion, uninterrupted.
    let complete = DhlSystem::new(cfg.clone())?.run_bulk_transfer(dataset)?;
    println!("Uninterrupted 2 PB stressed run:");
    println!(
        "  completion {:.1} s, {} deliveries, {} events, {} dock-controller crashes",
        complete.completion_time.seconds(),
        complete.deliveries,
        complete.events_processed,
        complete.reliability.dock_controller_crashes
    );

    // 2. Same scenario, but the process "dies" mid-run: checkpoint at
    // T = 30 s (roughly mid-mission), serialise to JSON, drop the
    // simulator, parse the JSON back, resume, and drain. The resumed
    // report must be bit-identical.
    let mut sys = DhlSystem::new(cfg.clone())?;
    sys.begin_bulk_transfer(dataset)?;
    sys.run_until(Seconds::new(30.0))?;
    let checkpoint = sys.checkpoint();
    let json = checkpoint.to_json();
    println!("\nCheckpoint at T = {:.1} s:", checkpoint.time().seconds());
    println!(
        "  {} events processed, fingerprint {:#018x}, {} bytes of JSON",
        checkpoint.events_processed(),
        checkpoint.fingerprint(),
        json.len()
    );
    drop(sys); // the crash

    let restored = Checkpoint::from_json(&json)?;
    let mut resumed_sys = DhlSystem::resume(cfg.clone(), &restored)?;
    resumed_sys.run_until(Seconds::new(f64::INFINITY))?;
    let resumed = resumed_sys.finish();
    assert_eq!(
        complete, resumed,
        "checkpoint-then-resume must be bit-identical to the uninterrupted run"
    );
    let (mut a, mut b) = (
        complete.metrics.counters.clone(),
        resumed.metrics.counters.clone(),
    );
    a.sort();
    b.sort();
    assert_eq!(a, b, "deterministic counters must match exactly");
    println!("  resumed run is bit-identical (report and counters) — no replayed drift");

    // 3. Replica retry-with-resume: replica 2 crashes twice at T = 20 s and
    // restarts from its 15 s periodic checkpoints; the merged Monte-Carlo
    // outcome must equal the crash-free set.
    let replica_cfg = SimConfig::paper_default();
    let replica_data = Bytes::from_petabytes(1.0);
    let clean = run_replicas(&replica_cfg, replica_data, 4, None)?;
    let recovered = run_replicas(
        &replica_cfg,
        replica_data,
        4,
        Some(&RecoveryOptions {
            checkpoint_interval: Seconds::new(15.0),
            max_restarts: 3,
            crash_hook: Some(CrashInjection {
                replica: 2,
                at_time: Seconds::new(20.0),
                crashes: 2,
            }),
        }),
    )?;
    assert_eq!(
        clean.reports, recovered.reports,
        "recovered replicas must merge to the crash-free outcome"
    );
    println!("\nReplica fan-out with injected crashes (replica 2, twice at T = 20 s):");
    println!(
        "  4 replicas, completion {:.1} ± {:.1} s — identical to the crash-free fan-out",
        recovered.completion_time.mean, recovered.completion_time.ci95
    );

    // 4. Dock-controller recovery policies inside the simulator: the same
    // crash hazard, recovered by journal replay vs payload re-scan.
    println!("\nDock-controller recovery policies (1 PB, 20% crash hazard per docking):");
    for (label, spec) in [
        ("journal-replay", DockControllerFaultSpec::journal_replay()),
        (
            "rebuild-from-scan",
            DockControllerFaultSpec::rebuild_from_scan(),
        ),
    ] {
        let mut policy_cfg = SimConfig::paper_default();
        policy_cfg.faults = Some(FaultSpec {
            dock_controller: Some(DockControllerFaultSpec {
                crash_probability_per_docking: 0.2,
                ..spec
            }),
            ..FaultSpec::recovery_only()
        });
        let report = DhlSystem::new(policy_cfg)?.run_bulk_transfer(Bytes::from_petabytes(1.0))?;
        let rel = &report.reliability;
        println!(
            "  {label:>17}: {} crashes, {:.0} s recovering, completion {:.1} s",
            rel.dock_controller_crashes,
            rel.dock_recovery_time.seconds(),
            report.completion_time.seconds()
        );
    }

    // 5. The same comparison at the scheduling layer: per-policy
    // availability impact on a mixed workload, one scheduler per policy.
    let mut placement = Placement::new(Bytes::from_terabytes(256.0));
    let laion = placement.store(datasets::laion_5b());
    let crawl = placement.store(datasets::common_crawl());
    let requests = vec![
        TransferRequest::new(crawl, 1, Priority::Normal, Seconds::ZERO),
        TransferRequest::new(laion, 1, Priority::Urgent, Seconds::new(5.0)),
    ];
    let awareness = |spec: DockControllerFaultSpec| {
        let hazardous = DockControllerFaultSpec {
            crash_probability_per_docking: 0.2,
            ..spec
        };
        DockRecoveryAwareness::from_spec(&hazardous, Bytes::from_terabytes(256.0), 21)
    };
    println!("\nScheduler-level availability impact (37 dockings, same crash draws):");
    for (label, recovery) in [
        ("crash-free", None),
        (
            "journal-replay",
            Some(awareness(DockControllerFaultSpec::journal_replay())),
        ),
        (
            "rebuild-from-scan",
            Some(awareness(DockControllerFaultSpec::rebuild_from_scan())),
        ),
    ] {
        let mut sched = Scheduler::new(SimConfig::paper_default(), placement.clone())?;
        if let Some(recovery) = recovery {
            sched = sched.with_dock_recovery(recovery);
        }
        for request in &requests {
            sched.submit(*request);
        }
        let outcome = sched.try_run()?;
        let crashes: u64 = outcome.completed.iter().map(|r| r.dock_crashes).sum();
        println!(
            "  {:>17}: makespan {:>9.1} s, {} crashes, {:>8.1} s of dock downtime",
            label,
            outcome.makespan.seconds(),
            crashes,
            outcome
                .metrics
                .gauge("sched.dock_downtime_s")
                .unwrap_or(0.0)
        );
    }

    // CI snapshot: the kill-and-resume job runs this example once in
    // `complete` mode and once in `resume` mode and diffs the files — any
    // divergence means checkpoint/restore broke bit-identity. The
    // `complete` file is also diffed against
    // tests/golden/crash_recovery_audit_complete.json.
    if let Ok(path) = std::env::var("DHL_CRASH_AUDIT_JSON") {
        let mode = std::env::var("DHL_CRASH_AUDIT_MODE").unwrap_or_else(|_| "resume".into());
        let report = match mode.as_str() {
            "complete" => &complete,
            "resume" => &resumed,
            other => return Err(format!("unknown DHL_CRASH_AUDIT_MODE {other:?}").into()),
        };
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"completion_time_s\": {},\n  \"delivered_bytes\": {},\n  \"deliveries\": {},\n  \"movements\": {},\n  \"events_processed\": {},\n  \"dock_controller_crashes\": {},\n  \"dock_recovery_time_s\": {},\n",
            report.completion_time.seconds(),
            report.delivered.as_u64(),
            report.deliveries,
            report.movements,
            report.events_processed,
            report.reliability.dock_controller_crashes,
            report.reliability.dock_recovery_time.seconds(),
        ));
        let mut counters: Vec<_> = report.metrics.counters.clone();
        counters.sort();
        json.push_str("  \"counters\": {\n");
        let body: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("    \"{name}\": {value}"))
            .collect();
        json.push_str(&body.join(",\n"));
        json.push_str("\n  }\n}\n");
        std::fs::write(&path, json)?;
        println!("\n(deterministic {mode} snapshot written to {path})");
    }
    Ok(())
}
