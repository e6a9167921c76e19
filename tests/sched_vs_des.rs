//! The scheduler against the DES: one dataset sent through
//! `DhlSystem::run_bulk_transfer` and through a one-request
//! `Scheduler::try_run`, under the same `SimConfig`.
//!
//! The scheduler plans a serial track: it holds the whole track for each
//! trip, and it reads neither the launch headway nor `dual_track`, nor the
//! faults of the `SimConfig`. So today the two models agree only where the
//! DES is serial too. Every other row is a known gap, pinned at its
//! measured ratio (scheduler / DES): the test fails if a gap moves in
//! either direction, and a fix that closes one sets it to `AGREES`.

use datacentre_hyperloop::sched::placement::Placement;
use datacentre_hyperloop::sched::scheduler::{Priority, Scheduler, TransferRequest};
use datacentre_hyperloop::sim::{
    DhlSystem, DockControllerFaultSpec, EndpointKind, EndpointSpec, FaultSpec, SimConfig,
};
use datacentre_hyperloop::storage::datasets::{meta_dlrm_29pb, Dataset};
use datacentre_hyperloop::units::Seconds;

/// Relative tolerance for agreement, and for a known gap staying put.
const TOLERANCE: f64 = 1e-9;

/// The scheduler's figure equals the DES's.
const AGREES: Option<f64> = None;

/// Config, dataset size in carts, then the makespan and the energy ratio
/// (scheduler / DES) of each known gap, as measured when this test was
/// added.
const ROWS: [(&str, u64, Option<f64>, Option<f64>); 12] = [
    // The DES launches a headway apart; the scheduler waits for each
    // round trip.
    ("paper_default", 8, Some(1.954545454545), AGREES),
    ("paper_default", 114, Some(1.943695479778), AGREES),
    // One cart and one dock at each end: both models are serial.
    ("paper_serial", 8, AGREES, AGREES),
    ("paper_serial", 114, AGREES, AGREES),
    // The DES runs one direction per track (§VI).
    ("dual_track", 8, Some(3.602094240838), AGREES),
    ("dual_track", 114, Some(5.504772599663), AGREES),
    // A second rack past the first moves neither model.
    ("multi_stop", 8, Some(1.954545454545), AGREES),
    ("multi_stop", 114, Some(1.943695479778), AGREES),
    // The preset's 0.1 % hazards fire on none of these trips.
    ("stress", 8, Some(1.954545454545), AGREES),
    ("stress", 114, Some(1.943695479778), AGREES),
    // 3 and 21 crashes: the DES waits out and powers each recovery, which
    // the scheduler does not see.
    (
        "dock_crashes",
        8,
        Some(1.162162162162),
        Some(0.947366673985),
    ),
    (
        "dock_crashes",
        114,
        Some(1.404785785929),
        Some(0.973433629019),
    ),
];

fn config(name: &str) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    match name {
        "paper_default" => {}
        "paper_serial" => cfg = SimConfig::paper_serial(),
        "dual_track" => cfg.dual_track = true,
        "multi_stop" => cfg.endpoints.push(EndpointSpec {
            position: cfg.endpoints[1].position * 2.0,
            docks: 4,
            kind: EndpointKind::Rack,
        }),
        "stress" => cfg.faults = Some(FaultSpec::stress()),
        "dock_crashes" => {
            cfg.faults = Some(FaultSpec {
                dock_controller: Some(DockControllerFaultSpec {
                    crash_probability_per_docking: 0.2,
                    ..DockControllerFaultSpec::journal_replay()
                }),
                ..FaultSpec::recovery_only()
            });
        }
        other => panic!("unknown config {other}"),
    }
    cfg
}

/// The scheduler's makespan and energy over the DES's.
fn ratios(cfg: &SimConfig, carts: u64) -> (f64, f64) {
    let dataset = Dataset {
        size: cfg.cart_capacity * carts,
        ..meta_dlrm_29pb()
    };
    let des = DhlSystem::new(cfg.clone())
        .expect("valid config")
        .run_bulk_transfer(dataset.size)
        .expect("the mission completes");
    let mut placement = Placement::new(cfg.cart_capacity);
    let id = placement.store(dataset);
    assert_eq!(
        placement.carts_of(id).map(<[usize]>::len),
        Some(carts as usize)
    );
    // `run_bulk_transfer` delivers to the first rack, endpoint 1.
    let mut sched = Scheduler::new(cfg.clone(), placement).expect("valid config");
    sched.submit(TransferRequest::new(id, 1, Priority::Normal, Seconds::ZERO));
    let outcome = sched.try_run().expect("the request completes");
    (
        outcome.makespan / des.completion_time,
        outcome.total_energy / des.total_energy,
    )
}

#[test]
fn scheduler_matches_the_des_or_sits_at_its_pinned_gap() {
    let holds =
        |ratio: f64, gap: Option<f64>| (ratio / gap.unwrap_or(1.0) - 1.0).abs() <= TOLERANCE;
    let mut table = String::new();
    let mut moved = 0;
    for (name, carts, makespan, energy) in ROWS {
        let cfg = config(name);
        assert!(
            cfg.faults.is_some() || energy == AGREES,
            "{name}: energy is not a known gap without faults"
        );
        let (t, e) = ratios(&cfg, carts);
        let ok = holds(t, makespan) && holds(e, energy);
        moved += usize::from(!ok);
        let mark = if ok { "  " } else { "!!" };
        table.push_str(&format!(
            "{mark} {name:>13} {carts:>3} carts: makespan {t:.12} (pinned {makespan:?}), \
             energy {e:.12} (pinned {energy:?})\n"
        ));
    }
    assert_eq!(moved, 0, "rows marked !! moved:\n{table}");
}
