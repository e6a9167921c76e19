//! Golden hashes for the simulator's launch order.
//!
//! Thirteen configurations cover every way the launch rule can decide: one
//! shared track and a dual track, one rack and a multi-stop track whose
//! inbound and outbound headways interleave, single-dock racks,
//! a 128-cart campus with a deep backlog, a 64-rack campus with many
//! launch groups waiting at once, stalled carts blocking a track, a fixed
//! processing dwell, integrity reshipment, and a dock slower than the
//! undock (headway wakeups booked) and the reverse (none booked). Each
//! mission runs with a trace large enough to keep every event; the full
//! trace (every `Launch` with its cart, origin, destination and time, plus
//! every other transition) and the deterministic fields of the
//! `BulkTransferReport` are hashed with FNV-1a. The same mission resumed
//! from a JSON checkpoint taken at three instants must reproduce the same
//! hash.
//!
//! Two tables pin the hashes. `PHYSICS` leaves out `events_processed`, so
//! it moves only when a cart moves differently; `GOLDEN` includes it, so
//! it also moves when the engine handles a different number of events for
//! the same physics. On a mismatch the test prints the freshly computed
//! table; replace a table with it only when that change is intended.

use dhl_sim::{
    BulkTransferReport, Checkpoint, DhlSystem, EndpointKind, EndpointSpec, FaultSpec,
    IntegritySpec, ProcessingModel, ReliabilitySpec, SimConfig, TraceEventKind,
};
use dhl_storage::fnv1a_64;
use dhl_storage::integrity::CorruptionModel;
use dhl_units::{Bytes, Metres, Seconds};

const CONFIGS: [&str; 13] = [
    "paper-default",
    "paper-serial",
    "dual-track",
    "multi-stop",
    "multi-stop-dual",
    "one-dock-racks",
    "campus",
    "campus-64",
    "stress",
    "fixed-dwell",
    "reshipment",
    "slow-dock",
    "slow-undock",
];

/// One entry per entry of `CONFIGS`: the trace and every hashed report
/// field, `events_processed` included.
#[rustfmt::skip]
const GOLDEN: [u64; 13] = [
    0x272838d20c8cd2fa, 0x982bf16ee9a9baa4, 0xc4b408d4b3682a8e, 0xa04df5081009441d, 0xd36ce89a5af74982,
    0xe15a9f8ff7830f72, 0xad64bee5529b8687, 0x25af7c2bf187826d, 0x2a560ad93d7ed17b, 0x96b6ce34804f2f0c,
    0x3a22532891cde86f, 0xfd2cccf812fc3970, 0x70a543c74f0b9def,
];

/// One entry per entry of `CONFIGS`: as `GOLDEN`, without
/// `events_processed`.
#[rustfmt::skip]
const PHYSICS: [u64; 13] = [
    0x1a69f473266253db, 0x52470b4e344fd425, 0x7af5421802246e67, 0x60c8f9d30151454a, 0x3bb54781b0db9b59,
    0x9d75a15d5491070d, 0x55cd5ecc14291931, 0xc5abec742e198fdc, 0x57307ffbfdf6dea0, 0xf2a83cd95808a037,
    0xfea3fbac369f9686, 0x314a167216e68758, 0xd816876ed01e7c20,
];

/// Checkpoint instants, as fractions of each mission's uninterrupted
/// completion time.
const RESUME_AT: [f64; 3] = [0.2, 0.5, 0.8];

/// Big enough that no configuration below drops a trace event.
const TRACE_CAPACITY: usize = 1 << 20;

/// A library and `racks` racks spaced 300 m apart, each with `docks`
/// docking stations.
fn campus(carts: u32, racks: usize, docks: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.num_carts = carts;
    cfg.endpoints = vec![EndpointSpec {
        position: Metres::ZERO,
        docks: carts,
        kind: EndpointKind::Library,
    }];
    for i in 1..=racks {
        cfg.endpoints.push(EndpointSpec {
            position: Metres::new(300.0 * i as f64),
            docks,
            kind: EndpointKind::Rack,
        });
    }
    cfg
}

fn config(name: &str) -> SimConfig {
    match name {
        "paper-default" => SimConfig::paper_default(),
        "paper-serial" => SimConfig::paper_serial(),
        "dual-track" => SimConfig {
            dual_track: true,
            ..SimConfig::paper_default()
        },
        "multi-stop" => campus(24, 4, 3),
        "multi-stop-dual" => SimConfig {
            dual_track: true,
            ..campus(24, 4, 3)
        },
        "one-dock-racks" => campus(8, 3, 1),
        "campus" => campus(128, 16, 4),
        "campus-64" => campus(512, 64, 4),
        "stress" => {
            let mut cfg = campus(24, 4, 3);
            cfg.reliability = Some(ReliabilitySpec {
                seed: 7,
                ..ReliabilitySpec::typical()
            });
            let mut faults = FaultSpec::stress();
            // Frequent enough that stalled carts block a track several
            // times in one mission.
            if let Some(stall) = faults.cart_stall.as_mut() {
                stall.probability_per_movement = 0.05;
            }
            faults.max_delivery_attempts = 16;
            cfg.faults = Some(faults);
            cfg
        }
        "fixed-dwell" => SimConfig {
            processing: ProcessingModel::Fixed(Seconds::new(20.0)),
            ..campus(24, 4, 3)
        },
        "reshipment" => {
            let mut cfg = campus(24, 4, 3);
            cfg.integrity = Some(IntegritySpec {
                corruption: CorruptionModel {
                    mating_error_per_cycle: 0.12,
                    ..CorruptionModel::paper_default()
                },
                seed: 13,
                ..IntegritySpec::typical()
            });
            cfg.faults = Some(FaultSpec {
                max_delivery_attempts: 64,
                ..FaultSpec::recovery_only()
            });
            cfg
        }
        "slow-dock" => SimConfig {
            dock_time: Seconds::new(5.0),
            undock_time: Seconds::new(3.0),
            ..campus(24, 4, 3)
        },
        "slow-undock" => SimConfig {
            dock_time: Seconds::new(3.0),
            undock_time: Seconds::new(5.0),
            ..campus(24, 4, 3)
        },
        other => panic!("unknown configuration {other}"),
    }
}

/// A traced system for `name`, with its mission begun and nothing yet run.
fn begun(name: &str) -> DhlSystem {
    let cfg = config(name);
    let racks: Vec<usize> = (1..cfg.endpoints.len()).collect();
    let mut sys = DhlSystem::new(cfg).expect("valid configuration");
    sys.enable_trace(TRACE_CAPACITY);
    match name {
        "paper-default" | "dual-track" => sys.begin_bulk_transfer(Bytes::from_petabytes(6.0)),
        "paper-serial" => sys.begin_bulk_transfer(Bytes::from_petabytes(2.0)),
        // A few petabytes per rack keep 64 racks' trace within capacity.
        "campus-64" => {
            let demands: Vec<(usize, Bytes)> = racks
                .iter()
                .map(|&r| (r, Bytes::from_terabytes(2_048.0 + 1_024.0 * (r % 3) as f64)))
                .collect();
            sys.begin_multi_rack(&demands)
        }
        _ => {
            // Uneven demands, so racks finish at different times and the
            // greedy assignment keeps switching destination.
            let demands: Vec<(usize, Bytes)> = racks
                .iter()
                .map(|&r| (r, Bytes::from_terabytes(6_144.0 + 2_048.0 * (r % 3) as f64)))
                .collect();
            sys.begin_multi_rack(&demands)
        }
    }
    .expect("begin");
    sys
}

/// The `GOLDEN` and `PHYSICS` hashes of one mission.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Hashes {
    golden: u64,
    physics: u64,
}

/// Runs `sys` to completion and hashes its trace and report.
fn finish_and_hash(mut sys: DhlSystem, name: &str) -> (Hashes, BulkTransferReport) {
    sys.run_until(Seconds::new(f64::INFINITY)).expect("run");
    let report = sys.finish();
    let trace = sys.take_trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "{name}: trace buffer overflowed");
    let mut text = String::new();
    for event in trace.events() {
        text.push_str(&format!("{event:?}\n"));
    }
    let report_text = |events: &str| {
        format!(
            "{:?} {:?} {} {:?} {} {:?} {:?} {:?} {:?} {}{events} {} {} {:?} {:?}",
            report.completion_time,
            report.delivered,
            report.deliveries,
            report.deliveries_by_endpoint,
            report.movements,
            report.total_energy,
            report.average_power,
            report.embodied_bandwidth,
            report.track_busy_time,
            report.max_carts_in_flight,
            report.ssd_failures,
            report.data_loss_events,
            report.reliability,
            report.integrity,
        )
    };
    let hash = |events: &str| fnv1a_64(format!("{text}{}", report_text(events)).as_bytes());
    let hashes = Hashes {
        golden: hash(&format!(" {}", report.events_processed)),
        physics: hash(""),
    };
    (hashes, report)
}

/// The uninterrupted hashes of every configuration, each checked against
/// the same mission resumed from JSON at every `RESUME_AT` instant.
fn launch_hashes() -> Vec<Hashes> {
    CONFIGS
        .iter()
        .map(|&name| {
            let mut probe = begun(name);
            probe.run_until(Seconds::new(f64::INFINITY)).expect("run");
            let completion = probe.now().seconds();
            let (hashes, _) = finish_and_hash(begun(name), name);
            for &fraction in &RESUME_AT {
                let mut sys = begun(name);
                let _ = sys
                    .run_until(Seconds::new(fraction * completion))
                    .expect("run");
                let text = sys.checkpoint().to_json();
                let cp = Checkpoint::from_json(&text).expect("decode");
                let resumed = DhlSystem::resume(config(name), &cp).expect("resume");
                let (resumed_hashes, _) = finish_and_hash(resumed, name);
                assert_eq!(
                    resumed_hashes, hashes,
                    "{name}: resumed at {fraction} of completion diverged"
                );
            }
            hashes
        })
        .collect()
}

/// Checks `fresh` against the `pinned` table called `table`.
fn assert_table(table: &str, fresh: &[u64], pinned: &[u64]) {
    let printed: Vec<String> = fresh.iter().map(|h| format!("0x{h:016x}")).collect();
    for (i, &hash) in fresh.iter().enumerate() {
        assert!(
            hash == pinned[i],
            "{}: hash 0x{hash:016x} != {table} 0x{:016x}\nfresh {table} table:\n[\n    {},\n]",
            CONFIGS[i],
            pinned[i],
            printed.join(", "),
        );
    }
}

#[test]
fn launch_order_matches_its_golden_hash() {
    let fresh = launch_hashes();
    let physics: Vec<u64> = fresh.iter().map(|h| h.physics).collect();
    assert_table("PHYSICS", &physics, &PHYSICS);
    let golden: Vec<u64> = fresh.iter().map(|h| h.golden).collect();
    assert_table("GOLDEN", &golden, &GOLDEN);
}

/// Each configuration reaches the regime it is named for; otherwise its
/// golden hash would pin less than the table claims.
#[test]
fn every_configuration_exercises_its_regime() {
    for name in CONFIGS {
        let (_, report) = finish_and_hash(begun(name), name);
        assert!(report.deliveries > 0, "{name}: nothing delivered");
        match name {
            "dual-track" | "multi-stop-dual" => assert_eq!(report.track_busy_time.len(), 2),
            "campus" => {
                let depth = report
                    .metrics
                    .histogram("sim.queue_depth")
                    .expect("queue depth recorded");
                assert!(depth.mean > 32.0, "{name}: backlog mean {}", depth.mean);
            }
            "campus-64" => {
                let depth = report
                    .metrics
                    .histogram("sim.queue_depth")
                    .expect("queue depth recorded");
                // Every rack is served and the backlog averages more than
                // one waiting movement per rack.
                assert_eq!(report.deliveries_by_endpoint.len(), 64, "{name}");
                assert!(depth.mean > 64.0, "{name}: backlog mean {}", depth.mean);
            }
            "stress" => assert!(report.reliability.cart_stalls > 0, "{name}"),
            "reshipment" => assert!(report.integrity.deliveries_reshipped > 0, "{name}"),
            _ => {}
        }
    }
    // The multi-stop track interleaves inbound and outbound launches.
    let mut sys = begun("multi-stop");
    sys.run_until(Seconds::new(f64::INFINITY)).expect("run");
    let trace = sys.take_trace().expect("tracing enabled");
    let mut directions = Vec::new();
    for event in trace.events() {
        if let TraceEventKind::Launch { from, to, .. } = event.kind {
            let outbound = to > from;
            if directions.last() != Some(&outbound) {
                directions.push(outbound);
            }
        }
    }
    assert!(
        directions.len() > 20,
        "launch directions barely alternate: {}",
        directions.len()
    );
}

#[test]
fn golden_hashes_are_distinct() {
    for table in [GOLDEN, PHYSICS] {
        let mut all = table.to_vec();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), CONFIGS.len());
    }
}
