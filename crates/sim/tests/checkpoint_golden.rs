//! Golden bytes for the checkpoint JSON format.
//!
//! Seven simulator configurations are each captured at five instants
//! (before the first event, three points inside the mission and one after
//! the queue has drained), and
//! the exact `Checkpoint::to_json` text of every capture is hashed with
//! FNV-1a. Two open-loop arrival processes are captured the same way
//! through `ArrivalState::to_json`. The tables below pin the serialised
//! form byte for byte — key names, integer-vs-float number syntax, `null`
//! for absent values and empty-histogram bounds, array-vs-object shapes —
//! so a change to how checkpoints are encoded cannot pass unnoticed: a
//! checkpoint written by one build must stay readable by the next.
//!
//! On a mismatch the test prints the freshly computed table; replace the
//! golden table with it only when a format change is intended (and bump
//! the checkpoint `FORMAT_VERSION` with it).

use dhl_sim::{
    ArrivalGenerator, ArrivalProcess, ArrivalSpec, Checkpoint, DhlSystem, DockControllerFaultSpec,
    DockRecoveryPolicy, EndpointKind, EndpointSpec, FaultSpec, IntegritySpec, ReliabilitySpec,
    SimConfig,
};
use dhl_storage::fnv1a_64;
use dhl_units::{Bytes, Metres, Seconds};

/// Capture instants, as fractions of each mission's uninterrupted
/// completion time: before the first event, three points inside the
/// mission, and one after the queue has drained.
const CAPTURE_AT: [f64; 5] = [0.0, 0.15, 0.5, 0.85, 1.5];

const CONFIGS: [&str; 7] = [
    "paper-default",
    "stress",
    "integrity",
    "dock-crash",
    "metrics-disabled",
    "trace",
    "multi-rack",
];

/// One row per entry of `CONFIGS`, one column per entry of `CAPTURE_AT`.
#[rustfmt::skip]
const GOLDEN: [[u64; 5]; 7] = [
    [0x9b645f0bbda338a0, 0x0fb0a3cdafc219d6, 0xb87c05e45a123405, 0x370644b0529a17a9, 0x54fc4cd80fcd46e9],
    [0xd7a3898905254101, 0x5f826480fca351d7, 0x69aa31f05ba7af47, 0x35cce489e94b71be, 0xe6d6d255be890f94],
    [0x23a858741c5dc1e5, 0x04e6b81ff76a1f39, 0xb27c0b918838503e, 0x29199e4622c7f2a0, 0x1d7ce6cd826bed73],
    [0x4cb8a60a0023916f, 0x4a082e8f43e12109, 0x0bc98c4f55445472, 0x26ddb11b20bbf5dd, 0x23dd2f5d60b05c9a],
    [0x39e3bac40fb7a213, 0xb424ad843a265318, 0x8ea48a7694f56db5, 0xce5d21eb023743f7, 0x48fdd068e00ddfbf],
    [0xba2d3fa968b77f56, 0xce40f49e86cf0de0, 0xd91bb1f116d30a3c, 0xf5f20ef0b96f90d3, 0xde90c1c3ab04b14f],
    [0xc244a412ea8a836d, 0x7370f6de8de56893, 0x471bb7b30dd84122, 0x03db996736bccf41, 0xe2755fe2653feab3],
];

/// Arrivals drawn before each `ArrivalState` capture.
const ARRIVALS_BEFORE: [usize; 3] = [0, 17, 400];

const PROCESSES: [&str; 2] = ["poisson", "on-off-burst"];

/// One row per entry of `PROCESSES`, one column per entry of
/// `ARRIVALS_BEFORE`.
#[rustfmt::skip]
const ARRIVAL_GOLDEN: [[u64; 3]; 2] = [
    [0x1bc63921082a7f8e, 0x71f3817e8f8e7e98, 0x6da4ca8022a2ea00],
    [0x05898009a364c7e1, 0xe2629ec26550b712, 0xf8a39e14f0d16922],
];

fn reliability(seed: u64) -> Option<ReliabilitySpec> {
    Some(ReliabilitySpec {
        seed,
        ..ReliabilitySpec::typical()
    })
}

/// A library and four racks at uneven spacing, with rack-specific dock
/// counts, so the campus mission keeps several demands and tracks busy.
fn multi_rack_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.num_carts = 24;
    cfg.endpoints = vec![EndpointSpec {
        position: Metres::ZERO,
        docks: 24,
        kind: EndpointKind::Library,
    }];
    for (position, docks) in [(280.0, 4), (590.0, 2), (910.0, 4), (1_190.0, 3)] {
        cfg.endpoints.push(EndpointSpec {
            position: Metres::new(position),
            docks,
            kind: EndpointKind::Rack,
        });
    }
    cfg.reliability = reliability(29);
    cfg
}

/// A system for `name`, with its mission begun and nothing yet run.
fn begun(name: &str) -> DhlSystem {
    let dataset = Bytes::from_petabytes(12.0);
    let mut cfg = SimConfig::paper_default();
    match name {
        "paper-default" | "metrics-disabled" | "trace" | "multi-rack" => {}
        "stress" => {
            cfg.reliability = reliability(7);
            cfg.faults = Some(FaultSpec::stress());
        }
        "integrity" => {
            cfg.reliability = reliability(11);
            cfg.integrity = Some(IntegritySpec::typical());
        }
        "dock-crash" => {
            cfg.reliability = reliability(13);
            cfg.faults = Some(FaultSpec {
                dock_controller: Some(DockControllerFaultSpec {
                    crash_probability_per_docking: 0.5,
                    recovery: DockRecoveryPolicy::RebuildFromScan,
                    ..DockControllerFaultSpec::journal_replay()
                }),
                ..FaultSpec::recovery_only()
            });
        }
        other => panic!("unknown configuration {other}"),
    }
    if name == "multi-rack" {
        cfg = multi_rack_config();
    }
    let mut sys = DhlSystem::new(cfg).expect("valid configuration");
    match name {
        "metrics-disabled" => sys.set_metrics_enabled(false),
        // A small buffer, so the capture also carries dropped events.
        "trace" => sys.enable_trace(48),
        _ => {}
    }
    if name == "multi-rack" {
        let demands = [
            (1, Bytes::from_petabytes(3.6)),
            (2, Bytes::from_petabytes(1.6)),
            (3, Bytes::from_petabytes(5.2)),
            (4, Bytes::from_petabytes(2.8)),
        ];
        sys.begin_multi_rack(&demands).expect("begin");
    } else {
        sys.begin_bulk_transfer(dataset).expect("begin");
    }
    sys
}

fn checkpoint_hashes() -> Vec<[u64; 5]> {
    CONFIGS
        .iter()
        .map(|name| {
            let mut uninterrupted = begun(name);
            let _ = uninterrupted
                .run_until(Seconds::new(f64::INFINITY))
                .expect("run");
            let completion = uninterrupted.now().seconds();
            let mut sys = begun(name);
            let mut row = [0; 5];
            for (slot, &fraction) in row.iter_mut().zip(&CAPTURE_AT) {
                let t = fraction * completion;
                let _ = sys.run_until(Seconds::new(t)).expect("run");
                let text = sys.checkpoint().to_json();
                let decoded = Checkpoint::from_json(&text).expect("decode");
                assert_eq!(decoded.to_json(), text, "{name} at {t} s");
                *slot = fnv1a_64(text.as_bytes());
            }
            row
        })
        .collect()
}

fn arrival_spec(process: &str) -> ArrivalSpec {
    let spec = ArrivalSpec::poisson(0.8, Seconds::new(10_000.0), 41)
        .with_tenants(12)
        .with_deadlines(Seconds::new(90.0), 0.3);
    match process {
        "poisson" => spec,
        "on-off-burst" => ArrivalSpec {
            process: ArrivalProcess::OnOffBurst {
                on_rate_per_second: 3.5,
                off_rate_per_second: 0.25,
                mean_on_duration: Seconds::new(15.0),
                mean_off_duration: Seconds::new(45.0),
            },
            ..spec
        },
        other => panic!("unknown process {other}"),
    }
}

fn arrival_hashes() -> Vec<[u64; 3]> {
    PROCESSES
        .iter()
        .map(|process| {
            let mut gen = ArrivalGenerator::new(&arrival_spec(process));
            let mut drawn = 0;
            let mut row = [0; 3];
            for (slot, &before) in row.iter_mut().zip(&ARRIVALS_BEFORE) {
                while drawn < before {
                    gen.next_arrival().expect("arrival inside the horizon");
                    drawn += 1;
                }
                *slot = fnv1a_64(gen.state().to_json().as_bytes());
            }
            row
        })
        .collect()
}

fn table<const N: usize>(rows: &[[u64; N]]) -> String {
    rows.iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|h| format!("0x{h:016x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect()
}

#[test]
fn checkpoint_json_matches_its_golden_hash() {
    let fresh = checkpoint_hashes();
    let printed = table(&fresh);
    for (i, row) in fresh.iter().enumerate() {
        for (j, &hash) in row.iter().enumerate() {
            assert!(
                hash == GOLDEN[i][j],
                "{} at {} of completion: hash 0x{hash:016x} != golden 0x{:016x}\nfresh table:\n[\n{printed}]",
                CONFIGS[i],
                CAPTURE_AT[j],
                GOLDEN[i][j],
            );
        }
    }
}

#[test]
fn arrival_state_json_matches_its_golden_hash() {
    let fresh = arrival_hashes();
    let printed = table(&fresh);
    for (i, row) in fresh.iter().enumerate() {
        for (j, &hash) in row.iter().enumerate() {
            assert!(
                hash == ARRIVAL_GOLDEN[i][j],
                "{} after {} arrivals: hash 0x{hash:016x} != golden 0x{:016x}\n\
                 fresh table:\n[\n{printed}]",
                PROCESSES[i],
                ARRIVALS_BEFORE[j],
                ARRIVAL_GOLDEN[i][j],
            );
        }
    }
}

/// The hash must see enough of each capture to tell them apart: a table
/// of collisions would pin nothing.
#[test]
fn golden_hashes_are_distinct() {
    let mut all: Vec<u64> = GOLDEN
        .iter()
        .flatten()
        .chain(ARRIVAL_GOLDEN.iter().flatten())
        .copied()
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 7 * 5 + 2 * 3);
}
