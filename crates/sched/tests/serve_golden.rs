//! Golden outcomes for the serve loop behind `Scheduler::try_run`.
//!
//! 96 seeded scenarios run through `try_run`: 6 seeds × 2 policies × 8
//! configurations. Five configurations install no `AdmissionSpec` (every
//! request is admitted up front and served in priority order), each with a
//! different hazard mix; the other three install one `AdmissionSpec` per
//! overload policy. Losses and downtime come from a `FaultAwareness`;
//! verify-on-dock and dock-controller crashes from the `SimConfig`, drawn
//! as the DES draws them. Every workload submits 60 requests out of arrival
//! order, with many equal arrivals and equal cart counts, so both policies'
//! tie-breaking rules decide real orderings.
//!
//! Each scenario's schedule, admission report and deterministic metrics
//! (every counter, gauge and histogram except the wall-clock
//! `sched.wall_time_s`) fold into one FNV-1a hash, compared against the
//! table below. On a mismatch the test prints the freshly computed table;
//! replace `GOLDEN` with it only when a schedule change is intended.
//!
//! A second hash per scenario pins what the run left in the scheduler's
//! `AvailabilityTracker`: every dataset's transit windows in insertion
//! order, the tracked-dataset count, the track downtime windows and each
//! endpoint's dock downtime windows (`TRACKER_GOLDEN`).

use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, RetryBudgetSpec, TenantId};
use dhl_sched::placement::Placement;
use dhl_sched::scheduler::{
    FaultAwareness, Policy, Priority, ScheduleOutcome, Scheduler, TransferRequest,
};
use dhl_sim::{
    DockControllerFaultSpec, EndpointKind, EndpointSpec, FaultSpec, IntegritySpec, ReliabilitySpec,
    SimConfig,
};
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_storage::failure::RaidConfig;
use dhl_storage::fnv1a_64;
use dhl_storage::integrity::CorruptionModel;
use dhl_units::{Bytes, Metres, Seconds};

const SEEDS: u64 = 6;
const POLICIES: [Policy; 2] = [Policy::PriorityFifo, Policy::ShortestJobFirst];
const MIXES: [&str; 8] = [
    "plain",
    "loss+downtime",
    "reshipment",
    "dock-crash",
    "all-hazards",
    "reject",
    "shed",
    "degrade+deadlines",
];

/// One row per `(seed, policy)`, one column per entry of `MIXES`.
#[rustfmt::skip]
const GOLDEN: [[u64; 8]; 12] = [
    [0x4eab63fe50a92270, 0x33cb2cd18d65a5db, 0x917a08c4f3133932, 0x433ec1fe23079c2c, 0xfce8e797071953a2, 0x35fd705102c83f67, 0x24248d706d9f0d4c, 0x8cbe8be77bce8075],
    [0x6e2eed2444b86ab0, 0x2e9304a3ab46973d, 0xe8718e2accb94b84, 0xeaf0186dd721a145, 0x39f39c707efa512a, 0x881cbca7cc4fc833, 0xad27bb416f0a3465, 0xdb46d82483a2159f],
    [0xe424cbfac7b684b2, 0xb19f1f7db9eb860b, 0x55e4657dcf166161, 0x4aaa247f9d2ecfa6, 0x7abed2cae276ec2f, 0x203dade8619066c3, 0x75504db2a702c4c7, 0x70f3c3b16e89230d],
    [0xfe871a49e1b6f247, 0x8b0351d0c2e86d29, 0x773d2293e645c729, 0x87c00b5b786246d9, 0xc10d05e94617c307, 0x79c3dd8673f59c1b, 0x448fe6ada5238303, 0x5de9173812913f63],
    [0x425cd9026ecf1975, 0x4b439bfbef1bc74a, 0x45acf33ae28e13d8, 0x3792e2c2184ad70a, 0x0570c57d24854793, 0xda7b05bd3b241d0c, 0x66c6d8ff1da58837, 0xc8972bdf01387129],
    [0x5f403d1d56e8ad0d, 0x0772089d2b5ec739, 0x2d554eb2c6855215, 0x58816c8b93fcfe8b, 0x719b2270f7bb59d2, 0xb6fd449cf205df2a, 0x6180bb6cec7d5a65, 0x0b1818b43a3e015b],
    [0xfad660443b4751c0, 0x46b1f8cbd5fa9433, 0x5221a4db5a969440, 0xdc18ed90c2527dcb, 0x6c066611e3d1fc05, 0x08adc2e6079d4438, 0x7c97104cd4085af2, 0x7339b4eb16696405],
    [0x6415bed09d523727, 0x148159bd4758ea34, 0xb355482fbce6053a, 0x85ebd5978de1d080, 0x93540e8d55a9314e, 0x3eef5ca79b957f61, 0x2c1f91e88ef99759, 0xaa5507efe4d12781],
    [0x10c3271b04bba681, 0x29c5facfe0bdb90c, 0x1df66793b769cac6, 0xd748a20b213f40e8, 0xe4008a0fadbb3ab8, 0x07d9ac591f32f77c, 0x1563d737582b2377, 0xce1f1fb5f8c63860],
    [0xe5e09ece0962b053, 0xe21ed75712ad310d, 0x0ce42f9df8c5ccd4, 0x06e75b545b0608f8, 0xb40960ed8bee41e8, 0xf6b21c438615d10f, 0xcf64e05c4d1ca7f2, 0xc2ab4c8ea2e8385b],
    [0xb5006be09efa484c, 0x16c44a08fc1ccebe, 0xe420f7378473dac0, 0xe063798c93e50def, 0xf23abdde5f724016, 0xbd7a7490ead28d62, 0x109c7621ee08779b, 0x39876d93514c6858],
    [0x369885cc41870b2b, 0x50b5e033df5d8c2b, 0x359ce937d6f6ff3a, 0xb28a372c682572b3, 0x5ed0ab6af3410ca4, 0xc5b39baebeabadc2, 0x242c3e5f6fb030cf, 0x24b517f434f823e2],
];

/// Same layout as `GOLDEN`, for the availability tracker.
#[rustfmt::skip]
const TRACKER_GOLDEN: [[u64; 8]; 12] = [
    [0x31869afd7bfb53e9, 0x00b0379506aa11e3, 0xbda3492dd5f258eb, 0x4cb38a0275ea153b, 0x4a10350aa1932252, 0x11722a4b3e8199a4, 0x2a6571992e3b0200, 0xe4864638e2b14d40],
    [0x7218052e2ed9f042, 0xc0be8ccf0ee3412a, 0x739cb1ce8fd290b6, 0x5876da3bc38f49cb, 0x03d47860dadd6164, 0xefcd463e9b9fc41d, 0xee4b53230de6c234, 0x2dd61bdada857502],
    [0xa4ce061df5ace653, 0x7abc71f3a8fbedd1, 0x906554cbfb67fbad, 0x99125c34ff08ef57, 0x14dea4990573dea1, 0x59cd3a56d31adaa8, 0xa6deb97061064985, 0x36e294581e200b06],
    [0x64357d4d46e58798, 0xb0907b91233b602c, 0xe1b9e5f1e1d8ccd9, 0x0079631355211bbe, 0x20f837fef48a8475, 0xaae9f0d5bcce0230, 0x4d2f2d0ca7bafcc1, 0x3d9b80f615ea617f],
    [0xbb2354890f96d400, 0xaa8c4f2d25a6218d, 0xdb3560d77d0936ae, 0xb059696a780758e8, 0x6533aae0b436a13a, 0x4ac069bc54c57224, 0x20cc12acd15e16ed, 0x90034e6c5ebf08ca],
    [0xde6c8fe159c0d0cc, 0x56dd6172cfa966d5, 0x9931ec2b36db9b3a, 0x248b1af5346b7488, 0x35c2ce392e3cf3ad, 0xb1e30f3a426675f1, 0xe9f33cbf614e9958, 0x86520535dff525e0],
    [0xfb73196e2c373109, 0xd53ad065c5308fb2, 0x93a70a96337277ff, 0x489b7f90d142557e, 0xd19438977d2c297c, 0x52fdc03176eda7bb, 0x7d03f544bdea23e9, 0x9c49dfaa673ace34],
    [0x2bb6a2f578688cb9, 0x11f9c5af42ad0aef, 0xc4d4255f87f79c9e, 0x9ba7c31ca22f7ae2, 0x1247e2e343f622a9, 0xb75044d5604f5188, 0x26f873cce440b1bd, 0x59a4f7e8e5afc3e9],
    [0xdfe378a9fd00b16b, 0x748d60fd19e8d19c, 0xf43c90dcc90b96ce, 0x46fd7dc948c09091, 0x0070ae0015fa5420, 0xe216ad5dfa5148db, 0xb71614a4d8ab8280, 0xc88568919f511321],
    [0x6cb5334b87f7abcc, 0x86988509bfaf5489, 0x5d766e24106d993d, 0xb90abd4059a2bad0, 0xb9f5c0dd68d43db1, 0x9ce03226c695a0f7, 0x9b610a61c36ac1ed, 0x994a171aef4c8db9],
    [0x9e44168e3b8c6b37, 0xce637540b887e16d, 0x5bc3be59f00ee962, 0x3720545ded6242f9, 0x3d9235531eafa92e, 0x20441c08f1050476, 0x88eea4a9eb709341, 0xa927c6eec5009386],
    [0xf377e80027cb1172, 0x3b2e0c8f0502d917, 0xc38d9bd7d1ed6114, 0x38c0427cd88a3d32, 0xe0a2166c26d0c265, 0x0f4e2fd13e9f681b, 0x9bfe8486e6b3a55a, 0x1c3ab9861a3de30c],
];

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn dataset(tb: f64) -> Dataset {
    Dataset {
        name: "golden".into(),
        size: Bytes::from_terabytes(tb),
        kind: DatasetKind::BigData,
    }
}

/// The paper's single-rack track plus a one-dock rack further out, so
/// requests compete for two destinations with different trip costs.
fn config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.endpoints.push(EndpointSpec {
        position: Metres::new(800.0),
        docks: 1,
        kind: EndpointKind::Rack,
    });
    cfg
}

/// 60 requests over 16 distinct arrival instants, submitted in generation
/// (not arrival) order. Datasets of 1, 1, 2 and 3 carts make equal cart
/// counts common; two thirds of the requests carry a deadline.
fn workload(seed: u64) -> (Placement, Vec<TransferRequest>) {
    let mut placement = Placement::new(Bytes::from_terabytes(256.0));
    let ids: Vec<_> = [100.0, 200.0, 400.0, 700.0]
        .iter()
        .map(|&tb| placement.store(dataset(tb)))
        .collect();
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let requests = (0..60)
        .map(|_| {
            let arrival = (xorshift(&mut rng) % 16) as f64 * 12.5;
            let priority = match xorshift(&mut rng) % 3 {
                0 => Priority::Background,
                1 => Priority::Normal,
                _ => Priority::Urgent,
            };
            let req = TransferRequest::new(
                ids[(xorshift(&mut rng) % 4) as usize],
                1 + (xorshift(&mut rng) % 2) as usize,
                priority,
                Seconds::new(arrival),
            )
            .with_dwell(Seconds::new((xorshift(&mut rng) % 3) as f64 * 2.5))
            .with_tenant(TenantId((xorshift(&mut rng) % 4) as u32));
            let slack = 60.0 + (xorshift(&mut rng) % 40) as f64 * 25.0;
            if xorshift(&mut rng).is_multiple_of(3) {
                req
            } else {
                req.with_deadline(Seconds::new(arrival + slack))
            }
        })
        .collect();
    (placement, requests)
}

/// `config()` under the `SimConfig` hazards of `mix`: verify-on-dock,
/// dock-controller crashes, or both.
fn hazard_config(seed: u64, mix: &str) -> SimConfig {
    let (verify, crash) = match mix {
        "reshipment" => (true, false),
        "dock-crash" => (false, true),
        "plain" | "loss+downtime" => (false, false),
        _ => (true, true),
    };
    let mut cfg = config();
    // A reshipped shard gets a second attempt.
    cfg.faults = (verify || crash).then(|| FaultSpec {
        max_delivery_attempts: 2,
        ..FaultSpec::recovery_only()
    });
    if verify {
        // A 4 s scrub per full cart; each 8 TB shard corrupt with
        // probability 4 %, and two of them rebuilt from parity: about 14 %
        // of full carts are reshipped, and 59 % of the rest rebuilt.
        cfg.integrity = Some(IntegritySpec {
            corruption: CorruptionModel {
                mating_error_per_cycle: 0.04,
                ..CorruptionModel::disabled()
            },
            verify_bandwidth_bytes_per_second: 64e12,
            reconstruct_bandwidth_bytes_per_second: 4e12,
            raid: RaidConfig::new(30, 2).expect("valid layout"),
            seed: seed ^ 0x22,
            ..IntegritySpec::typical()
        });
    }
    if let (true, Some(faults)) = (crash, cfg.faults.as_mut()) {
        faults.dock_controller = Some(DockControllerFaultSpec {
            crash_probability_per_docking: 0.2,
            ..DockControllerFaultSpec::journal_replay()
        });
        // The reliability seed seeds the fault stream the crashes draw from.
        cfg.reliability = Some(ReliabilitySpec {
            seed: seed ^ 0x33,
            ..ReliabilitySpec::typical()
        });
    }
    cfg
}

fn scheduler(seed: u64, policy: Policy, mix: &str, placement: Placement) -> Scheduler {
    let loss = FaultAwareness {
        loss_probability: 0.15,
        max_attempts: 3,
        seed: seed ^ 0x11,
        downtime: vec![(Seconds::new(40.0), Seconds::new(90.0))],
    };
    let admission = |policy, deadline_aware| AdmissionSpec {
        max_pending_global: 12,
        max_pending_per_tenant: 5,
        policy,
        deadline_aware,
        dock_busy_watermark: 0.75,
        retry: RetryBudgetSpec {
            tokens_per_tenant: 6,
            ..RetryBudgetSpec::default()
        },
        seed,
    };
    let sched = Scheduler::new(hazard_config(seed, mix), placement)
        .unwrap()
        .with_policy(policy);
    let hazards = |s: Scheduler| s.with_faults(loss.clone());
    match mix {
        "plain" | "reshipment" | "dock-crash" => sched,
        "loss+downtime" => sched.with_faults(loss.clone()),
        "all-hazards" => hazards(sched),
        "reject" => hazards(sched).with_admission(admission(OverloadPolicy::Reject, false)),
        "shed" => {
            hazards(sched).with_admission(admission(OverloadPolicy::ShedLowestPriority, false))
        }
        "degrade+deadlines" => {
            hazards(sched).with_admission(admission(OverloadPolicy::DegradeToBestEffort, true))
        }
        other => unreachable!("unknown mix {other}"),
    }
}

/// Little-endian byte image of everything the hash covers.
#[derive(Default)]
struct Image(Vec<u8>);

impl Image {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
}

fn digest(out: &ScheduleOutcome) -> u64 {
    let mut d = Image::default();
    d.u64(out.completed.len() as u64);
    for r in &out.completed {
        d.u64(r.id.0);
        d.f64(r.started.seconds());
        d.f64(r.delivered.seconds());
        d.f64(r.completed.seconds());
        d.u64(r.deliveries);
        d.f64(r.energy.value());
        d.u64(r.redeliveries);
        d.u64(r.reshipments);
        d.u64(r.abandoned);
        d.u64(r.dock_crashes);
    }
    d.f64(out.makespan.seconds());
    d.f64(out.total_energy.value());
    d.f64(out.track_utilisation);
    match &out.admission {
        None => d.u64(0),
        Some(a) => {
            d.u64(1);
            for v in [
                a.offered,
                a.admitted,
                a.served,
                a.rejected_queue_full,
                a.rejected_deadline,
                a.rejected_backpressure,
                a.shed,
                a.degraded,
                a.retries,
                a.retry_tokens_exhausted,
                a.abandoned_shards,
                a.deadline_hits,
                a.deadline_misses,
            ] {
                d.u64(v);
            }
            d.f64(a.offered_bytes);
            d.f64(a.delivered_bytes);
            d.f64(a.goodput_bytes_per_s);
            d.u64(a.rejected_ids.len() as u64);
            a.rejected_ids.iter().for_each(|id| d.u64(id.0));
            d.u64(a.shed_ids.len() as u64);
            a.shed_ids.iter().for_each(|id| d.u64(id.0));
            d.u64(a.tenants.len() as u64);
            for t in &a.tenants {
                d.u64(u64::from(t.tenant.0));
                for v in [
                    t.offered,
                    t.admitted,
                    t.served,
                    t.rejected,
                    t.shed,
                    t.degraded,
                    t.retries,
                    t.abandoned_shards,
                    t.deadline_hits,
                    t.deadline_misses,
                    t.latency.count,
                ] {
                    d.u64(v);
                }
                for v in [
                    t.delivered_bytes,
                    t.latency.mean,
                    t.latency.p50,
                    t.latency.p95,
                    t.latency.p99,
                    t.latency.max,
                ] {
                    d.f64(v);
                }
            }
        }
    }
    let m = &out.metrics;
    for (name, v) in &m.counters {
        d.str(name);
        d.u64(*v);
    }
    for (name, v) in m.gauges.iter().filter(|(n, _)| n != "sched.wall_time_s") {
        d.str(name);
        d.f64(*v);
    }
    for h in &m.histograms {
        d.str(&h.name);
        d.u64(h.count);
        for v in [h.min, h.max, h.mean, h.p50, h.p95, h.sum] {
            d.f64(v);
        }
        for &(slot, count) in &h.buckets {
            d.u64(u64::from(slot));
            d.u64(count);
        }
    }
    fnv1a_64(&d.0)
}

fn windows(d: &mut Image, windows: &[(f64, f64)]) {
    d.u64(windows.len() as u64);
    for &(from, to) in windows {
        d.f64(from);
        d.f64(to);
    }
}

fn tracker_digest(sched: &Scheduler) -> u64 {
    let tracker = sched.availability();
    let mut d = Image::default();
    for id in sched.placement().dataset_ids() {
        d.u64(id.0);
        windows(&mut d, tracker.transit_windows(id));
    }
    d.u64(tracker.tracked_datasets() as u64);
    windows(&mut d, tracker.downtime_windows());
    for endpoint in 0..config().endpoints.len() {
        windows(&mut d, tracker.dock_downtime_windows(endpoint));
    }
    fnv1a_64(&d.0)
}

/// Runs one scenario: the scheduler it ran on, and its outcome.
fn run(seed: u64, policy: Policy, mix: &str) -> (Scheduler, ScheduleOutcome) {
    let (placement, requests) = workload(seed);
    let mut sched = scheduler(seed, policy, mix, placement);
    for r in requests {
        sched.submit(r);
    }
    let out = sched.try_run().unwrap();
    assert_eq!(
        out.admission.is_some(),
        sched.admission().is_some(),
        "seed {seed}, {policy:?}, {mix}"
    );
    (sched, out)
}

/// Runs every scenario once: `(schedule hashes, tracker hashes)`, one row
/// per `(seed, policy)`.
fn fresh_tables() -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let (mut outcomes, mut trackers) = (Vec::new(), Vec::new());
    for seed in 0..SEEDS {
        for policy in POLICIES {
            let (row, tracker_row): (Vec<u64>, Vec<u64>) = MIXES
                .iter()
                .map(|mix| {
                    let (sched, out) = run(seed, policy, mix);
                    (digest(&out), tracker_digest(&sched))
                })
                .unzip();
            outcomes.push(row);
            trackers.push(tracker_row);
        }
    }
    (outcomes, trackers)
}

fn assert_table(name: &str, fresh: &[Vec<u64>], golden: &[[u64; 8]; 12]) {
    let table: String = fresh
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|h| format!("0x{h:016x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect();
    for (i, row) in fresh.iter().enumerate() {
        for (j, &hash) in row.iter().enumerate() {
            assert!(
                hash == golden[i][j],
                "{name}: seed {}, {:?}, {}: hash 0x{hash:016x} != golden 0x{:016x}\n\
                 fresh table:\n[\n{table}]",
                i / 2,
                POLICIES[i % 2],
                MIXES[j],
                golden[i][j],
            );
        }
    }
}

#[test]
fn every_scenario_matches_its_golden_hash() {
    let (outcomes, trackers) = fresh_tables();
    assert_table("GOLDEN", &outcomes, &GOLDEN);
    assert_table("TRACKER_GOLDEN", &trackers, &TRACKER_GOLDEN);
}

/// Summed over seeds and policies, each column with `SimConfig` hazards
/// still crashes dock controllers, reships and rebuilds payloads wherever
/// its configuration asks for them, so the table covers every hazard path.
#[test]
fn hazard_columns_exercise_every_hazard_path() {
    for mix in MIXES {
        let (mut crashes, mut reshipments, mut rebuilds) = (0, 0, 0);
        for seed in 0..SEEDS {
            for policy in POLICIES {
                let metrics = run(seed, policy, mix).1.metrics;
                crashes += metrics.counter("sched.dock_crashes").unwrap_or(0);
                reshipments += metrics.counter("sched.reshipments").unwrap_or(0);
                rebuilds += (metrics.histogram("sched.reconstruction_s")).map_or(0, |h| h.count);
            }
        }
        let cfg = hazard_config(0, mix);
        let crash = (cfg.faults.as_ref()).is_some_and(|f| f.dock_controller.is_some());
        let verify = cfg.integrity.is_some();
        let seen = (crashes > 0, reshipments > 0, rebuilds > 0);
        assert_eq!(
            seen,
            (crash, verify, verify),
            "{mix}: {crashes} crashes, {reshipments} reshipments, {rebuilds} rebuilds"
        );
    }
}

/// The hash must see enough of each outcome to tell the scenarios apart:
/// a table of collisions would pin nothing.
#[test]
fn golden_hashes_are_distinct() {
    for table in [GOLDEN, TRACKER_GOLDEN] {
        let mut all: Vec<u64> = table.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 96);
    }
}

/// FNV-1a over the NDJSON export of each snapshot two back-to-back runs of
/// one scheduler return, less the wall-clock `sched.wall_time_s` gauge: the
/// second run's snapshot holds both runs' counts, because the registry
/// accumulates across runs. One lossy, overloaded, deadline-aware
/// open-loop scheduler, then one closed-loop scheduler under every hazard.
const METRICS_GOLDEN: [[u64; 2]; 2] = [
    [0x6d4ea31a4869e67c, 0x8b27dfb7a2e84a5c],
    [0x39719717c78ee27a, 0x768e1f483cef3698],
];

#[test]
fn metrics_exports_match_their_golden_hashes() {
    let fresh: Vec<[u64; 2]> = ["degrade+deadlines", "all-hazards"]
        .iter()
        .map(|mix| {
            let (placement, requests) = workload(3);
            let mut sched = scheduler(3, Policy::PriorityFifo, mix, placement);
            [(); 2].map(|()| {
                for r in requests.clone() {
                    sched.submit(r);
                }
                let mut metrics = sched.try_run().unwrap().metrics;
                metrics
                    .gauges
                    .retain(|(name, _)| name != "sched.wall_time_s");
                fnv1a_64(metrics.to_ndjson().as_bytes())
            })
        })
        .collect();
    let table: Vec<String> = fresh
        .iter()
        .map(|[a, b]| format!("    [0x{a:016x}, 0x{b:016x}],"))
        .collect();
    assert_eq!(fresh, METRICS_GOLDEN, "fresh table:\n{}", table.join("\n"));
}
