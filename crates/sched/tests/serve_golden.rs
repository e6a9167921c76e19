//! Golden outcomes for the serve loop behind `Scheduler::try_run`.
//!
//! 96 seeded scenarios run through `try_run`: 6 seeds × 2 policies × 8
//! configurations. Five configurations install no `AdmissionSpec` (every
//! request is admitted up front and served in priority order), each with a
//! different hazard mix; the other three install one `AdmissionSpec` per
//! overload policy. Every workload submits 60 requests out of arrival
//! order, with many equal arrivals and equal cart counts, so both policies'
//! tie-breaking rules decide real orderings.
//!
//! Each scenario's schedule, admission report and deterministic metrics
//! (every counter, gauge and histogram except the wall-clock
//! `sched.wall_time_s`) fold into one FNV-1a hash, compared against the
//! table below. On a mismatch the test prints the freshly computed table;
//! replace `GOLDEN` with it only when a schedule change is intended.

use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, RetryBudgetSpec, TenantId};
use dhl_sched::placement::Placement;
use dhl_sched::scheduler::{
    DockRecoveryAwareness, FaultAwareness, IntegrityAwareness, Policy, Priority, ScheduleOutcome,
    Scheduler, TransferRequest,
};
use dhl_sim::{EndpointKind, EndpointSpec, SimConfig};
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_storage::fnv1a_64;
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
    [0x4eab63fe50a92270, 0x33cb2cd18d65a5db, 0x6351d5a541bc0c49, 0x5177da7d36ad4312, 0x6d2ac5d3bc2517c8, 0xfa3824d83f1ab8ca, 0x9ad81a32f8228b6f, 0x32f55fd0a42d4ef9],
    [0x6e2eed2444b86ab0, 0x2e9304a3ab46973d, 0xdb55717f0f842d4b, 0xe41411f7d55bb4a9, 0x4154ed8635fbf4e5, 0x9352c2acada7f231, 0x2f7a84c39311b4f6, 0x545c4bee0e45dcdb],
    [0xe424cbfac7b684b2, 0xb19f1f7db9eb860b, 0xa6efeae9f87c1396, 0xf04e4edb806e7b98, 0x8711549f7055986c, 0x7374cfde7dc78c4c, 0x6dcd4f9c2336f46c, 0xef8f52384a285fa5],
    [0xfe871a49e1b6f247, 0x8b0351d0c2e86d29, 0xfaf31d0c22e9da74, 0x2527b0d4c96a0c4a, 0xc5eebc95a8d9c497, 0x88dcdaf56f06b873, 0x3c1b628a949b3845, 0xecbb7d0cab356143],
    [0x425cd9026ecf1975, 0x4b439bfbef1bc74a, 0x4d1fa39ac8840795, 0xe935fb129ddd9ec6, 0x41b96a5f6ada1ca0, 0x8fd01921d64424c8, 0xf8068e42aa911d4b, 0x94903284eeb08183],
    [0x5f403d1d56e8ad0d, 0x0772089d2b5ec739, 0xbe4374ea0980b437, 0x3b8d4bec98304a8f, 0xa45def70c2f2c679, 0xd247cb5b2662b5d2, 0x69376f945c71e0c8, 0x1afd26ea2764d2be],
    [0xfad660443b4751c0, 0x46b1f8cbd5fa9433, 0x8244e4b2c5cf82dd, 0x6a96834fdba5569f, 0x8f99e8ca092ecc38, 0xa395315758f0f302, 0x8db6d18887aa1bd3, 0x130918b7c81648de],
    [0x6415bed09d523727, 0x148159bd4758ea34, 0xae5e7816833f3f6b, 0x7eebbe687440d551, 0xba71159d7724dfb7, 0x48b279e61113f087, 0x3b4b14c27a85cbb8, 0xba0fa5db733c6cb6],
    [0x10c3271b04bba681, 0x29c5facfe0bdb90c, 0x0a66562ad98cf202, 0x65819b85414eac3e, 0xc97b2ea0e4879e8f, 0x5071b39809d7d00e, 0x9a30d56a2039afe9, 0x2adbab24c6d86bb1],
    [0xe5e09ece0962b053, 0xe21ed75712ad310d, 0xd0ed403c876dd318, 0x317dc07c171c1de6, 0xb89c90cf2a4b4387, 0x456a013295b703e2, 0x8e9ea45678e420df, 0xa29ef8f4c80e4050],
    [0xb5006be09efa484c, 0x16c44a08fc1ccebe, 0x8de741d07cfac3f1, 0x7f130930f39d11d9, 0xb3b94acfce52f0f1, 0x48def41d757a1045, 0xb6a2d1debb8896b4, 0xeccf2ac6e0c30eb3],
    [0x369885cc41870b2b, 0x50b5e033df5d8c2b, 0xc24746036781f9dd, 0x0ed5f4947be5483c, 0xab702aefc037fc05, 0x0582e845b6af09a2, 0x1760b7d2f3f9bee0, 0xac1c1469ebb1f9f8],
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

fn scheduler(seed: u64, policy: Policy, mix: &str, placement: Placement) -> Scheduler {
    let loss = FaultAwareness {
        loss_probability: 0.15,
        max_attempts: 3,
        seed: seed ^ 0x11,
        downtime: vec![(Seconds::new(40.0), Seconds::new(90.0))],
    };
    let reship = IntegrityAwareness {
        reshipment_probability: 0.15,
        verify_time: Seconds::new(4.0),
        max_attempts: 2,
        seed: seed ^ 0x22,
    };
    let crash = DockRecoveryAwareness {
        crash_probability_per_docking: 0.2,
        recovery_time: Seconds::new(30.0),
        seed: seed ^ 0x33,
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
    let sched = Scheduler::new(config(), placement)
        .unwrap()
        .with_policy(policy);
    let hazards = |s: Scheduler| {
        s.with_faults(loss.clone())
            .with_integrity(reship.clone())
            .with_dock_recovery(crash.clone())
    };
    match mix {
        "plain" => sched,
        "loss+downtime" => sched.with_faults(loss.clone()),
        "reshipment" => sched.with_integrity(reship.clone()),
        "dock-crash" => sched.with_dock_recovery(crash.clone()),
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

#[test]
fn every_scenario_matches_its_golden_hash() {
    let mut fresh = Vec::new();
    for seed in 0..SEEDS {
        for policy in POLICIES {
            let row: Vec<u64> = MIXES
                .iter()
                .map(|mix| {
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
                    digest(&out)
                })
                .collect();
            fresh.push(row);
        }
    }
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
                hash == GOLDEN[i][j],
                "seed {}, {:?}, {}: hash 0x{hash:016x} != golden 0x{:016x}\n\
                 fresh table:\n[\n{table}]",
                i / 2,
                POLICIES[i % 2],
                MIXES[j],
                GOLDEN[i][j],
            );
        }
    }
}

/// The hash must see enough of each outcome to tell the scenarios apart:
/// a table of collisions would pin nothing.
#[test]
fn golden_hashes_are_distinct() {
    let mut all: Vec<u64> = GOLDEN.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 96);
}
