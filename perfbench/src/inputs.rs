//! Seeded workload inputs.
//!
//! A workload fixes the *size* of every input (racks, docks, carts, bytes
//! owed, datasets, arrivals), so one seed costs about as
//! much host time as another; the seed draws everything else (rack
//! spacing, how the bytes split across racks, arrival times, tenants,
//! priorities, which dataset each request asks for, fault streams).

use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, RetryBudgetSpec, TenantId};
use dhl_sched::placement::Placement;
use dhl_sched::scheduler::{FaultAwareness, Priority, TransferRequest};
use dhl_sim::{
    ArrivalGenerator, ArrivalSpec, EndpointId, EndpointKind, EndpointSpec, FaultSpec,
    IntegritySpec, ReliabilitySpec, SimConfig,
};
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_units::{Bytes, Metres, Seconds};

/// Host-time shape of one workload; see `BENCHMARK.json` for why each
/// exists.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// Fault-free campus, serving below saturation: the fast paths only.
    Clean,
    /// Cart stalls, tube leaks, dock-controller crashes, verify-on-dock and
    /// 4x overload with deadlines: the recovery, retry, reject and shed
    /// paths.
    Faulty,
    /// A 16-rack, 128-cart campus and 4096 tenants with a deep backlog.
    Large,
}

impl Workload {
    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "clean" => Some(Self::Clean),
            "faulty" => Some(Self::Faulty),
            "large" => Some(Self::Large),
            _ => None,
        }
    }
}

/// A splitmix64 stream: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A multi-rack campus mission: the system and the bytes owed to each rack.
pub struct Campus {
    pub cfg: SimConfig,
    pub demands: Vec<(EndpointId, Bytes)>,
}

/// An open-loop serving run: the system, the data placement, and the
/// arrivals in submission order.
pub struct Serving {
    pub cfg: SimConfig,
    pub placement: Placement,
    pub requests: Vec<TransferRequest>,
    pub admission: AdmissionSpec,
    pub faults: Option<FaultAwareness>,
}

/// Everything one run of the benchmark feeds the program.
pub struct Inputs {
    pub campus: Campus,
    pub serving: Serving,
    /// The order the paper's tables and figures are regenerated in, as
    /// indices into `dhl_bench::all_reports()`.
    pub paper_order: Vec<usize>,
}

struct Shape {
    racks: usize,
    carts: u32,
    campus_petabytes: f64,
    faults: bool,
    arrivals: usize,
    tenants: u32,
    /// Offered load as a multiple of the track's saturation rate.
    load: f64,
    max_pending_global: usize,
    max_pending_per_tenant: usize,
    overload: OverloadPolicy,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::Clean => Shape {
            racks: 12,
            carts: 24,
            campus_petabytes: 576.0,
            faults: false,
            arrivals: 12_000,
            tenants: 64,
            load: 0.8,
            max_pending_global: 1 << 20,
            max_pending_per_tenant: 1 << 20,
            overload: OverloadPolicy::Reject,
        },
        Workload::Faulty => Shape {
            faults: true,
            load: 4.0,
            max_pending_global: 256,
            max_pending_per_tenant: 64,
            overload: OverloadPolicy::ShedLowestPriority,
            ..shape(Workload::Clean)
        },
        Workload::Large => Shape {
            racks: 16,
            carts: 128,
            campus_petabytes: 1024.0,
            faults: false,
            arrivals: 32_768,
            tenants: 4_096,
            load: 2.0,
            max_pending_global: 1 << 14,
            max_pending_per_tenant: 8,
            overload: OverloadPolicy::ShedLowestPriority,
        },
    }
}

/// Generates the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, reports: usize) -> Inputs {
    let shape = shape(workload);
    let mut rng = Rng::new(seed);
    let campus = campus(&shape, &mut rng);
    let serving = serving(&shape, &mut rng);
    // Fisher-Yates shuffle of the regeneration order.
    let mut paper_order: Vec<usize> = (0..reports).collect();
    for i in (1..paper_order.len()).rev() {
        paper_order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Inputs {
        campus,
        serving,
        paper_order,
    }
}

fn campus(shape: &Shape, rng: &mut Rng) -> Campus {
    let mut cfg = SimConfig::paper_default();
    cfg.num_carts = shape.carts;
    cfg.endpoints = vec![EndpointSpec {
        position: Metres::ZERO,
        docks: shape.carts,
        kind: EndpointKind::Library,
    }];
    let mut position = 0.0;
    for _ in 0..shape.racks {
        position += rng.range(250.0, 350.0);
        cfg.endpoints.push(EndpointSpec {
            position: Metres::new(position),
            docks: 4,
            kind: EndpointKind::Rack,
        });
    }
    if shape.faults {
        cfg.reliability = Some(ReliabilitySpec {
            seed: rng.next_u64(),
            ..ReliabilitySpec::typical()
        });
        let mut faults = FaultSpec::stress();
        // Make every fault class routine within one mission: many short
        // faults rather than a few long ones, so that how much work a
        // mission does varies little from seed to seed. Give redelivery
        // enough attempts that no shard is ever abandoned.
        if let Some(stall) = faults.cart_stall.as_mut() {
            stall.probability_per_movement = 0.05;
            stall.repair_time = Seconds::new(12.0);
        }
        if let Some(leak) = faults.repressurisation.as_mut() {
            leak.probability_per_movement = 0.05;
            leak.duration = Seconds::new(24.0);
        }
        if let Some(dock) = faults.dock_controller.as_mut() {
            dock.crash_probability_per_docking = 0.2;
            dock.journal_replay_time = Seconds::new(8.0);
        }
        faults.max_delivery_attempts = 16;
        cfg.faults = Some(faults);
        cfg.integrity = Some(IntegritySpec {
            seed: rng.next_u64(),
            ..IntegritySpec::typical()
        });
    }

    // Split the campus total across the racks in whole terabytes.
    let weights: Vec<f64> = (0..shape.racks).map(|_| rng.range(0.75, 1.25)).collect();
    let total_weight: f64 = weights.iter().sum();
    let total_tb = shape.campus_petabytes * 1_000.0;
    let demands = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let tb = (total_tb * w / total_weight).round();
            (i + 1, Bytes::from_terabytes(tb))
        })
        .collect();
    Campus { cfg, demands }
}

/// One round trip to the paper system's rack at 500 m, in seconds: the
/// track-time a one-cart request holds.
const CART_SERVICE_S: f64 = 17.2;

fn serving(shape: &Shape, rng: &mut Rng) -> Serving {
    let cfg = SimConfig::paper_default();
    let mut placement = Placement::new(cfg.cart_capacity);
    let mut datasets = Vec::new();
    let mut total_carts = 0.0;
    for i in 0..8 {
        let carts = 1 + i % 3;
        total_carts += f64::from(carts);
        datasets.push(placement.store(Dataset {
            name: format!("dataset-{i}").into(),
            size: Bytes::from_terabytes(cfg.cart_capacity.terabytes() * f64::from(carts)),
            kind: DatasetKind::BigData,
        }));
    }
    let mean_service_s = total_carts / datasets.len() as f64 * CART_SERVICE_S;
    let rate = shape.load / mean_service_s;

    let mut spec =
        ArrivalSpec::poisson(rate, Seconds::new(1e15), rng.next_u64()).with_tenants(shape.tenants);
    if shape.faults {
        // Slack for about a full queue's backlog: the queue fills to its
        // bound, and arrivals behind the longest backlogs miss their
        // deadline at the door.
        let slack = shape.max_pending_global as f64 * mean_service_s;
        spec = spec.with_deadlines(Seconds::new(slack), 0.5);
    }
    let requests = ArrivalGenerator::new(&spec)
        .take(shape.arrivals)
        .map(|arrival| {
            let dataset = datasets[rng.below(datasets.len() as u64) as usize];
            let priority = match rng.below(3) {
                0 => Priority::Background,
                1 => Priority::Normal,
                _ => Priority::Urgent,
            };
            let request = TransferRequest::new(dataset, 1, priority, arrival.at)
                .with_tenant(TenantId(arrival.tenant));
            match arrival.deadline {
                Some(deadline) => request.with_deadline(deadline),
                None => request,
            }
        })
        .collect();

    let admission = AdmissionSpec {
        max_pending_global: shape.max_pending_global,
        max_pending_per_tenant: shape.max_pending_per_tenant,
        policy: shape.overload,
        deadline_aware: shape.faults,
        retry: RetryBudgetSpec {
            tokens_per_tenant: 1 << 12,
            max_attempts_per_request: 6,
            ..RetryBudgetSpec::default()
        },
        seed: rng.next_u64(),
        ..AdmissionSpec::default()
    };
    let faults = shape.faults.then(|| FaultAwareness {
        loss_probability: 0.1,
        max_attempts: 6,
        seed: rng.next_u64(),
        downtime: Vec::new(),
    });
    Serving {
        cfg,
        placement,
        requests,
        admission,
        faults,
    }
}
