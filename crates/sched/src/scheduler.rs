//! Transfer-request scheduling onto the shared track (§III-D).
//!
//! "To avoid delays, the fact that a cart can only be in one place at a
//! time needs to be considered." The scheduler is a conservative list
//! scheduler: requests are ordered by priority then arrival; each request's
//! cart movements are serialised onto the single track (matching the
//! analytical model's accounting) with docking-station limits at the
//! destination, and every cart returns to the library after its dwell.

use std::cmp::Ordering;

use dhl_obs::{Histogram, MetricsRegistry, MetricsSnapshot, SloSummary, Stopwatch};
use dhl_rng::{DeterministicRng, Rng};

use dhl_sim::movement::MovementTable;
use dhl_sim::{ConfigError, DockControllerFaultSpec, EndpointKind, SimConfig};
use dhl_units::{Bytes, Joules, Seconds};

use crate::admission::{
    retry_backoff, AdmissionReport, AdmissionSpec, OverloadPolicy, TenantId, TenantSlo,
};
use crate::availability::AvailabilityTracker;
use crate::metrics::SchedMetrics;
use crate::placement::{DatasetId, Placement};
use crate::recycle;
use crate::service_queue::{DockBank, IdTable, ServiceEntry, ServiceQueue};

/// Request priority classes.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Priority {
    /// Background work (bulk backups).
    Background,
    /// Default.
    Normal,
    /// Latency-sensitive (a training job blocked on data).
    Urgent,
}

/// Ordering discipline within a priority class.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Policy {
    /// First come, first served (the default).
    #[default]
    PriorityFifo,
    /// Shortest job (fewest carts) first — minimises mean delivery latency
    /// at the cost of starving large transfers behind a stream of small
    /// ones.
    ShortestJobFirst,
}

/// Opaque handle for a submitted request.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RequestId(pub u64);

/// A client's request to materialise a dataset at a rack endpoint.
///
/// All fields are plain values, so the request is `Copy`: the serving path
/// moves requests through its queues by bitwise copy instead of `clone()`
/// calls that used to allocate per admission.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TransferRequest {
    /// The dataset to move.
    pub dataset: DatasetId,
    /// Destination endpoint index (must be a rack).
    pub destination: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// When the request arrives.
    pub arrival: Seconds,
    /// How long each cart dwells docked before returning (read time).
    pub dwell: Seconds,
    /// Owning tenant, for admission-control accounting and fairness bounds
    /// (defaults to tenant 0; ignored without an [`AdmissionSpec`]).
    pub tenant: TenantId,
    /// Absolute delivery deadline. Only consulted by deadline-aware
    /// admission ([`AdmissionSpec::deadline_aware`]); `None` means best
    /// effort.
    pub deadline: Option<Seconds>,
}

impl TransferRequest {
    /// A request with zero dwell (pure transfer).
    #[must_use]
    pub fn new(
        dataset: DatasetId,
        destination: usize,
        priority: Priority,
        arrival: Seconds,
    ) -> Self {
        Self {
            dataset,
            destination,
            priority,
            arrival,
            dwell: Seconds::ZERO,
            tenant: TenantId(0),
            deadline: None,
        }
    }

    /// Sets the per-cart docked dwell time.
    #[must_use]
    pub fn with_dwell(mut self, dwell: Seconds) -> Self {
        self.dwell = dwell;
        self
    }

    /// Attributes the request to a tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets an absolute delivery deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Scheduler-level fault awareness: a per-trip loss probability (lost carts
/// re-enter the queue at their original priority and retry), plus known
/// track downtime windows departures must not overlap.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultAwareness {
    /// Probability that a loaded delivery is lost in transit and must be
    /// re-run (clamped into `[0, 1]` at sampling time).
    pub loss_probability: f64,
    /// Attempts per cart before the shard is abandoned. Must be ≥ 1.
    pub max_attempts: u32,
    /// Seed for the deterministic loss-sampling stream.
    pub seed: u64,
    /// Known track outage windows `[from, to)`; departures inside a window
    /// wait for it to clear.
    pub downtime: Vec<(Seconds, Seconds)>,
}

/// Scheduler-level integrity awareness: verify-on-dock dock time plus a
/// per-delivery probability that the scrub rejects the payload and the cart
/// must re-ship it. Rejected deliveries re-enter the queue at their original
/// priority (like in-transit losses), and every extra round trip is recorded
/// in the [`AvailabilityTracker`], so reshipment load is visible to clients
/// asking when their data is at rest.
#[derive(Clone, PartialEq, Debug)]
pub struct IntegrityAwareness {
    /// Probability that verify-on-dock finds corruption beyond the RAID
    /// tolerance and the delivery must be re-shipped (clamped into `[0, 1]`
    /// at sampling time).
    pub reshipment_probability: f64,
    /// Dock time added to every delivery for the checksum scrub. Charged
    /// whether or not the payload passes.
    pub verify_time: Seconds,
    /// Attempts per cart before the shard is abandoned. Must be ≥ 1.
    pub max_attempts: u32,
    /// Seed for the deterministic reshipment-sampling stream (independent of
    /// the fault-awareness loss stream).
    pub seed: u64,
}

impl IntegrityAwareness {
    /// Verification that always passes: charges scrub time, never re-ships.
    #[must_use]
    pub fn verification_only(verify_time: Seconds) -> Self {
        Self {
            reshipment_probability: 0.0,
            verify_time,
            max_attempts: 1,
            seed: 0,
        }
    }
}

/// Scheduler-level dock-controller crash awareness: each loaded docking at a
/// rack may crash the station's controller, stalling the docking for the
/// recovery policy's latency while the dock is out of service. Crash windows
/// feed the [`AvailabilityTracker`] as per-endpoint dock downtime, so
/// clients see exactly when a rack's docks were recovering rather than
/// serving payload.
#[derive(Clone, PartialEq, Debug)]
pub struct DockRecoveryAwareness {
    /// Probability that any single loaded docking crashes the controller
    /// (clamped into `[0, 1]` at sampling time).
    pub crash_probability_per_docking: f64,
    /// Recovery latency charged per crash (already resolved for the policy:
    /// fixed journal-replay time, or payload ÷ scan bandwidth).
    pub recovery_time: Seconds,
    /// Seed for the deterministic crash-sampling stream (independent of the
    /// loss and reshipment streams).
    pub seed: u64,
}

impl DockRecoveryAwareness {
    /// Derives the scheduler-level awareness from the simulator's fault
    /// spec, resolving the policy's recovery latency for carts carrying
    /// `payload_per_cart` bytes with the DES's own
    /// [`DockControllerFaultSpec::recovery_time`].
    #[must_use]
    pub fn from_spec(spec: &DockControllerFaultSpec, payload_per_cart: Bytes, seed: u64) -> Self {
        Self {
            crash_probability_per_docking: spec.crash_probability_per_docking,
            recovery_time: spec.recovery_time(payload_per_cart),
            seed,
        }
    }
}

/// Per-request outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct RequestOutcome {
    /// The request's handle.
    pub id: RequestId,
    /// When its first cart began undocking.
    pub started: Seconds,
    /// When its last shard finished docking at the destination.
    pub delivered: Seconds,
    /// When all its carts were back in the library.
    pub completed: Seconds,
    /// Cart deliveries performed.
    pub deliveries: u64,
    /// Electrical energy across all its movements.
    pub energy: Joules,
    /// Extra round trips caused by in-transit losses (0 without faults).
    pub redeliveries: u64,
    /// Extra round trips caused by verify-on-dock rejections (0 without
    /// integrity awareness).
    pub reshipments: u64,
    /// Shards given up after exhausting their attempt budget.
    pub abandoned: u64,
    /// Dock-controller crashes suffered while this request's carts were
    /// docking (0 without dock-recovery awareness).
    pub dock_crashes: u64,
}

/// Result of running the scheduler to completion.
///
/// Equality compares the *schedule* only: [`ScheduleOutcome::metrics`]
/// carries wall-clock observability data and is excluded from `PartialEq`.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Outcomes in completion order.
    pub completed: Vec<RequestOutcome>,
    /// Total time until the last cart was home.
    pub makespan: Seconds,
    /// Total energy across all requests.
    pub total_energy: Joules,
    /// Fraction of the makespan the track spent occupied.
    pub track_utilisation: f64,
    /// Admission/SLO accounting: present only when the scheduler ran in
    /// open-loop mode (an [`AdmissionSpec`] was installed).
    pub admission: Option<AdmissionReport>,
    /// Observability snapshot: placement-latency histogram, retry and
    /// downtime accounting, wall-clock run time.
    pub metrics: MetricsSnapshot,
}

impl PartialEq for ScheduleOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.completed == other.completed
            && self.makespan == other.makespan
            && self.total_energy == other.total_energy
            && self.track_utilisation == other.track_utilisation
            && self.admission == other.admission
    }
}

/// Errors from submitting or running the scheduler.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum SchedulerError {
    /// The simulator configuration was invalid.
    Config(ConfigError),
    /// A request referenced an unknown dataset.
    UnknownDataset(DatasetId),
    /// A request targeted a non-rack endpoint.
    InvalidDestination(usize),
    /// The placement lost track of a dataset (or one of its carts) between
    /// validation and scheduling — a corrupt data map, surfaced as a typed
    /// error instead of a panic.
    CorruptPlacement(DatasetId),
    /// A request's arrival time was NaN or infinite.
    NonFiniteArrival(Seconds),
    /// A request's dwell was NaN, infinite or negative.
    InvalidDwell(Seconds),
    /// A request's deadline was NaN (`+∞` means no deadline pressure).
    InvalidDeadline(Seconds),
    /// A departure, arrival or return time overflowed (a huge finite dwell).
    NonFiniteSchedule(RequestId),
    /// A [`FaultAwareness::downtime`] window `(from, to)` was not a finite,
    /// ordered interval.
    InvalidDowntime(Seconds, Seconds),
}

impl core::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::UnknownDataset(id) => write!(f, "unknown dataset {id:?}"),
            Self::InvalidDestination(ep) => {
                write!(f, "endpoint {ep} is not a rack endpoint")
            }
            Self::CorruptPlacement(id) => {
                write!(
                    f,
                    "placement lost dataset {id:?} mid-schedule (corrupt data map)"
                )
            }
            Self::NonFiniteArrival(at) => write!(f, "request arrival {at} is not finite"),
            Self::InvalidDwell(d) => write!(f, "request dwell {d} is not finite and ≥ 0"),
            Self::InvalidDeadline(at) => write!(f, "request deadline {at} is NaN"),
            Self::NonFiniteSchedule(id) => write!(f, "request {id:?} overflows the schedule"),
            Self::InvalidDowntime(from, to) => {
                write!(f, "invalid downtime window [{from}, {to})")
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

impl From<ConfigError> for SchedulerError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// A submitted request with its placement-derived stats precomputed at
/// submit time, so neither service ordering nor per-arrival admission pays
/// a placement lookup.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Queued {
    id: RequestId,
    req: TransferRequest,
    /// Cart count of the dataset (`usize::MAX` when unknown at submit; the
    /// pre-run validation pass rejects such requests before it matters).
    carts: usize,
    /// Dataset size in bytes (0.0 when unknown).
    bytes: f64,
}

/// Per-tenant counters the open-loop serve loop updates, retry tokens left,
/// and the tenant's entries in the [`Served`] log (the drain's cursor). The
/// rest of a [`TenantSlo`] comes from those entries, or follows: `admitted =
/// served + shed` (a run ends with nothing pending), `offered = admitted +
/// rejected`, and `retries` = tokens spent.
#[derive(Copy, Clone, Debug, Default)]
struct TenantRow {
    rejected: u64,
    shed: u64,
    degraded: u64,
    abandoned_shards: u64,
    delivered_bytes: f64,
    logged: usize,
    tokens: u32,
}

// A tenant table slot fits one cache line.
const _: () = assert!(std::mem::size_of::<Option<TenantRow>>() <= 64);

/// One served request in the open-loop latency log: its tenant, its latency
/// (NaN, which [`Histogram::record`] skips, if nothing was delivered), and
/// whether it met its deadline if it had one.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Served {
    latency: f64,
    tenant: u32,
    met_deadline: Option<bool>,
}

/// The conservative list scheduler over one DHL.
pub struct Scheduler {
    cfg: SimConfig,
    placement: Placement,
    queue: Vec<Queued>,
    next_id: u64,
    availability: AvailabilityTracker,
    policy: Policy,
    faults: Option<FaultAwareness>,
    integrity: Option<IntegrityAwareness>,
    dock_recovery: Option<DockRecoveryAwareness>,
    admission: Option<AdmissionSpec>,
    metrics: MetricsRegistry,
    /// Pre-interned handles into `metrics`; re-registered whenever the
    /// registry is replaced (`set_metrics_enabled`).
    handles: SchedMetrics,
}

impl Scheduler {
    /// Builds a scheduler over a validated system configuration and a data
    /// placement.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::Config`] if the configuration is invalid.
    pub fn new(cfg: SimConfig, placement: Placement) -> Result<Self, SchedulerError> {
        cfg.validate()?;
        let mut metrics = MetricsRegistry::enabled();
        let handles = SchedMetrics::register(&mut metrics);
        Ok(Self {
            cfg,
            placement,
            queue: recycle::take(&recycle::QUEUES),
            next_id: 0,
            availability: AvailabilityTracker::new(),
            policy: Policy::PriorityFifo,
            faults: None,
            integrity: None,
            dock_recovery: None,
            admission: None,
            metrics,
            handles,
        })
    }

    /// The observability registry (metrics accumulate across runs).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Enables or disables metric recording (clears recorded metrics).
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.metrics = if enabled {
            MetricsRegistry::enabled()
        } else {
            MetricsRegistry::disabled()
        };
        // The fresh registry issued no ids yet: re-intern so every held
        // handle points at a valid slot again.
        self.handles = SchedMetrics::register(&mut self.metrics);
    }

    /// Sets the within-class ordering discipline.
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables fault awareness: per-trip loss retries and downtime routing.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultAwareness) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables integrity awareness: verify-on-dock dock time and reshipment
    /// retries for deliveries the scrub rejects.
    #[must_use]
    pub fn with_integrity(mut self, integrity: IntegrityAwareness) -> Self {
        self.integrity = Some(integrity);
        self
    }

    /// Enables dock-recovery awareness: seeded dock-controller crashes that
    /// stall dockings for the recovery policy's latency and charge the
    /// window against the rack's dock availability.
    #[must_use]
    pub fn with_dock_recovery(mut self, dock_recovery: DockRecoveryAwareness) -> Self {
        self.dock_recovery = Some(dock_recovery);
        self
    }

    /// Enables open-loop admission control: bounded pending queues,
    /// deadline-aware admission, dock-saturation backpressure, and
    /// token-bucket retry budgets with deterministic backoff. The spec is
    /// sanitised on installation ([`AdmissionSpec::sanitised`]). Without
    /// this call the same serve loop refuses nothing: every request is
    /// admitted up front and retries follow the awareness budgets (see
    /// [`Scheduler::try_run`]).
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionSpec) -> Self {
        self.admission = Some(admission.sanitised());
        self
    }

    /// The admission spec in effect, if open-loop serving is enabled.
    #[must_use]
    pub fn admission(&self) -> Option<&AdmissionSpec> {
        self.admission.as_ref()
    }

    /// The ordering discipline in effect.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The data placement being scheduled over.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The availability tracker, populated by [`Scheduler::try_run`].
    #[must_use]
    pub fn availability(&self) -> &AvailabilityTracker {
        &self.availability
    }

    /// Enqueues a request and returns its handle.
    ///
    /// Placement-derived stats (cart count, dataset bytes) are resolved
    /// here, once, so the serve loop never does a placement lookup per
    /// comparison or per admission decision.
    pub fn submit(&mut self, request: TransferRequest) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let (carts, bytes) = self
            .placement
            .extent_of(request.dataset)
            .map_or((usize::MAX, 0.0), |(carts, size)| (carts, size.as_f64()));
        self.queue.push(Queued {
            id,
            req: request,
            carts,
            bytes,
        });
        id
    }

    /// Validates a request against the placement and topology.
    fn check(&self, request: &TransferRequest) -> Result<(), SchedulerError> {
        if !request.arrival.is_finite() {
            return Err(SchedulerError::NonFiniteArrival(request.arrival));
        }
        if !(request.dwell.is_finite() && request.dwell.seconds() >= 0.0) {
            return Err(SchedulerError::InvalidDwell(request.dwell));
        }
        if let Some(deadline) = request.deadline.filter(|d| d.seconds().is_nan()) {
            return Err(SchedulerError::InvalidDeadline(deadline));
        }
        if self.placement.carts_of(request.dataset).is_none() {
            return Err(SchedulerError::UnknownDataset(request.dataset));
        }
        match self.cfg.endpoints.get(request.destination) {
            Some(ep) if ep.kind == EndpointKind::Rack => Ok(()),
            _ => Err(SchedulerError::InvalidDestination(request.destination)),
        }
    }

    /// Runs all queued requests to completion and returns the schedule.
    ///
    /// One serve loop: requests are admitted in arrival order (submission
    /// order breaking ties), and whenever the track frees up the best
    /// admitted request is served — higher [`Priority`] first, then FIFO by
    /// arrival or fewest carts per the [`Policy`], then submission order.
    /// Cart movements serialise on the single track; each destination
    /// admits at most `docks` simultaneously dwelling carts.
    ///
    /// Without an [`AdmissionSpec`] nothing is refused: every request is
    /// admitted before the first service decision, and a lost or rejected
    /// cart retries at once, up to the `max_attempts` of the awareness that
    /// failed it. With one ([`Scheduler::with_admission`]) arrivals face
    /// admission control as the track frees up, and retries draw on the
    /// spec's budget instead.
    ///
    /// # Errors
    ///
    /// The first invalid request ([`SchedulerError::UnknownDataset`],
    /// [`SchedulerError::InvalidDestination`],
    /// [`SchedulerError::NonFiniteArrival`],
    /// [`SchedulerError::InvalidDwell`] or
    /// [`SchedulerError::InvalidDeadline`]), or the first invalid
    /// [`FaultAwareness::downtime`] window
    /// ([`SchedulerError::InvalidDowntime`]); no movements are scheduled in
    /// that case.
    pub fn try_run(&mut self) -> Result<ScheduleOutcome, SchedulerError> {
        match self.admission.clone() {
            Some(spec) => self.serve::<true>(&spec),
            None => self.serve::<false>(&AdmissionSpec::default()),
        }
    }

    /// The serve loop, instantiated once per mode so that the admission
    /// gates cost the other mode nothing. `OPEN` runs admission control and
    /// budgeted retries under `spec`. Otherwise `spec` is never read: the
    /// admission frontier is `+∞`, retries follow the awareness budgets,
    /// and no open-loop metric or report is touched.
    ///
    /// Requests that are rejected or shed never run and produce no
    /// [`RequestOutcome`]; they are accounted on the [`AdmissionReport`].
    fn serve<const OPEN: bool>(
        &mut self,
        spec: &AdmissionSpec,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        let downtime = self.faults.as_ref().map_or(&[][..], |f| &f.downtime);
        if let Some(&(from, to)) = downtime
            .iter()
            .find(|(from, to)| !(from.is_finite() && to.is_finite() && to >= from))
        {
            return Err(SchedulerError::InvalidDowntime(from, to));
        }
        for q in &self.queue {
            self.check(&q.req)?;
        }
        // Arrivals are admitted strictly in arrival order (submission, hence
        // id, order breaks ties); priority then decides who is served next
        // among the admitted. This is also what makes the indexed
        // ServiceQueue exact: pushes into it are monotone in (arrival, id).
        // `check` rejected non-finite arrivals, so `partial_cmp` always
        // answers. Ids are unique, so sorting in place, unstably, is exact.
        let key = |q: &Queued| (q.req.arrival, q.id);
        self.queue
            .sort_unstable_by(|a, b| key(a).partial_cmp(&key(b)).unwrap_or(Ordering::Equal));

        // Register known downtime windows so departures (and clients asking
        // the tracker) can route around them.
        for &(from, to) in downtime {
            self.availability.record_track_downtime(from, to);
        }
        let policy = self.policy;
        let Self {
            cfg,
            placement,
            queue,
            availability,
            faults,
            integrity,
            dock_recovery,
            metrics,
            handles,
            ..
        } = &mut *self;
        let handles = *handles;
        // One seeded stream per hazard, independent of the others.
        let mut loss = faults.as_ref().map(|f| {
            (
                DeterministicRng::seed_from_u64(f.seed),
                f.loss_probability.clamp(0.0, 1.0),
            )
        });
        let mut reship = integrity.as_ref().map(|i| {
            (
                DeterministicRng::seed_from_u64(i.seed),
                i.reshipment_probability.clamp(0.0, 1.0),
            )
        });
        let mut crash = dock_recovery.as_ref().map(|d| {
            (
                DeterministicRng::seed_from_u64(d.seed),
                d.crash_probability_per_docking.clamp(0.0, 1.0),
                d.recovery_time.seconds().max(0.0),
            )
        });
        let verify_s = integrity.as_ref().map_or(0.0, |i| i.verify_time.seconds());
        let loss_attempts = faults.as_ref().map_or(1, |f| f.max_attempts.max(1));
        let reship_attempts = integrity.as_ref().map_or(1, |i| i.max_attempts.max(1));

        let watch = Stopwatch::start();
        let mut track_free = 0.0f64;
        let mut track_busy = 0.0f64;
        // Destination docks: earliest-free times per endpoint, flat.
        let mut dock_free = DockBank::new(cfg);
        let trips = MovementTable::build(cfg, None);
        let mut outcomes = Vec::with_capacity(queue.len());
        let mut total_energy = Joules::ZERO;

        let mut pending = ServiceQueue::for_requests(policy, queue.len());
        let mut report = AdmissionReport::default();
        // Tenant → counters and retry tokens left, dense-indexed by tenant
        // id when the id space allows; latencies go to the flat log.
        let mut tenants: IdTable<TenantRow> = IdTable::new(queue.len());
        let mut log = recycle::take(&recycle::LOGS);
        let max_attempts = spec.retry.max_attempts_per_request.max(1);
        let mut cursor = 0usize;

        while cursor < queue.len() || !pending.is_empty() {
            // The admission frontier: when work is pending, the track's
            // next free instant; when idle, the next arrival. With nothing
            // to refuse it is +∞, so every request is admitted before the
            // first service decision.
            let mut now = if OPEN { track_free } else { f64::INFINITY };
            if pending.is_empty() {
                now = now.max(queue[cursor].req.arrival.seconds());
            }

            // Admission: every arrival at or before the frontier faces the
            // controller, in arrival order, against the queue state its
            // predecessors left behind.
            while let Some(&Queued {
                id,
                mut req,
                carts: carts_len,
                bytes,
            }) = queue.get(cursor)
            {
                if req.arrival.seconds() > now {
                    break;
                }
                cursor += 1;
                // Requests were validated above, so an unknown cart count
                // here means the data map itself is corrupt.
                if carts_len == usize::MAX {
                    return Err(SchedulerError::CorruptPlacement(req.dataset));
                }
                if OPEN {
                    let arrival_s = req.arrival.seconds();
                    let tenant = u64::from(req.tenant.0);
                    let row = tenants.get_or_insert(tenant, || TenantRow {
                        tokens: spec.retry.tokens_per_tenant,
                        ..TenantRow::default()
                    });
                    report.offered += 1;
                    metrics.add(handles.offered, 1);
                    report.offered_bytes += bytes;

                    let mut degrade = false;
                    // Deadline feasibility at the door: earliest estimated
                    // delivery = wait for the track + serve the whole
                    // backlog + this request's own carts up to the last one
                    // docking.
                    if spec.deadline_aware {
                        if let Some(deadline) = req.deadline {
                            let trip = trips.cost(0, req.destination).total_time.seconds();
                            let per_cart = 2.0 * trip + verify_s + req.dwell.seconds();
                            let deliver_est = |backlog: f64| {
                                arrival_s.max(track_free)
                                    + backlog
                                    + carts_len.saturating_sub(1) as f64 * per_cart
                                    + trip
                                    + verify_s
                            };
                            // Rounded addition is monotone, so a bracket on
                            // one side decides as the exact sum would.
                            let deadline = deadline.seconds();
                            let late = match pending.backlog_bounds() {
                                Some((lo, _)) if deliver_est(lo) > deadline => true,
                                Some((_, hi)) if deliver_est(hi) <= deadline => false,
                                _ => deliver_est(pending.backlog_service_s()) > deadline,
                            };
                            if late {
                                match spec.policy {
                                    OverloadPolicy::DegradeToBestEffort => degrade = true,
                                    _ => {
                                        report.rejected_deadline += 1;
                                        report.rejected_ids.push(id);
                                        row.rejected += 1;
                                        metrics.add(handles.rejected_deadline, 1);
                                        continue;
                                    }
                                }
                            }
                        }
                    }

                    // Hard queue bounds, then dock-saturation backpressure.
                    let tenant_pending = pending.tenant_pending(req.tenant);
                    let queue_full = pending.len() >= spec.max_pending_global
                        || tenant_pending >= spec.max_pending_per_tenant;
                    let dock_saturated = !queue_full
                        && spec.dock_busy_watermark < 1.0
                        && match dock_free.busy_at(req.destination, arrival_s) {
                            Some((busy, total)) => {
                                busy as f64 / total as f64 >= spec.dock_busy_watermark
                            }
                            None => false,
                        };
                    if queue_full || dock_saturated {
                        let admitted_via_shed = if spec.policy == OverloadPolicy::ShedLowestPriority
                        {
                            if let Some(victim) = pending.shed_victim(req.priority) {
                                report.shed += 1;
                                report.shed_ids.push(victim.id);
                                metrics.add(handles.shed, 1);
                                if let Some(victim) =
                                    tenants.get_mut(u64::from(victim.req.tenant.0))
                                {
                                    victim.shed += 1;
                                }
                                true
                            } else {
                                false
                            }
                        } else {
                            false
                        };
                        let degrade_through =
                            !queue_full && spec.policy == OverloadPolicy::DegradeToBestEffort;
                        if !admitted_via_shed && !degrade_through {
                            tenants.get_mut(tenant).expect("inserted above").rejected += 1;
                            report.rejected_ids.push(id);
                            if queue_full {
                                report.rejected_queue_full += 1;
                                metrics.add(handles.rejected_queue_full, 1);
                            } else {
                                report.rejected_backpressure += 1;
                                metrics.add(handles.rejected_backpressure, 1);
                            }
                            continue;
                        }
                        if degrade_through {
                            degrade = true;
                        }
                    }

                    if degrade {
                        req.priority = Priority::Background;
                        req.deadline = None;
                        report.degraded += 1;
                        metrics.add(handles.degraded, 1);
                        tenants.get_mut(tenant).expect("inserted above").degraded += 1;
                    }
                    report.admitted += 1;
                    metrics.add(handles.admitted, 1);
                }
                let trip = trips.cost(0, req.destination).total_time.seconds();
                let service_s = carts_len as f64 * (2.0 * trip + verify_s + req.dwell.seconds());
                pending.push(ServiceEntry {
                    id,
                    req,
                    carts: carts_len,
                    service_s,
                });
            }

            // Service: run the best admitted request's carts, retrying
            // failed ones.
            let Some(entry) = pending.pop_next() else {
                continue;
            };
            let (id, req) = (entry.id, entry.req);
            let tenant = u64::from(req.tenant.0);
            let carts = placement
                .carts_of(req.dataset)
                .ok_or(SchedulerError::CorruptPlacement(req.dataset))?;
            let cost = trips.cost(0, req.destination);

            let mut started = f64::INFINITY;
            let mut delivered = 0.0f64;
            let mut completed = 0.0f64;
            let mut energy = Joules::ZERO;
            let mut deliveries = 0u64;
            let mut redeliveries = 0u64;
            let mut reshipments = 0u64;
            let mut abandoned = 0u64;
            let mut dock_crashes = 0u64;
            let mut delivered_bytes = 0.0f64;

            for &cart in carts {
                let mut attempt = 1u32;
                // A retried cart may not depart again before its backoff
                // expires.
                let mut not_before = 0.0f64;
                loop {
                    // Outbound: wait for arrival, track, a destination dock,
                    // any backoff, and any track downtime window to clear.
                    let dock = dock_free.earliest_mut(req.destination);
                    let mut depart = req
                        .arrival
                        .seconds()
                        .max(track_free)
                        .max(*dock)
                        .max(not_before);
                    depart = availability.next_track_up(Seconds::new(depart)).seconds();
                    let arrive = depart + cost.total_time.seconds();
                    started = started.min(depart);
                    track_free = arrive;
                    track_busy += cost.total_time.seconds();

                    let lost = loss.as_mut().is_some_and(|(rng, p)| rng.random_bool(*p));
                    // A dock-controller crash strikes only when a loaded
                    // cart actually docks: the docking stalls for the
                    // recovery latency and the dock is down for the window.
                    let mut crashed = None;
                    if !lost {
                        if let Some((rng, p, recovery)) = crash.as_mut() {
                            if rng.random_bool(*p) {
                                dock_crashes += 1;
                                crashed = Some(*recovery);
                            }
                        }
                    }
                    let recovery_s = crashed.unwrap_or(0.0);
                    // Verify-on-dock happens only for payloads that arrived
                    // (after any controller recovery): the scrub may reject
                    // the delivery, sending the cart home for a reshipment.
                    let reshipped =
                        !lost && reship.as_mut().is_some_and(|(rng, p)| rng.random_bool(*p));

                    // Dwell (skipped for a dead payload; a rejected payload
                    // still pays for its recovery and scrub), then return.
                    let ready_back = if lost {
                        arrive
                    } else if reshipped {
                        arrive + recovery_s + verify_s
                    } else {
                        arrive + recovery_s + verify_s + req.dwell.seconds()
                    };
                    let mut back_depart = ready_back.max(track_free);
                    back_depart = availability
                        .next_track_up(Seconds::new(back_depart))
                        .seconds();
                    let home = back_depart + cost.total_time.seconds();
                    track_free = home;
                    track_busy += cost.total_time.seconds();
                    *dock = back_depart + cfg.undock_time.seconds();
                    // Every time above is at most `home`: a finite but huge
                    // dwell must fail here, before a window is recorded.
                    if !home.is_finite() {
                        return Err(SchedulerError::NonFiniteSchedule(id));
                    }
                    if let Some(recovery_s) = crashed {
                        availability.record_dock_downtime(
                            req.destination,
                            Seconds::new(arrive),
                            Seconds::new(arrive + recovery_s),
                        );
                    }
                    completed = completed.max(home);

                    energy += cost.energy + cost.energy;
                    availability.record_transit(
                        req.dataset,
                        Seconds::new(depart),
                        Seconds::new(arrive),
                    );
                    availability.record_transit(
                        req.dataset,
                        Seconds::new(back_depart),
                        Seconds::new(home),
                    );

                    if !lost && !reshipped {
                        deliveries += 1;
                        // A delivery counts once its recovery (if any) and
                        // scrub have passed.
                        delivered = delivered.max(arrive + recovery_s + verify_s);
                        if OPEN {
                            delivered_bytes += placement
                                .contents_of(cart)
                                .ok_or(SchedulerError::CorruptPlacement(req.dataset))?
                                .bytes
                                .as_f64();
                        }
                        break;
                    }
                    // Failed attempt: retry inside the attempt budget — and,
                    // under admission control, only while the tenant still
                    // holds retry tokens: graceful degradation, not a retry
                    // storm.
                    let budget = if OPEN {
                        max_attempts
                    } else if lost {
                        loss_attempts
                    } else {
                        reship_attempts
                    };
                    if attempt >= budget {
                        abandoned += 1;
                        break;
                    }
                    if OPEN {
                        let tokens = &mut tenants
                            .get_mut(tenant)
                            .expect("tenant registered at admission")
                            .tokens;
                        if *tokens == 0 {
                            abandoned += 1;
                            report.retry_tokens_exhausted += 1;
                            metrics.add(handles.retry_tokens_exhausted, 1);
                            break;
                        }
                        *tokens -= 1;
                    }
                    attempt += 1;
                    if lost {
                        redeliveries += 1;
                    } else {
                        reshipments += 1;
                    }
                    if OPEN {
                        report.retries += 1;
                        metrics.add(handles.retries, 1);
                        let backoff = retry_backoff(&spec.retry, spec.seed, id, attempt);
                        metrics.record(handles.retry_backoff_s, backoff.seconds());
                        not_before = home + backoff.seconds();
                    }
                }
            }

            total_energy += energy;
            metrics.add(handles.requests, 1);
            metrics.add(handles.deliveries, deliveries);
            metrics.add(handles.redeliveries, redeliveries);
            metrics.add(handles.reshipments, reshipments);
            metrics.add(handles.abandoned, abandoned);
            metrics.add(handles.dock_crashes, dock_crashes);
            // Queueing latency until the first cart could depart: the
            // placement-latency figure a client of the scheduler feels.
            metrics.record(handles.placement_latency_s, started - req.arrival.seconds());
            if deliveries > 0 {
                metrics.record(
                    handles.delivery_latency_s,
                    delivered - req.arrival.seconds(),
                );
            }

            if OPEN {
                report.served += 1;
                report.abandoned_shards += abandoned;
                report.delivered_bytes += delivered_bytes;
                let fully_delivered = deliveries as usize == carts.len();
                let row = tenants
                    .get_mut(tenant)
                    .expect("tenant registered at admission");
                row.abandoned_shards += abandoned;
                row.delivered_bytes += delivered_bytes;
                let met_deadline = req
                    .deadline
                    .map(|deadline| fully_delivered && delivered <= deadline.seconds());
                match met_deadline {
                    Some(true) => {
                        report.deadline_hits += 1;
                        metrics.add(handles.deadline_hits, 1);
                    }
                    Some(false) => {
                        report.deadline_misses += 1;
                        metrics.add(handles.deadline_misses, 1);
                    }
                    None => {}
                }
                let latency = delivered - req.arrival.seconds();
                log.push(Served {
                    latency: if deliveries > 0 { latency } else { f64::NAN },
                    tenant: req.tenant.0,
                    met_deadline,
                });
                row.logged += 1;
            }

            outcomes.push(RequestOutcome {
                id,
                started: Seconds::new(started),
                delivered: Seconds::new(delivered),
                completed: Seconds::new(completed),
                deliveries,
                energy,
                redeliveries,
                reshipments,
                abandoned,
                dock_crashes,
            });
        }

        queue.clear();
        // `total_cmp` instead of `partial_cmp(..).expect("finite")`: the
        // times are finite by construction, so the order is unchanged, but
        // a NaN can no longer panic the sort. The serial track usually
        // completes requests in service order, and then the sort is skipped.
        let by_completion = |a: &RequestOutcome, b: &RequestOutcome| {
            a.completed.seconds().total_cmp(&b.completed.seconds())
        };
        if !outcomes.is_sorted_by(|a, b| by_completion(a, b).is_le()) {
            outcomes.sort_by(by_completion);
        }
        let makespan = outcomes
            .last()
            .map(|o| o.completed)
            .unwrap_or(Seconds::ZERO);
        let track_utilisation = if makespan.seconds() > 0.0 {
            track_busy / makespan.seconds()
        } else {
            0.0
        };
        metrics.set(handles.makespan_s, makespan.seconds());
        metrics.set(handles.track_utilisation, track_utilisation);
        if OPEN {
            report.goodput_bytes_per_s = if makespan.seconds() > 0.0 {
                report.delivered_bytes / makespan.seconds()
            } else {
                0.0
            };
            report.tenants = tenant_slos(&mut tenants, &mut log, spec.retry.tokens_per_tenant);
            metrics.set(handles.goodput_bytes_per_s, report.goodput_bytes_per_s);
        }
        metrics.set(
            handles.track_downtime_s,
            availability.total_track_downtime().seconds(),
        );
        let dock_downtime_s: f64 = (0..cfg.endpoints.len())
            .map(|ep| availability.total_dock_downtime(ep).seconds())
            .sum();
        metrics.set(handles.dock_downtime_s, dock_downtime_s);
        recycle::give(&recycle::LOGS, log);
        metrics.set(handles.wall_time_s, watch.elapsed_secs());
        Ok(ScheduleOutcome {
            track_utilisation,
            completed: outcomes,
            makespan,
            total_energy,
            admission: OPEN.then_some(report),
            metrics: metrics.snapshot(),
        })
    }
}

/// Every tenant's [`TenantSlo`], in ascending id, from its row and its log
/// entries. A counting sort copies the log into its own second half grouped
/// by tenant, each tenant's entries in service order, so each summary
/// records its latencies in that order, into one reused histogram.
fn tenant_slos(
    tenants: &mut IdTable<TenantRow>,
    log: &mut Vec<Served>,
    tokens: u32,
) -> Vec<TenantSlo> {
    let n = log.len();
    let mut end = n;
    for row in tenants.values_mut() {
        (row.logged, end) = (end, end + row.logged);
    }
    log.extend_from_within(..);
    for i in 0..n {
        let row = tenants.get_mut(u64::from(log[i].tenant));
        let cursor = &mut row.expect("a logged tenant has a row").logged;
        log[*cursor] = log[i];
        *cursor += 1;
    }
    let mut latency = Histogram::new();
    let mut slos = Vec::with_capacity(tenants.iter().count());
    let mut start = n;
    for (id, row) in tenants.iter() {
        let served = &log[start..row.logged];
        start = row.logged;
        latency.clear();
        served.iter().for_each(|s| latency.record(s.latency));
        let met = |hit| {
            served
                .iter()
                .filter(|s| s.met_deadline == Some(hit))
                .count() as u64
        };
        let served = served.len() as u64;
        slos.push(TenantSlo {
            // Rows are keyed by `u64::from(TenantId.0)`.
            tenant: TenantId(id as u32),
            offered: served + row.shed + row.rejected,
            admitted: served + row.shed,
            served,
            rejected: row.rejected,
            shed: row.shed,
            degraded: row.degraded,
            retries: u64::from(tokens - row.tokens),
            abandoned_shards: row.abandoned_shards,
            deadline_hits: met(true),
            deadline_misses: met(false),
            delivered_bytes: row.delivered_bytes,
            latency: SloSummary::of(&latency),
        });
    }
    slos
}

// The submit queue goes back to this thread's pool, for the next scheduler.
impl Drop for Scheduler {
    fn drop(&mut self) {
        recycle::give(&recycle::QUEUES, std::mem::take(&mut self.queue));
    }
}

impl core::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Scheduler")
            .field("queued", &self.queue.len())
            .field("datasets", &self.placement.dataset_ids().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_storage::datasets;
    use dhl_units::Bytes;
    use std::collections::BTreeMap;

    fn setup() -> (Scheduler, DatasetId, DatasetId) {
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let small = placement.store(datasets::laion_5b()); // 1 cart
        let big = placement.store(datasets::common_crawl()); // 36 carts
        let sched = Scheduler::new(SimConfig::paper_default(), placement).unwrap();
        (sched, small, big)
    }

    #[test]
    fn single_request_round_trip_accounting() {
        let (mut sched, small, _) = setup();
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        assert_eq!(out.completed.len(), 1);
        let r = &out.completed[0];
        assert_eq!(r.deliveries, 1);
        // Out 8.6 s + back 8.6 s.
        assert!((r.delivered.seconds() - 8.6).abs() < 1e-9);
        assert!((r.completed.seconds() - 17.2).abs() < 1e-9);
        assert!((out.makespan.seconds() - 17.2).abs() < 1e-9);
        assert!((out.track_utilisation - 1.0).abs() < 1e-9);
    }

    #[test]
    fn urgent_requests_jump_the_queue() {
        let (mut sched, small, big) = setup();
        let slow = sched.submit(TransferRequest::new(
            big,
            1,
            Priority::Background,
            Seconds::ZERO,
        ));
        let fast = sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Urgent,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        let by_id: BTreeMap<RequestId, &RequestOutcome> =
            out.completed.iter().map(|o| (o.id, o)).collect();
        // The urgent single-cart request starts first and finishes first.
        assert!(by_id[&fast].completed < by_id[&slow].started + Seconds::new(1.0));
        assert!(by_id[&fast].delivered.seconds() < 10.0);
    }

    #[test]
    fn fifo_within_a_priority_class() {
        let (mut sched, small, _) = setup();
        let first = sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let second = sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::new(1.0),
        ));
        let out = sched.try_run().expect("valid requests");
        assert_eq!(out.completed[0].id, first);
        assert_eq!(out.completed[1].id, second);
        // Second serialises behind the first on the track.
        assert!(out.completed[1].started >= out.completed[0].completed - Seconds::new(8.7));
    }

    #[test]
    fn makespan_scales_with_cart_count() {
        let (mut sched, _, big) = setup();
        sched.submit(TransferRequest::new(
            big,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        // 36 carts × (out + back) = 72 × 8.6 s on a serial track.
        assert!((out.makespan.seconds() - 72.0 * 8.6).abs() < 1.0);
        assert_eq!(out.completed[0].deliveries, 36);
    }

    #[test]
    fn dwell_extends_completion_not_delivery() {
        let (mut sched, small, _) = setup();
        sched.submit(
            TransferRequest::new(small, 1, Priority::Normal, Seconds::ZERO)
                .with_dwell(Seconds::new(100.0)),
        );
        let out = sched.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert!((r.delivered.seconds() - 8.6).abs() < 1e-9);
        assert!((r.completed.seconds() - 117.2).abs() < 1e-9);
    }

    #[test]
    fn invalid_requests_are_rejected_before_any_scheduling() {
        let (mut sched, small, _) = setup();
        sched.submit(TransferRequest::new(
            DatasetId(999),
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        assert!(matches!(
            sched.try_run(),
            Err(SchedulerError::UnknownDataset(DatasetId(999)))
        ));
        // Library (endpoint 0) is not a valid destination.
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let _ = placement.store(datasets::laion_5b());
        let mut sched2 = Scheduler::new(SimConfig::paper_default(), placement).unwrap();
        sched2.submit(TransferRequest::new(
            small,
            0,
            Priority::Normal,
            Seconds::ZERO,
        ));
        assert!(matches!(
            sched2.try_run(),
            Err(SchedulerError::InvalidDestination(0))
        ));
    }

    #[test]
    fn non_finite_arrivals_are_rejected_before_any_scheduling() {
        let (mut sched, small, _) = setup();
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::new(f64::NAN),
        ));
        assert!(matches!(
            sched.try_run(),
            Err(SchedulerError::NonFiniteArrival(at)) if at.seconds().is_nan()
        ));
    }

    #[test]
    fn a_finite_dwell_that_overflows_the_schedule_is_a_typed_error() {
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let two_carts = placement.store(datasets::Dataset {
            name: "two carts".into(),
            size: Bytes::from_terabytes(512.0),
            kind: datasets::DatasetKind::BigData,
        });
        for admission in [None, Some(AdmissionSpec::default())] {
            let mut sched = Scheduler::new(SimConfig::paper_default(), placement.clone()).unwrap();
            if let Some(spec) = admission {
                sched = sched.with_admission(spec);
            }
            // The first cart's return lands near 1e308 s; the second's
            // overflows to +inf.
            let id = sched.submit(
                TransferRequest::new(two_carts, 1, Priority::Normal, Seconds::ZERO)
                    .with_dwell(Seconds::new(1e308)),
            );
            assert_eq!(sched.try_run(), Err(SchedulerError::NonFiniteSchedule(id)));
        }
    }

    #[test]
    fn invalid_dwells_and_nan_deadlines_are_rejected_before_any_scheduling() {
        for dwell in [f64::INFINITY, f64::NAN, -1.0] {
            let (mut sched, small, _) = setup();
            sched.submit(
                TransferRequest::new(small, 1, Priority::Normal, Seconds::ZERO)
                    .with_dwell(Seconds::new(dwell)),
            );
            assert!(
                matches!(
                    sched.try_run(),
                    Err(SchedulerError::InvalidDwell(d)) if d.seconds().to_bits() == dwell.to_bits()
                ),
                "dwell {dwell}"
            );
        }
        let (mut sched, small, _) = setup();
        sched.submit(
            TransferRequest::new(small, 1, Priority::Normal, Seconds::ZERO)
                .with_deadline(Seconds::new(f64::NAN)),
        );
        assert!(matches!(
            sched.try_run(),
            Err(SchedulerError::InvalidDeadline(d)) if d.seconds().is_nan()
        ));
        // +∞ stays a legal deadline, and is always met.
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(AdmissionSpec {
            deadline_aware: true,
            ..AdmissionSpec::default()
        });
        sched.submit(
            TransferRequest::new(small, 1, Priority::Normal, Seconds::ZERO)
                .with_deadline(Seconds::new(f64::INFINITY)),
        );
        let report = sched.try_run().unwrap().admission.unwrap();
        assert_eq!((report.admitted, report.deadline_hits), (1, 1));
    }

    #[test]
    fn deadlines_inside_the_backlog_bracket_match_the_exact_walk() {
        // A is in service while B and C wait; D's deadline is set at the
        // retired estimate (bit for bit) or one ULP below it.
        let run = |deadline: f64| {
            let (sched, small, _) = setup();
            let mut sched = sched.with_admission(AdmissionSpec {
                deadline_aware: true,
                ..AdmissionSpec::default()
            });
            for at in 0..3 {
                sched.submit(TransferRequest::new(
                    small,
                    1,
                    Priority::Normal,
                    Seconds::new(f64::from(at)),
                ));
            }
            sched.submit(
                TransferRequest::new(small, 1, Priority::Normal, Seconds::new(3.0))
                    .with_deadline(Seconds::new(deadline)),
            );
            sched.try_run().unwrap()
        };
        let track_free = run(f64::INFINITY).completed[0].completed.seconds();
        let cfg = SimConfig::paper_default();
        let trip = MovementTable::build(&cfg, None)
            .cost(0, 1)
            .total_time
            .seconds();
        let per_cart = 2.0 * trip + 0.0 + 0.0;
        let service_s = 1.0 * per_cart;
        let est = |backlog: f64| 3.0f64.max(track_free) + backlog + 0.0 * per_cart + trip + 0.0;

        let mut mirror = ServiceQueue::new(Policy::PriorityFifo);
        let (_, small, _) = setup();
        let waiting = |id: u64| ServiceEntry {
            id: RequestId(id),
            req: TransferRequest::new(small, 1, Priority::Normal, Seconds::new(id as f64)),
            carts: 1,
            service_s,
        };
        mirror.push(waiting(0));
        let _ = mirror.pop_next();
        for id in 1..3 {
            mirror.push(waiting(id));
        }
        // The exact walk: B's and C's service times summed in admission
        // order.
        let exact = est(service_s + service_s);
        let (lo, hi) = mirror.backlog_bounds().unwrap();
        for (deadline, admit) in [(exact, true), (exact.next_down(), false)] {
            assert!(
                est(lo) <= deadline && est(hi) > deadline,
                "the bracket straddles"
            );
            let report = run(deadline).admission.unwrap();
            assert_eq!(
                report.rejected_deadline,
                u64::from(!admit),
                "deadline {deadline}"
            );
            assert_eq!(report.admitted, 3 + u64::from(admit));
        }
    }

    #[test]
    fn empty_schedule_is_trivial() {
        let (mut sched, _, _) = setup();
        let out = sched.try_run().expect("valid requests");
        assert!(out.completed.is_empty());
        assert_eq!(out.makespan, Seconds::ZERO);
        assert_eq!(out.track_utilisation, 0.0);
    }

    #[test]
    fn energy_matches_movement_count() {
        let (mut sched, _, big) = setup();
        sched.submit(TransferRequest::new(
            big,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        let per_movement = out.total_energy.value() / 72.0;
        assert!((per_movement - 15_191.0).abs() < 100.0, "{per_movement}");
    }

    #[test]
    fn downtime_windows_delay_departures() {
        // Track down for [0, 100): the single-cart request cannot start
        // until 100 s.
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let small = placement.store(datasets::laion_5b());
        let mut sched = Scheduler::new(SimConfig::paper_default(), placement)
            .unwrap()
            .with_faults(FaultAwareness {
                loss_probability: 0.0,
                max_attempts: 1,
                seed: 0,
                downtime: vec![(Seconds::ZERO, Seconds::new(100.0))],
            });
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert!(
            (r.started.seconds() - 100.0).abs() < 1e-9,
            "{}",
            r.started.seconds()
        );
        assert!((r.delivered.seconds() - 108.6).abs() < 1e-9);
        assert_eq!(r.redeliveries, 0);
        assert_eq!(
            sched.availability().total_track_downtime(),
            Seconds::new(100.0)
        );
    }

    #[test]
    fn bad_downtime_windows_are_rejected_before_any_scheduling() {
        let s = Seconds::new;
        for (from, to) in [
            (s(f64::NAN), s(1.0)),
            (s(5.0), s(1.0)),
            (s(0.0), s(f64::INFINITY)),
        ] {
            for open in [false, true] {
                let mut placement = Placement::new(Bytes::from_terabytes(256.0));
                let small = placement.store(datasets::laion_5b());
                let downtime = vec![(s(0.0), s(10.0)), (from, to)];
                let mut sched = Scheduler::new(SimConfig::paper_default(), placement)
                    .unwrap()
                    .with_faults(FaultAwareness {
                        loss_probability: 0.0,
                        max_attempts: 1,
                        seed: 0,
                        downtime,
                    });
                if open {
                    sched = sched.with_admission(AdmissionSpec::default());
                }
                sched.submit(TransferRequest::new(small, 1, Priority::Normal, s(0.0)));
                let err = sched.try_run().unwrap_err();
                assert!(
                    matches!(err, SchedulerError::InvalidDowntime(f, t)
                        if f.seconds().to_bits() == from.seconds().to_bits() && t == to),
                    "{err:?}"
                );
                // Nothing was scheduled or recorded.
                assert!(sched.availability().downtime_windows().is_empty());
                assert_eq!(sched.availability().tracked_datasets(), 0);
            }
        }
    }

    #[test]
    fn losses_retry_at_original_priority_and_extend_the_schedule() {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ds = p.store(datasets::common_crawl()); // 36 carts
        let clean_out = {
            let mut s = Scheduler::new(SimConfig::paper_default(), p.clone()).unwrap();
            s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
            s.try_run().expect("valid requests")
        };
        let mut s = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_faults(FaultAwareness {
                loss_probability: 0.4,
                max_attempts: 32,
                seed: 12,
                downtime: Vec::new(),
            });
        s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
        let out = s.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert!(r.redeliveries > 0, "40% loss over 36 carts");
        assert_eq!(r.abandoned, 0, "budget of 32 is effectively unbounded");
        // Every shard still delivered, later than the clean schedule.
        assert_eq!(r.deliveries, 36);
        assert!(r.completed > clean_out.completed[0].completed);
        // Energy grows by exactly one round trip per redelivery.
        let per_round_trip = clean_out.total_energy.value() / 36.0;
        let expected = per_round_trip * (36.0 + r.redeliveries as f64);
        assert!(
            (out.total_energy.value() - expected).abs() < 1.0,
            "energy {} vs expected {expected}",
            out.total_energy.value()
        );
    }

    #[test]
    fn loss_retries_are_deterministic_per_seed() {
        let run = |seed| {
            let mut p = Placement::new(Bytes::from_terabytes(256.0));
            let ds = p.store(datasets::common_crawl());
            let mut s = Scheduler::new(SimConfig::paper_default(), p)
                .unwrap()
                .with_faults(FaultAwareness {
                    loss_probability: 0.3,
                    max_attempts: 16,
                    seed,
                    downtime: Vec::new(),
                });
            s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
            s.try_run().expect("valid requests")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
    }

    #[test]
    fn exhausted_attempts_are_reported_as_abandoned() {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ds = p.store(datasets::laion_5b()); // 1 cart
        let mut s = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_faults(FaultAwareness {
                loss_probability: 1.0,
                max_attempts: 3,
                seed: 1,
                downtime: Vec::new(),
            });
        s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
        let out = s.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert_eq!(r.deliveries, 0);
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.redeliveries, 2, "attempts 2 and 3 were retries");
        assert_eq!(r.delivered, Seconds::ZERO, "nothing ever landed");
    }

    #[test]
    fn availability_reflects_transit_windows() {
        let (mut sched, small, _) = setup();
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let _ = sched.try_run().expect("valid requests");
        let tracker = sched.availability();
        use crate::availability::DataState;
        assert_eq!(
            tracker.state_at(small, Seconds::new(4.0)),
            DataState::InTransit
        );
        assert_eq!(
            tracker.state_at(small, Seconds::new(100.0)),
            DataState::AtRest
        );
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::*;
    use dhl_storage::datasets;
    use dhl_units::Bytes;

    fn setup() -> (Scheduler, DatasetId) {
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let small = placement.store(datasets::laion_5b()); // 1 cart
        let sched = Scheduler::new(SimConfig::paper_default(), placement).unwrap();
        (sched, small)
    }

    #[test]
    fn snapshot_mirrors_the_outcome() {
        let (mut sched, small) = setup();
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::new(1.0),
        ));
        let out = sched.try_run().expect("valid requests");
        let m = &out.metrics;
        assert!(!m.is_empty());
        assert_eq!(m.counter("sched.requests"), Some(2));
        assert_eq!(m.counter("sched.deliveries"), Some(2));
        assert_eq!(m.counter("sched.redeliveries"), Some(0));
        assert_eq!(m.counter("sched.abandoned"), Some(0));
        assert!((m.gauge("sched.makespan_s").unwrap() - out.makespan.seconds()).abs() < 1e-9);
        assert!((m.gauge("sched.track_utilisation").unwrap() - out.track_utilisation).abs() < 1e-9);
        assert_eq!(m.gauge("sched.track_downtime_s"), Some(0.0));
        let lat = m.histogram("sched.placement_latency_s").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.min, 0.0, "first request departs immediately");
        let del = m.histogram("sched.delivery_latency_s").unwrap();
        assert_eq!(del.count, 2);
        // One-way transit is 8.6 s; every delivery latency is at least that.
        assert!(del.min >= 8.6 - 1e-9, "{}", del.min);
    }

    #[test]
    fn downtime_gauge_tracks_the_availability_tracker() {
        let (sched, small) = setup();
        let mut sched = sched.with_faults(FaultAwareness {
            loss_probability: 0.0,
            max_attempts: 1,
            seed: 0,
            downtime: vec![(Seconds::ZERO, Seconds::new(100.0))],
        });
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        assert_eq!(out.metrics.gauge("sched.track_downtime_s"), Some(100.0));
        let lat = out.metrics.histogram("sched.placement_latency_s").unwrap();
        assert!(
            (lat.min - 100.0).abs() < 1.0,
            "departure waited out the outage"
        );
    }

    #[test]
    fn retries_and_abandonment_are_counted() {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ds = p.store(datasets::laion_5b());
        let mut s = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_faults(FaultAwareness {
                loss_probability: 1.0,
                max_attempts: 3,
                seed: 1,
                downtime: Vec::new(),
            });
        s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
        let out = s.try_run().expect("valid requests");
        let m = &out.metrics;
        assert_eq!(m.counter("sched.deliveries"), Some(0));
        assert_eq!(m.counter("sched.redeliveries"), Some(2));
        assert_eq!(m.counter("sched.abandoned"), Some(1));
        assert!(
            m.histogram("sched.delivery_latency_s").is_none(),
            "nothing landed, so no delivery latency was observed"
        );
    }

    #[test]
    fn disabled_registry_yields_an_empty_snapshot() {
        let (mut sched, small) = setup();
        sched.set_metrics_enabled(false);
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        assert!(out.metrics.is_empty());
        assert_eq!(out.completed.len(), 1, "scheduling itself is unaffected");
    }
}

#[cfg(test)]
mod integrity_tests {
    use super::*;
    use crate::availability::DataState;
    use dhl_storage::datasets;
    use dhl_units::Bytes;

    fn setup() -> (Placement, DatasetId) {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ds = p.store(datasets::common_crawl()); // 36 carts
        (p, ds)
    }

    #[test]
    fn verification_only_charges_scrub_time_per_delivery() {
        let (p, ds) = setup();
        let clean = {
            let mut s = Scheduler::new(SimConfig::paper_default(), p.clone()).unwrap();
            s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
            s.try_run().expect("valid requests")
        };
        let mut s = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_integrity(IntegrityAwareness::verification_only(Seconds::new(50.0)));
        s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
        let out = s.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert_eq!(r.deliveries, 36);
        assert_eq!(r.reshipments, 0);
        // Delivery now lands only after the scrub passes; earlier carts'
        // scrubs also delay later departures on the shared track, so the
        // last delivery shifts by at least one full scrub.
        assert!(
            r.delivered.seconds() >= clean.completed[0].delivered.seconds() + 50.0 - 1e-6,
            "delivered {} vs clean {}",
            r.delivered.seconds(),
            clean.completed[0].delivered.seconds()
        );
        assert!(out.makespan > clean.makespan);
    }

    #[test]
    fn reshipments_retry_and_feed_the_availability_tracker() {
        let (p, ds) = setup();
        let mut s = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_integrity(IntegrityAwareness {
                reshipment_probability: 0.4,
                verify_time: Seconds::new(10.0),
                max_attempts: 32,
                seed: 9,
            });
        s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
        let out = s.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert!(r.reshipments > 0, "40% rejection over 36 carts");
        assert_eq!(r.abandoned, 0, "budget of 32 is effectively unbounded");
        assert_eq!(r.deliveries, 36);
        assert_eq!(r.redeliveries, 0, "no in-transit losses configured");
        assert_eq!(
            out.metrics.counter("sched.reshipments"),
            Some(r.reshipments)
        );
        // Every reshipment round trip is visible to availability clients:
        // 36 + reshipments round trips, 2 transit windows each.
        let windows = s.availability().transit_windows(ds).len();
        assert_eq!(windows as u64, 2 * (36 + r.reshipments));
        // Mid-first-flight the data is in transit.
        assert_eq!(
            s.availability().state_at(ds, Seconds::new(4.0)),
            DataState::InTransit
        );
    }

    #[test]
    fn reshipment_stream_is_deterministic_and_independent_of_losses() {
        let (p, ds) = setup();
        let go = |seed| {
            let mut s = Scheduler::new(SimConfig::paper_default(), p.clone())
                .unwrap()
                .with_faults(FaultAwareness {
                    loss_probability: 0.2,
                    max_attempts: 32,
                    seed: 5,
                    downtime: Vec::new(),
                })
                .with_integrity(IntegrityAwareness {
                    reshipment_probability: 0.2,
                    verify_time: Seconds::new(10.0),
                    max_attempts: 32,
                    seed,
                });
            s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
            s.try_run().expect("valid requests")
        };
        let a = go(1);
        let b = go(1);
        assert_eq!(a, b);
        // Changing only the integrity seed must not change the loss draws:
        // every attempt sequence still converges on 36 deliveries, and the
        // loss stream is consumed identically per arrival.
        let c = go(2);
        assert_eq!(c.completed[0].deliveries, 36);
        assert_ne!(
            a.completed[0].reshipments, c.completed[0].reshipments,
            "different reshipment seeds should (almost surely) differ"
        );
    }

    #[test]
    fn certain_rejection_abandons_after_the_budget() {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ds = p.store(datasets::laion_5b()); // 1 cart
        let mut s = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_integrity(IntegrityAwareness {
                reshipment_probability: 1.0,
                verify_time: Seconds::new(10.0),
                max_attempts: 3,
                seed: 1,
            });
        s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
        let out = s.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert_eq!(r.deliveries, 0);
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.reshipments, 2, "attempts 2 and 3 were reshipments");
        assert_eq!(out.metrics.counter("sched.abandoned"), Some(1));
    }

    #[test]
    fn parity_planner_trades_parity_against_capacity() {
        let (p, ds) = setup();
        // Clean route: no parity needed, full capacity used.
        let clean = p.plan_parity(ds, 32, 0.0, 0.999).unwrap();
        assert_eq!(clean.raid.parity_drives(), 0);
        assert_eq!(clean.usable_per_cart, Bytes::from_terabytes(256.0));
        assert_eq!(clean.carts_required, 36);

        // Corrupting route: parity buys survival, at a cart cost.
        let risky = p.plan_parity(ds, 32, 0.02, 0.999).unwrap();
        assert!(risky.raid.parity_drives() > 0);
        assert!(risky.survival_probability >= 0.999);
        assert!(risky.usable_per_cart < Bytes::from_terabytes(256.0));
        assert!(risky.carts_required > 36);

        // More corruption never buys fewer parity drives.
        let riskier = p.plan_parity(ds, 32, 0.1, 0.999).unwrap();
        assert!(riskier.raid.parity_drives() >= risky.raid.parity_drives());

        // An unreachable target falls back to the most durable layout.
        let hopeless = p.plan_parity(ds, 4, 0.9, 1.0).unwrap();
        assert_eq!(hopeless.raid.parity_drives(), 3);

        assert!(p.plan_parity(DatasetId(999), 32, 0.0, 0.9).is_none());
        assert!(p.plan_parity(ds, 0, 0.0, 0.9).is_none());
    }
}

#[cfg(test)]
mod dock_recovery_tests {
    use super::*;
    use dhl_storage::datasets;
    use dhl_units::Bytes;

    fn placement_one_cart() -> (Placement, DatasetId) {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ds = p.store(datasets::laion_5b()); // 1 cart
        (p, ds)
    }

    fn always_crash(recovery_time: Seconds) -> DockRecoveryAwareness {
        DockRecoveryAwareness {
            crash_probability_per_docking: 1.0,
            recovery_time,
            seed: 3,
        }
    }

    #[test]
    fn from_spec_resolves_the_policy_latency() {
        let payload = Bytes::from_terabytes(256.0);
        let j = DockRecoveryAwareness::from_spec(
            &DockControllerFaultSpec::journal_replay(),
            payload,
            1,
        );
        assert_eq!(j.recovery_time, Seconds::new(30.0));
        let r = DockRecoveryAwareness::from_spec(
            &DockControllerFaultSpec::rebuild_from_scan(),
            payload,
            1,
        );
        // 256 TB re-scanned at 8 GB/s.
        assert!((r.recovery_time.seconds() - 32_000.0).abs() < 1e-6);
        assert_eq!(
            j.crash_probability_per_docking,
            r.crash_probability_per_docking
        );
    }

    #[test]
    fn crashes_stall_the_docking_and_charge_dock_availability() {
        let (p, ds) = placement_one_cart();
        let mut s = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_dock_recovery(always_crash(Seconds::new(30.0)));
        s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
        let out = s.try_run().expect("valid requests");
        let r = &out.completed[0];
        assert_eq!(r.dock_crashes, 1);
        assert_eq!(r.deliveries, 1, "a crash delays, it does not lose data");
        // Arrival at 8.6 s, then 30 s of controller recovery.
        assert!((r.delivered.seconds() - 38.6).abs() < 1e-9, "{r:?}");
        assert!((r.completed.seconds() - 47.2).abs() < 1e-9);
        // The crash window is visible to availability clients, per endpoint.
        assert!((s.availability().total_dock_downtime(1).seconds() - 30.0).abs() < 1e-9);
        let windows = s.availability().dock_downtime_windows(1);
        assert_eq!(windows.len(), 1);
        assert!((windows[0].0 - 8.6).abs() < 1e-9);
        assert!((windows[0].1 - 38.6).abs() < 1e-9);
        assert_eq!(s.availability().total_dock_downtime(0), Seconds::ZERO);
        // And in the metrics snapshot.
        assert_eq!(out.metrics.counter("sched.dock_crashes"), Some(1));
        let gauge = out.metrics.gauge("sched.dock_downtime_s").unwrap();
        assert!((gauge - 30.0).abs() < 1e-9, "{gauge}");
    }

    #[test]
    fn crash_stream_is_deterministic_and_a_zero_hazard_is_free() {
        let (p, ds) = placement_one_cart();
        let go = |prob: f64| {
            let mut s = Scheduler::new(SimConfig::paper_default(), p.clone())
                .unwrap()
                .with_dock_recovery(DockRecoveryAwareness {
                    crash_probability_per_docking: prob,
                    recovery_time: Seconds::new(30.0),
                    seed: 3,
                });
            s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
            s.try_run().expect("valid requests")
        };
        assert_eq!(go(1.0), go(1.0));
        let clean = {
            let mut s = Scheduler::new(SimConfig::paper_default(), p.clone()).unwrap();
            s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
            s.try_run().expect("valid requests")
        };
        let zero = go(0.0);
        assert_eq!(zero, clean, "zero hazard must not perturb the schedule");
        assert_eq!(zero.completed[0].dock_crashes, 0);
        assert_eq!(zero.metrics.gauge("sched.dock_downtime_s"), Some(0.0));
    }

    #[test]
    fn journal_replay_beats_rescan_for_full_carts() {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ds = p.store(datasets::common_crawl()); // 36 carts
        let payload = Bytes::from_terabytes(256.0);
        let go = |spec: DockControllerFaultSpec| {
            let mut spec = spec;
            spec.crash_probability_per_docking = 0.25;
            let mut s = Scheduler::new(SimConfig::paper_default(), p.clone())
                .unwrap()
                .with_dock_recovery(DockRecoveryAwareness::from_spec(&spec, payload, 17));
            s.submit(TransferRequest::new(ds, 1, Priority::Normal, Seconds::ZERO));
            s.try_run().expect("valid requests")
        };
        let replay = go(DockControllerFaultSpec::journal_replay());
        let rescan = go(DockControllerFaultSpec::rebuild_from_scan());
        // Same seed, same crash draws — only the recovery latency differs.
        assert_eq!(
            replay.completed[0].dock_crashes,
            rescan.completed[0].dock_crashes
        );
        assert!(replay.completed[0].dock_crashes > 0, "25% over 36 dockings");
        assert!(
            rescan.makespan > replay.makespan,
            "re-scanning a 256 TB cart dwarfs a 30 s journal replay"
        );
        assert!(
            rescan.metrics.gauge("sched.dock_downtime_s").unwrap()
                > replay.metrics.gauge("sched.dock_downtime_s").unwrap()
        );
    }

    #[test]
    fn awareness_layers_delay_a_mixed_workload_without_dropping_it() {
        // Two datasets (37 carts), the urgent one arriving 5 s late, run
        // under each awareness layer against its plain schedule.
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let laion = p.store(datasets::laion_5b());
        let crawl = p.store(datasets::common_crawl());
        let mix = |policy: Policy| {
            let mut s = Scheduler::new(SimConfig::paper_default(), p.clone())
                .unwrap()
                .with_policy(policy);
            s.submit(TransferRequest::new(
                crawl,
                1,
                Priority::Normal,
                Seconds::ZERO,
            ));
            s.submit(TransferRequest::new(
                laion,
                1,
                Priority::Urgent,
                Seconds::new(5.0),
            ));
            s
        };
        let run = |mut s: Scheduler| {
            let out = s.try_run().expect("valid requests");
            assert_eq!(out.completed.len(), 2);
            out
        };
        let dock = |mut spec: DockControllerFaultSpec| {
            spec.crash_probability_per_docking = 0.5;
            DockRecoveryAwareness::from_spec(&spec, Bytes::from_terabytes(256.0), 21)
        };
        let verify = IntegrityAwareness::verification_only(Seconds::new(3.0));
        let sjf = run(mix(Policy::ShortestJobFirst));
        let sjf_verify = run(mix(Policy::ShortestJobFirst).with_integrity(verify));
        assert!(sjf_verify.makespan > sjf.makespan);

        let fifo = run(mix(Policy::PriorityFifo));
        let replay = run(mix(Policy::PriorityFifo)
            .with_dock_recovery(dock(DockControllerFaultSpec::journal_replay())));
        let rescan = run(mix(Policy::PriorityFifo)
            .with_dock_recovery(dock(DockControllerFaultSpec::rebuild_from_scan())));
        let crashes = |o: &ScheduleOutcome| o.completed.iter().map(|r| r.dock_crashes).sum::<u64>();
        assert_eq!(crashes(&replay), crashes(&rescan));
        assert!(crashes(&replay) > 0, "50% hazard over 37 dockings");
        assert!(replay.makespan > fifo.makespan);
        assert!(rescan.makespan > replay.makespan);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use dhl_storage::datasets::{Dataset, DatasetKind};
    use dhl_units::Bytes;

    fn dataset(tb: f64) -> Dataset {
        Dataset {
            name: "policy".into(),
            size: Bytes::from_terabytes(tb),
            kind: DatasetKind::BigData,
        }
    }

    fn build(policy: Policy) -> (Scheduler, Vec<RequestId>) {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        // One huge job submitted first, three small ones after.
        let big = p.store(dataset(10_000.0)); // 40 carts
        let smalls: Vec<_> = (0..3).map(|_| p.store(dataset(100.0))).collect();
        let mut sched = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_policy(policy);
        let mut ids = vec![sched.submit(TransferRequest::new(
            big,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ))];
        for s in smalls {
            ids.push(sched.submit(TransferRequest::new(s, 1, Priority::Normal, Seconds::ZERO)));
        }
        (sched, ids)
    }

    fn mean_delivery(out: &ScheduleOutcome) -> f64 {
        out.completed
            .iter()
            .map(|o| o.delivered.seconds())
            .sum::<f64>()
            / out.completed.len() as f64
    }

    #[test]
    fn sjf_cuts_mean_latency_without_changing_makespan() {
        let (mut fifo, _) = build(Policy::PriorityFifo);
        let (mut sjf, _) = build(Policy::ShortestJobFirst);
        let out_fifo = fifo.try_run().expect("valid requests");
        let out_sjf = sjf.try_run().expect("valid requests");
        assert!(
            mean_delivery(&out_sjf) < mean_delivery(&out_fifo) / 2.0,
            "sjf {} vs fifo {}",
            mean_delivery(&out_sjf),
            mean_delivery(&out_fifo)
        );
        // Same total work: identical makespan and energy.
        assert!((out_sjf.makespan.seconds() - out_fifo.makespan.seconds()).abs() < 1e-6);
        assert!((out_sjf.total_energy.value() - out_fifo.total_energy.value()).abs() < 1.0);
    }

    #[test]
    fn sjf_runs_small_jobs_first() {
        let (mut sjf, ids) = build(Policy::ShortestJobFirst);
        let out = sjf.try_run().expect("valid requests");
        let big = out.completed.iter().find(|o| o.id == ids[0]).unwrap();
        for small_id in &ids[1..] {
            let small = out.completed.iter().find(|o| o.id == *small_id).unwrap();
            assert!(small.completed < big.started + Seconds::new(1.0));
        }
    }

    #[test]
    fn priority_still_trumps_job_size_under_sjf() {
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let big_urgent = p.store(dataset(5_000.0));
        let tiny_background = p.store(dataset(10.0));
        let mut sched = Scheduler::new(SimConfig::paper_default(), p)
            .unwrap()
            .with_policy(Policy::ShortestJobFirst);
        let t = sched.submit(TransferRequest::new(
            tiny_background,
            1,
            Priority::Background,
            Seconds::ZERO,
        ));
        let b = sched.submit(TransferRequest::new(
            big_urgent,
            1,
            Priority::Urgent,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        let urgent = out.completed.iter().find(|o| o.id == b).unwrap();
        let tiny = out.completed.iter().find(|o| o.id == t).unwrap();
        assert!(urgent.started < tiny.started);
    }

    #[test]
    fn default_policy_is_fifo() {
        let p = Placement::new(Bytes::from_terabytes(256.0));
        let sched = Scheduler::new(SimConfig::paper_default(), p).unwrap();
        assert_eq!(sched.policy(), Policy::PriorityFifo);
    }
}

#[cfg(test)]
mod admission_tests {
    use super::*;
    use crate::admission::{AdmissionSpec, OverloadPolicy, TenantId};
    use dhl_storage::datasets;
    use dhl_units::Bytes;

    fn setup() -> (Scheduler, DatasetId, DatasetId) {
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let small = placement.store(datasets::laion_5b()); // 1 cart
        let big = placement.store(datasets::common_crawl()); // 36 carts
        let sched = Scheduler::new(SimConfig::paper_default(), placement).unwrap();
        (sched, small, big)
    }

    fn roomy_spec() -> AdmissionSpec {
        AdmissionSpec {
            max_pending_global: 1024,
            max_pending_per_tenant: 1024,
            ..AdmissionSpec::default()
        }
    }

    #[test]
    fn open_loop_serves_everything_under_light_load() {
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(roomy_spec());
        for i in 0..4 {
            sched.submit(
                TransferRequest::new(small, 1, Priority::Normal, Seconds::new(i as f64 * 100.0))
                    .with_tenant(TenantId(i % 2)),
            );
        }
        let out = sched.try_run().expect("valid requests");
        let report = out.admission.as_ref().expect("open-loop report");
        assert_eq!(report.offered, 4);
        assert_eq!(report.admitted, 4);
        assert_eq!(report.served, 4);
        assert_eq!(report.rejected(), 0);
        assert_eq!(out.completed.len(), 4);
        assert!(report.goodput_bytes_per_s > 0.0);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].tenant, TenantId(0));
        assert!(report.tenants[0].latency.p99 >= report.tenants[0].latency.p50);
    }

    #[test]
    fn sparse_tenant_ids_keep_rows_in_ascending_order() {
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(roomy_spec());
        // A dense id first, so its row must survive the move to sparse.
        for (i, tenant) in [3, u32::MAX, 0, 3].into_iter().enumerate() {
            sched.submit(
                TransferRequest::new(small, 1, Priority::Normal, Seconds::new(i as f64 * 100.0))
                    .with_tenant(TenantId(tenant)),
            );
        }
        let report = sched
            .try_run()
            .expect("valid requests")
            .admission
            .expect("open-loop report");
        let rows: Vec<(TenantId, u64)> = report
            .tenants
            .iter()
            .map(|t| (t.tenant, t.served))
            .collect();
        assert_eq!(
            rows,
            vec![(TenantId(0), 1), (TenantId(3), 2), (TenantId(u32::MAX), 1)]
        );
    }

    #[test]
    fn queue_bound_rejects_overflow() {
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(AdmissionSpec {
            max_pending_global: 2,
            max_pending_per_tenant: 2,
            ..AdmissionSpec::default()
        });
        for _ in 0..6 {
            sched.submit(TransferRequest::new(
                small,
                1,
                Priority::Normal,
                Seconds::ZERO,
            ));
        }
        let out = sched.try_run().expect("valid requests");
        let report = out.admission.as_ref().unwrap();
        assert_eq!(report.offered, 6);
        assert_eq!(report.rejected_queue_full, 4);
        assert_eq!(report.admitted, 2);
        assert_eq!(out.completed.len(), 2);
        assert_eq!(report.rejected_ids.len(), 4);
    }

    #[test]
    fn shed_policy_evicts_lowest_priority_for_urgent_arrivals() {
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(AdmissionSpec {
            max_pending_global: 1,
            max_pending_per_tenant: 1,
            policy: OverloadPolicy::ShedLowestPriority,
            ..AdmissionSpec::default()
        });
        let bg = sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Background,
            Seconds::ZERO,
        ));
        let urgent = sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Urgent,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        let report = out.admission.as_ref().unwrap();
        assert_eq!(report.shed, 1);
        assert_eq!(report.shed_ids, vec![bg]);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].id, urgent);
    }

    #[test]
    fn deadline_aware_admission_rejects_the_infeasible() {
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(AdmissionSpec {
            deadline_aware: true,
            ..roomy_spec()
        });
        // One-way trip alone is 8.6 s; a 1 s deadline can never be met.
        sched.submit(
            TransferRequest::new(small, 1, Priority::Normal, Seconds::ZERO)
                .with_deadline(Seconds::new(1.0)),
        );
        let feasible = sched.submit(
            TransferRequest::new(small, 1, Priority::Normal, Seconds::ZERO)
                .with_deadline(Seconds::new(60.0)),
        );
        let out = sched.try_run().expect("valid requests");
        let report = out.admission.as_ref().unwrap();
        assert_eq!(report.rejected_deadline, 1);
        assert_eq!(report.admitted, 1);
        assert_eq!(report.deadline_hits, 1);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].id, feasible);
        assert!((report.deadline_hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degrade_policy_keeps_infeasible_work_as_best_effort() {
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(AdmissionSpec {
            deadline_aware: true,
            policy: OverloadPolicy::DegradeToBestEffort,
            ..roomy_spec()
        });
        sched.submit(
            TransferRequest::new(small, 1, Priority::Urgent, Seconds::ZERO)
                .with_deadline(Seconds::new(1.0)),
        );
        let out = sched.try_run().expect("valid requests");
        let report = out.admission.as_ref().unwrap();
        assert_eq!(report.rejected_deadline, 0);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.admitted, 1);
        // The degraded request runs without its (unmeetable) deadline.
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(out.completed.len(), 1);
    }

    #[test]
    fn retry_budget_caps_attempts_and_tokens() {
        let (sched, small, _) = setup();
        let mut spec = roomy_spec();
        spec.retry.max_attempts_per_request = 3;
        spec.retry.tokens_per_tenant = 1;
        let mut sched = sched.with_admission(spec).with_faults(FaultAwareness {
            loss_probability: 1.0,
            max_attempts: 99, // ignored in open-loop mode: the spec's budget rules
            seed: 7,
            downtime: Vec::new(),
        });
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        let report = out.admission.as_ref().unwrap();
        // Every attempt is lost; the single tenant held one retry token, so
        // exactly one retry fires in total and every shard is abandoned. The
        // second request and the first's second failure both find the bucket
        // empty.
        assert_eq!(report.retries, 1);
        assert_eq!(report.retry_tokens_exhausted, 2);
        assert_eq!(report.abandoned_shards, 2);
        assert_eq!(out.completed.iter().map(|o| o.deliveries).sum::<u64>(), 0);
    }

    #[test]
    fn retry_backoff_delays_the_redelivery() {
        let (sched, small, _) = setup();
        let mut spec = roomy_spec();
        spec.retry.backoff_base = Seconds::new(50.0);
        spec.retry.jitter_fraction = 0.0;
        let mut sched = sched.with_admission(spec).with_faults(FaultAwareness {
            loss_probability: 1.0,
            max_attempts: 4,
            seed: 7,
            downtime: Vec::new(),
        });
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        let r = &out.completed[0];
        // Attempt 1 is home at 17.2 s; the retry may not depart before
        // 17.2 s + the 50 s backoff, so it can't be home before 84.4 s.
        assert!(r.completed.seconds() >= 17.2 + 50.0 + 17.2 - 1e-9);
        assert_eq!(r.redeliveries, 2);
    }

    #[test]
    fn disabled_admission_reports_none() {
        let (mut sched, small, _) = setup();
        sched.submit(TransferRequest::new(
            small,
            1,
            Priority::Normal,
            Seconds::ZERO,
        ));
        let out = sched.try_run().expect("valid requests");
        assert!(out.admission.is_none());
    }

    /// Pending-set entries examined, and the arrivals admitted and refused
    /// for a full queue, in a saturating open-loop run whose every arrival
    /// carries a deadline, with the pending set capped at `cap`.
    fn deadline_walks(cap: usize) -> (u64, u64, u64) {
        use crate::service_queue::EXAMINED;
        use dhl_sim::{ArrivalGenerator, ArrivalSpec};
        let (sched, small, _) = setup();
        let mut sched = sched.with_admission(AdmissionSpec {
            max_pending_global: cap,
            max_pending_per_tenant: cap,
            policy: OverloadPolicy::Reject,
            deadline_aware: true,
            ..AdmissionSpec::default()
        });
        sched.set_metrics_enabled(false);
        // 4x the track's saturation rate keeps the queue at its cap; the
        // deadline clears any backlog the cap allows, so every arrival
        // runs the deadline check and none is refused by it.
        let spec = ArrivalSpec::poisson(4.0 / 17.2, Seconds::new(1e15), 7).with_tenants(64);
        for (i, arrival) in ArrivalGenerator::new(&spec).take(16_384).enumerate() {
            let priority = [Priority::Background, Priority::Normal, Priority::Urgent][i % 3];
            sched.submit(
                TransferRequest::new(small, 1, priority, arrival.at)
                    .with_tenant(TenantId(arrival.tenant))
                    .with_deadline(arrival.at + Seconds::new(1e7)),
            );
        }
        EXAMINED.with(|n| n.set(0));
        let report = sched.try_run().unwrap().admission.unwrap();
        assert_eq!(report.rejected_deadline, 0, "the deadline never binds");
        let examined = EXAMINED.with(std::cell::Cell::get);
        (examined, report.admitted, report.rejected_queue_full)
    }

    /// The running backlog's bracket decides every deadline check at both
    /// depths, so no arrival walks the pending set: each admitted entry
    /// costs the same 10.4 examined (its push, its pop) at either cap, and
    /// a refused arrival examines none. A walk per arrival would add the
    /// cap to each. Both queues sit at their caps: three quarters and half
    /// of the arrivals find them full.
    #[test]
    fn deadline_admission_does_not_walk_the_backlog() {
        let small = deadline_walks(64);
        let large = deadline_walks(4_096);
        assert_eq!(small, (43_479, 4_182, 12_202));
        assert_eq!(large, (85_691, 8_214, 8_170));
        let per_admitted =
            |(examined, admitted, _): (u64, u64, u64)| examined as f64 / admitted as f64;
        let ratio = per_admitted(large) / per_admitted(small);
        assert!(ratio < 1.1, "{large:?} vs {small:?}: {ratio:.3}x");
    }
}
