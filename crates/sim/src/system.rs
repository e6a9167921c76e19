//! The event-driven DHL system simulator.
//!
//! Simulates the full §III architecture: a cart fleet stored in the library,
//! one or more rack endpoints with docking stations, and one (or two, §VI)
//! maglev tracks connecting them. The simulator enforces the physical
//! constraints the analytical model elides:
//!
//! - carts cannot pass one another, so same-direction launches keep a
//!   headway of one docking time;
//! - a single bidirectional track must drain completely before reversing;
//! - an endpoint can hold only as many carts as it has docking stations;
//! - dock and undock each take their configured (pessimistic 3 s) time.
//!
//! Movements that cannot launch yet wait in a backlog, in FIFO order.
//! After every event the launch rule lets go the oldest waiting movement
//! whose destination has a free dock and whose track is free, and repeats
//! until none can go. A movement held only by the same-direction headway
//! waits for the headway to end: when the undock takes at least as long
//! as the dock, the headway is the undock time, so the last launch's own
//! `UndockDone` ends it; otherwise the rule books a wakeup for it. The
//! backlog is indexed by launch group — (direction, destination) — because
//! every movement of a group passes or fails that test together, and
//! choosing a launch reads only the oldest dock-free movement of each
//! direction, however many racks (see the `backlog` module and
//! `DhlSystem::try_launch` for the exact rule).

use std::collections::VecDeque;
use std::sync::OnceLock;

use dhl_obs::{MetricsRegistry, Stopwatch};
use dhl_rng::Rng;
use dhl_storage::connectors::{ConnectorKind, DockingConnector};
use dhl_storage::wear::CartWear;
use dhl_units::{Bytes, Joules, Seconds, Watts};

use crate::arena::CartArena;
use crate::backlog::Backlog;
use crate::config::{ConfigError, EndpointKind, EndpointSpec, ProcessingModel, SimConfig};
use crate::engine::EventQueue;
use crate::hazard::{HazardStreams, Verdict};
use crate::metrics::{SimMetrics, PUBLISHED};
use crate::movement::{MovementCost, MovementTable};
use crate::report::{BulkTransferReport, IntegrityReport, ReliabilityReport};
use crate::trace::{Trace, TraceEventKind, TraceSink};

/// Index of a cart in the fleet.
pub type CartId = usize;
/// Index of an endpoint along the track.
pub type EndpointId = usize;

/// Events a run may process before it is deemed a runaway.
const EVENT_BUDGET: u64 = 50_000_000;

/// Travel direction relative to the library.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Away from the library (toward higher positions).
    Outbound,
    /// Back toward the library.
    Inbound,
}

/// Where a cart currently is.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum CartLocation {
    /// Docked (idle or processing) at an endpoint.
    Docked(EndpointId),
    /// Somewhere between two endpoints.
    Moving {
        /// Origin endpoint.
        from: EndpointId,
        /// Destination endpoint.
        to: EndpointId,
    },
}

#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) struct Movement {
    pub(crate) cart: CartId,
    pub(crate) from: EndpointId,
    pub(crate) to: EndpointId,
    pub(crate) payload: Bytes,
    /// Delivery attempt for this shard (1-based; 0 for empty returns).
    pub(crate) attempt: u32,
}

/// The in-flight half of a [`Movement`], carrying the cost actually charged
/// at launch (which may be speed-limited by a repressurised tube) so arrival
/// and failure-exposure accounting stay consistent with it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) struct ActiveMovement {
    pub(crate) from: EndpointId,
    pub(crate) to: EndpointId,
    pub(crate) payload: Bytes,
    pub(crate) attempt: u32,
    pub(crate) cost: MovementCost,
    pub(crate) stalled: bool,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Ev {
    TryLaunch,
    UndockDone { cart: CartId },
    Arrived { cart: CartId },
    DockDone { cart: CartId },
    VerifyDone { cart: CartId },
    ProcessingDone { cart: CartId },
}

/// A rack delivery parked in the `Arrived` state of the delivery machine:
/// docked, scrub scheduled, verdict pending.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) struct PendingVerify {
    pub(crate) to: EndpointId,
    pub(crate) payload: Bytes,
    pub(crate) attempt: u32,
    /// One-way trip time actually charged — the corruption exposure window,
    /// and the basis for retry-time accounting if the payload reships.
    pub(crate) trip_time: Seconds,
    pub(crate) shards: u64,
}

/// One track's state. `direction`, `in_flight` and `blocked_by` say what
/// the carts moving on it say, so a checkpoint leaves them out and a resume
/// counts them from the fleet.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub(crate) struct TrackState {
    pub(crate) direction: Option<Direction>,
    pub(crate) in_flight: u32,
    pub(crate) last_launch: f64,
    pub(crate) busy_accum: f64,
    pub(crate) last_update: f64,
    /// Cart currently stalled on this track, blocking further launches
    /// since `last_launch`: no launch leaves a blocked track.
    pub(crate) blocked_by: Option<CartId>,
    pub(crate) downtime_accum: f64,
    /// Repressurisation: launches before this time are speed-limited.
    pub(crate) degraded_until: f64,
}

impl TrackState {
    fn update_busy(&mut self, now: f64) {
        if self.in_flight > 0 {
            self.busy_accum += now - self.last_update;
        }
        self.last_update = now;
    }
}

#[derive(Copy, Clone)]
enum LaunchCheck {
    Free,
    Headway(f64),
    BusyOpposite,
    /// A stalled cart blocks the track; launches resume when it docks.
    Blocked,
}

#[derive(Clone, PartialEq, Debug, Default)]
pub(crate) struct RackDemand {
    pub(crate) endpoint: EndpointId,
    pub(crate) bytes_remaining: Bytes,
    pub(crate) deliveries_done: u64,
}

#[derive(Clone, PartialEq, Debug, Default)]
pub(crate) struct Mission {
    pub(crate) total_deliveries: u64,
    pub(crate) scheduled: u64,
    pub(crate) done: u64,
    pub(crate) demands: Vec<RackDemand>,
    pub(crate) delivered: Bytes,
    /// Every byte that docked at a rack, including failed attempts.
    pub(crate) gross_delivered: Bytes,
    pub(crate) completion_time: Option<f64>,
}

/// A shard waiting to be redelivered after a loss.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) struct Redelivery {
    pub(crate) endpoint: EndpointId,
    pub(crate) payload: Bytes,
    /// The attempt the redelivery will be (2 for the first retry).
    pub(crate) attempt: u32,
}

/// A shard that ran out of delivery attempts.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) struct Abandoned {
    pub(crate) endpoint: EndpointId,
    pub(crate) attempts: u32,
}

/// Fault-injection and integrity accounting, kept apart from the state
/// machines so a checkpoint captures and restores it as one value.
#[derive(Clone, PartialEq, Debug, Default)]
pub(crate) struct Counters {
    pub(crate) ssd_failures: u64,
    pub(crate) data_loss_events: u64,
    pub(crate) redeliveries: u64,
    pub(crate) retry_time_s: f64,
    pub(crate) cart_stalls: u64,
    pub(crate) connector_replacements: u64,
    pub(crate) repressurisations: u64,
    pub(crate) dock_crashes: u64,
    pub(crate) dock_recovery_time_s: f64,
    /// Controller recovery downtime accumulated per endpoint.
    pub(crate) dock_downtime: Vec<f64>,
    pub(crate) shards_scanned: u64,
    pub(crate) shards_corrupted: u64,
    pub(crate) shards_reconstructed: u64,
    pub(crate) deliveries_verified: u64,
    pub(crate) deliveries_reshipped: u64,
    pub(crate) verification_time_s: f64,
    pub(crate) reconstruction_time_s: f64,
    pub(crate) verification_energy_j: f64,
}

/// Errors from running a simulation.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The event budget was exhausted (runaway simulation).
    EventBudgetExhausted {
        /// Events processed before giving up.
        events: u64,
    },
    /// A shard exhausted its delivery-attempt budget (fault injection with
    /// recovery enabled).
    DeliveryAbandoned {
        /// The rack the shard was bound for.
        endpoint: EndpointId,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A checkpoint was resumed against a configuration that differs from
    /// the one it was captured under.
    CheckpointMismatch {
        /// Configuration fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the configuration passed to `resume`.
        actual: u64,
    },
    /// A checkpoint carries a metric the simulator does not record.
    UnknownMetric {
        /// The unrecognised metric name.
        name: String,
    },
    /// A checkpoint records more matings on a cart's docking connector
    /// than its rating allows — a count no run reaches, because mating
    /// stops at the rating.
    ConnectorCyclesExceedRating {
        /// The cart carrying the connector.
        cart: CartId,
        /// Mating cycles the checkpoint records.
        cycles: u32,
        /// The connector's rated cycle count.
        rated: u32,
    },
    /// A checkpoint's state does not fit the configuration it resumes
    /// under: an index out of range, or a table of the wrong length.
    InvalidCheckpointState {
        /// The offending field, e.g. `pending[3].to`.
        field: String,
        /// What is wrong with it.
        reason: String,
    },
    /// [`DhlSystem::run_until`] was given a NaN limit, which no event time
    /// can be compared against.
    InvalidLimit(Seconds),
    /// A replica crashed more times than its recovery budget allows.
    RestartBudgetExhausted {
        /// Index of the replica that kept crashing.
        replica: u64,
        /// Restarts attempted before giving up.
        restarts: u32,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::EventBudgetExhausted { events } => {
                write!(
                    f,
                    "simulation exceeded its event budget after {events} events"
                )
            }
            Self::DeliveryAbandoned { endpoint, attempts } => {
                write!(
                    f,
                    "delivery to endpoint {endpoint} abandoned after {attempts} failed attempts"
                )
            }
            Self::CheckpointMismatch { expected, actual } => {
                write!(
                    f,
                    "checkpoint was captured under a different configuration \
                     (fingerprint {expected:#018x}, got {actual:#018x})"
                )
            }
            Self::UnknownMetric { name } => {
                write!(f, "checkpoint carries unknown metric `{name}`")
            }
            Self::ConnectorCyclesExceedRating {
                cart,
                cycles,
                rated,
            } => {
                write!(
                    f,
                    "checkpoint gives cart {cart}'s connector {cycles} mating cycles, \
                     beyond its rating of {rated}"
                )
            }
            Self::InvalidCheckpointState { field, reason } => {
                write!(f, "checkpoint field `{field}` is invalid: {reason}")
            }
            Self::InvalidLimit(limit) => write!(f, "run limit {limit} is not a number"),
            Self::RestartBudgetExhausted { replica, restarts } => {
                write!(
                    f,
                    "replica {replica} exhausted its restart budget after {restarts} restarts"
                )
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// The run state that [`DhlSystem::assemble`] takes as given: fresh from
/// [`DhlSystem::new`], or restored from a checkpoint by `resume`.
pub(crate) struct RunState {
    pub(crate) carts: CartArena,
    pub(crate) dock_used: Vec<u32>,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) tracks: Vec<TrackState>,
    pub(crate) counters: Counters,
    pub(crate) streams: HazardStreams,
}

/// Whether endpoint `ep`, with `used` of its docks taken, has one free.
fn has_free_dock(ep: &EndpointSpec, used: u32) -> bool {
    used < ep.docks
}

/// The DHL system simulator.
///
/// # Examples
///
/// Reproducing the paper's doubled-trip bulk transfer with a strictly serial
/// system (one cart, one rack dock):
///
/// ```rust
/// use dhl_sim::{DhlSystem, SimConfig};
/// use dhl_units::Bytes;
///
/// let report = DhlSystem::new(SimConfig::paper_serial())
///     .unwrap()
///     .run_bulk_transfer(Bytes::from_petabytes(29.0))
///     .unwrap();
/// assert_eq!(report.deliveries, 114);
/// assert_eq!(report.movements, 228); // every delivery also returns
/// // 228 × 8.6 s = 1960.8 s — the analytical model's doubled accounting.
/// assert!((report.completion_time.seconds() - 1960.8).abs() < 1.0);
/// ```
pub struct DhlSystem {
    pub(crate) cfg: SimConfig,
    /// `config_fingerprint(&cfg)`, computed by the first checkpoint (or
    /// verified by resume), since formatting the configuration dominates a
    /// capture.
    pub(crate) fingerprint: OnceLock<u64>,
    pub(crate) queue: EventQueue<Ev>,
    /// The cart fleet in struct-of-arrays layout (see [`crate::arena`]).
    pub(crate) carts: CartArena,
    /// Precomputed per-hop kinematics — built once per configuration so the
    /// hot path never re-evaluates a trapezoid.
    pub(crate) costs: MovementTable,
    /// Carts holding or reserving a dock, per endpoint (see `set_dock_used`).
    pub(crate) dock_used: Vec<u32>,
    pub(crate) tracks: Vec<TrackState>,
    /// Movements waiting to launch, indexed by launch group.
    pub(crate) backlog: Backlog,
    /// Shards awaiting redelivery after a RAID-uncovered loss; served before
    /// fresh demand so retries keep their place in the mission.
    pub(crate) redelivery_queue: VecDeque<Redelivery>,
    pub(crate) mission: Mission,
    /// Whether an `Ev::TryLaunch` is pending.
    pub(crate) wakeup_scheduled: bool,
    pub(crate) total_energy: Joules,
    pub(crate) movements: u64,
    pub(crate) max_in_flight: u32,
    pub(crate) trace: TraceSink,
    /// The reliability, fault and integrity streams, each independent of
    /// the others.
    pub(crate) streams: HazardStreams,
    pub(crate) counters: Counters,
    /// The shard that exhausted its delivery attempts, ending the run.
    pub(crate) abandoned: Option<Abandoned>,
    /// Events processed before the current mission started, so per-run
    /// event accounting survives checkpoint/resume.
    pub(crate) events_at_mission_start: u64,
    /// Wall clock for the in-progress mission (restarted on resume; feeds
    /// only the pacing gauges, which are excluded from outcome equality).
    pub(crate) run_watch: Option<Stopwatch>,
    /// Observability registry: deterministic sim-domain counters and
    /// histograms, plus wall-clock pacing gauges per run. Enabled by
    /// default; `set_metrics_enabled(false)` turns every recording into a
    /// single branch.
    pub(crate) metrics: MetricsRegistry,
    /// Pre-interned handles into `metrics`: hot-path recording is a dense
    /// slot write, never a name lookup. Re-registered whenever `metrics`
    /// is replaced (`set_metrics_enabled`, checkpoint resume).
    pub(crate) handles: SimMetrics,
}

impl DhlSystem {
    /// Builds a simulator over a validated configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let connector = cfg
            .faults
            .as_ref()
            .and_then(|f| f.docking_connector.as_ref())
            .map(|c| DockingConnector::new(c.kind));
        let wear = cfg
            .integrity
            .as_ref()
            .map(|i| CartWear::new(i.endurance.clone(), cfg.cart_capacity));
        // The fleet starts docked at the library.
        let mut dock_used = vec![0u32; cfg.endpoints.len()];
        dock_used[0] = cfg.num_carts;
        let state = RunState {
            carts: CartArena::with_fleet(cfg.num_carts as usize, connector, wear),
            dock_used,
            queue: EventQueue::new(),
            tracks: vec![TrackState::default(); if cfg.dual_track { 2 } else { 1 }],
            counters: Counters {
                dock_downtime: vec![0.0; cfg.endpoints.len()],
                ..Counters::default()
            },
            streams: HazardStreams::new(&cfg),
        };
        Ok(Self::assemble(cfg, state, &[], MetricsRegistry::enabled()))
    }

    /// A system over a validated `cfg`, around the run state, pending
    /// launches and registry that [`DhlSystem::new`] or
    /// [`DhlSystem::resume`] built for it.
    pub(crate) fn assemble(
        cfg: SimConfig,
        state: RunState,
        pending: &[Movement],
        mut metrics: MetricsRegistry,
    ) -> Self {
        let RunState {
            carts,
            dock_used,
            queue,
            tracks,
            counters,
            streams,
        } = state;
        let dock_free = (dock_used.iter().zip(&cfg.endpoints))
            .map(|(&used, ep)| has_free_dock(ep, used))
            .collect();
        let backlog = Backlog::from_fifo(dock_free, pending);
        let degraded_cap = cfg
            .faults
            .as_ref()
            .and_then(|f| f.repressurisation.as_ref())
            .map(|r| r.degraded_speed(cfg.max_speed, cfg.track_length()));
        let costs = MovementTable::build(&cfg, degraded_cap);
        let handles = SimMetrics::register(&mut metrics);
        Self {
            cfg,
            queue,
            carts,
            costs,
            dock_used,
            tracks,
            backlog,
            redelivery_queue: VecDeque::new(),
            mission: Mission::default(),
            wakeup_scheduled: false,
            total_energy: Joules::ZERO,
            movements: 0,
            max_in_flight: 0,
            streams,
            trace: TraceSink::Disabled,
            counters,
            abandoned: None,
            events_at_mission_start: 0,
            run_watch: None,
            metrics,
            handles,
            fingerprint: OnceLock::new(),
        }
    }

    /// The observability registry (metrics accumulate across runs). Mid-run,
    /// the published counters read as of this system's last `finish`.
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
        self.handles = SimMetrics::register(&mut self.metrics);
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Enables event tracing, retaining at most `capacity` events in a
    /// buffer preallocated up front.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceSink::buffered(capacity);
    }

    /// Takes the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    fn record(&mut self, kind: TraceEventKind) {
        // Branch before touching the clock: with tracing disabled this is
        // the whole cost of the call.
        if self.trace.is_enabled() {
            let now = self.queue.now();
            self.trace.record(now, kind);
        }
    }

    fn track_index(&self, dir: Direction) -> usize {
        if self.cfg.dual_track && dir == Direction::Inbound {
            1
        } else {
            0
        }
    }

    pub(crate) fn direction_of(from: EndpointId, to: EndpointId) -> Direction {
        if to > from {
            Direction::Outbound
        } else {
            Direction::Inbound
        }
    }

    /// Sets the docks in use at `ep`, and whether the backlog sees it free.
    fn set_dock_used(&mut self, ep: EndpointId, used: u32) {
        self.dock_used[ep] = used;
        let free = has_free_dock(&self.cfg.endpoints[ep], used);
        self.backlog.set_dock_free(ep, free);
    }

    fn check_track(&self, dir: Direction, now: f64) -> LaunchCheck {
        let track = &self.tracks[self.track_index(dir)];
        if track.blocked_by.is_some() {
            return LaunchCheck::Blocked;
        }
        if track.in_flight == 0 {
            return LaunchCheck::Free;
        }
        if track.direction != Some(dir) {
            return LaunchCheck::BusyOpposite;
        }
        let available = track.last_launch + self.cfg.launch_headway().seconds();
        if now >= available {
            LaunchCheck::Free
        } else {
            LaunchCheck::Headway(available)
        }
    }

    /// Samples launch-time faults on track `idx` and returns the movement
    /// cost actually charged (speed-limited while the tube is repressurised)
    /// plus whether this cart stalls mid-tube.
    fn sample_launch_faults(
        &mut self,
        idx: usize,
        from: EndpointId,
        to: EndpointId,
        now: f64,
    ) -> (MovementCost, bool) {
        // Copy the two Copy sub-specs out of the borrow so the fault RNG,
        // metrics, and track state can be mutated below without cloning the
        // whole spec per launch.
        let (repressurisation, cart_stall) = match self.cfg.faults.as_ref() {
            Some(faults) => (faults.repressurisation, faults.cart_stall),
            None => return (self.costs.cost(from, to), false),
        };
        let rng = (self.streams.fault.as_mut()).expect("fault rng exists with spec");
        if let Some(rep) = repressurisation {
            if rng.random_bool(rep.probability_per_movement) {
                self.counters.repressurisations += 1;
                let until = now + rep.duration.seconds();
                let track = &mut self.tracks[idx];
                track.degraded_until = track.degraded_until.max(until);
            }
        }
        let mut stalled = false;
        if let Some(stall) = cart_stall {
            let rng = (self.streams.fault.as_mut()).expect("fault rng exists with spec");
            stalled = rng.random_bool(stall.probability_per_movement);
        }
        // Table lookups, not trapezoid evaluations: both tiers were batch-
        // computed at construction (the degraded tier falls back to full
        // speed when no repressurisation cap is configured, exactly as the
        // old per-launch `unwrap_or(max_speed)` did).
        let cost = if self.tracks[idx].degraded_until > now {
            self.costs.degraded_cost(from, to)
        } else {
            self.costs.cost(from, to)
        };
        (cost, stalled)
    }

    fn launch(&mut self, m: Movement) {
        let now = self.queue.now().seconds();
        let dir = Self::direction_of(m.from, m.to);
        let idx = self.track_index(dir);
        let (cost, stalled) = self.sample_launch_faults(idx, m.from, m.to, now);

        self.set_dock_used(m.to, self.dock_used[m.to] + 1); // reserve the dock now
        let track = &mut self.tracks[idx];
        track.update_busy(now);
        track.direction = Some(dir);
        track.in_flight += 1;
        track.last_launch = now;
        if stalled {
            // The stalled cart blocks everything behind it on this track
            // from the moment it departs; carts already ahead are unaffected.
            self.counters.cart_stalls += 1;
            track.blocked_by = Some(m.cart);
        }
        self.max_in_flight = self.max_in_flight.max(self.total_in_flight());

        self.total_energy += cost.energy;
        self.movements += 1;
        self.metrics
            .record(self.handles.transit_s, cost.total_time.seconds());

        // A loaded launch from the library is a restage: the payload was
        // written onto the cart's NAND, wearing it.
        if m.from == 0 && !m.payload.is_zero() {
            if let Some(wear) = self.carts.wear[m.cart].as_mut() {
                wear.record_write(m.payload);
            }
        }
        self.carts.set_location(
            m.cart,
            CartLocation::Moving {
                from: m.from,
                to: m.to,
            },
        );
        self.carts.movements[m.cart] = Some(ActiveMovement {
            from: m.from,
            to: m.to,
            payload: m.payload,
            attempt: m.attempt,
            cost,
            stalled,
        });

        self.queue
            .schedule(self.cfg.undock_time, Ev::UndockDone { cart: m.cart });
        self.record(TraceEventKind::Launch {
            cart: m.cart,
            from: m.from,
            to: m.to,
        });
    }

    fn total_in_flight(&self) -> u32 {
        self.tracks.iter().map(|t| t.in_flight).sum()
    }

    /// Launches every movement the launch rule lets go now, oldest first,
    /// and books a wakeup for the earliest headway expiry that could let
    /// another go later, unless an `UndockDone` already falls there.
    ///
    /// The rule is that of one FIFO scanned front to back: launch the
    /// first movement whose dock is free and whose track is `Free`, then
    /// scan again; a movement passed over on a `Headway` track asks for a
    /// wakeup. The track test depends only on the direction, so the scan
    /// reduces to the oldest dock-free movement per direction, which the
    /// backlog keeps indexed (see [`crate::backlog`]): the launch is the
    /// older of the two on a `Free` track, and one on a `Headway` track
    /// asks for its wakeup only if it is older than that launch (the scan
    /// would have stopped before reaching it otherwise), or when nothing
    /// launches. When the undock ends each headway, its `UndockDone` is
    /// queued before any wakeup and runs this rule first: none is booked.
    fn try_launch(&mut self) {
        let covered = self.cfg.undock_ends_headway();
        let now = self.queue.now().seconds();
        self.metrics
            .record(self.handles.queue_depth, self.backlog.len() as f64);
        let mut wakeup: Option<f64> = None;
        loop {
            let mut launch: Option<(u64, Direction)> = None;
            // Per direction: the oldest dock-free movement held by
            // headway, and when that headway ends.
            let mut held: [Option<(u64, f64)>; 2] = [None; 2];
            for dir in [Direction::Outbound, Direction::Inbound] {
                let Some((seq, _)) = self.backlog.oldest(dir) else {
                    continue;
                };
                match self.check_track(dir, now) {
                    LaunchCheck::Free => {
                        if launch.is_none_or(|(oldest, _)| seq < oldest) {
                            launch = Some((seq, dir));
                        }
                    }
                    LaunchCheck::Headway(at) => held[dir as usize] = Some((seq, at)),
                    // Both resolve on a later DockDone, which re-runs
                    // try_launch; no timed wakeup needed.
                    LaunchCheck::BusyOpposite | LaunchCheck::Blocked => {}
                }
            }
            for (seq, at) in held.into_iter().flatten() {
                if !covered && launch.is_none_or(|(launched, _)| seq < launched) {
                    wakeup = Some(wakeup.map_or(at, |w: f64| w.min(at)));
                }
            }
            let Some((_, dir)) = launch else { break };
            let m = self.backlog.pop(dir);
            self.launch(m);
            // A launch we just made imposes headway on the rest; look
            // again (some may still be launchable on the other track when
            // dual).
        }
        if let Some(at) = wakeup {
            if !self.wakeup_scheduled {
                self.wakeup_scheduled = true;
                self.queue.schedule_at(Seconds::new(at), Ev::TryLaunch);
            }
        }
    }

    fn processing_time(&self) -> Seconds {
        match self.cfg.processing {
            ProcessingModel::Instant => Seconds::ZERO,
            ProcessingModel::PcieRead {
                bandwidth_bytes_per_second,
            } => Seconds::new(self.cfg.cart_capacity.as_f64() / bandwidth_bytes_per_second),
            ProcessingModel::Fixed(t) => t,
        }
    }

    fn schedule_delivery_for(&mut self, cart: CartId) {
        // Redeliveries first: a lost shard keeps its place in the mission.
        if let Some(r) = self.redelivery_queue.pop_front() {
            self.mission.scheduled += 1;
            self.backlog.push(Movement {
                cart,
                from: 0,
                to: r.endpoint,
                payload: r.payload,
                attempt: r.attempt,
            });
            return;
        }
        // Assign the next shard to this library cart, targeting the rack
        // with the most data still owed (greedy balance across racks).
        let Some(demand) = self
            .mission
            .demands
            .iter_mut()
            .filter(|d| !d.bytes_remaining.is_zero())
            .max_by_key(|d| d.bytes_remaining)
        else {
            return;
        };
        let shard = demand.bytes_remaining.min(self.cfg.cart_capacity);
        demand.bytes_remaining -= shard;
        let rack = demand.endpoint;
        self.mission.scheduled += 1;
        self.backlog.push(Movement {
            cart,
            from: 0,
            to: rack,
            payload: shard,
            attempt: 1,
        });
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::TryLaunch => {
                self.wakeup_scheduled = false;
                self.try_launch();
            }
            Ev::UndockDone { cart } => {
                let m = self.carts.movements[cart].expect("moving cart");
                self.set_dock_used(m.from, self.dock_used[m.from] - 1);
                let mut transit = m.cost.motion_time;
                self.record(TraceEventKind::EnterTube { cart });
                if m.stalled {
                    let repair = self
                        .cfg
                        .faults
                        .as_ref()
                        .and_then(|f| f.cart_stall.as_ref())
                        .map_or(Seconds::ZERO, |s| s.repair_time);
                    transit += repair;
                    let dir = Self::direction_of(m.from, m.to);
                    let idx = self.track_index(dir);
                    self.record(TraceEventKind::CartStalled { cart, track: idx });
                }
                self.queue.schedule(transit, Ev::Arrived { cart });
                self.try_launch();
            }
            Ev::Arrived { cart } => {
                let mut dock = self.cfg.dock_time;
                // Every docking mates the connector once (integrity wear
                // input, independent of connector fault injection).
                self.carts.matings[cart] = self.carts.matings[cart].saturating_add(1);
                // Docking mates the cart's connector; a worn connector costs
                // a replacement window before data can flow.
                let replacement = self
                    .cfg
                    .faults
                    .as_ref()
                    .and_then(|f| f.docking_connector.as_ref())
                    .map(|c| c.replacement_time);
                if let (Some(conn), Some(replacement)) =
                    (self.carts.connectors[cart].as_mut(), replacement)
                {
                    if conn.mate().is_err() {
                        conn.replace();
                        let _ = conn.mate();
                        self.counters.connector_replacements += 1;
                        dock += replacement;
                    }
                }
                let recovery = self.sample_dock_crash(cart);
                dock += recovery.unwrap_or(Seconds::ZERO);
                self.queue.schedule(dock, Ev::DockDone { cart });
                self.record(TraceEventKind::BeginDock { cart });
                if let Some(downtime) = recovery {
                    let endpoint = self.carts.movements[cart].expect("moving cart").to;
                    self.record(TraceEventKind::DockControllerCrashed { cart, endpoint });
                    self.record(TraceEventKind::DockControllerRecovered {
                        cart,
                        endpoint,
                        downtime,
                    });
                }
            }
            Ev::DockDone { cart } => {
                let m = self.carts.movements[cart].take().expect("moving cart");
                let dir = Self::direction_of(m.from, m.to);
                let idx = self.track_index(dir);
                let now = self.queue.now().seconds();
                let track = &mut self.tracks[idx];
                track.update_busy(now);
                track.in_flight -= 1;
                if track.in_flight == 0 {
                    track.direction = None;
                }
                if m.stalled {
                    track.blocked_by = None;
                    track.downtime_accum += now - track.last_launch;
                    self.record(TraceEventKind::TrackRestored { track: idx });
                }
                self.carts.set_location(cart, CartLocation::Docked(m.to));
                self.record(TraceEventKind::Docked {
                    cart,
                    endpoint: m.to,
                });
                let lost = self.sample_in_flight_failures(m.payload, m.cost.total_time);

                if self.cfg.endpoints[m.to].kind == EndpointKind::Rack {
                    self.mission.done += 1;
                    self.mission.gross_delivered += m.payload;
                    self.metrics.add(self.handles.deliveries, 1);
                    if lost && self.cfg.faults.is_some() {
                        self.fail_delivery(cart, m.to, m.payload, m.attempt, m.cost.total_time);
                    } else if self.cfg.integrity.is_some() {
                        // Arrival is no longer delivery: the payload enters
                        // the verify-on-dock state machine and completes (or
                        // reships) at VerifyDone.
                        self.begin_verification(cart, &m);
                    } else {
                        // Either the payload survived, or legacy accounting
                        // (faults = None) counts the loss without recovery.
                        self.complete_delivery(cart, m.to, m.payload, Seconds::ZERO);
                    }
                } else {
                    // Returned to the library: reuse for the next shard, or
                    // check completion.
                    if self.mission.scheduled < self.mission.total_deliveries {
                        self.schedule_delivery_for(cart);
                    }
                    self.check_completion();
                }
                self.try_launch();
            }
            Ev::VerifyDone { cart } => {
                self.finish_verification(cart);
                self.try_launch();
            }
            Ev::ProcessingDone { cart } => {
                self.record(TraceEventKind::ProcessingDone { cart });
                let CartLocation::Docked(ep) = self.carts.locations[cart] else {
                    unreachable!("processing cart is docked");
                };
                self.backlog.push(Movement {
                    cart,
                    from: ep,
                    to: 0,
                    payload: Bytes::ZERO,
                    attempt: 0,
                });
                self.try_launch();
            }
        }
    }

    /// Samples a dock-station controller crash for this docking and returns
    /// the recovery window to charge, if one fired. Only payload-carrying
    /// rack dockings are exposed: controller recovery is about rebuilding
    /// transfer bookkeeping, and empty returns have none to rebuild.
    fn sample_dock_crash(&mut self, cart: CartId) -> Option<Seconds> {
        let spec = self.cfg.faults.as_ref()?.dock_controller?;
        let m = self.carts.movements[cart].expect("moving cart");
        if self.cfg.endpoints[m.to].kind != EndpointKind::Rack || m.payload.is_zero() {
            return None;
        }
        let rng = (self.streams.fault.as_mut()).expect("fault rng exists with spec");
        let (downtime, energy) = spec.sample_crash(rng, m.payload)?;
        self.counters.dock_crashes += 1;
        self.counters.dock_recovery_time_s += downtime.seconds();
        self.counters.dock_downtime[m.to] += downtime.seconds();
        self.total_energy += energy;
        self.metrics
            .record(self.handles.dock_recovery_s, downtime.seconds());
        Some(downtime)
    }

    /// Samples SSD failures over one movement's exposure and returns whether
    /// the payload was lost (more failures than the RAID layout tolerates).
    ///
    /// Empty return trips carry no data, so they draw no samples and can
    /// never lose anything.
    fn sample_in_flight_failures(&mut self, payload: Bytes, exposure: Seconds) -> bool {
        let Some(spec) = self.cfg.reliability.as_ref() else {
            return false;
        };
        if payload.is_zero() {
            return false;
        }
        let rng = (self.streams.reliability.as_mut()).expect("rng exists with spec");
        let (failed, lost) = spec.sample_in_flight(rng, exposure);
        self.counters.ssd_failures += u64::from(failed);
        self.counters.data_loss_events += u64::from(lost);
        lost
    }

    /// Completes a rack delivery: credit the payload, then schedule the
    /// processing dwell after `extra_dwell` (reconstruction time, for
    /// payloads rebuilt at the dock).
    fn complete_delivery(
        &mut self,
        cart: CartId,
        to: EndpointId,
        payload: Bytes,
        extra_dwell: Seconds,
    ) {
        self.mission.delivered += payload;
        if let Some(d) = self.mission.demands.iter_mut().find(|d| d.endpoint == to) {
            d.deliveries_done += 1;
        }
        self.queue.schedule(
            extra_dwell + self.processing_time(),
            Ev::ProcessingDone { cart },
        );
    }

    /// Recovery path for a delivery whose payload did not survive (RAID-
    /// uncovered in-flight loss, or over-tolerance corruption caught at the
    /// dock): report the failure, requeue the shard (or abandon past the
    /// attempt budget), and send the cart straight home without processing.
    /// Returns whether the shard was requeued for another attempt.
    fn fail_delivery(
        &mut self,
        cart: CartId,
        to: EndpointId,
        payload: Bytes,
        attempt: u32,
        trip_time: Seconds,
    ) -> bool {
        let max_attempts = self
            .cfg
            .faults
            .as_ref()
            .map_or(1, |f| f.max_delivery_attempts);
        self.record(TraceEventKind::DeliveryFailed {
            cart,
            endpoint: to,
            attempt,
        });
        // The whole round trip was wasted work.
        self.counters.retry_time_s += 2.0 * trip_time.seconds();
        self.metrics.add(self.handles.delivery_failures, 1);
        let requeued = attempt < max_attempts;
        if requeued {
            self.counters.redeliveries += 1;
            self.mission.total_deliveries += 1;
            self.redelivery_queue.push_back(Redelivery {
                endpoint: to,
                payload,
                attempt: attempt + 1,
            });
        } else {
            self.abandoned = Some(Abandoned {
                endpoint: to,
                attempts: attempt,
            });
        }
        // No processing dwell for a dead payload: head home immediately.
        self.backlog.push(Movement {
            cart,
            from: to,
            to: 0,
            payload: Bytes::ZERO,
            attempt: 0,
        });
        requeued
    }

    /// Fraction of the cart's docking-connector rated cycles consumed — the
    /// mating-error wear input. Uses the fault-tracked connector when
    /// connector faults are on, otherwise counts matings against the
    /// integrity spec's assumed connector family.
    fn connector_wear_fraction(&self, cart: CartId, fallback_connector: ConnectorKind) -> f64 {
        if let Some(conn) = &self.carts.connectors[cart] {
            let rated = conn.cycles_used() + conn.cycles_remaining();
            if rated == 0 {
                return 0.0;
            }
            return f64::from(conn.cycles_used()) / f64::from(rated);
        }
        let rated = fallback_connector.rated_cycles();
        if rated == 0 {
            return 0.0;
        }
        (f64::from(self.carts.matings[cart]) / f64::from(rated)).min(1.0)
    }

    /// `Arrived → (scrub)`: charge verify-on-dock time and energy, park the
    /// delivery on the cart, and schedule its verdict.
    fn begin_verification(&mut self, cart: CartId, m: &ActiveMovement) {
        let spec = self.cfg.integrity.as_ref().expect("integrity spec present");
        let scrub = spec.scrub(m.payload, self.cfg.cart_capacity);
        let (shards, time) = (scrub.shards, scrub.time);
        self.total_energy += scrub.energy;
        self.counters.verification_energy_j += scrub.energy.value();
        self.counters.verification_time_s += time.seconds();
        self.counters.shards_scanned += shards;
        self.metrics.record(self.handles.verify_s, time.seconds());
        self.record(TraceEventKind::VerifyStarted {
            cart,
            endpoint: m.to,
            shards,
        });
        self.carts.verify[cart] = Some(PendingVerify {
            to: m.to,
            payload: m.payload,
            attempt: m.attempt,
            trip_time: m.cost.total_time,
            shards,
        });
        self.queue.schedule(time, Ev::VerifyDone { cart });
    }

    /// The scrub's verdict: `Verified`, `Corrupted → Reconstructed`, or
    /// `Corrupted → Reshipped | Abandoned` when parity cannot cover it.
    fn finish_verification(&mut self, cart: CartId) {
        let pv = self.carts.verify[cart].take().expect("verifying cart");
        let spec = self.cfg.integrity.as_ref().expect("integrity spec present");
        let wear = self.carts.wear[cart]
            .as_ref()
            .map_or(0.0, |w| w.wear_fraction());
        let conn_wear = self.connector_wear_fraction(cart, spec.connector);
        let rng = (self.streams.integrity.as_mut()).expect("integrity rng exists with spec");
        let cap = self.cfg.cart_capacity;
        let (corrupted, verdict) = spec.verdict(rng, pv.shards, pv.trip_time, wear, conn_wear, cap);
        if verdict == Verdict::Clean {
            self.counters.deliveries_verified += 1;
            self.record(TraceEventKind::PayloadVerified {
                cart,
                endpoint: pv.to,
                shards: pv.shards,
            });
            self.complete_delivery(cart, pv.to, pv.payload, Seconds::ZERO);
            return;
        }

        self.counters.shards_corrupted += corrupted;
        self.record(TraceEventKind::PayloadCorrupted {
            cart,
            endpoint: pv.to,
            corrupted,
            attempt: pv.attempt,
        });

        if let Verdict::Rebuilt(rebuild_time) = verdict {
            // Parity covers the damage: rebuild in place, charging the
            // reconstruction read time before the processing dwell.
            self.counters.shards_reconstructed += corrupted;
            self.counters.reconstruction_time_s += rebuild_time.seconds();
            self.counters.deliveries_verified += 1;
            self.metrics
                .record(self.handles.reconstruction_s, rebuild_time.seconds());
            self.record(TraceEventKind::ShardsReconstructed {
                cart,
                shards: corrupted,
            });
            self.complete_delivery(cart, pv.to, pv.payload, rebuild_time);
        } else {
            // Beyond parity: the payload is unrecoverable at the dock and
            // re-enters the PR-1 bounded-retry machinery.
            self.counters.data_loss_events += 1;
            if self.fail_delivery(cart, pv.to, pv.payload, pv.attempt, pv.trip_time) {
                self.counters.deliveries_reshipped += 1;
            }
        }
    }

    fn integrity_report(&self) -> IntegrityReport {
        if self.cfg.integrity.is_none() {
            return IntegrityReport::default();
        }
        IntegrityReport {
            shards_scanned: self.counters.shards_scanned,
            shards_corrupted: self.counters.shards_corrupted,
            shards_reconstructed: self.counters.shards_reconstructed,
            deliveries_verified: self.counters.deliveries_verified,
            deliveries_reshipped: self.counters.deliveries_reshipped,
            verification_time: Seconds::new(self.counters.verification_time_s),
            reconstruction_time: Seconds::new(self.counters.reconstruction_time_s),
            verification_energy: Joules::new(self.counters.verification_energy_j),
        }
    }

    fn check_completion(&mut self) {
        if self.mission.completion_time.is_some() {
            return;
        }
        if self.mission.done >= self.mission.total_deliveries
            && self.carts.all_at_library()
            && self.backlog.is_empty()
        {
            self.mission.completion_time = Some(self.queue.now().seconds());
        }
    }

    /// Simulates delivering `dataset` from the library to the first rack
    /// endpoint, returning every cart home afterwards (the paper's §V-B
    /// accounting).
    ///
    /// # Errors
    ///
    /// [`SimError::EventBudgetExhausted`] if the simulation fails to
    /// converge (defensive bound; does not occur for valid configurations).
    pub fn run_bulk_transfer(&mut self, dataset: Bytes) -> Result<BulkTransferReport, SimError> {
        let rack = self
            .cfg
            .endpoints
            .iter()
            .position(|e| e.kind == EndpointKind::Rack)
            .expect("validated config has a rack");
        self.run_multi_rack(&[(rack, dataset)])
    }

    /// Simulates serving several racks at once (§VI multi-stop): each entry
    /// is `(rack endpoint index, bytes owed to it)`. Shards are assigned
    /// greedily to the rack with the most data outstanding.
    ///
    /// # Errors
    ///
    /// - [`SimError::Config`] if any endpoint index is out of range or not
    ///   a rack;
    /// - [`SimError::EventBudgetExhausted`] as for
    ///   [`DhlSystem::run_bulk_transfer`].
    pub fn run_multi_rack(
        &mut self,
        demands: &[(EndpointId, Bytes)],
    ) -> Result<BulkTransferReport, SimError> {
        self.begin_multi_rack(demands)?;
        self.run_until(Seconds::new(f64::INFINITY))?;
        Ok(self.finish())
    }

    /// Starts a bulk transfer to the first rack endpoint without running it:
    /// the stepping half of [`DhlSystem::run_bulk_transfer`], for callers
    /// that drive the simulation with [`DhlSystem::run_until`] (checkpoint
    /// capture, incremental inspection).
    ///
    /// # Errors
    ///
    /// As for [`DhlSystem::begin_multi_rack`].
    pub fn begin_bulk_transfer(&mut self, dataset: Bytes) -> Result<(), SimError> {
        let rack = self
            .cfg
            .endpoints
            .iter()
            .position(|e| e.kind == EndpointKind::Rack)
            .expect("validated config has a rack");
        self.begin_multi_rack(&[(rack, dataset)])
    }

    /// Sets up a multi-rack mission and schedules its first launches
    /// without processing any events. Drive it with
    /// [`DhlSystem::run_until`], then settle accounts with
    /// [`DhlSystem::finish`].
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] if any endpoint index is out of range or not a
    /// rack.
    pub fn begin_multi_rack(&mut self, demands: &[(EndpointId, Bytes)]) -> Result<(), SimError> {
        for (ep, _) in demands {
            match self.cfg.endpoints.get(*ep) {
                Some(spec) if spec.kind == EndpointKind::Rack => {}
                _ => {
                    return Err(SimError::Config(ConfigError::BadEndpoints(format!(
                        "endpoint {ep} is not a rack endpoint"
                    ))))
                }
            }
        }
        let deliveries: u64 = demands
            .iter()
            .map(|(_, bytes)| {
                if bytes.is_zero() {
                    0
                } else {
                    bytes.div_ceil(self.cfg.cart_capacity)
                }
            })
            .sum();
        self.mission = Mission {
            total_deliveries: deliveries,
            scheduled: 0,
            done: 0,
            demands: demands
                .iter()
                .map(|&(endpoint, bytes_remaining)| RackDemand {
                    endpoint,
                    bytes_remaining,
                    deliveries_done: 0,
                })
                .collect(),
            delivered: Bytes::ZERO,
            gross_delivered: Bytes::ZERO,
            completion_time: (deliveries == 0).then_some(0.0),
        };
        self.redelivery_queue.clear();
        self.abandoned = None;

        // Seed: every library cart takes a shard (up to the delivery count).
        for cart in 0..self.carts.len() {
            if self.mission.scheduled < deliveries {
                self.schedule_delivery_for(cart);
            }
        }
        self.events_at_mission_start = self.queue.events_processed();
        self.run_watch = Some(Stopwatch::start());
        self.try_launch();
        Ok(())
    }

    /// Simulation clock: the timestamp of the last event processed.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.queue.now()
    }

    /// Processes events whose timestamp does not exceed `limit`, in order.
    /// Returns `Ok(true)` when the event queue drained (the mission is
    /// over) and `Ok(false)` when the next event lies beyond `limit`. The
    /// clock stays at the last event processed; pass
    /// `Seconds::new(f64::INFINITY)` to run to completion.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidLimit`] if `limit` is NaN, before any event is
    ///   processed;
    /// - [`SimError::DeliveryAbandoned`] if a shard exhausted its attempts;
    /// - [`SimError::EventBudgetExhausted`] if the simulation fails to
    ///   converge (defensive bound; does not occur for valid
    ///   configurations).
    pub fn run_until(&mut self, limit: Seconds) -> Result<bool, SimError> {
        if limit.seconds().is_nan() {
            return Err(SimError::InvalidLimit(limit));
        }
        loop {
            // One queue look per event: `pop_at_or_before` folds the peek
            // and the pop together.
            let Some((_, ev)) = self.queue.pop_at_or_before(limit) else {
                return Ok(self.queue.is_empty());
            };
            self.handle(ev);
            if let Some(Abandoned { endpoint, attempts }) = self.abandoned {
                return Err(SimError::DeliveryAbandoned { endpoint, attempts });
            }
            if self.queue.events_processed() > EVENT_BUDGET {
                return Err(SimError::EventBudgetExhausted {
                    events: self.queue.events_processed(),
                });
            }
        }
    }

    /// Settles the mission's accounts — completion check, pacing gauges —
    /// and produces its report. Call after [`DhlSystem::run_until`] drains
    /// the queue; calling earlier reports the mission as it stands.
    pub fn finish(&mut self) -> BulkTransferReport {
        self.check_completion();

        let completion = Seconds::new(self.mission.completion_time.unwrap_or(0.0));
        let events_this_run = self.queue.events_processed() - self.events_at_mission_start;
        let wall = self.run_watch.take().map_or(0.0, |w| w.elapsed_secs());
        self.metrics.add(self.handles.events, events_this_run);
        // Each published counter shows its tally once non-zero, or at 0 for
        // SSD failures once a loaded docking sampled them.
        let sampled = self.cfg.reliability.is_some()
            && self.metrics.counter(self.handles.deliveries).is_some();
        for ((name, tally), id) in PUBLISHED.into_iter().zip(self.handles.published) {
            let tally = tally(self);
            if tally > 0 || (sampled && name == "sim.ssd_failures") {
                self.metrics.store(id, tally);
            }
        }
        // Engine-level throughput accounting: the lifetime pop count (the
        // counter survives checkpoint/resume with the queue) plus the
        // events/sec the snapshot derives from it — see
        // `MetricsSnapshot::events_per_sec`.
        self.metrics
            .store(self.handles.events_processed, self.queue.events_processed());
        // Silent NaN/negative-delay coercions, surfaced so release-build
        // clamping (PR 6) is observable instead of invisible.
        self.metrics
            .store(self.handles.events_clamped, self.queue.clamped());
        self.metrics
            .set(self.handles.completion_s, completion.seconds());
        self.metrics.set(self.handles.wall_time_s, wall);
        if wall > 0.0 {
            self.metrics.set(
                self.handles.sim_seconds_per_wall_second,
                completion.seconds() / wall,
            );
            self.metrics.set(
                self.handles.events_per_wall_second,
                events_this_run as f64 / wall,
            );
        }
        let average_power = if completion.seconds() > 0.0 {
            self.total_energy / completion
        } else {
            Watts::ZERO
        };
        BulkTransferReport {
            completion_time: completion,
            delivered: self.mission.delivered,
            deliveries: self.mission.done,
            deliveries_by_endpoint: self
                .mission
                .demands
                .iter()
                .map(|d| (d.endpoint, d.deliveries_done))
                .collect(),
            movements: self.movements,
            total_energy: self.total_energy,
            average_power,
            embodied_bandwidth: self.mission.delivered / completion,
            track_busy_time: self
                .tracks
                .iter()
                .map(|t| Seconds::new(t.busy_accum))
                .collect(),
            max_carts_in_flight: self.max_in_flight,
            events_processed: self.queue.events_processed(),
            ssd_failures: self.counters.ssd_failures,
            data_loss_events: self.counters.data_loss_events,
            reliability: self.reliability_report(completion),
            integrity: self.integrity_report(),
            metrics: self.metrics.snapshot(),
        }
    }

    fn reliability_report(&self, completion: Seconds) -> ReliabilityReport {
        if self.cfg.faults.is_none() {
            return ReliabilityReport::default();
        }
        let rate = |bytes: Bytes| {
            if completion.seconds() > 0.0 {
                bytes / completion
            } else {
                dhl_units::BytesPerSecond::ZERO
            }
        };
        ReliabilityReport {
            redeliveries: self.counters.redeliveries,
            retry_time: Seconds::new(self.counters.retry_time_s),
            goodput: rate(self.mission.delivered),
            throughput: rate(self.mission.gross_delivered),
            track_downtime: self
                .tracks
                .iter()
                .map(|t| Seconds::new(t.downtime_accum))
                .collect(),
            cart_stalls: self.counters.cart_stalls,
            connector_replacements: self.counters.connector_replacements,
            repressurisations: self.counters.repressurisations,
            dock_controller_crashes: self.counters.dock_crashes,
            dock_recovery_time: Seconds::new(self.counters.dock_recovery_time_s),
            dock_downtime: self
                .counters
                .dock_downtime
                .iter()
                .map(|s| Seconds::new(*s))
                .collect(),
        }
    }
}

impl core::fmt::Debug for DhlSystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DhlSystem")
            .field("now", &self.queue.now())
            .field("carts", &self.carts.len())
            .field("pending", &self.backlog.len())
            .field("movements", &self.movements)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_units::Metres;

    fn run(cfg: SimConfig, pb: f64) -> BulkTransferReport {
        DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(pb))
            .unwrap()
    }

    /// Whether a `TryLaunch` wakeup is ever pending, sampled every 0.5 s of
    /// a 2 PB mission under `cfg`.
    fn queues_wakeups(cfg: SimConfig) -> bool {
        let mut sys = DhlSystem::new(cfg).unwrap();
        sys.begin_bulk_transfer(Bytes::from_petabytes(2.0)).unwrap();
        let mut t = 0.0;
        loop {
            let pending = sys.queue.pending_entries();
            if pending.iter().any(|&(_, _, &ev)| ev == Ev::TryLaunch) {
                return true;
            }
            t += 0.5;
            if sys.run_until(Seconds::new(t)).unwrap() {
                return false;
            }
        }
    }

    #[test]
    fn only_a_dock_slower_than_the_undock_books_headway_wakeups() {
        let slow_dock = SimConfig {
            dock_time: Seconds::new(5.0),
            undock_time: Seconds::new(3.0),
            ..SimConfig::paper_default()
        };
        assert!(queues_wakeups(slow_dock));
        assert!(!queues_wakeups(SimConfig::paper_default()));
    }

    #[test]
    fn serial_transfer_matches_analytical_doubling() {
        let report = run(SimConfig::paper_serial(), 29.0);
        assert_eq!(report.deliveries, 114);
        assert_eq!(report.movements, 228);
        assert!((report.completion_time.seconds() - 228.0 * 8.6).abs() < 1e-6);
        // Energy: 228 launches at ≈15.19 kJ (launch + drag + stabilisation).
        let per_movement = report.total_energy.value() / 228.0;
        assert!((per_movement - 15_040.0).abs() < 200.0);
        assert_eq!(report.delivered, Bytes::from_petabytes(29.0));
    }

    #[test]
    fn pipelined_fleet_beats_serial() {
        let serial = run(SimConfig::paper_serial(), 29.0);
        let pipelined = run(SimConfig::paper_default(), 29.0);
        assert!(
            pipelined.completion_time < serial.completion_time,
            "pipelined {} vs serial {}",
            pipelined.completion_time.seconds(),
            serial.completion_time.seconds()
        );
        // Same physical work, so same number of movements and energy.
        assert_eq!(pipelined.movements, serial.movements);
        assert!((pipelined.total_energy.value() - serial.total_energy.value()).abs() < 1.0);
    }

    #[test]
    fn dual_track_beats_single_track() {
        let mut cfg = SimConfig::paper_default();
        cfg.dual_track = true;
        let dual = run(cfg, 29.0);
        let single = run(SimConfig::paper_default(), 29.0);
        assert!(
            dual.completion_time < single.completion_time,
            "dual {} vs single {}",
            dual.completion_time.seconds(),
            single.completion_time.seconds()
        );
        assert_eq!(dual.track_busy_time.len(), 2);
    }

    #[test]
    fn zero_dataset_is_trivial() {
        let report = run(SimConfig::paper_default(), 0.0);
        assert_eq!(report.deliveries, 0);
        assert_eq!(report.movements, 0);
        assert_eq!(report.completion_time.seconds(), 0.0);
        assert_eq!(report.total_energy, Joules::ZERO);
    }

    #[test]
    fn partial_cart_still_takes_a_full_trip() {
        // 100 TB < one 256 TB cart: one delivery out, one return.
        let report = run(SimConfig::paper_serial(), 0.0001); // 0.1 TB
        assert_eq!(report.deliveries, 1);
        assert_eq!(report.movements, 2);
        assert!((report.completion_time.seconds() - 17.2).abs() < 1e-6);
    }

    #[test]
    fn delivered_bytes_match_dataset_exactly() {
        for pb in [0.1, 1.0, 5.3] {
            let report = run(SimConfig::paper_default(), pb);
            assert_eq!(report.delivered, Bytes::from_petabytes(pb));
        }
    }

    #[test]
    fn carts_all_end_at_library() {
        let mut sys = DhlSystem::new(SimConfig::paper_default()).unwrap();
        sys.run_bulk_transfer(Bytes::from_petabytes(2.0)).unwrap();
        for cart in 0..sys.config().num_carts as usize {
            assert_eq!(sys.carts.locations[cart], CartLocation::Docked(0));
        }
    }

    #[test]
    fn track_never_holds_more_than_dock_limited_carts() {
        let report = run(SimConfig::paper_default(), 29.0);
        // 4 rack docks bound the outbound pipeline depth.
        assert!(report.max_carts_in_flight <= 4);
        assert!(
            report.max_carts_in_flight >= 2,
            "pipelining should overlap carts"
        );
    }

    #[test]
    fn processing_dwell_slows_completion_but_not_energy() {
        let mut cfg = SimConfig::paper_default();
        cfg.processing = crate::config::ProcessingModel::Fixed(Seconds::new(100.0));
        let slow = run(cfg, 2.0);
        let fast = run(SimConfig::paper_default(), 2.0);
        assert!(slow.completion_time > fast.completion_time);
        assert!((slow.total_energy.value() - fast.total_energy.value()).abs() < 1.0);
    }

    #[test]
    fn multi_stop_track_reaches_far_endpoint() {
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints = vec![
            EndpointSpec {
                position: Metres::ZERO,
                docks: cfg.num_carts,
                kind: EndpointKind::Library,
            },
            EndpointSpec {
                position: Metres::new(250.0),
                docks: 4,
                kind: EndpointKind::Rack,
            },
            EndpointSpec {
                position: Metres::new(500.0),
                docks: 2,
                kind: EndpointKind::Rack,
            },
        ];
        // Deliveries go to the *first* rack (250 m): shorter hop, less time
        // than the 500 m system.
        let multi = run(cfg, 2.0);
        let single = run(SimConfig::paper_default(), 2.0);
        assert!(multi.completion_time < single.completion_time);
    }

    fn two_rack_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints = vec![
            EndpointSpec {
                position: Metres::ZERO,
                docks: cfg.num_carts,
                kind: EndpointKind::Library,
            },
            EndpointSpec {
                position: Metres::new(250.0),
                docks: 4,
                kind: EndpointKind::Rack,
            },
            EndpointSpec {
                position: Metres::new(500.0),
                docks: 4,
                kind: EndpointKind::Rack,
            },
        ];
        cfg
    }

    #[test]
    fn multi_rack_distributes_deliveries() {
        let mut sys = DhlSystem::new(two_rack_config()).unwrap();
        let report = sys
            .run_multi_rack(&[
                (1, Bytes::from_petabytes(2.0)),
                (2, Bytes::from_petabytes(1.0)),
            ])
            .unwrap();
        // 2 PB → 8 carts, 1 PB → 4 carts.
        assert_eq!(report.deliveries, 12);
        assert_eq!(report.movements, 24);
        let by_ep: std::collections::HashMap<usize, u64> =
            report.deliveries_by_endpoint.iter().copied().collect();
        assert_eq!(by_ep[&1], 8);
        assert_eq!(by_ep[&2], 4);
        assert_eq!(report.delivered, Bytes::from_petabytes(3.0));
    }

    #[test]
    fn multi_rack_rejects_non_rack_destinations() {
        let mut sys = DhlSystem::new(two_rack_config()).unwrap();
        assert!(sys.run_multi_rack(&[(0, Bytes::new(1))]).is_err()); // library
        assert!(sys.run_multi_rack(&[(9, Bytes::new(1))]).is_err()); // missing
    }

    #[test]
    fn multi_rack_matches_single_rack_when_one_demand() {
        let single = run(SimConfig::paper_default(), 2.0);
        let mut sys = DhlSystem::new(SimConfig::paper_default()).unwrap();
        let multi = sys
            .run_multi_rack(&[(1, Bytes::from_petabytes(2.0))])
            .unwrap();
        assert_eq!(single.completion_time, multi.completion_time);
        assert_eq!(single.movements, multi.movements);
    }

    #[test]
    fn embodied_bandwidth_is_terabytes_per_second_scale() {
        let report = run(SimConfig::paper_default(), 29.0);
        let tbps = report.embodied_bandwidth.terabytes_per_second();
        assert!(tbps > 10.0, "got {tbps}");
    }

    #[test]
    fn average_power_is_kilowatt_scale() {
        // §V-C anchors DHL average power near 1.75 kW for the serial case.
        let report = run(SimConfig::paper_serial(), 29.0);
        let kw = report.average_power.kilowatts();
        assert!((kw - 1.77).abs() < 0.1, "got {kw}");
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::*;
    use crate::config::FaultSpec;

    #[test]
    fn bulk_transfer_report_carries_a_metrics_snapshot() {
        let report = DhlSystem::new(SimConfig::paper_default())
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(2.0))
            .unwrap();
        let m = &report.metrics;
        assert!(!m.is_empty());
        assert_eq!(m.counter("sim.carts_launched"), Some(report.movements));
        assert_eq!(m.counter("sim.deliveries"), Some(report.deliveries));
        assert_eq!(m.counter("sim.events"), Some(report.events_processed));
        assert_eq!(
            m.gauge("sim.completion_s"),
            Some(report.completion_time.seconds())
        );
        let transit = m.histogram("sim.transit_s").unwrap();
        assert_eq!(transit.count, report.movements);
        // Every paper_default movement is the same 500 m hop: 8.6 s.
        assert!((transit.min - 8.6).abs() < 1e-9);
        assert!((transit.max - 8.6).abs() < 1e-9);
        assert!(m.histogram("sim.queue_depth").is_some());
        assert!(m.gauge("sim.wall_time_s").unwrap_or(0.0) >= 0.0);
    }

    #[test]
    fn engine_throughput_and_clamp_metrics_are_emitted() {
        let mut sys = DhlSystem::new(SimConfig::paper_default()).unwrap();
        let report = sys.run_bulk_transfer(Bytes::from_petabytes(2.0)).unwrap();
        let m = &report.metrics;
        // Fresh system: the lifetime pop count equals this mission's count.
        assert_eq!(
            m.counter("engine.events_processed"),
            Some(report.events_processed)
        );
        assert_eq!(
            m.counter("sim.events_clamped"),
            Some(0),
            "a clean run must not clamp"
        );
        // Wall time is recorded, so the derived throughput exists.
        let rate = m.events_per_sec().expect("wall gauge + counter present");
        assert!(rate > 0.0);
    }

    #[test]
    fn clamped_events_surface_in_the_metrics_snapshot() {
        let mut sys = DhlSystem::new(SimConfig::paper_default()).unwrap();
        let _ = sys.run_bulk_transfer(Bytes::from_petabytes(1.0)).unwrap();
        // A clean mission never clamps, so drive the counter directly.
        sys.queue.set_clamped(7);
        let report = sys.finish();
        assert_eq!(report.metrics.counter("sim.events_clamped"), Some(7));
    }

    #[test]
    fn sim_domain_metrics_are_deterministic_across_identical_runs() {
        let run = || {
            DhlSystem::new(SimConfig::paper_default())
                .unwrap()
                .run_bulk_transfer(Bytes::from_petabytes(1.0))
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.metrics.counters, b.metrics.counters);
        assert_eq!(a.metrics.histograms, b.metrics.histograms);
        // Gauges include wall-clock pacing, which may differ — but the
        // reports still compare equal because metrics are excluded.
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_metrics_leave_the_snapshot_empty() {
        let mut sys = DhlSystem::new(SimConfig::paper_default()).unwrap();
        sys.set_metrics_enabled(false);
        let report = sys.run_bulk_transfer(Bytes::from_petabytes(1.0)).unwrap();
        assert!(report.metrics.is_empty());
        assert!(!sys.metrics().is_enabled());
        // The simulation itself is unaffected.
        assert_eq!(report.deliveries, 4);
    }

    /// Every counter the simulator keeps a report tally for reads that
    /// tally in the snapshot. One cart with M.2 connectors (250 rated
    /// matings) makes ~180 round trips with every fault at 20 % per event,
    /// unprotected SSDs that lose ~17 % of payloads in flight and
    /// intermittent corruption behind 28+4 parity; a shard then runs out
    /// of its 3 attempts, so the losses outnumber the redeliveries by one.
    /// The seed is one where all 13 tallies differ, so a counter that
    /// publishes another's tally fails too.
    #[test]
    fn fault_metrics_mirror_reliability_counters() {
        use crate::config::{
            CartStallSpec, ConnectorFaultSpec, DockControllerFaultSpec, IntegritySpec,
            ReliabilitySpec, RepressurisationSpec,
        };
        use dhl_storage::connectors::ConnectorKind;
        use dhl_storage::failure::{FailureModel, RaidConfig};
        use dhl_storage::integrity::CorruptionModel;

        let seed = 804;
        let mut cfg = SimConfig::paper_serial();
        cfg.dock_time = Seconds::new(80_000.0);
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.9),
            raid: RaidConfig::none(32),
            ssds_per_cart: 32,
            seed,
        });
        cfg.faults = Some(FaultSpec {
            cart_stall: Some(CartStallSpec {
                probability_per_movement: 0.2,
                repair_time: Seconds::new(120.0),
            }),
            docking_connector: Some(ConnectorFaultSpec {
                kind: ConnectorKind::M2,
                replacement_time: Seconds::new(60.0),
            }),
            repressurisation: Some(RepressurisationSpec {
                probability_per_movement: 0.2,
                duration: Seconds::new(120.0),
                degraded_pressure_millibar: 100.0,
            }),
            dock_controller: Some(DockControllerFaultSpec {
                crash_probability_per_docking: 0.2,
                ..DockControllerFaultSpec::journal_replay()
            }),
            max_delivery_attempts: 3,
        });
        cfg.integrity = Some(IntegritySpec {
            corruption: CorruptionModel {
                mating_error_per_cycle: 0.02,
                ..CorruptionModel::paper_default()
            },
            seed: seed ^ 0x1D7,
            ..IntegritySpec::typical()
        });
        let mut sys = DhlSystem::new(cfg).unwrap();
        let err = sys.run_bulk_transfer(Bytes::from_petabytes(40.0));
        assert!(matches!(err, Err(SimError::DeliveryAbandoned { .. })));
        let report = sys.finish();
        let (rel, int) = (&report.reliability, &report.integrity);
        let tallies = [
            ("sim.carts_launched", report.movements),
            ("sim.repressurisations", rel.repressurisations),
            ("sim.cart_stalls", rel.cart_stalls),
            ("sim.connector_replacements", rel.connector_replacements),
            ("sim.dock_controller_crashes", rel.dock_controller_crashes),
            ("sim.ssd_failures", report.ssd_failures),
            ("sim.data_loss_events", report.data_loss_events),
            ("sim.redeliveries", rel.redeliveries),
            ("sim.shards_scanned", int.shards_scanned),
            ("sim.deliveries_verified", int.deliveries_verified),
            ("sim.shards_corrupted", int.shards_corrupted),
            ("sim.shards_reconstructed", int.shards_reconstructed),
            ("sim.deliveries_reshipped", int.deliveries_reshipped),
        ];
        let mut distinct: Vec<u64> = tallies.iter().map(|&(_, tally)| tally).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), tallies.len(), "{tallies:?}");
        for (name, tally) in tallies {
            assert!(tally > 0, "{name} never fired");
            assert_eq!(report.metrics.counter(name), Some(tally), "{name}");
        }
    }
}

#[cfg(test)]
mod reliability_tests {
    use super::*;
    use crate::config::ReliabilitySpec;
    use dhl_rng::DeterministicRng;
    use dhl_storage::failure::{FailureModel, RaidConfig};

    #[test]
    fn typical_reliability_sees_no_losses_over_29pb() {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec::typical());
        let report = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(29.0))
            .unwrap();
        // 456 movements × 32 SSDs × ~3e-9 per-trip probability: failures
        // are vanishingly rare and RAID absorbs any that occur.
        assert_eq!(report.data_loss_events, 0);
        assert!(report.ssd_failures <= 1);
    }

    #[test]
    fn hostile_reliability_reports_losses() {
        let mut cfg = SimConfig::paper_serial();
        // ~10 M s of exposure per loaded trip: at AFR 0.9 each SSD fails
        // with p ≈ 0.52, so zero failures over 2 loaded trips of 32 SSDs
        // is astronomically unlikely.
        cfg.dock_time = Seconds::new(5_000_000.0);
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.9),
            raid: RaidConfig::none(32),
            ssds_per_cart: 32,
            seed: 1,
        });
        let report = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_terabytes(512.0))
            .unwrap();
        assert!(report.ssd_failures > 0);
        assert!(report.data_loss_events > 0);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let mut cfg = SimConfig::paper_default();
        cfg.dock_time = Seconds::new(10_000.0);
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.5),
            raid: RaidConfig::new(28, 4).unwrap(),
            ssds_per_cart: 32,
            seed: 7,
        });
        let run = |cfg: SimConfig| {
            DhlSystem::new(cfg)
                .unwrap()
                .run_bulk_transfer(Bytes::from_petabytes(1.0))
                .unwrap()
        };
        let a = run(cfg.clone());
        let b = run(cfg.clone());
        assert_eq!(a.ssd_failures, b.ssd_failures);
        assert_eq!(a.data_loss_events, b.data_loss_events);
        let mut other = cfg;
        other.reliability.as_mut().unwrap().seed = 8;
        let c = run(other);
        // Different seed, (almost surely) different sample.
        assert!(c.ssd_failures != a.ssd_failures || c.data_loss_events == a.data_loss_events);
    }

    #[test]
    fn no_reliability_means_no_failures() {
        let report = DhlSystem::new(SimConfig::paper_default())
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(5.0))
            .unwrap();
        assert_eq!(report.ssd_failures, 0);
        assert_eq!(report.data_loss_events, 0);
    }

    #[test]
    fn empty_return_trips_draw_no_failure_samples() {
        // With a per-trip failure probability of certainty, every *loaded*
        // movement loses SSDs — but returns are empty, so exactly
        // deliveries × ssds_per_cart failures occur, not movements × ssds.
        let mut cfg = SimConfig::paper_serial();
        // ~1e8 s of exposure per loaded trip at AFR 0.999999 drives the
        // per-SSD trip failure probability to 1 - 1e-19: every loaded draw
        // fails, deterministically for any seed.
        cfg.dock_time = Seconds::new(50_000_000.0);
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.999_999),
            raid: RaidConfig::none(4),
            ssds_per_cart: 4,
            seed: 3,
        });
        let report = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_terabytes(512.0))
            .unwrap();
        assert_eq!(report.deliveries, 2);
        assert_eq!(report.movements, 4);
        // All 4 SSDs on both loaded trips fail; the 2 empty returns add none.
        assert_eq!(report.ssd_failures, 8);
        assert_eq!(report.data_loss_events, 2);
    }

    /// Words `now` has drawn since `start`, by replaying the stream.
    fn words_drawn(start: &DeterministicRng, now: &DeterministicRng) -> u64 {
        let mut replay = start.clone();
        let mut words = 0;
        while replay != *now {
            replay.next_u64();
            words += 1;
            assert!(words < 1 << 24, "the streams never meet");
        }
        words
    }

    /// The SSD and shard counts of a cart are each one binomial draw: over
    /// a fault-injected mission with losses, redeliveries and corruption,
    /// the reliability stream reads one word per loaded trip and the
    /// integrity stream one per scrub.
    #[test]
    fn each_cart_draws_one_word_for_its_ssds_and_one_for_its_shards() {
        use crate::config::{FaultSpec, IntegritySpec};
        use dhl_storage::integrity::CorruptionModel;
        let mut cfg = SimConfig::paper_default();
        cfg.dock_time = Seconds::new(200_000.0);
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.5),
            raid: RaidConfig::none(32),
            ssds_per_cart: 32,
            seed: 5,
        });
        cfg.faults = Some(FaultSpec {
            max_delivery_attempts: 16,
            ..FaultSpec::stress()
        });
        cfg.integrity = Some(IntegritySpec {
            corruption: CorruptionModel {
                mating_error_per_cycle: 0.02,
                ..CorruptionModel::paper_default()
            },
            ..IntegritySpec::typical()
        });
        let start = DhlSystem::new(cfg.clone()).unwrap();
        let mut sys = DhlSystem::new(cfg).unwrap();
        let report = sys.run_bulk_transfer(Bytes::from_petabytes(8.0)).unwrap();
        let streams = |s: &DhlSystem| {
            [&s.streams.reliability, &s.streams.integrity].map(|r| r.clone().unwrap())
        };
        let [rel_start, int_start] = streams(&start);
        let [rel_now, int_now] = streams(&sys);
        let drawn = (
            words_drawn(&rel_start, &rel_now),
            words_drawn(&int_start, &int_now),
        );
        // 44 loaded trips (12 lost and redelivered) and 32 scrubs: one
        // word each, where a draw per SSD and per shard read 32 × 44 and
        // 1,000 (the shards scanned).
        assert_eq!(drawn, (44, 32));
        assert_eq!(drawn.0, report.deliveries);
        assert_eq!(report.data_loss_events, 12);
        assert_eq!(report.integrity.shards_scanned, 1_000);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::config::{
        CartStallSpec, ConnectorFaultSpec, DockControllerFaultSpec, FaultSpec, ReliabilitySpec,
        RepressurisationSpec,
    };
    use dhl_storage::connectors::ConnectorKind;
    use dhl_storage::failure::{FailureModel, RaidConfig};

    /// A config whose per-delivery loss probability is substantial (long
    /// docked exposure, no RAID) with the recovery machinery enabled.
    pub(super) fn lossy_recovering_config(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        // ~3.6 % per-SSD failure per loaded trip; with 32 unprotected SSDs,
        // ~69 % of deliveries are lost and must be redelivered.
        cfg.dock_time = Seconds::new(500_000.0);
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.9),
            raid: RaidConfig::none(32),
            ssds_per_cart: 32,
            seed,
        });
        cfg.faults = Some(FaultSpec {
            max_delivery_attempts: 64,
            ..FaultSpec::recovery_only()
        });
        cfg
    }

    #[test]
    fn lost_shards_are_redelivered_until_goodput_matches_request() {
        let dataset = Bytes::from_petabytes(2.0);
        let mut sys = DhlSystem::new(lossy_recovering_config(11)).unwrap();
        let report = sys.run_bulk_transfer(dataset).unwrap();
        assert!(
            report.reliability.redeliveries > 0,
            "expected redeliveries under heavy loss, got none"
        );
        // Recovery keeps redelivering until every byte lands intact.
        assert_eq!(report.delivered, dataset);
        assert!(report.reliability.retry_time.seconds() > 0.0);
        // Gross throughput strictly exceeds goodput: failed attempts moved
        // bytes that did not count.
        assert!(report.reliability.throughput > report.reliability.goodput);
        // Every redelivery adds an extra delivery and two extra movements.
        assert_eq!(
            report.deliveries,
            8 + report.reliability.redeliveries,
            "2 PB / 256 TB = 8 useful deliveries plus retries"
        );
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let dataset = Bytes::from_petabytes(1.0);
        let run = |seed| {
            DhlSystem::new(lossy_recovering_config(seed))
                .unwrap()
                .run_bulk_transfer(dataset)
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b);
        let c = run(6);
        assert!(
            c.reliability.redeliveries != a.reliability.redeliveries
                || c.ssd_failures != a.ssd_failures,
            "different seeds should (almost surely) differ somewhere"
        );
    }

    #[test]
    fn attempt_budget_exhaustion_is_a_typed_error() {
        let mut cfg = lossy_recovering_config(2);
        // Certain loss on every attempt + a budget of 2 → abandoned.
        cfg.reliability.as_mut().unwrap().failure = FailureModel::new(0.999_999);
        cfg.faults.as_mut().unwrap().max_delivery_attempts = 2;
        let err = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_terabytes(256.0))
            .unwrap_err();
        match err {
            SimError::DeliveryAbandoned { endpoint, attempts } => {
                assert_eq!(endpoint, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected DeliveryAbandoned, got {other:?}"),
        }
    }

    #[test]
    fn recovery_off_keeps_legacy_loss_accounting() {
        // Same lossy setup but faults = None: losses are counted, nothing is
        // redelivered, and delivered bytes still include the lost payloads.
        let mut cfg = lossy_recovering_config(11);
        cfg.faults = None;
        let dataset = Bytes::from_petabytes(2.0);
        let report = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(dataset)
            .unwrap();
        assert!(report.data_loss_events > 0);
        assert_eq!(report.deliveries, 8);
        assert_eq!(report.delivered, dataset);
        assert_eq!(
            report.reliability,
            crate::report::ReliabilityReport::default()
        );
    }

    #[test]
    fn stalled_carts_block_and_release_the_track() {
        let mut cfg = SimConfig::paper_default();
        cfg.faults = Some(FaultSpec {
            cart_stall: Some(CartStallSpec {
                probability_per_movement: 0.2,
                repair_time: Seconds::new(120.0),
            }),
            ..FaultSpec::recovery_only()
        });
        let mut sys = DhlSystem::new(cfg).unwrap();
        sys.enable_trace(1 << 16);
        let report = sys.run_bulk_transfer(Bytes::from_petabytes(4.0)).unwrap();
        assert!(
            report.reliability.cart_stalls > 0,
            "20% stall rate over 32 trips"
        );
        let downtime: f64 = report
            .reliability
            .track_downtime
            .iter()
            .map(|s| s.seconds())
            .sum();
        // Each stall blocks the track for at least its 120 s repair.
        assert!(
            downtime >= 120.0 * report.reliability.cart_stalls as f64,
            "downtime {downtime} vs {} stalls",
            report.reliability.cart_stalls
        );
        // Stalls delay completion versus the fault-free run.
        let clean = DhlSystem::new(SimConfig::paper_default())
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(4.0))
            .unwrap();
        assert!(report.completion_time > clean.completion_time);
        // Trace invariant: stall/restore events bracket correctly per cart.
        let trace = sys.take_trace().unwrap();
        let stalls = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::CartStalled { .. }))
            .count() as u64;
        let restores = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TrackRestored { .. }))
            .count() as u64;
        assert_eq!(stalls, report.reliability.cart_stalls);
        assert_eq!(restores, stalls);
    }

    #[test]
    fn worn_connectors_cost_replacement_windows() {
        // M.2 is rated for 250 cycles; a mission with > 250 docks per cart
        // must replace connectors. Serial config: 1 cart doing 114 round
        // trips = 228 docks — stay under; push dataset to exceed.
        let mut cfg = SimConfig::paper_serial();
        cfg.faults = Some(FaultSpec {
            docking_connector: Some(ConnectorFaultSpec {
                kind: ConnectorKind::M2,
                replacement_time: Seconds::new(300.0),
            }),
            ..FaultSpec::recovery_only()
        });
        let report = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(58.0))
            .unwrap();
        // 228 deliveries → 456 docks on one cart → at least one replacement.
        assert!(report.reliability.connector_replacements >= 1);
        let clean = DhlSystem::new(SimConfig::paper_serial())
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(58.0))
            .unwrap();
        let extra = report.completion_time.seconds() - clean.completion_time.seconds();
        let expected = 300.0 * report.reliability.connector_replacements as f64;
        assert!(
            (extra - expected).abs() < 1e-6,
            "extra {extra} vs expected {expected}"
        );
    }

    #[test]
    fn repressurisation_slows_affected_launches() {
        let mut cfg = SimConfig::paper_default();
        cfg.faults = Some(FaultSpec {
            repressurisation: Some(RepressurisationSpec {
                probability_per_movement: 0.3,
                duration: Seconds::new(200.0),
                degraded_pressure_millibar: 400.0,
            }),
            ..FaultSpec::recovery_only()
        });
        let report = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(4.0))
            .unwrap();
        assert!(report.reliability.repressurisations > 0);
        let clean = DhlSystem::new(SimConfig::paper_default())
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(4.0))
            .unwrap();
        // Speed-limited cruises stretch the schedule but spend *less* launch
        // energy (slower top speed).
        assert!(report.completion_time > clean.completion_time);
        assert!(report.total_energy < clean.total_energy);
    }

    #[test]
    fn all_faults_together_still_deliver_everything() {
        let mut cfg = SimConfig::paper_default();
        cfg.dock_time = Seconds::new(20_000.0);
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.5),
            raid: RaidConfig::new(6, 2).unwrap(),
            ssds_per_cart: 8,
            seed: 99,
        });
        cfg.faults = Some(FaultSpec {
            max_delivery_attempts: 64,
            ..FaultSpec::stress()
        });
        let dataset = Bytes::from_petabytes(2.0);
        let report = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(dataset)
            .unwrap();
        assert_eq!(report.delivered, dataset);
    }

    fn crashing_dock_config(spec: DockControllerFaultSpec) -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.faults = Some(FaultSpec {
            dock_controller: Some(spec),
            ..FaultSpec::recovery_only()
        });
        cfg
    }

    #[test]
    fn dock_controller_crashes_charge_recovery_windows() {
        // Certain crash on every payload-carrying rack docking: 2 PB → 8
        // deliveries → exactly 8 journal replays of 30 s each, with no RNG
        // draw consumed (p = 1 short-circuits), so the count is exact.
        let cfg = crashing_dock_config(DockControllerFaultSpec {
            crash_probability_per_docking: 1.0,
            ..DockControllerFaultSpec::journal_replay()
        });
        let mut sys = DhlSystem::new(cfg).unwrap();
        sys.enable_trace(1 << 16);
        let report = sys.run_bulk_transfer(Bytes::from_petabytes(2.0)).unwrap();
        let rel = &report.reliability;
        assert_eq!(rel.dock_controller_crashes, 8);
        assert!((rel.dock_recovery_time.seconds() - 8.0 * 30.0).abs() < 1e-9);
        // Downtime lands on the rack's controller; the library never hosts
        // a payload-carrying docking in this mission.
        assert_eq!(rel.dock_downtime[0], Seconds::ZERO);
        assert!((rel.dock_downtime[1].seconds() - 240.0).abs() < 1e-9);
        assert_eq!(
            report.metrics.counter("sim.dock_controller_crashes"),
            Some(rel.dock_controller_crashes)
        );

        let clean = DhlSystem::new(SimConfig::paper_default())
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(2.0))
            .unwrap();
        assert!(report.completion_time > clean.completion_time);
        // Recovery draws its configured power for the whole window:
        // 8 × 150 W × 30 s on top of the clean run's launch energy.
        let extra = report.total_energy.value() - clean.total_energy.value();
        assert!((extra - 8.0 * 150.0 * 30.0).abs() < 1e-6, "extra {extra}");

        // Crash/recovery pairs appear in the trace inside the docking phase.
        let trace = sys.take_trace().unwrap();
        let crashes = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::DockControllerCrashed { .. }))
            .count() as u64;
        let recoveries: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::DockControllerRecovered { downtime, .. } => Some(downtime),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, rel.dock_controller_crashes);
        assert_eq!(recoveries.len() as u64, rel.dock_controller_crashes);
        assert!(recoveries
            .iter()
            .all(|d| (d.seconds() - 30.0).abs() < 1e-12));
        for cart in 0..report.max_carts_in_flight as usize {
            assert!(trace.lifecycle_is_well_formed(cart));
        }
    }

    #[test]
    fn rebuild_from_scan_outages_scale_with_payload() {
        // Journal replay charges a fixed 30 s; rebuilding dock state by
        // re-scanning the docked payload at 8 GB/s takes hours per cart.
        // Same crash count (p = 1 draws nothing), wildly different
        // availability.
        let run = |recovery| {
            let cfg = crashing_dock_config(DockControllerFaultSpec {
                crash_probability_per_docking: 1.0,
                recovery,
                ..DockControllerFaultSpec::journal_replay()
            });
            DhlSystem::new(cfg)
                .unwrap()
                .run_bulk_transfer(Bytes::from_petabytes(1.0))
                .unwrap()
        };
        let journal = run(crate::config::DockRecoveryPolicy::JournalReplay);
        let rebuild = run(crate::config::DockRecoveryPolicy::RebuildFromScan);
        assert_eq!(
            journal.reliability.dock_controller_crashes,
            rebuild.reliability.dock_controller_crashes
        );
        // Every delivery crashes exactly once, so the recovery total is the
        // whole dataset re-scanned once: 1 PB / 8 GB/s = 125 000 s.
        let total = rebuild.reliability.dock_recovery_time.seconds();
        assert!((total - 125_000.0).abs() < 1e-6, "total {total}");
        assert!(rebuild.reliability.dock_recovery_time > journal.reliability.dock_recovery_time);
        assert!(rebuild.completion_time > journal.completion_time);
    }

    #[test]
    fn dock_crash_injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut cfg = crashing_dock_config(DockControllerFaultSpec {
                crash_probability_per_docking: 0.3,
                ..DockControllerFaultSpec::journal_replay()
            });
            cfg.reliability = Some(ReliabilitySpec {
                seed,
                ..ReliabilitySpec::typical()
            });
            DhlSystem::new(cfg)
                .unwrap()
                .run_bulk_transfer(Bytes::from_petabytes(8.0))
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b);
        assert!(
            a.reliability.dock_controller_crashes > 0,
            "30% over 32 dockings should crash at least once"
        );
        let c = run(6);
        assert!(
            c.reliability.dock_controller_crashes != a.reliability.dock_controller_crashes
                || c.completion_time != a.completion_time,
            "different fault seeds should (almost surely) differ"
        );
    }
}

#[cfg(test)]
mod integrity_tests {
    use super::*;
    use crate::config::{FaultSpec, IntegritySpec};
    use crate::report::IntegrityReport;
    use dhl_storage::failure::RaidConfig;
    use dhl_storage::integrity::CorruptionModel;

    fn run(cfg: SimConfig, pb: f64) -> BulkTransferReport {
        DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_petabytes(pb))
            .unwrap()
    }

    /// Every shard of every delivery corrupts (per-shard probability 1), but
    /// the layout's parity covers all of them.
    fn saturating_tolerated_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.integrity = Some(IntegritySpec {
            corruption: CorruptionModel {
                mating_error_per_cycle: 1.0,
                ..CorruptionModel::paper_default()
            },
            shards_per_cart: 4,
            raid: RaidConfig::new(28, 4).unwrap(),
            ..IntegritySpec::typical()
        });
        cfg
    }

    /// Per-shard corruption is intermittent, so some deliveries exceed the
    /// 28+4 tolerance and must be re-shipped through the PR-1 machinery.
    fn reshipping_config(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.integrity = Some(IntegritySpec {
            corruption: CorruptionModel {
                mating_error_per_cycle: 0.12,
                ..CorruptionModel::paper_default()
            },
            seed,
            ..IntegritySpec::typical()
        });
        cfg.faults = Some(FaultSpec {
            max_delivery_attempts: 64,
            ..FaultSpec::recovery_only()
        });
        cfg
    }

    #[test]
    fn integrity_disabled_is_the_pre_integrity_simulation() {
        // `integrity: None` must leave the simulation untouched: the other
        // tests in this file pin the pre-integrity numbers, and the report's
        // integrity block stays all-zero.
        let report = run(SimConfig::paper_default(), 29.0);
        assert_eq!(report.integrity, IntegrityReport::default());
        assert_eq!(report.deliveries, 114);
        assert_eq!(report.delivered, Bytes::from_petabytes(29.0));
    }

    #[test]
    fn verify_on_dock_charges_time_and_energy() {
        let mut cfg = SimConfig::paper_default();
        cfg.integrity = Some(IntegritySpec::verification_only());
        let verified = run(cfg, 29.0);
        let baseline = run(SimConfig::paper_default(), 29.0);

        // Same useful work, strictly more time and energy.
        assert_eq!(verified.deliveries, baseline.deliveries);
        assert_eq!(verified.delivered, baseline.delivered);
        assert!(verified.completion_time > baseline.completion_time);
        assert!(verified.total_energy > baseline.total_energy);

        let integ = &verified.integrity;
        assert_eq!(integ.deliveries_verified, verified.deliveries);
        assert_eq!(integ.shards_corrupted, 0);
        assert_eq!(integ.shards_reconstructed, 0);
        assert_eq!(integ.deliveries_reshipped, 0);
        // 113 full carts × 32 shards plus a 72 TB tail cart (9 × 8 TB shards).
        assert_eq!(integ.shards_scanned, 113 * 32 + 9);
        // 29 PB scrubbed at 64 GB/s ≈ 4.53e5 s of verification.
        let expected_verify = 29.0e15 / 64.0e9;
        assert!((integ.verification_time.seconds() - expected_verify).abs() < 1.0);
        assert!(integ.verification_energy.value() > 0.0);
        let expected_total = baseline.total_energy.value() + integ.verification_energy.value();
        assert!(
            (verified.total_energy.value() - expected_total).abs() < 1e-6 * expected_total,
            "scrub energy must be the only addition to the run's energy"
        );
    }

    #[test]
    fn tolerated_corruption_reconstructs_without_reshipment() {
        let report = run(saturating_tolerated_config(), 29.0);
        let integ = &report.integrity;
        // Every shard of every delivery corrupts, parity rebuilds all of
        // them, and nothing is re-shipped. 113 full carts at 4 shards each
        // plus a 72 TB tail cart (2 × 64 TB shards).
        assert_eq!(integ.shards_scanned, 113 * 4 + 2);
        assert_eq!(integ.shards_corrupted, integ.shards_scanned);
        assert_eq!(integ.shards_reconstructed, integ.shards_corrupted);
        assert_eq!(integ.deliveries_verified, report.deliveries);
        assert_eq!(integ.deliveries_reshipped, 0);
        assert!(integ.reconstruction_time.seconds() > 0.0);
        assert_eq!(report.delivered, Bytes::from_petabytes(29.0));
        assert_eq!(report.deliveries, 114);
    }

    #[test]
    fn over_tolerance_corruption_reships_until_delivered() {
        let dataset = Bytes::from_petabytes(8.0);
        let mut sys = DhlSystem::new(reshipping_config(7)).unwrap();
        sys.enable_trace(1 << 16);
        let report = sys.run_bulk_transfer(dataset).unwrap();
        let integ = &report.integrity;
        assert!(
            integ.deliveries_reshipped > 0,
            "expected reshipments under intermittent over-tolerance corruption"
        );
        // Reshipments ride the PR-1 redelivery machinery 1:1 here (no other
        // fault source is enabled).
        assert_eq!(integ.deliveries_reshipped, report.reliability.redeliveries);
        assert_eq!(report.delivered, dataset);
        assert_eq!(
            report.deliveries,
            integ.deliveries_verified + integ.deliveries_reshipped
        );

        // The reshipments are visible in the trace: corrupted verdicts
        // followed by delivery failures, in a well-formed scrub lifecycle.
        let trace = sys.take_trace().unwrap();
        let corrupted = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::PayloadCorrupted { .. }))
            .count() as u64;
        let failed = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::DeliveryFailed { .. }))
            .count() as u64;
        assert!(corrupted >= integ.deliveries_reshipped);
        assert_eq!(failed, integ.deliveries_reshipped);
        for cart in 0..report.max_carts_in_flight as usize {
            assert!(trace.lifecycle_is_well_formed(cart));
            assert!(trace.integrity_lifecycle_is_well_formed(cart));
        }
    }

    #[test]
    fn unrecoverable_corruption_abandons_after_bounded_retries() {
        let mut cfg = SimConfig::paper_default();
        cfg.integrity = Some(IntegritySpec {
            corruption: CorruptionModel {
                mating_error_per_cycle: 1.0,
                ..CorruptionModel::paper_default()
            },
            raid: RaidConfig::none(32),
            ..IntegritySpec::typical()
        });
        cfg.faults = Some(FaultSpec {
            max_delivery_attempts: 3,
            ..FaultSpec::recovery_only()
        });
        let err = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(Bytes::from_terabytes(256.0))
            .unwrap_err();
        match err {
            SimError::DeliveryAbandoned { endpoint, attempts } => {
                assert_eq!(endpoint, 1);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected DeliveryAbandoned, got {other:?}"),
        }
    }

    #[test]
    fn identical_seeds_give_identical_integrity_reports() {
        let go = |seed| {
            DhlSystem::new(reshipping_config(seed))
                .unwrap()
                .run_bulk_transfer(Bytes::from_petabytes(4.0))
                .unwrap()
        };
        let a = go(21);
        let b = go(21);
        assert_eq!(a, b);
        // `integrity` is excluded from report equality, so compare it
        // explicitly as well.
        assert_eq!(a.integrity, b.integrity);
        let c = go(22);
        assert_ne!(
            a.integrity, c.integrity,
            "different corruption seeds should (almost surely) differ"
        );
    }

    #[test]
    fn integrity_stream_is_independent_of_fault_streams() {
        // Enabling verification (zero corruption) on top of the PR-1 lossy
        // config must not perturb the fault RNG draws: the same losses and
        // redeliveries happen, verification merely rides along.
        let dataset = Bytes::from_petabytes(2.0);
        let base = DhlSystem::new(super::fault_tests::lossy_recovering_config(11))
            .unwrap()
            .run_bulk_transfer(dataset)
            .unwrap();
        let mut cfg = super::fault_tests::lossy_recovering_config(11);
        cfg.integrity = Some(IntegritySpec::verification_only());
        let verified = DhlSystem::new(cfg)
            .unwrap()
            .run_bulk_transfer(dataset)
            .unwrap();
        assert_eq!(
            base.reliability.redeliveries,
            verified.reliability.redeliveries
        );
        assert_eq!(base.ssd_failures, verified.ssd_failures);
        assert_eq!(base.deliveries, verified.deliveries);
    }
}

/// Resume at every event: a mission is checkpointed after each event it
/// processes, and every capture, round-tripped through JSON and resumed,
/// must run to the report, trace and deterministic metrics of the
/// uninterrupted run. Right after the resume, the state a checkpoint
/// leaves out must equal the live state it was captured from.
#[cfg(test)]
mod resume_at_every_event {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::config::{
        CartStallSpec, DockControllerFaultSpec, FaultSpec, IntegritySpec, ReliabilitySpec,
    };

    /// Counters, gauges that do not read the wall clock, and histograms.
    type Deterministic = (
        Vec<(String, u64)>,
        Vec<(String, f64)>,
        Vec<dhl_obs::HistogramSummary>,
    );

    fn deterministic(r: &BulkTransferReport) -> Deterministic {
        let m = &r.metrics;
        let gauges = m.gauges.iter().filter(|(n, _)| !n.contains("wall"));
        (
            m.counters.clone(),
            gauges.cloned().collect(),
            m.histograms.clone(),
        )
    }

    fn finish(sys: &mut DhlSystem) -> (BulkTransferReport, Option<Trace>, Deterministic) {
        assert!(sys.run_until(Seconds::new(f64::INFINITY)).expect("run"));
        let report = sys.finish();
        let metrics = deterministic(&report);
        (report, sys.take_trace(), metrics)
    }

    /// Stalls at 0.1 per movement and dock-controller crashes at 0.2 per
    /// docking, with reliability and integrity on.
    fn stressed(dual_track: bool) -> SimConfig {
        let faults = FaultSpec::stress();
        SimConfig {
            dual_track,
            reliability: Some(ReliabilitySpec {
                seed: 7,
                ..ReliabilitySpec::typical()
            }),
            faults: Some(FaultSpec {
                cart_stall: Some(CartStallSpec {
                    probability_per_movement: 0.1,
                    ..faults.cart_stall.expect("stress stalls carts")
                }),
                dock_controller: Some(DockControllerFaultSpec {
                    crash_probability_per_docking: 0.2,
                    ..DockControllerFaultSpec::journal_replay()
                }),
                ..faults
            }),
            integrity: Some(IntegritySpec::typical()),
            ..SimConfig::paper_default()
        }
    }

    /// Runs `cfg` over `pb` petabytes, checkpointing after every event;
    /// returns the number of events and of stalls.
    fn resume_after_every_event(cfg: &SimConfig, pb: f64) -> (u64, u64) {
        let begun = || {
            let mut sys = DhlSystem::new(cfg.clone()).expect("valid configuration");
            sys.enable_trace(1 << 12);
            sys.begin_bulk_transfer(Bytes::from_petabytes(pb))
                .expect("begin");
            sys
        };
        let clean = finish(&mut begun());
        let mut sys = begun();
        loop {
            let text = sys.checkpoint().to_json();
            let cp = Checkpoint::from_json(&text).expect("decode");
            let mut resumed = DhlSystem::resume(cfg.clone(), &cp).expect("resume");
            let at = sys.queue.events_processed();
            assert_eq!(resumed.tracks, sys.tracks, "tracks after event {at}");
            assert_eq!(resumed.dock_used, sys.dock_used, "docks after event {at}");
            assert_eq!(
                resumed.wakeup_scheduled, sys.wakeup_scheduled,
                "wakeup after event {at}"
            );
            assert!(finish(&mut resumed) == clean, "resumed after event {at}");
            let Some((_, ev)) = sys.queue.pop_at_or_before(Seconds::new(f64::INFINITY)) else {
                break;
            };
            sys.handle(ev);
            assert!(sys.abandoned.is_none());
        }
        (sys.queue.events_processed(), sys.counters.cart_stalls)
    }

    #[test]
    fn paper_default() {
        let (events, _) = resume_after_every_event(&SimConfig::paper_default(), 8.0);
        assert!(events > 200, "{events} events");
    }

    #[test]
    fn paper_serial() {
        let (events, _) = resume_after_every_event(&SimConfig::paper_serial(), 4.0);
        assert!(events > 100, "{events} events");
    }

    #[test]
    fn dual_track() {
        let cfg = SimConfig {
            dual_track: true,
            ..SimConfig::paper_default()
        };
        let (events, _) = resume_after_every_event(&cfg, 8.0);
        assert!(events > 200, "{events} events");
    }

    #[test]
    fn stressed_single_track() {
        let (_, stalls) = resume_after_every_event(&stressed(false), 12.0);
        assert!(stalls > 0, "no cart stalled");
    }

    #[test]
    fn stressed_dual_track() {
        let (_, stalls) = resume_after_every_event(&stressed(true), 12.0);
        assert!(stalls > 0, "no cart stalled");
    }

    #[test]
    fn dock_slower_than_the_undock() {
        let cfg = SimConfig {
            dock_time: Seconds::new(5.0),
            undock_time: Seconds::new(3.0),
            ..SimConfig::paper_default()
        };
        assert!(!cfg.undock_ends_headway());
        let (events, _) = resume_after_every_event(&cfg, 8.0);
        assert!(events > 200, "{events} events");
    }
}
