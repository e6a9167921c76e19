//! Checkpoint/restore for crash-recoverable simulations.
//!
//! A [`Checkpoint`] is a point-in-time capture of everything a
//! [`DhlSystem`] needs to continue a run as if nothing happened: the
//! simulation clock, the pending event queue, every cart and delivery state
//! machine, wear counters, the RNG streams, the trace buffer, and the
//! deterministic metrics state. Resuming from a checkpoint and running to
//! completion produces **bit-identical** reports, traces, and
//! (deterministic) metrics to the uninterrupted run — the property the
//! replica engine's retry-with-resume and the kill-and-resume CI job build
//! on.
//!
//! A checkpoint stores each fact once. [`DhlSystem::resume`] derives from
//! the fleet and the event queue the docks in use, each track's load,
//! direction and stalled cart, and whether a launch wakeup is pending.
//! The published counters come from the report tallies, so a document
//! that carries one is refused.
//!
//! Checkpoints serialize to JSON through the crate's field-list codec,
//! which streams both ways with no JSON tree in between:
//! [`Checkpoint::to_json`] writes every field straight into one `String`,
//! and [`Checkpoint::from_json`] reads them straight off a
//! [`dhl_obs::json::Reader`]. Each checkpointed type is declared once, as a
//! field list for `codec_struct!`/`codec_enum!` at the bottom of this
//! module; the field names are the JSON keys, written in a sorted order the
//! macros compute at compile time, so equal checkpoints give byte-equal
//! text. `u64` counters are exact digit strings, and `f64` times use Rust's
//! shortest round-trip `Display` plus exact `str::parse::<f64>`, so a
//! read(write(x)) trip reproduces every bit. The fleet is written as one
//! array per `CartArena` column and each pending launch as a tuple, so a
//! key is written once per column, not once per cart.
//!
//! A damaged document is refused whole, and the refusal does not depend on
//! how far the reader got: a JSON syntax error anywhere comes first, then a
//! missing or unsupported `version`, then the first field that does not
//! fit, named by its path. A field or map key given twice is refused too.
//!
//! The configuration itself is *not* serialized — checkpoints are state,
//! not provenance. [`DhlSystem::resume`] takes the configuration separately
//! and refuses (with [`SimError::CheckpointMismatch`]) to marry a
//! checkpoint to a configuration other than the one it was captured under,
//! via an FNV-1a fingerprint over the configuration's debug form.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use dhl_obs::json::{JsonError, Kind};
use dhl_obs::{Histogram, MetricsRegistry, Stopwatch};
use dhl_rng::DeterministicRng;
use dhl_storage::{CartWear, Checksum64, DockingConnector};
use dhl_units::{Bytes, Joules, Seconds};

use crate::arena::CartArena;
use crate::codec::{self, codec_enum, codec_struct, Codec, Reader};
use crate::config::SimConfig;
use crate::engine::EventQueue;
use crate::metrics::is_published;
use crate::movement::MovementCost;
use crate::system::{
    Abandoned, ActiveMovement, CartId, CartLocation, Counters, DhlSystem, Direction, EndpointId,
    Ev, Mission, Movement, PendingVerify, RackDemand, Redelivery, RunState, SimError, TrackState,
};
use crate::trace::{Trace, TraceEvent, TraceEventKind, TraceSink};

/// Serialization format version; bumped when the JSON layout changes.
const FORMAT_VERSION: u64 = 4;

/// FNV-1a over the configuration's debug representation: stable across
/// processes (unlike `DefaultHasher`) and sensitive to every field the
/// simulator reads, since they all appear in `Debug` output. The text is
/// streamed into the hash, never collected.
#[must_use]
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut sum = Checksum64::new();
    let _ = write!(sum, "{cfg:?}");
    sum.finish()
}

/// The fleet, one array per [`CartArena`] column. Connector and wear
/// objects are reduced to the counters that define them, `None` when the
/// configuration tracks neither — `resume` rebuilds the live objects from
/// the configuration plus these counters, which is exact because
/// [`DockingConnector::mate`] and [`CartWear::record_write`] are pure
/// accumulations.
#[derive(Clone, PartialEq, Debug)]
struct CartColumns {
    locations: Vec<CartLocation>,
    movements: Vec<Option<ActiveMovement>>,
    connector_cycles: Option<Vec<u32>>,
    wear_written: Option<Vec<u64>>,
    matings: Vec<u32>,
    verify: Vec<Option<PendingVerify>>,
}

#[derive(Clone, PartialEq, Debug)]
struct HistogramState {
    count: u64,
    sum: f64,
    /// Raw minimum; `+∞` when the histogram is empty (encoded as `null`).
    min: f64,
    /// Raw maximum; `-∞` when the histogram is empty (encoded as `null`).
    max: f64,
    buckets: Vec<(u32, u64)>,
}

#[derive(Clone, PartialEq, Debug)]
struct MetricsState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramState>,
}

/// A point-in-time capture of a running [`DhlSystem`].
///
/// Obtained from [`DhlSystem::checkpoint`]; turned back into a live system
/// by [`DhlSystem::resume`]. Round-trips losslessly through JSON via
/// [`Checkpoint::to_json`] / [`Checkpoint::from_json`].
#[derive(Clone, PartialEq, Debug)]
pub struct Checkpoint {
    fingerprint: u64,
    now: f64,
    next_seq: u64,
    events_processed: u64,
    events_clamped: u64,
    events_at_mission_start: u64,
    queue: Vec<(f64, u64, Ev)>,
    carts: CartColumns,
    /// Each track without what the fleet says of it (see [`TrackState`]).
    tracks: Vec<TrackState>,
    pending: Vec<Movement>,
    redelivery_queue: Vec<Redelivery>,
    mission: Mission,
    total_energy_j: f64,
    movements: u64,
    max_in_flight: u32,
    trace: Option<Trace>,
    reliability_rng: Option<[u64; 4]>,
    fault_rng: Option<[u64; 4]>,
    integrity_rng: Option<[u64; 4]>,
    counters: Counters,
    abandoned: Option<Abandoned>,
    watch_running: bool,
    metrics: Option<MetricsState>,
    /// Always [`FORMAT_VERSION`]: [`Checkpoint::from_json`] refuses others.
    version: u64,
}

/// A checkpoint's `version` key alone.
struct Version {
    version: u64,
}

impl Checkpoint {
    /// Simulation time at which this checkpoint was captured.
    #[must_use]
    pub fn time(&self) -> Seconds {
        Seconds::new(self.now)
    }

    /// Events the engine had processed at capture time.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Fingerprint of the configuration this checkpoint belongs to.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl DhlSystem {
    /// Captures the complete simulation state at the current instant.
    ///
    /// The capture is non-destructive: the system keeps running
    /// afterwards, and resuming the checkpoint elsewhere replays the
    /// remainder of the run bit-identically.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: *self
                .fingerprint
                .get_or_init(|| config_fingerprint(&self.cfg)),
            now: self.queue.now().seconds(),
            next_seq: self.queue.next_seq(),
            events_processed: self.queue.events_processed(),
            events_clamped: self.queue.clamped(),
            events_at_mission_start: self.events_at_mission_start,
            queue: self
                .queue
                .pending_entries()
                .into_iter()
                .map(|(t, s, e)| (t.seconds(), s, *e))
                .collect(),
            carts: CartColumns {
                locations: self.carts.locations.clone(),
                movements: self.carts.movements.clone(),
                connector_cycles: (self.carts.connectors.iter())
                    .map(|c| c.as_ref().map(DockingConnector::cycles_used))
                    .collect(),
                wear_written: (self.carts.wear.iter())
                    .map(|w| w.as_ref().map(|w| w.written().as_u64()))
                    .collect(),
                matings: self.carts.matings.clone(),
                verify: self.carts.verify.clone(),
            },
            tracks: (self.tracks.iter())
                .map(|&t| TrackState {
                    direction: None,
                    in_flight: 0,
                    blocked_by: None,
                    ..t
                })
                .collect(),
            pending: self.backlog.to_fifo(),
            redelivery_queue: self.redelivery_queue.iter().copied().collect(),
            mission: self.mission.clone(),
            total_energy_j: self.total_energy.value(),
            movements: self.movements,
            max_in_flight: self.max_in_flight,
            trace: match &self.trace {
                TraceSink::Disabled => None,
                TraceSink::Buffered(t) => Some(t.clone()),
            },
            reliability_rng: self.reliability_rng.as_ref().map(DeterministicRng::state),
            fault_rng: self.fault_rng.as_ref().map(DeterministicRng::state),
            integrity_rng: self.integrity_rng.as_ref().map(DeterministicRng::state),
            counters: self.counters.clone(),
            abandoned: self.abandoned,
            watch_running: self.run_watch.is_some(),
            metrics: if self.metrics.is_enabled() {
                Some(MetricsState {
                    counters: (self.metrics.counters())
                        .filter(|&(n, _)| !is_published(n))
                        .map(|(n, v)| (n.to_string(), v))
                        .collect(),
                    gauges: self
                        .metrics
                        .gauges()
                        .map(|(n, v)| (n.to_string(), v))
                        .collect(),
                    histograms: self
                        .metrics
                        .histograms()
                        .map(|(n, h)| {
                            (
                                n.to_string(),
                                HistogramState {
                                    count: h.count(),
                                    sum: h.sum(),
                                    min: h.raw_min(),
                                    max: h.raw_max(),
                                    buckets: h.sparse_buckets(),
                                },
                            )
                        })
                        .collect(),
                })
            } else {
                None
            },
            version: FORMAT_VERSION,
        }
    }

    /// Rebuilds a live system from a checkpoint, ready to continue the run.
    ///
    /// # Errors
    ///
    /// - [`SimError::Config`] if `cfg` fails validation.
    /// - [`SimError::CheckpointMismatch`] if `cfg` is not the configuration
    ///   the checkpoint was captured under.
    /// - [`SimError::ConnectorCyclesExceedRating`] if a cart's connector
    ///   wear is beyond its rating, which no run can reach.
    /// - [`SimError::InvalidCheckpointState`] if the track list, a fleet
    ///   column, a pending launch, the per-endpoint dock downtime or the
    ///   presence of an RNG stream does not fit the configuration, a hop
    ///   leaves out the library, a track carries carts both ways or two
    ///   stalled carts, a headway lacks the `UndockDone` that ends it, the
    ///   event or sequence counters cannot count on from where they stand,
    ///   or the metrics carry a published counter.
    /// - [`SimError::UnknownMetric`] if the checkpoint carries a metric the
    ///   simulator does not record.
    pub fn resume(cfg: SimConfig, cp: &Checkpoint) -> Result<Self, SimError> {
        cfg.validate()?;
        let actual = config_fingerprint(&cfg);
        if actual != cp.fingerprint {
            return Err(SimError::CheckpointMismatch {
                expected: cp.fingerprint,
                actual,
            });
        }
        let connector_kind = cfg
            .faults
            .as_ref()
            .and_then(|f| f.docking_connector.as_ref())
            .map(|c| c.kind);
        let (dock_used, tracks, wakeup_scheduled) = validate_state(&cfg, cp)?;
        let c = &cp.carts;
        let mut carts = CartArena::with_fleet(c.locations.len(), None, None);
        carts.set_locations(&c.locations);
        carts.movements.clone_from(&c.movements);
        carts.matings.clone_from(&c.matings);
        carts.verify.clone_from(&c.verify);
        if let (Some(kind), Some(cycles)) = (connector_kind, &c.connector_cycles) {
            for (cart, &cycles) in cycles.iter().enumerate() {
                let rated = kind.rated_cycles();
                let worn = SimError::ConnectorCyclesExceedRating {
                    cart,
                    cycles,
                    rated,
                };
                carts.connectors[cart] =
                    Some(DockingConnector::with_cycles_used(kind, cycles).ok_or(worn)?);
            }
        }
        if let (Some(integrity), Some(written)) = (&cfg.integrity, &c.wear_written) {
            for (cart, &written) in written.iter().enumerate() {
                let mut tracker = CartWear::new(integrity.endurance.clone(), cfg.cart_capacity);
                tracker.record_write(Bytes::new(written));
                carts.wear[cart] = Some(tracker);
            }
        }
        // The registry is enabled as the capture's was, and the handle
        // bundle registered once: its registration list is the one place
        // metric names are written, so every name the checkpoint carries
        // must resolve to a slot it created.
        let metrics = match cp.metrics {
            None => MetricsRegistry::disabled(),
            Some(_) => MetricsRegistry::enabled(),
        };
        let mut queue = EventQueue::from_entries(
            Seconds::new(cp.now),
            cp.next_seq,
            cp.events_processed,
            cp.queue.iter().map(|&(t, s, e)| (Seconds::new(t), s, e)),
        );
        queue.set_clamped(cp.events_clamped);
        let state = RunState {
            carts,
            dock_used,
            queue,
            tracks,
            counters: cp.counters.clone(),
            streams: [cp.reliability_rng, cp.fault_rng, cp.integrity_rng]
                .map(|s| s.map(DeterministicRng::from_state)),
        };
        let mut sys = Self::assemble(cfg, state, &cp.pending, metrics);
        sys.fingerprint = OnceLock::from(actual);
        sys.redelivery_queue = cp.redelivery_queue.iter().copied().collect();
        sys.mission = cp.mission.clone();
        sys.wakeup_scheduled = wakeup_scheduled;
        sys.total_energy = Joules::new(cp.total_energy_j);
        sys.movements = cp.movements;
        sys.max_in_flight = cp.max_in_flight;
        sys.trace = match &cp.trace {
            None => TraceSink::Disabled,
            Some(t) => {
                TraceSink::Buffered(Trace::from_parts(t.events.clone(), t.capacity, t.dropped))
            }
        };
        sys.abandoned = cp.abandoned;
        sys.events_at_mission_start = cp.events_at_mission_start;
        sys.run_watch = cp.watch_running.then(Stopwatch::start);
        if let Some(m) = &cp.metrics {
            let reg = &mut sys.metrics;
            let unknown = |name: &String| SimError::UnknownMetric { name: name.clone() };
            for (name, &value) in &m.counters {
                if is_published(name) {
                    return Err(SimError::InvalidCheckpointState {
                        field: format!("metrics.counters.{name}"),
                        reason: "a published counter is read from the tallies".into(),
                    });
                }
                let id = reg.counter_id(name).ok_or_else(|| unknown(name))?;
                reg.store(id, value);
            }
            for (name, &value) in &m.gauges {
                let id = reg.gauge_id(name).ok_or_else(|| unknown(name))?;
                reg.set(id, value);
            }
            for (name, h) in &m.histograms {
                let id = reg.histogram_id(name).ok_or_else(|| unknown(name))?;
                reg.restore(
                    id,
                    Histogram::from_parts(h.count, h.sum, h.min, h.max, &h.buckets),
                );
            }
        }
        Ok(sys)
    }
}

/// Checks the state the run indexes by endpoint, cart and track, and the
/// RNG streams it draws from, against the configuration, so a corrupt
/// checkpoint is refused here instead of panicking mid-run on an
/// out-of-range index or a missing stream, or waiting on an event that
/// never fires. Returns what the fleet and the queue say and a checkpoint
/// leaves out: the docks in use per endpoint, the tracks with their
/// carts counted in, and whether a launch wakeup is pending.
fn validate_state(
    cfg: &SimConfig,
    cp: &Checkpoint,
) -> Result<(Vec<u32>, Vec<TrackState>, bool), SimError> {
    let invalid =
        |field: String, reason: String| Err(SimError::InvalidCheckpointState { field, reason });
    // The engine counts on from these, and numbered every pending event
    // below `next_seq`.
    for (field, value, limit) in [
        ("next_seq", cp.next_seq, u64::MAX - 1),
        ("events_processed", cp.events_processed, u64::MAX - 1),
        (
            "events_at_mission_start",
            cp.events_at_mission_start,
            cp.events_processed,
        ),
    ] {
        if value > limit {
            return invalid(field.into(), format!("{value} is above {limit}"));
        }
    }
    if let Some(i) = cp.queue.iter().position(|e| e.1 >= cp.next_seq) {
        let reason = format!("{} is not below next_seq {}", cp.queue[i].1, cp.next_seq);
        return invalid(format!("queue[{i}].seq"), reason);
    }
    let endpoints = cfg.endpoints.len();
    let downtime = cp.counters.dock_downtime.len();
    if downtime != endpoints {
        return invalid(
            "counters.dock_downtime".into(),
            format!("{downtime} entries for {endpoints} endpoints"),
        );
    }
    for (name, has_stream, has_spec) in [
        (
            "reliability_rng",
            cp.reliability_rng.is_some(),
            cfg.reliability.is_some(),
        ),
        ("fault_rng", cp.fault_rng.is_some(), cfg.faults.is_some()),
        (
            "integrity_rng",
            cp.integrity_rng.is_some(),
            cfg.integrity.is_some(),
        ),
    ] {
        if has_stream != has_spec {
            let (stream, spec) = if has_spec {
                ("absent", "set")
            } else {
                ("present", "unset")
            };
            return invalid(
                name.into(),
                format!("stream {stream} while its configuration spec is {spec}"),
            );
        }
    }
    let (c, fleet) = (&cp.carts, cfg.num_carts as usize);
    let mut columns = [c.locations.len(), c.movements.len(), c.matings.len()]
        .into_iter()
        .chain([c.verify.len()])
        .chain(c.connector_cycles.as_ref().map(Vec::len))
        .chain(c.wear_written.as_ref().map(Vec::len));
    if let Some(len) = columns.find(|&len| len != fleet) {
        return invalid(
            "carts".into(),
            format!("a column of {len} entries for {fleet} carts"),
        );
    }
    let tracks = if cfg.dual_track { 2 } else { 1 };
    if cp.tracks.len() != tracks {
        return invalid(
            "tracks".into(),
            format!("{} tracks where the layout has {tracks}", cp.tracks.len()),
        );
    }
    let outside = |ep: EndpointId| format!("endpoint {ep} outside {endpoints} endpoints");
    // The movement table holds only hops between the library and a rack.
    let hop = |from: EndpointId, to: EndpointId| {
        (from == to || from.min(to) != 0)
            .then(|| format!("{from} to {to} is not a hop to or from the library"))
    };
    // A cart waits on at most one thing: a launch in the backlog or one
    // queued event of its delivery machine.
    let mut busy = vec![false; fleet];
    for (i, m) in cp.pending.iter().enumerate() {
        if m.cart >= fleet {
            return invalid(
                format!("pending[{i}].cart"),
                format!("cart {} outside a fleet of {fleet}", m.cart),
            );
        }
        for (name, ep) in [("from", m.from), ("to", m.to)] {
            if ep >= endpoints {
                return invalid(format!("pending[{i}].{name}"), outside(ep));
            }
        }
        if let Some(reason) = hop(m.from, m.to) {
            return invalid(format!("pending[{i}].to"), reason);
        }
        let idle = c.locations[m.cart] == CartLocation::Docked(m.from);
        if busy[m.cart] || !idle || c.movements[m.cart].is_some() {
            return invalid(
                format!("pending[{i}].cart"),
                format!("cart {} is not idle at endpoint {}", m.cart, m.from),
            );
        }
        busy[m.cart] = true;
    }
    for i in 0..fleet {
        let (from, to) = match c.locations[i] {
            CartLocation::Docked(ep) => (ep, ep),
            CartLocation::Moving { from, to } => (from, to),
        };
        if from.max(to) >= endpoints {
            return invalid(format!("carts.locations[{i}]"), outside(from.max(to)));
        }
        if let Some(m) = &c.movements[i] {
            if m.from.max(m.to) >= endpoints {
                return invalid(format!("carts.movements[{i}]"), outside(m.from.max(m.to)));
            }
            if let Some(reason) = hop(m.from, m.to) {
                return invalid(format!("carts.movements[{i}]"), reason);
            }
        }
        if let Some(v) = &c.verify[i] {
            if v.to == 0 || v.to >= endpoints {
                return invalid(
                    format!("carts.verify[{i}]"),
                    format!("{} is not a rack", v.to),
                );
            }
            if c.locations[i] != CartLocation::Docked(v.to) {
                return invalid(
                    format!("carts.verify[{i}]"),
                    format!("cart is not docked at endpoint {}", v.to),
                );
            }
        }
    }
    for (i, r) in cp.redelivery_queue.iter().enumerate() {
        if r.endpoint == 0 || r.endpoint >= endpoints {
            return invalid(
                format!("redelivery_queue[{i}].endpoint"),
                format!("{} is not a rack", r.endpoint),
            );
        }
    }
    let (mut undocking, mut wakeup) = (vec![false; fleet], false);
    for (i, &(_, _, ev)) in cp.queue.iter().enumerate() {
        let (cart, needs, has): (CartId, &str, fn(&CartColumns, CartId) -> bool) = match ev {
            Ev::TryLaunch => {
                wakeup = true;
                continue;
            }
            Ev::UndockDone { cart } | Ev::Arrived { cart } | Ev::DockDone { cart } => {
                (cart, "movement", |c, i| c.movements[i].is_some())
            }
            Ev::VerifyDone { cart } => (cart, "pending verify", |c, i| c.verify[i].is_some()),
            Ev::ProcessingDone { cart } => (
                cart,
                "rack dock",
                |c, i| matches!(c.locations[i], CartLocation::Docked(ep) if ep != 0),
            ),
        };
        if cart >= fleet {
            let reason = format!("cart {cart} outside a fleet of {fleet}");
            return invalid(format!("queue[{i}].cart"), reason);
        }
        let refused = match (has(c, cart), busy[cart]) {
            (false, _) => Some(format!("has no {needs}")),
            (true, waiting) => waiting.then(|| "is already waiting".into()),
        };
        if let Some(why) = refused {
            let reason = format!("{ev:?} for cart {cart}, which {why}");
            return invalid(format!("queue[{i}]"), reason);
        }
        busy[cart] = true;
        undocking[cart] = matches!(ev, Ev::UndockDone { .. });
    }
    // A dock in use holds a docked cart, is reserved by a cart on its way
    // in, or is still held by a cart undocking from it. A track carries
    // its moving carts, all one way, and is blocked by the one that
    // stalled.
    let mut held = vec![0u32; endpoints];
    let mut tracks = cp.tracks.clone();
    let track_of = |m: &ActiveMovement| {
        let inbound = DhlSystem::direction_of(m.from, m.to) == Direction::Inbound;
        usize::from(cfg.dual_track && inbound)
    };
    let carts = c.movements.iter().zip(&c.locations).zip(undocking);
    for (i, ((&movement, &location), undocking)) in carts.enumerate() {
        let Some(m) = movement else {
            if let CartLocation::Docked(ep) = location {
                held[ep] += 1;
            }
            continue;
        };
        held[m.to] += 1;
        held[m.from] += u32::from(undocking);
        let (index, dir) = (track_of(&m), DhlSystem::direction_of(m.from, m.to));
        let t = &mut tracks[index];
        let refused = match (t.direction.replace(dir), t.blocked_by) {
            (Some(other), _) if other != dir => Some("carries carts both ways"),
            (_, Some(_)) if m.stalled => Some("is blocked by two stalled carts"),
            _ => None,
        };
        if let Some(reason) = refused {
            return invalid(format!("tracks[{index}]"), reason.into());
        }
        t.in_flight += 1;
        t.blocked_by = t.blocked_by.or(m.stalled.then_some(i));
    }
    // With an undock at least as long as the dock, a headway ends when the
    // last launch's own `UndockDone` fires, and no wakeup is booked (see
    // `DhlSystem::try_launch`): a track in its headway must have it pending.
    for (i, t) in tracks.iter().enumerate() {
        let ends = t.last_launch + cfg.undock_time.seconds();
        let ends_headway = |&(at, _, ev): &(f64, u64, Ev)| match ev {
            Ev::UndockDone { cart } => {
                at == ends && c.movements[cart].is_some_and(|m| track_of(&m) == i)
            }
            _ => false,
        };
        let in_headway = t.in_flight > 0 && cp.now < ends && cfg.undock_ends_headway();
        if in_headway && !cp.queue.iter().any(ends_headway) {
            let reason = format!("no UndockDone ends its headway at {ends} s");
            return invalid(format!("tracks[{i}]"), reason);
        }
    }
    Ok((held, tracks, wakeup))
}

/// Why a serialized checkpoint failed to decode.
#[derive(Debug)]
pub enum CheckpointError {
    /// The JSON text itself was malformed.
    Json(JsonError),
    /// The JSON was well-formed but is not a checkpoint this version reads.
    Shape(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "invalid checkpoint JSON: {e}"),
            Self::Shape(msg) => write!(f, "invalid checkpoint structure: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

impl Checkpoint {
    /// Writes the checkpoint as a deterministic JSON string.
    ///
    /// Keys are emitted in sorted order and every number takes the codec's
    /// lossless path, so equal checkpoints produce byte-equal JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // About 32 bytes per cart, pending launch and event, plus the rest:
        // room for the whole text at once.
        let rows = self.carts.locations.len() + self.pending.len() + self.queue.len();
        let mut out = String::with_capacity(2048 + 32 * rows);
        self.write(&mut out);
        out
    }

    /// Parses a checkpoint previously produced by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Json`] on malformed JSON,
    /// [`CheckpointError::Shape`] when the structure is not a
    /// version-compatible checkpoint.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        // A refused document's version outranks its other shape errors, so
        // the version is read on its own.
        match codec::read_document::<Self>(text) {
            Ok(cp) => check_version(cp.version).map(|()| cp),
            Err(CheckpointError::Shape(msg)) => Err(codec::read_document::<Version>(text)
                .and_then(|v| check_version(v.version))
                .err()
                .unwrap_or(CheckpointError::Shape(msg))),
            Err(e) => Err(e),
        }
    }
}

fn check_version(version: u64) -> Result<(), CheckpointError> {
    if version == FORMAT_VERSION {
        Ok(())
    } else {
        Err(codec::shape(format!(
            "unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
        )))
    }
}

// ---------------------------------------------------------------------------
// The serialized form: one declaration per checkpointed type
// ---------------------------------------------------------------------------

codec_struct!(Checkpoint {
    fingerprint,
    now,
    next_seq,
    events_processed,
    events_clamped,
    events_at_mission_start,
    queue,
    carts,
    tracks,
    pending,
    redelivery_queue,
    mission,
    total_energy_j,
    movements,
    max_in_flight,
    trace,
    reliability_rng,
    fault_rng,
    integrity_rng,
    counters,
    abandoned,
    watch_running,
    metrics,
    version,
});

codec_struct!(Version { version });

codec_struct!(CartColumns {
    locations,
    movements,
    connector_cycles,
    wear_written,
    matings,
    verify,
});

codec_struct!(ActiveMovement {
    from,
    to,
    payload,
    attempt,
    cost,
    stalled,
});

codec_struct!(MovementCost {
    speed,
    total_time,
    motion_time,
    energy,
});

codec_struct!(PendingVerify {
    to,
    payload,
    attempt,
    trip_time,
    shards,
});

codec_struct!(TrackState {
    last_launch,
    busy_accum,
    last_update,
    downtime_accum,
    degraded_until,
} derived { direction, in_flight, blocked_by });

codec_struct!(Redelivery {
    endpoint,
    payload,
    attempt,
});

codec_struct!(Abandoned { endpoint, attempts });

codec_struct!(Mission {
    total_deliveries,
    scheduled,
    done,
    demands,
    delivered,
    gross_delivered,
    completion_time,
});

codec_struct!(RackDemand {
    endpoint,
    bytes_remaining,
    deliveries_done,
});

codec_struct!(Trace {
    events,
    capacity,
    dropped,
});

codec_struct!(TraceEvent { time, kind });

codec_struct!(Counters {
    ssd_failures,
    data_loss_events,
    redeliveries,
    retry_time_s,
    cart_stalls,
    connector_replacements,
    repressurisations,
    dock_crashes,
    dock_recovery_time_s,
    dock_downtime,
    shards_scanned,
    shards_corrupted,
    shards_reconstructed,
    deliveries_verified,
    deliveries_reshipped,
    verification_time_s,
    reconstruction_time_s,
    verification_energy_j,
});

codec_struct!(MetricsState {
    counters,
    gauges,
    histograms,
});

codec_struct!(HistogramState {
    count,
    sum,
    min: null => f64::INFINITY,
    max: null => f64::NEG_INFINITY,
    buckets,
});

codec_enum!(Ev {
    TryLaunch = "try_launch",
    UndockDone { cart } = "undock_done",
    Arrived { cart } = "arrived",
    DockDone { cart } = "dock_done",
    VerifyDone { cart } = "verify_done",
    ProcessingDone { cart } = "processing_done",
});

codec_enum!(TraceEventKind {
    Launch { cart, from, to } = "launch",
    EnterTube { cart } = "enter_tube",
    BeginDock { cart } = "begin_dock",
    Docked { cart, endpoint } = "docked",
    ProcessingDone { cart } = "processing_done",
    DeliveryFailed { cart, endpoint, attempt } = "delivery_failed",
    VerifyStarted { cart, endpoint, shards } = "verify_started",
    PayloadVerified { cart, endpoint, shards } = "payload_verified",
    PayloadCorrupted { cart, endpoint, corrupted, attempt } = "payload_corrupted",
    ShardsReconstructed { cart, shards } = "shards_reconstructed",
    CartStalled { cart, track } = "cart_stalled",
    DockControllerCrashed { cart, endpoint } = "dock_controller_crashed",
    DockControllerRecovered { cart, endpoint, downtime } = "dock_controller_recovered",
    TrackRestored { track } = "track_restored",
});

/// A pending launch travels as the tuple `[cart, from, to, payload, attempt]`.
impl Codec for Movement {
    fn write(&self, out: &mut String) {
        (self.cart, self.from, self.to, self.payload, self.attempt).write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let (cart, from, to, payload, attempt) = Codec::read(r)?;
        Ok(Self {
            cart,
            from,
            to,
            payload,
            attempt,
        })
    }
}

/// A cart's location travels as its dock's endpoint, or as the
/// `[from, to]` of the hop it is on.
impl Codec for CartLocation {
    fn write(&self, out: &mut String) {
        match *self {
            Self::Docked(endpoint) => endpoint.write(out),
            Self::Moving { from, to } => (from, to).write(out),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        if r.peek()? == Kind::Array {
            let (from, to) = Codec::read(r)?;
            return Ok(Self::Moving { from, to });
        }
        usize::read(r).map(Self::Docked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        DockControllerFaultSpec, DockRecoveryPolicy, FaultSpec, IntegritySpec, ReliabilitySpec,
    };
    use crate::config::{EndpointKind, EndpointSpec};
    use crate::report::BulkTransferReport;
    use dhl_storage::ConnectorKind;
    use dhl_units::Metres;

    const PB2: f64 = 2.0;

    fn faulty_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec {
            seed: 7,
            ..ReliabilitySpec::typical()
        });
        cfg.faults = Some(FaultSpec::stress());
        cfg
    }

    fn integrity_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec {
            seed: 11,
            ..ReliabilitySpec::typical()
        });
        cfg.integrity = Some(IntegritySpec::typical());
        cfg
    }

    fn crashing_dock_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec {
            seed: 13,
            ..ReliabilitySpec::typical()
        });
        cfg.faults = Some(FaultSpec {
            dock_controller: Some(DockControllerFaultSpec {
                crash_probability_per_docking: 0.5,
                recovery: DockRecoveryPolicy::RebuildFromScan,
                ..DockControllerFaultSpec::journal_replay()
            }),
            ..FaultSpec::recovery_only()
        });
        cfg
    }

    /// Runs to completion uninterrupted; returns the report and trace.
    fn run_clean(cfg: &SimConfig, dataset: Bytes) -> (BulkTransferReport, Option<Trace>) {
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.enable_trace(1 << 14);
        sys.begin_bulk_transfer(dataset).expect("begin");
        let drained = sys.run_until(Seconds::new(f64::INFINITY)).expect("run");
        assert!(drained);
        let report = sys.finish();
        (report, sys.take_trace())
    }

    /// Runs to `checkpoint_at`, captures, resumes (optionally through JSON),
    /// and completes the run on the resumed system.
    fn run_with_checkpoint(
        cfg: &SimConfig,
        dataset: Bytes,
        checkpoint_at: Seconds,
        through_json: bool,
    ) -> (BulkTransferReport, Option<Trace>) {
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.enable_trace(1 << 14);
        sys.begin_bulk_transfer(dataset).expect("begin");
        let _ = sys.run_until(checkpoint_at).expect("run to checkpoint");
        let cp = sys.checkpoint();
        let cp = if through_json {
            Checkpoint::from_json(&cp.to_json()).expect("JSON roundtrip")
        } else {
            cp
        };
        drop(sys); // the "crash"
        let mut resumed = DhlSystem::resume(cfg.clone(), &cp).expect("resume");
        let drained = resumed
            .run_until(Seconds::new(f64::INFINITY))
            .expect("run after resume");
        assert!(drained);
        let report = resumed.finish();
        (report, resumed.take_trace())
    }

    /// Deterministic (non-wall-clock) metrics projection for comparisons.
    #[allow(clippy::type_complexity)]
    fn deterministic_metrics(r: &BulkTransferReport) -> (Vec<(String, u64)>, Vec<(String, f64)>) {
        let counters = r.metrics.counters.clone();
        let gauges = r
            .metrics
            .gauges
            .iter()
            .filter(|(n, _)| !n.contains("wall"))
            .cloned()
            .collect();
        (counters, gauges)
    }

    fn assert_resume_equivalent(cfg: &SimConfig, dataset: Bytes, checkpoint_at: f64) {
        let (clean, clean_trace) = run_clean(cfg, dataset);
        for through_json in [false, true] {
            let (resumed, resumed_trace) =
                run_with_checkpoint(cfg, dataset, Seconds::new(checkpoint_at), through_json);
            assert_eq!(
                clean, resumed,
                "report must be bit-identical (checkpoint at {checkpoint_at}s, json={through_json})"
            );
            assert_eq!(
                clean_trace, resumed_trace,
                "trace must be bit-identical (checkpoint at {checkpoint_at}s, json={through_json})"
            );
            assert_eq!(
                deterministic_metrics(&clean),
                deterministic_metrics(&resumed),
                "deterministic metrics must match (checkpoint at {checkpoint_at}s, json={through_json})"
            );
        }
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let a = SimConfig::paper_default();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
        let mut b = SimConfig::paper_default();
        b.num_carts += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn streamed_fingerprint_hashes_the_formatted_configuration() {
        let mut stressed = SimConfig::paper_default();
        stressed.faults = Some(FaultSpec::stress());
        stressed.integrity = Some(IntegritySpec::typical());
        let mut campus = SimConfig::paper_default();
        campus.endpoints = (0..17)
            .map(|i| EndpointSpec {
                position: Metres::new(300.0 * f64::from(i)),
                docks: if i == 0 { 128 } else { 4 },
                kind: if i == 0 {
                    EndpointKind::Library
                } else {
                    EndpointKind::Rack
                },
            })
            .collect();
        for cfg in [SimConfig::paper_default(), stressed, campus] {
            let formatted = dhl_storage::fnv1a_64(format!("{cfg:?}").as_bytes());
            assert_eq!(config_fingerprint(&cfg), formatted);
        }
    }

    #[test]
    fn baseline_resume_is_bit_identical_at_randomized_times() {
        let cfg = SimConfig::paper_default();
        // A cheap LCG stands in for property-test shrinking: spread capture
        // points across the whole run, including t=0 (nothing processed yet)
        // and far past completion (queue already drained).
        let mut x = 0x2545_f491_4f6c_dd1du64;
        // Instants strictly between events (movements complete every 8.6 s)
        // too.
        let mut times = vec![0.0, 1e9, 8.61, 17.3, 43.05, 300.2];
        for _ in 0..6 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            times.push((x >> 40) as f64 / 16.0); // 0 .. ~1048s
        }
        for t in times {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn faulty_resume_is_bit_identical() {
        let cfg = faulty_config();
        for t in [0.0, 33.3, 250.0, 777.7] {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn integrity_resume_is_bit_identical() {
        let cfg = integrity_config();
        for t in [15.0, 444.4] {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn dock_crash_resume_is_bit_identical() {
        let cfg = crashing_dock_config();
        for t in [9.9, 500.0] {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn far_future_overflow_events_survive_checkpoint() {
        // An event far in the future serializes, JSON round-trips and
        // restores losslessly alongside the near-term events.
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(60.0)).expect("run");
        // A stray wakeup (a no-op when nothing is pending), ~11 500 days on.
        sys.queue.schedule_at(Seconds::new(1e9), Ev::TryLaunch);
        let cp = sys.checkpoint();
        let decoded = Checkpoint::from_json(&cp.to_json()).expect("JSON roundtrip");
        assert_eq!(decoded, cp);
        let resumed = DhlSystem::resume(cfg.clone(), &decoded).expect("resume");
        assert_eq!(resumed.checkpoint(), cp);
        // The far-future event is still there and still pops last.
        let mut drained = DhlSystem::resume(cfg, &decoded).expect("resume");
        let _ = drained.run_until(Seconds::new(f64::INFINITY)).expect("run");
        assert!(drained.queue.is_empty());
        assert_eq!(drained.now(), Seconds::new(1e9));
    }

    #[test]
    fn clamp_counter_survives_checkpoint_and_json() {
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(30.0)).expect("run");
        sys.queue.set_clamped(5);
        let cp = sys.checkpoint();
        let decoded = Checkpoint::from_json(&cp.to_json()).expect("JSON roundtrip");
        let resumed = DhlSystem::resume(cfg, &decoded).expect("resume");
        assert_eq!(resumed.queue.clamped(), 5);
        assert_eq!(resumed.checkpoint(), cp);
    }

    #[test]
    fn json_roundtrip_is_exact_and_deterministic() {
        let cfg = integrity_config();
        let mut sys = DhlSystem::new(cfg).expect("valid config");
        sys.enable_trace(256);
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(60.0)).expect("run");
        let cp = sys.checkpoint();
        let text = cp.to_json();
        let decoded = Checkpoint::from_json(&text).expect("decode");
        assert_eq!(decoded, cp);
        // Equal checkpoints serialize to byte-equal JSON.
        assert_eq!(decoded.to_json(), text);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(matches!(
            Checkpoint::from_json("not json"),
            Err(CheckpointError::Json(_))
        ));
        assert!(matches!(
            Checkpoint::from_json("{\"version\": 99}"),
            Err(CheckpointError::Shape(_))
        ));
        assert!(matches!(
            Checkpoint::from_json("{}"),
            Err(CheckpointError::Shape(_))
        ));
    }

    #[test]
    fn a_nan_limit_is_refused_before_any_event() {
        let cfg = SimConfig::paper_default();
        let nan = Seconds::new(f64::NAN);
        let mut fresh = DhlSystem::new(cfg.clone()).expect("valid config");
        fresh
            .begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let before = fresh.checkpoint();
        let err = fresh.run_until(nan).expect_err("NaN limit");
        assert!(matches!(err, SimError::InvalidLimit(l) if l.seconds().is_nan()));
        assert_eq!(
            fresh.checkpoint().events_processed(),
            before.events_processed()
        );

        let _ = fresh.run_until(Seconds::new(100.0)).expect("run");
        let cp = fresh.checkpoint();
        let mut resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        let err = resumed.run_until(nan).expect_err("NaN limit");
        assert!(matches!(err, SimError::InvalidLimit(_)));
        assert_eq!(resumed.now(), cp.time());
        assert_eq!(
            resumed.checkpoint().events_processed(),
            cp.events_processed()
        );
        // The refusal leaves the run intact: it still drains to completion.
        assert!(resumed.run_until(Seconds::new(f64::INFINITY)).expect("run"));
    }

    #[test]
    fn disabled_metrics_and_trace_stay_disabled_across_resume() {
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.set_metrics_enabled(false);
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(100.0)).expect("run");
        let cp = sys.checkpoint();
        let mut resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        assert!(!resumed.metrics().is_enabled());
        assert!(resumed.take_trace().is_none());
        let _ = resumed.run_until(Seconds::new(f64::INFINITY)).expect("run");
        let report = resumed.finish();
        assert!(report.metrics.counters.is_empty());
    }

    #[test]
    fn worn_connectors_and_wear_counters_survive_resume() {
        // Dock-controller crashes keep the fault RNG and energy paths hot;
        // integrity adds connector matings and NAND wear counters on top.
        let mut cfg = crashing_dock_config();
        cfg.integrity = Some(IntegritySpec::typical());
        cfg.validate().expect("valid test config");
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(400.0)).expect("run");
        let cp = sys.checkpoint();
        let resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        assert_eq!(resumed.checkpoint(), cp);
    }

    #[test]
    fn resume_rejects_an_unknown_metric_name() {
        let cfg = faulty_config();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(100.0)).expect("run");
        let text = sys.checkpoint().to_json();
        assert!(text.contains("\"sim.deliveries\":"));
        let renamed = text.replace("\"sim.deliveries\":", "\"sim.carts_flung\":");
        let cp = Checkpoint::from_json(&renamed).expect("still well-formed");
        match DhlSystem::resume(cfg, &cp) {
            Err(SimError::UnknownMetric { name }) => assert_eq!(name, "sim.carts_flung"),
            other => panic!("expected UnknownMetric, got {other:?}"),
        }
    }

    /// A capture carries none of the published counters, which are read
    /// from the tallies, and a resume refuses a document that does.
    #[test]
    fn a_published_counter_copy_is_refused() {
        let cfg = faulty_config();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        let _ = sys.run_bulk_transfer(Bytes::from_petabytes(PB2));
        assert!(sys.metrics().counters().any(|(n, _)| is_published(n)));
        let mut cp = sys.checkpoint();
        let counters = &mut cp.metrics.as_mut().expect("metrics on").counters;
        assert!(!counters.keys().any(|n| is_published(n)));
        counters.insert("sim.cart_stalls".into(), 0);
        match DhlSystem::resume(cfg, &cp) {
            Err(SimError::InvalidCheckpointState { field, .. }) => {
                assert_eq!(field, "metrics.counters.sim.cart_stalls");
            }
            other => panic!("expected InvalidCheckpointState, got {other:?}"),
        }
    }

    /// A delivery awaiting its verdict at endpoint `to`.
    fn verify_at(to: EndpointId) -> Option<PendingVerify> {
        Some(PendingVerify {
            to,
            payload: Bytes::ZERO,
            attempt: 1,
            trip_time: Seconds::ZERO,
            shards: 0,
        })
    }

    #[test]
    fn resume_rejects_out_of_range_launch_state() {
        let cfg = faulty_config();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(5.0)).expect("run");
        let captured = sys.checkpoint();
        assert!(!captured.pending.is_empty(), "capture holds a backlog");
        type Mutation = fn(&mut Checkpoint);
        let mutations: [(&str, Mutation); 32] = [
            ("pending[0].cart", |cp| cp.pending[0].cart = 8),
            ("pending[0].from", |cp| cp.pending[0].from = 2),
            ("pending[0].to", |cp| cp.pending[0].to = 9),
            ("pending[0].to", |cp| cp.pending[0].to = cp.pending[0].from),
            ("tracks", |cp| cp.tracks.push(TrackState::default())),
            ("counters.dock_downtime", |cp| {
                cp.counters.dock_downtime.clear()
            }),
            ("reliability_rng", |cp| cp.reliability_rng = None),
            ("fault_rng", |cp| cp.fault_rng = None),
            ("integrity_rng", |cp| cp.integrity_rng = cp.fault_rng),
            ("carts", |cp| cp.carts.matings.truncate(7)),
            ("carts", |cp| cp.carts.wear_written = Some(Vec::new())),
            ("tracks[0]", |cp| {
                let undock = cp
                    .queue
                    .iter_mut()
                    .find(|e| matches!(e.2, Ev::UndockDone { .. }));
                undock.unwrap().0 += 0.5;
            }),
            ("carts.locations[0]", |cp| {
                cp.carts.locations[0] = CartLocation::Docked(9)
            }),
            ("carts.locations[0]", |cp| {
                cp.carts.locations[0] = CartLocation::Moving { from: 0, to: 9 }
            }),
            ("carts.movements[0]", |cp| {
                let m = cp.carts.movements.iter().find_map(|&m| m).unwrap();
                cp.carts.movements[0] = Some(ActiveMovement { from: 9, ..m });
            }),
            ("carts.movements[0]", |cp| {
                let m = cp.carts.movements.iter().find_map(|&m| m).unwrap();
                cp.carts.movements[0] = Some(ActiveMovement { to: 9, ..m });
            }),
            ("carts.movements[0]", |cp| {
                let m = cp.carts.movements.iter().find_map(|&m| m).unwrap();
                cp.carts.movements[0] = Some(ActiveMovement { to: m.from, ..m });
            }),
            ("carts.verify[0]", |cp| cp.carts.verify[0] = verify_at(9)),
            ("redelivery_queue[0].endpoint", |cp| {
                let r = Redelivery {
                    endpoint: 0,
                    payload: Bytes::ZERO,
                    attempt: 2,
                };
                cp.redelivery_queue.insert(0, r);
            }),
            ("pending[1].cart", |cp| {
                cp.pending[1].cart = cp.pending[0].cart
            }),
            ("pending[0].cart", |cp| {
                let m = cp.carts.movements.iter().find_map(|&m| m).unwrap();
                cp.carts.movements[cp.pending[0].cart] = Some(m);
            }),
            ("queue[0].cart", |cp| {
                cp.queue[0].2 = Ev::Arrived { cart: 8 }
            }),
            ("queue[1]", |cp| {
                let event = *cp.queue.iter().find(|e| e.2 != Ev::TryLaunch).unwrap();
                cp.queue.splice(0..0, [event, event]);
            }),
            ("queue[0]", |cp| {
                cp.carts.movements[0] = None;
                cp.queue[0].2 = Ev::UndockDone { cart: 0 };
            }),
            ("queue[0]", |cp| {
                cp.carts.movements[0] = None;
                cp.queue[0].2 = Ev::Arrived { cart: 0 };
            }),
            ("queue[0]", |cp| {
                cp.carts.movements[0] = None;
                cp.queue[0].2 = Ev::DockDone { cart: 0 };
            }),
            ("queue[0]", |cp| {
                cp.carts.verify[0] = None;
                cp.queue[0].2 = Ev::VerifyDone { cart: 0 };
            }),
            ("queue[0]", |cp| {
                cp.carts.locations[0] = CartLocation::Moving { from: 0, to: 1 };
                cp.queue[0].2 = Ev::ProcessingDone { cart: 0 };
            }),
            ("queue[0]", |cp| {
                cp.carts.locations[0] = CartLocation::Docked(0);
                cp.queue[0].2 = Ev::ProcessingDone { cart: 0 };
            }),
            ("carts.verify[0]", |cp| cp.carts.verify[0] = verify_at(1)),
            ("tracks[0]", |cp| {
                let m = cp.carts.movements.iter_mut().flatten().nth(1).unwrap();
                (m.from, m.to) = (m.to, m.from);
            }),
            ("tracks[0]", |cp| {
                for m in cp.carts.movements.iter_mut().flatten() {
                    m.stalled = true;
                }
            }),
        ];
        for (field, mutate) in mutations {
            let mut cp = captured.clone();
            mutate(&mut cp);
            // Through JSON, as a corrupt file on disk would arrive.
            let cp = Checkpoint::from_json(&cp.to_json()).expect("well-formed");
            match DhlSystem::resume(cfg.clone(), &cp) {
                Err(SimError::InvalidCheckpointState { field: named, .. }) => {
                    assert_eq!(named, field);
                }
                other => panic!("{field}: expected InvalidCheckpointState, got {other:?}"),
            }
        }
        // A dual-track configuration refuses a single track.
        let dual = SimConfig {
            dual_track: true,
            ..cfg
        };
        let mut sys = DhlSystem::new(dual.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let mut cp = sys.checkpoint();
        cp.tracks.pop();
        let err = DhlSystem::resume(dual, &cp).expect_err("one track for two");
        assert!(err.to_string().contains("`tracks`"), "{err}");
    }

    #[test]
    fn resume_refuses_counters_that_cannot_count_on() {
        // At `u64::MAX` the counters overflowed: a panic in a debug build, a
        // silent wrap in a release build. The other edits break the
        // engine's numbering.
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(30.0)).expect("run");
        let cp = sys.checkpoint();
        let text = cp.to_json();
        let (time, seq, _) = cp.queue[0];
        let (max, next) = (u64::MAX, cp.next_seq);
        let field = |name: &str, value: u64| format!("\"{name}\":{value}");
        let edits = [
            (
                "queue[0].seq",
                format!("[{time},{seq},"),
                format!("[{time},{max},"),
            ),
            (
                "queue[0].seq",
                format!("[{time},{seq},"),
                format!("[{time},{next},"),
            ),
            ("next_seq", field("next_seq", next), field("next_seq", max)),
            (
                "events_processed",
                field("events_processed", cp.events_processed),
                field("events_processed", max),
            ),
            (
                "events_at_mission_start",
                field("events_at_mission_start", cp.events_at_mission_start),
                field("events_at_mission_start", cp.events_processed + 1),
            ),
        ];
        for (name, from, to) in edits {
            assert_eq!(text.matches(&from).count(), 1, "{from} occurs once");
            let edited = Checkpoint::from_json(&text.replace(&from, &to)).expect("well-formed");
            match DhlSystem::resume(cfg.clone(), &edited) {
                Err(SimError::InvalidCheckpointState { field, .. }) => assert_eq!(field, name),
                other => panic!("{to}: expected InvalidCheckpointState, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_resumed_system_captures_what_the_original_did() {
        let cfg = faulty_config();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.enable_trace(256);
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(100.0)).expect("run");
        let cp = sys.checkpoint();
        assert_eq!(
            (cp.time(), cp.fingerprint()),
            (sys.now(), config_fingerprint(&cfg))
        );
        assert!(cp.events_processed() > 0);
        assert_eq!(
            sys.checkpoint(),
            cp,
            "a second capture reads the cached fingerprint"
        );
        let resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        assert_eq!(resumed.checkpoint(), cp);
        let mismatched = SimConfig {
            dock_time: sys.config().dock_time + Seconds::new(1.0),
            ..faulty_config()
        };
        match DhlSystem::resume(mismatched, &resumed.checkpoint()) {
            Err(SimError::CheckpointMismatch { expected, actual }) => {
                assert_eq!(expected, cp.fingerprint());
                assert_ne!(expected, actual);
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
    }

    fn m2_connector_config() -> SimConfig {
        let mut cfg = faulty_config();
        if let Some(conn) = cfg
            .faults
            .as_mut()
            .and_then(|f| f.docking_connector.as_mut())
        {
            conn.kind = ConnectorKind::M2;
        }
        cfg
    }

    #[test]
    fn resume_rejects_connector_wear_beyond_the_rating_promptly() {
        let cfg = m2_connector_config();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(100.0)).expect("run");
        let mut cp = sys.checkpoint();
        cp.carts.connector_cycles.as_mut().unwrap()[3] = u32::MAX;
        let cp = Checkpoint::from_json(&cp.to_json()).expect("well-formed");
        let start = std::time::Instant::now();
        match DhlSystem::resume(cfg, &cp) {
            Err(SimError::ConnectorCyclesExceedRating {
                cart,
                cycles,
                rated,
            }) => {
                assert_eq!((cart, cycles, rated), (3, u32::MAX, 250));
            }
            other => panic!("expected ConnectorCyclesExceedRating, got {other:?}"),
        }
        // Rebuilding the connector by replaying 4·10⁹ matings would take
        // seconds even in a release build.
        assert!(start.elapsed().as_secs_f64() < 1.0);
    }

    #[test]
    fn connector_worn_to_exactly_its_rating_resumes() {
        let cfg = m2_connector_config();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(100.0)).expect("run");
        let mut cp = sys.checkpoint();
        cp.carts.connector_cycles.as_mut().unwrap()[3] = ConnectorKind::M2.rated_cycles();
        let resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        assert_eq!(resumed.checkpoint(), cp);
    }
}
