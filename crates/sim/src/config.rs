//! Simulation configuration (Table V parameters + system layout).

use dhl_physics::{
    ActiveStabilisation, BrakingSystem, CartMassModel, LevitationModel, LinearInductionMotor,
    PhysicsError, TimeModel, VacuumTube,
};
use dhl_storage::connectors::ConnectorKind;
use dhl_storage::failure::{FailureModel, RaidConfig};
use dhl_storage::integrity::CorruptionModel;
use dhl_storage::wear::EnduranceModel;
use dhl_units::{Bytes, Kilograms, Metres, MetresPerSecond, Seconds, Watts};

/// Stochastic SSD-failure injection for the system simulator (§III-D:
/// "if an SSD fails in-flight, the endpoint's DHL API will report the
/// error, and RAID and backups can ameliorate the issue").
#[derive(Clone, PartialEq, Debug)]
pub struct ReliabilitySpec {
    /// Per-SSD failure model.
    pub failure: FailureModel,
    /// RAID layout across each cart's SSDs.
    pub raid: RaidConfig,
    /// SSDs per cart.
    pub ssds_per_cart: u32,
    /// RNG seed (simulations stay deterministic).
    pub seed: u64,
}

impl ReliabilitySpec {
    /// Typical enterprise drives (1 % AFR) under 28+4 RAID on a 32-SSD cart.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            failure: FailureModel::typical_enterprise_ssd(),
            raid: RaidConfig::new(28, 4).expect("valid layout"),
            ssds_per_cart: 32,
            seed: 0xD41,
        }
    }
}

/// End-to-end payload integrity: verify-on-dock, RAID reconstruction, and
/// bounded re-shipment.
///
/// Setting `SimConfig::integrity` to `Some` replaces arrival==delivery with
/// the full delivery state machine: every rack arrival is scrubbed shard
/// by shard (consuming dock read time and energy; see
/// [`IntegritySpec::scrub`]), corrupted shards are rebuilt from `raid`
/// parity when [`RaidConfig::tolerates`] holds, and over-tolerance
/// corruption triggers a re-shipment through the PR-1 retry machinery
/// (bounded by `FaultSpec::max_delivery_attempts` when faults are on, one
/// attempt otherwise).
#[derive(Clone, PartialEq, Debug)]
pub struct IntegritySpec {
    /// Silent-corruption hazard model (wear, connector, and thermal terms).
    pub corruption: CorruptionModel,
    /// Shards per fully loaded cart; checksum granularity. The default maps
    /// one shard per SSD so RAID tolerance arithmetic lines up 1:1.
    pub shards_per_cart: u32,
    /// Dock-side scrub bandwidth for verify-on-dock, bytes per second.
    pub verify_bandwidth_bytes_per_second: f64,
    /// Dock-side power drawn while scrubbing (charged to transfer energy).
    pub verify_power: Watts,
    /// Parity-rebuild read bandwidth, bytes per second (reconstruction
    /// reads the surviving stripe, so it is slower than a sequential scrub).
    pub reconstruct_bandwidth_bytes_per_second: f64,
    /// RAID layout used to reconstruct corrupted shards.
    pub raid: RaidConfig,
    /// NAND endurance rating: restaging wear scales the bit-rot hazard.
    pub endurance: EnduranceModel,
    /// Connector family assumed for mating-error wear when connector fault
    /// injection is off (when it is on, the fault-tracked connector's actual
    /// cycle count is used instead).
    pub connector: ConnectorKind,
    /// RNG seed for corruption sampling (independent of the reliability and
    /// fault streams, so enabling integrity never perturbs them).
    pub seed: u64,
}

impl IntegritySpec {
    /// Verify-on-dock over a PCIe-class dock scrub (64 GB/s) at 320 W, one
    /// shard per SSD on the default 32-drive cart, 28+4 RAID rebuilds at a
    /// quarter of scrub speed, and the nominal corruption hazard.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            corruption: CorruptionModel::paper_default(),
            shards_per_cart: 32,
            verify_bandwidth_bytes_per_second: 64e9,
            verify_power: Watts::new(320.0),
            reconstruct_bandwidth_bytes_per_second: 16e9,
            raid: RaidConfig::new(28, 4).expect("valid layout"),
            endurance: EnduranceModel::rocket_4_plus_8tb(),
            connector: ConnectorKind::UsbC,
            seed: 0x1D7,
        }
    }

    /// Verification with corruption injection switched off: scrubs still
    /// cost time and energy, but every payload verifies clean.
    #[must_use]
    pub fn verification_only() -> Self {
        Self {
            corruption: CorruptionModel::disabled(),
            ..Self::typical()
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let bad = |msg: String| Err(ConfigError::BadIntegrity(msg));
        if self.shards_per_cart == 0 {
            return bad("shards_per_cart must be at least 1".into());
        }
        for (name, bw) in [
            ("verify bandwidth", self.verify_bandwidth_bytes_per_second),
            (
                "reconstruction bandwidth",
                self.reconstruct_bandwidth_bytes_per_second,
            ),
        ] {
            if !bw.is_finite() || bw <= 0.0 {
                return bad(format!("{name} must be positive and finite, got {bw}"));
            }
        }
        if !self.verify_power.value().is_finite() || self.verify_power.value() < 0.0 {
            return bad(format!(
                "verify power must be non-negative and finite, got {}",
                self.verify_power.value()
            ));
        }
        if let Err(msg) = self.corruption.validate() {
            return bad(format!("corruption model: {msg}"));
        }
        Ok(())
    }
}

/// A cart mechanical fault: the cart stalls in-tube and blocks its track
/// direction until a repair crew frees it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CartStallSpec {
    /// Probability that any single movement stalls mid-tube.
    pub probability_per_movement: f64,
    /// How long the cart blocks the track before it can continue.
    pub repair_time: Seconds,
}

/// A docking-connector fault, driven by the `dhl-storage::connectors` wear
/// model: every dock mates the cart's connector; once its rated cycles are
/// spent, docking takes an extra replacement window.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ConnectorFaultSpec {
    /// Connector family fitted to every cart.
    pub kind: ConnectorKind,
    /// Time to swap a worn connector at the docking station.
    pub replacement_time: Seconds,
}

/// A tube-section repressurisation event: the track stays usable, but air
/// density (and therefore drag) rises, so carts are speed-limited until the
/// pumps recover the rough vacuum.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RepressurisationSpec {
    /// Probability that any single movement triggers a leak event.
    pub probability_per_movement: f64,
    /// How long the section stays at degraded pressure.
    pub duration: Seconds,
    /// Pressure during the event, in millibar (nominal is 1 mbar).
    pub degraded_pressure_millibar: f64,
}

impl RepressurisationSpec {
    /// The speed limit while degraded: the fastest cruise whose aerodynamic
    /// drag at the degraded pressure does not exceed the drag budget at
    /// nominal pressure and full speed (`F = ½ρv²C_dA` via
    /// [`VacuumTube::aero_drag`], so `v_deg = v_max·√(ρ_nom/ρ_deg)`).
    #[must_use]
    pub fn degraded_speed(
        &self,
        max_speed: MetresPerSecond,
        track_length: Metres,
    ) -> MetresPerSecond {
        let Ok(nominal) = VacuumTube::paper_default(track_length) else {
            return max_speed;
        };
        let Ok(degraded) = VacuumTube::new(
            self.degraded_pressure_millibar,
            VacuumTube::PAPER_FRONTAL_AREA,
            VacuumTube::PAPER_DRAG_COEFFICIENT,
            track_length,
            VacuumTube::PAPER_PUMP_POWER_PER_METRE,
        ) else {
            return max_speed;
        };
        let budget = nominal.aero_drag(max_speed).value();
        let at_max = degraded.aero_drag(max_speed).value();
        if at_max <= budget {
            return max_speed;
        }
        max_speed * (budget / at_max).sqrt()
    }
}

/// How a crashed dock-station controller gets back into service. Each
/// policy charges a different recovery latency (and dock-side energy) to
/// the docking that triggered the crash.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DockRecoveryPolicy {
    /// Replay the controller's write-ahead journal: a fixed, payload-size
    /// independent latency ([`DockControllerFaultSpec::journal_replay_time`]).
    JournalReplay,
    /// Rebuild controller state by re-scanning the docked cart's payload:
    /// latency = payload ÷
    /// [`DockControllerFaultSpec::rebuild_scan_bandwidth_bytes_per_second`].
    RebuildFromScan,
}

/// A crash-prone dock-station controller (the rack-side embedded system
/// that sequences docking, §III-B.5). A crash strikes while a loaded cart
/// is docking at a rack; the docking stalls for the policy's recovery
/// latency, the recovery draws [`DockControllerFaultSpec::recovery_power`],
/// and the downtime is charged against the rack's availability.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DockControllerFaultSpec {
    /// Probability that any single loaded rack docking crashes the
    /// controller.
    pub crash_probability_per_docking: f64,
    /// How the controller recovers.
    pub recovery: DockRecoveryPolicy,
    /// Fixed journal-replay latency ([`DockRecoveryPolicy::JournalReplay`]).
    pub journal_replay_time: Seconds,
    /// Payload re-scan bandwidth in bytes per second
    /// ([`DockRecoveryPolicy::RebuildFromScan`]).
    pub rebuild_scan_bandwidth_bytes_per_second: f64,
    /// Dock-side power drawn for the duration of the recovery.
    pub recovery_power: Watts,
}

impl DockControllerFaultSpec {
    /// A controller that crashes on 0.1 % of loaded dockings and recovers
    /// by replaying its journal in 30 s at 150 W.
    #[must_use]
    pub fn journal_replay() -> Self {
        Self {
            crash_probability_per_docking: 1e-3,
            recovery: DockRecoveryPolicy::JournalReplay,
            journal_replay_time: Seconds::new(30.0),
            rebuild_scan_bandwidth_bytes_per_second: 8e9,
            recovery_power: Watts::new(150.0),
        }
    }

    /// The same crash hazard recovered by re-scanning the docked payload at
    /// 8 GB/s — cheap for small payloads, far slower than journal replay for
    /// a full 256 TB cart.
    #[must_use]
    pub fn rebuild_from_scan() -> Self {
        Self {
            recovery: DockRecoveryPolicy::RebuildFromScan,
            ..Self::journal_replay()
        }
    }

    /// The recovery latency one crash charges while a cart carrying
    /// `payload` is docked: journal replay is payload-independent,
    /// rebuild-from-scan re-reads the whole docked payload.
    #[must_use]
    pub fn recovery_time(&self, payload: Bytes) -> Seconds {
        match self.recovery {
            DockRecoveryPolicy::JournalReplay => self.journal_replay_time,
            DockRecoveryPolicy::RebuildFromScan => {
                Seconds::new(payload.as_f64() / self.rebuild_scan_bandwidth_bytes_per_second)
            }
        }
    }
}

/// Fault injection and recovery policy for the system simulator.
///
/// Setting `SimConfig::faults` to `Some` switches the simulator from the
/// legacy "count losses and carry on" accounting to the full recovery state
/// machine: RAID-uncovered deliveries are re-dispatched from the library
/// (bounded by [`FaultSpec::max_delivery_attempts`]), stalled carts block
/// and later release their track, worn connectors cost replacement time,
/// and repressurised sections speed-limit traffic.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultSpec {
    /// Cart mechanical stalls (None disables the fault class).
    pub cart_stall: Option<CartStallSpec>,
    /// Docking-connector wear faults (None disables the fault class).
    pub docking_connector: Option<ConnectorFaultSpec>,
    /// Tube repressurisation events (None disables the fault class).
    pub repressurisation: Option<RepressurisationSpec>,
    /// Crash-prone rack dock-station controllers (None disables the fault
    /// class).
    pub dock_controller: Option<DockControllerFaultSpec>,
    /// Delivery attempts per shard before the run aborts with
    /// [`crate::SimError::DeliveryAbandoned`]. Must be at least 1.
    pub max_delivery_attempts: u32,
}

impl FaultSpec {
    /// Recovery machinery only: redeliver RAID-uncovered shards (up to 3
    /// attempts) with every physical fault class disabled.
    #[must_use]
    pub fn recovery_only() -> Self {
        Self {
            cart_stall: None,
            docking_connector: None,
            repressurisation: None,
            dock_controller: None,
            max_delivery_attempts: 3,
        }
    }

    /// A pessimistic all-faults-on profile for stress runs: 0.1 % stall and
    /// leak rates, USB-C connectors, 60 s repairs.
    #[must_use]
    pub fn stress() -> Self {
        Self {
            cart_stall: Some(CartStallSpec {
                probability_per_movement: 1e-3,
                repair_time: Seconds::new(60.0),
            }),
            docking_connector: Some(ConnectorFaultSpec {
                kind: ConnectorKind::UsbC,
                replacement_time: Seconds::new(60.0),
            }),
            repressurisation: Some(RepressurisationSpec {
                probability_per_movement: 1e-3,
                duration: Seconds::new(120.0),
                degraded_pressure_millibar: 100.0,
            }),
            dock_controller: Some(DockControllerFaultSpec::journal_replay()),
            max_delivery_attempts: 3,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let bad = |msg: String| Err(ConfigError::BadFaults(msg));
        if self.max_delivery_attempts == 0 {
            return bad("max_delivery_attempts must be at least 1".into());
        }
        if let Some(stall) = &self.cart_stall {
            if !(0.0..=1.0).contains(&stall.probability_per_movement) {
                return bad(format!(
                    "cart stall probability {} outside [0, 1]",
                    stall.probability_per_movement
                ));
            }
            if stall.repair_time.seconds() < 0.0 || !stall.repair_time.is_finite() {
                return bad("cart stall repair time must be non-negative and finite".into());
            }
        }
        if let Some(conn) = &self.docking_connector {
            if conn.replacement_time.seconds() < 0.0 || !conn.replacement_time.is_finite() {
                return bad("connector replacement time must be non-negative and finite".into());
            }
        }
        if let Some(dock) = &self.dock_controller {
            if !(0.0..=1.0).contains(&dock.crash_probability_per_docking) {
                return bad(format!(
                    "dock controller crash probability {} outside [0, 1]",
                    dock.crash_probability_per_docking
                ));
            }
            if dock.journal_replay_time.seconds() < 0.0 || !dock.journal_replay_time.is_finite() {
                return bad("journal replay time must be non-negative and finite".into());
            }
            let bw = dock.rebuild_scan_bandwidth_bytes_per_second;
            if !bw.is_finite() || bw <= 0.0 {
                return bad(format!(
                    "rebuild scan bandwidth must be positive and finite, got {bw}"
                ));
            }
            let p = dock.recovery_power.value();
            if !p.is_finite() || p < 0.0 {
                return bad(format!(
                    "dock recovery power must be non-negative and finite, got {p}"
                ));
            }
        }
        if let Some(rep) = &self.repressurisation {
            if !(0.0..=1.0).contains(&rep.probability_per_movement) {
                return bad(format!(
                    "repressurisation probability {} outside [0, 1]",
                    rep.probability_per_movement
                ));
            }
            if rep.duration.seconds() < 0.0 || !rep.duration.is_finite() {
                return bad("repressurisation duration must be non-negative and finite".into());
            }
            if rep.degraded_pressure_millibar <= 0.0 || rep.degraded_pressure_millibar.is_nan() {
                return bad(format!(
                    "degraded pressure {} mbar must be positive",
                    rep.degraded_pressure_millibar
                ));
            }
        }
        Ok(())
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::recovery_only()
    }
}

/// What an endpoint is for.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EndpointKind {
    /// The cart library: cold storage at one end of the track (§III-B.6).
    Library,
    /// A rack endpoint with server-connected docking stations (§III-B.5).
    Rack,
}

/// One endpoint along the track.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EndpointSpec {
    /// Position along the track, measured from the library.
    pub position: Metres,
    /// Number of docking stations (concurrent carts it can hold).
    pub docks: u32,
    /// Role of the endpoint.
    pub kind: EndpointKind,
}

/// Error validating a [`SimConfig`].
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// Fewer than two endpoints, or the first is not a library.
    BadEndpoints(String),
    /// Endpoint positions must be strictly increasing from the library at 0.
    NonMonotonicPositions,
    /// No carts configured, or the library cannot hold the fleet.
    BadFleet(String),
    /// An embedded physics parameter was invalid.
    Physics(PhysicsError),
    /// An invalid fault-injection parameter.
    BadFaults(String),
    /// An invalid integrity-pipeline parameter.
    BadIntegrity(String),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadEndpoints(msg)
            | Self::BadFleet(msg)
            | Self::BadFaults(msg)
            | Self::BadIntegrity(msg) => f.write_str(msg),
            Self::NonMonotonicPositions => {
                f.write_str("endpoint positions must be strictly increasing")
            }
            Self::Physics(e) => write!(f, "invalid physics parameter: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Physics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PhysicsError> for ConfigError {
    fn from(e: PhysicsError) -> Self {
        Self::Physics(e)
    }
}

/// How long a cart spends docked at a rack before it may return.
#[derive(Copy, Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ProcessingModel {
    /// Released immediately after docking — the pure-transfer accounting of
    /// Table VI.
    Instant,
    /// The rack reads the full cart through its PCIe docking link first;
    /// duration = capacity ÷ bandwidth (bytes/s).
    PcieRead {
        /// Effective docked read bandwidth in bytes per second.
        bandwidth_bytes_per_second: f64,
    },
    /// A fixed dwell time.
    Fixed(Seconds),
}

/// Full configuration of a DHL system simulation.
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Endpoints in track order; `endpoints[0]` must be the library at 0 m.
    pub endpoints: Vec<EndpointSpec>,
    /// Maximum cruise speed (Table V: 100/**200**/300 m/s).
    pub max_speed: dhl_units::MetresPerSecond,
    /// The LIM (efficiency + acceleration, Table V: 75 %, 1000 m/s²).
    pub lim: LinearInductionMotor,
    /// Trip-time accounting (default: paper-matching single ramp).
    pub time_model: TimeModel,
    /// Time to dock (Table V pessimistic: 3 s).
    pub dock_time: Seconds,
    /// Time to undock (Table V pessimistic: 3 s).
    pub undock_time: Seconds,
    /// Data capacity of each cart (Table V: 128/**256**/512 TB).
    pub cart_capacity: Bytes,
    /// Mass of each loaded cart (Table V: 161/**282**/524 g).
    pub cart_mass: Kilograms,
    /// Fleet size (carts stored in the library).
    pub num_carts: u32,
    /// Dual unidirectional tracks instead of one bidirectional track (§VI).
    pub dual_track: bool,
    /// Braking system at the receiving end (§VI alternatives).
    pub braking: BrakingSystem,
    /// Levitation/drag model.
    pub levitation: LevitationModel,
    /// Active-stabilisation power model.
    pub stabilisation: ActiveStabilisation,
    /// Rack-side dwell model.
    pub processing: ProcessingModel,
    /// Optional in-flight SSD failure injection.
    pub reliability: Option<ReliabilitySpec>,
    /// Optional fault injection + recovery policy. `None` keeps the legacy
    /// behaviour: losses are counted but shards are never redelivered.
    pub faults: Option<FaultSpec>,
    /// Optional end-to-end integrity pipeline. `None` keeps the legacy
    /// behaviour: arrival counts as delivery with no verification.
    pub integrity: Option<IntegritySpec>,
}

impl SimConfig {
    /// The paper's default system: library at 0 m (fleet-sized docks), one
    /// rack at 500 m with 4 docking stations, 200 m/s, 256 TB / 282 g carts,
    /// 8-cart fleet, single track, LIM braking, instant processing.
    #[must_use]
    pub fn paper_default() -> Self {
        let num_carts = 8;
        Self {
            endpoints: vec![
                EndpointSpec {
                    position: Metres::ZERO,
                    docks: num_carts,
                    kind: EndpointKind::Library,
                },
                EndpointSpec {
                    position: Metres::new(500.0),
                    docks: 4,
                    kind: EndpointKind::Rack,
                },
            ],
            max_speed: dhl_units::MetresPerSecond::new(200.0),
            lim: LinearInductionMotor::paper_default(),
            time_model: TimeModel::PaperSingleRamp,
            dock_time: Seconds::new(3.0),
            undock_time: Seconds::new(3.0),
            cart_capacity: Bytes::from_terabytes(256.0),
            cart_mass: CartMassModel::paper_default().budget(32).total,
            num_carts,
            dual_track: false,
            braking: BrakingSystem::paper_default(),
            levitation: LevitationModel::paper_default(),
            stabilisation: ActiveStabilisation::paper_default(),
            processing: ProcessingModel::Instant,
            reliability: None,
            faults: None,
            integrity: None,
        }
    }

    /// A strictly serial configuration — one cart, one rack dock — whose
    /// bulk-transfer behaviour matches the paper's analytical "doubled
    /// trips" accounting exactly.
    #[must_use]
    pub fn paper_serial() -> Self {
        let mut cfg = Self::paper_default();
        cfg.num_carts = 1;
        cfg.endpoints[0].docks = 1;
        cfg.endpoints[1].docks = 1;
        cfg
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] describing the first violated constraint: endpoint
    /// layout, fleet sizing, or embedded physics parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.endpoints.len() < 2 {
            return Err(ConfigError::BadEndpoints(
                "a DHL needs at least a library and one rack endpoint".into(),
            ));
        }
        if self.endpoints[0].kind != EndpointKind::Library
            || self.endpoints[0].position.value() != 0.0
        {
            return Err(ConfigError::BadEndpoints(
                "endpoint 0 must be the library at position 0".into(),
            ));
        }
        for pair in self.endpoints.windows(2) {
            PhysicsError::check_finite(&[("endpoint position", pair[1].position.value())], &[])?;
            if pair[1].position.value() <= pair[0].position.value() {
                return Err(ConfigError::NonMonotonicPositions);
            }
        }
        if self.num_carts == 0 {
            return Err(ConfigError::BadFleet(
                "fleet must contain at least one cart".into(),
            ));
        }
        if self.endpoints[0].docks < self.num_carts {
            return Err(ConfigError::BadFleet(format!(
                "library has {} docks but the fleet holds {} carts",
                self.endpoints[0].docks, self.num_carts
            )));
        }
        for ep in &self.endpoints {
            if ep.docks == 0 {
                return Err(ConfigError::BadEndpoints(
                    "every endpoint needs at least one docking station".into(),
                ));
            }
        }
        PhysicsError::check_finite(
            &[
                ("max speed", self.max_speed.value()),
                ("cart mass", self.cart_mass.value()),
                ("cart capacity", self.cart_capacity.as_f64()),
            ],
            &[
                ("dock time", self.dock_time.seconds()),
                ("undock time", self.undock_time.seconds()),
            ],
        )?;
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        if let Some(integrity) = &self.integrity {
            integrity.validate()?;
        }
        Ok(())
    }

    /// Track length: the position of the farthest endpoint.
    #[must_use]
    pub fn track_length(&self) -> Metres {
        self.endpoints
            .last()
            .map(|e| e.position)
            .unwrap_or(Metres::ZERO)
    }

    /// The minimum launch headway between same-direction carts: successive
    /// arrivals must be spaced by at least the docking time so the previous
    /// cart has been lifted clear (§III-B.5).
    #[must_use]
    pub fn launch_headway(&self) -> Seconds {
        self.dock_time.max(self.undock_time)
    }

    /// Whether each headway is the undock time, and so ends at the same
    /// f64 sum the last launch's `UndockDone` was booked at.
    pub(crate) fn undock_ends_headway(&self) -> bool {
        self.undock_time >= self.dock_time
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        SimConfig::paper_default().validate().unwrap();
        SimConfig::paper_serial().validate().unwrap();
    }

    #[test]
    fn paper_default_matches_table_v() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.max_speed.value(), 200.0);
        assert_eq!(cfg.track_length().value(), 500.0);
        assert_eq!(cfg.cart_capacity.terabytes(), 256.0);
        assert!((cfg.cart_mass.grams() - 281.92).abs() < 0.01);
        assert_eq!(cfg.dock_time.seconds(), 3.0);
        assert_eq!(cfg.undock_time.seconds(), 3.0);
        assert_eq!(cfg.lim.efficiency(), 0.75);
    }

    #[test]
    fn rejects_missing_rack() {
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints.truncate(1);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadEndpoints(_))));
    }

    #[test]
    fn rejects_non_library_first_endpoint() {
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints[0].kind = EndpointKind::Rack;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_unordered_positions() {
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints.push(EndpointSpec {
            position: Metres::new(300.0),
            docks: 1,
            kind: EndpointKind::Rack,
        });
        assert_eq!(cfg.validate(), Err(ConfigError::NonMonotonicPositions));
    }

    #[test]
    fn rejects_undersized_library() {
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints[0].docks = 2; // fleet is 8
        assert!(matches!(cfg.validate(), Err(ConfigError::BadFleet(_))));
    }

    #[test]
    fn rejects_zero_carts_and_zero_docks() {
        let mut cfg = SimConfig::paper_default();
        cfg.num_carts = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints[1].docks = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_non_finite_or_out_of_range_physics() {
        type Set = fn(&mut SimConfig, f64);
        let fields: [(&str, Set); 5] = [
            ("max speed", |c, v| c.max_speed = MetresPerSecond::new(v)),
            ("cart mass", |c, v| c.cart_mass = Kilograms::new(v)),
            ("dock time", |c, v| c.dock_time = Seconds::new(v)),
            ("undock time", |c, v| c.undock_time = Seconds::new(v)),
            ("endpoint position", |c, v| {
                c.endpoints[1].position = Metres::new(v)
            }),
        ];
        for (field, set) in fields {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                let mut cfg = SimConfig::paper_default();
                set(&mut cfg, value);
                match cfg.validate() {
                    Err(ConfigError::Physics(e)) => {
                        assert!(e.to_string().starts_with(field), "{field} = {value}: {e}");
                    }
                    other => panic!("{field} = {value}: {other:?}"),
                }
            }
        }
        let mut cfg = SimConfig::paper_default();
        cfg.cart_capacity = Bytes::ZERO;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::Physics(PhysicsError::NonPositive {
                what: "cart capacity",
                value: 0.0
            }))
        );
    }

    #[test]
    fn headway_is_dock_time() {
        assert_eq!(SimConfig::paper_default().launch_headway().seconds(), 3.0);
    }

    #[test]
    fn error_display() {
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints[0].docks = 2;
        let msg = format!("{}", cfg.validate().unwrap_err());
        assert!(msg.contains("library has 2 docks"));
    }

    #[test]
    fn fault_spec_defaults_validate() {
        let mut cfg = SimConfig::paper_default();
        cfg.faults = Some(FaultSpec::recovery_only());
        cfg.validate().unwrap();
        cfg.faults = Some(FaultSpec::stress());
        cfg.validate().unwrap();
    }

    #[test]
    fn fault_spec_rejects_bad_parameters() {
        let set = |f: FaultSpec| {
            let mut cfg = SimConfig::paper_default();
            cfg.faults = Some(f);
            cfg.validate()
        };
        let mut f = FaultSpec::recovery_only();
        f.max_delivery_attempts = 0;
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.cart_stall.as_mut().unwrap().probability_per_movement = 1.5;
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.cart_stall.as_mut().unwrap().repair_time = Seconds::new(-1.0);
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.docking_connector.as_mut().unwrap().replacement_time = Seconds::new(f64::NAN);
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.repressurisation
            .as_mut()
            .unwrap()
            .probability_per_movement = -0.1;
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.repressurisation
            .as_mut()
            .unwrap()
            .degraded_pressure_millibar = 0.0;
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.dock_controller
            .as_mut()
            .unwrap()
            .crash_probability_per_docking = 1.5;
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.dock_controller.as_mut().unwrap().journal_replay_time = Seconds::new(-1.0);
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.dock_controller
            .as_mut()
            .unwrap()
            .rebuild_scan_bandwidth_bytes_per_second = 0.0;
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));

        let mut f = FaultSpec::stress();
        f.dock_controller.as_mut().unwrap().recovery_power = Watts::new(f64::NAN);
        assert!(matches!(set(f), Err(ConfigError::BadFaults(_))));
    }

    #[test]
    fn dock_controller_presets_differ_only_in_policy() {
        let j = DockControllerFaultSpec::journal_replay();
        let r = DockControllerFaultSpec::rebuild_from_scan();
        assert_eq!(j.recovery, DockRecoveryPolicy::JournalReplay);
        assert_eq!(r.recovery, DockRecoveryPolicy::RebuildFromScan);
        assert_eq!(
            j.crash_probability_per_docking,
            r.crash_probability_per_docking
        );
        assert_eq!(j.recovery_power, r.recovery_power);
    }

    #[test]
    fn integrity_spec_presets_validate() {
        let mut cfg = SimConfig::paper_default();
        cfg.integrity = Some(IntegritySpec::typical());
        cfg.validate().unwrap();
        cfg.integrity = Some(IntegritySpec::verification_only());
        cfg.validate().unwrap();
    }

    #[test]
    fn integrity_spec_rejects_bad_parameters() {
        let set = |i: IntegritySpec| {
            let mut cfg = SimConfig::paper_default();
            cfg.integrity = Some(i);
            cfg.validate()
        };
        let mut i = IntegritySpec::typical();
        i.shards_per_cart = 0;
        assert!(matches!(set(i), Err(ConfigError::BadIntegrity(_))));

        let mut i = IntegritySpec::typical();
        i.verify_bandwidth_bytes_per_second = 0.0;
        assert!(matches!(set(i), Err(ConfigError::BadIntegrity(_))));

        let mut i = IntegritySpec::typical();
        i.reconstruct_bandwidth_bytes_per_second = f64::NAN;
        assert!(matches!(set(i), Err(ConfigError::BadIntegrity(_))));

        let mut i = IntegritySpec::typical();
        i.verify_power = Watts::new(-1.0);
        assert!(matches!(set(i), Err(ConfigError::BadIntegrity(_))));

        let mut i = IntegritySpec::typical();
        i.corruption.mating_error_per_cycle = 2.0;
        let err = set(i).unwrap_err();
        assert!(format!("{err}").contains("corruption model"));
    }

    #[test]
    fn degraded_speed_caps_drag_at_nominal_budget() {
        let rep = RepressurisationSpec {
            probability_per_movement: 0.0,
            duration: Seconds::new(120.0),
            // 100× nominal pressure → 100× drag at equal speed → speed
            // limited to v_max/10.
            degraded_pressure_millibar: 100.0,
        };
        let v_max = MetresPerSecond::new(200.0);
        let v = rep.degraded_speed(v_max, Metres::new(500.0));
        assert!((v.value() - 20.0).abs() < 1e-9, "got {}", v.value());

        // Pressure below nominal never *raises* the limit above v_max.
        let better = RepressurisationSpec {
            degraded_pressure_millibar: 0.5,
            ..rep
        };
        assert_eq!(better.degraded_speed(v_max, Metres::new(500.0)), v_max);
    }
}
