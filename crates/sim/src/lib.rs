//! Discrete-event simulation of the full DHL system (§III).
//!
//! Four layers:
//!
//! - [`engine`]: a minimal deterministic event queue with a simulated clock;
//! - [`DhlSystem`]: the event-driven system simulator — cart fleet, library,
//!   docking stations, track contention (no-passing headway, bidirectional
//!   track draining, §VI dual-track option), movement energy from
//!   `dhl-physics`, and the §V-B bulk-transfer mission;
//! - [`replicas`]: seeded Monte-Carlo replicas run in index order and
//!   merged deterministically;
//! - [`api::DhlApi`]: the paper's four-command software API (§III-D —
//!   **Open/Close/Read/Write**) as a synchronous facade, with optional SSD
//!   failure injection and connector-wear tracking.
//!
//! The DES exists to validate (and stress) the analytical model in
//! `dhl-core`: in the strictly serial configuration its results coincide
//! with the paper's closed-form doubled-trip accounting, and with pipelining
//! enabled it quantifies how much the paper's conservative accounting leaves
//! on the table.
//!
//! # Example
//!
//! ```rust
//! use dhl_sim::{DhlSystem, SimConfig};
//! use dhl_units::Bytes;
//!
//! let mut sim = DhlSystem::new(SimConfig::paper_default()).unwrap();
//! let report = sim.run_bulk_transfer(Bytes::from_petabytes(29.0)).unwrap();
//! assert_eq!(report.deliveries, 114);
//! assert_eq!(report.delivered, Bytes::from_petabytes(29.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
mod arena;
pub mod arrivals;
mod backlog;
pub mod checkpoint;
mod codec;
pub mod config;
pub mod engine;
pub mod hazard;
pub(crate) mod metrics;
pub mod movement;
pub mod replicas;
pub mod report;
pub mod system;
pub mod trace;

pub use arrivals::{Arrival, ArrivalGenerator, ArrivalProcess, ArrivalSpec, ArrivalState};
pub use checkpoint::{config_fingerprint, Checkpoint, CheckpointError};
pub use config::{
    CartStallSpec, ConfigError, ConnectorFaultSpec, DockControllerFaultSpec, DockRecoveryPolicy,
    EndpointKind, EndpointSpec, FaultSpec, IntegritySpec, ProcessingModel, ReliabilitySpec,
    RepressurisationSpec, SimConfig,
};
pub use hazard::{HazardStreams, Scrub, Verdict};
pub use movement::MovementCost;
pub use replicas::{run_replicas, CrashInjection, RecoveryOptions, ReplicaReport, ReplicaStats};
pub use report::{BulkTransferReport, IntegrityReport, ReliabilityReport};
pub use system::{CartId, CartLocation, DhlSystem, Direction, EndpointId, SimError};
pub use trace::{Trace, TraceEvent, TraceEventKind, TraceSink};
