//! The DHL management-software layer (§III-D).
//!
//! "Adopting a DHL in a data centre also relies on management software to
//! coordinate SSDs' movement. Software controls access through an API that
//! is accessed through the standard network. It then schedules the shuttling
//! of the carts between the library and the endpoints if the state of the
//! system permits such an operation."
//!
//! Four concerns, four modules:
//!
//! - [`placement`]: which carts hold which dataset shards (the data map the
//!   §III-D API consults on **Open**);
//! - [`scheduler`]: ordering concurrent transfer requests onto the shared
//!   track and finite docking stations — "the fact that a cart can only be
//!   in one place at a time needs to be considered";
//! - [`availability`]: tracking that "data stored on a cart is inaccessible
//!   during transit";
//! - [`admission`]: overload robustness for open-loop serving — bounded
//!   admission queues, deadline-aware rejection, dock-saturation
//!   backpressure, and per-tenant retry budgets with deterministic
//!   exponential backoff.
//!
//! A fifth module backs the serving hot path: [`service_queue`], the
//! indexed, arena-backed pending structure the scheduler serves from.
//!
//! # Example
//!
//! ```rust
//! use dhl_sched::placement::Placement;
//! use dhl_sched::scheduler::{Priority, Scheduler, SchedulerError, TransferRequest};
//! use dhl_sim::SimConfig;
//! use dhl_storage::datasets;
//! use dhl_units::Seconds;
//!
//! # fn main() -> Result<(), SchedulerError> {
//! let mut placement = Placement::new(dhl_units::Bytes::from_terabytes(256.0));
//! let laion = placement.store(datasets::laion_5b());
//!
//! let mut sched = Scheduler::new(SimConfig::paper_default(), placement)?;
//! sched.submit(TransferRequest::new(laion, 1, Priority::Normal, Seconds::ZERO));
//! let outcome = sched.try_run()?;
//! assert_eq!(outcome.completed.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod availability;
pub(crate) mod metrics;
pub mod placement;
mod recycle;
pub mod scheduler;
pub mod service_queue;

pub use admission::{
    retry_backoff, AdmissionReport, AdmissionSpec, OverloadPolicy, RetryBudgetSpec, TenantId,
    TenantSlo,
};
pub use availability::{AvailabilityTracker, DataState};
pub use placement::{CartContents, DatasetId, ParityPlan, Placement};
pub use scheduler::{
    DockRecoveryAwareness, FaultAwareness, IntegrityAwareness, Policy, Priority, RequestId,
    RequestOutcome, ScheduleOutcome, Scheduler, SchedulerError, TransferRequest,
};
pub use service_queue::{DockBank, ServiceEntry, ServiceQueue};
