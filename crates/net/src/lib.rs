//! Optical data-centre network substrate — the baseline DHL competes with.
//!
//! Implements §II-B/§II-C of the paper:
//!
//! - [`components`]: the Table III power catalog (400 Gb/s transceivers,
//!   NICs, and switches with per-port passive/active power);
//! - [`route`]: the five evaluated end-to-end routes (A0, A1, A2, B, C) with
//!   their power, and energy/time for bulk transfers (Fig. 2's right table);
//! - [`topology`]: a three-level fat-tree model of Fig. 2's data centre that
//!   *derives* those route compositions from node placement;
//! - [`transfer`]: parallel-link aggregation — time/energy of a transfer
//!   striped over `n` links, and the largest `n` affordable under a power
//!   budget (used by the iso-power experiments).
//!
//! # Example
//!
//! ```rust
//! use dhl_net::route::Route;
//! use dhl_units::Bytes;
//!
//! let dataset = Bytes::from_petabytes(29.0);
//! for (route, mj) in [
//!     (Route::a0(), 13.92), (Route::a1(), 22.97), (Route::a2(), 50.05),
//!     (Route::b(), 174.75), (Route::c(), 299.45),
//! ] {
//!     let e = route.transfer_energy(dataset);
//!     assert!((e.megajoules() - mj).abs() < 0.005, "{}: {}", route.name(), e.megajoules());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod latency;
pub mod route;
pub mod topology;
pub mod transfer;

pub use components::{Nic, Switch, Transceiver};
pub use latency::LatencyModel;
pub use route::{Route, RouteId};
pub use topology::{FatTree, NodeAddress};
pub use transfer::ParallelLinks;
