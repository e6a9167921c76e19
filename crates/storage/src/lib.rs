//! Storage substrate for the DHL models.
//!
//! Implements the paper's storage-side building blocks:
//!
//! - [`devices`]: the Table II device catalog (3.5″ HDD, 3.5″ SSD, M.2 SSD)
//!   with mass/capacity/bandwidth and derived density metrics;
//! - [`cart`]: cart storage configurations (16/32/64 × 8 TB M.2) and the
//!   PCIe docking-station bandwidth model (§III-B.5);
//! - [`thermal`]: the §VI heat-sink model (10 W per active M.2);
//! - [`failure`]: SSD failure injection and RAID tolerance (§III-D);
//! - [`integrity`]: payload checksums, shard manifests, and silent
//!   corruption models driven by wear, connector cycles, and thermals;
//! - [`connectors`]: docking-connector endurance (§VI — M.2's hundreds of
//!   cycles vs USB-C's 10k–20k);
//! - [`datasets`]: the Table I / Table IV dataset and model catalog,
//!   including Meta's 29 PB DLRM training set used throughout the
//!   evaluation.
//!
//! # Example
//!
//! ```rust
//! use dhl_storage::cart::CartStorage;
//! use dhl_storage::datasets;
//!
//! let cart = CartStorage::paper_default(); // 32 × 8 TB M.2
//! assert_eq!(cart.capacity().terabytes(), 256.0);
//!
//! let dataset = datasets::meta_dlrm_29pb();
//! assert_eq!(dataset.size.div_ceil(cart.capacity()), 114); // trips
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cart;
pub mod connectors;
pub mod datasets;
pub mod devices;
pub mod failure;
pub mod growth;
pub mod integrity;
pub mod thermal;
pub mod wear;

pub use cart::{CartStorage, PcieGeneration, PcieLink};
pub use connectors::{ConnectorKind, DockingConnector};
pub use datasets::{Dataset, DatasetKind};
pub use devices::{FormFactor, StorageDevice};
pub use failure::{FailureModel, RaidConfig};
pub use growth::{FleetProjection, GrowthModel};
pub use integrity::{fnv1a_64, Checksum64, CorruptionModel, ShardChecksum, ShardManifest};
pub use thermal::ThermalModel;
pub use wear::{CartWear, EnduranceModel};
