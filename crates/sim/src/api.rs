//! The four-command DHL software API (§III-D).
//!
//! "The API provides at least these four commands: **Open**, **Close**,
//! **Read**, **Write**." This module is the synchronous, single-client
//! facade a rack's storage-management layer would call; each command
//! advances the facade's clock by the simulated duration and accounts the
//! energy. (Concurrent multi-cart scheduling lives in
//! [`crate::DhlSystem`].)

use dhl_rng::DeterministicRng;

use dhl_units::{Bytes, BytesPerSecond, Joules, Seconds};

use dhl_storage::connectors::{ConnectorKind, DockingConnector};

use crate::config::{EndpointKind, SimConfig};
use crate::movement::MovementTable;
use crate::system::{CartId, EndpointId};

/// Errors surfaced by the DHL API.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ApiError {
    /// No cart is currently stored in the library.
    NoCartAvailable,
    /// The destination endpoint's docking stations are all occupied.
    EndpointFull {
        /// The saturated endpoint.
        endpoint: EndpointId,
    },
    /// The endpoint index does not exist or is not a rack.
    InvalidEndpoint {
        /// The rejected index.
        endpoint: EndpointId,
    },
    /// The cart id is unknown or not docked where the command requires.
    CartNotDocked {
        /// The offending cart.
        cart: CartId,
    },
    /// A read/write exceeds the cart's capacity.
    ExceedsCapacity {
        /// Requested payload.
        requested: Bytes,
        /// Cart capacity.
        capacity: Bytes,
    },
    /// SSDs failed in flight beyond what the RAID layout tolerates
    /// (§III-D: "the endpoint's DHL API will report the error").
    DataLoss {
        /// The affected cart.
        cart: CartId,
        /// Number of failed SSDs.
        failed_ssds: u32,
    },
    /// The cart's docking connector exceeded its rated mating cycles (§VI).
    ConnectorWornOut {
        /// The affected cart.
        cart: CartId,
    },
}

impl core::fmt::Display for ApiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoCartAvailable => f.write_str("no cart available in the library"),
            Self::EndpointFull { endpoint } => {
                write!(f, "endpoint {endpoint} has no free docking station")
            }
            Self::InvalidEndpoint { endpoint } => {
                write!(f, "endpoint {endpoint} does not exist or is not a rack")
            }
            Self::CartNotDocked { cart } => {
                write!(f, "cart {cart} is not docked where this command requires")
            }
            Self::ExceedsCapacity {
                requested,
                capacity,
            } => write!(f, "payload {requested} exceeds cart capacity {capacity}"),
            Self::DataLoss { cart, failed_ssds } => write!(
                f,
                "cart {cart} lost {failed_ssds} ssds in flight beyond raid tolerance"
            ),
            Self::ConnectorWornOut { cart } => {
                write!(f, "cart {cart} docking connector exceeded its rated cycles")
            }
        }
    }
}

impl std::error::Error for ApiError {}

#[derive(Clone, Debug)]
struct ApiCart {
    endpoint: EndpointId,
    connector: DockingConnector,
}

/// The synchronous DHL API facade.
///
/// When `cfg.reliability` is set, every cart movement samples in-flight SSD
/// failures from its failure model, seeded by its `seed`.
///
/// # Examples
///
/// ```rust
/// use dhl_sim::api::DhlApi;
/// use dhl_sim::SimConfig;
/// use dhl_units::{Bytes, BytesPerSecond};
///
/// let mut api = DhlApi::new(
///     SimConfig::paper_default(),
///     BytesPerSecond::from_gigabytes_per_second(227.2), // 32 SSDs reading
///     BytesPerSecond::from_gigabytes_per_second(192.0), // 32 SSDs writing
/// ).unwrap();
///
/// let cart = api.open(1)?;                        // shuttle a cart to rack 1
/// api.read(cart, Bytes::from_terabytes(10.0))?;   // read 10 TB locally
/// api.close(cart)?;                               // send it home
/// assert!(api.now().seconds() > 17.0);            // two trips + read time
/// # Ok::<(), dhl_sim::api::ApiError>(())
/// ```
#[derive(Debug)]
pub struct DhlApi {
    cfg: SimConfig,
    costs: MovementTable,
    read_bandwidth: BytesPerSecond,
    write_bandwidth: BytesPerSecond,
    clock: Seconds,
    energy: Joules,
    carts: Vec<ApiCart>,
    dock_used: Vec<u32>,
    reliability_rng: Option<DeterministicRng>,
}

impl DhlApi {
    /// Builds the facade over a validated configuration with the given
    /// docked read/write bandwidths.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidEndpoint`] is never returned here; configuration
    /// errors surface as `Err(config_error_message)` via
    /// [`crate::config::ConfigError`] stringification.
    pub fn new(
        cfg: SimConfig,
        read_bandwidth: BytesPerSecond,
        write_bandwidth: BytesPerSecond,
    ) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let carts = (0..cfg.num_carts)
            .map(|_| ApiCart {
                endpoint: 0,
                connector: DockingConnector::new(ConnectorKind::UsbC),
            })
            .collect();
        let mut dock_used = vec![0u32; cfg.endpoints.len()];
        dock_used[0] = cfg.num_carts;
        let reliability_rng = cfg
            .reliability
            .as_ref()
            .map(|r| DeterministicRng::seed_from_u64(r.seed));
        Ok(Self {
            costs: MovementTable::build(&cfg, None),
            cfg,
            read_bandwidth,
            write_bandwidth,
            clock: Seconds::ZERO,
            energy: Joules::ZERO,
            carts,
            dock_used,
            reliability_rng,
        })
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.clock
    }

    /// Total energy accounted so far.
    #[must_use]
    pub fn energy_used(&self) -> Joules {
        self.energy
    }

    /// **Open**: requests a cart from the library; if one is present it is
    /// shuttled to `endpoint` and docked.
    ///
    /// # Errors
    ///
    /// - [`ApiError::InvalidEndpoint`] if `endpoint` is not a rack;
    /// - [`ApiError::NoCartAvailable`] if the library is empty;
    /// - [`ApiError::EndpointFull`] if all docking stations are occupied;
    /// - [`ApiError::ConnectorWornOut`] if the cart's connector is spent;
    /// - [`ApiError::DataLoss`] if injected SSD failures exceeded the RAID
    ///   tolerance (the cart still docks; its data is reported lost).
    pub fn open(&mut self, endpoint: EndpointId) -> Result<CartId, ApiError> {
        let spec = self
            .cfg
            .endpoints
            .get(endpoint)
            .ok_or(ApiError::InvalidEndpoint { endpoint })?;
        if spec.kind != EndpointKind::Rack {
            return Err(ApiError::InvalidEndpoint { endpoint });
        }
        if self.dock_used[endpoint] >= spec.docks {
            return Err(ApiError::EndpointFull { endpoint });
        }
        let cart = self
            .carts
            .iter()
            .position(|c| c.endpoint == 0)
            .ok_or(ApiError::NoCartAvailable)?;

        let cost = self.costs.cost(0, endpoint);
        self.clock += cost.total_time;
        self.energy += cost.energy;
        self.dock_used[0] -= 1;
        self.dock_used[endpoint] += 1;
        self.carts[cart].endpoint = endpoint;
        if self.carts[cart].connector.mate().is_err() {
            return Err(ApiError::ConnectorWornOut { cart });
        }
        self.inject_failures(cart, cost.total_time)?;
        Ok(cart)
    }

    /// **Close**: disconnects the cart from its docking station and shuttles
    /// it back to the library.
    ///
    /// # Errors
    ///
    /// [`ApiError::CartNotDocked`] if the cart is not at a rack.
    pub fn close(&mut self, cart: CartId) -> Result<(), ApiError> {
        let ep = self.rack_of(cart)?;
        let cost = self.costs.cost(ep, 0);
        self.clock += cost.total_time;
        self.energy += cost.energy;
        self.dock_used[ep] -= 1;
        self.dock_used[0] += 1;
        self.carts[cart].endpoint = 0;
        self.inject_failures(cart, cost.total_time)?;
        Ok(())
    }

    /// **Read**: reads `bytes` from a docked cart at local PCIe bandwidth.
    /// Returns the time the read took.
    ///
    /// # Errors
    ///
    /// - [`ApiError::CartNotDocked`] if the cart is not at a rack;
    /// - [`ApiError::ExceedsCapacity`] if `bytes` exceeds the cart.
    pub fn read(&mut self, cart: CartId, bytes: Bytes) -> Result<Seconds, ApiError> {
        self.rack_of(cart)?;
        self.check_capacity(bytes)?;
        let t = self.read_bandwidth.transfer_time(bytes);
        self.clock += t;
        Ok(t)
    }

    /// **Write**: writes `bytes` to a docked cart at local PCIe bandwidth.
    /// Returns the time the write took.
    ///
    /// # Errors
    ///
    /// Same as [`DhlApi::read`].
    pub fn write(&mut self, cart: CartId, bytes: Bytes) -> Result<Seconds, ApiError> {
        self.rack_of(cart)?;
        self.check_capacity(bytes)?;
        let t = self.write_bandwidth.transfer_time(bytes);
        self.clock += t;
        Ok(t)
    }

    fn rack_of(&self, cart: CartId) -> Result<EndpointId, ApiError> {
        let c = self
            .carts
            .get(cart)
            .ok_or(ApiError::CartNotDocked { cart })?;
        if c.endpoint == 0 {
            return Err(ApiError::CartNotDocked { cart });
        }
        Ok(c.endpoint)
    }

    fn check_capacity(&self, bytes: Bytes) -> Result<(), ApiError> {
        if bytes > self.cfg.cart_capacity {
            return Err(ApiError::ExceedsCapacity {
                requested: bytes,
                capacity: self.cfg.cart_capacity,
            });
        }
        Ok(())
    }

    fn inject_failures(&mut self, cart: CartId, duration: Seconds) -> Result<(), ApiError> {
        if let (Some(rel), Some(rng)) = (&self.cfg.reliability, self.reliability_rng.as_mut()) {
            let failed = rel
                .failure
                .sample_failures(rng, rel.ssds_per_cart, duration);
            if !rel.raid.tolerates(failed) {
                return Err(ApiError::DataLoss {
                    cart,
                    failed_ssds: failed,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReliabilitySpec;
    use dhl_storage::failure::{FailureModel, RaidConfig};

    fn api() -> DhlApi {
        DhlApi::new(
            SimConfig::paper_default(),
            BytesPerSecond::from_gigabytes_per_second(227.2),
            BytesPerSecond::from_gigabytes_per_second(192.0),
        )
        .unwrap()
    }

    #[test]
    fn open_read_close_round_trip() {
        let mut api = api();
        let cart = api.open(1).unwrap();
        assert_eq!(api.carts[cart].endpoint, 1);
        assert!((api.now().seconds() - 8.6).abs() < 1e-9);

        let t = api.read(cart, Bytes::from_terabytes(256.0)).unwrap();
        assert!((t.seconds() - 256e12 / 227.2e9).abs() < 1e-6);

        api.close(cart).unwrap();
        assert_eq!(api.carts[cart].endpoint, 0);
        assert!((api.now().seconds() - (17.2 + t.seconds())).abs() < 1e-6);
        // Two movements ≈ 2 × 15.2 kJ.
        assert!((api.energy_used().kilojoules() - 30.4).abs() < 0.5);
    }

    #[test]
    fn endpoint_fills_up() {
        let mut api = api(); // rack has 4 docks
        for _ in 0..4 {
            api.open(1).unwrap();
        }
        assert_eq!(api.open(1), Err(ApiError::EndpointFull { endpoint: 1 }));
    }

    #[test]
    fn library_can_run_dry() {
        let mut cfg = SimConfig::paper_default();
        cfg.num_carts = 2;
        cfg.endpoints[0].docks = 2;
        let mut api = DhlApi::new(
            cfg,
            BytesPerSecond::from_gigabytes_per_second(1.0),
            BytesPerSecond::from_gigabytes_per_second(1.0),
        )
        .unwrap();
        api.open(1).unwrap();
        api.open(1).unwrap();
        assert_eq!(api.open(1), Err(ApiError::NoCartAvailable));
    }

    #[test]
    fn invalid_commands_are_rejected() {
        let mut api = api();
        assert_eq!(api.open(0), Err(ApiError::InvalidEndpoint { endpoint: 0 }));
        assert_eq!(api.open(9), Err(ApiError::InvalidEndpoint { endpoint: 9 }));
        assert_eq!(api.close(0), Err(ApiError::CartNotDocked { cart: 0 }));
        assert_eq!(
            api.read(99, Bytes::new(1)),
            Err(ApiError::CartNotDocked { cart: 99 })
        );
        let cart = api.open(1).unwrap();
        assert!(matches!(
            api.read(cart, Bytes::from_terabytes(300.0)),
            Err(ApiError::ExceedsCapacity { .. })
        ));
    }

    #[test]
    fn write_uses_write_bandwidth() {
        let mut api = api();
        let cart = api.open(1).unwrap();
        let t = api.write(cart, Bytes::from_terabytes(1.92)).unwrap();
        assert!((t.seconds() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reliability_injection_with_certain_failure() {
        // AFR ~1 across a long "trip": with zero parity, data loss is
        // certain.
        let mut cfg = SimConfig::paper_default();
        cfg.dock_time = Seconds::new(1e6); // absurdly long exposure
        cfg.reliability = Some(ReliabilitySpec {
            failure: FailureModel::new(0.999999),
            raid: RaidConfig::none(32),
            ssds_per_cart: 32,
            seed: 7,
        });
        let mut api = DhlApi::new(
            cfg,
            BytesPerSecond::from_gigabytes_per_second(1.0),
            BytesPerSecond::from_gigabytes_per_second(1.0),
        )
        .unwrap();
        assert!(matches!(api.open(1), Err(ApiError::DataLoss { .. })));
    }

    #[test]
    fn reliability_with_strong_raid_survives() {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec {
            seed: 7,
            ..ReliabilitySpec::typical()
        });
        let mut api = DhlApi::new(
            cfg,
            BytesPerSecond::from_gigabytes_per_second(227.2),
            BytesPerSecond::from_gigabytes_per_second(192.0),
        )
        .unwrap();
        // Hundreds of normal trips: never a loss with 4-parity RAID at 1% AFR.
        for _ in 0..50 {
            let cart = api.open(1).unwrap();
            api.close(cart).unwrap();
        }
    }

    #[test]
    fn error_messages_render() {
        let msgs = [
            ApiError::NoCartAvailable.to_string(),
            ApiError::EndpointFull { endpoint: 1 }.to_string(),
            ApiError::DataLoss {
                cart: 3,
                failed_ssds: 5,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("library"));
        assert!(msgs[1].contains("endpoint 1"));
        assert!(msgs[2].contains("5 ssds"));
    }
}
