//! Cart storage configuration and docking-station PCIe bandwidth
//! (§III-B.1, §III-B.5, Table V).

use serde::{Deserialize, Serialize};

use dhl_units::{Bytes, BytesPerSecond, Kilograms, Seconds};

use crate::devices::StorageDevice;

/// PCI Express generations relevant to docking stations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PcieGeneration {
    /// PCIe 4.0 — 16 GT/s per lane.
    Gen4,
    /// PCIe 5.0 — 32 GT/s per lane.
    Gen5,
    /// PCIe 6.0 — 64 GT/s per lane (the paper's §III-B.5 example:
    /// 3.8 Tb/s over 64 lanes).
    Gen6,
}

impl PcieGeneration {
    /// Per-lane signalling rate in gigatransfers per second.
    #[must_use]
    pub fn gigatransfers_per_second(self) -> f64 {
        match self {
            Self::Gen4 => 16.0,
            Self::Gen5 => 32.0,
            Self::Gen6 => 64.0,
        }
    }

    /// Encoding/protocol efficiency: 128b/130b for Gen4/5, FLIT 242/256 for
    /// Gen6.
    #[must_use]
    pub fn efficiency(self) -> f64 {
        match self {
            Self::Gen4 | Self::Gen5 => 128.0 / 130.0,
            Self::Gen6 => 242.0 / 256.0,
        }
    }
}

/// A PCIe link between a docked cart's SSDs and the rack's compute nodes.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::cart::{PcieGeneration, PcieLink};
///
/// // §III-B.5: PCIe 6 ×64 provides ≈ 3.8 Tb/s — one lane per SSD on the
/// // largest (64-SSD) cart.
/// let link = PcieLink::new(PcieGeneration::Gen6, 64);
/// assert!(link.gigabits_per_second() >= 3_800.0);
/// ```
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct PcieLink {
    generation: PcieGeneration,
    lanes: u32,
}

impl PcieLink {
    /// A link of `lanes` lanes at the given generation.
    #[must_use]
    pub fn new(generation: PcieGeneration, lanes: u32) -> Self {
        Self { generation, lanes }
    }

    /// The link's generation.
    #[must_use]
    pub fn generation(&self) -> PcieGeneration {
        self.generation
    }

    /// The number of lanes.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Effective payload rate in gigabits per second.
    #[must_use]
    pub fn gigabits_per_second(&self) -> f64 {
        self.generation.gigatransfers_per_second()
            * f64::from(self.lanes)
            * self.generation.efficiency()
    }

    /// Effective payload rate in bytes per second.
    #[must_use]
    pub fn bandwidth(&self) -> BytesPerSecond {
        BytesPerSecond::new(self.gigabits_per_second() * 1e9 / 8.0)
    }
}

/// The SSD payload carried by one cart.
///
/// The paper fixes the SSDs inside the cart (cart and SSDs dock as one unit)
/// and evaluates carts of 16, 32 (default) and 64 × 8 TB M.2 drives —
/// 128/256/512 TB per cart.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::cart::CartStorage;
///
/// let cart = CartStorage::paper_default();
/// assert_eq!(cart.ssd_count(), 32);
/// assert_eq!(cart.capacity().terabytes(), 256.0);
/// // Local read bandwidth across all SSDs in parallel: 32 × 7.1 GB/s.
/// assert!((cart.aggregate_read_bandwidth().terabytes_per_second() - 0.2272).abs() < 1e-4);
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct CartStorage {
    device: StorageDevice,
    ssd_count: u32,
}

impl CartStorage {
    /// The paper's default: 32 × Sabrent Rocket 4 Plus (256 TB).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(StorageDevice::sabrent_rocket_4_plus(), 32)
    }

    /// The paper's small configuration: 16 SSDs (128 TB).
    #[must_use]
    pub fn paper_small() -> Self {
        Self::new(StorageDevice::sabrent_rocket_4_plus(), 16)
    }

    /// The paper's large configuration: 64 SSDs (512 TB).
    #[must_use]
    pub fn paper_large() -> Self {
        Self::new(StorageDevice::sabrent_rocket_4_plus(), 64)
    }

    /// A cart carrying `ssd_count` copies of `device`.
    #[must_use]
    pub fn new(device: StorageDevice, ssd_count: u32) -> Self {
        Self { device, ssd_count }
    }

    /// The device model on board.
    #[must_use]
    pub fn device(&self) -> &StorageDevice {
        &self.device
    }

    /// Number of SSDs on board.
    #[must_use]
    pub fn ssd_count(&self) -> u32 {
        self.ssd_count
    }

    /// Total cart capacity.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.device.capacity * u64::from(self.ssd_count)
    }

    /// Total SSD payload mass.
    #[must_use]
    pub fn payload_mass(&self) -> Kilograms {
        self.device.mass * f64::from(self.ssd_count)
    }

    /// Aggregate sequential read bandwidth with all SSDs active in parallel.
    #[must_use]
    pub fn aggregate_read_bandwidth(&self) -> BytesPerSecond {
        self.device.read_bandwidth * f64::from(self.ssd_count)
    }

    /// Aggregate sequential write bandwidth with all SSDs active in parallel.
    #[must_use]
    pub fn aggregate_write_bandwidth(&self) -> BytesPerSecond {
        self.device.write_bandwidth * f64::from(self.ssd_count)
    }

    /// Effective drain (read) bandwidth through a docking station's PCIe
    /// link: the minimum of SSD aggregate bandwidth and link bandwidth.
    #[must_use]
    pub fn docked_read_bandwidth(&self, link: PcieLink) -> BytesPerSecond {
        self.aggregate_read_bandwidth().min(link.bandwidth())
    }

    /// Time to read the full cart through a docking station.
    #[must_use]
    pub fn full_read_time(&self, link: PcieLink) -> Seconds {
        self.docked_read_bandwidth(link)
            .transfer_time(self.capacity())
    }

    /// Aggregate active power with all SSDs under load (feeds the thermal
    /// model).
    #[must_use]
    pub fn active_power_watts(&self) -> f64 {
        self.device.active_power_watts * f64::from(self.ssd_count)
    }
}

impl Default for CartStorage {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cart_capacities() {
        assert_eq!(CartStorage::paper_small().capacity().terabytes(), 128.0);
        assert_eq!(CartStorage::paper_default().capacity().terabytes(), 256.0);
        assert_eq!(CartStorage::paper_large().capacity().terabytes(), 512.0);
    }

    #[test]
    fn payload_masses_match_section_iv_a() {
        // §IV-A: 91/180/363 g for 16/32/64 SSDs (rounded).
        assert!((CartStorage::paper_small().payload_mass().grams() - 90.72).abs() < 0.01);
        assert!((CartStorage::paper_default().payload_mass().grams() - 181.44).abs() < 0.01);
        assert!((CartStorage::paper_large().payload_mass().grams() - 362.88).abs() < 0.01);
    }

    #[test]
    fn pcie6_x64_provides_about_3_8_tbps() {
        let link = PcieLink::new(PcieGeneration::Gen6, 64);
        let gbps = link.gigabits_per_second();
        assert!(gbps > 3_800.0 && gbps < 3_900.0, "got {gbps}");
    }

    #[test]
    fn pcie_generations_double() {
        let g4 = PcieLink::new(PcieGeneration::Gen4, 16).bandwidth().value();
        let g5 = PcieLink::new(PcieGeneration::Gen5, 16).bandwidth().value();
        let g6 = PcieLink::new(PcieGeneration::Gen6, 16).bandwidth().value();
        assert!((g5 / g4 - 2.0).abs() < 1e-9);
        // Gen6 doubles the rate but switches to FLIT encoding.
        assert!(g6 / g5 > 1.9 && g6 / g5 < 2.0);
    }

    #[test]
    fn docked_bandwidth_is_min_of_ssd_and_link() {
        let cart = CartStorage::paper_large(); // 64 × 7.1 GB/s = 454 GB/s
        let narrow = PcieLink::new(PcieGeneration::Gen4, 16); // ~31.5 GB/s
        let wide = PcieLink::new(PcieGeneration::Gen6, 64); // ~484 GB/s
        assert_eq!(cart.docked_read_bandwidth(narrow), narrow.bandwidth());
        assert_eq!(
            cart.docked_read_bandwidth(wide),
            cart.aggregate_read_bandwidth()
        );
    }

    #[test]
    fn full_read_time_is_plausible() {
        // 256 TB at 227.2 GB/s ≈ 1127 s — this is why the paper pipelines
        // cart deliveries behind SSD reads.
        let t =
            CartStorage::paper_default().full_read_time(PcieLink::new(PcieGeneration::Gen6, 64));
        assert!((t.seconds() - 1126.7).abs() < 1.0);
    }

    #[test]
    fn active_power_scales_with_count() {
        assert_eq!(CartStorage::paper_default().active_power_watts(), 320.0);
        assert_eq!(CartStorage::paper_large().active_power_watts(), 640.0);
    }
}
