//! Dataset-to-cart placement: the library's data map.
//!
//! The library stores whole datasets striped across carts (§III-B.6). The
//! placement layer records which carts hold which shards so **Open**
//! requests can be resolved to concrete cart movements, and enforces that a
//! cart belongs to at most one dataset at a time (the paper's carts dock
//! with their SSDs "as a single unit").

use serde::{Deserialize, Serialize};

use dhl_storage::datasets::Dataset;
use dhl_storage::failure::RaidConfig;
use dhl_units::Bytes;

/// Opaque handle for a stored dataset.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct DatasetId(pub u64);

/// What one cart currently holds.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct CartContents {
    /// Owning dataset.
    pub dataset: DatasetId,
    /// Shard index within the dataset.
    pub shard_index: u64,
    /// Bytes of the shard (the final shard may be partial).
    pub bytes: Bytes,
}

/// The library's dataset → cart map.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Placement {
    cart_capacity: Bytes,
    /// Cart id → contents (None = empty cart).
    carts: Vec<Option<CartContents>>,
    /// Dataset id → record (None = evicted); ids are dense, never reused.
    datasets: Vec<Option<StoredDataset>>,
}

#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
struct StoredDataset {
    name: String,
    size: Bytes,
    cart_ids: Vec<usize>,
}

impl Placement {
    /// An empty library whose carts each hold `cart_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `cart_capacity` is zero.
    #[must_use]
    pub fn new(cart_capacity: Bytes) -> Self {
        assert!(!cart_capacity.is_zero(), "cart capacity must be non-zero");
        Self {
            cart_capacity,
            carts: Vec::new(),
            datasets: Vec::new(),
        }
    }

    /// Capacity of each cart.
    #[must_use]
    pub fn cart_capacity(&self) -> Bytes {
        self.cart_capacity
    }

    /// Stores a dataset, striping it across freshly provisioned carts, and
    /// returns its handle.
    pub fn store(&mut self, dataset: Dataset) -> DatasetId {
        let id = DatasetId(self.datasets.len() as u64);
        let mut cart_ids = Vec::new();
        for (shard_index, bytes) in dataset.shards(self.cart_capacity).enumerate() {
            let cart_id = self.allocate_cart();
            self.carts[cart_id] = Some(CartContents {
                dataset: id,
                shard_index: shard_index as u64,
                bytes,
            });
            cart_ids.push(cart_id);
        }
        self.datasets.push(Some(StoredDataset {
            name: dataset.name.into_owned(),
            size: dataset.size,
            cart_ids,
        }));
        id
    }

    fn allocate_cart(&mut self) -> usize {
        if let Some(free) = self.carts.iter().position(Option::is_none) {
            free
        } else {
            self.carts.push(None);
            self.carts.len() - 1
        }
    }

    /// Deletes a dataset, freeing its carts. Returns whether it existed.
    pub fn evict(&mut self, id: DatasetId) -> bool {
        let slot = usize::try_from(id.0).ok();
        let Some(stored) = slot.and_then(|i| self.datasets.get_mut(i)?.take()) else {
            return false;
        };
        for cart in stored.cart_ids {
            // A stored dataset only ever references carts it was assigned;
            // tolerate (rather than panic on) a stale id.
            if let Some(slot) = self.carts.get_mut(cart) {
                *slot = None;
            }
        }
        true
    }

    fn stored(&self, id: DatasetId) -> Option<&StoredDataset> {
        self.datasets.get(usize::try_from(id.0).ok()?)?.as_ref()
    }

    /// The carts (in shard order) holding a dataset.
    #[must_use]
    pub fn carts_of(&self, id: DatasetId) -> Option<&[usize]> {
        self.stored(id).map(|d| d.cart_ids.as_slice())
    }

    /// Stored name of a dataset.
    #[must_use]
    pub fn name_of(&self, id: DatasetId) -> Option<&str> {
        self.stored(id).map(|d| d.name.as_str())
    }

    /// Stored size of a dataset.
    #[must_use]
    pub fn size_of(&self, id: DatasetId) -> Option<Bytes> {
        self.stored(id).map(|d| d.size)
    }

    /// Cart count and size of a dataset, in one lookup.
    pub(crate) fn extent_of(&self, id: DatasetId) -> Option<(usize, Bytes)> {
        self.stored(id).map(|d| (d.cart_ids.len(), d.size))
    }

    /// What a cart holds.
    #[must_use]
    pub fn contents_of(&self, cart: usize) -> Option<&CartContents> {
        self.carts.get(cart).and_then(Option::as_ref)
    }

    /// Total carts provisioned (occupied or free).
    #[must_use]
    pub fn cart_count(&self) -> usize {
        self.carts.len()
    }

    /// Carts currently holding data.
    #[must_use]
    pub fn occupied_carts(&self) -> usize {
        self.carts.iter().filter(|c| c.is_some()).count()
    }

    /// All stored dataset ids, in insertion order of id.
    #[must_use]
    pub fn dataset_ids(&self) -> Vec<DatasetId> {
        (0u64..)
            .zip(&self.datasets)
            .filter_map(|(id, d)| d.as_ref().map(|_| DatasetId(id)))
            .collect()
    }

    /// Trades parity level against payload capacity for shipping a dataset
    /// over a route with per-drive corruption probability
    /// `drive_corruption_probability`.
    ///
    /// Picks the *smallest* parity level whose per-cart survival probability
    /// meets `target_survival`, since every parity drive displaces payload:
    /// a `d+p` layout leaves `d/(d+p)` of each cart usable, so higher parity
    /// means more carts (and more track time) for the same dataset. Falls
    /// back to the maximum-parity layout when no level reaches the target,
    /// so callers always get the most durable plan the cart admits.
    ///
    /// Returns `None` for an unknown dataset or `drives_per_cart == 0`.
    #[must_use]
    pub fn plan_parity(
        &self,
        id: DatasetId,
        drives_per_cart: u32,
        drive_corruption_probability: f64,
        target_survival: f64,
    ) -> Option<ParityPlan> {
        let size = self.size_of(id)?;
        if drives_per_cart == 0 {
            return None;
        }
        let mut fallback = None;
        for parity in 0..drives_per_cart {
            let raid = RaidConfig::new(drives_per_cart - parity, parity)
                .expect("data drives >= 1 by loop bound");
            let survival = raid.trip_survival_probability(drive_corruption_probability);
            let usable = raid.usable_capacity(self.cart_capacity);
            let carts_required = if usable.is_zero() {
                u64::MAX
            } else {
                size.div_ceil(usable)
            };
            let plan = ParityPlan {
                raid,
                survival_probability: survival,
                usable_per_cart: usable,
                carts_required,
            };
            if survival >= target_survival {
                return Some(plan);
            }
            fallback = Some(plan);
        }
        fallback
    }
}

/// A parity/capacity trade-off chosen by [`Placement::plan_parity`].
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ParityPlan {
    /// The chosen per-cart RAID layout.
    pub raid: RaidConfig,
    /// Probability a cart's payload survives one trip under the route's
    /// corruption probability.
    pub survival_probability: f64,
    /// Payload bytes each cart carries after parity overhead.
    pub usable_per_cart: Bytes,
    /// Carts needed to ship the dataset at this parity level.
    pub carts_required: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_storage::datasets;

    fn placement() -> Placement {
        Placement::new(Bytes::from_terabytes(256.0))
    }

    #[test]
    fn striping_matches_shard_math() {
        let mut p = placement();
        let id = p.store(datasets::meta_dlrm_29pb());
        let carts = p.carts_of(id).unwrap();
        assert_eq!(carts.len(), 114);
        // Shards are stored in order with the partial tail last.
        let first = p.contents_of(carts[0]).unwrap();
        assert_eq!(first.shard_index, 0);
        assert_eq!(first.bytes, Bytes::from_terabytes(256.0));
        let last = p.contents_of(carts[113]).unwrap();
        assert_eq!(last.shard_index, 113);
        assert!(last.bytes < Bytes::from_terabytes(256.0));
        // Total bytes across carts equal the dataset.
        let total: Bytes = carts.iter().map(|c| p.contents_of(*c).unwrap().bytes).sum();
        assert_eq!(total, datasets::meta_dlrm_29pb().size);
    }

    #[test]
    fn eviction_frees_carts_for_reuse() {
        let mut p = placement();
        let a = p.store(datasets::laion_5b()); // 1 cart
        let b = p.store(datasets::common_crawl()); // 36 carts
        assert_eq!(p.cart_count(), 37);
        assert!(p.evict(a));
        assert!(!p.evict(a), "double evict is a no-op");
        assert_eq!(p.occupied_carts(), 36);
        // Storing again reuses the freed slot before growing.
        let c = p.store(datasets::massive_text()); // 1 cart
        assert_eq!(p.cart_count(), 37);
        assert!(p.carts_of(b).is_some());
        assert!(p.carts_of(c).is_some());
    }

    #[test]
    fn ids_are_stable_and_unique() {
        let mut p = placement();
        let a = p.store(datasets::laion_5b());
        let b = p.store(datasets::laion_5b());
        assert_ne!(a, b);
        assert_eq!(p.dataset_ids(), vec![a, b]);
        assert_eq!(p.name_of(a), Some("LAION-5B"));
        assert_eq!(p.size_of(a), Some(Bytes::from_terabytes(250.0)));
    }

    #[test]
    fn unknown_handles_return_none() {
        let p = placement();
        assert!(p.carts_of(DatasetId(99)).is_none());
        assert!(p.contents_of(5).is_none());
        assert!(p.name_of(DatasetId(0)).is_none());
    }

    #[test]
    fn lookups_miss_on_evicted_unknown_and_huge_ids() {
        let mut p = placement();
        let a = p.store(datasets::laion_5b());
        let b = p.store(datasets::common_crawl());
        let c = p.store(datasets::massive_text());
        assert!(p.evict(b));
        for id in [b, DatasetId(3), DatasetId(u64::MAX)] {
            assert!(p.carts_of(id).is_none(), "{id:?}");
            assert!(p.size_of(id).is_none(), "{id:?}");
            assert!(p.name_of(id).is_none(), "{id:?}");
            assert!(p.extent_of(id).is_none(), "{id:?}");
            assert!(!p.evict(id), "{id:?}");
        }
        // The survivors keep their rows, and one lookup gives both stats.
        assert_eq!(p.name_of(c), Some("MassiveText"));
        assert_eq!(p.carts_of(a).map(<[usize]>::len), Some(1));
        let laion = datasets::laion_5b().size;
        assert_eq!(p.size_of(a), Some(laion));
        assert_eq!(p.extent_of(a), Some((1, laion)));
    }

    #[test]
    fn dataset_ids_stay_in_id_order_after_evictions() {
        let mut p = placement();
        let ids: Vec<DatasetId> = (0..5).map(|_| p.store(datasets::laion_5b())).collect();
        assert_eq!(ids, (0..5).map(DatasetId).collect::<Vec<_>>());
        assert!(p.evict(ids[0]));
        assert!(p.evict(ids[3]));
        // A new dataset reuses a freed cart but never a freed id.
        let fresh = p.store(datasets::massive_text());
        assert_eq!(fresh, DatasetId(5));
        assert_eq!(p.cart_count(), 5);
        let expected = [ids[1], ids[2], ids[4], fresh];
        assert_eq!(p.dataset_ids(), expected);
    }

    #[test]
    #[should_panic(expected = "cart capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = Placement::new(Bytes::ZERO);
    }

    #[test]
    fn each_cart_belongs_to_one_dataset() {
        let mut p = placement();
        let a = p.store(datasets::common_crawl());
        let b = p.store(datasets::genomics_17pb());
        let carts_a: std::collections::BTreeSet<_> =
            p.carts_of(a).unwrap().iter().copied().collect();
        for cart in p.carts_of(b).unwrap() {
            assert!(!carts_a.contains(cart));
        }
    }
}
