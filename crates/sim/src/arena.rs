//! Struct-of-arrays arena storage for the cart fleet.
//!
//! The simulator's hot loop touches one or two fields of one cart per
//! event (`location` on a dock, `movement` on an arrival, …). Storing the
//! fleet as an array-of-structs dragged every cold field — connector,
//! wear, verify state — through the cache on each access; `CartArena`
//! transposes the fleet into one contiguous column per field so an event
//! handler reads exactly the columns it needs. Cart identity is a plain
//! dense index (no boxing, no hashing).
//!
//! Columns are plain `Vec`s with `pub(crate)` visibility: the simulator
//! indexes them directly, a checkpoint copies each one whole and a resume
//! copies them back, and the arena's job is to keep them the same length.
//! Locations are the one column written through a method
//! (`CartArena::set_location`, or `set_locations` for all of them), so the
//! arena can keep count of the carts docked at the library — derived state
//! that makes the mission's all-carts-home check O(1) and is never
//! serialised.

use dhl_storage::connectors::DockingConnector;
use dhl_storage::wear::CartWear;

use crate::system::{ActiveMovement, CartLocation, PendingVerify};

/// The cart fleet in struct-of-arrays layout. Every column has one entry
/// per cart; index `i` across columns is cart `i`.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct CartArena {
    /// Written only through [`CartArena::set_location`], which keeps
    /// `at_library` in step.
    pub(crate) locations: Vec<CartLocation>,
    /// Carts whose location is `Docked(0)`.
    at_library: usize,
    /// In-flight movement (valid while moving).
    pub(crate) movements: Vec<Option<ActiveMovement>>,
    /// The cart's docking connector, tracked when connector faults are on.
    pub(crate) connectors: Vec<Option<DockingConnector>>,
    /// NAND wear from restaging writes, tracked when integrity is on.
    pub(crate) wear: Vec<Option<CartWear>>,
    /// Connector matings over the cart's life (integrity wear input when no
    /// fault-tracked connector exists).
    pub(crate) matings: Vec<u32>,
    /// Delivery awaiting its verify-on-dock verdict.
    pub(crate) verify: Vec<Option<PendingVerify>>,
}

impl CartArena {
    /// A fleet of `count` identical carts docked at the library, each with
    /// a clone of the template connector/wear trackers.
    #[must_use]
    pub(crate) fn with_fleet(
        count: usize,
        connector: Option<DockingConnector>,
        wear: Option<CartWear>,
    ) -> Self {
        Self {
            locations: vec![CartLocation::Docked(0); count],
            at_library: count,
            movements: vec![None; count],
            connectors: vec![connector; count],
            wear: vec![wear; count],
            matings: vec![0; count],
            verify: vec![None; count],
        }
    }

    /// Number of carts in the fleet.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.locations.len()
    }

    /// Moves cart `cart` to `location`.
    pub(crate) fn set_location(&mut self, cart: usize, location: CartLocation) {
        let slot = &mut self.locations[cart];
        self.at_library -= usize::from(*slot == CartLocation::Docked(0));
        self.at_library += usize::from(location == CartLocation::Docked(0));
        *slot = location;
    }

    /// Copies in every cart's location, recounting the carts at the library.
    pub(crate) fn set_locations(&mut self, locations: &[CartLocation]) {
        self.locations.clear();
        self.locations.extend_from_slice(locations);
        let home = locations.iter().filter(|&&l| l == CartLocation::Docked(0));
        self.at_library = home.count();
    }

    /// Whether every cart is docked at the library.
    pub(crate) fn all_at_library(&self) -> bool {
        self.at_library == self.locations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_starts_docked_at_library() {
        let arena = CartArena::with_fleet(3, None, None);
        assert_eq!(arena.len(), 3);
        assert!(arena
            .locations
            .iter()
            .all(|l| *l == CartLocation::Docked(0)));
        assert!(arena.movements.iter().all(Option::is_none));
        assert!(arena.all_at_library());
    }

    #[test]
    fn library_count_follows_every_location_change() {
        let mut arena = CartArena::with_fleet(2, None, None);
        arena.set_location(1, CartLocation::Moving { from: 0, to: 1 });
        assert!(!arena.all_at_library());
        arena.set_location(1, CartLocation::Docked(1));
        arena.set_location(1, CartLocation::Docked(1));
        assert!(!arena.all_at_library());
        arena.set_location(1, CartLocation::Docked(0));
        assert!(arena.all_at_library());

        // A rebuild copies the restored locations into a fresh fleet.
        arena = CartArena::with_fleet(2, None, None);
        arena.set_locations(&[CartLocation::Docked(0), CartLocation::Docked(2)]);
        assert!(!arena.all_at_library());
        arena.set_location(1, CartLocation::Docked(0));
        assert!(arena.all_at_library());
    }
}
