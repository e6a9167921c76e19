//! Struct-of-arrays arena storage for the cart fleet.
//!
//! The simulator's hot loop touches one or two fields of one cart per
//! event (`location` on a dock, `movement` on an arrival, …). Storing the
//! fleet as an array-of-structs dragged every cold field — connector,
//! wear, verify state — through the cache on each access; `CartArena`
//! transposes the fleet into one contiguous column per field so an event
//! handler reads exactly the columns it needs. Cart identity is a plain
//! dense index on the hot path (no boxing, no hashing); the generational
//! [`CartHandle`] exists for *external* references, which survive across
//! checkpoint/resume boundaries only if the fleet they point into does.
//!
//! Columns are plain `Vec`s with `pub(crate)` visibility: the simulator
//! and the checkpoint codec index them directly, and the arena's job is to
//! keep them the same length. Locations are the one column written
//! through a method (`CartArena::set_location`), so the arena can keep
//! count of the carts docked at the library — derived state that makes the
//! mission's all-carts-home check O(1) and is never serialised.

use dhl_storage::connectors::DockingConnector;
use dhl_storage::wear::CartWear;

use crate::system::{ActiveMovement, CartLocation, PendingVerify};

/// A generational reference to a cart: the dense index plus the generation
/// of the fleet it was issued against. Resolving a handle after the fleet
/// was rebuilt (a checkpoint resume) yields `None` instead of silently
/// reading a different cart's state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CartHandle {
    index: u32,
    generation: u32,
}

impl CartHandle {
    /// The dense fleet index this handle refers to (unvalidated; use
    /// `CartArena::resolve` via `DhlSystem` for the checked path).
    #[must_use]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// The cart fleet in struct-of-arrays layout. Every column has one entry
/// per cart; index `i` across columns is cart `i`.
#[derive(Clone, PartialEq, Debug, Default)]
pub(crate) struct CartArena {
    /// Per-slot generation, bumped when the slot's state is replaced
    /// wholesale (fleet rebuild on resume) rather than evolved by events.
    pub(crate) generations: Vec<u32>,
    /// Written only through [`CartArena::set_location`] and
    /// [`CartArena::push_cart`], which keep `at_library` in step.
    pub(crate) locations: Vec<CartLocation>,
    /// Carts whose location is `Docked(0)`.
    at_library: usize,
    /// In-flight movement (valid while moving).
    pub(crate) movements: Vec<Option<ActiveMovement>>,
    pub(crate) trips: Vec<u64>,
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
            generations: vec![0; count],
            locations: vec![CartLocation::Docked(0); count],
            at_library: count,
            movements: vec![None; count],
            trips: vec![0; count],
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

    /// Whether every cart is docked at the library.
    pub(crate) fn all_at_library(&self) -> bool {
        self.at_library == self.locations.len()
    }

    /// Empties the arena and bumps every outstanding generation, so
    /// handles issued against the old fleet stop resolving. Follow with
    /// [`CartArena::push_cart`] per restored cart.
    pub(crate) fn begin_rebuild(&mut self) -> u32 {
        let next_gen = self
            .generations
            .iter()
            .copied()
            .max()
            .map_or(0, |g| g.wrapping_add(1));
        *self = Self::default();
        next_gen
    }

    /// Appends one cart's state (checkpoint restore path).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_cart(
        &mut self,
        generation: u32,
        location: CartLocation,
        movement: Option<ActiveMovement>,
        trips: u64,
        connector: Option<DockingConnector>,
        wear: Option<CartWear>,
        matings: u32,
        verify: Option<PendingVerify>,
    ) {
        self.generations.push(generation);
        self.at_library += usize::from(location == CartLocation::Docked(0));
        self.locations.push(location);
        self.movements.push(movement);
        self.trips.push(trips);
        self.connectors.push(connector);
        self.wear.push(wear);
        self.matings.push(matings);
        self.verify.push(verify);
    }

    /// A generational handle to cart `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (or beyond `u32`, which no
    /// realistic fleet reaches).
    #[must_use]
    pub(crate) fn handle(&self, index: usize) -> CartHandle {
        CartHandle {
            index: u32::try_from(index).expect("fleet index fits in u32"),
            generation: self.generations[index],
        }
    }

    /// Resolves a handle back to a dense index, or `None` if the slot has
    /// been rebuilt since the handle was issued (stale generation) or the
    /// index is out of range.
    #[must_use]
    pub(crate) fn resolve(&self, handle: CartHandle) -> Option<usize> {
        let index = handle.index();
        (self.generations.get(index) == Some(&handle.generation)).then_some(index)
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
        assert_eq!(arena.trips, vec![0, 0, 0]);
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

        // A rebuild recounts from the restored locations.
        let generation = arena.begin_rebuild();
        for location in [CartLocation::Docked(0), CartLocation::Docked(2)] {
            arena.push_cart(generation, location, None, 0, None, None, 0, None);
        }
        assert!(!arena.all_at_library());
        arena.set_location(1, CartLocation::Docked(0));
        assert!(arena.all_at_library());
    }

    #[test]
    fn handles_resolve_until_the_fleet_is_rebuilt() {
        let mut arena = CartArena::with_fleet(2, None, None);
        let h = arena.handle(1);
        assert_eq!(arena.resolve(h), Some(1));

        let generation = arena.begin_rebuild();
        for _ in 0..2 {
            arena.push_cart(
                generation,
                CartLocation::Docked(0),
                None,
                0,
                None,
                None,
                0,
                None,
            );
        }
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.resolve(h), None, "stale generation must not resolve");
        let fresh = arena.handle(1);
        assert_eq!(arena.resolve(fresh), Some(1));
        assert_ne!(h, fresh);
    }

    #[test]
    fn out_of_range_handles_do_not_resolve() {
        let small = CartArena::with_fleet(1, None, None);
        let big = CartArena::with_fleet(5, None, None);
        let h = big.handle(4);
        assert_eq!(small.resolve(h), None);
    }
}
