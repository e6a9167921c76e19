//! A three-level fat-tree model of Fig. 2's data centre.
//!
//! Fig. 2 (left) shows two aisles, each with racks hanging off level-1
//! (top-of-rack) switches, level-2 aggregation switches per aisle, and a
//! level-3 core switch joining aisles. The number of switches a flow
//! traverses is determined purely by how far apart the endpoints are:
//!
//! - same rack: 1 switch (the ToR) — route A2;
//! - same aisle, different racks: ToR → aggregation → ToR = 3 — route B;
//! - different aisles: ToR → agg → core → agg → ToR = 5 — route C.
//!
//! This module derives those counts (and hence the Fig. 2 route powers) from
//! node placement, cross-validating the hand-built [`Route`] table.

use crate::route::{Route, RouteId};

/// Location of a node in the fat tree.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeAddress {
    /// Aisle index.
    pub aisle: u32,
    /// Rack index within the aisle.
    pub rack: u32,
    /// Node index within the rack.
    pub node: u32,
}

impl NodeAddress {
    /// Convenience constructor.
    #[must_use]
    pub fn new(aisle: u32, rack: u32, node: u32) -> Self {
        Self { aisle, rack, node }
    }
}

/// The fat-tree topology of Fig. 2.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FatTree {
    aisles: u32,
    racks_per_aisle: u32,
    nodes_per_rack: u32,
}

/// Error for an address outside the topology.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AddressOutOfRange {
    /// The offending address.
    pub address: NodeAddress,
}

impl core::fmt::Display for AddressOutOfRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "node address {:?} lies outside the topology",
            self.address
        )
    }
}

impl std::error::Error for AddressOutOfRange {}

impl FatTree {
    /// The Fig. 2 layout: 2 aisles × 4 racks × 4 nodes.
    #[must_use]
    pub fn figure_2() -> Self {
        Self {
            aisles: 2,
            racks_per_aisle: 4,
            nodes_per_rack: 4,
        }
    }

    fn contains(&self, a: NodeAddress) -> bool {
        a.aisle < self.aisles && a.rack < self.racks_per_aisle && a.node < self.nodes_per_rack
    }

    /// Number of switches a flow between `src` and `dst` traverses.
    ///
    /// # Errors
    ///
    /// [`AddressOutOfRange`] if either address lies outside the topology.
    pub fn switches_between(
        &self,
        src: NodeAddress,
        dst: NodeAddress,
    ) -> Result<u32, AddressOutOfRange> {
        for a in [src, dst] {
            if !self.contains(a) {
                return Err(AddressOutOfRange { address: a });
            }
        }
        Ok(if src == dst {
            0
        } else if src.aisle == dst.aisle && src.rack == dst.rack {
            1
        } else if src.aisle == dst.aisle {
            3
        } else {
            5
        })
    }

    /// Derives the powered [`Route`] for a flow between two nodes, using the
    /// passive-at-the-edge / active-between-switches convention of §II-C.
    ///
    /// # Errors
    ///
    /// [`AddressOutOfRange`] if either address lies outside the topology.
    pub fn route_between(
        &self,
        src: NodeAddress,
        dst: NodeAddress,
    ) -> Result<Route, AddressOutOfRange> {
        let switches = self.switches_between(src, dst)?;
        let id = match switches {
            0 => RouteId::A1,
            1 => RouteId::A2,
            3 => RouteId::B,
            _ => RouteId::C,
        };
        Ok(Route::through_switches(id, switches))
    }
}

impl Default for FatTree {
    fn default() -> Self {
        Self::figure_2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_units::Bytes;

    const DATASET: Bytes = Bytes::new(29_000_000_000_000_000);

    #[test]
    fn hop_counts_match_figure_2() {
        let t = FatTree::figure_2();
        let storage = NodeAddress::new(0, 0, 0);
        let same_rack = NodeAddress::new(0, 0, 1);
        let same_aisle = NodeAddress::new(0, 2, 0);
        let other_aisle = NodeAddress::new(1, 0, 0);
        assert_eq!(t.switches_between(storage, storage).unwrap(), 0);
        assert_eq!(t.switches_between(storage, same_rack).unwrap(), 1);
        assert_eq!(t.switches_between(storage, same_aisle).unwrap(), 3);
        assert_eq!(t.switches_between(storage, other_aisle).unwrap(), 5);
    }

    #[test]
    fn derived_routes_reproduce_fig2_energies() {
        // The topology-derived routes must agree with the hand-built table.
        let t = FatTree::figure_2();
        let storage = NodeAddress::new(0, 0, 0);
        let cases = [
            (NodeAddress::new(0, 0, 1), 50.05),  // A2: same rack via ToR
            (NodeAddress::new(0, 3, 2), 174.75), // B: same aisle
            (NodeAddress::new(1, 1, 1), 299.45), // C: across aisles
        ];
        for (dst, expect_mj) in cases {
            let route = t.route_between(storage, dst).unwrap();
            let e = route.transfer_energy(DATASET).megajoules();
            assert!((e - expect_mj).abs() < 0.005, "to {dst:?}: {e:.3} MJ");
        }
    }

    #[test]
    fn symmetric_paths() {
        let t = FatTree::figure_2();
        let a = NodeAddress::new(0, 1, 2);
        let b = NodeAddress::new(1, 3, 0);
        assert_eq!(
            t.switches_between(a, b).unwrap(),
            t.switches_between(b, a).unwrap()
        );
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let t = FatTree::figure_2();
        let inside = NodeAddress::new(0, 0, 0);
        let outside = NodeAddress::new(2, 0, 0);
        assert!(t.switches_between(inside, outside).is_err());
        assert!(t.route_between(outside, inside).is_err());
        let msg = format!("{}", t.switches_between(inside, outside).unwrap_err());
        assert!(msg.contains("outside the topology"));
    }
}
