//! The five evaluated network routes (§II-C, Fig. 2).
//!
//! | Route | Description | Composition |
//! |---|---|---|
//! | A0 | direct minimal connection, transceivers only | 2 transceivers |
//! | A1 | direct passive connection with regular NICs | 2 NICs |
//! | A2 | passive connection through one ToR switch | 2 NICs + 2 passive ports |
//! | B  | different racks, 3 switches | 2 NICs + 2 passive + 4 active ports |
//! | C  | different aisles, 5 switches | 2 NICs + 2 passive + 8 active ports |

use dhl_units::{Bytes, GigabitsPerSecond, Joules, Seconds, Watts};

use crate::components::{Nic, Switch, Transceiver};

/// Identifier of one of the paper's five routes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RouteId {
    /// Transceivers only.
    A0,
    /// Passive NIC-to-NIC.
    A1,
    /// Through one top-of-rack switch.
    A2,
    /// Across racks (three switches).
    B,
    /// Across aisles (five switches).
    C,
}

impl RouteId {
    /// All five routes in paper order.
    pub const ALL: [RouteId; 5] = [
        RouteId::A0,
        RouteId::A1,
        RouteId::A2,
        RouteId::B,
        RouteId::C,
    ];
}

impl core::fmt::Display for RouteId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            RouteId::A0 => "A0",
            RouteId::A1 => "A1",
            RouteId::A2 => "A2",
            RouteId::B => "B",
            RouteId::C => "C",
        };
        f.write_str(s)
    }
}

/// An end-to-end network route with its powered component inventory.
///
/// # Examples
///
/// ```rust
/// use dhl_net::route::Route;
/// use dhl_units::Bytes;
///
/// let b = Route::b();
/// // 29 PB at 400 Gb/s takes 580 000 s and burns 174.75 MJ on route B.
/// let data = Bytes::from_petabytes(29.0);
/// assert!((b.transfer_time(data).seconds() - 580_000.0).abs() < 1.0);
/// assert!((b.transfer_energy(data).megajoules() - 174.75).abs() < 0.01);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Route {
    id: RouteId,
    line_rate: GigabitsPerSecond,
    transceivers: u32,
    nics: u32,
    passive_switch_ports: u32,
    active_switch_ports: u32,
    switches_traversed: u32,
}

impl Route {
    /// Route A0: two directly connected transceivers (24 W).
    #[must_use]
    pub fn a0() -> Self {
        Self::compose(RouteId::A0, 2, 0, 0, 0, 0)
    }

    /// Route A1: two NICs over a passive cable (39.6 W).
    #[must_use]
    pub fn a1() -> Self {
        Self::compose(RouteId::A1, 0, 2, 0, 0, 0)
    }

    /// Route A2: two NICs through one ToR switch, both hops passive
    /// (86.3 W).
    #[must_use]
    pub fn a2() -> Self {
        Self::compose(RouteId::A2, 0, 2, 2, 0, 1)
    }

    /// Route B: different racks — two NICs, three switches: node links
    /// passive, two inter-switch links active (301.3 W).
    #[must_use]
    pub fn b() -> Self {
        Self::compose(RouteId::B, 0, 2, 2, 4, 3)
    }

    /// Route C: different aisles — two NICs, five switches: node links
    /// passive, four inter-switch links active (516.3 W).
    #[must_use]
    pub fn c() -> Self {
        Self::compose(RouteId::C, 0, 2, 2, 8, 5)
    }

    /// Builds the route for an id.
    #[must_use]
    pub fn from_id(id: RouteId) -> Self {
        match id {
            RouteId::A0 => Self::a0(),
            RouteId::A1 => Self::a1(),
            RouteId::A2 => Self::a2(),
            RouteId::B => Self::b(),
            RouteId::C => Self::c(),
        }
    }

    /// All five routes in paper order.
    #[must_use]
    pub fn all() -> Vec<Self> {
        RouteId::ALL.iter().map(|id| Self::from_id(*id)).collect()
    }

    /// A custom route through `switches` switches, with node-facing links
    /// passive and inter-switch links active — the pattern the fat-tree
    /// model produces. `switches == 0` means a direct NIC-to-NIC cable.
    #[must_use]
    pub fn through_switches(id: RouteId, switches: u32) -> Self {
        if switches == 0 {
            Self::compose(id, 0, 2, 0, 0, 0)
        } else {
            Self::compose(id, 0, 2, 2, 2 * (switches - 1), switches)
        }
    }

    fn compose(
        id: RouteId,
        transceivers: u32,
        nics: u32,
        passive_switch_ports: u32,
        active_switch_ports: u32,
        switches_traversed: u32,
    ) -> Self {
        Self {
            id,
            line_rate: GigabitsPerSecond::new(400.0),
            transceivers,
            nics,
            passive_switch_ports,
            active_switch_ports,
            switches_traversed,
        }
    }

    /// The route identifier.
    #[must_use]
    pub fn id(&self) -> RouteId {
        self.id
    }

    /// Human-readable name ("A0" … "C").
    #[must_use]
    pub fn name(&self) -> String {
        self.id.to_string()
    }

    /// Line rate of the path (400 Gb/s everywhere in the paper).
    #[must_use]
    pub fn line_rate(&self) -> GigabitsPerSecond {
        self.line_rate
    }

    /// Number of switches the path traverses.
    #[must_use]
    pub fn switches_traversed(&self) -> u32 {
        self.switches_traversed
    }

    /// Steady-state power attributable to this route while transferring.
    #[must_use]
    pub fn power(&self) -> Watts {
        let transceiver = Transceiver::qsfp_dd_400g().power;
        let nic = Nic::dual_200g().operating_power();
        let sw = Switch::qm9700();
        transceiver * f64::from(self.transceivers)
            + nic * f64::from(self.nics)
            + sw.port_power_passive() * f64::from(self.passive_switch_ports)
            + sw.port_power_active() * f64::from(self.active_switch_ports)
    }

    /// Time to move `data` over one instance of this route.
    #[must_use]
    pub fn transfer_time(&self, data: Bytes) -> Seconds {
        self.line_rate.transfer_time(data)
    }

    /// Energy to move `data` over one instance of this route.
    #[must_use]
    pub fn transfer_energy(&self, data: Bytes) -> Joules {
        self.power() * self.transfer_time(data)
    }

    /// Transmission efficiency in GB/J for a payload of `data`.
    #[must_use]
    pub fn efficiency(&self, data: Bytes) -> dhl_units::GigabytesPerJoule {
        data / self.transfer_energy(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATASET: Bytes = Bytes::new(29_000_000_000_000_000);

    #[test]
    fn route_powers() {
        assert!((Route::a0().power().value() - 24.0).abs() < 1e-9);
        assert!((Route::a1().power().value() - 39.6).abs() < 1e-9);
        assert!((Route::a2().power().value() - 86.2875).abs() < 1e-9);
        assert!((Route::b().power().value() - 301.2875).abs() < 1e-9);
        assert!((Route::c().power().value() - 516.2875).abs() < 1e-9);
    }

    #[test]
    fn fig2_energies_for_29pb() {
        // The Fig. 2 right table, to its printed precision.
        let cases = [
            (Route::a0(), 13.92),
            (Route::a1(), 22.97),
            (Route::a2(), 50.05),
            (Route::b(), 174.75),
            (Route::c(), 299.45),
        ];
        for (route, expect_mj) in cases {
            let e = route.transfer_energy(DATASET).megajoules();
            assert!(
                (e - expect_mj).abs() < 0.005,
                "route {}: got {e:.3} MJ, paper says {expect_mj}",
                route.name()
            );
        }
    }

    #[test]
    fn baseline_time_is_580k_seconds() {
        let t = Route::a0().transfer_time(DATASET);
        assert!((t.seconds() - 580_000.0).abs() < 1e-6);
        assert!((t.days() - 6.71).abs() < 0.01);
    }

    #[test]
    fn energies_are_strictly_ordered() {
        let all = Route::all();
        for pair in all.windows(2) {
            assert!(
                pair[0].transfer_energy(DATASET) < pair[1].transfer_energy(DATASET),
                "{} should cost less than {}",
                pair[0].name(),
                pair[1].name()
            );
        }
    }

    #[test]
    fn through_switches_matches_paper_routes() {
        assert_eq!(
            Route::through_switches(RouteId::A1, 0).power(),
            Route::a1().power()
        );
        assert_eq!(
            Route::through_switches(RouteId::A2, 1).power(),
            Route::a2().power()
        );
        assert_eq!(
            Route::through_switches(RouteId::B, 3).power(),
            Route::b().power()
        );
        assert_eq!(
            Route::through_switches(RouteId::C, 5).power(),
            Route::c().power()
        );
    }

    #[test]
    fn efficiency_in_gb_per_joule() {
        // Route A0: 29e6 GB / 13.92e6 J ≈ 2.08 GB/J — vs DHL's 17–73 GB/J.
        let eff = Route::a0().efficiency(DATASET);
        assert!((eff.value() - 2.083).abs() < 0.01);
    }

    #[test]
    fn route_ids_round_trip_and_display() {
        for id in RouteId::ALL {
            assert_eq!(Route::from_id(id).id(), id);
        }
        assert_eq!(RouteId::B.to_string(), "B");
        assert_eq!(Route::all().len(), 5);
    }

    #[test]
    fn switch_counts() {
        assert_eq!(Route::a0().switches_traversed(), 0);
        assert_eq!(Route::a2().switches_traversed(), 1);
        assert_eq!(Route::b().switches_traversed(), 3);
        assert_eq!(Route::c().switches_traversed(), 5);
    }
}
