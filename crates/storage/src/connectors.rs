//! Docking-connector endurance (§VI "Increasing Connector Longevity").
//!
//! M.2 connectors are rated for only hundreds of mating cycles, while USB-C
//! (which can physically carry PCIe) is rated for 10k–20k — the paper's
//! choice for repeated docking. This module tracks connector wear so the
//! simulator can schedule maintenance.

/// Connector family used between the cart and the docking station.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum ConnectorKind {
    /// A bare M.2 edge connector: rated for ~250 cycles ("100s of cycles").
    M2,
    /// USB-C carrying PCIe: rated 10 000–20 000 cycles; we use the
    /// conservative end.
    UsbC,
}

impl ConnectorKind {
    /// Rated mating cycles before replacement (conservative datasheet end).
    #[must_use]
    pub fn rated_cycles(self) -> u32 {
        match self {
            Self::M2 => 250,
            Self::UsbC => 10_000,
        }
    }
}

/// A physical connector with a wear counter.
///
/// # Examples
///
/// ```rust
/// use dhl_storage::connectors::{ConnectorKind, DockingConnector};
///
/// let mut conn = DockingConnector::new(ConnectorKind::UsbC);
/// for _ in 0..9_999 { assert!(conn.mate().is_ok()); }
/// assert!(conn.mate().is_ok());       // 10 000th and last rated cycle
/// assert!(conn.mate().is_err());      // now worn out
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DockingConnector {
    kind: ConnectorKind,
    cycles_used: u32,
}

/// Error returned when mating a worn-out connector.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ConnectorWornOut {
    /// The connector family that wore out.
    pub kind: ConnectorKind,
    /// Cycles it had sustained.
    pub cycles_used: u32,
}

impl core::fmt::Display for ConnectorWornOut {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "connector {:?} exceeded its {} rated mating cycles",
            self.kind, self.cycles_used
        )
    }
}

impl std::error::Error for ConnectorWornOut {}

impl DockingConnector {
    /// A fresh connector of the given family.
    #[must_use]
    pub fn new(kind: ConnectorKind) -> Self {
        Self {
            kind,
            cycles_used: 0,
        }
    }

    /// A connector of the given family that has already sustained
    /// `cycles_used` matings: the state `cycles_used` successful
    /// [`DockingConnector::mate`] calls leave on a fresh one. `None` when
    /// the count exceeds the rating, which no sequence of matings reaches.
    #[must_use]
    pub fn with_cycles_used(kind: ConnectorKind, cycles_used: u32) -> Option<Self> {
        (cycles_used <= kind.rated_cycles()).then_some(Self { kind, cycles_used })
    }

    /// The connector family.
    #[must_use]
    pub fn kind(&self) -> ConnectorKind {
        self.kind
    }

    /// Cycles consumed so far.
    #[must_use]
    pub fn cycles_used(&self) -> u32 {
        self.cycles_used
    }

    /// Remaining rated cycles.
    #[must_use]
    pub fn cycles_remaining(&self) -> u32 {
        self.kind.rated_cycles().saturating_sub(self.cycles_used)
    }

    /// Whether the connector has exhausted its rating.
    #[must_use]
    pub fn is_worn_out(&self) -> bool {
        self.cycles_used >= self.kind.rated_cycles()
    }

    /// Records one mating (dock) cycle.
    ///
    /// # Errors
    ///
    /// [`ConnectorWornOut`] once the rated cycle count is exhausted; the
    /// wear counter stops advancing.
    pub fn mate(&mut self) -> Result<(), ConnectorWornOut> {
        if self.is_worn_out() {
            return Err(ConnectorWornOut {
                kind: self.kind,
                cycles_used: self.cycles_used,
            });
        }
        self.cycles_used += 1;
        Ok(())
    }

    /// Replaces the connector, resetting wear to zero.
    pub fn replace(&mut self) {
        self.cycles_used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usb_c_outlasts_m2_by_40x() {
        assert_eq!(
            ConnectorKind::UsbC.rated_cycles() / ConnectorKind::M2.rated_cycles(),
            40
        );
    }

    #[test]
    fn m2_wears_out_within_a_day_of_heavy_docking() {
        // At one dock every 8.6 s trip, 250 cycles last ~36 minutes of
        // continuous 29 PB-scale shuttling — why §VI rejects bare M.2.
        let mut conn = DockingConnector::new(ConnectorKind::M2);
        let mut ok = 0;
        while conn.mate().is_ok() {
            ok += 1;
        }
        assert_eq!(ok, 250);
        assert!(conn.is_worn_out());
    }

    #[test]
    fn wear_tracking_and_replacement() {
        let mut conn = DockingConnector::new(ConnectorKind::UsbC);
        assert_eq!(conn.cycles_remaining(), 10_000);
        conn.mate().unwrap();
        conn.mate().unwrap();
        assert_eq!(conn.cycles_used(), 2);
        assert_eq!(conn.cycles_remaining(), 9_998);
        conn.replace();
        assert_eq!(conn.cycles_used(), 0);
        assert!(!conn.is_worn_out());
    }

    #[test]
    fn with_cycles_used_matches_repeated_mating_up_to_the_rating() {
        let mut mated = DockingConnector::new(ConnectorKind::M2);
        for n in 0..=250 {
            assert_eq!(
                DockingConnector::with_cycles_used(ConnectorKind::M2, n),
                Some(mated)
            );
            let _ = mated.mate();
        }
        assert_eq!(
            DockingConnector::with_cycles_used(ConnectorKind::M2, 251),
            None
        );
        assert_eq!(
            DockingConnector::with_cycles_used(ConnectorKind::UsbC, u32::MAX),
            None
        );
    }

    #[test]
    fn worn_out_error_displays_context() {
        let mut conn = DockingConnector::new(ConnectorKind::M2);
        for _ in 0..250 {
            conn.mate().unwrap();
        }
        let err = conn.mate().unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("M2"));
        assert!(msg.contains("250"));
    }

    #[test]
    fn enough_usb_c_cycles_for_a_year_of_daily_backups() {
        // A daily backup run needing 2×114 dockings per day uses 83 220
        // cycles/year — 9 connector replacements, vs 333 for M.2.
        let per_year = 2 * 114 * 365u32;
        let usbc_replacements = per_year.div_ceil(ConnectorKind::UsbC.rated_cycles());
        let m2_replacements = per_year.div_ceil(ConnectorKind::M2.rated_cycles());
        assert_eq!(usbc_replacements, 9);
        assert_eq!(m2_replacements, 333);
    }
}
