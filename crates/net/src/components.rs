//! Network component power catalog (Table III).
//!
//! The paper's route energies use the bold Table III rows: the 400 Gb/s
//! transceiver, the dual-port 200 GbE NIC, and the NVIDIA QM9700 switch.
//! Switch per-port power depends on whether the attached cable is passive
//! (direct-attach copper, the low end of the datasheet range) or active
//! (optics, the high end).

use dhl_units::{GigabitsPerSecond, Watts};

/// An optical transceiver module.
#[derive(Clone, PartialEq, Debug)]
pub struct Transceiver {
    /// Product name.
    pub name: std::borrow::Cow<'static, str>,
    /// Line rate.
    pub rate: GigabitsPerSecond,
    /// Power drawn while active.
    pub power: Watts,
}

impl Transceiver {
    /// The Broadcom AFCT-91DRDHZ-class 400 Gb/s transceiver (Table III):
    /// 12 W.
    #[must_use]
    pub fn qsfp_dd_400g() -> Self {
        Self {
            name: "400G QSFP-DD transceiver".into(),
            rate: GigabitsPerSecond::new(400.0),
            power: Watts::new(12.0),
        }
    }
}

/// A network interface card.
#[derive(Clone, PartialEq, Debug)]
pub struct Nic {
    /// Product name.
    pub name: std::borrow::Cow<'static, str>,
    /// Aggregate rate across all ports.
    pub rate: GigabitsPerSecond,
    /// Datasheet power range low end (passive cabling).
    pub power_min: Watts,
    /// Datasheet power range high end (active cabling, full load).
    pub power_max: Watts,
}

impl Nic {
    /// Intel E810/Broadcom N1100G-class 100 GbE NIC (Table III):
    /// 15.8–22.5 W.
    #[must_use]
    pub fn single_100g() -> Self {
        Self {
            name: "100GbE NIC".into(),
            rate: GigabitsPerSecond::new(100.0),
            power_min: Watts::new(15.8),
            power_max: Watts::new(22.5),
        }
    }

    /// Broadcom P2200G / ConnectX-6 dual-port 200 GbE NIC (Table III, bold):
    /// 17–23.3 W; 400 Gb/s aggregate using both ports.
    #[must_use]
    pub fn dual_200g() -> Self {
        Self {
            name: "2x200GbE NIC".into(),
            rate: GigabitsPerSecond::new(400.0),
            power_min: Watts::new(17.0),
            power_max: Watts::new(23.3),
        }
    }

    /// Power at the paper's operating point.
    ///
    /// Calibrated to 19.8 W — the value that reproduces the paper's route A1
    /// energy of 22.97 MJ exactly (2 NICs × 19.8 W × 580 000 s); it sits
    /// inside the 17–23.3 W datasheet range.
    #[must_use]
    pub fn operating_power(&self) -> Watts {
        // Paper calibration applies to the dual-200G part used in routes;
        // for other NICs use the range midpoint.
        if self.name == "2x200GbE NIC" {
            Watts::new(19.8)
        } else {
            (self.power_min + self.power_max) * 0.5
        }
    }
}

/// A data-centre switch with per-port power accounting.
#[derive(Clone, PartialEq, Debug)]
pub struct Switch {
    /// Product name.
    pub name: std::borrow::Cow<'static, str>,
    /// Per-port line rate.
    pub port_rate: GigabitsPerSecond,
    /// Number of ports.
    pub ports: u32,
    /// Chassis power with all-passive cabling (datasheet minimum).
    pub power_passive: Watts,
    /// Chassis power with all-active cabling (datasheet maximum).
    pub power_active: Watts,
}

impl Switch {
    /// NVIDIA QM9700 NDR switch (Table III, bold): 32 × 400 Gb/s,
    /// 747–1720 W.
    #[must_use]
    pub fn qm9700() -> Self {
        Self {
            name: "NVIDIA QM9700".into(),
            port_rate: GigabitsPerSecond::new(400.0),
            ports: 32,
            power_passive: Watts::new(747.0),
            power_active: Watts::new(1720.0),
        }
    }

    /// Cisco Nexus 9364D-GX2A (Table III): 64 × 400 Gb/s, 1324–3000 W.
    #[must_use]
    pub fn nexus_9364d_gx2a() -> Self {
        Self {
            name: "Cisco Nexus 9364D-GX2A".into(),
            port_rate: GigabitsPerSecond::new(400.0),
            ports: 64,
            power_passive: Watts::new(1324.0),
            power_active: Watts::new(3000.0),
        }
    }

    /// Per-port power with a passive (DAC) cable attached.
    #[must_use]
    pub fn port_power_passive(&self) -> Watts {
        self.power_passive / f64::from(self.ports)
    }

    /// Per-port power with an active (optical) cable attached.
    #[must_use]
    pub fn port_power_active(&self) -> Watts {
        self.power_active / f64::from(self.ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        let t = Transceiver::qsfp_dd_400g();
        assert_eq!(t.power.value(), 12.0);
        assert_eq!(t.rate.value(), 400.0);

        let nic = Nic::dual_200g();
        assert_eq!(nic.power_min.value(), 17.0);
        assert_eq!(nic.power_max.value(), 23.3);
        assert_eq!(nic.rate.value(), 400.0);

        let sw = Switch::qm9700();
        assert_eq!(sw.ports, 32);
        assert_eq!(sw.power_passive.value(), 747.0);
        assert_eq!(sw.power_active.value(), 1720.0);

        let cisco = Switch::nexus_9364d_gx2a();
        assert_eq!(cisco.ports, 64);
        assert_eq!(cisco.power_active.value(), 3000.0);
    }

    #[test]
    fn qm9700_per_port_power() {
        let sw = Switch::qm9700();
        assert!((sw.port_power_passive().value() - 23.34375).abs() < 1e-9);
        assert!((sw.port_power_active().value() - 53.75).abs() < 1e-9);
    }

    #[test]
    fn nic_operating_point_is_within_datasheet_range() {
        let nic = Nic::dual_200g();
        let p = nic.operating_power().value();
        assert_eq!(p, 19.8);
        assert!(p >= nic.power_min.value() && p <= nic.power_max.value());
        // 100G NIC uses the midpoint.
        let p100 = Nic::single_100g().operating_power().value();
        assert!((p100 - 19.15).abs() < 1e-9);
    }

    #[test]
    fn cisco_is_less_port_efficient_passively() {
        // Per-port, the 64-port Cisco is cheaper passive but both are in
        // the same regime; sanity-check the arithmetic direction.
        let cisco = Switch::nexus_9364d_gx2a();
        assert!((cisco.port_power_passive().value() - 20.6875).abs() < 1e-9);
        assert!((cisco.port_power_active().value() - 46.875).abs() < 1e-9);
    }
}
