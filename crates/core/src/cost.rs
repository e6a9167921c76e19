//! Commodity cost model (§V-D, Table VIII; May 2023 prices).

use dhl_units::{Metres, MetresPerSecond, Usd};

/// Unit prices and per-unit masses behind Table VIII.
///
/// # Examples
///
/// ```rust
/// use dhl_core::cost::CostModel;
/// use dhl_units::{Metres, MetresPerSecond};
///
/// let model = CostModel::paper();
/// let total = model.total_cost(Metres::new(500.0), MetresPerSecond::new(200.0));
/// assert_eq!(total.display_dollars(), "$14,569"); // Table VIII (c)
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct CostModel {
    /// Aluminium price, USD/kg.
    pub aluminium_usd_per_kg: f64,
    /// PVC price, USD/kg.
    pub pvc_usd_per_kg: f64,
    /// Copper wire price, USD/kg.
    pub copper_usd_per_kg: f64,
    /// Mass of one levitation ring, kg (§V-D: ≈ 3.62 g each).
    pub ring_mass_kg: f64,
    /// Levitation rings per metre of rail (derived from Table VIII (a):
    /// $117 of aluminium per 100 m at $2.35/kg ⇒ 497.9 g/m ⇒ 137.5 rings/m
    /// across both rails).
    pub rings_per_metre: f64,
    /// PVC rail mass per metre, kg (Table VIII (a): $116 / 100 m ⇒
    /// 0.967 kg/m).
    pub rail_pvc_kg_per_metre: f64,
    /// PVC vacuum-tube mass per metre, kg (Table VIII (a): $500 / 100 m ⇒
    /// 4.167 kg/m).
    pub tube_pvc_kg_per_metre: f64,
    /// Variable-frequency drive price (flat, Table VIII (b)).
    pub vfd_usd: f64,
}

/// Itemised rail cost (Table VIII (a)).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RailCost {
    /// Aluminium levitation rings.
    pub aluminium: Usd,
    /// PVC rail structure.
    pub pvc_rail: Usd,
    /// PVC vacuum tube.
    pub pvc_tube: Usd,
}

impl RailCost {
    /// Sum of all rail items.
    #[must_use]
    pub fn total(&self) -> Usd {
        self.aluminium + self.pvc_rail + self.pvc_tube
    }
}

/// Itemised accelerator/decelerator cost (Table VIII (b)).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LimCost {
    /// Current-carrying copper coils.
    pub copper: Usd,
    /// The variable-frequency drive.
    pub vfd: Usd,
}

impl LimCost {
    /// Sum of the LIM items.
    #[must_use]
    pub fn total(&self) -> Usd {
        self.copper + self.vfd
    }
}

impl CostModel {
    /// The paper's May 2023 commodity prices.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            aluminium_usd_per_kg: 2.35,
            pvc_usd_per_kg: 1.20,
            copper_usd_per_kg: 8.58,
            ring_mass_kg: 3.62e-3,
            rings_per_metre: 117.0 / (2.35 * 3.62e-3) / 100.0, // ⇒ $117/100 m
            rail_pvc_kg_per_metre: 116.0 / 1.20 / 100.0,       // ⇒ $116/100 m
            tube_pvc_kg_per_metre: 500.0 / 1.20 / 100.0,       // ⇒ $500/100 m
            vfd_usd: 8_000.0,
        }
    }

    /// Copper coil mass for a LIM rated to a given top speed.
    ///
    /// Calibrated from Table VIII (b): $792 / $2 904 / $6 512 of copper at
    /// $8.58/kg for 100 / 200 / 300 m/s (masses 92.3 / 338.5 / 759.0 kg —
    /// roughly 17 kg per metre of LIM plus end-winding overhead). Values
    /// between the paper's anchors are linearly interpolated; outside them,
    /// extrapolated from the nearest segment.
    #[must_use]
    pub fn copper_coil_mass_kg(&self, speed: MetresPerSecond) -> f64 {
        const ANCHORS: [(f64, f64); 3] = [(100.0, 92.3077), (200.0, 338.4615), (300.0, 758.9744)];
        let v = speed.value();
        let seg = if v <= ANCHORS[1].0 {
            (ANCHORS[0], ANCHORS[1])
        } else {
            (ANCHORS[1], ANCHORS[2])
        };
        let ((v0, m0), (v1, m1)) = seg;
        let t = (v - v0) / (v1 - v0);
        (m0 + t * (m1 - m0)).max(0.0)
    }

    /// Itemised rail cost over a distance (Table VIII (a)).
    #[must_use]
    pub fn rail_cost(&self, distance: Metres) -> RailCost {
        let d = distance.value();
        let aluminium_kg = self.rings_per_metre * self.ring_mass_kg * d;
        RailCost {
            aluminium: Usd::new(aluminium_kg * self.aluminium_usd_per_kg),
            pvc_rail: Usd::new(self.rail_pvc_kg_per_metre * d * self.pvc_usd_per_kg),
            pvc_tube: Usd::new(self.tube_pvc_kg_per_metre * d * self.pvc_usd_per_kg),
        }
    }

    /// Itemised accelerator cost for a top speed (Table VIII (b)).
    #[must_use]
    pub fn lim_cost(&self, speed: MetresPerSecond) -> LimCost {
        LimCost {
            copper: Usd::new(self.copper_coil_mass_kg(speed) * self.copper_usd_per_kg),
            vfd: Usd::new(self.vfd_usd),
        }
    }

    /// Overall cost of a DHL (Table VIII (c)): rail + one LIM assembly, as
    /// the paper's total column sums.
    #[must_use]
    pub fn total_cost(&self, distance: Metres, speed: MetresPerSecond) -> Usd {
        self.rail_cost(distance).total() + self.lim_cost(speed).total()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: Usd, want: f64) -> bool {
        (got.value() - want).abs() <= want * 0.005 + 1.0
    }

    #[test]
    fn table_viii_a_rail_costs() {
        let m = CostModel::paper();
        for (d, alu, rail, tube, total) in [
            (100.0, 117.0, 116.0, 500.0, 733.0),
            (500.0, 585.0, 580.0, 2_500.0, 3_665.0),
            (1000.0, 1_170.0, 1_160.0, 5_000.0, 7_330.0),
        ] {
            let c = m.rail_cost(Metres::new(d));
            assert!(close(c.aluminium, alu), "{d} m aluminium: {}", c.aluminium);
            assert!(close(c.pvc_rail, rail), "{d} m rail: {}", c.pvc_rail);
            assert!(close(c.pvc_tube, tube), "{d} m tube: {}", c.pvc_tube);
            assert!(close(c.total(), total), "{d} m total: {}", c.total());
        }
    }

    #[test]
    fn table_viii_b_lim_costs() {
        let m = CostModel::paper();
        for (v, copper, total) in [
            (100.0, 792.0, 8_792.0),
            (200.0, 2_904.0, 10_904.0),
            (300.0, 6_512.0, 14_512.0),
        ] {
            let c = m.lim_cost(MetresPerSecond::new(v));
            assert!(close(c.copper, copper), "{v} m/s copper: {}", c.copper);
            assert!(close(c.total(), total), "{v} m/s total: {}", c.total());
        }
    }

    #[test]
    fn table_viii_c_grid() {
        let m = CostModel::paper();
        let grid = [
            (100.0, 100.0, 9_525.0),
            (100.0, 200.0, 11_637.0),
            (100.0, 300.0, 15_245.0),
            (500.0, 100.0, 12_457.0),
            (500.0, 200.0, 14_569.0),
            (500.0, 300.0, 18_177.0),
            (1000.0, 100.0, 16_122.0),
            (1000.0, 200.0, 18_234.0),
            (1000.0, 300.0, 21_842.0),
        ];
        for (d, v, want) in grid {
            let got = m.total_cost(Metres::new(d), MetresPerSecond::new(v));
            assert!(close(got, want), "{d} m / {v} m/s: {got} vs {want}");
        }
    }

    #[test]
    fn dhl_costs_about_as_much_as_a_big_switch() {
        // §V-D: "roughly twenty thousand dollars, which is a typical price
        // for a large 400gbps switch".
        let m = CostModel::paper();
        let typical = m.total_cost(Metres::new(1000.0), MetresPerSecond::new(300.0));
        assert!(typical.value() > 15_000.0 && typical.value() < 25_000.0);
    }

    #[test]
    fn interpolation_between_anchors_is_monotone() {
        let m = CostModel::paper();
        let mut prev = 0.0;
        for v in (100..=300).step_by(10) {
            let mass = m.copper_coil_mass_kg(MetresPerSecond::new(v as f64));
            assert!(mass > prev, "{v}: {mass}");
            prev = mass;
        }
    }

    #[test]
    fn display_matches_paper_formatting() {
        let m = CostModel::paper();
        assert_eq!(
            m.total_cost(Metres::new(500.0), MetresPerSecond::new(200.0))
                .display_dollars(),
            "$14,569"
        );
        assert_eq!(
            m.total_cost(Metres::new(100.0), MetresPerSecond::new(100.0))
                .display_dollars(),
            "$9,525"
        );
    }
}
