//! Per-movement physics: time, energy, and speed for one cart hop.

use dhl_units::{Joules, Metres, MetresPerSecond, Seconds};

use crate::config::SimConfig;

/// Precomputed cost of moving one cart over a given distance.
///
/// Shared by the event-driven simulator and the synchronous API facade so
/// both account movements identically.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MovementCost {
    /// Cruise speed actually reachable on this hop (≤ configured max; short
    /// hops cannot fit the full ramps).
    pub speed: MetresPerSecond,
    /// Time from undock start to dock completion.
    pub total_time: Seconds,
    /// Motion time only (excludes dock/undock).
    pub motion_time: Seconds,
    /// Net electrical energy: acceleration + braking + levitation drag +
    /// active stabilisation.
    pub energy: Joules,
}

impl MovementCost {
    /// Computes the cost of one hop of `distance` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not strictly positive (a zero-length hop is a
    /// scheduling bug, not a physical movement).
    #[must_use]
    pub fn for_distance(cfg: &SimConfig, distance: Metres) -> Self {
        Self::for_distance_limited(cfg, distance, cfg.max_speed)
    }

    /// Like [`MovementCost::for_distance`], but with an additional speed cap
    /// below the configured maximum — used when a tube section is
    /// repressurised and drag limits the safe cruise.
    ///
    /// # Panics
    ///
    /// Panics if `distance` or `speed_cap` is not strictly positive.
    #[must_use]
    pub fn for_distance_limited(
        cfg: &SimConfig,
        distance: Metres,
        speed_cap: MetresPerSecond,
    ) -> Self {
        assert!(
            distance.value() > 0.0,
            "movement distance must be positive, got {distance:?}"
        );
        assert!(
            speed_cap.value() > 0.0,
            "speed cap must be positive, got {speed_cap:?}"
        );
        let accel = cfg.lim.acceleration();
        // The hop must fit both ramps: d ≥ v²/a ⇒ v ≤ √(a·d).
        let fit_speed = MetresPerSecond::new((accel.value() * distance.value()).sqrt());
        let speed = cfg.max_speed.min(speed_cap).min(fit_speed);
        let kin = dhl_physics::TripKinematics::new(distance, speed, accel)
            .expect("speed was chosen to fit the hop");
        let motion_time = kin.motion_time(cfg.time_model);

        let accel_energy = cfg.lim.accel_energy(cfg.cart_mass, speed);
        let decel_energy = cfg.braking.decel_energy(cfg.cart_mass, speed);
        let drag = cfg.levitation.coasting_drag_loss(cfg.cart_mass, distance);
        let stabilisation = cfg.stabilisation.energy(motion_time);
        let energy = accel_energy + decel_energy + drag + stabilisation;

        Self {
            speed,
            total_time: cfg.undock_time + motion_time + cfg.dock_time,
            motion_time,
            energy,
        }
    }
}

/// Precomputed per-hop movement costs for every hop the simulator, the
/// serving scheduler and [`crate::api::DhlApi`] make: each starts or ends
/// at the library (endpoint 0), so the table holds one entry per rack — the
/// table the hot paths read instead of re-running the trapezoid per event,
/// arrival or command. A hop's cost depends only on its length, so a rack's
/// outbound and inbound hops share the entry.
///
/// Two tiers mirror the two speeds a launch can happen at: `full` (the
/// configured maximum) and `degraded` (the repressurisation cap, present
/// only when that fault is configured). Each entry is one
/// [`MovementCost::for_distance_limited`] call, so the table cannot
/// perturb a single bit of the physics.
#[derive(Clone, Debug)]
pub struct MovementTable {
    /// Full-speed costs; rack `r`'s hop is at index `r - 1`.
    full: Vec<MovementCost>,
    /// Speed-capped costs for launches during a repressurisation window.
    degraded: Option<Vec<MovementCost>>,
}

impl MovementTable {
    /// Builds the table for `cfg`'s endpoints, with a degraded tier when a
    /// repressurisation `speed_cap` applies.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no endpoints or a rack's distance from the
    /// library is not strictly positive (zero or NaN).
    #[must_use]
    pub fn build(cfg: &SimConfig, degraded_cap: Option<MetresPerSecond>) -> Self {
        let library = cfg.endpoints[0].position;
        let tier = |cap: MetresPerSecond| -> Vec<MovementCost> {
            cfg.endpoints[1..]
                .iter()
                .map(|rack| {
                    MovementCost::for_distance_limited(cfg, (rack.position - library).abs(), cap)
                })
                .collect()
        };
        Self {
            full: tier(cfg.max_speed),
            degraded: degraded_cap.map(tier),
        }
    }

    /// Full-speed cost of the `from → to` hop, one end of which is the
    /// library.
    ///
    /// # Panics
    ///
    /// Panics if both ends are the library or the other is out of range.
    #[must_use]
    pub fn cost(&self, from: usize, to: usize) -> MovementCost {
        self.full[from + to - 1]
    }

    /// Speed-capped cost of the `from → to` hop while the tube is
    /// repressurised; falls back to the full-speed cost when no degraded
    /// tier is configured (mirroring the simulator's cap fallback).
    ///
    /// # Panics
    ///
    /// As [`MovementTable::cost`].
    #[must_use]
    pub(crate) fn degraded_cost(&self, from: usize, to: usize) -> MovementCost {
        self.degraded.as_ref().unwrap_or(&self.full)[from + to - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn default_hop_matches_paper_numbers() {
        let cfg = SimConfig::paper_default();
        let cost = MovementCost::for_distance(&cfg, Metres::new(500.0));
        assert_eq!(cost.speed.value(), 200.0);
        assert!((cost.total_time.seconds() - 8.6).abs() < 1e-9);
        assert!((cost.motion_time.seconds() - 2.6).abs() < 1e-9);
        // Launch energy 15.04 kJ plus small drag (138 J) and stabilisation
        // (13 J) terms the analytical model neglects.
        assert!((cost.energy.kilojoules() - 15.04).abs() < 0.2);
        assert!(cost.energy.kilojoules() > 15.04);
    }

    #[test]
    fn short_hops_cap_the_speed() {
        let cfg = SimConfig::paper_default();
        // 10 m hop: √(1000·10) = 100 m/s < 200 m/s.
        let cost = MovementCost::for_distance(&cfg, Metres::new(10.0));
        assert!((cost.speed.value() - 100.0).abs() < 1e-9);
        // Slower hop costs less energy.
        let full = MovementCost::for_distance(&cfg, Metres::new(500.0));
        assert!(cost.energy < full.energy);
    }

    #[test]
    fn longer_distance_same_speed_same_launch_energy() {
        let cfg = SimConfig::paper_default();
        let e500 = MovementCost::for_distance(&cfg, Metres::new(500.0));
        let e1000 = MovementCost::for_distance(&cfg, Metres::new(1000.0));
        // Energy barely grows (drag + stabilisation only)...
        assert!(e1000.energy.value() > e500.energy.value());
        assert!(e1000.energy.value() - e500.energy.value() < 300.0);
        // ...but time grows with the cruise.
        assert!(e1000.total_time > e500.total_time);
    }

    #[test]
    #[should_panic(expected = "movement distance must be positive")]
    fn zero_distance_panics() {
        let _ = MovementCost::for_distance(&SimConfig::paper_default(), Metres::ZERO);
    }

    #[test]
    fn speed_cap_slows_and_cheapens_the_hop() {
        let cfg = SimConfig::paper_default();
        let full = MovementCost::for_distance(&cfg, Metres::new(500.0));
        let capped = MovementCost::for_distance_limited(
            &cfg,
            Metres::new(500.0),
            MetresPerSecond::new(50.0),
        );
        assert_eq!(capped.speed.value(), 50.0);
        assert!(capped.total_time > full.total_time);
        assert!(capped.energy < full.energy);
        // A cap above max_speed changes nothing.
        let loose = MovementCost::for_distance_limited(
            &cfg,
            Metres::new(500.0),
            MetresPerSecond::new(1000.0),
        );
        assert_eq!(loose, full);
    }

    #[test]
    #[should_panic(expected = "speed cap must be positive")]
    fn zero_speed_cap_panics() {
        let _ = MovementCost::for_distance_limited(
            &SimConfig::paper_default(),
            Metres::new(500.0),
            MetresPerSecond::ZERO,
        );
    }

    #[test]
    fn movement_table_matches_direct_evaluation() {
        use crate::config::{EndpointKind, EndpointSpec};
        let mut cfg = SimConfig::paper_default();
        cfg.endpoints = vec![
            EndpointSpec {
                position: Metres::ZERO,
                docks: cfg.num_carts,
                kind: EndpointKind::Library,
            },
            EndpointSpec {
                position: Metres::new(250.0),
                docks: 4,
                kind: EndpointKind::Rack,
            },
            EndpointSpec {
                position: Metres::new(500.0),
                docks: 4,
                kind: EndpointKind::Rack,
            },
        ];
        let cap = MetresPerSecond::new(50.0);
        let table = MovementTable::build(&cfg, Some(cap));
        for rack in 1..3 {
            for (from, to) in [(0, rack), (rack, 0)] {
                let d = (cfg.endpoints[to].position - cfg.endpoints[from].position).abs();
                assert_eq!(table.cost(from, to), MovementCost::for_distance(&cfg, d));
                assert_eq!(
                    table.degraded_cost(from, to),
                    MovementCost::for_distance_limited(&cfg, d, cap)
                );
            }
        }
        // Without a degraded tier the capped lookup falls back to full.
        let flat = MovementTable::build(&cfg, None);
        assert_eq!(flat.degraded_cost(0, 2), flat.cost(0, 2));
    }
}
