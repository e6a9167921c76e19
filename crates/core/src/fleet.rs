//! Fleet sizing and total cost of ownership.
//!
//! The paper's Table VIII prices the track and motors; a deployment also
//! needs carts — and the carts' SSDs dominate everything else. This module
//! sizes a fleet to sustain a target embodied bandwidth and prices the
//! whole system, answering the practical question Table VIII stops short
//! of: *dollars per sustained TB/s*.

use dhl_units::{Bytes, BytesPerSecond, Seconds, Usd};

use crate::config::DhlConfig;
use crate::cost::CostModel;
use crate::launch::LaunchMetrics;

/// How the track is operated, which sets the sustained per-track rate.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum PipelineModel {
    /// The paper's conservative accounting: one cart at a time, out and
    /// back — rate = capacity / (2 × trip time).
    SerialRoundTrips,
    /// One-way launches at the trip cadence (returns on a second track or
    /// hidden behind processing) — rate = capacity / trip time.
    PipelinedOneWay,
    /// Dual-track launches at the docking headway — rate = capacity /
    /// headway (the §III-B.5 ceiling).
    HeadwayLimited,
}

/// Prices not covered by Table VIII: the carts themselves.
#[derive(Clone, PartialEq, Debug)]
pub struct CartCostModel {
    /// SSD price per decimal terabyte (May 2023 street price of the 8 TB
    /// Rocket 4 Plus ≈ $900 ⇒ ≈ $110/TB; we round to $100/TB).
    pub ssd_usd_per_tb: f64,
    /// Everything else on the cart (magnets, fin, frame, connectors).
    pub chassis_usd: f64,
}

impl CartCostModel {
    /// May 2023 street prices.
    #[must_use]
    pub fn paper_era() -> Self {
        Self {
            ssd_usd_per_tb: 100.0,
            chassis_usd: 500.0,
        }
    }

    /// Price of one cart of the given capacity.
    #[must_use]
    pub fn cart_cost(&self, capacity: Bytes) -> Usd {
        Usd::new(capacity.terabytes() * self.ssd_usd_per_tb + self.chassis_usd)
    }
}

/// A sized and priced deployment.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetPlan {
    /// Parallel tracks required.
    pub tracks: u32,
    /// Carts in circulation per track (enough to keep the launch cadence
    /// fed through a full round trip).
    pub carts_per_track: u32,
    /// Docking stations needed at each endpoint per track.
    pub docks_per_endpoint: u32,
    /// Sustained embodied bandwidth the plan actually delivers.
    pub sustained_bandwidth: BytesPerSecond,
    /// Track + LIM materials (Table VIII), all tracks.
    pub infrastructure_cost: Usd,
    /// All carts (SSDs dominate).
    pub cart_cost: Usd,
    /// Infrastructure + carts.
    pub total_cost: Usd,
}

impl FleetPlan {
    /// Dollars per sustained TB/s — the figure of merit for comparing
    /// against network upgrades.
    #[must_use]
    pub fn usd_per_terabyte_per_second(&self) -> f64 {
        self.total_cost.value() / self.sustained_bandwidth.terabytes_per_second()
    }
}

/// Per-track sustained rate and launch cadence under a pipeline model.
#[must_use]
pub fn per_track_rate(cfg: &DhlConfig, model: PipelineModel) -> (BytesPerSecond, Seconds) {
    let m = LaunchMetrics::evaluate(cfg);
    let cadence = match model {
        PipelineModel::SerialRoundTrips => m.trip_time * 2.0,
        PipelineModel::PipelinedOneWay => m.trip_time,
        PipelineModel::HeadwayLimited => cfg.dock_time.max(cfg.undock_time),
    };
    (cfg.cart_capacity / cadence, cadence)
}

/// Sizes and prices a fleet to sustain `target` embodied bandwidth.
///
/// # Panics
///
/// Panics if `target` is not positive.
#[must_use]
pub fn plan_for_bandwidth(
    target: BytesPerSecond,
    cfg: &DhlConfig,
    model: PipelineModel,
    infra: &CostModel,
    carts: &CartCostModel,
) -> FleetPlan {
    assert!(target.value() > 0.0, "target bandwidth must be positive");
    let (rate, cadence) = per_track_rate(cfg, model);
    let tracks = (target.value() / rate.value()).ceil().max(1.0) as u32;

    // Carts in circulation: a round trip's worth of launch slots (out and
    // back), so the library never starves the cadence.
    let m = LaunchMetrics::evaluate(cfg);
    let round_trip = m.trip_time * 2.0;
    let carts_per_track = (round_trip.seconds() / cadence.seconds()).ceil().max(1.0) as u32;
    // Docks: carts simultaneously present or reserved at one endpoint.
    let docks_per_endpoint = carts_per_track.div_ceil(2).max(1);

    let infra_cost_one = infra.total_cost(cfg.track_length, cfg.max_speed);
    let infrastructure_cost = infra_cost_one * f64::from(tracks);
    let cart_cost = carts.cart_cost(cfg.cart_capacity) * f64::from(carts_per_track * tracks);
    FleetPlan {
        tracks,
        carts_per_track,
        docks_per_endpoint,
        sustained_bandwidth: rate * f64::from(tracks),
        infrastructure_cost,
        cart_cost,
        total_cost: infrastructure_cost + cart_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(target_tbps: f64, model: PipelineModel) -> FleetPlan {
        plan_for_bandwidth(
            BytesPerSecond::from_terabytes_per_second(target_tbps),
            &DhlConfig::paper_default(),
            model,
            &CostModel::paper(),
            &CartCostModel::paper_era(),
        )
    }

    #[test]
    fn per_track_rates_are_ordered() {
        let cfg = DhlConfig::paper_default();
        let (serial, _) = per_track_rate(&cfg, PipelineModel::SerialRoundTrips);
        let (oneway, _) = per_track_rate(&cfg, PipelineModel::PipelinedOneWay);
        let (headway, _) = per_track_rate(&cfg, PipelineModel::HeadwayLimited);
        assert!(serial < oneway);
        assert!(oneway < headway);
        // Serial: 256 TB / 17.2 s ≈ 14.9 TB/s; headway: 256/3 ≈ 85.3 TB/s.
        assert!((serial.terabytes_per_second() - 14.88).abs() < 0.01);
        assert!((headway.terabytes_per_second() - 85.33).abs() < 0.01);
    }

    #[test]
    fn one_track_covers_modest_targets() {
        let p = plan(10.0, PipelineModel::SerialRoundTrips);
        assert_eq!(p.tracks, 1);
        assert!(p.sustained_bandwidth.terabytes_per_second() >= 10.0);
        // Serial: one cart, one dock.
        assert_eq!(p.carts_per_track, 1);
        assert_eq!(p.docks_per_endpoint, 1);
    }

    #[test]
    fn big_targets_need_parallel_tracks() {
        let p = plan(100.0, PipelineModel::SerialRoundTrips);
        assert_eq!(p.tracks, 7); // ceil(100 / 14.88)
        let q = plan(100.0, PipelineModel::HeadwayLimited);
        assert_eq!(q.tracks, 2);
        // Pipelining needs more carts in total but buys far more sustained
        // bandwidth, so it wins on $/TB/s.
        assert!(
            q.usd_per_terabyte_per_second() < p.usd_per_terabyte_per_second(),
            "headway {} vs serial {}",
            q.usd_per_terabyte_per_second(),
            p.usd_per_terabyte_per_second()
        );
    }

    #[test]
    fn headway_model_needs_a_cart_fleet() {
        let p = plan(80.0, PipelineModel::HeadwayLimited);
        // Round trip 17.2 s / 3 s cadence ⇒ 6 carts circulating.
        assert_eq!(p.carts_per_track, 6);
        assert_eq!(p.docks_per_endpoint, 3);
    }

    #[test]
    fn ssds_dominate_the_bill() {
        let p = plan(80.0, PipelineModel::HeadwayLimited);
        assert!(
            p.cart_cost.value() > 5.0 * p.infrastructure_cost.value(),
            "carts {} vs infra {}",
            p.cart_cost.display_dollars(),
            p.infrastructure_cost.display_dollars()
        );
        // A 256 TB cart ≈ $26k of SSD.
        let one_cart = CartCostModel::paper_era().cart_cost(Bytes::from_terabytes(256.0));
        assert_eq!(one_cart.value(), 26_100.0);
    }

    #[test]
    fn dollars_per_tbps_beats_network_scaling() {
        // The paper's 1-hour transfer needs 64 Tb/s of 400 Gb/s switching:
        // ~160 switch ports ≈ 5 × $20k switches ≈ $100k for 8 TB/s of
        // payload bandwidth ⇒ $12.5k per TB/s. The DHL fleet undercuts it.
        let p = plan(80.0, PipelineModel::HeadwayLimited);
        assert!(
            p.usd_per_terabyte_per_second() < 12_500.0,
            "{}",
            p.usd_per_terabyte_per_second()
        );
    }

    #[test]
    #[should_panic(expected = "target bandwidth must be positive")]
    fn zero_target_rejected() {
        let _ = plan(0.0, PipelineModel::SerialRoundTrips);
    }
}
