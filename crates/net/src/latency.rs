//! Small-message latency of the optical routes.
//!
//! §VI notes that "DHL looks like a more limited traditional network link
//! (with e.g. high latency)". To make that comparison concrete this module
//! models the optical side's latency — switch hops, NIC/transceiver
//! serialisation, and speed-of-light propagation — so the DHL's
//! seconds-scale "first byte" latency can be contrasted with the network's
//! microseconds.

use dhl_units::{Bytes, Metres, Seconds};

use crate::route::Route;

/// Latency parameters of an electrically switched optical fabric.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LatencyModel {
    /// Per-switch store-and-forward/arbitration latency.
    pub switch_latency: Seconds,
    /// Per-endpoint NIC + transceiver latency (applied twice).
    pub endpoint_latency: Seconds,
    /// Propagation speed in fibre, m/s (≈ 2/3 c).
    pub propagation_speed: f64,
}

impl LatencyModel {
    /// Typical cut-through data-centre numbers: 500 ns per switch, 1 µs per
    /// endpoint, 2·10⁸ m/s in fibre.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            switch_latency: Seconds::new(500e-9),
            endpoint_latency: Seconds::new(1e-6),
            propagation_speed: 2.0e8,
        }
    }

    /// One-way first-byte latency of a route over a physical distance.
    #[must_use]
    pub fn first_byte(&self, route: &Route, distance: Metres) -> Seconds {
        self.endpoint_latency * 2.0
            + self.switch_latency * f64::from(route.switches_traversed())
            + Seconds::new(distance.value() / self.propagation_speed)
    }

    /// Total time to move `data`: first-byte latency plus serialisation at
    /// the line rate.
    #[must_use]
    pub fn message_time(&self, route: &Route, distance: Metres, data: Bytes) -> Seconds {
        self.first_byte(route, distance) + route.transfer_time(data)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_byte_is_microseconds() {
        let m = LatencyModel::typical();
        let l = m.first_byte(&Route::c(), Metres::new(500.0));
        // 2 µs endpoints + 2.5 µs switches + 2.5 µs propagation = 7 µs.
        assert!((l.seconds() - 7.0e-6).abs() < 1e-9);
    }

    #[test]
    fn latency_grows_with_switch_count() {
        let m = LatencyModel::typical();
        let d = Metres::new(500.0);
        let a0 = m.first_byte(&Route::a0(), d);
        let b = m.first_byte(&Route::b(), d);
        let c = m.first_byte(&Route::c(), d);
        assert!(a0 < b);
        assert!(b < c);
    }

    #[test]
    fn dhl_first_byte_is_six_orders_of_magnitude_worse() {
        // The DHL's "first byte" is a full trip: 8.6 s vs ~7 µs — §VI's
        // "high latency link" quantified. The crossover is therefore purely
        // a bandwidth story.
        let optical = LatencyModel::typical()
            .first_byte(&Route::c(), Metres::new(500.0))
            .seconds();
        let dhl_trip = 8.6;
        assert!(dhl_trip / optical > 1e6);
    }

    #[test]
    fn small_messages_are_latency_bound_large_are_bandwidth_bound() {
        let m = LatencyModel::typical();
        let d = Metres::new(500.0);
        let tiny = m.message_time(&Route::b(), d, Bytes::new(64));
        let big = m.message_time(&Route::b(), d, Bytes::from_terabytes(1.0));
        // 64 B serialises in ~1.3 ns: latency dominates.
        assert!(tiny.seconds() < 1e-5);
        // 1 TB at 400 Gb/s is 20 s: bandwidth dominates.
        assert!((big.seconds() - 20.0).abs() < 0.001);
    }
}
