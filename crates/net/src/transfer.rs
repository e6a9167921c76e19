//! Parallel-link aggregation (§IV-E, §V-C).
//!
//! "The time taken to transfer data over an optical link can be reduced by
//! adding more links in parallel … at increased power." The iso-power
//! experiments fix a power budget and use the maximum (continuous, not
//! quantised — per the paper's simplification) number of links affordable.

use dhl_units::{Bytes, BytesPerSecond, Joules, Seconds, Watts};

use crate::route::Route;

/// A bundle of `n` parallel instances of a route.
///
/// `n` is a positive real number: the paper assumes "a continuous, not
/// quantised number of links for simplicity" when filling a power budget.
///
/// # Examples
///
/// ```rust
/// use dhl_net::route::Route;
/// use dhl_net::transfer::ParallelLinks;
/// use dhl_units::{Bytes, Watts};
///
/// // How many A0 links fit in the DHL's 1.75 kW average power?
/// let bundle = ParallelLinks::max_for_power(Route::a0(), Watts::new(1750.0)).unwrap();
/// assert!((bundle.link_count() - 72.9).abs() < 0.05);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct ParallelLinks {
    route: Route,
    count: f64,
}

/// Error constructing a degenerate bundle.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct InvalidLinkCount {
    /// The rejected count.
    pub count: f64,
}

impl core::fmt::Display for InvalidLinkCount {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "link count must be positive and finite, got {}",
            self.count
        )
    }
}

impl std::error::Error for InvalidLinkCount {}

impl ParallelLinks {
    /// A bundle of `count` links of `route`.
    ///
    /// # Errors
    ///
    /// [`InvalidLinkCount`] unless `count` is positive and finite.
    pub fn new(route: Route, count: f64) -> Result<Self, InvalidLinkCount> {
        if !(count > 0.0 && count.is_finite()) {
            return Err(InvalidLinkCount { count });
        }
        Ok(Self { route, count })
    }

    /// A single link.
    #[must_use]
    pub fn single(route: Route) -> Self {
        Self { route, count: 1.0 }
    }

    /// The largest (continuous) bundle affordable under `budget`.
    ///
    /// # Errors
    ///
    /// [`InvalidLinkCount`] if the budget does not cover even a vanishing
    /// fraction of one link (non-positive budget).
    pub fn max_for_power(route: Route, budget: Watts) -> Result<Self, InvalidLinkCount> {
        let per_link = route.power().value();
        Self::new(route, budget.value() / per_link)
    }

    /// The underlying route.
    #[must_use]
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// Number of parallel links (possibly fractional).
    #[must_use]
    pub fn link_count(&self) -> f64 {
        self.count
    }

    /// Aggregate bandwidth of the bundle.
    #[must_use]
    pub fn bandwidth(&self) -> BytesPerSecond {
        self.route.line_rate().bytes_per_second() * self.count
    }

    /// Total power of the bundle.
    #[must_use]
    pub fn power(&self) -> Watts {
        self.route.power() * self.count
    }

    /// Time to move `data` striped perfectly across the bundle.
    #[must_use]
    pub fn transfer_time(&self, data: Bytes) -> Seconds {
        self.bandwidth().transfer_time(data)
    }

    /// Energy to move `data` across the bundle.
    ///
    /// Note that energy is invariant in the link count: `n` links run for
    /// `1/n` of the time at `n×` the power.
    #[must_use]
    pub fn transfer_energy(&self, data: Bytes) -> Joules {
        self.power() * self.transfer_time(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATASET: Bytes = Bytes::new(29_000_000_000_000_000);

    #[test]
    fn single_link_matches_route() {
        let bundle = ParallelLinks::single(Route::b());
        assert!((bundle.transfer_time(DATASET).seconds() - 580_000.0).abs() < 1e-6);
        assert!(
            (bundle.transfer_energy(DATASET).value() - Route::b().transfer_energy(DATASET).value())
                .abs()
                < 1e-3
        );
    }

    #[test]
    fn n_links_cut_time_n_fold_at_constant_energy() {
        let one = ParallelLinks::single(Route::a0());
        let ten = ParallelLinks::new(Route::a0(), 10.0).unwrap();
        assert!(
            (one.transfer_time(DATASET).seconds() / ten.transfer_time(DATASET).seconds() - 10.0)
                .abs()
                < 1e-9
        );
        assert!(
            (one.transfer_energy(DATASET).value() - ten.transfer_energy(DATASET).value()).abs()
                < 1e-3
        );
    }

    #[test]
    fn power_budget_fills_exactly() {
        let budget = Watts::new(1750.0);
        for route in Route::all() {
            let bundle = ParallelLinks::max_for_power(route, budget).unwrap();
            assert!((bundle.power().value() - 1750.0).abs() < 1e-9);
        }
    }

    #[test]
    fn budget_link_counts_match_hand_math() {
        // 1750 W buys 72.9 A0 links but only 3.39 C links.
        let a0 = ParallelLinks::max_for_power(Route::a0(), Watts::new(1750.0)).unwrap();
        let c = ParallelLinks::max_for_power(Route::c(), Watts::new(1750.0)).unwrap();
        assert!((a0.link_count() - 72.9166).abs() < 1e-3);
        assert!((c.link_count() - 3.3896).abs() < 1e-3);
        // ...so the same budget moves data 21.5× slower over route C.
        let ratio = c.transfer_time(DATASET).seconds() / a0.transfer_time(DATASET).seconds();
        assert!((ratio - 21.512).abs() < 0.01);
    }

    #[test]
    fn invalid_counts_rejected() {
        assert!(ParallelLinks::new(Route::a0(), 0.0).is_err());
        assert!(ParallelLinks::new(Route::a0(), -1.0).is_err());
        assert!(ParallelLinks::new(Route::a0(), f64::NAN).is_err());
        assert!(ParallelLinks::new(Route::a0(), f64::INFINITY).is_err());
        assert!(ParallelLinks::max_for_power(Route::a0(), Watts::ZERO).is_err());
        let msg = format!("{}", ParallelLinks::new(Route::a0(), -1.0).unwrap_err());
        assert!(msg.contains("-1"));
    }

    #[test]
    fn bandwidth_aggregates() {
        let bundle = ParallelLinks::new(Route::a0(), 4.0).unwrap();
        // 4 × 400 Gb/s = 200 GB/s.
        assert!((bundle.bandwidth().gigabytes_per_second() - 200.0).abs() < 1e-9);
    }
}
