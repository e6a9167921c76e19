//! Data-availability tracking (§III-D).
//!
//! "Scheduling must also account for the fact that data stored on a cart is
//! inaccessible during transit." The tracker records every transit window
//! per dataset so clients can ask whether (and when) data is readable.

use serde::{Deserialize, Serialize};

use dhl_units::Seconds;

use crate::placement::DatasetId;
use crate::recycle;
use crate::service_queue::IdTable;

/// Whether a dataset's bytes are reachable at an instant.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DataState {
    /// Docked somewhere — readable at local bandwidth.
    AtRest,
    /// At least one of its carts is moving — that shard is unreachable.
    InTransit,
}

/// Per-dataset transit-window log, plus track downtime windows (periods when
/// the track itself was out of service and nothing could move) and
/// per-endpoint dock downtime windows (periods a rack's docking stations
/// spent recovering a crashed controller).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct AvailabilityTracker {
    windows: IdTable<Vec<(f64, f64)>>,
    downtime: Vec<(f64, f64)>,
    dock_downtime: IdTable<Vec<(f64, f64)>>,
}

// The transit-window vectors go back to this thread's pool, for the next
// tracker's windows.
impl Drop for AvailabilityTracker {
    fn drop(&mut self) {
        std::mem::take(&mut self.windows)
            .into_values()
            .for_each(recycle::give_window);
    }
}

/// Total covered time across possibly-overlapping `[from, to)` windows.
fn merged_total(windows: &[(f64, f64)]) -> Seconds {
    let mut sorted = windows.to_vec();
    // `total_cmp` keeps the same order for the finite times recorded here
    // but cannot panic if a NaN ever slips in.
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in sorted {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    Seconds::new(total)
}

impl AvailabilityTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that part of `dataset` is in transit during `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `to < from` or either bound is non-finite.
    pub fn record_transit(&mut self, dataset: DatasetId, from: Seconds, to: Seconds) {
        assert!(
            from.is_finite() && to.is_finite() && to.seconds() >= from.seconds(),
            "transit window must be a finite, ordered interval"
        );
        self.windows
            .get_or_insert(dataset.0, recycle::take_window)
            .push((from.seconds(), to.seconds()));
    }

    /// The dataset's state at an instant.
    #[must_use]
    pub fn state_at(&self, dataset: DatasetId, at: Seconds) -> DataState {
        let t = at.seconds();
        let moving = self
            .transit_windows(dataset)
            .iter()
            .any(|(a, b)| t >= *a && t < *b);
        if moving {
            DataState::InTransit
        } else {
            DataState::AtRest
        }
    }

    /// Total time the dataset spent (partially) in transit, merging
    /// overlapping windows.
    #[must_use]
    pub fn total_transit_time(&self, dataset: DatasetId) -> Seconds {
        merged_total(self.transit_windows(dataset))
    }

    /// The transit windows recorded for a dataset, in insertion order: one
    /// per cart trip, redelivery and reshipment retries included.
    #[must_use]
    pub fn transit_windows(&self, dataset: DatasetId) -> &[(f64, f64)] {
        self.windows.get(dataset.0).map_or(&[], Vec::as_slice)
    }

    /// Number of datasets with any recorded transit.
    #[must_use]
    pub fn tracked_datasets(&self) -> usize {
        self.windows.iter().count()
    }

    /// Records that the track was out of service during `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `to < from` or either bound is non-finite.
    pub fn record_track_downtime(&mut self, from: Seconds, to: Seconds) {
        assert!(
            from.is_finite() && to.is_finite() && to.seconds() >= from.seconds(),
            "downtime window must be a finite, ordered interval"
        );
        self.downtime.push((from.seconds(), to.seconds()));
    }

    /// The recorded downtime windows, in insertion order.
    #[must_use]
    pub fn downtime_windows(&self) -> &[(f64, f64)] {
        &self.downtime
    }

    /// Total track downtime, merging overlapping windows.
    #[must_use]
    pub fn total_track_downtime(&self) -> Seconds {
        merged_total(&self.downtime)
    }

    /// Records that `endpoint`'s docking stations spent `[from, to)`
    /// recovering a crashed dock controller (the cart stays mated but no
    /// payload moves, so the rack's data is effectively unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `to < from` or either bound is non-finite.
    pub fn record_dock_downtime(&mut self, endpoint: usize, from: Seconds, to: Seconds) {
        assert!(
            from.is_finite() && to.is_finite() && to.seconds() >= from.seconds(),
            "dock downtime window must be a finite, ordered interval"
        );
        self.dock_downtime
            .get_or_insert(endpoint as u64, Vec::new)
            .push((from.seconds(), to.seconds()));
    }

    /// The dock downtime windows recorded for an endpoint, in insertion
    /// order (empty if its controllers never crashed).
    #[must_use]
    pub fn dock_downtime_windows(&self, endpoint: usize) -> &[(f64, f64)] {
        self.dock_downtime
            .get(endpoint as u64)
            .map_or(&[], Vec::as_slice)
    }

    /// Total dock downtime for an endpoint, merging overlapping windows.
    #[must_use]
    pub fn total_dock_downtime(&self, endpoint: usize) -> Seconds {
        merged_total(self.dock_downtime_windows(endpoint))
    }

    /// Earliest time ≥ `at` outside every downtime window (when a departure
    /// can actually happen).
    #[must_use]
    pub fn next_track_up(&self, at: Seconds) -> Seconds {
        let mut t = at.seconds();
        loop {
            let mut advanced = false;
            for (a, b) in &self.downtime {
                if t >= *a && t < *b {
                    t = *b;
                    advanced = true;
                }
            }
            if !advanced {
                return Seconds::new(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DatasetId = DatasetId(7);

    #[test]
    fn untracked_data_is_at_rest() {
        let t = AvailabilityTracker::new();
        assert_eq!(t.state_at(D, Seconds::new(5.0)), DataState::AtRest);
        assert_eq!(t.total_transit_time(D), Seconds::ZERO);
    }

    #[test]
    fn state_within_and_outside_windows() {
        let mut t = AvailabilityTracker::new();
        t.record_transit(D, Seconds::new(10.0), Seconds::new(20.0));
        assert_eq!(t.state_at(D, Seconds::new(9.99)), DataState::AtRest);
        assert_eq!(t.state_at(D, Seconds::new(10.0)), DataState::InTransit);
        assert_eq!(t.state_at(D, Seconds::new(19.99)), DataState::InTransit);
        // Half-open interval: at-rest exactly at the end.
        assert_eq!(t.state_at(D, Seconds::new(20.0)), DataState::AtRest);
    }

    #[test]
    fn total_transit_merges_overlaps() {
        let mut t = AvailabilityTracker::new();
        t.record_transit(D, Seconds::new(0.0), Seconds::new(10.0));
        t.record_transit(D, Seconds::new(5.0), Seconds::new(15.0)); // overlap
        t.record_transit(D, Seconds::new(20.0), Seconds::new(25.0)); // disjoint
        assert_eq!(t.total_transit_time(D).seconds(), 20.0);
        assert_eq!(t.tracked_datasets(), 1);
    }

    #[test]
    #[should_panic(expected = "ordered interval")]
    fn reversed_window_panics() {
        let mut t = AvailabilityTracker::new();
        t.record_transit(D, Seconds::new(5.0), Seconds::new(1.0));
    }

    #[test]
    fn track_downtime_is_merged_and_skipped() {
        let mut t = AvailabilityTracker::new();
        t.record_track_downtime(Seconds::new(10.0), Seconds::new(20.0));
        t.record_track_downtime(Seconds::new(15.0), Seconds::new(30.0));
        t.record_track_downtime(Seconds::new(50.0), Seconds::new(60.0));
        assert_eq!(t.total_track_downtime().seconds(), 30.0);
        assert_eq!(t.downtime_windows().len(), 3);
        // Departures inside a window slide to its end, chaining overlaps.
        assert_eq!(t.next_track_up(Seconds::new(12.0)).seconds(), 30.0);
        assert_eq!(t.next_track_up(Seconds::new(35.0)).seconds(), 35.0);
        assert_eq!(t.next_track_up(Seconds::new(55.0)).seconds(), 60.0);
    }

    #[test]
    #[should_panic(expected = "ordered interval")]
    fn reversed_downtime_panics() {
        let mut t = AvailabilityTracker::new();
        t.record_track_downtime(Seconds::new(5.0), Seconds::new(1.0));
    }

    #[test]
    fn dock_downtime_is_tracked_per_endpoint() {
        let mut t = AvailabilityTracker::new();
        assert_eq!(t.total_dock_downtime(1), Seconds::ZERO);
        assert!(t.dock_downtime_windows(1).is_empty());
        t.record_dock_downtime(1, Seconds::new(10.0), Seconds::new(40.0));
        t.record_dock_downtime(1, Seconds::new(20.0), Seconds::new(50.0)); // overlap
        t.record_dock_downtime(2, Seconds::new(0.0), Seconds::new(5.0));
        assert_eq!(t.total_dock_downtime(1).seconds(), 40.0);
        assert_eq!(t.total_dock_downtime(2).seconds(), 5.0);
        assert_eq!(t.dock_downtime_windows(1).len(), 2);
        assert_eq!(t.dock_downtime_windows(2).len(), 1);
        assert!(t.dock_downtime_windows(0).is_empty());
        // Dock downtime is endpoint-local: the track itself stayed up.
        assert_eq!(t.total_track_downtime(), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "ordered interval")]
    fn reversed_dock_downtime_panics() {
        let mut t = AvailabilityTracker::new();
        t.record_dock_downtime(1, Seconds::new(5.0), Seconds::new(1.0));
    }

    #[test]
    fn boundary_ids_keep_their_own_windows() {
        let mut t = AvailabilityTracker::new();
        let huge = DatasetId(u64::MAX);
        t.record_transit(huge, Seconds::new(0.0), Seconds::new(10.0));
        t.record_transit(D, Seconds::new(5.0), Seconds::new(6.0));
        t.record_transit(huge, Seconds::new(20.0), Seconds::new(30.0));
        t.record_dock_downtime(usize::MAX, Seconds::new(1.0), Seconds::new(2.0));
        assert_eq!(t.transit_windows(huge), [(0.0, 10.0), (20.0, 30.0)]);
        assert_eq!(t.transit_windows(D), [(5.0, 6.0)]);
        assert!(t.transit_windows(DatasetId(u64::MAX - 1)).is_empty());
        assert_eq!(t.tracked_datasets(), 2);
        assert_eq!(t.state_at(huge, Seconds::new(25.0)), DataState::InTransit);
        assert_eq!(t.total_dock_downtime(usize::MAX).seconds(), 1.0);
        assert!(t.dock_downtime_windows(usize::MAX - 1).is_empty());
        // Equality does not depend on the order datasets were first seen.
        let mut u = AvailabilityTracker::new();
        u.record_dock_downtime(usize::MAX, Seconds::new(1.0), Seconds::new(2.0));
        u.record_transit(D, Seconds::new(5.0), Seconds::new(6.0));
        u.record_transit(huge, Seconds::new(0.0), Seconds::new(10.0));
        assert_ne!(t, u);
        u.record_transit(huge, Seconds::new(20.0), Seconds::new(30.0));
        assert_eq!(t, u);
    }

    #[test]
    fn datasets_are_tracked_independently() {
        let mut t = AvailabilityTracker::new();
        t.record_transit(DatasetId(1), Seconds::new(0.0), Seconds::new(10.0));
        assert_eq!(
            t.state_at(DatasetId(2), Seconds::new(5.0)),
            DataState::AtRest
        );
        assert_eq!(
            t.state_at(DatasetId(1), Seconds::new(5.0)),
            DataState::InTransit
        );
    }
}
