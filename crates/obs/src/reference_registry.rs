//! The retired map-walk registry, pinned verbatim.
//!
//! Before the handle rework, [`crate::MetricsRegistry`] kept its metrics in
//! `BTreeMap<&'static str, _>`s and paid an O(log n) string-compare walk on
//! every counter bump, gauge set, and histogram observation, and
//! [`crate::Histogram`] bucketed through `value.log2().floor()`. This module
//! preserves that implementation exactly — map storage, float-log bucketing,
//! NaN-storing gauges and all — for two consumers:
//!
//! - the `registry_equivalence` differential suite, which drives randomized
//!   record interleavings through both registries and asserts byte-identical
//!   [`MetricsSnapshot`] JSON;
//! - the `obs/record_throughput` bench family, which measures the dense-slot
//!   hot path against this pin so the speedup is a number, not folklore.
//!
//! Do not "fix" or modernise this code: its value is that it does not move.

use std::collections::BTreeMap;

use crate::histogram::{BUCKETS, MIN_EXP};
use crate::{Histogram, HistogramSummary, MetricsSnapshot};

/// The pre-handle log₂ histogram, bucketing through a float `log2()` call.
///
/// Identical to [`Histogram`] except for the retired [`slot`] computation
/// (which this pin keeps) and the absence of restore/merge plumbing the
/// differential suite does not exercise through it.
///
/// [`slot`]: Histogram::record
#[derive(Clone, PartialEq, Debug)]
pub struct ReferenceHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for ReferenceHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS + 2],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The retired bucket-index computation: float log₂, floored.
    fn slot(value: f64) -> usize {
        if value < Histogram::bucket_lower_bound(0) {
            return 0;
        }
        let exp = value.log2().floor() as i32;
        let idx = exp - MIN_EXP;
        if idx < 0 {
            0
        } else if idx as usize >= BUCKETS {
            BUCKETS + 1
        } else {
            idx as usize + 1
        }
    }

    /// Records one observation (same contract as [`Histogram::record`]).
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.counts[Self::slot(value.max(0.0))] += 1;
        } else {
            self.counts[if value > 0.0 { BUCKETS + 1 } else { 0 }] += 1;
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.min.is_finite() {
            self.min
        } else {
            0.0
        }
    }

    /// Largest finite observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Mean of finite observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile, the same bucket walk as [`Histogram::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        Histogram::quantile_from_buckets(&self.sparse_buckets(), self.count, self.min, self.max, q)
    }

    /// Nonzero `(slot, count)` buckets in slot order.
    #[must_use]
    pub fn sparse_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(s, &c)| (s as u32, c))
            .collect()
    }

    /// Rebuilds from exported exact state (see [`Histogram::from_parts`]).
    #[must_use]
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64, buckets: &[(u32, u64)]) -> Self {
        let mut h = Self::new();
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        for &(slot, c) in buckets {
            if let Some(entry) = h.counts.get_mut(slot as usize) {
                *entry = c;
            }
        }
        h
    }

    fn summarise(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            sum: self.sum(),
            buckets: self.sparse_buckets(),
        }
    }
}

/// The pre-handle registry: metrics in name-keyed `BTreeMap`s, every record
/// operation a string-compare tree walk, gauges stored unsanitised (NaN and
/// all — the bug the live registry now rejects).
#[derive(Clone, Debug, Default)]
pub struct ReferenceRegistry {
    enabled: bool,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, ReferenceHistogram>,
}

impl ReferenceRegistry {
    /// A registry that records.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A registry that drops every operation.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether the registry records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increments counter `name` by `by`, creating it at zero first.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        if !self.enabled {
            return;
        }
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Sets gauge `name` to `value` — including NaN, as the retired code did.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert(name, value);
    }

    /// Records `value` into histogram `name`, creating it empty first.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        self.histograms.entry(name).or_default().record(value);
    }

    /// Overwrites counter `name` with an exact value.
    pub fn set_counter(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        self.counters.insert(name, value);
    }

    /// Installs a fully-reconstructed histogram under `name`.
    pub fn restore_histogram(&mut self, name: &'static str, histogram: ReferenceHistogram) {
        if !self.enabled {
            return;
        }
        self.histograms.insert(name, histogram);
    }

    /// Drops everything recorded, keeping the enable flag.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// A deterministic snapshot — BTreeMap iteration is name order, so no
    /// sort was needed; the live registry's snapshot sorts to match this.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| ((*name).to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, v)| ((*name).to_string(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| h.summarise(name))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_registry_matches_retired_semantics() {
        let mut reg = ReferenceRegistry::enabled();
        assert!(reg.is_enabled());
        reg.inc("events", 2);
        reg.inc("events", 3);
        reg.set_gauge("depth", 7.5);
        reg.observe("lat", 0.5);
        reg.observe("lat", 1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events"), Some(5));
        assert_eq!(snap.gauge("depth"), Some(7.5));
        let h = snap.histogram("lat").unwrap();
        assert_eq!((h.count, h.min, h.max, h.mean), (2, 0.5, 1.5, 1.0));
        reg.reset();
        assert!(reg.snapshot().is_empty());
        assert!(reg.is_enabled());
    }

    #[test]
    fn disabled_reference_registry_records_nothing() {
        let mut reg = ReferenceRegistry::disabled();
        reg.inc("a", 1);
        reg.set_gauge("b", 2.0);
        reg.observe("c", 3.0);
        reg.set_counter("d", 4);
        reg.restore_histogram("e", ReferenceHistogram::new());
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn reference_gauges_store_nan_verbatim() {
        // The pinned bug: a NaN gauge lands in the map and poisons snapshot
        // equality. The live registry rejects it; the pin must not.
        let mut reg = ReferenceRegistry::enabled();
        reg.set_gauge("g", f64::NAN);
        let snap = reg.snapshot();
        assert!(snap.gauge("g").unwrap().is_nan());
        assert_ne!(snap, snap.clone(), "NaN breaks equality, as it did");
    }

    #[test]
    fn reference_histogram_round_trips_parts() {
        let mut h = ReferenceHistogram::new();
        for v in [0.001, 0.1 + 0.2, 8.6, 17.2, 1e30, -1.0] {
            h.record(v);
        }
        let rebuilt =
            ReferenceHistogram::from_parts(h.count(), h.sum(), h.min, h.max, &h.sparse_buckets());
        assert_eq!(rebuilt, h);
    }
}
