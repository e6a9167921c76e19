//! `dhl-obs`: the observability substrate for the DHL reproduction.
//!
//! A zero-dependency (std-only) metrics layer the simulators, scheduler,
//! network models, and bench harness all record into:
//!
//! - [`MetricsRegistry`] — named counters, gauges, and log-bucketed
//!   [`Histogram`]s behind a single enable flag. Registration returns
//!   `Copy` handles ([`CounterId`] / [`GaugeId`] / [`HistogramId`]) that
//!   index dense slots, so hot-path recording is a bounds-checked array
//!   write — no map walk, no string compare. Handles are the only way to
//!   record. When disabled every operation is a branch and an immediate
//!   return: no allocation, no lookup, no clock read.
//! - [`Stopwatch`] — a detached wall-clock timer whose elapsed seconds a
//!   caller records into a histogram or gauge.
//! - [`MetricsSnapshot`] — a deterministic, ordered, plain-data view of a
//!   registry, exportable as NDJSON and comparable across runs.
//!   Slots are recorded in registration order but exported sorted by name,
//!   so snapshots are byte-identical to the retired BTreeMap registry's
//!   (pinned by the `registry_equivalence` differential suite).
//! - [`json`] — the minimal JSON writer and pull reader the exporters and
//!   the checkpoint codec share.
//!
//! # Example
//!
//! ```rust
//! use dhl_obs::{MetricsRegistry, Stopwatch};
//!
//! let mut reg = MetricsRegistry::enabled();
//! // Hot path: register once, record through dense Copy handles.
//! let events = reg.register_counter("events");
//! let transit = reg.register_histogram("transit_s");
//! reg.add(events, 3);
//! reg.record(transit, 8.6);
//! let depth = reg.register_gauge("queue_depth");
//! reg.set(depth, 7.0);
//! let setup = reg.register_histogram("setup_s");
//! let watch = Stopwatch::start();
//! reg.record(setup, watch.elapsed_secs());
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("events"), Some(3));
//! assert!(snap.to_ndjson().contains("transit_s"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;

use std::time::Instant;

pub use histogram::Histogram;

/// A pre-interned handle to a counter: a dense slot index, `Copy`, valid
/// for the registry that issued it (and its clones). Hold these in the
/// owning struct and record through [`MetricsRegistry::add`] instead of
/// paying a name lookup per bump.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CounterId(u32);

/// A pre-interned handle to a gauge (see [`CounterId`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct GaugeId(u32);

/// A pre-interned handle to a histogram (see [`CounterId`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HistogramId(u32);

/// One dense metric slot. `touched` gates snapshot visibility: a metric
/// appears in exports once recorded (even by zero), never merely by being
/// registered — exactly the entry-creation semantics of the retired
/// BTreeMap registry.
#[derive(Clone, Debug)]
struct Slot<V> {
    name: &'static str,
    value: V,
    touched: bool,
}

/// A registry of named metrics.
///
/// Names are `&'static str` by design: every call site names its metric
/// with a literal, recording needs no allocation, and snapshots are
/// deterministic (exports sort by name). Metrics live in dense `Vec` slots
/// indexed by `Copy` handles; names are compared only at registration and
/// handle lookup, by a scan of one kind's slots, never on the record path.
/// A disabled registry rejects every recording operation after a single
/// branch — registration still works, so handle-holding structs can be
/// built unconditionally.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<Slot<u64>>,
    gauges: Vec<Slot<f64>>,
    histograms: Vec<Slot<Histogram>>,
}

impl MetricsRegistry {
    /// A registry that records.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A registry that drops every operation (the zero-overhead default).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether the registry records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Makes room for this many more counters, gauges and histograms, so
    /// that a caller registering a known set of metrics allocates once per
    /// kind.
    pub fn reserve(&mut self, counters: usize, gauges: usize, histograms: usize) {
        self.counters.reserve(counters);
        self.gauges.reserve(gauges);
        self.histograms.reserve(histograms);
    }

    /// Interns counter `name`, returning its dense-slot handle. Idempotent:
    /// re-registering a name returns the same handle. Works on disabled
    /// registries too (registration is not a recording operation).
    pub fn register_counter(&mut self, name: &'static str) -> CounterId {
        CounterId(intern(&mut self.counters, name))
    }

    /// Interns gauge `name` (see [`MetricsRegistry::register_counter`]).
    pub fn register_gauge(&mut self, name: &'static str) -> GaugeId {
        GaugeId(intern(&mut self.gauges, name))
    }

    /// Interns histogram `name` (see [`MetricsRegistry::register_counter`]).
    pub fn register_histogram(&mut self, name: &'static str) -> HistogramId {
        HistogramId(intern(&mut self.histograms, name))
    }

    /// The handle of an already-registered counter, without registering
    /// anything: how a restore maps a serialised name back onto a slot.
    #[must_use]
    pub fn counter_id(&self, name: &str) -> Option<CounterId> {
        find(&self.counters, name).map(CounterId)
    }

    /// The handle of an already-registered gauge (see
    /// [`MetricsRegistry::counter_id`]).
    #[must_use]
    pub fn gauge_id(&self, name: &str) -> Option<GaugeId> {
        find(&self.gauges, name).map(GaugeId)
    }

    /// The handle of an already-registered histogram (see
    /// [`MetricsRegistry::counter_id`]).
    #[must_use]
    pub fn histogram_id(&self, name: &str) -> Option<HistogramId> {
        find(&self.histograms, name).map(HistogramId)
    }

    /// The counter behind `id`; `None` until recorded (even by zero).
    #[must_use]
    pub fn counter(&self, id: CounterId) -> Option<u64> {
        let slot = self.counters.get(id.0 as usize)?;
        slot.touched.then_some(slot.value)
    }

    /// Increments the counter behind `id` by `by` — one branch and one
    /// bounds-checked slot write.
    ///
    /// # Panics
    ///
    /// Panics (bounds check) if `id` was issued by a different registry
    /// with more counters than this one.
    #[inline]
    pub fn add(&mut self, id: CounterId, by: u64) {
        if !self.enabled {
            return;
        }
        let slot = &mut self.counters[id.0 as usize];
        slot.value += by;
        slot.touched = true;
    }

    /// Overwrites the counter behind `id` with an exact value (checkpoint
    /// restore). Unlike [`MetricsRegistry::add`] this is not additive.
    #[inline]
    pub fn store(&mut self, id: CounterId, value: u64) {
        if !self.enabled {
            return;
        }
        let slot = &mut self.counters[id.0 as usize];
        slot.value = value;
        slot.touched = true;
    }

    /// Sets the gauge behind `id` to `value`. NaN is rejected the way
    /// [`Histogram::record`] rejects it: a poisoned reading must not break
    /// snapshot equality (`NaN != NaN`) in the determinism CI diffs.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        if !self.enabled || value.is_nan() {
            return;
        }
        let slot = &mut self.gauges[id.0 as usize];
        slot.value = value;
        slot.touched = true;
    }

    /// Records `value` into the histogram behind `id`.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: f64) {
        if !self.enabled {
            return;
        }
        let slot = &mut self.histograms[id.0 as usize];
        slot.value.record(value);
        slot.touched = true;
    }

    /// Installs a fully-reconstructed histogram behind `id` (checkpoint
    /// restore), replacing whatever was recorded so far. Subsequent
    /// [`MetricsRegistry::record`] calls continue accumulating into it.
    pub fn restore(&mut self, id: HistogramId, histogram: Histogram) {
        if !self.enabled {
            return;
        }
        let slot = &mut self.histograms[id.0 as usize];
        slot.value = histogram;
        slot.touched = true;
    }

    /// A deterministic snapshot of everything recorded so far, sorted by
    /// metric name. Registered-but-never-recorded slots are invisible, so
    /// the export is byte-identical to the retired map-walk registry's.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: self.gauges().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: self
                .histograms()
                .map(|(n, h)| HistogramSummary::of(n, h))
                .collect(),
        }
    }

    /// Drops everything recorded, keeping the enable flag — and every
    /// registered handle, which stays valid and records into a zeroed slot.
    pub fn reset(&mut self) {
        clear(&mut self.counters);
        clear(&mut self.gauges);
        clear(&mut self.histograms);
    }

    /// Iterates the live (recorded) counters in name order (exact `u64`
    /// values).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        live(&self.counters).map(|(name, &v)| (name, v))
    }

    /// Iterates the live (recorded) gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        live(&self.gauges).map(|(name, &v)| (name, v))
    }

    /// Iterates the live (recorded) histograms in name order, exposing
    /// their exact internal state (use with [`Histogram::raw_min`],
    /// [`Histogram::sparse_buckets`], …) for checkpointing.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        live(&self.histograms)
    }
}

/// The index of `name`'s slot, added unrecorded if it is new.
fn intern<V: Default>(slots: &mut Vec<Slot<V>>, name: &'static str) -> u32 {
    find(slots, name).unwrap_or_else(|| {
        slots.push(Slot {
            name,
            value: V::default(),
            touched: false,
        });
        u32::try_from(slots.len() - 1).expect("fewer than 2^32 metrics of a kind")
    })
}

/// The index of `name`'s slot, if it has one.
fn find<V>(slots: &[Slot<V>], name: &str) -> Option<u32> {
    (slots.iter().position(|s| s.name == name)).map(|i| i as u32)
}

fn clear<V: Default>(slots: &mut [Slot<V>]) {
    for slot in slots {
        slot.value = V::default();
        slot.touched = false;
    }
}

/// The recorded slots of one metric kind in name order: the walk every
/// export shares. Names are unique per kind, so the unstable sort is
/// deterministic.
fn live<V>(slots: &[Slot<V>]) -> std::vec::IntoIter<(&'static str, &V)> {
    let mut live: Vec<(&'static str, &V)> = (slots.iter())
        .filter(|s| s.touched)
        .map(|s| (s.name, &s.value))
        .collect();
    live.sort_unstable_by_key(|&(name, _)| name);
    live.into_iter()
}

/// A detached wall-clock timer for spans that cannot hold a registry
/// borrow (hot loops that also record other metrics).
#[derive(Copy, Clone, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Summary statistics of one histogram at snapshot time.
///
/// Besides the headline statistics, a summary retains the histogram's
/// nonzero log₂ buckets and running sum, which is exactly enough state to
/// [`merge`](HistogramSummary::merge) two summaries and re-estimate the
/// combined quantiles — replica aggregation never needs the live
/// [`Histogram`]. The NDJSON export carries only the headline fields.
#[derive(Clone, PartialEq, Debug)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Smallest finite observation.
    pub min: f64,
    /// Largest finite observation.
    pub max: f64,
    /// Mean of finite observations.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Sum of finite observations (carried for mergeability).
    pub sum: f64,
    /// Nonzero `(slot, count)` buckets in slot order, as produced by
    /// [`Histogram::sparse_buckets`] (carried for mergeability).
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSummary {
    /// Summarises one histogram under a metric name.
    #[must_use]
    pub fn of(name: &str, h: &Histogram) -> Self {
        Self {
            name: name.to_string(),
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            sum: h.sum(),
            buckets: h.sparse_buckets(),
        }
    }

    /// Merges another summary of the same metric into this one: both sides
    /// are rebuilt as histograms, merged with [`Histogram::merge`] and
    /// summarised again under this summary's name. The result equals
    /// summarising one histogram that recorded both observation streams.
    pub fn merge(&mut self, other: &HistogramSummary) {
        let mut merged = self.histogram();
        merged.merge(&other.histogram());
        *self = Self::of(&self.name, &merged);
    }

    /// The histogram this summary was taken of. A summary clamps the `min`
    /// and `max` of a histogram with no finite observation (empty, or only
    /// infinities) to 0; they are restored to `±∞` so the merge does not
    /// take 0 for an observed value. Such a histogram is empty or has an
    /// infinite median: a finite observation clamps every quantile finite.
    fn histogram(&self) -> Histogram {
        let (min, max) = if self.count == 0 || self.p50.is_infinite() {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (self.min, self.max)
        };
        Histogram::from_parts(self.count, self.sum, min, max, &self.buckets)
    }
}

/// Tail-latency view of a distribution for SLO accounting: p50/p95/p99
/// plus mean and max.
///
/// [`HistogramSummary`] (and the snapshot JSON schema built on it) stops at
/// p95; overload experiments are judged on the p99 tail, so this type
/// re-reads the same log₂ buckets one quantile deeper without touching the
/// snapshot export format.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct SloSummary {
    /// Observation count.
    pub count: u64,
    /// Mean of finite observations (0 when empty).
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Largest finite observation.
    pub max: f64,
}

impl SloSummary {
    /// Summarises a live histogram (all zeros when it is empty).
    #[must_use]
    pub fn of(h: &Histogram) -> Self {
        let [p50, p95, p99] = h.quantiles([0.50, 0.95, 0.99]);
        Self {
            count: h.count(),
            mean: h.mean(),
            p50,
            p95,
            p99,
            max: h.max(),
        }
    }
}

/// A plain-data, deterministic view of a registry: sorted by metric name,
/// comparable across runs, exportable as NDJSON.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Engine event throughput: the `engine.events_processed` counter over
    /// the `sim.wall_time_s` wall-clock gauge. `None` until both metrics
    /// exist and the wall time is positive — throughput over a zero-length
    /// or unrecorded run is meaningless, not infinite.
    #[must_use]
    pub fn events_per_sec(&self) -> Option<f64> {
        let events = self.counter("engine.events_processed")?;
        let wall = self.gauge("sim.wall_time_s")?;
        (wall > 0.0).then(|| events as f64 / wall)
    }

    /// Merges another snapshot into this one, preserving name-sorted order:
    ///
    /// - **counters** sum;
    /// - **gauges** are last-write-wins — `other`'s value overwrites, so
    ///   callers merging replicas in index order keep the highest-indexed
    ///   replica's gauge, deterministically;
    /// - **histograms** merge bucket-wise with quantiles recomputed from the
    ///   combined log₂ buckets ([`HistogramSummary::merge`]).
    ///
    /// Counter and histogram merging is order-independent; only gauges
    /// depend on merge order, by design.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.gauges[i].1 = *v,
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for h in &other.histograms {
            match self.histograms.binary_search_by(|s| s.name.cmp(&h.name)) {
                Ok(i) => self.histograms[i].merge(h),
                Err(i) => self.histograms.insert(i, h.clone()),
            }
        }
    }

    /// Renders the snapshot as NDJSON: one `{"metric": ..., "type": ...}`
    /// object per line, suitable for appending to a log stream.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(256);
        for (name, v) in &self.counters {
            out.push_str("{\"metric\":");
            json::write_escaped(&mut out, name);
            out.push_str(",\"type\":\"counter\",\"value\":");
            out.push_str(&v.to_string());
            out.push_str("}\n");
        }
        for (name, v) in &self.gauges {
            out.push_str("{\"metric\":");
            json::write_escaped(&mut out, name);
            out.push_str(",\"type\":\"gauge\",\"value\":");
            json::write_f64(&mut out, *v);
            out.push_str("}\n");
        }
        for h in &self.histograms {
            out.push_str("{\"metric\":");
            json::write_escaped(&mut out, &h.name);
            out.push_str(",\"type\":\"histogram\",\"count\":");
            out.push_str(&h.count.to_string());
            for (key, value) in [
                ("min", h.min),
                ("max", h.max),
                ("mean", h.mean),
                ("p50", h.p50),
                ("p95", h.p95),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                json::write_f64(&mut out, value);
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_handle_ops_are_no_ops() {
        let mut reg = MetricsRegistry::disabled();
        let c = reg.register_counter("a");
        let g = reg.register_gauge("b");
        let h = reg.register_histogram("c");
        reg.add(c, 5);
        reg.store(c, 7);
        reg.set(g, 1.0);
        reg.record(h, 2.0);
        reg.restore(h, Histogram::new());
        assert!(reg.snapshot().is_empty());
        assert_eq!(reg.counters().count(), 0);
        assert_eq!(reg.gauges().count(), 0);
        assert_eq!(reg.histograms().count(), 0);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut reg = MetricsRegistry::enabled();
        let (events, depth, lat) = (
            reg.register_counter("events"),
            reg.register_gauge("depth"),
            reg.register_histogram("lat"),
        );
        reg.add(events, 2);
        reg.add(events, 3);
        reg.set(depth, 4.0);
        reg.set(depth, 7.5); // gauges overwrite
        reg.record(lat, 0.5);
        reg.record(lat, 1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events"), Some(5));
        assert_eq!(snap.gauge("depth"), Some(7.5));
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1.5);
        assert_eq!(h.mean, 1.0);
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("missing"), None);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn duplicate_registration_returns_the_same_handle() {
        let mut reg = MetricsRegistry::enabled();
        let a = reg.register_counter("n");
        let b = reg.register_counter("n");
        assert_eq!(a, b);
        let g1 = reg.register_gauge("n"); // gauge namespace is independent
        let g2 = reg.register_gauge("n");
        assert_eq!(g1, g2);
        let h1 = reg.register_histogram("n");
        let h2 = reg.register_histogram("n");
        assert_eq!(h1, h2);
        reg.add(a, 1);
        reg.add(b, 2);
        assert_eq!(reg.snapshot().counter("n"), Some(3));
    }

    #[test]
    fn registration_alone_is_invisible_in_snapshots() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.register_counter("c");
        reg.register_gauge("g");
        reg.register_histogram("h");
        assert!(reg.snapshot().is_empty(), "untouched slots must not export");
        // Recording zero still creates the entry, as the map registry did.
        reg.add(c, 0);
        assert_eq!(reg.snapshot().counter("c"), Some(0));
    }

    #[test]
    fn nan_gauge_sets_are_rejected() {
        let mut reg = MetricsRegistry::enabled();
        let g = reg.register_gauge("depth");
        reg.set(g, f64::NAN);
        assert!(reg.snapshot().is_empty(), "NaN must not create the gauge");
        reg.set(g, 2.0);
        reg.set(g, f64::NAN);
        assert_eq!(
            reg.snapshot().gauge("depth"),
            Some(2.0),
            "NaN must not overwrite a healthy reading"
        );
        let snap = reg.snapshot();
        assert_eq!(snap, snap.clone(), "snapshot equality survives");
    }

    #[test]
    fn snapshots_are_deterministic_and_sorted() {
        let build = || {
            let mut reg = MetricsRegistry::enabled();
            // Insertion order deliberately unsorted.
            let zeta = reg.register_counter("zeta");
            let alpha = reg.register_counter("alpha");
            let mid = reg.register_histogram("mid");
            let gamma = reg.register_gauge("gamma");
            reg.add(zeta, 1);
            reg.add(alpha, 2);
            reg.record(mid, 3.0);
            reg.set(gamma, 4.0);
            reg.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.counters[0].0, "alpha");
        assert_eq!(a.counters[1].0, "zeta");
        assert_eq!(a.to_ndjson(), b.to_ndjson());
    }

    #[test]
    fn stopwatch_elapsed_is_monotone() {
        let w = Stopwatch::start();
        let a = w.elapsed_secs();
        let b = w.elapsed_secs();
        assert!(b >= a && a >= 0.0);
    }

    #[test]
    fn ndjson_is_one_valid_object_per_line() {
        let mut reg = MetricsRegistry::enabled();
        let (a, b, c) = (
            reg.register_counter("a \"quoted\""),
            reg.register_gauge("b"),
            reg.register_histogram("c"),
        );
        reg.add(a, 7);
        reg.set(b, 2.5);
        reg.record(c, 1.0);
        let nd = reg.snapshot().to_ndjson();
        let lines: Vec<_> = nd.lines().collect();
        assert_eq!(lines.len(), 3);
        let expected = [
            ("a \"quoted\"", "counter", "value", json::Number::UInt(7)),
            ("b", "gauge", "value", json::Number::Float(2.5)),
            ("c", "histogram", "count", json::Number::UInt(1)),
        ];
        for (line, (name, kind, key, value)) in lines.into_iter().zip(expected) {
            let mut r = json::Reader::new(line);
            r.begin_object().unwrap();
            assert_eq!(r.next_key().unwrap().as_deref(), Some("metric"));
            assert_eq!(r.string().unwrap(), name);
            assert_eq!(r.next_key().unwrap().as_deref(), Some("type"));
            assert_eq!(r.string().unwrap(), kind);
            assert_eq!(r.next_key().unwrap().as_deref(), Some(key));
            assert_eq!(r.number().unwrap(), value);
            while r.next_key().unwrap().is_some() {
                r.skip_value().unwrap();
            }
            r.finish().unwrap();
        }
    }

    #[test]
    fn events_per_sec_derives_from_counter_and_wall_gauge() {
        let mut reg = MetricsRegistry::enabled();
        assert_eq!(reg.snapshot().events_per_sec(), None);
        let events = reg.register_counter("engine.events_processed");
        let wall = reg.register_gauge("sim.wall_time_s");
        reg.store(events, 1_000);
        assert_eq!(
            reg.snapshot().events_per_sec(),
            None,
            "no wall gauge yet — no rate"
        );
        reg.set(wall, 0.0);
        assert_eq!(
            reg.snapshot().events_per_sec(),
            None,
            "zero wall time must not divide"
        );
        reg.set(wall, 0.25);
        assert_eq!(reg.snapshot().events_per_sec(), Some(4_000.0));
    }

    #[test]
    fn merge_sums_counters() {
        let count = |pairs: &[(&'static str, u64)]| {
            let mut reg = MetricsRegistry::enabled();
            for &(name, by) in pairs {
                let id = reg.register_counter(name);
                reg.add(id, by);
            }
            reg
        };
        let a = count(&[("events", 3), ("launches", 1)]);
        let b = count(&[("events", 4), ("retries", 2)]);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("events"), Some(7));
        assert_eq!(merged.counter("launches"), Some(1));
        assert_eq!(merged.counter("retries"), Some(2));
        let names: Vec<_> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["events", "launches", "retries"],
            "sorted order kept"
        );
    }

    #[test]
    fn merge_gauges_are_last_write_wins_in_merge_order() {
        let gauge = |pairs: &[(&'static str, f64)]| {
            let mut reg = MetricsRegistry::enabled();
            for &(name, v) in pairs {
                let id = reg.register_gauge(name);
                reg.set(id, v);
            }
            reg
        };
        let a = gauge(&[("depth", 1.0), ("only_a", 10.0)]);
        let b = gauge(&[("depth", 2.0)]);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        // Replica mergers apply merge() in replica-index order, so the
        // later replica's gauge wins.
        assert_eq!(merged.gauge("depth"), Some(2.0));
        assert_eq!(merged.gauge("only_a"), Some(10.0));
    }

    #[test]
    fn merge_histograms_bucket_wise_matches_combined_recording() {
        // Dyadic values: their sums are exact in f64, so the merged sum is
        // bit-identical to recording both streams into one histogram
        // regardless of addition order.
        let tiny = f64::powi(2.0, -40);
        let left = [0.001953125, 0.5, 8.5, 17.25, 120.0];
        let right = [0.25, 8.5, 8.75, tiny];
        let mut a = MetricsRegistry::enabled();
        let mut b = MetricsRegistry::enabled();
        let mut combined = MetricsRegistry::enabled();
        let lat = [&mut a, &mut b, &mut combined].map(|r| r.register_histogram("lat"));
        for v in left {
            a.record(lat[0], v);
            combined.record(lat[2], v);
        }
        for v in right {
            b.record(lat[1], v);
            combined.record(lat[2], v);
        }
        let extra = [&mut b, &mut combined].map(|r| r.register_histogram("extra"));
        b.record(extra[0], 1.0);
        combined.record(extra[1], 1.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.histograms, combined.snapshot().histograms);
        let h = merged.histogram("lat").unwrap();
        assert_eq!(h.count, 9);
        assert_eq!(h.min, tiny);
        assert_eq!(h.max, 120.0);
    }

    #[test]
    fn merge_is_order_independent_for_counters_and_histograms() {
        let snap = |seed: u64| {
            let mut reg = MetricsRegistry::enabled();
            let (n, h) = (reg.register_counter("n"), reg.register_histogram("h"));
            reg.add(n, seed);
            reg.record(h, seed as f64 + 0.5);
            reg.snapshot()
        };
        let (a, b, c) = (snap(1), snap(2), snap(3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = c.clone();
        right.merge(&b);
        right.merge(&a);
        assert_eq!(left.counters, right.counters);
        assert_eq!(left.histograms, right.histograms);
    }

    #[test]
    fn merge_with_empty_snapshot_is_identity() {
        let mut reg = MetricsRegistry::enabled();
        let (a, g, h) = (
            reg.register_counter("a"),
            reg.register_gauge("g"),
            reg.register_histogram("h"),
        );
        reg.add(a, 1);
        reg.set(g, 2.0);
        reg.record(h, 3.0);
        let orig = reg.snapshot();
        let mut merged = orig.clone();
        merged.merge(&MetricsSnapshot::default());
        assert_eq!(merged, orig);
        let mut from_empty = MetricsSnapshot::default();
        from_empty.merge(&orig);
        assert_eq!(from_empty, orig);
    }

    #[test]
    fn registry_state_export_and_restore_is_exact() {
        let mut reg = MetricsRegistry::enabled();
        let (events, depth, lat) = (
            reg.register_counter("events"),
            reg.register_gauge("depth"),
            reg.register_histogram("lat"),
        );
        reg.add(events, u64::MAX - 3);
        reg.add(events, 3); // lands exactly on u64::MAX
        reg.set(depth, 0.1 + 0.2); // not exactly 0.3
        reg.record(lat, 0.1);
        reg.record(lat, 0.2);

        // Export the exact state, rebuild a fresh registry from it.
        let mut restored = MetricsRegistry::enabled();
        for (name, v) in reg.counters() {
            let id = restored.register_counter(name);
            restored.store(id, v);
        }
        for (name, v) in reg.gauges() {
            let id = restored.register_gauge(name);
            restored.set(id, v);
        }
        for (name, h) in reg.histograms() {
            let id = restored.register_histogram(name);
            restored.restore(
                id,
                Histogram::from_parts(
                    h.count(),
                    h.sum(),
                    h.raw_min(),
                    h.raw_max(),
                    &h.sparse_buckets(),
                ),
            );
        }
        assert_eq!(restored.snapshot(), reg.snapshot());
        assert_eq!(restored.snapshot().counter("events"), Some(u64::MAX));

        // Recording continues identically after restore: same f64
        // accumulation order, so snapshots stay bit-identical.
        reg.record(lat, 0.4);
        reg.add(events, 0);
        let (events, lat) = (
            restored.counter_id("events").unwrap(),
            restored.histogram_id("lat").unwrap(),
        );
        restored.record(lat, 0.4);
        restored.add(events, 0);
        assert_eq!(restored.snapshot(), reg.snapshot());
    }

    #[test]
    fn reset_clears_but_keeps_enablement() {
        let mut reg = MetricsRegistry::enabled();
        let a = reg.register_counter("a");
        reg.add(a, 1);
        reg.reset();
        assert!(reg.snapshot().is_empty());
        assert!(reg.is_enabled());
        reg.add(a, 1);
        assert_eq!(reg.snapshot().counter("a"), Some(1));
    }

    #[test]
    fn reset_preserves_registered_handles() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.register_counter("c");
        let g = reg.register_gauge("g");
        let h = reg.register_histogram("h");
        reg.add(c, 41);
        reg.set(g, 3.5);
        reg.record(h, 1.0);
        reg.reset();
        assert!(reg.snapshot().is_empty(), "reset drops recorded values");
        // The old handles still point at their (zeroed) slots…
        reg.add(c, 1);
        reg.set(g, 2.0);
        reg.record(h, 4.0);
        // …and re-registering the same names returns the same ids.
        assert_eq!(reg.register_counter("c"), c);
        assert_eq!(reg.register_gauge("g"), g);
        assert_eq!(reg.register_histogram("h"), h);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(1));
        assert_eq!(snap.gauge("g"), Some(2.0));
        let hist = snap.histogram("h").unwrap();
        assert_eq!((hist.count, hist.min, hist.max), (1, 4.0, 4.0));
    }

    #[test]
    fn slo_summary_reads_the_p99_tail() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.record(f64::from(i));
        }
        let slo = SloSummary::of(&h);
        assert_eq!(slo.count, 1000);
        assert_eq!(slo.max, 999.0);
        assert!(slo.p50 <= slo.p95 && slo.p95 <= slo.p99 && slo.p99 <= slo.max);
        // p99 must land in the tail, beyond the p95 estimate's bucket floor.
        assert!(slo.p99 >= 512.0, "{}", slo.p99);
        // Empty distributions summarise to zeros.
        assert_eq!(SloSummary::of(&Histogram::new()), SloSummary::default());
    }
}
