//! The metric registry: named atomic counters, gauges and fixed-bucket
//! histograms.
//!
//! A [`Registry`] is *global-free*: there is no process-wide singleton,
//! callers construct one per run (CLI `--profile`), per daemon
//! ([`pstrace-stream`]'s server) or per test, and hand out shares via
//! `Arc`. Handles returned by [`Registry::counter`] & friends are cheap
//! `Arc`-backed clones whose updates are single relaxed atomic operations,
//! so they are safe to touch from hot loops and worker threads.
//!
//! [`pstrace-stream`]: https://example.com/pstrace

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, WallClock};
use crate::span::{Span, SpanRecord};

/// A metric's identity: its name plus an ordered label set.
///
/// Labels are sorted at construction so `{a=1,b=2}` and `{b=2,a=1}` name
/// the same metric, and the registry's `BTreeMap` ordering (name first,
/// then labels) gives every exporter a stable iteration order for free.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_owned(),
            labels,
        }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sorted label pairs.
    #[must_use]
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }
}

/// A monotone counter handle. Clones share the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable signed value. Clones share the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtracts `d`.
    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared storage of one histogram.
#[derive(Debug)]
pub struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the implicit `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram handle. Clones share the cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (the +Inf bucket is implicit)"
        );
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        // Atomic f64 add by CAS on the bit pattern.
        let mut old = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => old = cur,
            }
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// The finite bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts (finite buckets then `+Inf`), non-cumulative.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time reading of one metric, as exporters consume it.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram reading.
    Histogram {
        /// Finite bucket upper bounds.
        bounds: Vec<f64>,
        /// Non-cumulative per-bucket counts (finite buckets then `+Inf`).
        buckets: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// The metric and span registry. See the module docs.
#[derive(Debug)]
pub struct Registry {
    clock: Box<dyn Clock>,
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry reading time from a [`WallClock`].
    #[must_use]
    pub fn new() -> Self {
        Registry::with_clock(Box::new(WallClock::new()))
    }

    /// A registry reading time from `clock` (tests inject a
    /// [`ManualClock`](crate::ManualClock) here).
    #[must_use]
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Registry {
            clock,
            metrics: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The current clock reading.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn register(&self, key: MetricKey, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("metric table poisoned");
        let entry = metrics.entry(key.clone()).or_insert_with(make);
        entry.clone()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// [`counter`](Registry::counter) with labels.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        match self.register(key, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// [`gauge`](Registry::gauge) with labels.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        match self.register(key, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name` with the given finite bucket bounds,
    /// registering it on first use (first registration wins the bounds).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or if
    /// `bounds` is not strictly increasing and finite.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// [`histogram`](Registry::histogram) with labels.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind, or if
    /// `bounds` is not strictly increasing and finite.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let key = MetricKey::new(name, labels);
        match self.register(key, || Metric::Histogram(Histogram::with_bounds(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Point-in-time readings of every metric, in stable (name, labels)
    /// order — the exporters' input.
    #[must_use]
    pub fn samples(&self) -> Vec<(MetricKey, Sample)> {
        let metrics = self.metrics.lock().expect("metric table poisoned");
        metrics
            .iter()
            .map(|(key, metric)| {
                let sample = match metric {
                    Metric::Counter(c) => Sample::Counter(c.get()),
                    Metric::Gauge(g) => Sample::Gauge(g.get()),
                    Metric::Histogram(h) => Sample::Histogram {
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                };
                (key.clone(), sample)
            })
            .collect()
    }

    /// Starts a span on logical thread 0; the measurement lands when the
    /// returned guard drops (or [`Span::finish`] is called).
    #[must_use]
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        self.span_on(name, 0)
    }

    /// [`span`](Registry::span) on an explicit logical thread id (worker
    /// pools pass their worker index so timelines render per lane).
    #[must_use]
    pub fn span_on(&self, name: impl Into<String>, tid: u32) -> Span<'_> {
        Span::start(self, name.into(), tid)
    }

    /// Times `f` under a span named `name`.
    pub fn time<T>(&self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Records a finished span directly (the [`Span`] guard calls this).
    pub fn record_span(&self, record: SpanRecord) {
        self.spans.lock().expect("span log poisoned").push(record);
    }

    /// A copy of every recorded span, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Merges point-in-time samples from several registries into one sample
/// set, as if every update had landed in a single registry.
///
/// Counters and gauges sum; histograms with identical bucket bounds sum
/// bucket-wise (counts, totals and sums add). The output keeps the
/// registries' stable (name, labels) order, so
/// [`render_prometheus_samples`](crate::render_prometheus_samples) over
/// the merge is a valid single exposition. This is the aggregation path
/// of sharded daemons: each shard owns a private registry (lock-free hot
/// path), the scrape merges.
///
/// # Panics
///
/// Panics when the same key carries different metric kinds or histogram
/// bounds across registries — same-name-same-kind is the registry's own
/// convention ([`Registry::counter`] panics intra-registry), extended
/// here across shards.
#[must_use]
pub fn merged_samples(registries: &[Arc<Registry>]) -> Vec<(MetricKey, Sample)> {
    let mut merged: BTreeMap<MetricKey, Sample> = BTreeMap::new();
    for registry in registries {
        for (key, sample) in registry.samples() {
            match merged.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(sample);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let name = slot.key().name().to_owned();
                    match (slot.get_mut(), sample) {
                        (Sample::Counter(a), Sample::Counter(b)) => *a += b,
                        (Sample::Gauge(a), Sample::Gauge(b)) => *a += b,
                        (
                            Sample::Histogram {
                                bounds: ba,
                                buckets: ka,
                                sum: sa,
                                count: ca,
                            },
                            Sample::Histogram {
                                bounds: bb,
                                buckets: kb,
                                sum: sb,
                                count: cb,
                            },
                        ) => {
                            assert_eq!(
                                *ba, bb,
                                "histogram `{name}` has mismatched bounds across registries"
                            );
                            for (a, b) in ka.iter_mut().zip(kb) {
                                *a += b;
                            }
                            *sa += sb;
                            *ca += cb;
                        }
                        _ => panic!("metric `{name}` has mismatched kinds across registries"),
                    }
                }
            }
        }
    }
    merged.into_iter().collect()
}

/// Times `f` under `name` when a registry is present, or just runs it.
///
/// The instrumented pipeline layers thread `Option<&Registry>` through
/// their hot paths; this helper keeps the uninstrumented path free of any
/// clock reads or allocation.
pub fn maybe_time<T>(obs: Option<&Registry>, name: &str, f: impl FnOnce() -> T) -> T {
    match obs {
        Some(registry) => registry.time(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("hits").get(), 5, "same name shares the cell");
        let g = r.gauge("depth");
        g.set(7);
        g.sub(2);
        g.add(1);
        assert_eq!(r.gauge("depth").get(), 6);
    }

    #[test]
    fn labeled_metrics_are_distinct_and_order_insensitive() {
        let r = Registry::new();
        r.counter_with("damage", &[("reason", "bad-tag")]).inc();
        r.counter_with("damage", &[("reason", "time-spike")]).add(2);
        assert_eq!(r.counter_with("damage", &[("reason", "bad-tag")]).get(), 1);
        let k1 = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        let k2 = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(k1, k2);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn samples_come_out_in_stable_order() {
        let r = Registry::new();
        let _ = r.gauge("zeta");
        let _ = r.counter("alpha");
        let _ = r.counter_with("alpha", &[("k", "v")]);
        let names: Vec<String> = r
            .samples()
            .iter()
            .map(|(k, _)| format!("{}{:?}", k.name(), k.labels()))
            .collect();
        assert_eq!(names, ["alpha[]", "alpha[(\"k\", \"v\")]", "zeta[]"]);
    }

    #[test]
    fn spans_measure_manual_ticks() {
        let r = Registry::with_clock(Box::new(ManualClock::with_tick(10)));
        r.time("phase", || ());
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[0].dur_ns, 10);
    }

    #[test]
    fn maybe_time_skips_without_a_registry() {
        assert_eq!(maybe_time(None, "x", || 41 + 1), 42);
        let r = Registry::new();
        assert_eq!(maybe_time(Some(&r), "x", || 42), 42);
        assert_eq!(r.spans().len(), 1);
    }

    /// The same update stream applied to one registry, or spread
    /// round-robin over three then merged, must sample identically.
    #[test]
    fn merge_of_sharded_registries_equals_a_single_registry() {
        let single = Registry::new();
        let shards: Vec<Arc<Registry>> = (0..3).map(|_| Arc::new(Registry::new())).collect();
        let apply = |r: &Registry, i: u64| {
            r.counter("events").add(i + 1);
            r.counter_with(
                "by_kind",
                &[("kind", if i.is_multiple_of(2) { "a" } else { "b" })],
            )
            .inc();
            r.gauge("active")
                .add(if i.is_multiple_of(3) { 2 } else { -1 });
            r.histogram("lat", &[1.0, 10.0]).observe(i as f64);
        };
        for i in 0..20u64 {
            apply(&single, i);
            apply(&shards[(i % 3) as usize], i);
        }
        assert_eq!(merged_samples(&shards), single.samples());
    }

    #[test]
    fn merge_sums_every_kind_bucketwise() {
        let a = Arc::new(Registry::new());
        let b = Arc::new(Registry::new());
        a.counter("c").add(3);
        b.counter("c").add(4);
        a.gauge("g").set(5);
        b.gauge("g").set(-2);
        a.histogram("h", &[1.0]).observe(0.5);
        b.histogram("h", &[1.0]).observe(2.0);
        let merged = merged_samples(&[a, b]);
        assert_eq!(
            merged,
            vec![
                (MetricKey::new("c", &[]), Sample::Counter(7)),
                (MetricKey::new("g", &[]), Sample::Gauge(3)),
                (
                    MetricKey::new("h", &[]),
                    Sample::Histogram {
                        bounds: vec![1.0],
                        buckets: vec![1, 1],
                        sum: 2.5,
                        count: 2,
                    }
                ),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "mismatched kinds")]
    fn merge_panics_on_kind_mismatch() {
        let a = Arc::new(Registry::new());
        let b = Arc::new(Registry::new());
        a.counter("m").inc();
        b.gauge("m").set(1);
        let _ = merged_samples(&[a, b]);
    }
}
