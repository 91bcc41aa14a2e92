//! Atomic runtime self-metrics: counters, gauges, and log2-bucketed
//! histograms behind a get-or-create [`Registry`].
//!
//! Recording is wait-free (one or three relaxed atomic RMWs); only
//! registration and snapshotting take a lock. A [`MetricsSnapshot`] is
//! the serializable, mergeable view: entries sorted by key, histograms
//! reduced to sparse bucket counts — which is what lets the fleet
//! coordinator merge per-worker snapshots in deterministic
//! (worker, key) order regardless of arrival timing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use firm_wire::{Context, DecodeError, JsonValue, Obj, WireDecode, WireEncode};

/// A monotonically increasing count (requests dispatched, frames
/// decoded, bytes written).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (queue depth, live workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the value by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per bit width of a `u64`, plus a
/// dedicated zero bucket.
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: its bit width (0 for 0, 1 for 1,
/// 2 for 2–3, 3 for 4–7, ... 64 for the top half of `u64`).
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value a bucket can hold — the quantile estimate reported
/// for ranks that fall in it.
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        w => (1u64 << w) - 1,
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in
/// microseconds, sizes in bytes). Recording touches three relaxed
/// atomics; quantiles come from [`Histogram::snapshot`].
///
/// Log2 buckets trade precision for zero allocation and a fixed
/// footprint: any quantile estimate is within 2× of the true sample,
/// and the exact `max` is tracked separately so the tail is never
/// overstated.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The current distribution as a serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time, mergeable view of a [`Histogram`]: total count and
/// sum, exact max, and the sparse non-empty buckets (sorted by index).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping add on overflow, like recording).
    pub sum: u64,
    /// Exact largest sample.
    pub max: u64,
    /// `(bucket index, samples in bucket)`, ascending, empty buckets
    /// omitted.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The estimated value at quantile `q` in `[0, 1]`: the upper bound
    /// of the bucket holding the rank-`ceil(q·count)` sample, clamped
    /// to the exact max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(index as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of all samples (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another snapshot in bucket-wise; counts and sums add, max
    /// takes the larger.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *merged.entry(i).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

impl WireEncode for HistogramSnapshot {
    fn encode(&self) -> JsonValue {
        let buckets = JsonValue::Array(
            self.buckets
                .iter()
                .map(|&(i, n)| JsonValue::Array(vec![JsonValue::U64(i as u64), JsonValue::U64(n)]))
                .collect(),
        );
        Obj::new()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("max", self.max)
            .field("buckets", buckets)
            .build()
    }
}

impl WireDecode for HistogramSnapshot {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        let buckets_doc: JsonValue = v.field("buckets")?;
        let mut buckets = Vec::new();
        for (slot, pair) in buckets_doc
            .as_array()
            .context("buckets")?
            .iter()
            .enumerate()
        {
            let pair = pair.as_array().context("buckets")?;
            if pair.len() != 2 {
                return Err(DecodeError::new(format!(
                    "histogram bucket {slot} is not an [index, count] pair"
                )));
            }
            let index = u64::decode(&pair[0]).context("buckets")?;
            if index as usize >= BUCKETS {
                return Err(DecodeError::new(format!(
                    "histogram bucket index {index} out of range"
                )));
            }
            buckets.push((index as u8, u64::decode(&pair[1]).context("buckets")?));
        }
        Ok(HistogramSnapshot {
            count: v.field("count")?,
            sum: v.field("sum")?,
            max: v.field("max")?,
            buckets,
        })
    }
}

/// A snapshot of one metric, tagged by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(i64),
    /// A [`Histogram`] distribution.
    Histogram(HistogramSnapshot),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn value(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// The get-or-create metric store. Call sites name a metric and get the
/// shared atomic handle back; the first caller creates it. Keys are
/// dotted paths (`fleet.dispatch.latency_us`), and snapshots iterate
/// them in sorted order so two snapshots of the same state render the
/// same bytes.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `key`, created on first use.
    ///
    /// # Panics
    /// If `key` is already registered as a different metric kind.
    pub fn counter(&self, key: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("obs registry lock");
        let metric = metrics
            .entry(key.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric `{key}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `key`, created on first use.
    ///
    /// # Panics
    /// If `key` is already registered as a different metric kind.
    pub fn gauge(&self, key: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("obs registry lock");
        let metric = metrics
            .entry(key.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric `{key}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `key`, created on first use.
    ///
    /// # Panics
    /// If `key` is already registered as a different metric kind.
    pub fn histogram(&self, key: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("obs registry lock");
        let metric = metrics
            .entry(key.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric `{key}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Reads every registered metric, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("obs registry lock");
        MetricsSnapshot {
            entries: metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.value()))
                .collect(),
        }
    }

    /// Drops every registered metric (handles held by call sites keep
    /// working but are no longer snapshotted). Test isolation only.
    pub fn reset(&self) {
        self.metrics.lock().expect("obs registry lock").clear();
    }
}

/// Every metric in a registry at one point in time, sorted by key.
/// This is what crosses the wire in a `WorkerMessage::Metrics` frame
/// and what an `OpsReport` is built from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(key, value)`, ascending by key.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Folds another snapshot in, key by key: counters and gauges add,
    /// histograms merge bucket-wise, disjoint keys are kept. Same-key
    /// kind mismatches keep `self`'s entry (snapshots from one metric
    /// catalog never disagree on kind).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut merged: BTreeMap<String, MetricValue> = self.entries.drain(..).collect();
        for (key, value) in &other.entries {
            match (merged.get_mut(key), value) {
                (None, v) => {
                    merged.insert(key.clone(), v.clone());
                }
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => {
                    *a = a.wrapping_add(*b);
                }
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => {
                    *a = a.wrapping_add(*b);
                }
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => {
                    a.merge(b);
                }
                (Some(_), _) => {}
            }
        }
        self.entries = merged.into_iter().collect();
    }
}

impl WireEncode for MetricsSnapshot {
    fn encode(&self) -> JsonValue {
        let entries = JsonValue::Array(
            self.entries
                .iter()
                .map(|(key, value)| match value {
                    MetricValue::Counter(n) => Obj::tagged("counter")
                        .field("key", key.as_str())
                        .field("value", *n)
                        .build(),
                    MetricValue::Gauge(n) => Obj::tagged("gauge")
                        .field("key", key.as_str())
                        .field("value", *n)
                        .build(),
                    MetricValue::Histogram(h) => Obj::tagged("histogram")
                        .field("key", key.as_str())
                        .field("value", h)
                        .build(),
                })
                .collect(),
        );
        Obj::tagged("metrics").field("entries", entries).build()
    }
}

impl WireDecode for MetricsSnapshot {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        v.expect_tag("metrics")?;
        let entries_doc: JsonValue = v.field("entries")?;
        let mut entries = Vec::new();
        for entry in entries_doc.as_array().context("entries")? {
            let key: String = entry.field("key").context("entries")?;
            let value = match entry.tag().context("entries")? {
                "counter" => MetricValue::Counter(entry.field("value").context("entries")?),
                "gauge" => MetricValue::Gauge(entry.field("value").context("entries")?),
                "histogram" => MetricValue::Histogram(entry.field("value").context("entries")?),
                other => return Err(DecodeError::new(format!("unknown metric kind `{other}`"))),
            };
            entries.push((key, value));
        }
        Ok(MetricsSnapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        // The zero bucket, then one bucket per bit width: [2^(w-1), 2^w).
        for (value, bucket) in [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1023, 10),
            (1024, 11),
            (u64::MAX, 64),
        ] {
            assert_eq!(bucket_index(value), bucket, "value {value}");
            assert!(value <= bucket_upper_bound(bucket));
            if bucket > 0 {
                assert!(value > bucket_upper_bound(bucket - 1));
            }
        }
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.sum, 500_500);
        // Estimates are bucket upper bounds: within 2x above the true
        // quantile, never above the exact max.
        assert!(snap.p50() >= 500 && snap.p50() <= 1000);
        assert!(snap.p99() >= 990 && snap.p99() <= 1000);
        assert_eq!(snap.quantile(1.0), 1000);
        assert!((snap.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [1u64, 2, 2, 100] {
            a.record(v);
        }
        for v in [2u64, 3, 5000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 7);
        assert_eq!(merged.max, 5000);
        assert_eq!(merged.sum, 105 + 5005);
        let everything = Histogram::default();
        for v in [1u64, 2, 2, 100, 2, 3, 5000] {
            everything.record(v);
        }
        assert_eq!(merged, everything.snapshot());
    }

    #[test]
    fn registry_get_or_create_returns_shared_handles() {
        let reg = Registry::new();
        reg.counter("a.requests").add(3);
        reg.counter("a.requests").inc();
        reg.gauge("a.depth").set(5);
        reg.gauge("a.depth").add(-2);
        reg.histogram("a.latency_us").record(7);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.get("a.requests"), Some(&MetricValue::Counter(4)));
        assert_eq!(snap.get("a.depth"), Some(&MetricValue::Gauge(3)));
        // Sorted by key.
        let keys: Vec<&str> = snap.entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.depth", "a.latency_us", "a.requests"]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_merge_adds_and_keeps_disjoint_keys() {
        let left = Registry::new();
        left.counter("shared.count").add(2);
        left.histogram("shared.lat").record(10);
        left.counter("only.left").inc();
        let right = Registry::new();
        right.counter("shared.count").add(5);
        right.histogram("shared.lat").record(1000);
        right.gauge("only.right").set(-4);

        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged.get("shared.count"), Some(&MetricValue::Counter(7)));
        assert_eq!(merged.get("only.left"), Some(&MetricValue::Counter(1)));
        assert_eq!(merged.get("only.right"), Some(&MetricValue::Gauge(-4)));
        let MetricValue::Histogram(h) = merged.get("shared.lat").unwrap() else {
            panic!("shared.lat lost its kind");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1000);
        // Merge result is still sorted.
        let keys: Vec<&str> = merged.entries.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn snapshots_round_trip_through_the_wire() {
        let reg = Registry::new();
        reg.counter("fleet.frames.rx").add(123);
        reg.gauge("fleet.queue.depth").set(-1);
        let h = reg.histogram("fleet.dispatch.latency_us");
        for v in [0u64, 1, 17, 900, 1_000_000] {
            h.record(v);
        }
        firm_wire::assert_round_trip(&reg.snapshot());
    }
}
