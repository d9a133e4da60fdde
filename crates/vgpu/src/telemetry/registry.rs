//! A runtime's metric registry: typed counters, gauges and histograms.
//!
//! Instrumented code registers a metric once by name and holds a cheap
//! cloneable handle; updates are single relaxed atomic operations, safe to
//! call from rayon workers. Snapshots are deterministic (name-ordered) and
//! serialisable, so they can be embedded in repro reports and dumped by the
//! sinks.

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone)]
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

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. bytes currently allocated).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets (bucket `i` counts values whose
/// highest set bit is `i - 1`; bucket 0 counts zeros).
const BUCKETS: usize = 65;

struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A power-of-two bucketed histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        let b = (64 - v.leading_zeros()) as usize;
        self.0.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Estimated value at quantile `q ∈ [0, 1]` from the power-of-two
    /// buckets; `None` when the histogram is empty. See
    /// [`quantile_from_buckets`] for the estimation rule.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        quantile_from_buckets(&counts, q)
    }
}

/// Quantile estimation over power-of-two bucket counts (`counts[i]` holds
/// samples in `[2^(i-1), 2^i)`; `counts[0]` holds zeros).
///
/// The estimate locates the 1-based rank `ceil(q × total)` (clamped to at
/// least 1) and linearly interpolates at *mid-rank* within the containing
/// bucket's range: a bucket holding one sample reports its midpoint, not an
/// edge. Two exactnesses hold by construction: bucket 0 yields exactly
/// `0.0`, and the top bucket's upper edge saturates at `u64::MAX` (its
/// nominal bound `2^64` is unrepresentable). Returns `None` for an empty
/// histogram.
pub fn quantile_from_buckets(counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if cum + c >= target {
            if i == 0 {
                return Some(0.0);
            }
            let lo = (1u128 << (i - 1)) as f64;
            let hi = if i >= 64 { u64::MAX as f64 } else { (1u64 << i) as f64 };
            let frac = ((target - cum) as f64 - 0.5) / c as f64;
            return Some(lo + frac * (hi - lo));
        }
        cum += c;
    }
    unreachable!("rank {target} beyond cumulative count {total}")
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistInner>),
}

/// The value part of a metric snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum MetricValue {
    /// Counter value.
    Counter {
        /// Accumulated count.
        value: u64,
    },
    /// Gauge value.
    Gauge {
        /// Instantaneous value.
        value: i64,
    },
    /// Histogram summary.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Non-empty buckets as `(lower_bound, count)` pairs.
        buckets: Vec<(u64, u64)>,
        /// Estimated median (see [`quantile_from_buckets`]); `None` when
        /// empty.
        p50: Option<f64>,
        /// Estimated 95th percentile.
        p95: Option<f64>,
        /// Estimated 99th percentile.
        p99: Option<f64>,
    },
}

/// One metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    #[serde(flatten)]
    pub value: MetricValue,
}

/// The registry. Each [`crate::runtime::Runtime`] owns one;
/// [`crate::telemetry::registry`] is the default runtime's.
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry { slots: Mutex::new(BTreeMap::new()) }
    }

    /// Returns the counter registered under `name`, registering it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
        {
            Slot::Counter(c) => Counter(c.clone()),
            _ => panic!("metric `{name}` is already registered with a different type"),
        }
    }

    /// Returns the gauge registered under `name`, registering it on first
    /// use. Panics on a type mismatch like [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))))
        {
            Slot::Gauge(g) => Gauge(g.clone()),
            _ => panic!("metric `{name}` is already registered with a different type"),
        }
    }

    /// Returns the histogram registered under `name`, registering it on
    /// first use. Panics on a type mismatch like [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.slots.lock();
        match slots.entry(name.to_string()).or_insert_with(|| {
            Slot::Histogram(Arc::new(HistInner {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                buckets: [const { AtomicU64::new(0) }; BUCKETS],
            }))
        }) {
            Slot::Histogram(h) => Histogram(h.clone()),
            _ => panic!("metric `{name}` is already registered with a different type"),
        }
    }

    /// Deterministic (name-ordered) snapshot of every registered metric.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let slots = self.slots.lock();
        slots
            .iter()
            .map(|(name, slot)| MetricSnapshot {
                name: name.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter { value: c.load(Ordering::Relaxed) },
                    Slot::Gauge(g) => MetricValue::Gauge { value: g.load(Ordering::Relaxed) },
                    Slot::Histogram(h) => {
                        let mut buckets = Vec::new();
                        let mut counts = [0u64; BUCKETS];
                        for (i, b) in h.buckets.iter().enumerate() {
                            let c = b.load(Ordering::Relaxed);
                            counts[i] = c;
                            if c > 0 {
                                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                                buckets.push((lo, c));
                            }
                        }
                        MetricValue::Histogram {
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                            buckets,
                            p50: quantile_from_buckets(&counts, 0.50),
                            p95: quantile_from_buckets(&counts, 0.95),
                            p99: quantile_from_buckets(&counts, 0.99),
                        }
                    }
                },
            })
            .collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("c").get(), 5);
        let g = r.gauge("g");
        g.add(10);
        g.add(-3);
        assert_eq!(r.gauge("g").get(), 7);
        let h = r.histogram("h");
        h.record(0);
        h.record(1);
        h.record(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1001);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "c");
        assert_eq!(snap[0].value, MetricValue::Counter { value: 5 });
        match &snap[2].value {
            MetricValue::Histogram { count: 3, sum: 1001, buckets, p50, .. } => {
                // 0 → bucket 0; 1 → [1,2); 1000 → [512,1024)
                assert_eq!(buckets, &vec![(0, 1), (1, 1), (512, 1)]);
                // Median rank 2 of 3 lands in the [1,2) bucket.
                let p50 = p50.expect("non-empty histogram has a median");
                assert!((1.0..2.0).contains(&p50), "p50 = {p50}");
            }
            other => panic!("unexpected snapshot {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn quantile_exact_single_bucket() {
        // One sample at 1 → bucket [1,2); every quantile is its mid-rank
        // interpolation, the bucket midpoint.
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(1);
        assert_eq!(h.quantile(0.5), Some(1.5));
        assert_eq!(h.quantile(0.99), Some(1.5));
        assert_eq!(h.quantile(0.0), Some(1.5)); // rank clamps to 1
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // Two samples in [4,8): p50 hits rank 1 (quarter point), p99 rank 2
        // (three-quarter point).
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(4);
        h.record(7);
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(0.99), Some(7.0));
    }

    #[test]
    fn quantile_zero_bucket_is_exact() {
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(0);
        h.record(0);
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), Some(0.0));
        // Rank 3 of 3 falls in the [2^20, 2^21) bucket.
        let p99 = h.quantile(0.99).unwrap();
        assert!(((1u64 << 20) as f64..(1u64 << 21) as f64).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        let r = Registry::new();
        let h = r.histogram("h");
        assert_eq!(h.quantile(0.5), None);
        match &r.snapshot()[0].value {
            MetricValue::Histogram { count: 0, p50: None, p95: None, p99: None, .. } => {}
            other => panic!("unexpected snapshot {other:?}"),
        }
    }

    #[test]
    fn quantile_top_bucket_saturates() {
        // u64::MAX lands in the top bucket, whose nominal upper bound 2^64
        // is unrepresentable — the estimate must stay finite and within
        // [2^63, u64::MAX].
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(u64::MAX);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50.is_finite());
        assert!(p50 >= (1u64 << 63) as f64 && p50 <= u64::MAX as f64, "p50 = {p50}");
    }
}
