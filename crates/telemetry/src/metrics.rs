//! Metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones: a crate registers once (or receives a handle) and records with
//! a single relaxed atomic op — no locking, no allocation, no formatting
//! on the hot path. The registry itself is only locked to register a new
//! name or to take a [`MetricsSnapshot`].
//!
//! Snapshots are ordered by name (`BTreeMap` iteration — deterministic,
//! D1-safe) so serialized output is stable and diffable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// A monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// Stores `v` as the current value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn raise(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency bucket bounds in nanoseconds: powers of two from
/// 256 ns to ~2.3 s, plus an implicit overflow bucket. 24 buckets cover
/// everything from a cached probe to a full batch dispatch; quantiles
/// interpolate within a bucket, so factor-2 bounds resolve p50/p99 to
/// well under a factor of two — plenty for trend lines.
pub const LATENCY_BOUNDS_NS: [u64; 24] = [
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
    1 << 26,
    1 << 27,
    1 << 28,
    1 << 29,
    1 << 30,
    1 << 31,
];

#[derive(Debug)]
struct HistogramInner {
    /// Ascending bucket upper bounds (inclusive); values above the last
    /// bound land in the overflow bucket.
    bounds: Vec<u64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram handle. Recording is two relaxed atomic
/// adds plus a min/max update; bucket search is a branch-free linear
/// scan over at most a few dozen bounds.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds
    /// (an overflow bucket is added automatically).
    pub fn with_bounds(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        let h = &*self.inner;
        let idx = h.bounds.partition_point(|&b| b < v);
        h.counts[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy labelled `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let h = &*self.inner;
        let count = h.count.load(Ordering::Relaxed);
        let min = h.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: h.max.load(Ordering::Relaxed),
            bounds: h.bounds.clone(),
            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::with_bounds(&LATENCY_BOUNDS_NS)
    }
}

/// One named scalar in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricEntry {
    pub name: String,
    pub value: u64,
}

/// A point-in-time copy of one histogram: bucket bounds, per-bucket
/// counts (last entry is the overflow bucket), and summary moments.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated within
    /// the containing bucket; the overflow bucket reports the observed
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                cum += c;
                continue;
            }
            if cum + c >= rank {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: the best point estimate is the max.
                    return self.max;
                };
                let lower = if i == 0 {
                    self.min.min(upper)
                } else {
                    self.bounds[i - 1]
                };
                let frac = (rank - cum) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * frac) as u64;
            }
            cum += c;
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time, name-ordered copy of every registered metric.
///
/// This is the one export format: `Engine::metrics` returns it, an
/// `Exploration` carries it as `metrics`, and `--stats-json` serializes
/// it directly. Readers look values up by name.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<MetricEntry>,
    pub gauges: Vec<MetricEntry>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name)
    }

    /// Value of gauge `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name)
    }

    /// Histogram snapshot `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Inserts (or overwrites) counter `name`, keeping name order.
    /// Used by subsystems absorbing ad-hoc atomic counters into the
    /// snapshot at collection time.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        upsert(&mut self.counters, name, value);
    }

    /// Inserts (or overwrites) gauge `name`, keeping name order.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        upsert(&mut self.gauges, name, value);
    }
}

fn lookup(entries: &[MetricEntry], name: &str) -> u64 {
    entries
        .iter()
        .find(|e| e.name == name)
        .map_or(0, |e| e.value)
}

fn upsert(entries: &mut Vec<MetricEntry>, name: &str, value: u64) {
    match entries.binary_search_by(|e| e.name.as_str().cmp(name)) {
        Ok(i) => entries[i].value = value,
        Err(i) => entries.insert(
            i,
            MetricEntry {
                name: name.to_string(),
                value,
            },
        ),
    }
}

/// The registry: named handles, created on first use, snapshotted in
/// name order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// The counter named `name`, registering it if new.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, registering it if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, registering it with `bounds` if new
    /// (an existing histogram keeps its original bounds).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// A point-in-time, name-ordered copy of everything registered.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| MetricEntry {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| MetricEntry {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("a.count");
        c.add(2);
        c.incr();
        reg.counter("a.count").incr(); // same handle by name
        let g = reg.gauge("a.level");
        g.set(7);
        g.raise(3); // lower → no-op
        g.raise(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), 4);
        assert_eq!(snap.gauge("a.level"), 9);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let reg = MetricsRegistry::default();
        reg.counter("z").incr();
        reg.counter("a").incr();
        reg.counter("m").incr();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::with_bounds(&[10, 20, 40, 80]);
        for v in [1u64, 5, 12, 15, 18, 25, 30, 35, 50, 100] {
            h.record(v);
        }
        let s = h.snapshot("lat");
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        let p50 = s.p50();
        assert!((10..=20).contains(&p50), "p50={p50}");
        // p99 ranks into the overflow bucket → reports the max.
        assert_eq!(s.p99(), 100);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = Histogram::default().snapshot("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn upsert_keeps_order_and_overwrites() {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("b", 1);
        snap.set_counter("a", 2);
        snap.set_counter("b", 3);
        let names: Vec<&str> = snap.counters.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(snap.counter("b"), 3);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let reg = MetricsRegistry::default();
        reg.counter("c").add(5);
        reg.histogram("h", &[1, 2]).record(1);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
