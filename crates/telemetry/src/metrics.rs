//! Counters, gauges and log-bucketed histograms behind a registry.
//!
//! Handles returned by the registry are pre-resolved `Rc` cells, so hot
//! paths bump a counter with one pointer chase and no string lookup. The
//! registry itself is cheap enough to stay always-on: the runtimes derive
//! their public `RuntimeStats` from it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A floating-point metric that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// Sub-buckets per power-of-two octave (16 ⇒ ≤6.25% relative error).
const SUB: usize = 16;
const SUB_BITS: u32 = SUB.trailing_zeros(); // 4
/// Total buckets covering the full `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Index of the log-linear bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) - SUB;
        ((msb - SUB_BITS + 1) as usize) * SUB + sub
    }
}

/// Lower bound of bucket `i` (its representative value).
fn bucket_value(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let octave = (i / SUB) as u32 - 1;
        let sub = (i % SUB) as u64;
        (SUB as u64 + sub) << octave
    }
}

/// The bucketed data behind a [`Histogram`] handle.
#[derive(Debug)]
pub struct HistogramData {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramData {
    /// An empty histogram.
    pub fn new() -> Self {
        HistogramData {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` — the representative (lower
    /// bound) of the first bucket whose cumulative count reaches
    /// `q * count`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Exact endpoints beat bucket representatives.
                return Some(if i == bucket_index(self.max) {
                    self.max
                } else if i == bucket_index(self.min) {
                    self.min.max(bucket_value(i))
                } else {
                    bucket_value(i)
                });
            }
        }
        Some(self.max)
    }

    /// Median (`quantile(0.5)`), or 0 when empty.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5).unwrap_or(0)
    }

    /// 95th percentile, or 0 when empty.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95).unwrap_or(0)
    }

    /// 99th percentile, or 0 when empty.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99).unwrap_or(0)
    }

    /// Adds `other`'s observations into `self`. Bucket-wise addition,
    /// so merging is exact, commutative and associative.
    pub fn merge(&mut self, other: &HistogramData) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The observations recorded since `base`, where `base` is an earlier
    /// snapshot of this same histogram (bucket counts subtract per bucket).
    /// `count` and `sum` are exact; `min`/`max` are exact when the running
    /// extreme falls inside the delta's boundary buckets and bucket lower
    /// bounds otherwise (≤6.25% relative error, same as quantiles).
    pub fn delta_since(&self, base: &HistogramData) -> HistogramData {
        let count = self.count.saturating_sub(base.count);
        if count == 0 {
            return HistogramData::new();
        }
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&base.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let (Some(first), Some(last)) = (
            counts.iter().position(|&c| c > 0),
            counts.iter().rposition(|&c| c > 0),
        ) else {
            return HistogramData::new();
        };
        let min = if bucket_index(self.min) == first {
            self.min
        } else {
            bucket_value(first)
        };
        let max = if bucket_index(self.max) == last {
            self.max
        } else {
            bucket_value(last)
        };
        HistogramData {
            counts,
            count,
            sum: self.sum.saturating_sub(base.sum),
            min,
            max,
        }
    }
}

impl Clone for HistogramData {
    fn clone(&self) -> Self {
        HistogramData {
            counts: self.counts.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s bucket allocation (the time-series collector
    /// re-baselines a changed histogram this way at every window close).
    fn clone_from(&mut self, source: &Self) {
        self.counts.clone_from(&source.counts);
        self.count = source.count;
        self.sum = source.sum;
        self.min = source.min;
        self.max = source.max;
    }
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData::new()
    }
}

/// A shared handle to a registered histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Rc<RefCell<HistogramData>>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Reads through to the data (count, quantiles, ...).
    pub fn with<T>(&self, f: impl FnOnce(&HistogramData) -> T) -> T {
        f(&self.0.borrow())
    }

    /// A deep copy of the bucketed data.
    pub fn data(&self) -> HistogramData {
        self.0.borrow().clone()
    }
}

/// A name-keyed collection of counters, gauges and histograms.
///
/// `counter`/`gauge`/`histogram` get-or-create, so independent components
/// can share a metric by name.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) counters: BTreeMap<String, Counter>,
    pub(crate) gauges: BTreeMap<String, Gauge>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
    /// Cache of composed `{prefix}{id}.{suffix}` names, so per-instance
    /// metrics (e.g. `cluster.node3.backlog_bytes`) format once and every
    /// later resolution is allocation-free.
    interned: BTreeMap<(&'static str, u32, &'static str), String>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero if absent. Resolving an
    /// existing name never allocates.
    pub fn counter(&mut self, name: &str) -> Counter {
        if let Some(c) = self.counters.get(name) {
            return c.clone();
        }
        self.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created at zero if absent. Resolving an
    /// existing name never allocates.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.get(name) {
            return g.clone();
        }
        self.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created empty if absent. Resolving an
    /// existing name never allocates.
    pub fn histogram(&mut self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.get(name) {
            return h.clone();
        }
        self.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Composes `{prefix}{id}.{suffix}` at most once per triple, returning
    /// the interned full name.
    fn intern(&mut self, prefix: &'static str, id: u32, suffix: &'static str) -> &str {
        self.interned
            .entry((prefix, id, suffix))
            .or_insert_with(|| format!("{prefix}{id}.{suffix}"))
    }

    /// The counter named `{prefix}{id}.{suffix}` (e.g. `("cluster.node",
    /// 3, "applied")` → `cluster.node3.applied`). The composed name is
    /// interned, so hot re-registration never formats or allocates.
    pub fn counter_interned(&mut self, prefix: &'static str, id: u32, suffix: &'static str) -> Counter {
        if let Some(name) = self.interned.get(&(prefix, id, suffix)) {
            if let Some(c) = self.counters.get(name.as_str()) {
                return c.clone();
            }
        }
        let name = self.intern(prefix, id, suffix).to_string();
        self.counters.entry(name).or_default().clone()
    }

    /// The gauge named `{prefix}{id}.{suffix}`, with the same interning
    /// behaviour as [`Registry::counter_interned`].
    pub fn gauge_interned(&mut self, prefix: &'static str, id: u32, suffix: &'static str) -> Gauge {
        if let Some(name) = self.interned.get(&(prefix, id, suffix)) {
            if let Some(g) = self.gauges.get(name.as_str()) {
                return g.clone();
            }
        }
        let name = self.intern(prefix, id, suffix).to_string();
        self.gauges.entry(name).or_default().clone()
    }

    /// The histogram named `{prefix}{id}.{suffix}`, with the same
    /// interning behaviour as [`Registry::counter_interned`].
    pub fn histogram_interned(
        &mut self,
        prefix: &'static str,
        id: u32,
        suffix: &'static str,
    ) -> Histogram {
        if let Some(name) = self.interned.get(&(prefix, id, suffix)) {
            if let Some(h) = self.histograms.get(name.as_str()) {
                return h.clone();
            }
        }
        let name = self.intern(prefix, id, suffix).to_string();
        self.histograms.entry(name).or_default().clone()
    }

    /// The current value of counter `name`, or 0 if absent.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// Adds every metric of `other` into `self`: counters add, gauges
    /// take `other`'s value, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (name, c) in &other.counters {
            self.counter(name).add(c.get());
        }
        for (name, g) in &other.gauges {
            self.gauge(name).set(g.get());
        }
        for (name, h) in &other.histograms {
            let mine = self.histogram(name);
            h.with(|data| mine.0.borrow_mut().merge(data));
        }
    }

    /// A deep, `Send`-able copy of every metric, for shipping a worker
    /// thread's registry back to the coordinating thread. Unlike
    /// [`Registry::snapshot`], histograms keep their full bucket data, so
    /// [`Registry::absorb`] merges are exact.
    pub fn dump(&self) -> MetricsDump {
        MetricsDump {
            counters: self.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: self.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.data()))
                .collect(),
        }
    }

    /// Merges a worker's [`MetricsDump`] into this registry: counters add,
    /// gauges take the dump's value, histograms merge bucket-wise (exact).
    pub fn absorb(&mut self, dump: &MetricsDump) {
        for (name, v) in &dump.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &dump.gauges {
            self.gauge(name).set(*v);
        }
        for (name, data) in &dump.histograms {
            let mine = self.histogram(name);
            mine.0.borrow_mut().merge(data);
        }
    }

    /// A point-in-time copy of every metric, ready for export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.with(HistogramSummary::of)))
                .collect(),
        }
    }
}

/// A deep copy of a [`Registry`]'s metrics that is `Send`, produced by
/// [`Registry::dump`] and consumed by [`Registry::absorb`].
///
/// [`Telemetry`](crate::Telemetry) handles are `Rc`-based and cannot cross
/// threads; the parallel experiment engine gives each worker its own
/// registry and ships one of these back per task, merged on the
/// coordinating thread in input order so aggregate metrics are identical
/// to a sequential run.
#[derive(Debug, Clone, Default)]
pub struct MetricsDump {
    /// `(name, value)` for every counter.
    pub counters: BTreeMap<String, u64>,
    /// `(name, value)` for every gauge.
    pub gauges: BTreeMap<String, f64>,
    /// `(name, bucket data)` for every histogram.
    pub histograms: BTreeMap<String, HistogramData>,
}

/// Exported summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Saturating sum.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarizes `data`.
    pub fn of(data: &HistogramData) -> Self {
        HistogramSummary {
            count: data.count(),
            sum: data.sum(),
            min: data.min(),
            max: data.max(),
            mean: data.mean(),
            p50: data.p50(),
            p95: data.p95(),
            p99: data.p99(),
        }
    }
}

/// A point-in-time copy of a [`Registry`], sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, or `None` if absent.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, or `None` if absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The summary of histogram `name`, or `None` if absent.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// The subset of metrics whose names start with `prefix`, preserving
    /// order. Per-instance metric families share a name prefix (e.g.
    /// `tenant.3.` or `cluster.node0.`), so this is how attribution
    /// tables pull one instance's rows out of the shared registry.
    pub fn with_prefix(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_handles_share_state() {
        let mut reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("x"), 3);
        assert_eq!(reg.counter_value("missing"), 0);
        let g = reg.gauge("ratio");
        g.set(0.5);
        assert_eq!(reg.gauge("ratio").get(), 0.5);
    }

    #[test]
    fn bucket_index_monotone_and_invertible() {
        let mut prev = 0;
        for v in [0u64, 1, 5, 15, 16, 17, 31, 32, 100, 1_000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            // The representative never exceeds the value, and the value
            // fits inside the bucket's span.
            assert!(bucket_value(i) <= v);
            if i + 1 < BUCKETS {
                assert!(bucket_value(i + 1) > v, "value {v} beyond bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn snapshot_lookup() {
        let mut reg = Registry::new();
        reg.counter("a").add(7);
        reg.gauge("g").set(1.25);
        reg.histogram("h").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(7));
        assert_eq!(snap.gauge("g"), Some(1.25));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn snapshot_prefix_filter() {
        let mut reg = Registry::new();
        reg.counter_interned("tenant.", 1, "ops").add(5);
        reg.counter_interned("tenant.", 12, "ops").add(7);
        reg.counter("serve.admitted").add(9);
        reg.gauge_interned("tenant.", 1, "bytes").set(3.0);
        reg.histogram_interned("tenant.", 1, "lat_ns").record(100);
        let t1 = reg.snapshot().with_prefix("tenant.1.");
        assert_eq!(t1.counters.len(), 1, "tenant.12.* must not match tenant.1.");
        assert_eq!(t1.counter("tenant.1.ops"), Some(5));
        assert_eq!(t1.gauge("tenant.1.bytes"), Some(3.0));
        assert_eq!(t1.histograms.len(), 1);
        assert!(reg.snapshot().with_prefix("serve.").counter("serve.admitted") == Some(9));
    }

    #[test]
    fn dump_is_send_and_absorb_is_exact() {
        fn assert_send<T: Send>(_: &T) {}
        let mut worker = Registry::new();
        worker.counter("c").add(2);
        worker.gauge("g").set(3.5);
        worker.histogram("h").record(100);
        worker.histogram("h").record(200);
        let dump = worker.dump();
        assert_send(&dump);

        let mut main = Registry::new();
        main.counter("c").add(1);
        main.histogram("h").record(50);
        main.absorb(&dump);
        assert_eq!(main.counter_value("c"), 3);
        assert_eq!(main.gauge("g").get(), 3.5);
        main.histogram("h").with(|d| {
            assert_eq!(d.count(), 3);
            assert_eq!(d.sum(), 350);
            assert_eq!(d.min(), 50);
            assert_eq!(d.max(), 200);
        });
    }

    #[test]
    fn interned_names_share_state_with_plain_lookup() {
        let mut reg = Registry::new();
        let a = reg.gauge_interned("cluster.node", 3, "backlog_bytes");
        a.set(42.0);
        assert_eq!(reg.gauge("cluster.node3.backlog_bytes").get(), 42.0);
        // Re-resolution returns a handle to the same cell.
        let b = reg.gauge_interned("cluster.node", 3, "backlog_bytes");
        b.set(7.0);
        assert_eq!(a.get(), 7.0);
        let c = reg.counter_interned("cluster.node", 1, "applied");
        c.add(2);
        assert_eq!(reg.counter_value("cluster.node1.applied"), 2);
    }

    #[test]
    fn histogram_delta_since_is_exact_on_count_and_sum() {
        let mut h = HistogramData::new();
        for v in [10u64, 200, 3_000] {
            h.record(v);
        }
        let base = h.clone();
        for v in [5u64, 40_000, 41_000] {
            h.record(v);
        }
        let d = h.delta_since(&base);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 5 + 40_000 + 41_000);
        // min is exact here: the running min (5) lives in the delta's
        // first occupied bucket.
        assert_eq!(d.min(), 5);
        assert_eq!(d.max(), 41_000);
        // Empty delta.
        let e = h.delta_since(&h.clone());
        assert_eq!(e.count(), 0);
        assert_eq!(e.min(), 0);
        // Merging base + delta reproduces the final totals.
        let mut rebuilt = base.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.sum(), h.sum());
        assert_eq!(rebuilt.p99(), h.p99());
    }

    #[test]
    fn registry_merge_adds() {
        let mut a = Registry::new();
        a.counter("c").add(1);
        a.histogram("h").record(5);
        let mut b = Registry::new();
        b.counter("c").add(2);
        b.counter("only_b").add(9);
        b.histogram("h").record(7);
        a.merge(&b);
        assert_eq!(a.counter_value("c"), 3);
        assert_eq!(a.counter_value("only_b"), 9);
        assert_eq!(a.histogram("h").with(HistogramData::count), 2);
    }
}
