//! Windowed time-series over the metrics registry.
//!
//! End-of-run aggregates hide dynamics: a fault plan's congestion spike,
//! a rebalance storm or an eviction-backlog ramp are invisible between
//! t=0 and the final table. The [`TimeSeriesCollector`] fixes that by
//! snapshotting the registry on simulated-time window boundaries and
//! storing per-window *deltas*:
//!
//! * counters — the increase during the window (zero deltas omitted);
//! * gauges — the value at window close, recorded only when it changed
//!   (readers carry the last value forward);
//! * histograms — full bucket deltas, so per-window p50/p95/p99 are
//!   computed from exactly the observations of that window.
//!
//! Windows with no activity are omitted entirely, which keeps long idle
//! runs cheap and makes the encoding a sparse delta stream.
//!
//! # Determinism and merging
//!
//! [`SeriesData::merge`] combines shards by window index — counters add,
//! gauges take the later shard's value, histogram buckets add — so a
//! coordinator that merges worker series in input order produces output
//! byte-identical to a sequential run at any `--jobs` count.
//! [`SeriesData::prefixed`] namespaces a worker's metrics (e.g. by fault
//! plan) so independent shards never collide in the first place.
//!
//! # Window attribution
//!
//! The collector samples at the observation points the runtimes thread
//! through it ([`Telemetry::observe_time`](crate::Telemetry::observe_time)).
//! All activity between two observations lands in the window containing
//! the *earlier* observation's boundary crossing — sampling semantics,
//! not event semantics. Hooks sit on every simulated-clock advance (verb
//! posts, fabric waits, log apply, eviction flushes), so in practice a
//! window's deltas track its simulated interval closely.

use crate::metrics::{HistogramData, HistogramSummary, Registry};
use kona_types::Nanos;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default window width (250µs of simulated time) used when a window
/// size is requested but not specified.
pub const DEFAULT_WINDOW_NS: u64 = 250_000;

/// The delta of one window: everything that changed between two
/// consecutive simulated-time boundaries.
#[derive(Debug, Clone, Default)]
pub struct SeriesWindow {
    /// Window index; the window covers
    /// `[index * window_ns, (index + 1) * window_ns)`.
    pub index: u64,
    /// Counter increases during the window (zero deltas omitted).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at window close, present only when changed.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram observations recorded during the window (bucket deltas;
    /// empty histograms omitted).
    pub histograms: BTreeMap<String, HistogramData>,
}

impl SeriesWindow {
    /// An empty window at `index` (used by readers to fill gaps).
    pub fn empty(index: u64) -> Self {
        SeriesWindow {
            index,
            ..SeriesWindow::default()
        }
    }

    /// Whether nothing changed in this window.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Simulated start time of the window.
    pub fn start_ns(&self, window_ns: u64) -> u64 {
        self.index.saturating_mul(window_ns)
    }

    /// Adds `other`'s deltas (same window index on another shard) into
    /// this window: counters add, gauges take `other`'s value, histogram
    /// buckets add exactly.
    fn merge_from(&mut self, other: &SeriesWindow) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, data) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(data);
        }
    }

    /// A copy with every metric renamed to `{prefix}.{name}`.
    fn prefixed(&self, prefix: &str) -> SeriesWindow {
        let rename = |name: &String| format!("{prefix}.{name}");
        SeriesWindow {
            index: self.index,
            counters: self.counters.iter().map(|(n, v)| (rename(n), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (rename(n), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, d)| (rename(n), d.clone()))
                .collect(),
        }
    }
}

/// A complete delta-encoded series: the window width plus every
/// non-empty window in index order.
#[derive(Debug, Clone)]
pub struct SeriesData {
    /// Window width in simulated nanoseconds.
    pub window_ns: u64,
    /// Non-empty windows, sorted by index.
    pub windows: Vec<SeriesWindow>,
}

impl SeriesData {
    /// An empty series with `window_ns`-wide windows (clamped to ≥ 1).
    pub fn new(window_ns: u64) -> Self {
        SeriesData {
            window_ns: window_ns.max(1),
            windows: Vec::new(),
        }
    }

    /// Merges another shard's series into this one by window index.
    /// Deterministic in call order and associative, so merging worker
    /// shards in input order yields byte-identical output at any job
    /// count.
    ///
    /// # Panics
    ///
    /// Panics when the window widths differ — merging incompatible
    /// series is a caller bug.
    pub fn merge(&mut self, other: &SeriesData) {
        assert_eq!(
            self.window_ns, other.window_ns,
            "merging series with different window widths"
        );
        for w in &other.windows {
            match self.windows.binary_search_by_key(&w.index, |x| x.index) {
                Ok(i) => self.windows[i].merge_from(w),
                Err(i) => self.windows.insert(i, w.clone()),
            }
        }
    }

    /// A copy with every metric renamed to `{prefix}.{name}`, so shards
    /// from independent runs (e.g. one per fault plan) can be merged into
    /// one document without colliding.
    pub fn prefixed(&self, prefix: &str) -> SeriesData {
        SeriesData {
            window_ns: self.window_ns,
            windows: self.windows.iter().map(|w| w.prefixed(prefix)).collect(),
        }
    }

    /// Sum of `name`'s counter deltas across all windows (the value the
    /// end-of-run registry must report for conservation to hold).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.windows
            .iter()
            .filter_map(|w| w.counters.get(name))
            .sum()
    }

    /// Serializes the series as a JSON document: the window width plus an
    /// array of windows, each holding its counter deltas, changed gauges
    /// and per-window histogram summaries.
    pub fn to_json(&self) -> String {
        use crate::export::{json_escape, json_f64};
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"window_ns\": {},\n  \"windows\": [", self.window_ns);
        for (wi, w) in self.windows.iter().enumerate() {
            let sep = if wi == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"index\": {}, \"start_ns\": {}, \"counters\": {{",
                w.index,
                w.start_ns(self.window_ns)
            );
            for (i, (name, v)) in w.counters.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\": {v}", json_escape(name));
            }
            out.push_str("}, \"gauges\": {");
            for (i, (name, v)) in w.gauges.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\": {}", json_escape(name), json_f64(*v));
            }
            out.push_str("}, \"histograms\": {");
            for (i, (name, data)) in w.histograms.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let h = HistogramSummary::of(data);
                let _ = write!(
                    out,
                    "{sep}\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    json_escape(name),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    json_f64(h.mean),
                    h.p50,
                    h.p95,
                    h.p99
                );
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serializes the series as CSV rows:
    /// `window,start_ns,kind,name,field,value`.
    pub fn to_csv(&self) -> String {
        use crate::export::json_f64;
        let mut out = String::from("window,start_ns,kind,name,field,value\n");
        let quote = |name: &str| {
            if name.contains(',') || name.contains('"') {
                format!("\"{}\"", name.replace('"', "\"\""))
            } else {
                name.to_string()
            }
        };
        for w in &self.windows {
            let start = w.start_ns(self.window_ns);
            let idx = w.index;
            for (name, v) in &w.counters {
                let _ = writeln!(out, "{idx},{start},counter,{},value,{v}", quote(name));
            }
            for (name, v) in &w.gauges {
                let _ = writeln!(
                    out,
                    "{idx},{start},gauge,{},value,{}",
                    quote(name),
                    json_f64(*v)
                );
            }
            for (name, data) in &w.histograms {
                let h = HistogramSummary::of(data);
                let name = quote(name);
                for (field, v) in [
                    ("count", h.count),
                    ("sum", h.sum),
                    ("min", h.min),
                    ("max", h.max),
                    ("p50", h.p50),
                    ("p95", h.p95),
                    ("p99", h.p99),
                ] {
                    let _ = writeln!(out, "{idx},{start},histogram,{name},{field},{v}");
                }
                let _ = writeln!(out, "{idx},{start},histogram,{name},mean,{}", json_f64(h.mean));
            }
        }
        out
    }
}

/// Collects per-window registry deltas on simulated-time boundaries.
///
/// Owned by [`Telemetry`](crate::Telemetry); the runtimes feed it via
/// `observe_time(now)` on every simulated-clock advance. Observations are
/// folded through `max`, so mixed clock sources (app charge clock, fabric
/// clock, per-node clocks) form one monotone axis.
#[derive(Debug)]
pub(crate) struct TimeSeriesCollector {
    window_ns: u64,
    /// Latest simulated time observed.
    last_seen: u64,
    /// Index of the window currently accumulating.
    open_index: u64,
    /// Registry values at the last window close (the delta baseline),
    /// one slot per registered metric in the registry's name order, so a
    /// close walks registry and baseline side by side: no lookups, and
    /// nothing is cloned for a metric that did not move.
    base_counters: Vec<(String, u64)>,
    /// `None` until the gauge's first close, which always records it.
    base_gauges: Vec<(String, Option<f64>)>,
    base_histograms: Vec<(String, HistogramData)>,
    data: SeriesData,
}

/// Brings `base` back in step with `current` (one slot per metric, in
/// name order) after metrics were registered: existing slots keep their
/// baseline, new names get `T::default()`. Metrics are never
/// unregistered, so equal lengths mean nothing to do.
fn realign<T: Default, V>(base: &mut Vec<(String, T)>, current: &BTreeMap<String, V>) {
    if base.len() == current.len() {
        return;
    }
    let mut old = std::mem::take(base).into_iter().peekable();
    for name in current.keys() {
        match old.next_if(|(n, _)| n == name) {
            Some(slot) => base.push(slot),
            None => base.push((name.clone(), T::default())),
        }
    }
}

impl TimeSeriesCollector {
    /// A collector with `window_ns`-wide windows (clamped to ≥ 1).
    pub fn new(window_ns: u64) -> Self {
        let data = SeriesData::new(window_ns);
        TimeSeriesCollector {
            window_ns: data.window_ns,
            last_seen: 0,
            open_index: 0,
            base_counters: Vec::new(),
            base_gauges: Vec::new(),
            base_histograms: Vec::new(),
            data,
        }
    }

    /// Window width in simulated nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Number of closed windows so far.
    pub fn len(&self) -> usize {
        self.data.windows.len()
    }

    /// The closed windows.
    pub fn windows(&self) -> &[SeriesWindow] {
        &self.data.windows
    }

    /// The collected series (closed windows only; call [`flush`] first to
    /// include the tail window).
    ///
    /// [`flush`]: TimeSeriesCollector::flush
    pub fn data(&self) -> &SeriesData {
        &self.data
    }

    /// Notes that simulated time reached `now`, closing the open window
    /// if a boundary was crossed. Non-monotone observations (a worker's
    /// private clock lagging the fabric) are folded through `max`.
    pub fn observe(&mut self, now: Nanos, registry: &Registry) {
        let now = now.as_ns();
        if now <= self.last_seen {
            return;
        }
        self.last_seen = now;
        let idx = now / self.window_ns;
        if idx != self.open_index {
            self.close_open(registry);
            self.open_index = idx;
        }
    }

    /// Closes the tail window so the series accounts for every recorded
    /// delta (conservation: window deltas sum to final registry totals).
    pub fn flush(&mut self, registry: &Registry) {
        self.close_open(registry);
    }

    /// Diffs the registry against the baseline, pushes the delta as the
    /// open window (when non-empty) and re-baselines what changed. Work
    /// and allocation are proportional to the metrics that moved during
    /// the window, plus one comparison per registered metric.
    fn close_open(&mut self, registry: &Registry) {
        realign(&mut self.base_counters, &registry.counters);
        realign(&mut self.base_gauges, &registry.gauges);
        realign(&mut self.base_histograms, &registry.histograms);
        let mut w = SeriesWindow::empty(self.open_index);
        for ((name, base), c) in self.base_counters.iter_mut().zip(registry.counters.values()) {
            let v = c.get();
            if v != *base {
                w.counters.insert(name.clone(), v - *base);
                *base = v;
            }
        }
        for ((name, base), g) in self.base_gauges.iter_mut().zip(registry.gauges.values()) {
            let v = g.get();
            if base.is_none_or(|b| b.to_bits() != v.to_bits()) {
                w.gauges.insert(name.clone(), v);
                *base = Some(v);
            }
        }
        for ((name, base), h) in self
            .base_histograms
            .iter_mut()
            .zip(registry.histograms.values())
        {
            h.with(|cur| {
                if cur.count() != base.count() {
                    w.histograms.insert(name.clone(), cur.delta_since(base));
                    base.clone_from(cur);
                }
            });
        }
        if !w.is_empty() {
            match self.data.windows.binary_search_by_key(&w.index, |x| x.index) {
                // Re-opening a window after a flush (e.g. series() mid-run
                // followed by more activity): fold into the existing one.
                Ok(i) => self.data.windows[i].merge_from(&w),
                Err(i) => self.data.windows.insert(i, w),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(c: &mut TimeSeriesCollector, reg: &Registry, ns: u64) {
        c.observe(Nanos::from_ns(ns), reg);
    }

    #[test]
    fn windows_hold_deltas_and_conserve_totals() {
        let mut reg = Registry::new();
        let mut c = TimeSeriesCollector::new(100);
        reg.counter("ops").add(3);
        reg.histogram("lat").record(10);
        observe(&mut c, &reg, 50);
        observe(&mut c, &reg, 150); // closes window 0
        reg.counter("ops").add(5);
        reg.histogram("lat").record(500);
        reg.gauge("depth").set(2.0);
        observe(&mut c, &reg, 260); // closes window 1
        c.flush(&reg);

        let data = c.data();
        assert_eq!(data.counter_total("ops"), 8);
        assert_eq!(data.windows[0].counters["ops"], 3);
        assert_eq!(data.windows[1].counters["ops"], 5);
        assert_eq!(data.windows[1].gauges["depth"], 2.0);
        assert_eq!(data.windows[0].histograms["lat"].count(), 1);
        assert_eq!(data.windows[1].histograms["lat"].max(), 500);
        // tel-internal counters absent → not in windows.
        assert!(!data.windows[0].counters.contains_key("missing"));
    }

    #[test]
    fn quiet_windows_are_omitted() {
        let mut reg = Registry::new();
        let mut c = TimeSeriesCollector::new(100);
        reg.counter("ops").inc();
        observe(&mut c, &reg, 10);
        // Jump far ahead with no activity: one delta window, no filler.
        observe(&mut c, &reg, 1_000);
        observe(&mut c, &reg, 2_000);
        c.flush(&reg);
        assert_eq!(c.len(), 1);
        assert_eq!(c.windows()[0].index, 0);
    }

    #[test]
    fn non_monotone_observations_fold_through_max() {
        let mut reg = Registry::new();
        let mut c = TimeSeriesCollector::new(100);
        reg.counter("a").inc();
        observe(&mut c, &reg, 250); // closes window 0, opens window 2
        observe(&mut c, &reg, 120); // stale clock: ignored
        reg.counter("a").inc();
        observe(&mut c, &reg, 310); // closes window 2
        c.flush(&reg);
        let data = c.data();
        assert_eq!(data.counter_total("a"), 2);
        assert_eq!(data.windows[0].index, 0);
        assert_eq!(data.windows[1].index, 2);
    }

    #[test]
    fn merge_is_exact_and_prefix_namespaces() {
        let mut reg_a = Registry::new();
        let mut a = TimeSeriesCollector::new(100);
        reg_a.counter("ops").add(2);
        reg_a.histogram("lat").record(100);
        a.observe(Nanos::from_ns(150), &reg_a);
        a.flush(&reg_a);

        let mut reg_b = Registry::new();
        let mut b = TimeSeriesCollector::new(100);
        reg_b.counter("ops").add(3);
        reg_b.histogram("lat").record(300);
        b.observe(Nanos::from_ns(150), &reg_b);
        b.flush(&reg_b);

        let mut merged = a.data().clone();
        merged.merge(b.data());
        assert_eq!(merged.counter_total("ops"), 5);
        assert_eq!(merged.windows[0].histograms["lat"].count(), 2);

        let p = a.data().prefixed("calm");
        assert_eq!(p.counter_total("calm.ops"), 2);
        assert!(p.windows[0].histograms.contains_key("calm.lat"));
    }

    #[test]
    fn json_and_csv_are_well_formed() {
        let mut reg = Registry::new();
        let mut c = TimeSeriesCollector::new(1_000);
        reg.counter("ops").add(4);
        reg.gauge("g").set(1.5);
        reg.histogram("lat").record(2_000);
        c.observe(Nanos::from_ns(1_500), &reg);
        c.flush(&reg);
        let json = c.data().to_json();
        assert!(json.contains("\"window_ns\": 1000"));
        assert!(json.contains("\"ops\": 4"));
        assert!(json.contains("\"p99\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let csv = c.data().to_csv();
        assert!(csv.starts_with("window,start_ns,kind,name,field,value\n"));
        assert!(csv.contains("0,0,counter,ops,value,4\n"));
        assert!(csv.contains("histogram,lat,count,1\n"));
    }

    /// The dump-and-diff window close the collector used to run, kept as
    /// the reference: deep-copy the registry with `dump()` and diff
    /// name-keyed maps against the previous copy.
    struct DumpDiffReference {
        base: crate::metrics::MetricsDump,
        data: SeriesData,
    }

    impl DumpDiffReference {
        fn close(&mut self, index: u64, registry: &Registry) {
            let cur = registry.dump();
            let mut w = SeriesWindow::empty(index);
            for (name, v) in &cur.counters {
                let base = self.base.counters.get(name).copied().unwrap_or(0);
                if *v != base {
                    w.counters.insert(name.clone(), v - base);
                }
            }
            for (name, v) in &cur.gauges {
                let changed = self
                    .base
                    .gauges
                    .get(name)
                    .is_none_or(|b| b.to_bits() != v.to_bits());
                if changed {
                    w.gauges.insert(name.clone(), *v);
                }
            }
            for (name, h) in &cur.histograms {
                let delta = match self.base.histograms.get(name) {
                    Some(base) => h.delta_since(base),
                    None => h.clone(),
                };
                if delta.count() > 0 {
                    w.histograms.insert(name.clone(), delta);
                }
            }
            if !w.is_empty() {
                match self.data.windows.binary_search_by_key(&w.index, |x| x.index) {
                    Ok(i) => self.data.windows[i].merge_from(&w),
                    Err(i) => self.data.windows.insert(i, w),
                }
            }
            self.base = cur;
        }
    }

    /// Random metric activity — metrics registered mid-run (some never
    /// moving), untouched and re-set gauges, quiet stretches, clocks
    /// running backwards, and mid-run flushes that re-open the tail
    /// window — must serialize byte-for-byte like the reference.
    #[test]
    fn window_close_matches_dump_and_diff_reference() {
        use kona_types::rng::{Rng, StdRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x7157 + seed);
            let mut reg = Registry::new();
            let mut new = TimeSeriesCollector::new(100);
            let mut reference = DumpDiffReference {
                base: Default::default(),
                data: SeriesData::new(100),
            };
            let mut now = 0u64;
            let name = |kind: &str, rng: &mut StdRng| format!("{kind}.m{:02}", rng.gen_range(0u32..10));
            for _ in 0..rng.gen_range(50usize..400) {
                match rng.gen_range(0u8..12) {
                    0..=2 => reg.counter(&name("c", &mut rng)).add(rng.gen_range(0u64..4)),
                    3 => reg.gauge(&name("g", &mut rng)).set(rng.gen_range(0u32..3) as f64 * 0.5),
                    4 => {
                        // Registered, possibly never set: its first close
                        // still reports the 0.0 it holds.
                        reg.gauge(&name("g,\"q\"", &mut rng));
                    }
                    5..=6 => reg.histogram(&name("h", &mut rng)).record(rng.gen_range(0u64..100_000)),
                    7 => {
                        reg.histogram(&name("h", &mut rng));
                    }
                    8 => {
                        // Mid-run series(): close the tail, keep going in
                        // the same window.
                        new.flush(&reg);
                        reference.close(new.open_index, &reg);
                    }
                    9 => now += rng.gen_range(500u64..5_000), // quiet windows
                    10 => now = now.saturating_sub(rng.gen_range(1u64..300)), // lagging clock
                    _ => now += rng.gen_range(1u64..120),
                }
                // The reference closes whichever window the collector
                // decides to close; only the diffing is under test.
                let open = new.open_index;
                new.observe(Nanos::from_ns(now), &reg);
                if new.open_index != open {
                    reference.close(open, &reg);
                }
            }
            new.flush(&reg);
            reference.close(new.open_index, &reg);
            assert!(new.len() > 3, "seed {seed}: {} windows", new.len());
            assert_eq!(new.data().to_json(), reference.data.to_json(), "seed {seed}");
            assert_eq!(new.data().to_csv(), reference.data.to_csv(), "seed {seed}");
        }
    }
}
