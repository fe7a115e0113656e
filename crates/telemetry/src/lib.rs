//! Telemetry for the Kona simulator: causal span traces, a metrics
//! registry and zero-dependency exporters.
//!
//! The paper's evaluation lives and dies on per-component visibility —
//! verbs on the wire, eviction latency breakdowns, fault counts, dirty
//! amplification. This crate is the one place those signals flow through:
//!
//! * [`Recorder`] — where span events go. [`NoopRecorder`] (the default)
//!   discards them for near-zero overhead; [`TraceRecorder`] keeps a ring
//!   buffer for timeline export. Ring overflow is counted in the
//!   `tel.spans_dropped` counter.
//! * Causal tracing — [`Telemetry::trace_begin`]/[`Telemetry::trace_end`]
//!   give each top-level operation a [`TraceId`]; [`Telemetry::span_open`]
//!   /[`Telemetry::span_close`]/[`Telemetry::span_leaf`] build a tree of
//!   parent-linked spans under it (see `trace.rs` for the charge-clock
//!   model). A bounded flight recorder keeps the last N completed traces
//!   and an [`AttributionEngine`] decomposes each into components that
//!   sum exactly to end-to-end latency (see `attribution.rs`).
//! * [`Registry`] with [`Counter`] / [`Gauge`] / [`Histogram`] — always-on
//!   metrics. Handles are pre-resolved `Rc` cells, so hot paths never do
//!   string lookups. Histograms are log-bucketed and sized for simulated
//!   [`Nanos`](kona_types::Nanos) latencies (p50/p95/p99/max accessors).
//! * Exporters — [`MetricsSnapshot`] to JSON or CSV, and spans to Chrome
//!   trace-event JSON that <https://ui.perfetto.dev> renders as the
//!   application / eviction-poller / network threads on one simulated
//!   time axis, with parent/trace ids in each event's args.
//!
//! # Examples
//!
//! ```
//! use kona_telemetry::{EventKind, OpKind, Telemetry, Track, VerbOpcode};
//! use kona_types::Nanos;
//!
//! let tel = Telemetry::with_causal(1024, 8);
//! tel.trace_begin(OpKind::Access);
//! let fetch = tel.span_open(Track::App, EventKind::RemoteFetch);
//! tel.span_leaf(
//!     Track::Net,
//!     EventKind::Verb { opcode: VerbOpcode::Read, bytes: 4096 },
//!     Nanos::micros(3),
//! );
//! tel.span_close(fetch, Nanos::micros(3));
//! tel.trace_end(Nanos::micros(3));
//! let report = tel.attribution().expect("engine installed");
//! assert_eq!(report.violations(), 0);
//! assert!(tel.chrome_trace().contains("remote_fetch"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod event;
mod export;
mod metrics;
mod monitor;
mod profile;
mod recorder;
mod timeseries;
mod trace;

pub use attribution::{
    analyze_trace, AttributionEngine, Component, ComponentVec, OpAttribution, TraceAttribution,
};
pub use event::{
    merge_span_streams, EventKind, FaultKind, SpanEvent, SpanId, Track, TraceId, VerbOpcode,
};
pub use export::{
    snapshot_to_csv, snapshot_to_json, spans_to_chrome_trace, spans_to_chrome_trace_with_series,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramData, HistogramSummary, MetricsDump, MetricsSnapshot,
    Registry,
};
pub use monitor::{
    Alert, AlertTransition, HealthMonitor, HealthReport, Rule, RuleKind, RuleOutcome, Selector,
    SeriesField,
};
pub use profile::{LinkQueue, NodeQueue, PathStats, Profile, QueueStats};
pub use recorder::{NoopRecorder, Recorder, TraceRecorder};
pub use timeseries::{SeriesData, SeriesWindow, DEFAULT_WINDOW_NS};
pub use trace::{traces_to_json, OpKind, SpanToken, TraceRecord};

use kona_types::Nanos;
use std::cell::RefCell;
use std::rc::Rc;
use timeseries::TimeSeriesCollector;
use trace::CausalState;

/// Name of the counter tracking spans lost to recorder-ring overflow.
pub const SPANS_DROPPED: &str = "tel.spans_dropped";

/// Name of the counter tracking health-monitor alert firings.
pub const ALERTS_FIRED: &str = "mon.alerts_fired";

/// Name of the counter tracking health-monitor alert resolutions.
pub const ALERTS_RESOLVED: &str = "mon.alerts_resolved";

struct Inner {
    registry: Registry,
    recorder: Box<dyn Recorder>,
    causal: CausalState,
    engine: Option<AttributionEngine>,
    spans_dropped: Counter,
    timeseries: Option<TimeSeriesCollector>,
    monitor: Option<HealthMonitor>,
}

impl Inner {
    /// Routes one span to the recorder, charging ring overflow to the
    /// `tel.spans_dropped` counter so drops are visible in snapshots.
    fn record_one(&mut self, event: SpanEvent) {
        let before = self.recorder.dropped();
        self.recorder.record(event);
        let after = self.recorder.dropped();
        if after > before {
            self.spans_dropped.add(after - before);
        }
    }

    /// Feeds freshly closed windows to the monitor, recording every alert
    /// transition as a zero-width span at its window's closing boundary.
    /// The `mon.alerts_*` counters are bumped *after* the collector
    /// re-baselined, so they land in the next window's delta and never
    /// perturb the window that caused them.
    fn handle_closed(&mut self, closed: &[SeriesWindow], window_ns: u64) {
        let Some(monitor) = self.monitor.as_mut() else {
            return;
        };
        let mut transitions = Vec::new();
        for w in closed {
            transitions.extend(monitor.push(w));
        }
        for t in transitions {
            let at = Nanos::from_ns((t.window + 1).saturating_mul(window_ns));
            let rule = t.rule.min(u16::MAX as usize) as u16;
            let kind = if t.firing {
                EventKind::AlertFiring(rule)
            } else {
                EventKind::AlertResolved(rule)
            };
            self.record_one(SpanEvent::new(Track::Cluster, at, Nanos::ZERO, kind));
            let name = if t.firing { ALERTS_FIRED } else { ALERTS_RESOLVED };
            self.registry.counter(name).inc();
        }
    }

    /// Advances the time-series collector to `now` and runs the monitor
    /// over any windows that closed.
    fn observe_time(&mut self, now: Nanos) {
        let Some(ts) = self.timeseries.as_mut() else {
            return;
        };
        let before = ts.len();
        ts.observe(now, &self.registry);
        let after = ts.len();
        if after != before {
            let closed: Vec<SeriesWindow> = ts.windows()[before..after].to_vec();
            let window_ns = ts.window_ns();
            self.handle_closed(&closed, window_ns);
        }
    }

    /// Closes the tail window (and runs the monitor over it) so series
    /// and report include every recorded delta.
    fn flush_timeseries(&mut self) {
        let Some(ts) = self.timeseries.as_mut() else {
            return;
        };
        let before = ts.len();
        ts.flush(&self.registry);
        let after = ts.len();
        if after != before {
            let closed: Vec<SeriesWindow> = ts.windows()[before..after].to_vec();
            let window_ns = ts.window_ns();
            self.handle_closed(&closed, window_ns);
        }
    }
}

/// A cheaply clonable handle bundling the metrics registry with a span
/// recorder and the causal-tracing state.
///
/// Every component of the simulator accepts one of these; clones share
/// state, so the runtime, fabric, FPGA and eviction handler all feed one
/// registry and one trace tree. [`Telemetry::disabled`] (also `Default`)
/// keeps metrics but drops spans.
#[derive(Clone)]
pub struct Telemetry(Rc<RefCell<Inner>>);

impl Telemetry {
    /// Metrics only: spans go to a [`NoopRecorder`].
    pub fn disabled() -> Self {
        Telemetry::with_recorder(Box::new(NoopRecorder))
    }

    /// Metrics plus a [`TraceRecorder`] ring of `capacity` spans.
    pub fn with_tracing(capacity: usize) -> Self {
        Telemetry::with_recorder(Box::new(TraceRecorder::new(capacity)))
    }

    /// Full causal setup: a span ring of `capacity` events (0 disables
    /// span retention while keeping causal tracing on), a flight recorder
    /// keeping the last `flight` completed traces, and an
    /// [`AttributionEngine`] decomposing every trace as it completes.
    pub fn with_causal(capacity: usize, flight: usize) -> Self {
        let tel = if capacity == 0 {
            Telemetry::with_recorder(Box::new(NoopRecorder))
        } else {
            Telemetry::with_tracing(capacity)
        };
        {
            let mut inner = tel.0.borrow_mut();
            inner.causal.enabled = true;
            inner.causal.set_flight_capacity(flight);
            inner.engine = Some(AttributionEngine::default());
        }
        tel
    }

    /// Metrics plus a caller-supplied recorder.
    pub fn with_recorder(recorder: Box<dyn Recorder>) -> Self {
        let mut registry = Registry::new();
        // Eagerly resolved so every snapshot reports the drop count,
        // zero included.
        let spans_dropped = registry.counter(SPANS_DROPPED);
        let enabled = recorder.is_enabled();
        Telemetry(Rc::new(RefCell::new(Inner {
            registry,
            recorder,
            causal: CausalState::new(enabled),
            engine: None,
            spans_dropped,
            timeseries: None,
            monitor: None,
        })))
    }

    /// Starts collecting windowed registry deltas on `window_ns`-wide
    /// simulated-time windows (see [`SeriesData`]). Replaces any existing
    /// collector.
    pub fn enable_timeseries(&self, window_ns: u64) {
        self.0.borrow_mut().timeseries = Some(TimeSeriesCollector::new(window_ns));
    }

    /// Whether a time-series collector is installed.
    pub fn timeseries_enabled(&self) -> bool {
        self.0.borrow().timeseries.is_some()
    }

    /// Installs a [`HealthMonitor`] evaluating `rules` on every window
    /// close. Enables time-series collection with
    /// [`DEFAULT_WINDOW_NS`]-wide windows if none is active yet.
    pub fn install_monitor(&self, rules: Vec<Rule>) {
        let mut inner = self.0.borrow_mut();
        if inner.timeseries.is_none() {
            inner.timeseries = Some(TimeSeriesCollector::new(DEFAULT_WINDOW_NS));
        }
        inner.monitor = Some(HealthMonitor::new(rules));
    }

    /// Notes that simulated time reached `now`. The runtimes call this on
    /// every clock advance; when a window boundary is crossed the
    /// registry delta is snapshotted and any installed monitor runs.
    /// Near-free when no collector is installed, and non-monotone
    /// observations from mixed clock sources fold through `max`.
    pub fn observe_time(&self, now: Nanos) {
        self.0.borrow_mut().observe_time(now);
    }

    /// The collected series, tail window included, or `None` when
    /// time-series collection is off. Collection continues afterwards;
    /// later activity folds into the (re-opened) final window.
    pub fn series(&self) -> Option<SeriesData> {
        let mut inner = self.0.borrow_mut();
        inner.flush_timeseries();
        inner.timeseries.as_ref().map(|ts| ts.data().clone())
    }

    /// The monitor's end-of-run report (tail window flushed first), or
    /// `None` when no monitor is installed.
    pub fn health_report(&self) -> Option<HealthReport> {
        let mut inner = self.0.borrow_mut();
        inner.flush_timeseries();
        let window_ns = inner.timeseries.as_ref().map_or(0, |ts| ts.window_ns());
        inner.monitor.as_ref().map(|m| m.report(window_ns))
    }

    /// The counter named `{prefix}{id}.{suffix}` via the registry's name
    /// cache — hot re-registration never formats or allocates.
    pub fn counter_interned(&self, prefix: &'static str, id: u32, suffix: &'static str) -> Counter {
        self.0.borrow_mut().registry.counter_interned(prefix, id, suffix)
    }

    /// The gauge named `{prefix}{id}.{suffix}` via the registry's name
    /// cache — hot re-registration never formats or allocates.
    pub fn gauge_interned(&self, prefix: &'static str, id: u32, suffix: &'static str) -> Gauge {
        self.0.borrow_mut().registry.gauge_interned(prefix, id, suffix)
    }

    /// The histogram named `{prefix}{id}.{suffix}` via the registry's name
    /// cache, for per-instance metrics on hot paths.
    pub fn histogram_interned(
        &self,
        prefix: &'static str,
        id: u32,
        suffix: &'static str,
    ) -> Histogram {
        self.0.borrow_mut().registry.histogram_interned(prefix, id, suffix)
    }

    /// Whether spans are retained (false under [`NoopRecorder`]).
    pub fn tracing_enabled(&self) -> bool {
        self.0.borrow().recorder.is_enabled()
    }

    /// Whether causal span calls do anything (recorder enabled, flight
    /// recorder active or attribution engine installed).
    pub fn causal_enabled(&self) -> bool {
        self.0.borrow().causal.enabled
    }

    /// The counter named `name` (get-or-create).
    pub fn counter(&self, name: &str) -> Counter {
        self.0.borrow_mut().registry.counter(name)
    }

    /// The gauge named `name` (get-or-create).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.0.borrow_mut().registry.gauge(name)
    }

    /// The histogram named `name` (get-or-create).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.0.borrow_mut().registry.histogram(name)
    }

    /// Sends one causally unlinked span to the recorder (legacy path,
    /// still used by the VM baselines).
    pub fn record(&self, event: SpanEvent) {
        self.0.borrow_mut().record_one(event);
    }

    /// Opens a trace for one top-level operation. Returns its id
    /// ([`TraceId::NONE`] when causal tracing is off). Nested begins fold
    /// into plain spans, closed by the matching [`trace_end`].
    ///
    /// [`trace_end`]: Telemetry::trace_end
    pub fn trace_begin(&self, op: OpKind) -> TraceId {
        self.0.borrow_mut().causal.begin(op)
    }

    /// Relabels the current trace's operation kind (an access that
    /// escalates into MCE recovery is retagged [`OpKind::Recovery`]).
    pub fn retag_trace(&self, op: OpKind) {
        self.0.borrow_mut().causal.retag(op);
    }

    /// Closes the current trace with its end-to-end latency: dangling
    /// spans are force-closed, the completed trace goes to the recorder,
    /// the flight ring and the attribution engine.
    pub fn trace_end(&self, elapsed: Nanos) {
        let mut inner = self.0.borrow_mut();
        let mut out = Vec::new();
        let record = inner.causal.end(elapsed, &mut out);
        for ev in out {
            inner.record_one(ev);
        }
        if let Some(record) = record {
            for &ev in &record.spans {
                inner.record_one(ev);
            }
            if let Some(engine) = &mut inner.engine {
                engine.observe(&record);
            }
        }
    }

    /// Opens a span on `track` under the current span (or as a top-level
    /// span when no trace is active). Close it with [`span_close`].
    ///
    /// [`span_close`]: Telemetry::span_close
    pub fn span_open(&self, track: Track, kind: EventKind) -> SpanToken {
        self.0.borrow_mut().causal.open(track, kind)
    }

    /// Closes `token` with the reported duration; the recorded duration
    /// is `max(duration, time covered by same-charge children)` and the
    /// charge clock snaps to the span's end.
    pub fn span_close(&self, token: SpanToken, duration: Nanos) {
        let mut inner = self.0.borrow_mut();
        let mut out = Vec::new();
        inner.causal.close(token, duration, &mut out);
        for ev in out {
            inner.record_one(ev);
        }
    }

    /// Records a leaf span of `duration` on `track`, advancing the
    /// charge clock.
    pub fn span_leaf(&self, track: Track, kind: EventKind, duration: Nanos) {
        let mut inner = self.0.borrow_mut();
        let mut out = Vec::new();
        inner.causal.leaf(track, kind, duration, &mut out);
        for ev in out {
            inner.record_one(ev);
        }
    }

    /// Records a leaf on the display track of whichever simulated thread
    /// is currently paying (App at top level) — used for retry backoff.
    pub fn span_leaf_inherit(&self, kind: EventKind, duration: Nanos) {
        let track = self.0.borrow().causal.inherit_track();
        self.span_leaf(track, kind, duration);
    }

    /// Records a zero-width instant marker (fault, MCE, FPGA decision).
    pub fn instant(&self, track: Track, kind: EventKind) {
        let mut inner = self.0.borrow_mut();
        let mut out = Vec::new();
        inner.causal.instant(track, kind, &mut out);
        for ev in out {
            inner.record_one(ev);
        }
    }

    /// Keeps the last `capacity` completed traces in the flight ring
    /// (enables causal tracing when `capacity > 0`).
    pub fn set_flight_capacity(&self, capacity: usize) {
        self.0.borrow_mut().causal.set_flight_capacity(capacity);
    }

    /// Offsets newly allocated trace ids by `base` so parallel workers
    /// produce globally unique, deterministic ids (e.g. `index << 32`).
    pub fn set_trace_id_base(&self, base: u64) {
        self.0.borrow_mut().causal.set_trace_id_base(base);
    }

    /// The flight recorder's retained traces, oldest first.
    pub fn flight(&self) -> Vec<TraceRecord> {
        self.0.borrow().causal.flight().to_vec()
    }

    /// Completed traces evicted from the flight ring.
    pub fn flight_dropped(&self) -> u64 {
        self.0.borrow().causal.flight_dropped()
    }

    /// The flight recorder contents as JSON (the black-box dump format).
    pub fn flight_json(&self) -> String {
        traces_to_json(self.0.borrow().causal.flight())
    }

    /// A snapshot of the attribution engine, if one is installed
    /// ([`Telemetry::with_causal`] installs it).
    pub fn attribution(&self) -> Option<AttributionEngine> {
        self.0.borrow().engine.clone()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.0.borrow().registry.snapshot()
    }

    /// A deep, `Send`-able copy of the registry (full histogram buckets).
    ///
    /// `Telemetry` handles are `Rc`-based and cannot leave their thread;
    /// parallel experiment workers each run with a private `Telemetry` and
    /// return `self.dump()`, which the coordinator [`absorb`]s in input
    /// order so merged metrics match a sequential run exactly.
    ///
    /// [`absorb`]: Telemetry::absorb
    pub fn dump(&self) -> MetricsDump {
        self.0.borrow().registry.dump()
    }

    /// Merges a worker registry dump into this registry (counters add,
    /// gauges take the dump's value, histograms merge bucket-wise).
    pub fn absorb(&self, dump: &MetricsDump) {
        self.0.borrow_mut().registry.absorb(dump);
    }

    /// The retained spans in insertion order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.0.borrow().recorder.events()
    }

    /// Spans dropped by the recorder's capacity limit.
    pub fn dropped_events(&self) -> u64 {
        self.0.borrow().recorder.dropped()
    }

    /// The retained spans as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        spans_to_chrome_trace(&self.events())
    }

    /// The metrics as a JSON document.
    pub fn metrics_json(&self) -> String {
        snapshot_to_json(&self.snapshot())
    }

    /// The metrics as CSV rows.
    pub fn metrics_csv(&self) -> String {
        snapshot_to_csv(&self.snapshot())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("Telemetry")
            .field("tracing_enabled", &inner.recorder.is_enabled())
            .field("causal_enabled", &inner.causal.enabled)
            .field("retained_events", &inner.recorder.events().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::with_tracing(16);
        let other = tel.clone();
        tel.counter("c").inc();
        other.counter("c").add(2);
        assert_eq!(tel.snapshot().counter("c"), Some(3));
        other.record(SpanEvent::new(
            Track::Background,
            Nanos::ZERO,
            Nanos::from_ns(1),
            EventKind::Evict,
        ));
        assert_eq!(tel.events().len(), 1);
        assert!(tel.tracing_enabled());
        assert!(tel.causal_enabled());
    }

    #[test]
    fn disabled_drops_spans_keeps_metrics() {
        let tel = Telemetry::disabled();
        assert!(!tel.tracing_enabled());
        assert!(!tel.causal_enabled());
        tel.record(SpanEvent::new(
            Track::App,
            Nanos::ZERO,
            Nanos::from_ns(1),
            EventKind::Sync,
        ));
        assert!(tel.events().is_empty());
        tel.counter("still_counts").inc();
        assert_eq!(tel.snapshot().counter("still_counts"), Some(1));
        let json = tel.metrics_json();
        assert!(json.contains("still_counts"));
        assert!(tel.metrics_csv().contains("still_counts"));
    }

    #[test]
    fn ring_overflow_feeds_spans_dropped_counter() {
        let tel = Telemetry::with_tracing(2);
        assert_eq!(tel.snapshot().counter(SPANS_DROPPED), Some(0));
        for i in 0..5 {
            tel.record(SpanEvent::new(
                Track::App,
                Nanos::from_ns(i),
                Nanos::from_ns(1),
                EventKind::Sync,
            ));
        }
        assert_eq!(tel.dropped_events(), 3);
        assert_eq!(tel.snapshot().counter(SPANS_DROPPED), Some(3));
        // The causal path charges the same counter.
        tel.span_leaf(Track::App, EventKind::LocalHit, Nanos::from_ns(1));
        assert_eq!(tel.snapshot().counter(SPANS_DROPPED), Some(4));
    }

    #[test]
    fn causal_trace_reaches_recorder_flight_and_engine() {
        let tel = Telemetry::with_causal(64, 4);
        tel.trace_begin(OpKind::Access);
        let fetch = tel.span_open(Track::App, EventKind::RemoteFetch);
        tel.span_leaf(
            Track::Net,
            EventKind::Verb {
                opcode: VerbOpcode::Read,
                bytes: 4096,
            },
            Nanos::from_ns(3_000),
        );
        tel.span_close(fetch, Nanos::from_ns(3_000));
        tel.trace_end(Nanos::from_ns(3_200));

        let events = tel.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.trace.is_some()));
        let flight = tel.flight();
        assert_eq!(flight.len(), 1);
        assert_eq!(flight[0].duration(), Nanos::from_ns(3_200));
        let engine = tel.attribution().expect("engine");
        assert_eq!(engine.traces(), 1);
        assert_eq!(engine.violations(), 0);
        let acc = &engine.ops()[&OpKind::Access];
        assert_eq!(acc.critical.total(), 3_200);
    }

    #[test]
    fn timeseries_and_monitor_flow_end_to_end() {
        let tel = Telemetry::with_tracing(64);
        assert!(tel.series().is_none(), "off by default");
        tel.enable_timeseries(100);
        assert!(tel.timeseries_enabled());
        tel.install_monitor(vec![Rule::above("busy", "ops", 10.0)]);

        tel.counter("ops").add(20);
        tel.observe_time(Nanos::from_ns(50));
        tel.observe_time(Nanos::from_ns(150)); // closes window 0 → fires
        tel.counter("ops").add(1);
        tel.observe_time(Nanos::from_ns(250)); // closes window 1 → resolves

        let series = tel.series().expect("collector installed");
        assert_eq!(series.counter_total("ops"), 21);
        let report = tel.health_report().expect("monitor installed");
        assert_eq!(report.alerts_fired(), 1);
        assert_eq!(report.alerts_resolved(), 1);
        assert_eq!(report.alerts[0].worst_window, 0);
        assert!(!report.slo_breached());

        // Alert transitions surface as instants on the cluster track and
        // as mon.* counters.
        let events = tel.events();
        let firing: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AlertFiring(_)))
            .collect();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].track, Track::Cluster);
        assert_eq!(firing[0].start, Nanos::from_ns(100));
        assert!(firing[0].is_instant());
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::AlertResolved(_))));
        assert_eq!(tel.snapshot().counter(ALERTS_FIRED), Some(1));
        assert_eq!(tel.snapshot().counter(ALERTS_RESOLVED), Some(1));
    }

    #[test]
    fn series_conserves_counter_totals_under_flush() {
        let tel = Telemetry::disabled();
        tel.enable_timeseries(1_000);
        for i in 0..10u64 {
            tel.counter("ops").add(i);
            tel.histogram("lat").record(100 * (i + 1));
            tel.observe_time(Nanos::from_ns(i * 700));
        }
        let series = tel.series().expect("enabled");
        let snap = tel.snapshot();
        assert_eq!(series.counter_total("ops"), snap.counter("ops").unwrap());
        let hist_count: u64 = series
            .windows
            .iter()
            .filter_map(|w| w.histograms.get("lat"))
            .map(HistogramData::count)
            .sum();
        assert_eq!(hist_count, snap.histogram("lat").unwrap().count);
    }

    #[test]
    fn with_causal_zero_ring_keeps_flight_only() {
        let tel = Telemetry::with_causal(0, 2);
        assert!(!tel.tracing_enabled());
        assert!(tel.causal_enabled());
        tel.trace_begin(OpKind::Sync);
        tel.trace_end(Nanos::from_ns(10));
        assert!(tel.events().is_empty(), "no span ring");
        assert_eq!(tel.flight().len(), 1);
        assert_eq!(tel.snapshot().counter(SPANS_DROPPED), Some(0));
    }
}
