//! What one run of one workload produces, and how it is written down.

use crate::catalog::{self, Kind};
use crate::host;
use crate::json::Value;
use crate::pass::HostTimes;
use crate::spans::SpanLog;
use crate::stats;
use std::collections::BTreeMap;

/// A run whose passes spread wider than this is marked `noisy`: they all
/// do identical work from an identical state, so the spread is the
/// host's doing.
pub const NOISY_SPREAD_PCT: f64 = 10.0;

/// Per-layer metric values by catalogue name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    ///
    /// Panics on a name the catalogue lacks — a typo in the harness.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::per_layer(name).is_some(),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The harness's own host-time rows of a traced run. `with_spans` and
    /// `without_spans` are the alternate passes that did and did not
    /// record spans.
    pub fn set_driver_rows(
        &mut self,
        all: &HostTimes,
        with_spans: &HostTimes,
        without_spans: &HostTimes,
    ) {
        self.set("driver.ns_per_acc_p99", all.p99());
        self.set("driver.pass_spread_pct", all.spread_pct());
        self.set("driver.nproc", host::nproc() as f64);
        self.set(
            "driver.trace_overhead_pct",
            (without_spans.acc_per_s() / with_spans.acc_per_s() - 1.0) * 100.0,
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The [`Kind::Exact`] values: what must repeat for a seed.
    pub fn exact(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0
            .iter()
            .filter(|(name, _)| catalog::per_layer(name).is_some_and(|m| m.kind == Kind::Exact))
            .map(|(name, v)| (*name, *v))
    }
}

/// One workload, one seed, traced or not.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed, in words; empty means the outputs are correct.
    pub problems: Vec<String>,
    /// Ledger rows that look wrong for reasons a busy host can cause;
    /// reported, never a failure.
    pub warnings: Vec<String>,
    pub host_times: HostTimes,
    pub setup_s: Vec<f64>,
    /// `VmHWM` when the workload finished; filled in by `main`.
    pub peak_rss_mib: f64,
    pub sim_ns_per_acc: f64,
    /// `None`: the repo holds no paper value for this workload, the model
    /// is unvalidated here and no error figure is given.
    pub ref_err_pct: Option<f64>,
    /// Counts and ratios read off the run itself (both modes), plus, when
    /// traced, the ledger.
    pub layers: Layers,
    pub spans: Option<SpanLog>,
    pub load_before: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn noisy(&self) -> bool {
        self.host_times.spread_pct() > NOISY_SPREAD_PCT
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The seven end-to-end metrics by catalogue name.
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        match name {
            "acc_per_s" => Some(self.host_times.acc_per_s()),
            "ns_per_acc_p50" => Some(self.host_times.p50()),
            "setup_s" => Some(stats::median(&self.setup_s)),
            "peak_rss_mib" => Some(self.peak_rss_mib),
            "sim_ns_per_acc" => Some(self.sim_ns_per_acc),
            "ref_err_pct" => self.ref_err_pct,
            "failed_frac" => Some(self.failed_frac()),
            other => panic!("unknown end-to-end metric {other}"),
        }
    }

    /// The samples behind a host-time end-to-end metric, for `compare`'s
    /// quartile rule.
    fn samples(&self, name: &str) -> &[f64] {
        match name {
            "acc_per_s" => &self.host_times.pass_acc_per_s,
            "ns_per_acc_p50" => &self.host_times.pass_p50,
            "setup_s" => &self.setup_s,
            _ => &[],
        }
    }

    /// Every per-layer metric, 0 where the workload does not exercise the
    /// layer.
    pub fn per_layer(&self, name: &str) -> f64 {
        self.layers.get(name).unwrap_or(0.0)
    }

    /// The driver's last line: `correct`, `attempted`, `failed`, and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn contract_line(&self) -> Value {
        let metric = |value: f64, unit: &str| Value::obj().with("value", value).with("unit", unit);
        let mut metrics = Value::obj();
        if self.traced {
            for m in &catalog::PER_LAYER {
                metrics = metrics.with(m.name, metric(self.per_layer(m.name), m.unit));
            }
        } else {
            for e in catalog::END_TO_END.iter().filter(|e| e.in_contract) {
                let value = self
                    .end_to_end(e.metric.name)
                    .expect("contract metrics are always defined");
                metrics = metrics.with(e.metric.name, metric(value, e.metric.unit));
            }
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// The full record written to `benchmark/results/`.
    pub fn to_json(&self) -> Value {
        let mut e2e = Value::obj();
        for e in &catalog::END_TO_END {
            let name = e.metric.name;
            let mut entry = Value::obj()
                .with(
                    "value",
                    self.end_to_end(name).map_or(Value::Null, Value::from),
                )
                .with("unit", e.metric.unit);
            let samples = self.samples(name);
            if samples.len() > 1 {
                let (q1, _, q3) = stats::quartiles(samples);
                entry = entry
                    .with("q1", q1)
                    .with("q3", q3)
                    .with("samples", samples.len() as u64);
            }
            e2e = e2e.with(name, entry);
        }
        let mut layers = Value::obj();
        if self.traced {
            for m in &catalog::PER_LAYER {
                layers = layers.with(
                    m.name,
                    Value::obj()
                        .with("value", self.per_layer(m.name))
                        .with("unit", m.unit),
                );
            }
        }
        let mut exact = Value::obj();
        for (name, value) in self.layers.exact() {
            exact = exact.with(name, value);
        }
        Value::obj()
            .with("workload", self.workload)
            .with("traced", self.traced)
            .with("quick", self.quick)
            .with("host", host::record(self.seed, self.load_before))
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "problems",
                Value::Arr(
                    self.problems
                        .iter()
                        .map(|p| Value::from(p.as_str()))
                        .collect(),
                ),
            )
            .with(
                "warnings",
                Value::Arr(
                    self.warnings
                        .iter()
                        .map(|w| Value::from(w.as_str()))
                        .collect(),
                ),
            )
            .with("noisy", self.noisy())
            .with("pass_spread_pct", self.host_times.spread_pct())
            .with(
                "pass_acc_per_s",
                Value::Arr(
                    self.host_times
                        .pass_acc_per_s
                        .iter()
                        .map(|v| Value::from(*v))
                        .collect(),
                ),
            )
            .with("end_to_end", e2e)
            .with("exact", exact)
            .with("per_layer", layers)
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!(
            "== {} seed {} ({mode}{}) ==",
            self.workload,
            self.seed,
            if self.quick { ", quick" } else { "" }
        );
        for e in &catalog::END_TO_END {
            match self.end_to_end(e.metric.name) {
                Some(v) => println!("  {:<34} {:>16.4} {}", e.metric.name, v, e.metric.unit),
                None => println!(
                    "  {:<34} {:>16} (no paper value in the repo)",
                    e.metric.name, "unvalidated"
                ),
            }
        }
        println!(
            "  {:<34} {:>16.4} %   ({} chunk samples)",
            "pass spread (IQR / median)",
            self.host_times.spread_pct(),
            self.host_times.chunk_ns_per_acc.len()
        );
        if self.traced {
            for m in &catalog::PER_LAYER {
                println!(
                    "  {:<34} {:>16.4} {}",
                    m.name,
                    self.per_layer(m.name),
                    m.unit
                );
            }
        }
        if self.noisy() {
            println!(
                "  NOISY: pass spread exceeds {NOISY_SPREAD_PCT} %; treat host times as unresolved"
            );
        }
        println!(
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
        for w in &self.warnings {
            println!("  warning: {w}");
        }
    }
}
