//! Shared plumbing for the Kona experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md`'s per-experiment index). This library provides the
//! common table formatting, argument handling and workload profiles so
//! the binaries stay focused on the experiment logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kona::{ClusterConfig, RemoteMemoryRuntime};
use kona_cluster::{ClusterRuntime, ControlPlaneConfig};
use kona_net::FaultPlan;
use kona_telemetry::{Profile, QueueStats, SeriesData, Telemetry, DEFAULT_WINDOW_NS};
use kona_types::rng::{Rng, StdRng};
use kona_types::{Jobs, Nanos};
use kona_workloads::{
    GraphAlgorithm, GraphWorkload, HistogramWorkload, LinearRegressionWorkload, RedisWorkload,
    VoltDbWorkload, Workload, WorkloadProfile,
};
use std::fmt::Display;
use std::str::FromStr;

pub mod micro;
pub use micro::ContentionModel;

/// Span events kept in the trace ring during instrumented runs.
pub const TRACE_RING_CAPACITY: usize = 1 << 18;

/// Names accepted by [`workload_by_name`], in canonical order.
pub const WORKLOAD_NAMES: [&str; 9] = [
    "redis-rand",
    "redis-seq",
    "linreg",
    "histogram",
    "pagerank",
    "coloring",
    "concomp",
    "labelprop",
    "voltdb",
];

/// Builds the named Table 2 workload with `profile`. Trait objects are
/// not `Send`, so parallel workers construct their own by name.
pub fn workload_by_name(name: &str, profile: WorkloadProfile) -> Option<Box<dyn Workload>> {
    Some(match name {
        "redis-rand" => Box::new(RedisWorkload::rand().with_profile(profile)),
        "redis-seq" => Box::new(RedisWorkload::seq().with_profile(profile)),
        "linreg" => Box::new(LinearRegressionWorkload::with_profile(profile)),
        "histogram" => Box::new(HistogramWorkload::with_profile(profile)),
        "pagerank" => Box::new(GraphWorkload::with_profile(GraphAlgorithm::PageRank, profile)),
        "coloring" => Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::GraphColoring,
            profile,
        )),
        "concomp" => Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::ConnectedComponents,
            profile,
        )),
        "labelprop" => Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::LabelPropagation,
            profile,
        )),
        "voltdb" => Box::new(VoltDbWorkload::with_profile(profile)),
        _ => return None,
    })
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Reduce problem sizes for a fast smoke run.
    pub quick: bool,
    /// Worker threads for parallel experiment points (`--jobs N`; defaults
    /// to the machine's available parallelism). Results are merged in
    /// input order, so every job count prints identical output.
    pub jobs: Jobs,
    /// Extra free-form arguments (e.g. `--panel a`).
    pub args: Vec<String>,
}

impl ExpOptions {
    /// Parses `std::env::args`.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Parses pre-split arguments (the program name excluded).
    pub fn from_args(args: Vec<String>) -> Self {
        ExpOptions {
            quick: args.iter().any(|a| a == "--quick"),
            jobs: Jobs::from_args(&args),
            args,
        }
    }

    /// The value following `--<key>`, if the flag is present. A flag
    /// that is last, or followed by another `--flag`, has no value: that
    /// is a usage error (stderr, exit code 2), never a file named after
    /// the next flag.
    pub fn value_of(&self, key: &str) -> Option<&str> {
        self.try_value_of(key).unwrap_or_else(|msg| usage_error(&msg))
    }

    /// The value following `--<key>` parsed as a `T`, if the flag is
    /// present. A missing or malformed value is a usage error (stderr,
    /// exit code 2), never a silent default.
    pub fn parsed<T: FromStr>(&self, key: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.try_parsed(key).unwrap_or_else(|msg| usage_error(&msg))
    }

    /// `raw` parsed as a `T`, for positional arguments. A malformed value
    /// is a usage error naming `what` (stderr, exit code 2).
    pub fn parse_arg<T: FromStr>(what: &str, raw: &str) -> T
    where
        T::Err: Display,
    {
        parse_value(what, raw).unwrap_or_else(|msg| usage_error(&msg))
    }

    fn try_parsed<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.try_value_of(key)?
            .map(|raw| parse_value(&format!("--{key}"), raw))
            .transpose()
    }

    fn try_value_of(&self, key: &str) -> Result<Option<&str>, String> {
        let flag = format!("--{key}");
        let Some(i) = self.args.iter().position(|a| a == &flag) else {
            return Ok(None);
        };
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            Some(v) => Err(format!("usage: {flag} takes a value, got the flag {v}")),
            None => Err(format!("usage: {flag} takes a value")),
        }
    }

    /// The Table 2 / Fig 9 workload profile: 10 windows for full runs,
    /// 3 for quick ones.
    pub fn table_profile(&self) -> WorkloadProfile {
        let windows = if self.quick { 3 } else { 10 };
        WorkloadProfile::default().with_windows(windows)
    }

    /// `--metrics-out <path>`: metrics snapshot JSON destination.
    pub fn metrics_out(&self) -> Option<&str> {
        self.value_of("metrics-out")
    }

    /// `--trace-out <path>`: Chrome trace-event JSON destination.
    pub fn trace_out(&self) -> Option<&str> {
        self.value_of("trace-out")
    }

    /// `--series-out <path>`: windowed time-series destination (`.csv`
    /// writes CSV, anything else JSON).
    pub fn series_out(&self) -> Option<&str> {
        self.value_of("series-out")
    }

    /// `--health-out <path>`: health-report JSON destination.
    pub fn health_out(&self) -> Option<&str> {
        self.value_of("health-out")
    }

    /// `--profile-out <path>`: folded simulated-time profile JSON
    /// destination ([`Profile::to_json`]).
    pub fn profile_out(&self) -> Option<&str> {
        self.value_of("profile-out")
    }

    /// `--flame-out <path>`: collapsed-stack destination
    /// (flamegraph.pl/inferno input, weighted by self simulated ns).
    pub fn flame_out(&self) -> Option<&str> {
        self.value_of("flame-out")
    }

    /// Whether any profile artifact was requested (`--profile-out` or
    /// `--flame-out`).
    pub fn profiling(&self) -> bool {
        self.profile_out().is_some() || self.flame_out().is_some()
    }

    /// `--seed N`: base RNG seed for the experiment (default 42).
    pub fn seed(&self) -> u64 {
        self.parsed("seed").unwrap_or(42)
    }

    /// `--tenants N`: tenant count for multi-tenant serving experiments
    /// (default 8, the ROADMAP experiment's floor).
    pub fn tenants(&self) -> u32 {
        self.parsed("tenants").unwrap_or(8)
    }

    /// `--tenant-quota N`: per-tenant remote-memory quota in slabs
    /// (default 2).
    pub fn tenant_quota(&self) -> u64 {
        self.parsed("tenant-quota").unwrap_or(2)
    }

    /// `--no-balloon`: skips the live balloon grow/shrink demo inside
    /// serving experiments (on by default).
    pub fn balloon(&self) -> bool {
        !self.args.iter().any(|a| a == "--no-balloon")
    }

    /// `--trace-capacity N`: span-ring capacity for instrumented runs
    /// (default [`TRACE_RING_CAPACITY`]). Spans beyond the capacity drop
    /// oldest-first and are counted in `tel.spans_dropped`.
    pub fn trace_capacity(&self) -> usize {
        self.parsed("trace-capacity").unwrap_or(TRACE_RING_CAPACITY)
    }

    /// `--window-ns N`: explicit time-series window width in simulated
    /// nanoseconds.
    pub fn window_ns(&self) -> Option<u64> {
        self.parsed("window-ns")
    }

    /// The window width to collect time series at, if any output wants
    /// them: `Some` when `--window-ns` or `--series-out` is present
    /// (explicit width, or [`DEFAULT_WINDOW_NS`]).
    pub fn series_window_ns(&self) -> Option<u64> {
        match self.window_ns() {
            Some(w) => Some(w),
            None if self.series_out().is_some() => Some(DEFAULT_WINDOW_NS),
            None => None,
        }
    }

    /// Telemetry for the run: span tracing is enabled only when
    /// `--trace-out` asks for a timeline (the metrics registry records
    /// either way), and windowed series collection only when
    /// `--window-ns`/`--series-out` ask for it.
    pub fn telemetry(&self) -> Telemetry {
        let tel = if self.trace_out().is_some() {
            Telemetry::with_tracing(self.trace_capacity())
        } else {
            Telemetry::disabled()
        };
        if let Some(window) = self.series_window_ns() {
            tel.enable_timeseries(window);
        }
        tel
    }

    /// Writes the windowed series to `--series-out` (CSV for `.csv`
    /// paths, JSON otherwise).
    pub fn write_series(&self, series: &SeriesData) {
        if let Some(path) = self.series_out() {
            let body = if path.ends_with(".csv") {
                series.to_csv()
            } else {
                series.to_json()
            };
            std::fs::write(path, body).expect("write series");
            println!("\ntime series written to {path}");
        }
    }

    /// Writes the folded profile to `--profile-out` (line-oriented JSON)
    /// and/or `--flame-out` (collapsed stacks). Both artifacts are
    /// deterministic: byte-identical across `--jobs` values for the same
    /// experiment.
    pub fn write_profile(&self, profile: &Profile) {
        if let Some(path) = self.profile_out() {
            std::fs::write(path, profile.to_json()).expect("write profile");
            println!("\nprofile written to {path}");
        }
        if let Some(path) = self.flame_out() {
            std::fs::write(path, profile.to_collapsed()).expect("write flame stacks");
            println!("\nflame stacks written to {path}");
        }
    }

    /// Writes the `--metrics-out` / `--trace-out` artifacts, warning when
    /// the trace ring wrapped (`tel.spans_dropped` in the snapshot).
    pub fn write_outputs(&self, tel: &Telemetry) {
        self.write_outputs_with_series(tel, None);
    }

    /// [`ExpOptions::write_outputs`] plus `--series-out`; when both a
    /// trace and a series are requested the Chrome trace also carries the
    /// series as counter tracks.
    pub fn write_outputs_with_series(&self, tel: &Telemetry, series: Option<&SeriesData>) {
        if let Some(path) = self.metrics_out() {
            std::fs::write(path, tel.metrics_json()).expect("write metrics");
            println!("\nmetrics snapshot written to {path}");
        }
        if let Some(path) = self.trace_out() {
            let trace = match series {
                Some(s) => {
                    kona_telemetry::spans_to_chrome_trace_with_series(&tel.events(), Some(s))
                }
                None => tel.chrome_trace(),
            };
            std::fs::write(path, trace).expect("write trace");
            println!("\nchrome trace written to {path}");
            let dropped = tel.dropped_events();
            if dropped > 0 {
                println!(
                    "warning: trace ring wrapped, {dropped} oldest spans dropped \
                     (tel.spans_dropped)"
                );
            }
        }
        if let Some(series) = series {
            self.write_series(series);
        }
    }
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: true,
            jobs: Jobs::serial(),
            args: Vec::new(),
        }
    }
}

/// Hot paths shown per profile table by default (`fig_attrib --top N`).
pub const TOP_PATHS: usize = 5;

/// Runs the cluster profiling segment: a calm-plan workload through the
/// full cluster control plane, traced and windowed. A lazy control plane
/// (long tick) lets the apply backlog pile up across window boundaries.
/// Returns the profile folded from the span ring, the queue fold and the
/// spans the ring dropped.
///
/// # Panics
///
/// Panics if an access fails: the calm plan injects no faults.
pub fn cluster_segment(
    seed: u64,
    quick: bool,
    trace_capacity: usize,
) -> (Profile, QueueStats, u64) {
    const PAGES: u64 = 64;
    let ops = if quick { 600 } else { 6_000 };
    let mut cfg = ClusterConfig::small()
        .with_local_cache_pages(8)
        .with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(FaultPlan::calm(seed));
    let tel = Telemetry::with_tracing(trace_capacity);
    tel.enable_timeseries(DEFAULT_WINDOW_NS);
    let plane = ControlPlaneConfig {
        tick_ops: 256,
        ..ControlPlaneConfig::default()
    };
    let mut rt = ClusterRuntime::with_telemetry(cfg, plane, tel.clone()).expect("valid config");
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..ops {
        let page = rng.gen_range(0..PAGES);
        let addr = base + page * 4096 + rng.gen_range(0..64) * 64;
        if rng.gen_bool(0.5) {
            let byte: u8 = rng.gen();
            rt.write_bytes(addr, &[byte; 64]).expect("calm write");
        } else {
            let mut buf = [0u8; 64];
            rt.read_bytes(addr, &mut buf).expect("calm read");
        }
        if i % 256 == 255 {
            rt.sync().expect("calm sync");
        }
    }
    rt.sync().expect("final sync");
    let profile = Profile::from_spans(&tel.events());
    let queues = QueueStats::from_series(&tel.series().expect("series enabled"));
    (profile, queues, tel.dropped_events())
}

/// Prints one profile's `top` hottest paths (self-time desc, path asc).
pub fn print_top_paths(profile: &Profile, top: usize) {
    let mut table = TextTable::new(&["Path", "Count", "Total(ns)", "Self(ns)", "Self%"]);
    let self_sum: u64 = profile.track_totals().values().sum();
    for (path, stats) in profile.top_by_self(top) {
        let pct = if self_sum > 0 {
            100.0 * stats.self_ns as f64 / self_sum as f64
        } else {
            0.0
        };
        table.row(vec![
            path.to_string(),
            stats.count.to_string(),
            stats.total_ns.to_string(),
            stats.self_ns.to_string(),
            format!("{pct:.1}"),
        ]);
    }
    table.print();
}

/// `raw` parsed as a `T`, or the usage line naming `what`.
fn parse_value<T: FromStr>(what: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e| format!("usage: {what} {raw}: {e}"))
}

/// Prints a usage line on stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A fixed-width text table, printed in the paper's row/column structure.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a nanosecond quantity with 1 decimal.
pub fn ns(t: Nanos) -> String {
    format!("{:.1}", t.as_ns() as f64)
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Prints an experiment banner.
pub fn banner(title: &str, source: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {source} of the ASPLOS'21 Kona paper)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn options_parsing() {
        let opts = ExpOptions {
            quick: false,
            jobs: Jobs::from_args(&["--panel".into(), "a".into(), "--jobs".into(), "3".into()]),
            args: vec!["--panel".into(), "a".into(), "--jobs".into(), "3".into()],
        };
        assert_eq!(opts.value_of("panel"), Some("a"));
        assert_eq!(opts.value_of("missing"), None);
        assert_eq!(opts.table_profile().windows, 10);
        assert_eq!(opts.jobs.get(), 3);

        // A flag is never taken as another flag's value.
        let opts = ExpOptions {
            args: vec!["--profile-out".into(), "--quick".into(), "--seed".into()],
            ..ExpOptions::default()
        };
        assert_eq!(
            opts.try_value_of("profile-out"),
            Err("usage: --profile-out takes a value, got the flag --quick".into())
        );
        assert_eq!(
            opts.try_value_of("seed"),
            Err("usage: --seed takes a value".into())
        );
        assert!(opts.try_parsed::<u64>("seed").is_err());

        // Malformed values are usage errors, not silent defaults.
        let opts = ExpOptions::from_args(
            ["--seed", "x", "--nodes", "four", "--top", "5", "--placement", "zeal"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(
            opts.try_parsed::<u64>("seed"),
            Err("usage: --seed x: invalid digit found in string".into())
        );
        assert!(opts.try_parsed::<u32>("nodes").is_err());
        assert!(opts.try_parsed::<kona::PlacementKind>("placement").is_err());
        assert_eq!(opts.try_parsed::<usize>("top"), Ok(Some(5)));
        assert_eq!(opts.try_parsed::<usize>("missing"), Ok(None));
        assert_eq!(parse_value::<u64>("[seed]", "7"), Ok(7));
        assert!(parse_value::<u64>("[seed]", "-1").is_err());
    }

    #[test]
    fn tenant_knobs_parse_with_defaults() {
        let opts = ExpOptions {
            quick: true,
            jobs: Jobs::serial(),
            args: vec![],
        };
        assert_eq!(opts.tenants(), 8);
        assert_eq!(opts.tenant_quota(), 2);
        assert!(opts.balloon());
        let opts = ExpOptions {
            quick: true,
            jobs: Jobs::serial(),
            args: vec![
                "--tenants".into(),
                "12".into(),
                "--tenant-quota".into(),
                "4".into(),
                "--no-balloon".into(),
            ],
        };
        assert_eq!(opts.tenants(), 12);
        assert_eq!(opts.tenant_quota(), 4);
        assert!(!opts.balloon());
    }

    #[test]
    fn formatters() {
        assert_eq!(ns(Nanos::from_ns(1500)), "1500.0");
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f1(1.26), "1.3");
    }

    #[test]
    fn every_workload_name_resolves() {
        for name in WORKLOAD_NAMES {
            let wl = workload_by_name(name, WorkloadProfile::default().with_windows(1));
            assert!(wl.is_some(), "{name} must resolve");
        }
        assert!(workload_by_name("nope", WorkloadProfile::default()).is_none());
    }

    #[test]
    fn output_flags_parse_and_pick_telemetry() {
        let opts = ExpOptions {
            quick: true,
            jobs: Jobs::serial(),
            args: vec![
                "--metrics-out".into(),
                "m.json".into(),
                "--trace-out".into(),
                "t.json".into(),
            ],
        };
        assert_eq!(opts.metrics_out(), Some("m.json"));
        assert_eq!(opts.trace_out(), Some("t.json"));
        assert!(opts.telemetry().tracing_enabled());
        assert!(!ExpOptions::default().telemetry().tracing_enabled());
    }
}
