//! Deterministic simulated-time profiles + queueing/occupancy tables.
//!
//! Two parts, both folded from span streams by `kona_telemetry::Profile`:
//!
//! 1. **Per-workload profiles** — every Table 2 workload replays through
//!    a traced Kona runtime and its span stream folds into a weighted
//!    call-path tree (self/total simulated ns per `track;frame;...`
//!    path). Workloads fan out over `--jobs` workers and fold in
//!    workload order, so output is byte-identical at every job count.
//! 2. **The canonical shard scenario** — a shrunken-cache cluster
//!    through the sharded engine, per-shard profiles merged by path key
//!    in shard order, plus the queueing table: per-fabric-link in-flight
//!    depth and per-memory-node apply backlog folded from the windowed
//!    series. `--profile-out`/`--flame-out` export this scenario's
//!    profile.
//!
//! The run self-gates: per-path self times must sum exactly to per-track
//! root totals (conservation violations == 0). Exit is non-zero on any
//! violation.
//!
//! ```bash
//! cargo run --release --bin fig_profile -- --quick
//! cargo run --release --bin fig_profile -- --quick --jobs 4 \
//!     --profile-out profile.json --flame-out profile.folded
//! ```

use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime};
use kona_bench::{
    banner, profile_scenario, workload_by_name, ExpOptions, TextTable, WORKLOAD_NAMES,
};
use kona_cluster::{ClusterRuntime, ControlPlaneConfig};
use kona_net::FaultPlan;
use kona_telemetry::{Profile, QueueStats, Telemetry, DEFAULT_WINDOW_NS};
use kona_types::rng::{Rng, StdRng};
use kona_types::{align_up, par_map, ByteSize, PAGE_SIZE_4K};
use kona_workloads::WorkloadProfile;
use std::process::ExitCode;

/// Hot paths shown per profile table (override with `--top N`).
const TOP_K: usize = 5;

struct WorkloadRun {
    name: String,
    profile: Profile,
    dropped: u64,
}

/// Replays workload `name` with tracing on and folds its span stream.
/// `idx` seeds the trace-id base so ids stay deterministic across job
/// counts (the fold itself only needs per-instance span ids).
fn run_workload(idx: usize, name: &str, quick: bool, capacity: usize) -> WorkloadRun {
    let windows = if quick { 2 } else { 4 };
    let profile = WorkloadProfile::default().with_windows(windows);
    let wl = workload_by_name(name, profile).expect("known workload");
    let trace = wl.generate(42);
    let span = align_up(trace.address_span() + PAGE_SIZE_4K, PAGE_SIZE_4K);
    let pages = span / PAGE_SIZE_4K;

    // Cache half the footprint so eviction and writeback paths are hot.
    let mut cfg = ClusterConfig::small().timing_only();
    cfg.node_capacity = ByteSize((span * 2).max(1 << 22));
    let cache_pages = ((pages / 2).max(4)) as usize;
    cfg.local_cache_pages = cache_pages - cache_pages % 4;

    let tel = Telemetry::with_tracing(capacity);
    tel.set_trace_id_base((idx as u64) << 32);
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("config valid");
    rt.allocate(span).expect("allocation fits");
    rt.run_trace(trace.as_slice()).expect("trace runs");
    rt.sync().expect("sync");

    WorkloadRun {
        name: wl.name().to_string(),
        profile: Profile::from_spans(&tel.events()),
        dropped: tel.dropped_events(),
    }
}

/// Drives a calm-plan workload through the full cluster control plane
/// with tracing and windows on: the remote-CPU side (log apply,
/// compaction) shows up as Cluster-track spans in the profile, and the
/// per-memory-node `backlog_bytes`/`backlog_batches` gauges populate the
/// node half of the queueing table. Single-threaded and seeded, so the
/// output is identical at any `--jobs` value.
fn run_cluster_segment(seed: u64, quick: bool, capacity: usize) -> (Profile, QueueStats, u64) {
    const PAGES: u64 = 64;
    let ops = if quick { 600 } else { 6_000 };
    let mut cfg = ClusterConfig::small().with_local_cache_pages(8).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(FaultPlan::calm(seed));
    let tel = Telemetry::with_tracing(capacity);
    tel.enable_timeseries(DEFAULT_WINDOW_NS);
    // A lazy control plane (long tick) lets the apply backlog pile up
    // across several window boundaries, so the sampled occupancy is
    // visibly nonzero — the congestion the queueing table exists to show.
    let plane = ControlPlaneConfig {
        tick_ops: 256,
        ..ControlPlaneConfig::default()
    };
    let mut rt =
        ClusterRuntime::with_telemetry(cfg, plane, tel.clone()).expect("valid config");
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

/// Prints one profile's hottest paths (self-time desc, path asc).
fn print_top_paths(profile: &Profile, top: usize) {
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

/// Renders the queueing/occupancy tables folded from the windowed
/// series — the congestion view the event-queue scheduler refactor will
/// be validated against.
fn render_queue_tables(queues: &QueueStats) -> String {
    let mut out = String::new();
    out.push_str("per-link in-flight depth (fabric link = initiator -> memory node):\n");
    let mut links = TextTable::new(&[
        "Link", "WRs", "Inflight(WR*ns)", "PeakMeanDepth", "PeakChainDepth",
    ]);
    for (id, link) in &queues.links {
        links.row(vec![
            format!("node{id}"),
            link.wrs.to_string(),
            link.inflight_ns.to_string(),
            format!("{:.3}", link.peak_mean_depth),
            link.peak_chain_depth.to_string(),
        ]);
    }
    out.push_str(&links.render());
    out.push_str("\nper-node apply backlog (ingest peaks + window boundaries):\n");
    if queues.nodes.is_empty() {
        out.push_str("(none — this engine applies shipments inline, no node runtimes)\n");
        return out;
    }
    let mut nodes = TextTable::new(&["Node", "PeakBacklogBytes", "PeakBacklogBatches"]);
    for (id, node) in &queues.nodes {
        nodes.row(vec![
            format!("node{id}"),
            node.peak_backlog_bytes.to_string(),
            node.peak_backlog_batches.to_string(),
        ]);
    }
    out.push_str(&nodes.render());
    out
}

fn main() -> ExitCode {
    let opts = ExpOptions::from_env();
    banner(
        "Deterministic profiling: simulated-time flame profiles + queueing tables",
        "where simulated time goes, path-wise; §4/§6 companion",
    );
    let seed = opts.seed();
    let quick = opts.quick;
    let capacity = opts.trace_capacity();
    let top = opts.parsed("top").unwrap_or(TOP_K);
    println!("seed: {seed}, trace ring: {capacity}, top: {top}");

    let mut violations = 0u64;
    let mut dropped = 0u64;

    // Part 1: per-workload simulated-time profiles, folded in workload
    // order regardless of --jobs scheduling.
    let items: Vec<(usize, String)> = WORKLOAD_NAMES
        .iter()
        .map(ToString::to_string)
        .enumerate()
        .collect();
    let runs = par_map(opts.jobs, items, move |_, (idx, name)| {
        run_workload(idx, &name, quick, capacity)
    });
    for run in &runs {
        println!("\n--- {} ---", run.name);
        print_top_paths(&run.profile, top);
        violations += run.profile.conservation_violations();
        dropped += run.dropped;
        if run.dropped > 0 {
            println!("warning: {} spans dropped (ring wrapped)", run.dropped);
        }
    }

    // Part 2: the canonical shard scenario — per-shard folds merged by
    // path key, plus the queueing table from the merged windowed series.
    let report = profile_scenario(seed, quick, capacity);
    let profile = report.profile.clone().expect("tracing was on");
    println!("\n--- shard scenario (logical {}, calm plan) ---", report.plan.logical());
    print_top_paths(&profile, top);
    violations += profile.conservation_violations();

    let queues = QueueStats::from_series(report.series.as_ref().expect("windows were on"));
    println!();
    print!("{}", render_queue_tables(&queues));

    // Part 3: the cluster control-plane segment — remote-CPU apply and
    // compaction paths plus the per-node apply-backlog occupancy that the
    // shard engine's fabric-only view cannot show.
    let (cluster_profile, cluster_queues, cluster_dropped) =
        run_cluster_segment(seed, quick, capacity);
    println!("\n--- cluster segment (apply/compaction, calm plan) ---");
    print_top_paths(&cluster_profile, top);
    violations += cluster_profile.conservation_violations();
    dropped += cluster_dropped;
    println!();
    print!("{}", render_queue_tables(&cluster_queues));

    println!(
        "\nconservation: {violations} violations (per-path self times vs per-track totals)"
    );
    opts.write_profile(&profile);

    if violations > 0 {
        eprintln!("FAIL: {violations} conservation violations");
        return ExitCode::FAILURE;
    }
    if dropped > 0 {
        println!("note: {dropped} spans dropped across workload rings (profiles stay conservative)");
    }
    ExitCode::SUCCESS
}
