//! Cluster control plane under deterministic fault injection.
//!
//! Runs the same seeded read/write workload through the full cluster
//! stack — per-node apply/compaction workers, capacity-aware placement,
//! rebalancing, and post-crash re-replication — under every bundled
//! [`FaultPlan`], and reports availability plus the rebalance traffic
//! the control plane generated. Fault decisions, retry jitter, placement
//! lotteries and the workload are all seeded, so a given `--seed`
//! reproduces the run bit for bit at any `--jobs` count.
//!
//! A profiled calm-plan segment follows: its hottest paths (remote-CPU
//! apply and compaction included) and its per-link and per-node queues.
//!
//! The run exits non-zero if any plan drops below 100% availability or
//! leaves a slab under-replicated, or if the segment's profile does not
//! conserve simulated time — the CI cluster-smoke gate.
//!
//! ```bash
//! cargo run --release --bin fig_cluster -- --quick
//! cargo run --release --bin fig_cluster -- --nodes 4 --placement p2c
//! ```

use kona::{ClusterConfig, PlacementKind, RemoteMemoryRuntime};
use kona_bench::{banner, cluster_segment, f2, print_top_paths, ExpOptions, TextTable, TOP_PATHS};
use kona_cluster::{ClusterRuntime, ClusterStats, ControlPlaneConfig};
use kona_net::FaultPlan;
use kona_telemetry::QueueStats;
use kona_types::par_map;
use kona_types::rng::{Rng, StdRng};

/// Pages in the remote working set (the local cache holds 8).
const PAGES: u64 = 64;
/// Memory node the bundled plans flap/crash.
const VICTIM: u32 = 0;

struct Outcome {
    plan: &'static str,
    ok: u64,
    failed: u64,
    stats: kona::RuntimeStats,
    cluster: ClusterStats,
    abandoned: u64,
    verify_errors: u64,
    series: Option<kona_telemetry::SeriesData>,
}

impl Outcome {
    fn availability(&self) -> f64 {
        let total = self.ok + self.failed;
        if total == 0 {
            return 0.0;
        }
        self.ok as f64 / total as f64
    }
}

/// Drives `ops` accesses against a cluster running `plan`, checking
/// every read against a host-side model.
fn run_plan(
    plan: FaultPlan,
    seed: u64,
    ops: u64,
    nodes: u32,
    placement: PlacementKind,
    series_window: Option<u64>,
) -> Outcome {
    let name = plan.name;
    let mut cfg = ClusterConfig::small()
        .with_local_cache_pages(8)
        .with_replicas(2)
        .with_placement(placement);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = nodes;
    cfg.fault_plan = Some(plan);
    let tel = kona_telemetry::Telemetry::disabled();
    if let Some(window) = series_window {
        tel.enable_timeseries(window);
    }
    let mut rt = ClusterRuntime::with_telemetry(cfg, ControlPlaneConfig::default(), tel.clone())
        .expect("valid config");
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut model = vec![0u8; (PAGES * 4096) as usize];
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ok, mut failed) = (0u64, 0u64);
    for _ in 0..ops {
        let page = rng.gen_range(0..PAGES);
        let off = (page * 4096 + rng.gen_range(0..64) * 64) as usize;
        if rng.gen_bool(0.5) {
            let byte: u8 = rng.gen();
            match rt.write_bytes(base + off as u64, &[byte; 64]) {
                Ok(_) => {
                    model[off..off + 64].fill(byte);
                    ok += 1;
                }
                Err(_) => failed += 1,
            }
        } else {
            let mut buf = [0u8; 64];
            match rt.read_bytes(base + off as u64, &mut buf) {
                Ok(_) => {
                    assert_eq!(&buf[..], &model[off..off + 64], "stale read under {name}");
                    ok += 1;
                }
                Err(_) => failed += 1,
            }
        }
    }
    // Final sweep: every page must still read byte-exact — after a crash
    // that means from a promoted or re-replicated copy.
    let mut verify_errors = 0u64;
    let _ = rt.sync();
    for page in 0..PAGES {
        let mut buf = [0u8; 4096];
        match rt.read_bytes(base + page * 4096, &mut buf) {
            Ok(_) => {
                let off = (page * 4096) as usize;
                assert_eq!(
                    &buf[..],
                    &model[off..off + 4096],
                    "page {page} diverged under {name}"
                );
            }
            Err(_) => verify_errors += 1,
        }
    }
    let abandoned = rt.inner().eviction_stats().abandoned_flushes;
    Outcome {
        plan: name,
        ok,
        failed,
        stats: rt.stats(),
        cluster: rt.cluster_stats(),
        abandoned,
        verify_errors,
        series: tel.series().map(|s| s.prefixed(name)),
    }
}

/// Prints the queueing/occupancy tables folded from the windowed series
/// — the congestion view the event-queue scheduler refactor will be
/// validated against.
fn print_queue_tables(queues: &QueueStats) {
    println!("per-link in-flight depth (fabric link = initiator -> memory node):");
    let mut links = TextTable::new(&[
        "Link",
        "WRs",
        "Inflight(WR*ns)",
        "PeakMeanDepth",
        "PeakChainDepth",
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
    links.print();
    println!("\nper-node apply backlog (ingest peaks + window boundaries):");
    let mut nodes = TextTable::new(&["Node", "PeakBacklogBytes", "PeakBacklogBatches"]);
    for (id, node) in &queues.nodes {
        nodes.row(vec![
            format!("node{id}"),
            node.peak_backlog_bytes.to_string(),
            node.peak_backlog_batches.to_string(),
        ]);
    }
    nodes.print();
}

fn main() {
    let opts = ExpOptions::from_env();
    banner(
        "Cluster control plane: availability and rebalance traffic",
        "per-node apply/compaction + placement, migration, re-replication",
    );
    let seed: u64 = opts.seed();
    let nodes: u32 = opts.parsed("nodes").unwrap_or(3);
    let placement: PlacementKind = opts.parsed("placement").unwrap_or_default();
    let ops: u64 = if opts.quick { 600 } else { 6_000 };
    println!(
        "seed: {seed}, ops per plan: {ops}, nodes: {nodes}, replicas: 2, \
         placement: {placement:?}, victim node: {VICTIM}\n"
    );

    let plans = FaultPlan::bundled(seed, VICTIM);
    let series_window = opts.series_window_ns();
    let results = par_map(opts.jobs, plans, |_, plan| {
        run_plan(plan, seed, ops, nodes, placement, series_window)
    });

    let tel = opts.telemetry();
    let mut table = TextTable::new(&[
        "Plan",
        "Avail %",
        "Abandoned",
        "Rerepl",
        "UnderRepl",
        "Migr KiB",
        "Backlog B",
        "Applied",
        "Folded",
        "Compact %",
        "Verify errs",
    ]);
    let mut gate_failures = 0u64;
    for r in &results {
        table.row(vec![
            r.plan.to_string(),
            f2(r.availability() * 100.0),
            r.abandoned.to_string(),
            r.cluster.rereplications.to_string(),
            r.cluster.under_replicated.to_string(),
            (r.cluster.migration_bytes / 1024).to_string(),
            r.cluster.backlog_bytes.to_string(),
            r.cluster.entries_applied.to_string(),
            r.cluster.pages_folded.to_string(),
            f2(r.cluster.compaction_ratio() * 100.0),
            r.verify_errors.to_string(),
        ]);
        let g = |k: &str| format!("fig_cluster.{}.{k}", r.plan);
        tel.gauge(&g("availability")).set(r.availability());
        tel.gauge(&g("abandoned_flushes")).set(r.abandoned as f64);
        tel.gauge(&g("rereplications")).set(r.cluster.rereplications as f64);
        tel.gauge(&g("under_replicated")).set(r.cluster.under_replicated as f64);
        tel.gauge(&g("migration_bytes")).set(r.cluster.migration_bytes as f64);
        tel.gauge(&g("backlog_bytes")).set(r.cluster.backlog_bytes as f64);
        tel.gauge(&g("entries_applied")).set(r.cluster.entries_applied as f64);
        tel.gauge(&g("entries_deduped")).set(r.cluster.entries_deduped as f64);
        tel.gauge(&g("pages_folded")).set(r.cluster.pages_folded as f64);
        tel.gauge(&g("compaction_ratio")).set(r.cluster.compaction_ratio());
        tel.gauge(&g("retries")).set(r.stats.retries as f64);
        tel.gauge(&g("failovers")).set(r.stats.failovers as f64);
        tel.gauge(&g("verify_errors")).set(r.verify_errors as f64);
        if r.availability() < 1.0 || r.cluster.under_replicated > 0 || r.verify_errors > 0 {
            gate_failures += 1;
        }
    }
    table.print();

    println!(
        "\nExpected shape: availability holds at 100% on every plan. The\n\
         crash plans abandon the victim's log flushes, and the control\n\
         plane re-replicates its slabs onto healthy nodes (Rerepl > 0,\n\
         UnderRepl = 0) — the K-way budget is restored, not just spent.\n\
         Backlogs drain to zero and reads verify byte-exact throughout."
    );

    let (profile, queues, _) = cluster_segment(seed, opts.quick, opts.trace_capacity());
    println!("\n--- cluster segment (apply/compaction, calm plan) ---");
    print_top_paths(&profile, TOP_PATHS);
    println!();
    print_queue_tables(&queues);
    let conservation = profile.conservation_violations();
    if conservation > 0 {
        eprintln!("\ncluster segment: {conservation} conservation violations");
        gate_failures += 1;
    }

    let merged = series_window.map(|window| {
        let mut all = kona_telemetry::SeriesData::new(window);
        for r in &results {
            if let Some(s) = &r.series {
                all.merge(s);
            }
        }
        all
    });
    opts.write_outputs_with_series(&tel, merged.as_ref());
    if gate_failures > 0 {
        eprintln!("\ncluster gate FAILED for {gate_failures} plan(s)");
        std::process::exit(1);
    }
}
