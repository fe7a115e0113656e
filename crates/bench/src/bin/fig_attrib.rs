//! Critical-path latency attribution and simulated-time profiles (causal
//! tracing).
//!
//! Replays each Table 2 workload through a Kona runtime with causal
//! tracing on, then prints where every nanosecond of end-to-end simulated
//! latency went: local hits, coherence work, FMem fills, wire time, copy
//! engines, retry backoff and queueing — per operation kind, with the
//! hidden (overlapped background) side alongside — then the `--top N`
//! slowest traces and hottest call paths. The attribution engine enforces
//! the exact-sum invariant (critical components == end-to-end latency)
//! per trace and folds each trace into the profile as it completes, so
//! no span ring is needed; the process exits non-zero on any violation,
//! any non-conserving profile or any dropped span, so CI can gate on it.
//!
//! Workloads fan out over `--jobs` worker threads. Each worker runs a
//! private telemetry whose trace-id base is derived from the workload
//! index, and results merge in workload order — output is byte-identical
//! for every job count.
//!
//! ```bash
//! cargo run --release --bin fig_attrib -- --quick
//! cargo run --release --bin fig_attrib -- --workload redis-rand --top 10 \
//!     --attrib-out attrib.json --trace-out trace.json
//! ```

use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime};
use kona_bench::{
    banner, print_top_paths, workload_by_name, ExpOptions, TextTable, TOP_PATHS, WORKLOAD_NAMES,
};
use kona_telemetry::{
    AttributionEngine, Component, MetricsDump, Profile, SpanEvent, Telemetry, TraceAttribution,
};
use kona_types::{align_up, par_map, ByteSize, PAGE_SIZE_4K};
use kona_workloads::WorkloadProfile;
use std::process::ExitCode;

/// Completed traces kept in the flight recorder per workload run.
const FLIGHT_CAPACITY: usize = 8;

struct WorkloadAttrib {
    name: String,
    engine: AttributionEngine,
    profile: Profile,
    dropped: u64,
    events: Vec<SpanEvent>,
    dump: MetricsDump,
}

/// Replays workload `name` with causal tracing; `idx` seeds the trace-id
/// base so ids stay globally unique and deterministic across job counts.
/// Span events are retained (ring capacity > 0) only when a `--trace-out`
/// timeline was requested — attribution and the profile consume each
/// trace at `trace_end` and need no retention, so they stay drop-free.
fn run_one(idx: usize, name: &str, quick: bool, seed: u64, span_capacity: usize) -> WorkloadAttrib {
    let windows = if quick { 2 } else { 4 };
    let profile = WorkloadProfile::default().with_windows(windows);
    let wl = workload_by_name(name, profile).expect("known workload");
    let trace = wl.generate(seed);
    let span = align_up(trace.address_span() + PAGE_SIZE_4K, PAGE_SIZE_4K);
    let pages = span / PAGE_SIZE_4K;

    // Cache half the footprint so eviction and writeback have real work
    // to do on the background side of every trace.
    let mut cfg = ClusterConfig::small().timing_only();
    cfg.node_capacity = ByteSize((span * 2).max(1 << 22));
    let cache_pages = ((pages / 2).max(4)) as usize;
    cfg.local_cache_pages = cache_pages - cache_pages % 4;

    let tel = Telemetry::with_causal(span_capacity, FLIGHT_CAPACITY);
    tel.set_trace_id_base((idx as u64) << 32);
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("config valid");
    rt.allocate(span).expect("allocation fits");
    rt.run_trace(trace.as_slice()).expect("trace runs");
    rt.sync().expect("sync");

    let engine = tel.attribution().expect("causal telemetry has an engine");
    WorkloadAttrib {
        name: wl.name().to_string(),
        profile: engine.profile(),
        engine,
        dropped: tel.dropped_events(),
        events: tel.events(),
        dump: tel.dump(),
    }
}

fn attribution_row(label: String, count: u64, total_ns: u64, v: &kona_telemetry::ComponentVec, hidden_ns: u64) -> Vec<String> {
    let mut row = vec![label, count.to_string(), total_ns.to_string()];
    for c in Component::ALL {
        row.push(v.get(c).to_string());
    }
    row.push(hidden_ns.to_string());
    row
}

fn print_top(top: &[TraceAttribution], k: usize) {
    if top.is_empty() {
        return;
    }
    println!("slowest traces (duration desc, trace id asc):");
    for t in top.iter().take(k) {
        let parts: Vec<String> = Component::ALL
            .iter()
            .filter(|&&c| t.critical.get(c) > 0)
            .map(|&c| format!("{}={}", c.name(), t.critical.get(c)))
            .collect();
        println!(
            "  trace {} {} {} ns: {} (hidden {} ns{})",
            t.id.0,
            t.op.name(),
            t.total.as_ns(),
            parts.join(" "),
            t.hidden.total(),
            if t.exact { "" } else { " — SUM VIOLATION" },
        );
    }
}

fn main() -> ExitCode {
    let opts = ExpOptions::from_env();
    banner(
        "Critical-path latency attribution (causal tracing)",
        "§4/§6 companion",
    );

    let names: Vec<String> = match opts.value_of("workload") {
        Some(w) => {
            if !WORKLOAD_NAMES.contains(&w) {
                eprintln!(
                    "usage: --workload {w}: unknown workload; choose from {WORKLOAD_NAMES:?}"
                );
                return ExitCode::from(2);
            }
            vec![w.to_string()]
        }
        None => WORKLOAD_NAMES.iter().map(ToString::to_string).collect(),
    };

    let quick = opts.quick;
    let seed = opts.seed();
    let top = opts.parsed("top").unwrap_or(TOP_PATHS);
    // Span retention feeds only the `--trace-out` timeline.
    let span_capacity = if opts.trace_out().is_some() {
        opts.trace_capacity()
    } else {
        0
    };
    let items: Vec<(usize, String)> = names.into_iter().enumerate().collect();
    let results = par_map(opts.jobs, items, move |_, (idx, name)| {
        run_one(idx, &name, quick, seed, span_capacity)
    });

    // Merge into one output telemetry in workload order: the registry via
    // dump/absorb, the span streams by replay. Identical at every --jobs.
    let tel = opts.telemetry();
    let mut violations = 0u64;
    let mut conservation = 0u64;
    let mut dropped = 0u64;
    let mut json = String::from("{\n\"workloads\": {\n");
    for (i, r) in results.iter().enumerate() {
        tel.absorb(&r.dump);
        for &ev in &r.events {
            tel.record(ev);
        }
        violations += r.engine.violations();
        conservation += r.profile.conservation_violations();
        dropped += r.dropped;

        let overall = r.engine.overall();
        println!(
            "\n--- {}: {} traces, {} ns end-to-end ---",
            r.name,
            r.engine.traces(),
            overall.total_ns
        );
        let mut header = vec!["Op", "Count", "Total(ns)"];
        for c in Component::ALL {
            header.push(c.name());
        }
        header.push("hidden(ns)");
        let mut table = TextTable::new(&header);
        for (op, agg) in r.engine.ops() {
            table.row(attribution_row(
                op.name().to_string(),
                agg.count,
                agg.total_ns,
                &agg.critical,
                agg.hidden.total(),
            ));
        }
        table.row(attribution_row(
            "overall".to_string(),
            overall.count,
            overall.total_ns,
            &overall.critical,
            overall.hidden.total(),
        ));
        table.print();
        print_top(r.engine.top(), top);
        print_top_paths(&r.profile, top);
        if r.dropped > 0 {
            println!("warning: {} spans dropped (ring wrapped)", r.dropped);
        }

        let sep = if i == 0 { "" } else { ",\n" };
        json.push_str(sep);
        json.push_str(&format!("\"{}\": {}", r.name, r.engine.to_json()));
    }
    json.push_str("\n}\n}\n");

    println!(
        "\nexact-sum invariant: {} violations across {} traces; {} spans dropped",
        violations,
        results.iter().map(|r| r.engine.traces()).sum::<u64>(),
        dropped
    );

    if let Some(path) = opts.value_of("attrib-out") {
        std::fs::write(path, &json).expect("write attribution json");
        println!("attribution json written to {path}");
    }
    if let Some(path) = opts.value_of("attrib-csv") {
        let mut csv = String::new();
        for r in &results {
            for line in r.engine.to_csv().lines() {
                if csv.is_empty() {
                    csv.push_str("workload,");
                    csv.push_str(line);
                    csv.push('\n');
                } else if !line.starts_with("op,scope") {
                    csv.push_str(&r.name);
                    csv.push(',');
                    csv.push_str(line);
                    csv.push('\n');
                }
            }
        }
        std::fs::write(path, &csv).expect("write attribution csv");
        println!("attribution csv written to {path}");
    }
    opts.write_outputs(&tel);
    if opts.profiling() {
        // Namespace each workload's profile by its name, then merge by
        // path key — order-independent.
        let mut profile = Profile::default();
        for r in &results {
            profile.merge(&r.profile.prefixed(&r.name));
        }
        opts.write_profile(&profile);
    }

    if violations > 0 || conservation > 0 || dropped > 0 {
        eprintln!(
            "FAIL: {violations} invariant violations, {conservation} conservation violations, \
             {dropped} dropped spans"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
