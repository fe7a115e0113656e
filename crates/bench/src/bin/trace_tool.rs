//! `trace-tool`: record and analyze Kona traces.
//!
//! The paper's methodology instruments applications once (with Intel Pin)
//! and re-analyzes the captured traces many times. This tool does the
//! same for this repository's binary trace format (`kona_trace::io`):
//!
//! ```bash
//! # Record a workload's trace to a file.
//! trace_tool record redis-rand /tmp/redis.ktrc
//!
//! # Re-run the Table-2-style analyses over a recorded trace.
//! trace_tool analyze /tmp/redis.ktrc
//!
//! # Replay a workload through the Kona runtime with tracing on and emit
//! # a Chrome trace-event / Perfetto timeline (open in ui.perfetto.dev).
//! trace_tool telemetry redis-rand /tmp/redis-trace.json
//! ```

use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime};
use kona_bench::{
    f2, workload_by_name, ExpOptions, TextTable, TRACE_RING_CAPACITY, WORKLOAD_NAMES,
};
use kona_telemetry::{Component, Telemetry};
use kona_trace::amplification::AmplificationAnalysis;
use kona_trace::contiguity::ContiguityAnalysis;
use kona_trace::io::{read_trace, write_trace};
use kona_trace::spatial::SpatialAnalysis;
use kona_types::{align_up, ByteSize, PAGE_SIZE_4K};
use kona_workloads::{Workload, WorkloadProfile};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

/// Completed traces kept in the flight recorder during causal analysis.
const FLIGHT_CAPACITY: usize = 8;

fn tool_workload(name: &str) -> Option<Box<dyn Workload>> {
    workload_by_name(name, WorkloadProfile::default().with_windows(3))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tool record <workload> <file.ktrc> [seed]\n  \
         trace_tool analyze <file.ktrc>\n  \
         trace_tool analyze <workload> [--top K] [--attrib-out a.json]\n                     \
         [--attrib-csv a.csv] [--seed N]\n  \
         trace_tool telemetry <workload> <trace.json> [seed]\n\n\
         workloads: {}",
        WORKLOAD_NAMES.join(" ")
    );
    ExitCode::FAILURE
}

/// Replays `workload` with causal tracing and prints the critical-path
/// attribution: per-op component tables, the top-k slowest traces, and
/// where requested the JSON/CSV artifacts. Exits non-zero on exact-sum
/// violations or dropped spans.
fn run_analyze_causal(workload: &str, opts: &ExpOptions) -> ExitCode {
    let Some(wl) = tool_workload(workload) else {
        eprintln!("unknown workload {workload}");
        return usage();
    };
    let seed = opts.seed();
    let top_k: usize = opts.parsed("top").unwrap_or(5);
    let trace = wl.generate(seed);
    let span = align_up(trace.address_span() + PAGE_SIZE_4K, PAGE_SIZE_4K);
    let pages = span / PAGE_SIZE_4K;

    let mut cfg = ClusterConfig::small().timing_only();
    cfg.node_capacity = ByteSize((span * 2).max(1 << 22));
    let cache_pages = ((pages / 2).max(4)) as usize;
    cfg.local_cache_pages = cache_pages - cache_pages % 4;

    let tel = Telemetry::with_causal(TRACE_RING_CAPACITY, FLIGHT_CAPACITY);
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("config valid");
    rt.allocate(span).expect("allocation fits");
    rt.run_trace(trace.as_slice()).expect("trace runs");
    rt.sync().expect("sync");

    let engine = tel.attribution().expect("causal telemetry has an engine");
    let overall = engine.overall();
    println!(
        "{}: {} traces, {} ns end-to-end, {} invariant violations\n",
        wl.name(),
        engine.traces(),
        overall.total_ns,
        engine.violations()
    );

    let mut header = vec!["Op", "Count", "Total(ns)"];
    for c in Component::ALL {
        header.push(c.name());
    }
    header.push("hidden(ns)");
    let mut table = TextTable::new(&header);
    for (op, agg) in engine.ops() {
        let mut row = vec![
            op.name().to_string(),
            agg.count.to_string(),
            agg.total_ns.to_string(),
        ];
        for c in Component::ALL {
            row.push(agg.critical.get(c).to_string());
        }
        row.push(agg.hidden.total().to_string());
        table.row(row);
    }
    table.print();

    println!("\ntop {top_k} slowest traces (duration desc, trace id asc):");
    for t in engine.top().iter().take(top_k) {
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

    let dropped = tel.dropped_events();
    if dropped > 0 {
        println!("\nwarning: trace ring wrapped, {dropped} spans dropped (tel.spans_dropped)");
    }
    if let Some(path) = opts.value_of("attrib-out") {
        std::fs::write(path, engine.to_json()).expect("write attribution json");
        println!("attribution json written to {path}");
    }
    if let Some(path) = opts.value_of("attrib-csv") {
        std::fs::write(path, engine.to_csv()).expect("write attribution csv");
        println!("attribution csv written to {path}");
    }
    if engine.violations() > 0 || dropped > 0 {
        eprintln!(
            "FAIL: {} invariant violations, {dropped} dropped spans",
            engine.violations()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Replays `workload` through a Kona runtime with span tracing enabled and
/// writes the Chrome trace-event JSON to `out`.
fn run_telemetry(workload: &str, out: &str, seed: u64) -> ExitCode {
    let Some(wl) = tool_workload(workload) else {
        eprintln!("unknown workload {workload}");
        return usage();
    };
    let trace = wl.generate(seed);
    let span = align_up(trace.address_span() + PAGE_SIZE_4K, PAGE_SIZE_4K);
    let pages = span / PAGE_SIZE_4K;

    // Size the cluster to the workload: cache half the footprint so the
    // eviction thread has real work to do during the replay.
    let mut cfg = ClusterConfig::small().timing_only();
    cfg.node_capacity = ByteSize((span * 2).max(1 << 22));
    // FMem is 4-way set-associative: the page count must divide into sets.
    let cache_pages = ((pages / 2).max(4)) as usize;
    cfg.local_cache_pages = cache_pages - cache_pages % 4;

    let tel = Telemetry::with_tracing(TRACE_RING_CAPACITY);
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("config valid");
    rt.allocate(span).expect("allocation fits");
    rt.run_trace(trace.as_slice()).expect("trace runs");
    rt.sync().expect("sync");

    if let Err(e) = std::fs::write(out, tel.chrome_trace()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let events = tel.events().len();
    let dropped = tel.dropped_events();
    println!(
        "{}: replayed {} accesses, {} span events to {out}\n",
        wl.name(),
        trace.len(),
        events
    );
    if dropped > 0 {
        println!("(ring full: {dropped} oldest events dropped)\n");
    }
    println!("{}", rt.stats());
    println!("\nopen the timeline at https://ui.perfetto.dev or chrome://tracing");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") if args.len() >= 3 => {
            let Some(wl) = tool_workload(&args[1]) else {
                eprintln!("unknown workload {}", args[1]);
                return usage();
            };
            let seed = args
                .get(3)
                .map_or(42, |s| ExpOptions::parse_arg("[seed]", s));
            let trace = wl.generate(seed);
            let file = match File::create(&args[2]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {}: {e}", args[2]);
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = write_trace(BufWriter::new(file), &trace) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "recorded {} events ({} span, {} writes) to {}",
                trace.len(),
                trace.duration(),
                trace.write_count(),
                args[2]
            );
            ExitCode::SUCCESS
        }
        Some("analyze") if args.len() >= 2 => {
            // A workload name runs the causal attribution analysis; a path
            // keeps the legacy binary-trace (.ktrc) analyses.
            if WORKLOAD_NAMES.contains(&args[1].as_str()) {
                return run_analyze_causal(&args[1], &ExpOptions::from_args(args[2..].to_vec()));
            }
            let file = match File::open(&args[1]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            let trace = match read_trace(BufReader::new(file)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("read failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{}: {} events, {} reads, {} writes, span {}, footprint {} KiB\n",
                args[1],
                trace.len(),
                trace.read_count(),
                trace.write_count(),
                trace.duration(),
                trace.address_span() / 1024
            );

            let amp = AmplificationAnalysis::over_events(trace.iter().copied());
            let sp = SpatialAnalysis::over_events(trace.iter().copied());
            let ca = ContiguityAnalysis::over_events(trace.iter().copied());

            let mut table = TextTable::new(&["Metric", "Value"]);
            table.row(vec!["amplification @4KiB".into(), f2(amp.amplification_4k())]);
            table.row(vec!["amplification @2MiB".into(), f2(amp.amplification_2m())]);
            table.row(vec!["amplification @64B".into(), f2(amp.amplification_line())]);
            table.row(vec!["dirty bytes".into(), amp.dirty_bytes().to_string()]);
            table.row(vec![
                "mean lines written/page".into(),
                f2(sp.write_cdf().mean()),
            ]);
            table.row(vec![
                "fully-written page fraction".into(),
                f2(sp.fully_written_fraction()),
            ]);
            table.row(vec![
                "mean write segment (lines)".into(),
                f2(ca.mean_write_segment_len()),
            ]);
            table.print();
            ExitCode::SUCCESS
        }
        Some("telemetry") if args.len() >= 3 => {
            let seed = args
                .get(3)
                .map_or(42, |s| ExpOptions::parse_arg("[seed]", s));
            run_telemetry(&args[1], &args[2], seed)
        }
        _ => usage(),
    }
}
