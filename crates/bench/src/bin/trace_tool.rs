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
//! ```
//!
//! Replaying a workload through the Kona runtime — its causal attribution
//! or a Perfetto timeline — is `fig_attrib --workload <name>`.

use kona_bench::{f2, workload_by_name, ExpOptions, TextTable, WORKLOAD_NAMES};
use kona_trace::amplification::AmplificationAnalysis;
use kona_trace::contiguity::ContiguityAnalysis;
use kona_trace::io::{read_trace, write_trace};
use kona_trace::spatial::SpatialAnalysis;
use kona_workloads::WorkloadProfile;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tool record <workload> <file.ktrc> [seed]\n  \
         trace_tool analyze <file.ktrc>\n\n\
         workloads: {}",
        WORKLOAD_NAMES.join(" ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") if args.len() >= 3 => {
            let Some(wl) = workload_by_name(&args[1], WorkloadProfile::default().with_windows(3))
            else {
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
        _ => usage(),
    }
}
