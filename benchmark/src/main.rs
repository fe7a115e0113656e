//! `kona-benchmark`: host speed and fidelity of the simulator stack,
//! end to end and layer by layer, measured from outside through public
//! functions only. See `README.md` for what every number means.

#![forbid(unsafe_code)]

mod catalog;
mod compare;
mod host;
mod json;
mod ledger;
mod pass;
mod reference;
mod result;
mod rounds;
mod runtime_wl;
mod script;
mod serve_wl;
mod spans;
mod stats;
mod tools_wl;

use json::Value;
use pass::Scale;
use result::RunResult;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The seed `run.sh` uses unless told otherwise.
const DEFAULT_SEED: u64 = 42;
/// The held-out seed: never used while sizing or debugging the benchmark,
/// run (quick) by `all` so a check that only holds for seed 42 shows.
const HELD_OUT_SEED: u64 = 7;

const USAGE: &str = "usage:
  kona-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  kona-benchmark run <workload> [--seed N] [--trace] [--quick] [--out-dir DIR]
  kona-benchmark all [--seed N] [--quick] [--out-dir DIR]
  kona-benchmark list
  kona-benchmark contract
  kona-benchmark compare <a.json> <b.json>";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("{name} takes a whole number, got `{v}`"))
            })
            .transpose()
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--out-dir").unwrap_or("benchmark/results"))
    }
}

fn run_workload(
    name: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let info = catalog::workload(name)
        .ok_or_else(|| format!("unknown workload `{name}`; see `kona-benchmark list`"))?;
    let mut result = match info.name {
        "serve_stack" => serve_wl::run(seed, scale, traced, quick),
        "paper_tools" => tools_wl::run(seed, scale, traced, quick),
        kona_runtime => runtime_wl::run(kona_runtime, seed, scale, traced, quick),
    };
    result.peak_rss_mib = host::peak_rss_mib();
    Ok(result)
}

fn write_results(result: &RunResult, out_dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing results under {}: {e}", out_dir.display());
    std::fs::create_dir_all(out_dir).map_err(io)?;
    let stem = if result.traced {
        format!("{}.traced", result.workload)
    } else {
        result.workload.to_string()
    };
    std::fs::write(
        out_dir.join(format!("{stem}.json")),
        result.to_json().pretty(),
    )
    .map_err(io)?;
    if let Some(spans) = &result.spans {
        let path = out_dir.join(format!("{}.spans.json", result.workload));
        std::fs::write(path, spans.to_json().to_string()).map_err(io)?;
    }
    Ok(())
}

/// The driver's entry: one workload, one JSON object on the last line.
fn driver_mode(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args.number("--seconds")?.unwrap_or(pass::NOMINAL_SECONDS);
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let result = run_workload(name, seed, Scale::from_seconds(seconds), traced, false)?;
    result.print();
    write_results(&result, &args.out_dir())?;
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn run_mode(args: &Args) -> Result<ExitCode, String> {
    let name = args.0.get(1).ok_or(USAGE)?;
    let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
    let quick = args.flag("--quick");
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::from_seconds(pass::NOMINAL_SECONDS)
    };
    let result = run_workload(name, seed, scale, args.flag("--trace"), quick)?;
    result.print();
    write_results(&result, &args.out_dir())?;
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `run <workload>` in a child process (so `peak_rss_mib` is the
/// workload's own) and reads back what it wrote.
fn spawn_run(
    workload: &str,
    seed: u64,
    traced: bool,
    quick: bool,
    out_dir: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .arg(workload)
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--out-dir")
        .arg(out_dir);
    if traced {
        cmd.arg("--trace");
    }
    if quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stem = if traced {
        format!("{workload}.traced")
    } else {
        workload.to_string()
    };
    let path = out_dir.join(format!("{stem}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (child exited {status})", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The in-run checks of one (untraced, traced) pair of the same seed.
fn check_pair(
    workload: &str,
    seed: u64,
    untraced: &Value,
    traced: &Value,
    problems: &mut Vec<String>,
) {
    for (mode, run) in [("untraced", untraced), ("traced", traced)] {
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            problems.push(format!(
                "{workload} seed {seed} {mode}: outputs incorrect: {}",
                run.get("problems").unwrap_or(&Value::Null)
            ));
        }
    }
    // Two runs of one seed: every count and simulated statistic repeats.
    for row in compare::exact_rows(untraced, traced) {
        if row.a != row.b {
            problems.push(format!(
                "{workload} seed {seed}: `{}` differs between the untraced ({:?}) and the traced ({:?}) run",
                row.name, row.a, row.b
            ));
        }
    }
}

fn all_mode(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
    let quick = args.flag("--quick");
    let out_dir = args.out_dir();
    let load_before = host::load_avg_1m();
    let mut problems = Vec::new();
    let mut workloads = Value::obj();
    for w in &catalog::WORKLOADS {
        let untraced = spawn_run(w.name, seed, false, quick, &out_dir)?;
        let traced = spawn_run(w.name, seed, true, quick, &out_dir)?;
        check_pair(w.name, seed, &untraced, &traced, &mut problems);
        workloads = workloads.with(
            w.name,
            Value::obj()
                .with("untraced", untraced)
                .with("traced", traced),
        );
    }
    // The held-out seed only has to keep every check green, so it runs at
    // quick size into its own directory.
    if seed != HELD_OUT_SEED {
        let held_out = out_dir.join(format!("seed{HELD_OUT_SEED}"));
        for w in &catalog::WORKLOADS {
            let untraced = spawn_run(w.name, HELD_OUT_SEED, false, true, &held_out)?;
            let traced = spawn_run(w.name, HELD_OUT_SEED, true, true, &held_out)?;
            check_pair(w.name, HELD_OUT_SEED, &untraced, &traced, &mut problems);
        }
    }
    let doc = Value::obj()
        .with("schema", "kona-benchmark-v1")
        .with("quick", quick)
        .with("host", host::record(seed, load_before))
        .with("workloads", workloads);
    let path = out_dir.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    for p in &problems {
        println!("FAILED CHECK: {p}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list() {
    println!("workloads:");
    for w in &catalog::WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (tracing off):");
    for e in &catalog::END_TO_END {
        let bound = match e.metric.kind {
            catalog::Kind::Host => format!("+{:.0} % worse", e.bound * 100.0),
            _ => "exact".to_string(),
        };
        println!(
            "  {:<16} {:<9} {:<6} bound {:<12} {}",
            e.metric.name,
            e.metric.unit,
            e.metric.better.as_str(),
            bound,
            e.metric.source
        );
    }
    println!("\nper-layer metrics (traced run; no bound):");
    for m in &catalog::PER_LAYER {
        let kind = match m.kind {
            catalog::Kind::Host => "host",
            catalog::Kind::Exact => "exact",
            catalog::Kind::Info => "info",
        };
        println!(
            "  {:<38} {:<7} {:<6} {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            kind,
            m.source
        );
    }
}

/// `BENCHMARK.json`, generated from the catalogue.
fn contract() -> Value {
    let workloads = catalog::WORKLOADS
        .iter()
        .map(|w| Value::obj().with("name", w.name).with("why", w.why))
        .collect();
    let e2e = catalog::END_TO_END
        .iter()
        .filter(|e| e.in_contract)
        .map(|e| {
            Value::obj()
                .with("name", e.metric.name)
                .with("unit", e.metric.unit)
                .with("better", e.metric.better.as_str())
                .with("bound", e.bound)
        })
        .collect();
    let layers = catalog::PER_LAYER
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect();
    Value::obj()
        .with(
            "command",
            Value::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        )
        .with("paths", Value::Arr(vec!["benchmark".into()]))
        .with("run_seconds", pass::NOMINAL_SECONDS)
        .with("workloads", Value::Arr(workloads))
        .with("end_to_end", Value::Arr(e2e))
        .with("per_layer", Value::Arr(layers))
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.0.first().map(String::as_str) {
        Some(first) if first.starts_with("--") && args.flag("--workload") => driver_mode(args),
        Some("run") => run_mode(args),
        Some("all") => all_mode(args),
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("contract") => {
            print!("{}", contract().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => compare::run(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-size run of `workload`, untraced and traced: nothing fails,
    /// the mirror read-back passes, every check holds, and the two runs
    /// agree on every count and simulated statistic they both report.
    fn tiny_pair(workload: &str) {
        let untraced =
            run_workload(workload, 11, Scale::tiny(), false, true).expect("known workload");
        let traced = run_workload(workload, 11, Scale::tiny(), true, true).expect("known workload");
        for run in [&untraced, &traced] {
            assert_eq!(run.failed, 0, "{workload}: {:?}", run.problems);
            assert_eq!(run.failed_frac(), 0.0);
            assert!(run.attempted > 0);
            assert!(run.correct(), "{workload}: {:?}", run.problems);
        }
        assert!(untraced.spans.is_none());
        assert!(traced.spans.is_some());

        let (a, b) = (untraced.to_json(), traced.to_json());
        let rows = compare::exact_rows(&a, &b);
        assert!(
            rows.len() > 5,
            "{workload} compares only {} values",
            rows.len()
        );
        for row in rows {
            assert_eq!(
                row.a, row.b,
                "{workload}: {} differs between untraced and traced",
                row.name
            );
        }

        // The driver's line: exactly the contract's keys and metric sets.
        for (run, wanted) in [
            (
                &untraced,
                catalog::END_TO_END.iter().filter(|e| e.in_contract).count(),
            ),
            (&traced, catalog::PER_LAYER.len()),
        ] {
            let line = json::parse(&run.contract_line().to_string()).expect("one JSON object");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").expect("metrics").fields();
            assert_eq!(metrics.len(), wanted);
            for (name, m) in metrics {
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{name} is not a number"
                );
                assert!(m.get("unit").and_then(Value::as_str).is_some());
            }
        }
    }

    #[test]
    fn hot_hits_tiny() {
        tiny_pair("hot_hits");
    }

    #[test]
    fn miss_dirty_tiny() {
        tiny_pair("miss_dirty");
    }

    #[test]
    fn scan_clean_tiny() {
        tiny_pair("scan_clean");
    }

    #[test]
    fn serve_stack_tiny() {
        tiny_pair("serve_stack");
    }

    #[test]
    fn paper_tools_tiny() {
        tiny_pair("paper_tools");
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run_workload("nope", 1, Scale::tiny(), false, true).is_err());
    }
}
