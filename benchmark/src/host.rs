//! What the numbers were measured on: stamped into every result so a
//! reader can tell a change from a different or a busy machine.

use crate::json::Value;
use std::process::Command;

/// Worker threads the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Workers for the two informational scaling rows.
pub fn scaling_workers() -> usize {
    nproc().min(2)
}

/// First line of `program args...`, or `"unknown"` (the driver's checkout
/// is not a git repository, and a host may lack either tool).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// 1-minute load average, or -1 where `/proc/loadavg` is unreadable.
pub fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(-1.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host record written at the top of a result file.
pub fn record(seed: u64, load_before: f64) -> Value {
    Value::obj()
        .with("nproc", nproc() as u64)
        .with("rustc", first_line("rustc", &["--version"]))
        .with("git_rev", first_line("git", &["rev-parse", "HEAD"]))
        .with("seed", seed)
        .with("load_1m_before", load_before)
        .with("load_1m_after", load_avg_1m())
}
