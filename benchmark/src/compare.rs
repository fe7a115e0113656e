//! `compare <a.json> <b.json>`: did `b` (the change) get worse than `a`
//! (the parent)?
//!
//! Deterministic metrics must be identical. Host-time metrics follow the
//! choosing-metrics rule: a difference counts only when the medians are
//! further apart than the parent's own inter-quartile distance; anything
//! closer is *unresolved*, never "unchanged". Past its bound a metric
//! fails the comparison.

use crate::catalog::{self, Better, Kind};
use crate::json::{self, Value};
use std::path::Path;
use std::process::ExitCode;

/// One deterministic value in two runs.
#[derive(Debug, PartialEq)]
pub struct ExactRow {
    pub name: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
}

fn e2e_value(run: &Value, name: &str) -> Option<f64> {
    run.get("end_to_end")?.get(name)?.get("value")?.as_f64()
}

/// The deterministic values two run records have in common: the exact
/// end-to-end metrics and every entry of their `exact` objects. A value
/// only one side reports is skipped (an untraced run has no ledger).
pub fn exact_rows(a: &Value, b: &Value) -> Vec<ExactRow> {
    let mut rows = Vec::new();
    for e in catalog::END_TO_END
        .iter()
        .filter(|e| e.metric.kind == Kind::Exact)
    {
        let name = e.metric.name;
        rows.push(ExactRow {
            name: name.to_string(),
            a: e2e_value(a, name),
            b: e2e_value(b, name),
        });
    }
    let empty = Value::obj();
    let (ea, eb) = (
        a.get("exact").unwrap_or(&empty),
        b.get("exact").unwrap_or(&empty),
    );
    for (name, va) in ea.fields() {
        if let Some(vb) = eb.get(name) {
            rows.push(ExactRow {
                name: name.clone(),
                a: va.as_f64(),
                b: vb.as_f64(),
            });
        }
    }
    rows
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Better,
    Worse,
    Unresolved,
    PastBound,
}

/// The host-time rule for one metric. `a_iqr` is the parent's
/// inter-quartile distance (0 when it has a single sample); `noisy` says
/// a run's own passes spread wider than a tenth, in which case it can
/// prove neither a regression nor its absence.
fn judge(a: f64, b: f64, a_iqr: f64, noisy: bool, better: Better, bound: f64) -> (Verdict, f64) {
    let worse_by = match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    };
    let spread_wider_than_bound = noisy || a_iqr > bound * a;
    let verdict = if worse_by > bound && !spread_wider_than_bound {
        Verdict::PastBound
    } else if (b - a).abs() <= a_iqr || worse_by > bound {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (verdict, worse_by)
}

/// `(workload, untraced run, traced run)` of a results file, which is
/// either what `all` wrote or a single run record.
fn runs(doc: &Value) -> Vec<(String, Option<&Value>, Option<&Value>)> {
    match doc.get("workloads") {
        Some(workloads) => workloads
            .fields()
            .iter()
            .map(|(name, pair)| (name.clone(), pair.get("untraced"), pair.get("traced")))
            .collect(),
        None => {
            let name = doc
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let traced = doc.get("traced").and_then(Value::as_bool) == Some(true);
            vec![if traced {
                (name, None, Some(doc))
            } else {
                (name, Some(doc), None)
            }]
        }
    }
}

fn is_quick(doc: &Value) -> bool {
    doc.get("quick").and_then(Value::as_bool) == Some(true)
}

/// Compares two parsed results files, printing one row per workload and
/// metric. Returns the number of failures (model changes and metrics past
/// their bound).
///
/// # Errors
///
/// Refuses quick results, and files with no workload in common.
pub fn compare(a: &Value, b: &Value) -> Result<u32, String> {
    if is_quick(a) || is_quick(b) {
        return Err(
            "refusing to compare: a `--quick` result is a smoke test, not a measurement".into(),
        );
    }
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut failures = 0;
    let mut compared = 0;
    for (name, untraced_a, traced_a) in &runs_a {
        let Some((_, untraced_b, traced_b)) = runs_b.iter().find(|(n, _, _)| n == name) else {
            continue;
        };
        compared += 1;
        println!("== {name} ==");
        for (ra, rb) in [(untraced_a, untraced_b), (traced_a, traced_b)] {
            let (Some(ra), Some(rb)) = (ra, rb) else {
                continue;
            };
            if is_quick(ra) || is_quick(rb) {
                return Err(format!("refusing to compare: {name} holds a `--quick` run"));
            }
            let mut differing = 0;
            let rows = exact_rows(ra, rb);
            for row in &rows {
                if row.a != row.b {
                    differing += 1;
                    println!(
                        "  {:<38} MODEL CHANGED  {:?} -> {:?}",
                        row.name, row.a, row.b
                    );
                }
            }
            if differing == 0 {
                println!("  {} deterministic values identical", rows.len());
            }
            failures += differing;
        }
        let (Some(ra), Some(rb)) = (untraced_a, untraced_b) else {
            continue;
        };
        let noisy = [ra, rb]
            .iter()
            .any(|run| run.get("noisy").and_then(Value::as_bool) == Some(true));
        for e in catalog::END_TO_END
            .iter()
            .filter(|e| e.metric.kind == Kind::Host)
        {
            let m = &e.metric;
            let (Some(va), Some(vb)) = (e2e_value(ra, m.name), e2e_value(rb, m.name)) else {
                continue;
            };
            let quartile = |q: &str| ra.get("end_to_end")?.get(m.name)?.get(q)?.as_f64();
            let a_iqr = match (quartile("q1"), quartile("q3")) {
                (Some(q1), Some(q3)) => q3 - q1,
                _ => 0.0,
            };
            let (verdict, worse_by) = judge(va, vb, a_iqr, noisy, m.better, e.bound);
            let label = match verdict {
                Verdict::Better => "better",
                Verdict::Worse => "worse, within bound",
                Verdict::Unresolved => "unresolved",
                Verdict::PastBound => {
                    failures += 1;
                    "PAST BOUND"
                }
            };
            println!(
                "  {:<16} {:>16.4} -> {:>16.4} {:<5} {:>+7.2} % worse (bound {:.0} %, parent IQR {:.4})  {label}",
                m.name,
                va,
                vb,
                m.unit,
                worse_by * 100.0,
                e.bound * 100.0,
                a_iqr
            );
        }
        if noisy {
            println!("  note: a run of {name} was marked noisy; its host times are unresolved at best: measure again");
        }
    }
    if compared == 0 {
        return Err("the two files have no workload in common".into());
    }
    Ok(failures)
}

/// The `compare` subcommand.
///
/// # Errors
///
/// Unreadable or non-JSON files, and what [`compare`] refuses.
pub fn run(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let failures = compare(&load(a)?, &load(b)?)?;
    if failures == 0 {
        println!("\nno metric past its bound, no deterministic value changed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("\n{failures} failure(s)");
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(acc_per_s: f64, q1: f64, q3: f64, sim: f64, fetches: f64, quick: bool) -> Value {
        let host = |v: f64| {
            Value::obj()
                .with("value", v)
                .with("unit", "x")
                .with("q1", q1)
                .with("q3", q3)
        };
        let exact = |v: f64| Value::obj().with("value", v).with("unit", "x");
        Value::obj()
            .with("workload", "hot_hits")
            .with("traced", false)
            .with("quick", quick)
            .with(
                "end_to_end",
                Value::obj()
                    .with("acc_per_s", host(acc_per_s))
                    .with("sim_ns_per_acc", exact(sim))
                    .with("ref_err_pct", Value::obj().with("value", Value::Null))
                    .with("failed_frac", exact(0.0)),
            )
            .with("exact", Value::obj().with("core.remote_fetches", fetches))
    }

    #[test]
    fn judge_follows_the_quartile_rule() {
        // Within the parent's IQR: unresolved, whichever way it moved.
        assert_eq!(
            judge(100.0, 98.0, 3.0, false, Better::Higher, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 102.0, 3.0, false, Better::Higher, 0.10).0,
            Verdict::Unresolved
        );
        // Beyond the IQR, inside the bound.
        assert_eq!(
            judge(100.0, 95.0, 3.0, false, Better::Higher, 0.10).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 105.0, 3.0, false, Better::Higher, 0.10).0,
            Verdict::Better
        );
        assert_eq!(
            judge(100.0, 105.0, 3.0, false, Better::Lower, 0.10).0,
            Verdict::Worse
        );
        // Past the bound.
        assert_eq!(
            judge(100.0, 89.0, 3.0, false, Better::Higher, 0.10).0,
            Verdict::PastBound
        );
        assert_eq!(
            judge(100.0, 111.0, 3.0, false, Better::Lower, 0.10).0,
            Verdict::PastBound
        );
        let (_, worse_by) = judge(100.0, 89.0, 3.0, false, Better::Higher, 0.10);
        assert!((worse_by - 0.11).abs() < 1e-12);
        // A noisy run, or a parent that spreads wider than the bound,
        // cannot show a regression: unresolved, not past the bound.
        assert_eq!(
            judge(100.0, 85.0, 3.0, true, Better::Higher, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 85.0, 12.0, false, Better::Higher, 0.10).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn identical_runs_pass_and_a_changed_count_fails() {
        let a = record(100.0, 99.0, 101.0, 12.5, 40.0, false);
        assert_eq!(compare(&a, &a), Ok(0));
        // Host time within the bound, one count off by one: model changed.
        let b = record(97.0, 96.0, 98.0, 12.5, 41.0, false);
        assert_eq!(compare(&a, &b), Ok(1));
        // Simulated time moved: also a model change.
        let c = record(100.0, 99.0, 101.0, 12.6, 40.0, false);
        assert_eq!(compare(&a, &c), Ok(1));
        // Throughput 15 % down: past the 10 % bound.
        let d = record(85.0, 84.0, 86.0, 12.5, 40.0, false);
        assert_eq!(compare(&a, &d), Ok(1));
    }

    #[test]
    fn quick_results_are_refused() {
        let full = record(100.0, 99.0, 101.0, 12.5, 40.0, false);
        let quick = record(100.0, 99.0, 101.0, 12.5, 40.0, true);
        assert!(compare(&full, &quick).is_err());
        assert!(compare(&quick, &full).is_err());
    }

    #[test]
    fn exact_rows_skip_what_only_one_side_reports() {
        let a = record(1.0, 1.0, 1.0, 2.0, 3.0, false);
        let mut b = record(1.0, 1.0, 1.0, 2.0, 3.0, false);
        if let Value::Obj(fields) = &mut b {
            fields.retain(|(k, _)| k != "exact");
        }
        let names: Vec<String> = exact_rows(&a, &b).into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["sim_ns_per_acc", "ref_err_pct", "failed_frac"]);
    }
}
