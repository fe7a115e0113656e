//! Machine-readable perf snapshot (the committed one is `BENCH_PR7.json`;
//! a run writes `target/bench_report.json` unless `--out` says otherwise,
//! so a casual run never overwrites the committed baseline).
//!
//! Times the hot paths the data-structure overhaul targets (coherence
//! touches, dirty-line marks, FMem translation, eviction-log packing,
//! bitmap word-scans, slab-LRU touches) plus the sweep engine's wall
//! clock at `--jobs 1` vs `--jobs N` and the shard-parallel engine's
//! wall clock at `--shards 1` vs `--shards N`, and writes the results
//! as JSON so subsequent PRs have a perf trajectory to diff against.
//!
//! ```text
//! bench_report [--quick] [--jobs N] [--out PATH] [--baseline PATH]
//! ```
//!
//! With `--baseline`, each micro-bench is compared against the committed
//! snapshot and the process exits non-zero if any ns/op regressed more
//! than 2x — the CI `bench-smoke` gate. Wall-clock sweep numbers are
//! recorded but never gated: they depend on the runner's core count.
//! The shard speedup *is* gated — with at least [`SHARD_GATE_MIN_CORES`]
//! hardware threads the engine must hit > 0.7·N at N workers. Below
//! that the figure is printed but informational: with two or three
//! cores the bench thread, the OS and the workers share them, and the
//! speedup sits near 1.2x whatever the engine does.
//!
//! On any gate failure the report diffs a fresh quick profile-scenario
//! run against the committed `PROFILE_BASELINE.json` (override with
//! `--profile-baseline PATH`) and prints the blamed simulated-time
//! path — "something regressed" upgraded to "path X grew N×". The
//! host-scope wall-clock table (eviction_pack, shard_merge, ...) prints
//! on every run for the host-side view.

use kona::{
    seeded_script, ClusterConfig, EvictionHandler, Poller, RetryPolicy, ShardedRun,
};
use kona_bench::{profile_scenario, ExpOptions};
use kona_coherence::{AgentId, CoherenceSystem};
use kona_fpga::{DirtyTracker, RemoteTranslation, VictimPage};
use kona_kcachesim::{sweep_cache_size_jobs, SystemModel};
use kona_net::{Fabric, FaultInjector, FaultPlan, NetworkModel, Opcode};
use kona_types::rng::{Rng, StdRng};
use kona_telemetry::{host_profile_start, host_profile_stop, Profile, ProfileDiff};
use kona_types::{
    Jobs, LineBitmap, LineIndex, Nanos, PageNumber, RemoteAddr, ShardPlan, Shards, SlabLru,
    VfMemAddr, LINES_PER_PAGE_4K, PAGE_SIZE_4K,
};
use kona_workloads::{RedisWorkload, Workload, WorkloadProfile};
use std::time::Instant;

/// One timed hot path: name plus mean ns per operation.
struct Micro {
    name: &'static str,
    ns_per_op: f64,
}

/// Times `body` (which performs `ops` operations per call) until the
/// measurement budget is spent and returns mean ns/op.
///
/// `--quick` shrinks only the budget, never a case's per-call work:
/// per-call setup (fresh system, fabric, tracker) amortizes over the
/// same op count in both modes, so quick CI runs are comparable with a
/// full-mode committed baseline.
fn time_ns_per_op<O>(quick: bool, ops: u64, mut body: impl FnMut() -> O) -> f64 {
    let budget_ms = if quick { 60 } else { 250 };
    // Warm-up: one call primes caches and the allocator.
    std::hint::black_box(body());
    let start = Instant::now();
    let mut calls = 0u32;
    while start.elapsed().as_millis() < budget_ms || calls == 0 {
        std::hint::black_box(body());
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (f64::from(calls) * ops as f64)
}

/// MESI touches: a two-agent read/write mix over a shared line set —
/// exercises the Fx-hashed agent/directory maps and the slab LRU.
fn coherence_touch(quick: bool) -> f64 {
    let ops = 20_000;
    let mut rng = StdRng::seed_from_u64(11);
    time_ns_per_op(quick, ops, || {
        let mut sys = CoherenceSystem::new(2, 1024);
        for _ in 0..ops {
            let line = LineIndex(rng.next_u64() % 4096);
            if rng.next_u64().is_multiple_of(4) {
                sys.write(AgentId(0), line);
            } else {
                sys.read(AgentId((rng.next_u64() % 2) as u32), line);
            }
        }
        sys.drain_writebacks().len()
    })
}

/// Dirty-line marks plus count queries — exercises the Fx-hashed page map
/// and the incrementally-cached per-page counts.
fn dirty_set(quick: bool) -> f64 {
    let ops = 32_000;
    let mut rng = StdRng::seed_from_u64(12);
    time_ns_per_op(quick, ops, || {
        let mut tracker = DirtyTracker::new();
        let mut acc = 0usize;
        for i in 0..ops {
            let line = LineIndex(rng.next_u64() % (512 * LINES_PER_PAGE_4K as u64));
            tracker.mark(line);
            if i % 16 == 0 {
                acc += tracker.total_dirty_lines();
            }
        }
        acc
    })
}

/// FMem remote translations over 64 registered slabs, with runs of
/// same-slab lookups — exercises the MRU slot plus the range map.
fn fmem_lookup(quick: bool) -> f64 {
    let ops = 32_000;
    let mut xl = RemoteTranslation::new();
    let slab = 64 * PAGE_SIZE_4K;
    for s in 0..64u64 {
        xl.register(VfMemAddr::new(s * slab), slab, RemoteAddr::new(0, s * slab))
            .expect("register slab");
    }
    let mut rng = StdRng::seed_from_u64(13);
    time_ns_per_op(quick, ops, || {
        let mut acc = 0u64;
        let mut base = 0u64;
        for i in 0..ops {
            if i % 8 == 0 {
                base = (rng.next_u64() % 64) * slab;
            }
            let addr = VfMemAddr::new(base + (rng.next_u64() % slab));
            acc = acc.wrapping_add(xl.translate(addr).expect("mapped").offset());
        }
        acc
    })
}

/// Cache-line-log eviction of dirty pages through the handler — exercises
/// log packing, the Fx-hashed receiver maps and bitmap segment walks.
///
/// Fabric and handler are built once outside the timed body (like
/// `fmem_lookup`'s translation table): zeroing the 4 MiB node arena is
/// setup, not the pack path this micro times. Each timed call packs 256
/// pages of 8 single-line segments and flushes, so logs drain and the
/// recycled buffers make every call identical steady-state work.
fn eviction_pack(quick: bool) -> f64 {
    let pages = 256u64;
    let data = 1024 * PAGE_SIZE_4K;
    let mut bm = LineBitmap::new(LINES_PER_PAGE_4K);
    for i in (0..16).step_by(2) {
        bm.set(i);
    }
    let mut fabric = Fabric::new(NetworkModel::connectx5());
    fabric.add_node(0, data + 65536);
    fabric.register(0, 0, data).expect("register data");
    fabric.register(0, data, 65536).expect("register log");
    let mut handler = EvictionHandler::new(data, 65536);
    let mut poller = Poller::new();
    time_ns_per_op(quick, pages, || {
        for p in 0..pages {
            let victim = VictimPage {
                page: PageNumber(p),
                dirty_lines: bm.clone(),
            };
            handler
                .evict_page(
                    &victim,
                    None,
                    RemoteAddr::new(0, p * PAGE_SIZE_4K),
                    &[],
                    &mut fabric,
                    &mut poller,
                )
                .expect("evict");
        }
        handler.flush_all(&mut fabric, &mut poller).expect("flush");
        handler.breakdown().total()
    })
}

/// Word-at-a-time scans of sparse per-page bitmaps.
fn bitmap_scan(quick: bool) -> f64 {
    let reps = 8_000u64;
    let mut bm = LineBitmap::new(LINES_PER_PAGE_4K);
    for i in [0usize, 7, 8, 31, 32, 33, 63] {
        bm.set(i);
    }
    time_ns_per_op(quick, reps, || {
        let mut acc = 0usize;
        for _ in 0..reps {
            acc += std::hint::black_box(&bm).iter_set().sum::<usize>();
        }
        acc
    })
}

/// Slab-LRU touches with periodic evictions — the per-access recency
/// update both cache layers perform.
fn lru_touch(quick: bool) -> f64 {
    let ops = 32_000;
    let mut rng = StdRng::seed_from_u64(14);
    let mut lru = SlabLru::with_capacity(4096);
    for k in 0..4096u64 {
        lru.touch(k);
    }
    time_ns_per_op(quick, ops, || {
        let mut acc = 0u64;
        for i in 0..ops {
            lru.touch(rng.next_u64() % 8192);
            if i % 64 == 0 {
                acc = acc.wrapping_add(lru.pop_lru().unwrap_or(0));
            }
        }
        acc
    })
}

/// The slab-LRU workload replayed on the pre-overhaul structure (a
/// `VecDeque` recency queue with linear reordering) — the denominator for
/// the report's `improvement.lru_touch` ratio.
fn lru_touch_vecdeque(quick: bool) -> f64 {
    use std::collections::VecDeque;
    let ops = 2_000;
    let mut rng = StdRng::seed_from_u64(14);
    let mut q: VecDeque<u64> = (0..4096).collect();
    time_ns_per_op(quick, ops, || {
        let mut acc = 0u64;
        for i in 0..ops {
            let key = rng.next_u64() % 8192;
            if let Some(pos) = q.iter().position(|&k| k == key) {
                q.remove(pos);
            }
            q.push_back(key);
            if i % 64 == 0 {
                acc = acc.wrapping_add(q.pop_front().unwrap_or(0));
            }
        }
        acc
    })
}

/// Map probes with the given hasher: the line-map access pattern shared
/// by the coherence agent, directory, dirty tracker and eviction log.
fn hash_probe<H: std::hash::BuildHasher + Default>(quick: bool) -> f64 {
    let ops = 32_000;
    let mut map: std::collections::HashMap<u64, u64, H> = Default::default();
    for k in 0..4096u64 {
        map.insert(k * 64, k);
    }
    let mut rng = StdRng::seed_from_u64(15);
    time_ns_per_op(quick, ops, || {
        let mut acc = 0u64;
        for _ in 0..ops {
            let k = (rng.next_u64() % 8192) * 64;
            acc = acc.wrapping_add(map.get(&k).copied().unwrap_or(1));
        }
        acc
    })
}

/// The bitmap workload replayed with per-line `get` probing (the
/// pre-overhaul scan) — denominator for `improvement.bitmap_scan`.
fn bitmap_scan_probe(quick: bool) -> f64 {
    let reps = 8_000u64;
    let mut bm = LineBitmap::new(LINES_PER_PAGE_4K);
    for i in [0usize, 7, 8, 31, 32, 33, 63] {
        bm.set(i);
    }
    time_ns_per_op(quick, reps, || {
        let mut acc = 0usize;
        for _ in 0..reps {
            let b = std::hint::black_box(&bm);
            for i in 0..b.len() {
                if b.get(i) {
                    acc += i;
                }
            }
        }
        acc
    })
}

/// Per-verb fault decisions on a lossy plan — the tax every posted work
/// request pays once a fault plan is installed on the fabric.
fn fault_decide(quick: bool) -> f64 {
    let ops = 32_000;
    time_ns_per_op(quick, ops, || {
        let plan = FaultPlan::calm(21)
            .with_drop_prob(0.01)
            .with_corrupt_prob(0.005)
            .with_timeout_prob(0.01);
        let mut inj = FaultInjector::new(plan);
        let mut faults = 0u64;
        for i in 0..ops {
            let op = match i % 3 {
                0 => Opcode::Read,
                1 => Opcode::Write,
                _ => Opcode::Send,
            };
            if inj.decide(op).is_some() {
                faults += 1;
            }
        }
        faults
    })
}

/// Jittered exponential backoff computation — runs once per retry on the
/// fetch and flush recovery paths.
fn retry_backoff(quick: bool) -> f64 {
    let ops = 32_000;
    let policy = RetryPolicy::default();
    let mut rng = StdRng::seed_from_u64(16);
    time_ns_per_op(quick, ops, || {
        let mut acc = 0u64;
        for i in 0..ops {
            acc = acc.wrapping_add(policy.backoff_for((i % 4) as u32, &mut rng).as_ns());
        }
        acc
    })
}

/// Wall-clock of one cache-size sweep at the given job count, in ms.
fn sweep_wall_ms(quick: bool, jobs: Jobs) -> f64 {
    let profile = if quick {
        WorkloadProfile::default()
            .with_windows(1)
            .with_ops_per_window(4_000)
            .with_scale_divisor(2048)
    } else {
        WorkloadProfile::default()
            .with_windows(2)
            .with_ops_per_window(20_000)
            .with_scale_divisor(512)
    };
    let trace = RedisWorkload::rand().with_profile(profile).generate(42);
    let percents = [10u32, 20, 30, 40, 50, 60, 70, 80];
    let start = Instant::now();
    let pts = sweep_cache_size_jobs(&trace, &SystemModel::kona(), &percents, 4096, 4, jobs);
    std::hint::black_box(pts.len());
    start.elapsed().as_secs_f64() * 1e3
}

/// Wall-clock of one shard-parallel run at the given worker count, in ms.
///
/// The logical plan matches the worker count so every worker owns exactly
/// one shard — the configuration the 0.7·N scaling gate is defined over.
/// No windows, tracing or fault plan: this times the engine itself.
fn shard_wall_ms(quick: bool, workers: usize) -> f64 {
    let pages = 512u64;
    let ops = if quick { 60_000 } else { 240_000 };
    let mut cfg = ClusterConfig::small().with_replicas(2);
    cfg.memory_nodes = 3;
    cfg.local_cache_pages = 128;
    cfg.cpu_cache_lines = 1024;
    let run = ShardedRun::new(cfg, pages).with_plan(ShardPlan::new(workers as u32));
    let script = seeded_script(pages, ops, 42);
    let start = Instant::now();
    let report = run
        .execute(&script, Shards::new(workers))
        .expect("shard bench run");
    std::hint::black_box(report.total_ops());
    start.elapsed().as_secs_f64() * 1e3
}

/// Renders the report as JSON (hand-rolled: the workspace has no deps).
#[allow(clippy::too_many_arguments)]
fn to_json(
    micros: &[Micro],
    improvements: &[Micro],
    quick: bool,
    nproc: usize,
    jobs_n: usize,
    wall_1: f64,
    wall_n: f64,
    shards_n: usize,
    shard_wall_1: f64,
    shard_wall_n: f64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"kona-bench-report-v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"nproc\": {nproc},\n"));
    s.push_str("  \"micro_ns_per_op\": {\n");
    for (i, m) in micros.iter().enumerate() {
        let comma = if i + 1 == micros.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {:.1}{comma}\n", m.name, m.ns_per_op));
    }
    s.push_str("  },\n");
    s.push_str("  \"improvement_vs_naive\": {\n");
    for (i, m) in improvements.iter().enumerate() {
        let comma = if i + 1 == improvements.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {:.2}{comma}\n", m.name, m.ns_per_op));
    }
    s.push_str("  },\n");
    s.push_str("  \"sweep_wall_ms\": {\n");
    s.push_str(&format!("    \"jobs_1\": {wall_1:.1},\n"));
    s.push_str(&format!("    \"jobs_n\": {wall_n:.1},\n"));
    s.push_str(&format!("    \"n\": {jobs_n},\n"));
    s.push_str(&format!("    \"speedup\": {:.2}\n", wall_1 / wall_n.max(1e-9)));
    s.push_str("  },\n");
    s.push_str("  \"shard_wall_ms\": {\n");
    s.push_str(&format!("    \"shards_1\": {shard_wall_1:.1},\n"));
    s.push_str(&format!("    \"shards_n\": {shard_wall_n:.1},\n"));
    s.push_str(&format!("    \"n\": {shards_n},\n"));
    s.push_str(&format!(
        "    \"shard_speedup\": {:.2}\n",
        shard_wall_1 / shard_wall_n.max(1e-9)
    ));
    s.push_str("  }\n}\n");
    s
}

/// Pulls `"name": <number>` out of a baseline report. A full JSON parser
/// is overkill for a file this binary itself writes.
fn baseline_value(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Noise floor for blame: paths below this current self time never blame.
const BLAME_MIN_SELF_NS: u64 = 10_000;

/// On gate failure, names the simulated-time path that regressed: diffs
/// a fresh quick profile-scenario run (deterministic, host-independent)
/// against the committed profile baseline. When no simulated path grew,
/// the regression is host-side — the host-scope table is the lead.
fn print_blame(opts: &ExpOptions) {
    let path = opts.value_of("profile-baseline").unwrap_or("PROFILE_BASELINE.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("  blame: no profile baseline at {path} — run fig_profile --quick --profile-out {path}");
        return;
    };
    let Some(base) = Profile::from_json(&text) else {
        eprintln!("  blame: {path} is not a folded profile JSON");
        return;
    };
    // Always quick + serial: the baseline is committed from
    // `fig_profile --quick`, and the profile is deterministic at any
    // shard count anyway.
    let report = profile_scenario(opts.seed(), true, Shards::serial(), opts.trace_capacity(), Nanos::ZERO);
    let current = report.profile.expect("profile_scenario traces spans");
    let diff = ProfileDiff::between(&base, &current);
    match diff.worst_regression(BLAME_MIN_SELF_NS) {
        Some(w) => eprintln!(
            "  blame: {} grew {:.2}x ({} -> {} ns self) vs {path}",
            w.path, w.ratio, w.base_self_ns, w.current_self_ns
        ),
        None => eprintln!(
            "  blame: no simulated-time path grew vs {path} — regression is \
             host-side (see the host-scope table above)"
        ),
    }
}

/// Prints the wall-clock host-scope table accumulated across the run.
fn print_host_scopes() {
    let rows = host_profile_stop();
    if rows.is_empty() {
        return;
    }
    println!("  host scopes (wall clock, informational — never gated):");
    for r in &rows {
        println!(
            "    {:<16} {:>8} calls {:>12} ns total {:>10} ns max",
            r.name, r.calls, r.total_ns, r.max_ns
        );
    }
}

/// Fewest hardware threads at which the 0.7·N shard-speedup gate can
/// fail the run.
const SHARD_GATE_MIN_CORES: usize = 4;

fn main() {
    let opts = ExpOptions::from_env();
    let quick = opts.quick;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "bench_report: timing hot paths ({} mode, nproc {nproc})",
        if quick { "quick" } else { "full" }
    );
    host_profile_start();

    let micros = [
        Micro { name: "coherence_touch", ns_per_op: coherence_touch(quick) },
        Micro { name: "dirty_set", ns_per_op: dirty_set(quick) },
        Micro { name: "fmem_lookup", ns_per_op: fmem_lookup(quick) },
        Micro { name: "eviction_pack", ns_per_op: eviction_pack(quick) },
        Micro { name: "bitmap_scan", ns_per_op: bitmap_scan(quick) },
        Micro { name: "lru_touch", ns_per_op: lru_touch(quick) },
        // Failure-path micros (PR 3): absent from older baselines, which
        // the gate tolerates ("no baseline entry"); once a snapshot with
        // them is committed they regress-gate like every other hot path.
        Micro { name: "fault_decide", ns_per_op: fault_decide(quick) },
        Micro { name: "retry_backoff", ns_per_op: retry_backoff(quick) },
    ];
    for m in &micros {
        println!("  {:<18} {:>10.1} ns/op", m.name, m.ns_per_op);
    }

    // Replay three hot paths on the structures they replaced; the ratios
    // quantify the overhaul independent of host speed.
    let lru_old = lru_touch_vecdeque(quick);
    let fx = hash_probe::<std::hash::BuildHasherDefault<kona_types::FxHasher>>(quick);
    let std_h = hash_probe::<std::collections::hash_map::RandomState>(quick);
    let probe = bitmap_scan_probe(quick);
    let improvements = [
        Micro { name: "lru_touch", ns_per_op: lru_old / micros[5].ns_per_op.max(1e-9) },
        Micro { name: "hash_probe", ns_per_op: std_h / fx.max(1e-9) },
        Micro { name: "bitmap_scan", ns_per_op: probe / micros[4].ns_per_op.max(1e-9) },
    ];
    for m in &improvements {
        println!("  {:<18} {:>10.2}x vs pre-overhaul structure", m.name, m.ns_per_op);
    }

    let jobs_n = Jobs::available().get();
    let wall_1 = sweep_wall_ms(quick, Jobs::serial());
    let wall_n = sweep_wall_ms(quick, Jobs::available());
    println!(
        "  sweep wall-clock: jobs=1 {:.1} ms, jobs={} {:.1} ms ({:.2}x)",
        wall_1,
        jobs_n,
        wall_n,
        wall_1 / wall_n.max(1e-9)
    );

    let shards_n = Shards::available().get();
    let shard_wall_1 = shard_wall_ms(quick, 1);
    let shard_wall_n = shard_wall_ms(quick, shards_n);
    let shard_speedup = shard_wall_1 / shard_wall_n.max(1e-9);
    println!(
        "  shard wall-clock: shards=1 {shard_wall_1:.1} ms, shards={shards_n} \
         {shard_wall_n:.1} ms ({shard_speedup:.2}x)"
    );

    let json = to_json(
        &micros,
        &improvements,
        quick,
        nproc,
        jobs_n,
        wall_1,
        wall_n,
        shards_n,
        shard_wall_1,
        shard_wall_n,
    );
    let out = std::path::Path::new(opts.value_of("out").unwrap_or("target/bench_report.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(out, &json).expect("write report");
    let out = out.display();
    println!("report written to {out}");
    print_host_scopes();

    // Scaling gate (on a single-core runner both walls time the same
    // serial path, so there is nothing to compare).
    if shards_n > 1 && shard_speedup < 0.7 * shards_n as f64 {
        eprintln!(
            "bench_report: shard speedup {shard_speedup:.2}x < 0.7*{shards_n} at \
             {shards_n} workers"
        );
        if shards_n >= SHARD_GATE_MIN_CORES {
            print_blame(&opts);
            std::process::exit(1);
        }
        eprintln!(
            "bench_report: informational only below {SHARD_GATE_MIN_CORES} cores (nproc {nproc})"
        );
    }

    if let Some(path) = opts.value_of("baseline") {
        let base = std::fs::read_to_string(path).expect("read baseline");
        let mut regressed = false;
        for m in &micros {
            match baseline_value(&base, m.name) {
                Some(b) if b > 0.0 => {
                    let ratio = m.ns_per_op / b;
                    let flag = if ratio > 2.0 { "  REGRESSION" } else { "" };
                    println!("  vs baseline {:<18} {ratio:.2}x{flag}", m.name);
                    regressed |= ratio > 2.0;
                }
                _ => println!("  vs baseline {:<18} (no baseline entry)", m.name),
            }
        }
        if regressed {
            eprintln!("bench_report: micro-bench regressed >2x vs {path}");
            print_blame(&opts);
            std::process::exit(1);
        }
    }
}
