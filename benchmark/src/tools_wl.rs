//! `paper_tools`: the offline pipeline people wait on — the Table 2
//! trace analyses, KTracker and the KCacheSim sweeps. No `core`, `net` or
//! `fpga` function is called.
//!
//! A pass runs every tool invocation once; each invocation is one timing
//! sample (a "chunk") and consumes the events of one trace (its
//! "accesses").

use crate::pass::{timed_chunks, PassTiming, Scale, PASSES};
use crate::result::{Layers, RunResult};
use crate::rounds::Rounds;
use crate::{host, reference, stats};
use kona_cache_sim::{CacheHierarchy, HierarchyConfig};
use kona_kcachesim::{sweep_cache_size, sweep_cache_size_jobs, SystemModel};
use kona_ktracker::{KTracker, TrackingMode};
use kona_trace::amplification::{averaged, per_window_series};
use kona_trace::contiguity::ContiguityAnalysis;
use kona_trace::spatial::SpatialAnalysis;
use kona_trace::{Trace, Windows};
use kona_types::{Jobs, Nanos, PAGE_SIZE_4K};
use kona_vm_sim::{Mmu, PageFaultKind, VmCosts};
use kona_workloads::{
    GraphAlgorithm, GraphWorkload, HistogramWorkload, LinearRegressionWorkload, RedisWorkload,
    VoltDbWorkload, Workload, WorkloadProfile,
};
use std::time::Instant;

/// Table 2 runs 10 windows of 10 s; the repo's own `table2` uses 6000
/// ops per window at footprint divisor 16. The benchmark keeps that
/// ops-to-footprint ratio at a smaller size.
const TABLE2_WINDOWS: usize = 10;
const TABLE2_OPS_PER_WINDOW: usize = 500;
const TABLE2_REPO_OPS: u64 = 6_000;
const TABLE2_REPO_DIVISOR: u64 = 16;
/// KTracker: 2 windows of 1 s (fig10's quick shape), divisor 64.
const TRACKER_WINDOWS: usize = 2;
const TRACKER_OPS_PER_WINDOW: usize = 6_000;
/// KCacheSim: fig8's quick shape.
const SWEEP_WINDOWS: usize = 4;
const SWEEP_OPS_PER_WINDOW: usize = 2_000;
const SWEEP_DIVISOR: u64 = 2048;
const SWEEP_PERCENTS: [u32; 4] = [0, 25, 50, 100];
const BLOCK: u64 = PAGE_SIZE_4K;
const WAYS: usize = 4;

type Make = fn(WorkloadProfile) -> Box<dyn Workload>;

/// The nine Table 2 workloads in the paper's row order.
const TABLE2: [Make; 9] = [
    |p| Box::new(RedisWorkload::rand().with_profile(p)),
    |p| Box::new(RedisWorkload::seq().with_profile(p)),
    |p| Box::new(LinearRegressionWorkload::with_profile(p)),
    |p| Box::new(HistogramWorkload::with_profile(p)),
    |p| Box::new(GraphWorkload::with_profile(GraphAlgorithm::PageRank, p)),
    |p| {
        Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::GraphColoring,
            p,
        ))
    },
    |p| {
        Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::ConnectedComponents,
            p,
        ))
    },
    |p| {
        Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::LabelPropagation,
            p,
        ))
    },
    |p| Box::new(VoltDbWorkload::with_profile(p)),
];
/// Redis-Rand and Redis-Seq, the two extremes KTracker is shown on.
const TRACKED: [usize; 2] = [0, 1];
/// Redis-Rand, Linear Regression, Graph Coloring: Fig 8's panels a-c.
const SWEPT: [usize; 3] = [0, 2, 5];

/// Every generated trace.
struct Inputs {
    table2: Vec<Trace>,
    tracked: Vec<Trace>,
    swept: Vec<Trace>,
    events: u64,
    gen_ns: f64,
}

impl Inputs {
    fn generate(seed: u64, scale: Scale) -> Inputs {
        let started = Instant::now();
        let table2_ops = scale.apply(TABLE2_OPS_PER_WINDOW, 20);
        let table2_profile = WorkloadProfile::default()
            .with_windows(TABLE2_WINDOWS)
            .with_ops_per_window(table2_ops)
            .with_scale_divisor(TABLE2_REPO_DIVISOR * TABLE2_REPO_OPS / table2_ops as u64);
        let tracker_profile = WorkloadProfile::default()
            .with_windows(TRACKER_WINDOWS)
            .with_window_width(Nanos::secs(1))
            .with_ops_per_window(scale.apply(TRACKER_OPS_PER_WINDOW, 20))
            .with_scale_divisor(64);
        let sweep_profile = WorkloadProfile::default()
            .with_windows(SWEEP_WINDOWS)
            .with_ops_per_window(scale.apply(SWEEP_OPS_PER_WINDOW, 20))
            .with_scale_divisor(SWEEP_DIVISOR);
        let table2: Vec<Trace> = TABLE2
            .iter()
            .map(|make| make(table2_profile).generate(seed))
            .collect();
        let tracked: Vec<Trace> = TRACKED
            .iter()
            .map(|&i| TABLE2[i](tracker_profile).generate(seed))
            .collect();
        let swept: Vec<Trace> = SWEPT
            .iter()
            .map(|&i| TABLE2[i](sweep_profile).generate(seed))
            .collect();
        let events = table2
            .iter()
            .chain(&tracked)
            .chain(&swept)
            .map(|t| t.len() as u64)
            .sum();
        Inputs {
            table2,
            tracked,
            swept,
            events,
            gen_ns: started.elapsed().as_nanos() as f64,
        }
    }
}

/// One tool invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    Amplification(usize),
    Spatial(usize),
    Contiguity(usize),
    Track(usize, TrackingMode),
    Sweep(usize, u32),
}

/// What an invocation computed, reduced to the figures the benchmark
/// reports or checks. Every field is deterministic for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Output {
    /// The invocation's headline number (4 KiB amplification, fully
    /// written fraction, mean write segment, total tracked time, AMAT).
    value: f64,
    /// A second figure where the report has one (64 B amplification,
    /// emulation bytes, DRAM-cache hit share).
    extra: f64,
}

fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for t in 0..TABLE2.len() {
        jobs.extend([Job::Amplification(t), Job::Spatial(t), Job::Contiguity(t)]);
    }
    for t in 0..TRACKED.len() {
        jobs.extend([
            Job::Track(t, TrackingMode::Coherence),
            Job::Track(t, TrackingMode::WriteProtect),
        ]);
    }
    for t in 0..SWEPT.len() {
        jobs.extend(SWEEP_PERCENTS.map(|pct| Job::Sweep(t, pct)));
    }
    jobs
}

impl Job {
    fn events(self, inputs: &Inputs) -> u64 {
        let trace = match self {
            Job::Amplification(t) | Job::Spatial(t) | Job::Contiguity(t) => &inputs.table2[t],
            Job::Track(t, _) => &inputs.tracked[t],
            Job::Sweep(t, _) => &inputs.swept[t],
        };
        trace.len() as u64
    }

    fn run(self, inputs: &Inputs) -> Output {
        match self {
            Job::Amplification(t) => {
                let trace = &inputs.table2[t];
                let mut series = per_window_series(Windows::new(trace, Nanos::secs(10)).iter());
                // The paper drops the final (tear-down) window.
                if series.len() > 1 {
                    series.pop();
                }
                let (amp_4k, _, amp_line) = averaged(&series);
                Output {
                    value: amp_4k,
                    extra: amp_line,
                }
            }
            Job::Spatial(t) => {
                let analysis = SpatialAnalysis::over_events(inputs.table2[t].iter().copied());
                Output {
                    value: analysis.fully_written_fraction(),
                    extra: analysis.write_page_count() as f64,
                }
            }
            Job::Contiguity(t) => {
                let analysis = ContiguityAnalysis::over_events(inputs.table2[t].iter().copied());
                Output {
                    value: analysis.mean_write_segment_len(),
                    extra: analysis.page_length_write_fraction(),
                }
            }
            Job::Track(t, mode) => {
                let report = KTracker::new(Nanos::secs(1)).run(&inputs.tracked[t], mode);
                Output {
                    value: report.total_time.as_ns() as f64,
                    extra: report.emulation_bytes as f64,
                }
            }
            Job::Sweep(t, pct) => {
                let points =
                    sweep_cache_size(&inputs.swept[t], &SystemModel::kona(), &[pct], BLOCK, WAYS);
                Output {
                    value: points[0].result.amat_ns,
                    extra: points[0].result.fractions[3],
                }
            }
        }
    }
}

fn one_pass(inputs: &Inputs, jobs: &[Job], outputs: &mut [Output]) -> PassTiming {
    timed_chunks(jobs.len(), |c| outputs[c] = jobs[c].run(inputs))
}

/// Sanity of one pass's outputs beyond "same as last time": the shapes
/// the paper's figures rest on.
fn shape_problems(jobs: &[Job], outputs: &[Output]) -> Vec<String> {
    let mut problems = Vec::new();
    for (job, out) in jobs.iter().zip(outputs) {
        let finite = out.value.is_finite() && out.extra.is_finite();
        let ok = match job {
            // Tracking whole pages can only track more than was dirtied.
            Job::Amplification(_) => {
                finite && out.value >= 1.0 && out.extra >= 1.0 && out.value >= out.extra
            }
            Job::Spatial(_) | Job::Contiguity(_) => finite && out.value >= 0.0,
            Job::Track(..) => finite && out.value > 0.0,
            Job::Sweep(..) => finite && out.value > 0.0,
        };
        if !ok {
            problems.push(format!("{job:?} produced {out:?}"));
        }
    }
    // A bigger DRAM cache never raises AMAT.
    for pair in jobs.iter().zip(outputs).collect::<Vec<_>>().windows(2) {
        if let ((Job::Sweep(a, _), small), (Job::Sweep(b, _), big)) = (pair[0], pair[1]) {
            if a == b && big.value > small.value {
                problems.push(format!(
                    "AMAT rose with cache size on sweep trace {a}: {small:?} -> {big:?}"
                ));
            }
        }
    }
    problems
}

pub fn run(seed: u64, scale: Scale, traced: bool, quick: bool) -> RunResult {
    let load_before = host::load_avg_1m();
    let jobs = jobs();
    let mut rounds = Rounds::new(traced, PASSES * jobs.len());
    let mut failed = 0u64;
    let mut first: Option<Vec<Output>> = None;
    let mut kept = None;
    for round in 0..PASSES {
        drop(kept.take());
        let started = Instant::now();
        let inputs = Inputs::generate(seed, scale);
        let mut warm = vec![Output::default(); jobs.len()];
        one_pass(&inputs, &jobs, &mut warm);
        let setup = started.elapsed();

        let mut outputs = vec![Output::default(); jobs.len()];
        let timing = one_pass(&inputs, &jobs, &mut outputs);
        let chunk_accesses: Vec<u64> = jobs.iter().map(|j| j.events(&inputs)).collect();
        rounds.record(
            round,
            setup,
            &timing,
            &chunk_accesses,
            "tool invocation",
            "tools",
        );
        // The tools are pure functions of their trace: an invocation that
        // answers differently from the warm-up pass, or from round 0, has
        // failed.
        let reference = first.get_or_insert(warm);
        failed += outputs
            .iter()
            .zip(reference.iter())
            .filter(|(now, then)| now != then)
            .count() as u64;
        kept = Some(inputs);
    }
    let inputs = kept.expect("PASSES > 0");
    let warm = first.expect("PASSES > 0");
    let accesses: u64 = jobs.iter().map(|j| j.events(&inputs)).sum();
    let problems = shape_problems(&jobs, &warm);
    let host_times = &rounds.host_times;

    let of = |wanted: fn(&Job) -> bool| -> Vec<Output> {
        jobs.iter()
            .zip(&warm)
            .filter(|(j, _)| wanted(j))
            .map(|(_, o)| *o)
            .collect()
    };
    let amps = of(|j| matches!(j, Job::Amplification(_)));
    let sweeps = of(|j| matches!(j, Job::Sweep(..)));
    let tracks = of(|j| matches!(j, Job::Track(..)));
    let paper = reference::table2_amp_4k();
    let errors: Vec<f64> = amps
        .iter()
        .zip(&paper)
        .map(|(ours, (_, theirs))| (ours.value - theirs).abs() / theirs * 100.0)
        .collect();
    let ref_err_pct = (errors.len() == amps.len()).then(|| stats::median(&errors));

    let mut layers = Layers::default();
    layers.set("driver.chunks", host_times.chunk_ns_per_acc.len() as f64);
    layers.set("driver.accesses_per_pass", accesses as f64);
    layers.set(
        "driver.validated",
        f64::from(u8::from(ref_err_pct.is_some())),
    );
    layers.set("driver.ref_err_pct", ref_err_pct.unwrap_or(0.0));
    layers.set("workloads.events", inputs.events as f64);
    layers.set(
        "trace.amp4k_median",
        stats::median(&amps.iter().map(|o| o.value).collect::<Vec<_>>()),
    );
    layers.set("kcachesim.sweep_points", sweeps.len() as f64);
    layers.set(
        "ktracker.emulation_bytes",
        tracks.iter().map(|o| o.extra).sum(),
    );
    let redis_half = jobs
        .iter()
        .position(|j| *j == Job::Sweep(0, 50))
        .expect("Redis-Rand is swept at 50 %");
    layers.set("cache-sim.dram_cache_hit_ratio", warm[redis_half].extra);

    if let (Some(_), Some((_, timing))) = (&rounds.spans, &rounds.root) {
        layers.set_driver_rows(host_times, &rounds.with_spans, &rounds.without_spans);
        layers.set(
            "workloads.gen_ns_per_event",
            inputs.gen_ns / inputs.events as f64,
        );
        // A tool's time per event: its invocations of the first timed pass.
        let per_event = |wanted: fn(&Job) -> bool| {
            let (mut ns, mut events) = (0.0, 0u64);
            for (c, job) in jobs.iter().enumerate().filter(|(_, j)| wanted(j)) {
                ns += timing.chunk_ns(c);
                events += job.events(&inputs);
            }
            ns / events.max(1) as f64
        };
        layers.set(
            "trace.analyze_ns_per_event",
            per_event(|j| {
                matches!(
                    j,
                    Job::Amplification(_) | Job::Spatial(_) | Job::Contiguity(_)
                )
            }),
        );
        layers.set(
            "kcachesim.ns_per_event",
            per_event(|j| matches!(j, Job::Sweep(..))),
        );
        layers.set(
            "ktracker.coherence_ns_per_event",
            per_event(|j| matches!(j, Job::Track(_, TrackingMode::Coherence))),
        );
        layers.set(
            "ktracker.wp_ns_per_event",
            per_event(|j| matches!(j, Job::Track(_, TrackingMode::WriteProtect))),
        );
        layers.set("cache-sim.ns_per_line", cache_sim_ns_per_line(&inputs));
        layers.set("kcachesim.sweep_speedup_jobs_n", sweep_speedup(&inputs));
        let (ns_per_translate, faults) = drive_mmu(&inputs.tracked[0]);
        layers.set("vm-sim.ns_per_translate", ns_per_translate);
        layers.set("vm-sim.faults", faults as f64);
    }

    RunResult {
        workload: "paper_tools",
        seed,
        traced,
        quick,
        attempted: (jobs.len() * PASSES) as u64,
        failed,
        problems,
        warnings: Vec::new(),
        host_times: rounds.host_times,
        setup_s: rounds.setup_s,
        peak_rss_mib: 0.0,
        sim_ns_per_acc: sweeps.iter().map(|o| o.value).sum::<f64>() / sweeps.len() as f64,
        ref_err_pct,
        layers,
        spans: rounds.spans,
        load_before,
    }
}

/// `CacheHierarchy::access_range` driven directly with the sweep traces,
/// DRAM cache at half the footprint: what KCacheSim spends below itself.
fn cache_sim_ns_per_line(inputs: &Inputs) -> f64 {
    let (mut ns, mut lines) = (0.0, 0u64);
    for trace in &inputs.swept {
        let way_bytes = BLOCK * WAYS as u64;
        let capacity = (trace.address_span() / 2 / way_bytes).max(1) * way_bytes;
        let config = HierarchyConfig::skylake_with_fmem(capacity, WAYS, BLOCK)
            .expect("capacity is whole sets");
        let mut hierarchy = CacheHierarchy::new(config);
        let started = Instant::now();
        for event in trace.iter() {
            std::hint::black_box(hierarchy.access_range(event.access));
        }
        ns += started.elapsed().as_nanos() as f64;
        lines += hierarchy.total_accesses();
    }
    ns / lines.max(1) as f64
}

/// The whole Redis-Rand sweep at one worker vs `min(nproc, 2)`.
fn sweep_speedup(inputs: &Inputs) -> f64 {
    let wall = |jobs: Jobs| {
        let started = Instant::now();
        std::hint::black_box(sweep_cache_size_jobs(
            &inputs.swept[0],
            &SystemModel::kona(),
            &SWEEP_PERCENTS,
            BLOCK,
            WAYS,
            jobs,
        ));
        started.elapsed().as_nanos() as f64
    };
    wall(Jobs::serial()) / wall(Jobs::new(host::scaling_workers()))
}

/// Write-protection tracking on the MMU model, driven with a KTracker
/// trace's page stream: pages map read-only, the first write of a window
/// faults and is made writable, every dirty page is re-protected at the
/// window boundary. Returns host ns per MMU call and the faults raised.
fn drive_mmu(trace: &Trace) -> (f64, u64) {
    let mut mmu = Mmu::new(VmCosts::default());
    let mut calls = 0u64;
    let started = Instant::now();
    for window in Windows::new(trace, Nanos::secs(1)).iter() {
        for event in window {
            loop {
                calls += 1;
                match mmu.translate(event.access.addr, event.access.kind) {
                    Ok(_) => break,
                    Err(fault) if fault.kind == PageFaultKind::MajorFetch => {
                        mmu.map(fault.page, false)
                    }
                    Err(fault) => mmu.make_writable(fault.page),
                }
            }
        }
        for page in mmu.dirty_pages() {
            calls += 1;
            mmu.protect(page, false);
        }
    }
    let ns = started.elapsed().as_nanos() as f64;
    let stats = mmu.stats();
    (
        ns / calls.max(1) as f64,
        stats.major_faults + stats.minor_faults,
    )
}
