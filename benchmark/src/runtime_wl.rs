//! The three workloads that drive a bare `KonaRuntime`: `hot_hits`,
//! `miss_dirty`, `scan_clean`.
//!
//! Same code, three configurations chosen so that different layers do the
//! work (see `catalog::WORKLOADS` and the README).

use crate::ledger::{self, Above, SlabMap, Stream, SubCore};
use crate::pass::{timed_pass, PassTiming, Plan, Scale, CHUNKS, PASSES};
use crate::result::{Layers, RunResult};
use crate::rounds::Rounds;
use crate::script::{op_accesses, ops_from_trace, splitmix64, Driver, FlatMemory, Op, Path};
use crate::spans::SpanLog;
use crate::{catalog, host, reference};
use kona::{
    ClusterConfig, DataMode, EvictionStats, KonaRuntime, RemoteMemoryRuntime, RuntimeStats,
    ShardedRun, VmProfile, VmRuntime,
};
use kona_coherence::CoherenceStats;
use kona_fpga::{FpgaStats, NextPagePrefetcher};
use kona_net::NetStats;
use kona_telemetry::{EventKind, Profile, Telemetry, Track};
use kona_types::{ByteSize, Nanos, ShardPlan, Shards, VirtAddr, PAGE_SIZE_4K};
use kona_workloads::{LinearRegressionWorkload, RedisWorkload, Workload, WorkloadProfile};
use std::time::Instant;

/// Span-ring capacity the repo's instrumented binaries ship with.
pub const RING_CAPACITY: usize = 1 << 18;
/// Time-series window `fig_tenants` / `fig_health` collect at.
pub const SERIES_WINDOW_NS: u64 = 100_000;

/// Nominal ops per traversal (an op is two trace events) at scale 1.
const HOT_HITS_OPS: usize = 340_000;
const HOT_HITS_REPS: usize = 4;
const MISS_DIRTY_OPS: usize = 170_000;
const SCAN_CLEAN_OPS: usize = 50_000;
/// Ops of the fixed-plan shard scaling rows.
const SHARD_OPS: usize = 60_000;
const SHARD_PAGES: u64 = 512;

/// One configured workload: everything a runtime is built from and
/// driven with.
pub struct Scenario {
    pub config: ClusterConfig,
    pub path: Path,
    pub ops: Vec<Op>,
    pub op_accesses: Vec<u64>,
    pub plan: Plan,
    pub footprint: u64,
    pub seed: u64,
    pub events: u64,
    pub gen_ns: f64,
}

impl Scenario {
    pub fn accesses_per_pass(&self) -> u64 {
        self.op_accesses.iter().sum::<u64>() * self.plan.reps as u64
    }

    fn max_len(&self) -> u32 {
        self.ops.iter().map(|op| op.len).max().unwrap_or(1)
    }

    pub fn driver(&self) -> Driver {
        Driver::new(self.path, self.seed, self.footprint, self.max_len())
    }

    /// The first `1 / divisor` of the script, walked once per pass.
    fn slice(&self, divisor: usize) -> Scenario {
        let n = (self.ops.len() / divisor).max(1);
        Scenario {
            config: self.config.clone(),
            ops: self.ops[..n].to_vec(),
            op_accesses: self.op_accesses[..n].to_vec(),
            plan: Plan::new(n, 1),
            ..*self
        }
    }
}

fn single_window(ops: usize, divisor: u64) -> WorkloadProfile {
    WorkloadProfile::default()
        .with_windows(1)
        .with_ops_per_window(ops)
        .with_scale_divisor(divisor)
}

/// Rounds a footprint up to whole slabs, and sizes the nodes to hold
/// `replicas` copies of it with a slab of slack each.
pub fn fit_nodes(config: &mut ClusterConfig, footprint: u64) -> u64 {
    let slab = config.slab_size.bytes();
    let footprint = footprint.div_ceil(slab) * slab;
    let per_node = (footprint * config.replicas as u64).div_ceil(u64::from(config.memory_nodes));
    config.node_capacity = ByteSize((per_node.div_ceil(slab) + 1) * slab);
    footprint
}

/// FMem sized to `footprint / fraction`, a whole number of sets.
pub fn fmem_pages(config: &ClusterConfig, footprint: u64, fraction: u64) -> usize {
    let pages = (footprint / PAGE_SIZE_4K / fraction) as usize;
    (pages / config.fmem_ways).max(1) * config.fmem_ways
}

/// Builds the named scenario's inputs from the seed.
pub fn scenario(name: &'static str, seed: u64, scale: Scale) -> Scenario {
    let small = ClusterConfig::small();
    // Per workload: configuration, how ops reach the runtime, the trace
    // generator, traversals per pass, and FMem as a fraction of the
    // footprint (1 / n).
    let (mut config, path, workload, reps, fmem_fraction): (_, _, Box<dyn Workload>, _, _) =
        match name {
            "hot_hits" => (
                small.timing_only(),
                Path::Access,
                Box::new(
                    RedisWorkload::rand()
                        .with_profile(single_window(scale.apply(HOT_HITS_OPS, 64), 128)),
                ),
                HOT_HITS_REPS,
                1,
            ),
            "miss_dirty" => (
                ClusterConfig {
                    cpu_cache_lines: 2048,
                    ..small.with_replicas(2)
                },
                Path::Bytes,
                Box::new(
                    RedisWorkload::rand()
                        .with_profile(single_window(scale.apply(MISS_DIRTY_OPS, 64), 64)),
                ),
                1,
                16,
            ),
            "scan_clean" => (
                small
                    .timing_only()
                    .with_prefetcher(NextPagePrefetcher::new(2, 2)),
                Path::Access,
                Box::new(LinearRegressionWorkload::with_profile(single_window(
                    scale.apply(SCAN_CLEAN_OPS, 64),
                    256,
                ))),
                1,
                8,
            ),
            other => panic!("not a KonaRuntime workload: {other}"),
        };
    let started = Instant::now();
    let trace = workload.generate(seed);
    let gen_ns = started.elapsed().as_nanos() as f64;
    let footprint = fit_nodes(&mut config, workload.footprint().bytes());
    config.local_cache_pages = fmem_pages(&config, footprint, fmem_fraction);
    let ops = ops_from_trace(&trace);
    let op_accesses = op_accesses(&ops);
    Scenario {
        plan: Plan::new(ops.len(), reps),
        events: trace.len() as u64,
        config,
        path,
        op_accesses,
        ops,
        footprint,
        seed,
        gen_ns,
    }
}

/// Every public counter of a `KonaRuntime`, copied at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreCounts {
    pub rt: RuntimeStats,
    pub eviction: EvictionStats,
    pub fpga: FpgaStats,
    pub coherence: CoherenceStats,
    pub net: NetStats,
    pub prefetch_issued: u64,
    pub prefetch_useful: u64,
}

impl CoreCounts {
    pub fn of(rt: &mut KonaRuntime) -> CoreCounts {
        CoreCounts {
            rt: rt.stats(),
            eviction: rt.eviction_stats(),
            fpga: rt.fpga().stats(),
            coherence: rt.fpga().coherence_stats(),
            net: rt.fabric_mut().stats(),
            prefetch_issued: rt.telemetry().counter("fmem.prefetch_issued").get(),
            prefetch_useful: rt.telemetry().counter("fmem.prefetch_useful").get(),
        }
    }

    /// Books the counters accumulated between `self` and `after`.
    pub fn delta_into(&self, after: &CoreCounts, out: &mut Layers) {
        let d = |a: u64, b: u64| (b - a) as f64;
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let (a, b) = (self, after);
        out.set(
            "coherence.directory_transactions",
            d(
                a.coherence.directory_transactions,
                b.coherence.directory_transactions,
            ),
        );
        out.set(
            "coherence.invalidations",
            d(a.coherence.invalidations, b.coherence.invalidations),
        );
        out.set(
            "coherence.writebacks",
            d(a.coherence.writebacks, b.coherence.writebacks),
        );
        out.set("fpga.cpu_hits", d(a.fpga.cpu_hits, b.fpga.cpu_hits));
        out.set("fpga.fmem_hits", d(a.fpga.fmem_hits, b.fpga.fmem_hits));
        out.set(
            "fpga.remote_fetches",
            d(a.fpga.remote_fetches, b.fpga.remote_fetches),
        );
        out.set(
            "fpga.prefetched_pages",
            d(a.fpga.prefetched_pages, b.fpga.prefetched_pages),
        );
        out.set(
            "fpga.prefetch_useful_ratio",
            ratio(
                d(a.prefetch_useful, b.prefetch_useful),
                d(a.prefetch_issued, b.prefetch_issued),
            ),
        );
        out.set("net.requests", d(a.net.requests, b.net.requests));
        out.set("net.posts", d(a.net.posts, b.net.posts));
        out.set("net.wire_bytes", d(a.net.wire_bytes, b.net.wire_bytes));
        out.set(
            "net.faulted_posts",
            d(a.net.faulted_posts, b.net.faulted_posts),
        );
        let hits = d(a.rt.local_hits, b.rt.local_hits);
        let fetches = d(a.rt.remote_fetches, b.rt.remote_fetches);
        out.set("core.local_hit_ratio", ratio(hits, hits + fetches));
        out.set("core.remote_fetches", fetches);
        out.set(
            "core.pages_evicted",
            d(a.rt.pages_evicted, b.rt.pages_evicted),
        );
        out.set(
            "core.silent_evictions",
            d(a.eviction.silent_evictions, b.eviction.silent_evictions),
        );
        out.set("core.flushes", d(a.eviction.flushes, b.eviction.flushes));
        let writeback = d(a.rt.writeback_bytes, b.rt.writeback_bytes);
        out.set("core.writeback_bytes", writeback);
        out.set(
            "core.write_amplification",
            ratio(writeback, d(a.rt.app_dirty_bytes, b.rt.app_dirty_bytes)),
        );
        out.set("core.retries", d(a.rt.retries, b.rt.retries));
    }
}

/// A constructed, allocated, warmed-up runtime and the driver feeding it.
pub struct Live<R> {
    pub rt: R,
    pub driver: Driver,
    pub base: u64,
}

/// Allocates the footprint on a freshly constructed runtime.
pub fn build<R: RemoteMemoryRuntime>(sc: &Scenario, mut rt: R, driver: Driver) -> Live<R> {
    let base = rt
        .allocate(sc.footprint)
        .expect("nodes sized for the footprint")
        .raw();
    Live { rt, driver, base }
}

/// [`build`] plus the warm-up pass: modelled caches fill, the host
/// allocator and the lazily-zeroed node arenas get touched.
pub fn warm_up<R: RemoteMemoryRuntime>(sc: &Scenario, rt: R, driver: Driver) -> Live<R> {
    let mut live = build(sc, rt, driver);
    one_pass(sc, &mut live);
    live
}

pub fn one_pass<R: RemoteMemoryRuntime>(sc: &Scenario, live: &mut Live<R>) -> PassTiming {
    masked_pass(sc, live, None)
}

/// One pass over the ops `mask` admits (all of them without a mask).
pub fn masked_pass<R: RemoteMemoryRuntime>(
    sc: &Scenario,
    live: &mut Live<R>,
    mask: Option<&[bool]>,
) -> PassTiming {
    let Live { rt, driver, base } = live;
    timed_pass(&sc.ops, sc.plan, |i, op| {
        if mask.is_none_or(|m| m[i]) {
            driver.issue(rt, *base, op);
        }
    })
}

fn kona(sc: &Scenario, telemetry: Telemetry) -> KonaRuntime {
    KonaRuntime::with_telemetry(sc.config.clone(), telemetry).expect("valid configuration")
}

/// Runs one of the three workloads.
pub fn run(name: &'static str, seed: u64, scale: Scale, traced: bool, quick: bool) -> RunResult {
    let load_before = host::load_avg_1m();
    let mut rounds = Rounds::new(traced, 32 * CHUNKS);
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first_counts = None;
    let mut kept = None;
    for round in 0..PASSES {
        drop(kept.take());
        let started = Instant::now();
        let sc = scenario(name, seed, scale);
        let mut live = warm_up(&sc, kona(&sc, Telemetry::disabled()), sc.driver());
        let setup = started.elapsed();

        let before = CoreCounts::of(&mut live.rt);
        let timing = one_pass(&sc, &mut live);
        let after = CoreCounts::of(&mut live.rt);
        let chunk_accesses = sc.plan.chunk_accesses(&sc.op_accesses);
        rounds.record(
            round,
            setup,
            &timing,
            &chunk_accesses,
            "KonaRuntime",
            "core.runtime_self_ns_per_acc",
        );
        // Every round is the same seed on a fresh runtime: every count
        // and simulated statistic must repeat.
        let (first_before, first_after) = *first_counts.get_or_insert((before, after));
        if (before, after) != (first_before, first_after) {
            problems.push(format!(
                "round {round} simulated something else than round 0: {after:?}"
            ));
        }
        if round + 1 == PASSES {
            // Outputs: every read so far was compared with the mirror;
            // now push everything out and read the whole footprint back.
            if live.rt.sync().is_err() {
                problems.push("final sync failed".to_string());
            }
            let Live { rt, driver, base } = &mut live;
            driver.read_back(|at, buf| rt.read_bytes(VirtAddr::new(*base + at), buf).is_ok());
        }
        attempted += live.driver.attempted;
        failed += live.driver.failed();
        kept = Some((sc, live));
    }
    let (sc, live) = kept.expect("PASSES > 0");
    let (before, after) = first_counts.expect("PASSES > 0");
    let accesses = sc.accesses_per_pass();

    let mut layers = Layers::default();
    before.delta_into(&after, &mut layers);
    layers.set(
        "driver.chunks",
        rounds.host_times.chunk_ns_per_acc.len() as f64,
    );
    layers.set("driver.accesses_per_pass", accesses as f64);
    layers.set("workloads.events", sc.events as f64);
    let ref_err_pct = reference::write_amp_64b()
        .filter(|_| name == "miss_dirty")
        .map(|paper| {
            let ours = layers.get("core.write_amplification").unwrap_or(0.0);
            (ours - paper).abs() / paper * 100.0
        });
    layers.set(
        "driver.validated",
        f64::from(u8::from(ref_err_pct.is_some())),
    );
    layers.set("driver.ref_err_pct", ref_err_pct.unwrap_or(0.0));

    let mut warnings = Vec::new();
    if let (Some(log), Some((root_first, root_timing))) = (&mut rounds.spans, &rounds.root) {
        layers.set_driver_rows(
            &rounds.host_times,
            &rounds.with_spans,
            &rounds.without_spans,
        );
        layers.set("workloads.gen_ns_per_event", sc.gen_ns / sc.events as f64);
        let slabs = live.rt.slab_copies();
        let base = live.base;
        drop(live);
        let ctx = LedgerCtx {
            sc: &sc,
            slabs: &slabs,
            base,
            root_first: *root_first,
            root_ns: root_timing.total_ns(),
            accesses: accesses as f64,
            counts_after_pass: after,
        };
        let flags = core_ledger(&ctx, None, log, &mut layers, &mut problems);
        what_ifs(&ctx, log, &mut layers, &mut problems);
        book_self_times(
            log,
            ctx.accesses,
            ctx.root_ns,
            ctx.root_ns,
            &mut layers,
            &mut problems,
            &mut warnings,
        );
        if name == "miss_dirty" {
            shard_rows(&sc, scale, &mut layers);
        }
        layers.set("driver.ledger_flags", f64::from(flags));
        layers.set("driver.ledger_warnings", warnings.len() as f64);
    }

    let sim_ns = (after.rt.app_time.as_ns() - before.rt.app_time.as_ns()) as f64;
    RunResult {
        workload: name,
        seed,
        traced,
        quick,
        attempted,
        failed,
        problems,
        warnings,
        host_times: rounds.host_times,
        setup_s: rounds.setup_s,
        peak_rss_mib: 0.0,
        sim_ns_per_acc: sim_ns / accesses as f64,
        ref_err_pct,
        layers,
        spans: rounds.spans,
        load_before,
    }
}

/// What the ledger below `KonaRuntime` is computed against.
pub struct LedgerCtx<'a> {
    pub sc: &'a Scenario,
    pub slabs: &'a SlabMap,
    pub base: u64,
    /// Span id of chunk 0 of the `KonaRuntime` pass the replays hang under.
    pub root_first: u32,
    pub root_ns: f64,
    pub accesses: f64,
    /// The runtime's counters after warm-up + the timed pass: what every
    /// faithful replay must reproduce.
    pub counts_after_pass: CoreCounts,
}

/// Replays the layers below `KonaRuntime`, records their spans under the
/// root pass and books each layer's self time. Returns the number of
/// ledger checks that failed.
pub fn core_ledger(
    ctx: &LedgerCtx,
    above: Option<Above>,
    log: &mut SpanLog,
    layers: &mut Layers,
    problems: &mut Vec<String>,
) -> u32 {
    let sc = ctx.sc;
    let stream = Stream {
        ops: &sc.ops,
        base: ctx.base,
        plan: sc.plan,
        above,
    };
    let sub: SubCore = ledger::replay(&sc.config, ctx.slabs, &stream);

    // The harness's own share: the same loop against a flat memory.
    let mut flat = Live {
        rt: FlatMemory::new(sc.path, sc.footprint),
        driver: sc.driver(),
        base: 0,
    };
    masked_pass(sc, &mut flat, above.map(|a| a.masks[0]));
    let harness = masked_pass(sc, &mut flat, above.map(|a| a.masks[1]));

    let root = Some(ctx.root_first);
    log.record_pass("driver loop", "driver.self_ns_per_acc", &harness, root);
    let fpga = log.record_pass(
        "KonaFpga::cpu_access_from",
        "fpga.self_ns_per_acc",
        &sub.fpga,
        root,
    );
    log.record_pass(
        "CoherenceSystem::read/write",
        "coherence.self_ns_per_acc",
        &sub.coherence,
        Some(fpga),
    );
    let evict = log.record_pass(
        "EvictionHandler::evict_page",
        "core.evict_self_ns_per_acc",
        &sub.evict,
        root,
    );
    log.record_pass(
        "Fabric::post (log flush)",
        "net.self_ns_per_acc",
        &sub.net_writes,
        Some(evict),
    );
    log.record_pass(
        "Fabric::post (page read)",
        "net.self_ns_per_acc",
        &sub.net_reads,
        root,
    );

    let per = |ns: f64, count: u64| if count == 0 { 0.0 } else { ns / count as f64 };
    layers.set(
        "core.evict_ns_per_page",
        per(sub.evict.total_ns(), sub.victims),
    );
    layers.set(
        "net.ns_per_verb",
        per(
            sub.net_reads.total_ns() + sub.net_writes.total_ns(),
            sub.verbs,
        ),
    );
    layers.set("fpga.victims", sub.victims as f64);
    layers.set(
        "fpga.dirty_lines_per_victim",
        per(sub.dirty_lines as f64, sub.victims),
    );

    // A replay stands for its layer only if it did the same work.
    let mut flags = 0;
    let want = &ctx.counts_after_pass;
    for (what, same) in [
        ("fpga", sub.fpga_stats == want.fpga),
        (
            "coherence",
            sub.coherence_stats == want.coherence && sub.fpga_coherence_stats == want.coherence,
        ),
        ("eviction", sub.eviction_stats == want.eviction),
    ] {
        if !same {
            flags += 1;
            problems.push(format!(
                "the {what} replay's counters differ from the runtime's"
            ));
        }
    }
    flags
}

/// Books every ledger row from the span log: a layer's self time is its
/// spans' duration minus their children's, per access.
///
/// That the rows add up to the root pass is arithmetic and checked as a
/// `problem`. That none is negative beyond noise, and that the
/// `KonaRuntime` residual is not most of `KonaRuntime`'s time, depends on
/// how quiet the host was: those are `warnings`, never failures.
pub fn book_self_times(
    log: &SpanLog,
    accesses: f64,
    root_ns: f64,
    core_ns: f64,
    layers: &mut Layers,
    problems: &mut Vec<String>,
    warnings: &mut Vec<String>,
) {
    let mut sum = 0.0;
    for (label, ns) in log.self_ns_by_layer() {
        // Repeat passes and what-if runs carry labels of their own and
        // are no part of the sum.
        let Some(metric) = catalog::per_layer(label) else {
            continue;
        };
        sum += ns;
        layers.set(metric.name, ns / accesses);
        // Self times are differences of separately timed runs: a small
        // negative value is noise, a large one means a replay did more
        // work than the layer it stands for.
        if ns < -0.05 * root_ns {
            warnings.push(format!(
                "{label} is negative: {:.1} ns per access",
                ns / accesses
            ));
        }
        if label == "core.runtime_self_ns_per_acc" && ns > 0.5 * core_ns {
            warnings.push(format!(
                "the KonaRuntime residual is {:.0} % of KonaRuntime's time",
                ns / core_ns * 100.0
            ));
        }
    }
    if (sum - root_ns).abs() > 1e-6 * root_ns {
        problems.push(format!(
            "self times sum to {sum} ns, the root pass took {root_ns} ns"
        ));
    }
}

/// One warm-up + one timed pass of the whole script through `make()`.
fn replay_runtime<R: RemoteMemoryRuntime>(
    sc: &Scenario,
    rt: R,
    driver: Driver,
) -> (PassTiming, Live<R>) {
    let mut live = warm_up(sc, rt, driver);
    let timing = one_pass(sc, &mut live);
    (timing, live)
}

/// Causal tracing costs microseconds per access, so its what-if runs on
/// this fraction of the script (against a baseline on the same slice).
const CAUSAL_SLICE: usize = 32;

/// The rows that are not part of the sum: the same script under another
/// recorder, data mode or runtime, each against the root pass.
fn what_ifs(ctx: &LedgerCtx, log: &mut SpanLog, layers: &mut Layers, problems: &mut Vec<String>) {
    let sc = ctx.sc;
    let baseline_ns = ctx.root_ns;
    let per_acc = |ns: f64| ns / ctx.accesses;
    let mut reproduced = true;
    let mut check = |what: &str, rt: &KonaRuntime, want: &RuntimeStats| {
        // A recorder may lose spans; it may not change the simulation.
        let got = RuntimeStats {
            spans_dropped: 0,
            ..rt.stats()
        };
        if got != *want {
            reproduced = false;
            problems.push(format!(
                "the {what} run changed the simulated statistics: {got:?}"
            ));
        }
    };
    let want = ctx.counts_after_pass.rt;

    let ring = Telemetry::with_tracing(RING_CAPACITY);
    let (ring_t, live) = replay_runtime(sc, kona(sc, ring.clone()), sc.driver());
    check("ring", &live.rt, &want);
    drop(live);
    log.record_pass("KonaRuntime[ring]", "whatif.ring", &ring_t, None);
    layers.set(
        "telemetry.ring_tax_ns_per_acc",
        per_acc(ring_t.total_ns() - baseline_ns),
    );
    book_ring_rows(&ring, ctx.accesses, layers);
    drop(ring);

    let series = Telemetry::with_tracing(RING_CAPACITY);
    series.enable_timeseries(SERIES_WINDOW_NS);
    let (series_t, live) = replay_runtime(sc, kona(sc, series.clone()), sc.driver());
    check("ring+series", &live.rt, &want);
    drop(live);
    log.record_pass("KonaRuntime[ring+series]", "whatif.series", &series_t, None);
    layers.set(
        "telemetry.series_tax_ns_per_acc",
        per_acc(series_t.total_ns() - ring_t.total_ns()),
    );
    layers.set(
        "telemetry.series_windows",
        series.series().map_or(0, |s| s.windows.len()) as f64,
    );
    drop(series);

    let slice = sc.slice(CAUSAL_SLICE);
    let slice_accesses = slice.accesses_per_pass() as f64;
    let (off_t, off) = replay_runtime(&slice, kona(&slice, Telemetry::disabled()), slice.driver());
    let causal = Telemetry::with_causal(RING_CAPACITY, 1 << 12);
    let (causal_t, live) = replay_runtime(&slice, kona(&slice, causal), slice.driver());
    check("causal", &live.rt, &off.rt.stats());
    drop((live, off));
    log.record_pass(
        "KonaRuntime[causal, slice]",
        "whatif.causal",
        &causal_t,
        None,
    );
    layers.set(
        "telemetry.causal_tax_ns_per_acc",
        (causal_t.total_ns() - off_t.total_ns()) / slice_accesses,
    );
    layers.set(
        "telemetry.fingerprint_match",
        f64::from(u8::from(reproduced)),
    );
    layers.set("telemetry.noop_call_ns", noop_call_ns());

    // Data mode: the other mode on the same script. Reads return no bytes
    // in timing mode, so the mirror's verdict is ignored there.
    let mut other = sc.config.clone();
    let tracked = other.data_mode == DataMode::Tracked;
    other.data_mode = if tracked {
        DataMode::Timing
    } else {
        DataMode::Tracked
    };
    let rt = KonaRuntime::new(other).expect("valid configuration");
    let (mode_t, live) = replay_runtime(sc, rt, sc.driver().unchecked());
    drop(live);
    log.record_pass(
        "KonaRuntime[other data mode]",
        "whatif.data_mode",
        &mode_t,
        None,
    );
    let tax = if tracked {
        baseline_ns - mode_t.total_ns()
    } else {
        mode_t.total_ns() - baseline_ns
    };
    layers.set("core.data_mode_tax_ns_per_acc", per_acc(tax));

    // The page-fault baseline on the same script.
    let rt = VmRuntime::new(sc.config.clone(), VmProfile::kona_vm()).expect("valid configuration");
    let (vm_t, live) = replay_runtime(sc, rt, sc.driver().unchecked());
    log.record_pass("VmRuntime", "whatif.vm", &vm_t, None);
    layers.set("core.vm_runtime_ns_per_acc", per_acc(vm_t.total_ns()));
    let kona_app = want.app_time.as_ns().max(1) as f64;
    layers.set(
        "core.sim_speedup_vs_vm",
        live.rt.stats().app_time.as_ns() as f64 / kona_app,
    );
}

/// What a ring recorder holds after a warm-up + one timed pass: how many
/// spans the run emitted and lost, and what folding them costs.
pub fn book_ring_rows(ring: &Telemetry, accesses: f64, layers: &mut Layers) {
    let events = ring.events();
    let emitted = events.len() as u64 + ring.dropped_events();
    layers.set("telemetry.spans_per_acc", emitted as f64 / (2.0 * accesses));
    layers.set("telemetry.spans_dropped", ring.dropped_events() as f64);
    let started = Instant::now();
    std::hint::black_box(Profile::from_spans(&events));
    layers.set(
        "telemetry.profile_fold_ns_per_span",
        started.elapsed().as_nanos() as f64 / events.len().max(1) as f64,
    );
}

/// `span_leaf` + `observe_time` on a disabled handle: what every access
/// pays for telemetry that records nothing.
pub fn noop_call_ns() -> f64 {
    const CALLS: u64 = 2_000_000;
    let tel = Telemetry::disabled();
    let started = Instant::now();
    for i in 0..CALLS {
        let t = Nanos::from_ns(std::hint::black_box(i));
        tel.span_leaf(Track::App, EventKind::LocalHit, t);
        tel.observe_time(t);
    }
    started.elapsed().as_nanos() as f64 / CALLS as f64
}

/// The honest scaling rows: one fixed logical plan, only the worker
/// count varies.
fn shard_rows(sc: &Scenario, scale: Scale, layers: &mut Layers) {
    let mut config = ClusterConfig::small().with_replicas(2);
    config.memory_nodes = 3;
    config.local_cache_pages = 128;
    config.cpu_cache_lines = 1024;
    let ops = scale.apply(SHARD_OPS, 256);
    let script = kona::seeded_script(SHARD_PAGES, ops, splitmix64(sc.seed));
    let run = ShardedRun::new(config, SHARD_PAGES).with_plan(ShardPlan::new(8));
    let wall = |workers: usize| {
        let started = Instant::now();
        let report = run
            .execute(&script, Shards::new(workers))
            .expect("calm fabric");
        std::hint::black_box(report.total_ops());
        started.elapsed().as_nanos() as f64
    };
    wall(1); // warm the allocator
    let (one, many) = (wall(1), wall(host::scaling_workers()));
    layers.set("core.shard_ns_per_op_w1", one / ops as f64);
    layers.set("core.shard_speedup_w2", one / many);
}
