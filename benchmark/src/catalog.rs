//! The benchmark's fixed vocabulary: workloads, metrics, units, bounds.
//!
//! Everything that prints, writes or compares a metric looks it up here,
//! so `list`, the result files, `compare`, `BENCHMARK.json` and the
//! README glossary cannot drift apart (tests below check the last two).

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How two runs of one metric may be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock (or host memory): noisy, compared with the
    /// median/inter-quartile rule.
    Host,
    /// Deterministic for a seed: a count, a simulated time or a ratio of
    /// those. Two runs of one commit must agree exactly.
    Exact,
    /// A host-time ratio or a host property reported for context only
    /// (never compared).
    Info,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// What is timed or read to produce it.
    pub source: &'static str,
}

/// An end-to-end metric: a [`Metric`] plus its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub metric: Metric,
    /// Share of the parent's median by which the metric may get worse.
    /// For [`Kind::Exact`] metrics `compare` ignores it and demands
    /// equality; the figure is what `BENCHMARK.json` tells the driver,
    /// whose runs use a different seed each and so can never be exact.
    pub bound: f64,
    /// Whether the driver's `BENCHMARK.json` lists it. `ref_err_pct` and
    /// `failed_frac` cannot be: the contract wants metrics that are
    /// defined on every workload and never 0.
    pub in_contract: bool,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Host,
        source,
    }
}
const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Exact,
        source,
    }
}
const fn info(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Info,
        source,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        metric: host("acc_per_s", "1/s", Higher, "median over the timed passes of accesses / pass seconds"),
        bound: 0.10,
        in_contract: true,
    },
    EndToEnd {
        metric: host("ns_per_acc_p50", "ns", Lower, "median over all chunks of chunk ns / chunk accesses"),
        bound: 0.10,
        in_contract: true,
    },
    EndToEnd {
        metric: host("setup_s", "s", Lower, "median of the 7 set-ups: generate inputs + construct + allocate + warm-up pass"),
        bound: 0.15,
        in_contract: true,
    },
    EndToEnd {
        metric: host("peak_rss_mib", "MiB", Lower, "VmHWM of the workload's process at exit"),
        bound: 0.10,
        in_contract: true,
    },
    EndToEnd {
        metric: exact("sim_ns_per_acc", "sim_ns", Lower, "delta RuntimeStats::app_time over a timed pass / accesses (paper_tools: mean Kona AMAT)"),
        bound: 0.05,
        in_contract: true,
    },
    EndToEnd {
        metric: exact("ref_err_pct", "%", Lower, "error against the paper's numbers in reference.json; absent where the model is unvalidated"),
        bound: 0.0,
        in_contract: false,
    },
    EndToEnd {
        metric: exact("failed_frac", "fraction", Lower, "(Err results + mirror mismatches + unexpected throttles) / ops attempted"),
        bound: 0.0,
        in_contract: false,
    },
];

pub const PER_LAYER: [Metric; 85] = [
    // driver: the harness itself.
    host("driver.ns_per_acc_p99", "ns", Lower, "nearest-rank p99 over the chunks of the timed passes"),
    exact("driver.chunks", "count", Higher, "timing samples behind p50/p99 (chunks x passes)"),
    info("driver.pass_spread_pct", "%", Lower, "inter-quartile distance / median of the passes' acc_per_s; above 10 % the run is marked noisy"),
    info("driver.trace_overhead_pct", "%", Lower, "rounds that record spans vs rounds that do not, same process"),
    info("driver.nproc", "count", Higher, "std::thread::available_parallelism"),
    host("driver.self_ns_per_acc", "ns", Lower, "the pass loop against a flat Vec<u8> (fill, mirror compare, no runtime)"),
    exact("driver.ref_err_pct", "%", Lower, "ref_err_pct; 0 with driver.validated = 0 means no reference, not no error"),
    exact("driver.validated", "count", Higher, "1 when reference.json holds a paper value for this workload"),
    exact("driver.ledger_flags", "count", Lower, "replays whose counters differ from the runtime's (their rows cannot be trusted)"),
    info("driver.ledger_warnings", "count", Lower, "self times below -5 % of the pass, or a KonaRuntime residual above half of KonaRuntime's time"),
    exact("driver.accesses_per_pass", "count", Higher, "64-byte lines the ops of one pass span, computed from the ops"),
    // workloads / trace: input generation and offline analyses.
    host("workloads.gen_ns_per_event", "ns", Lower, "Workload::generate (set-up)"),
    exact("workloads.events", "count", Higher, "trace events generated"),
    host("trace.analyze_ns_per_event", "ns", Lower, "per_window_series + SpatialAnalysis + ContiguityAnalysis over the Table 2 traces"),
    exact("trace.amp4k_median", "ratio", Lower, "median 4 KiB amplification of the nine Table 2 traces"),
    // cache-sim / kcachesim / ktracker / vm-sim: the paper's tools.
    host("cache-sim.ns_per_line", "ns", Lower, "CacheHierarchy::access_range replay of the sweep traces"),
    exact("cache-sim.dram_cache_hit_ratio", "ratio", Higher, "DRAM-cache level share of line accesses, Redis-Rand at 50 %"),
    host("kcachesim.ns_per_event", "ns", Lower, "sweep_cache_size, per trace event per point"),
    exact("kcachesim.sweep_points", "count", Higher, "sweep points simulated per pass"),
    info("kcachesim.sweep_speedup_jobs_n", "ratio", Higher, "sweep_cache_size_jobs at 1 vs min(nproc,2) workers"),
    host("ktracker.coherence_ns_per_event", "ns", Lower, "KTracker::run(Coherence)"),
    host("ktracker.wp_ns_per_event", "ns", Lower, "KTracker::run(WriteProtect)"),
    exact("ktracker.emulation_bytes", "B", Lower, "TrackerReport::emulation_bytes summed over the runs of one pass"),
    host("vm-sim.ns_per_translate", "ns", Lower, "Mmu::translate / map / make_writable / protect driven with the KTracker page stream"),
    exact("vm-sim.faults", "count", Lower, "page faults that stream raises"),
    // coherence.
    host("coherence.self_ns_per_acc", "ns", Lower, "CoherenceSystem::read/write/invalidate_all replay of the line stream"),
    exact("coherence.directory_transactions", "count", Lower, "CoherenceStats::directory_transactions"),
    exact("coherence.invalidations", "count", Lower, "CoherenceStats::invalidations"),
    exact("coherence.writebacks", "count", Lower, "CoherenceStats::writebacks"),
    // fpga.
    host("fpga.self_ns_per_acc", "ns", Lower, "KonaFpga::cpu_access_from replay minus the coherence replay"),
    exact("fpga.cpu_hits", "count", Higher, "FpgaStats::cpu_hits"),
    exact("fpga.fmem_hits", "count", Higher, "FpgaStats::fmem_hits"),
    exact("fpga.remote_fetches", "count", Lower, "FpgaStats::remote_fetches"),
    exact("fpga.victims", "count", Lower, "VictimPage values returned in RemoteFetch outcomes"),
    exact("fpga.dirty_lines_per_victim", "ratio", Lower, "dirty lines / victims"),
    exact("fpga.prefetched_pages", "count", Higher, "FpgaStats::prefetched_pages"),
    exact("fpga.prefetch_useful_ratio", "ratio", Higher, "fmem.prefetch_useful / fmem.prefetch_issued"),
    // net.
    host("net.self_ns_per_acc", "ns", Lower, "Poller::post_and_poll replay of the verb stream"),
    host("net.ns_per_verb", "ns", Lower, "that replay, per verb"),
    exact("net.requests", "count", Lower, "NetStats::requests"),
    exact("net.posts", "count", Lower, "NetStats::posts"),
    exact("net.wire_bytes", "B", Lower, "NetStats::wire_bytes"),
    exact("net.faulted_posts", "count", Lower, "NetStats::faulted_posts"),
    // core.
    host("core.evict_self_ns_per_acc", "ns", Lower, "EvictionHandler replay minus the log-flush writes of the net replay"),
    host("core.evict_ns_per_page", "ns", Lower, "EvictionHandler::evict_page/flush_all replay, per victim"),
    host("core.runtime_self_ns_per_acc", "ns", Lower, "KonaRuntime time - driver loop - fpga - evict - page-read replays (signed residual)"),
    host("core.data_mode_tax_ns_per_acc", "ns", Lower, "DataMode::Tracked - timing_only() on the same script"),
    host("core.vm_runtime_ns_per_acc", "ns", Lower, "same script through VmRuntime / VmProfile::kona_vm()"),
    exact("core.sim_speedup_vs_vm", "ratio", Higher, "simulated VmRuntime app time / KonaRuntime app time"),
    exact("core.local_hit_ratio", "ratio", Higher, "RuntimeStats::local_hit_ratio"),
    exact("core.remote_fetches", "count", Lower, "RuntimeStats::remote_fetches"),
    exact("core.pages_evicted", "count", Lower, "RuntimeStats::pages_evicted"),
    exact("core.silent_evictions", "count", Higher, "EvictionStats::silent_evictions"),
    exact("core.flushes", "count", Lower, "EvictionStats::flushes"),
    exact("core.writeback_bytes", "B", Lower, "RuntimeStats::writeback_bytes"),
    exact("core.write_amplification", "ratio", Lower, "RuntimeStats::write_amplification"),
    exact("core.retries", "count", Lower, "RuntimeStats::retries"),
    host("core.shard_ns_per_op_w1", "ns", Lower, "ShardedRun::execute, ShardPlan::new(8), Shards::new(1)"),
    info("core.shard_speedup_w2", "ratio", Higher, "same plan, Shards::new(min(nproc,2)) vs 1"),
    // cluster.
    host("cluster.self_ns_per_acc", "ns", Lower, "ClusterRuntime - KonaRuntime on the ops ServeRuntime admitted"),
    host("cluster.tick_ns", "ns", Lower, "ClusterRuntime::tick called by the harness on the op-count cadence"),
    host("cluster.node_apply_ns_per_batch", "ns", Lower, "MemoryNodeRuntime::ingest_slice + apply replay of drained shipments"),
    exact("cluster.ticks", "count", Lower, "ClusterRuntime::ticks"),
    exact("cluster.entries_applied", "count", Lower, "ClusterStats::entries_applied"),
    exact("cluster.entries_deduped", "count", Higher, "ClusterStats::entries_deduped"),
    exact("cluster.pages_folded", "count", Higher, "ClusterStats::pages_folded"),
    exact("cluster.compaction_ratio", "ratio", Lower, "ClusterStats::compaction_ratio"),
    exact("cluster.scrub_checked", "count", Lower, "ClusterStats::scrub_checked"),
    exact("cluster.lease_renewals", "count", Lower, "ClusterStats::lease_renewals"),
    // serve.
    host("serve.self_ns_per_acc", "ns", Lower, "ServeRuntime - ClusterRuntime, telemetry disabled"),
    host("serve.token_bucket_ns_per_admit", "ns", Lower, "TokenBucket::admit timed directly"),
    exact("serve.admitted", "count", Higher, "ServeReport::admitted"),
    exact("serve.throttled_ops", "count", Lower, "ServeReport::throttled"),
    exact("serve.slo_breaches", "count", Lower, "ServeReport::slo_breaches"),
    exact("serve.prefetch_shed", "count", Lower, "ServeReport::prefetch_shed"),
    exact("serve.victim_p99_sim_ns", "sim_ns", Lower, "tenant 1's p99 from ServeRuntime::tenant_latency"),
    // telemetry.
    host("telemetry.ring_tax_ns_per_acc", "ns", Lower, "same script with Telemetry::with_tracing - Telemetry::disabled"),
    host("telemetry.series_tax_ns_per_acc", "ns", Lower, "ring + enable_timeseries - ring"),
    host("telemetry.causal_tax_ns_per_acc", "ns", Lower, "Telemetry::with_causal - Telemetry::disabled (KonaRuntime workloads: on 1/32 of the script)"),
    host("telemetry.noop_call_ns", "ns", Lower, "span_leaf + observe_time on a disabled handle"),
    host("telemetry.profile_fold_ns_per_span", "ns", Lower, "Profile::from_spans on the recorded events"),
    exact("telemetry.spans_per_acc", "ratio", Lower, "spans the ring run emitted / accesses"),
    exact("telemetry.spans_dropped", "count", Lower, "Telemetry::dropped_events of the ring run"),
    exact("telemetry.series_windows", "count", Lower, "windows the ring+series run closed"),
    exact("telemetry.fingerprint_match", "count", Higher, "1 when every recorder mode reproduced the runtime's statistics exactly"),
];

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "hot_hits",
        why: "every access hits the CPU cache or FMem: coherence, fpga and the core per-access wrapper do all the work",
    },
    WorkloadInfo {
        name: "miss_dirty",
        why: "a third of the events fetch a page and evict a dirty victim: eviction log, fabric and byte copies dominate",
    },
    WorkloadInfo {
        name: "scan_clean",
        why: "streaming reads with prefetch and silent evictions: the miss path used the other way from miss_dirty",
    },
    WorkloadInfo {
        name: "serve_stack",
        why: "four tenants through serve, cluster and ring+series telemetry: the only workload the wrappers dominate",
    },
    WorkloadInfo {
        name: "paper_tools",
        why: "the offline pipeline: trace analyses, KTracker and KCacheSim sweeps; no runtime layer is called",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_limits_hold() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().map(|e| &e.metric).chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad metric name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name));
            assert!(seen.insert(w.name), "{} reused", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for e in &END_TO_END {
            assert!(e.bound <= 0.25);
        }
    }

    #[test]
    fn benchmark_json_is_this_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = doc
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .unwrap();
        assert_eq!(seconds, crate::pass::NOMINAL_SECONDS as f64);

        let listed =
            |key: &str| -> Vec<json::Value> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let text =
            |v: &json::Value, k: &str| v.get(k).and_then(json::Value::as_str).unwrap().to_string();

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (doc_w, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(doc_w, "name"), w.name);
            assert_eq!(text(doc_w, "why"), w.why);
        }

        let contract: Vec<&EndToEnd> = END_TO_END.iter().filter(|e| e.in_contract).collect();
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), contract.len());
        for (doc_m, e) in e2e.iter().zip(&contract) {
            assert_eq!(text(doc_m, "name"), e.metric.name);
            assert_eq!(text(doc_m, "unit"), e.metric.unit);
            assert_eq!(text(doc_m, "better"), e.metric.better.as_str());
            assert_eq!(
                doc_m.get("bound").and_then(json::Value::as_f64),
                Some(e.bound)
            );
        }
        assert!(contract.iter().any(|e| e.metric.name == "setup_s"));

        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (doc_m, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(doc_m, "name"), m.name);
            assert_eq!(text(doc_m, "unit"), m.unit);
            assert_eq!(text(doc_m, "better"), m.better.as_str());
        }
    }

    #[test]
    fn readme_glossary_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for m in END_TO_END.iter().map(|e| &e.metric).chain(PER_LAYER.iter()) {
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "README lacks {}",
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(
                readme.contains(&format!("`{}`", w.name)),
                "README lacks {}",
                w.name
            );
        }
    }
}
