//! Cross-crate integration tests for the deterministic profiling layer:
//! the per-trace fold against the ring fold, byte-identity across
//! replays, exact conservation of simulated time (per-path self sums equal
//! per-track totals), a fabric slowdown landing on the `;verb` leaves,
//! and the queueing/occupancy fold (`QueueStats`).

use kona::{ClusterConfig, FailurePolicy, KonaRuntime, RemoteMemoryRuntime};
use kona_bench::{cluster_segment, workload_by_name};
use kona_cluster::MemoryNodeRuntime;
use kona_net::FaultPlan;
use kona_telemetry::{OpKind, Profile, QueueStats, Telemetry};
use kona_types::{align_up, ByteSize, Nanos, PAGE_SIZE_4K};
use kona_workloads::WorkloadProfile;

/// Span-ring capacity for the scenario runs — large enough that the
/// quick scenario never drops (drops are tolerated by the fold, but a
/// drop-free run makes conservation checks maximally strict).
const CAPACITY: usize = 1 << 16;

const SEED: u64 = 42;

/// The engine folds each completed trace into its profile; with every
/// span inside a trace and a drop-free ring, that must equal folding the
/// ring whole — under every bundled fault plan, so retry, backoff and
/// recovery traces are folded too (one replica, so an unreachable node
/// escalates to recovery).
#[test]
fn engine_profile_equals_the_ring_fold_under_every_fault_plan() {
    let (mut saw_backoff, mut saw_recovery) = (false, false);
    for (name, ops) in [("redis-rand", 300), ("redis-seq", 150), ("voltdb", 100)] {
        let shape = WorkloadProfile::default()
            .with_windows(1)
            .with_ops_per_window(ops);
        let trace = workload_by_name(name, shape)
            .expect("known workload")
            .generate(SEED);
        let span = align_up(trace.address_span() + PAGE_SIZE_4K, PAGE_SIZE_4K);
        let replay = |plan: &FaultPlan, tel: &Telemetry| {
            let mut cfg = ClusterConfig::small().timing_only();
            cfg.memory_nodes = 3;
            cfg.node_capacity = ByteSize((span * 2).max(1 << 22));
            cfg.local_cache_pages = 8;
            cfg.fault_plan = Some(plan.clone());
            let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("config valid");
            rt.set_failure_policy(FailurePolicy::PageFaultFallback);
            rt.allocate(span).expect("allocation fits");
            for ev in trace.as_slice() {
                // Faulted accesses still close their traces; the profile,
                // not the data, is under test.
                let _ = rt.run_trace(std::slice::from_ref(ev));
            }
            let _ = rt.sync();
        };
        for plan in FaultPlan::bundled(SEED, 0) {
            let causal = Telemetry::with_causal(CAPACITY, 0);
            let tracing = Telemetry::with_tracing(CAPACITY);
            replay(&plan, &causal);
            replay(&plan, &tracing);
            let engine = causal.attribution().expect("engine");
            saw_recovery |= engine.ops().contains_key(&OpKind::Recovery);
            let folded = engine.profile();
            saw_backoff |= folded.entries().keys().any(|p| p.ends_with(";backoff"));
            assert_eq!(folded.conservation_violations(), 0, "{name}/{}", plan.name);
            // Causal and tracing-only streams fold to the same profile.
            for ring in [&causal, &tracing] {
                assert_eq!(ring.dropped_events(), 0, "{name}/{}", plan.name);
                let whole = Profile::from_spans(&ring.events());
                assert_eq!(folded, whole, "{name}/{}", plan.name);
            }
        }
    }
    assert!(saw_backoff && saw_recovery, "no retry or recovery");
}

fn scenario() -> (String, String, String) {
    let (profile, queues, dropped) = cluster_segment(SEED, true, CAPACITY);
    assert_eq!(dropped, 0);
    let mut queue_text = String::new();
    for (id, link) in &queues.links {
        queue_text.push_str(&format!(
            "link{id} wrs={} inflight={} chain={}\n",
            link.wrs, link.inflight_ns, link.peak_chain_depth
        ));
    }
    (profile.to_json(), profile.to_collapsed(), queue_text)
}

/// Replay: the same configuration reproduces the same bytes.
#[test]
fn profiles_are_byte_identical_across_replay() {
    assert_eq!(scenario(), scenario(), "replay diverged");
}

#[test]
fn self_times_sum_exactly_to_track_totals() {
    // Property over seeds: conservation is exact, not approximate —
    // same-charge children are sequential on the charge clock, so
    // parent duration covers them and self = duration − Σ(children).
    for seed in [7u64, 42, 1234] {
        let (profile, _, dropped) = cluster_segment(seed, true, CAPACITY);
        assert_eq!(dropped, 0);
        assert_eq!(
            profile.conservation_violations(),
            0,
            "seed {seed}: per-path self times must sum to per-track totals"
        );
        for (track, &total) in profile.track_totals() {
            assert_eq!(
                profile.self_total(track),
                total,
                "seed {seed}: track {track} self-sum != root total"
            );
        }
    }
}

/// Self nanoseconds folded onto the `;verb` leaves, and onto every other
/// path, by a small traced runtime whose fabric follows `plan`.
fn verb_and_other_self_ns(plan: FaultPlan) -> (u64, u64) {
    const PAGES: u64 = 32;
    let mut cfg = ClusterConfig::small().with_local_cache_pages(8);
    cfg.fault_plan = Some(plan);
    let tel = Telemetry::with_tracing(CAPACITY);
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("valid config");
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    for i in 0..400u64 {
        let addr = base + (i * 7 % PAGES) * 4096 + (i % 64) * 64;
        rt.write_bytes(addr, &[i as u8; 64]).expect("write");
    }
    rt.sync().expect("sync");
    assert_eq!(tel.dropped_events(), 0);
    let profile = Profile::from_spans(&tel.events());
    let (mut verb, mut other) = (0, 0);
    for (path, stats) in profile.entries() {
        if path.ends_with(";verb") {
            verb += stats.self_ns;
        } else {
            other += stats.self_ns;
        }
    }
    (verb, other)
}

#[test]
fn diff_blames_the_congested_wire_path() {
    // A whole-run fabric congestion window is the deliberate slowdown:
    // wire time grows, so the folded profile must show it on the `;verb`
    // leaves, not smeared over their parents.
    let congested =
        FaultPlan::calm(SEED).with_spike(Nanos::ZERO, Nanos::secs(3_600), Nanos::from_ns(3_000));
    let (base_verb, base_other) = verb_and_other_self_ns(FaultPlan::calm(SEED));
    let (slow_verb, slow_other) = verb_and_other_self_ns(congested);
    assert!(base_verb > 0, "the run must post verbs");
    assert!(
        slow_verb > base_verb,
        "spike must grow verb self time ({base_verb} -> {slow_verb})"
    );
    assert!(
        slow_verb - base_verb > 10 * (slow_other - base_other),
        "the verb leaves must take the added wire time, others grew {base_other} -> {slow_other}"
    );
}

#[test]
fn queue_stats_fold_links_from_the_scenario_and_nodes_from_a_runtime() {
    // Links: the cluster segment's fabric traffic must surface per-link
    // WR counts and in-flight time.
    let (_, queues, _) = cluster_segment(SEED, true, CAPACITY);
    assert!(!queues.links.is_empty(), "fabric traffic must appear per link");
    let total_wrs: u64 = queues.links.values().map(|l| l.wrs).sum();
    assert!(total_wrs > 0);
    assert!(queues.links.values().any(|l| l.inflight_ns > 0));

    // Nodes: a memory-node runtime ingesting batches must surface its
    // backlog peak even when apply drains it before the window closes
    // (the ingest-time histograms carry the peak).
    let tel = Telemetry::disabled();
    tel.enable_timeseries(1_000);
    let mut node = MemoryNodeRuntime::with_telemetry(3, Default::default(), tel.clone());
    let mut log = kona::CacheLineLog::new(1 << 16);
    for i in 0..4u64 {
        log.append(kona::LogEntry {
            remote: kona_types::RemoteAddr::new(3, i * 64),
            data: vec![i as u8; 64],
        });
        node.ingest(Nanos::from_ns(100 + i), log.drain_encoded());
    }
    node.apply();
    tel.observe_time(Nanos::from_ns(1_000_000));
    let q = QueueStats::from_series(&tel.series().expect("series enabled"));
    let nq = q.nodes.get(&3).expect("node 3 must have a row");
    assert_eq!(nq.peak_backlog_batches, 4, "peak depth reached before apply");
    assert!(nq.peak_backlog_bytes > 0);
}
