//! Cross-crate integration tests for the deterministic profiling layer:
//! byte-identity of folded profiles across replays,
//! exact conservation of simulated time (per-path self sums equal
//! per-track totals), a fabric slowdown landing on the `;verb` leaves,
//! and the queueing/occupancy fold (`QueueStats`).

use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime};
use kona_bench::profile_scenario;
use kona_cluster::MemoryNodeRuntime;
use kona_net::FaultPlan;
use kona_telemetry::{Profile, QueueStats, Telemetry};
use kona_types::Nanos;

/// Span-ring capacity for the scenario runs — large enough that the
/// quick scenario never drops (drops are tolerated by the fold, but a
/// drop-free run makes conservation checks maximally strict).
const CAPACITY: usize = 1 << 16;

const SEED: u64 = 42;

fn scenario() -> (String, String, String) {
    let report = profile_scenario(SEED, true, CAPACITY);
    let profile = report.profile.as_ref().expect("tracing enabled");
    let series = report.series.as_ref().expect("windows enabled");
    let queues = QueueStats::from_series(series);
    let mut queue_text = String::new();
    for (id, link) in &queues.links {
        queue_text.push_str(&format!(
            "link{id} wrs={} inflight={} chain={}\n",
            link.wrs, link.inflight_ns, link.peak_chain_depth
        ));
    }
    (profile.to_json(), profile.to_collapsed(), queue_text)
}

/// Replay: the same configuration reproduces the same bytes (the worker
/// count half lives in `tests/shard_determinism.rs`).
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
        let report = profile_scenario(seed, true, CAPACITY);
        let profile = report.profile.as_ref().expect("tracing enabled");
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
    // Links: the shard scenario's fabric traffic must surface per-link
    // WR counts and in-flight time.
    let report = profile_scenario(SEED, true, CAPACITY);
    let series = report.series.as_ref().expect("windows enabled");
    let queues = QueueStats::from_series(series);
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
