//! Shard-engine determinism: the worker count passed to
//! [`ShardedRun::execute`] must be pure execution width. The logical
//! decomposition ([`ShardPlan`]) fixes the model, so any worker count,
//! any `par_map` job count, and any replay of the same inputs must
//! produce byte-identical merged output — fingerprints, time-series
//! JSON, span streams, folded profiles and metrics dumps — including
//! under every bundled fault plan.

use kona::{seeded_script, ClusterConfig, FailurePolicy, ShardOp, ShardedRun};
use kona_net::FaultPlan;
use kona_telemetry::DEFAULT_WINDOW_NS;
use kona_types::rng::{Rng, StdRng};
use kona_types::{par_map, sequence_streams, Jobs, Nanos, ShardPlan};

const PAGES: u64 = 64;
const OPS: usize = 800;
const SEED: u64 = 0x5EED;
const VICTIM: u32 = 0;

/// The chaos-test cluster shape: triple-node, 2-way replicated, with a
/// local cache small enough that per-shard slices still evict.
fn config(plan: Option<FaultPlan>) -> ClusterConfig {
    let mut cfg = ClusterConfig::small().with_replicas(2);
    cfg.memory_nodes = 3;
    cfg.local_cache_pages = 64;
    cfg.cpu_cache_lines = 512;
    cfg.fault_plan = plan;
    cfg
}

fn run(plan: Option<FaultPlan>) -> ShardedRun {
    ShardedRun::new(config(plan), PAGES)
        .with_plan(ShardPlan::new(8))
        .with_windows(DEFAULT_WINDOW_NS)
        .with_failure_policy(FailurePolicy::PageFaultFallback)
}

/// Worker count and replay never change the merged history, under every
/// bundled fault plan.
#[test]
fn fingerprints_identical_across_worker_counts_and_replay() {
    let script = seeded_script(PAGES, OPS, SEED);
    for plan in FaultPlan::bundled(SEED, VICTIM) {
        let name = plan.name;
        let sharded = run(Some(plan));
        let base = sharded
            .execute(&script, Jobs::serial())
            .unwrap_or_else(|e| panic!("serial run under {name}: {e:?}"))
            .fingerprint();
        for workers in [2usize, 8] {
            let wide = sharded
                .execute(&script, Jobs::new(workers))
                .unwrap_or_else(|e| panic!("{workers}-worker run under {name}: {e:?}"))
                .fingerprint();
            assert_eq!(base, wide, "worker count changed history under {name}");
        }
        let replay = sharded
            .execute(&script, Jobs::serial())
            .expect("replay")
            .fingerprint();
        assert_eq!(base, replay, "replay diverged under {name}");
    }
}

/// Sweeping plans through `par_map` at different job counts preserves
/// input order: each plan's report is identical to its serial run.
#[test]
fn plan_sweep_is_job_count_invariant() {
    let script = seeded_script(PAGES, OPS, SEED);
    let serial: Vec<String> = FaultPlan::bundled(SEED, VICTIM)
        .into_iter()
        .map(|plan| {
            run(Some(plan))
                .execute(&script, Jobs::serial())
                .expect("serial sweep")
                .fingerprint()
        })
        .collect();
    let parallel: Vec<String> = par_map(
        Jobs::new(4),
        FaultPlan::bundled(SEED, VICTIM),
        |_, plan| {
            run(Some(plan))
                .execute(&script, Jobs::new(2))
                .expect("parallel sweep")
                .fingerprint()
        },
    );
    assert_eq!(serial, parallel, "par_map reordered or perturbed results");
}

/// The windowed series, span stream, folded profile and metrics dump
/// merge identically at any worker count (the observability outputs,
/// not just counters).
#[test]
fn series_spans_and_dump_merge_deterministically() {
    let script = seeded_script(PAGES, OPS, SEED);
    let sharded = ShardedRun::new(config(None), PAGES)
        .with_plan(ShardPlan::new(8))
        .with_windows(DEFAULT_WINDOW_NS)
        .with_tracing(4096);
    let serial = sharded.execute(&script, Jobs::serial()).expect("serial");
    let profile = serial.profile.as_ref().expect("profile");
    assert!(!serial.events.is_empty(), "tracing produced no spans to compare");
    assert!(!profile.is_empty(), "tracing folded no profile to compare");
    assert!(serial.shard_ops.iter().all(|&o| o > 0), "idle shard");
    assert_eq!(serial.shard_ops.iter().sum::<u64>(), serial.total_ops());
    for workers in [2usize, 8] {
        let wide = sharded.execute(&script, Jobs::new(workers)).expect("wide");
        assert_eq!(
            serial.series.as_ref().expect("series").to_json(),
            wide.series.as_ref().expect("series").to_json(),
            "series JSON diverged at {workers} workers"
        );
        let wide_profile = wide.profile.as_ref().expect("profile");
        assert_eq!(
            profile.to_json(),
            wide_profile.to_json(),
            "profile JSON diverged at {workers} workers"
        );
        assert_eq!(
            profile.to_collapsed(),
            wide_profile.to_collapsed(),
            "collapsed stacks diverged at {workers} workers"
        );
        assert_eq!(serial.events, wide.events, "span streams diverged");
        assert_eq!(
            format!("{:?}", serial.dump),
            format!("{:?}", wide.dump),
            "metrics dump diverged at {workers} workers"
        );
    }
}

/// A `Sync` broadcast reaches every shard; per-shard op totals account
/// for the whole script exactly.
#[test]
fn sync_broadcast_and_op_accounting() {
    let script = seeded_script(PAGES, OPS, SEED);
    let syncs = script.iter().filter(|op| matches!(op, ShardOp::Sync)).count() as u64;
    let report = run(None)
        .execute(&script, Jobs::new(2))
        .expect("run completes");
    let expected = (script.len() as u64 - syncs) + syncs * 8;
    assert_eq!(report.total_ops(), expected, "op accounting leaked");
    assert_eq!(report.shard_ops.len(), 8);
    assert!(report.shard_ops.iter().all(|&o| o > 0), "idle shard");
}

/// Property: `sequence_streams` is a total order — output is sorted by
/// (time, shard), within-shard order is preserved, and nothing is lost —
/// for arbitrary seeded stream shapes.
#[test]
fn prop_sequence_streams_merge_is_total_order() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for case in 0..64 {
        let streams: Vec<Vec<(Nanos, u64)>> = (0..rng.gen_range(1..6))
            .map(|shard| {
                let len = rng.gen_range(0..20);
                let mut t = 0u64;
                (0..len)
                    .map(|i| {
                        // Non-decreasing within a stream, with frequent
                        // exact ties across streams.
                        t += rng.gen_range(0..3);
                        (Nanos::from_ns(t), shard << 32 | i)
                    })
                    .collect()
            })
            .collect();
        let total: usize = streams.iter().map(Vec::len).sum();
        let merged = sequence_streams(streams.clone());
        assert_eq!(merged.len(), total, "case {case}: items lost or invented");
        for pair in merged.windows(2) {
            let (ta, sa, _) = pair[0];
            let (tb, sb, _) = pair[1];
            assert!(
                (ta, sa) <= (tb, sb),
                "case {case}: merge not ordered by (time, shard)"
            );
        }
        for (shard, stream) in streams.iter().enumerate() {
            let replayed: Vec<u64> = merged
                .iter()
                .filter(|(_, s, _)| *s == shard as u32)
                .map(|(_, _, v)| *v)
                .collect();
            let original: Vec<u64> = stream.iter().map(|(_, v)| *v).collect();
            assert_eq!(
                replayed, original,
                "case {case}: within-shard order perturbed"
            );
        }
    }
}
