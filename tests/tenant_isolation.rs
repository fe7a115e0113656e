//! Integration tests for the `kona-serve` multi-tenant front end:
//! cross-tenant isolation, exact quota enforcement, noisy-neighbor QoS,
//! balloon round-trips, and byte-level replay determinism across
//! worker counts.

use kona::ClusterConfig;
use kona_cluster::ControlPlaneConfig;
use kona_serve::{Admission, ServeConfig, ServeRuntime, TenantConfig};
use kona_telemetry::Telemetry;
use kona_types::rng::{Rng, StdRng};
use kona_types::{derive_shard_seed, par_map, Jobs, KonaError, Nanos, VirtAddr};

/// The pressured fixed-capacity cluster the fig uses: FMem squeezed to
/// 256 pages, small CPU cache.
fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::small().with_local_cache_pages(256);
    cfg.cpu_cache_lines = 512;
    cfg
}

fn serve_with(qos: bool) -> ServeRuntime {
    ServeRuntime::with_telemetry(
        cluster_config(),
        ControlPlaneConfig::default(),
        ServeConfig {
            qos,
            ..ServeConfig::default()
        },
        Telemetry::disabled(),
    )
    .expect("valid config")
}

#[test]
fn cross_tenant_access_fails_typed() {
    let mut s = serve_with(true);
    let slab = s.slab_bytes();
    for id in [1u32, 2] {
        s.register_tenant(TenantConfig::new(id).with_quota_bytes(2 * slab))
            .unwrap();
    }
    let a = s.grow_tenant(1, slab).unwrap();
    let b = s.grow_tenant(2, slab).unwrap();
    s.write(1, a, &[0xAA; 64]).unwrap();
    s.write(2, b, &[0xBB; 64]).unwrap();

    // Tenant 2's namespace starts at the same tenant-local base as
    // tenant 1's — the *translation* keeps them apart. An address past
    // a tenant's own mappings must fault typed, never read through.
    let probe = VirtAddr::new(a.raw() + slab);
    let mut buf = [0u8; 8];
    match s.read(1, probe, &mut buf) {
        Err(KonaError::TenantFault { tenant, addr, len }) => {
            assert_eq!(tenant, 1);
            assert_eq!(addr, probe);
            assert_eq!(len, 8);
        }
        other => panic!("expected TenantFault, got {other:?}"),
    }
    match s.write(1, probe, &[0xCC; 8]) {
        Err(KonaError::TenantFault { tenant, .. }) => assert_eq!(tenant, 1),
        other => panic!("expected TenantFault, got {other:?}"),
    }
    // The same tenant-local address is valid for each tenant and
    // resolves to *different* bytes — no cross-tenant bleed.
    let mut got_a = [0u8; 64];
    let mut got_b = [0u8; 64];
    s.read(1, a, &mut got_a).unwrap();
    s.read(2, b, &mut got_b).unwrap();
    assert_eq!(got_a, [0xAA; 64]);
    assert_eq!(got_b, [0xBB; 64]);
    assert_eq!(s.report().isolation_faults, 2);
}

#[test]
fn quota_is_enforced_exactly() {
    let mut s = serve_with(true);
    let slab = s.slab_bytes();
    s.register_tenant(TenantConfig::new(7).with_quota_bytes(3 * slab))
        .unwrap();
    // Sub-slab requests round up to whole slabs before the check.
    s.grow_tenant(7, 1).unwrap();
    s.grow_tenant(7, slab + 1).unwrap(); // rounds to 2 slabs: now at quota
    assert_eq!(s.tenant_used(7).unwrap(), 3 * slab);
    match s.grow_tenant(7, 1) {
        Err(KonaError::QuotaExceeded {
            tenant,
            requested,
            quota,
            used,
        }) => {
            assert_eq!(tenant, 7);
            assert_eq!(requested, slab);
            assert_eq!(quota, 3 * slab);
            assert_eq!(used, 3 * slab);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // Rejected grows move nothing: still exactly at quota, and a
    // shrink opens exactly the headroom it releases.
    assert_eq!(s.tenant_used(7).unwrap(), 3 * slab);
    let released = s.shrink_tenant(7, slab).unwrap();
    assert_eq!(released, slab);
    s.grow_tenant(7, slab).unwrap();
    assert_eq!(s.tenant_used(7).unwrap(), 3 * slab);
    assert_eq!(s.report().quota_rejections, 1);
}

#[test]
fn balloon_round_trips_bytes_and_evacuates_coldest() {
    let mut s = serve_with(true);
    let slab = s.slab_bytes();
    s.register_tenant(TenantConfig::new(3).with_quota_bytes(4 * slab))
        .unwrap();
    let hot = s.grow_tenant(3, slab).unwrap();
    // Make the first region hot.
    for i in 0..32u64 {
        s.write(3, hot + i * 4096, &[i as u8; 64]).unwrap();
    }
    let cold = s.grow_tenant(3, slab).unwrap();
    s.write(3, cold, &[0x5A; 64]).unwrap();
    let mut buf = [0u8; 64];
    s.read(3, cold, &mut buf).unwrap();
    assert_eq!(buf, [0x5A; 64], "ballooned-in region round-trips bytes");

    // Shrink one slab: the cold region goes, the hot region survives
    // with its bytes intact.
    let released = s.shrink_tenant(3, slab).unwrap();
    assert_eq!(released, slab);
    for i in 0..32u64 {
        s.read(3, hot + i * 4096, &mut buf).unwrap();
        assert_eq!(buf, [i as u8; 64], "hot region intact after evacuation");
    }
    // The evacuated region's addresses now fault typed — stale pointers
    // cannot silently land in someone else's re-used slab.
    match s.read(3, cold, &mut buf) {
        Err(KonaError::TenantFault { tenant, .. }) => assert_eq!(tenant, 3),
        other => panic!("expected TenantFault after shrink, got {other:?}"),
    }
    let report = s.report();
    assert_eq!(report.balloon_grows, 2);
    assert_eq!(report.balloon_shrinks, 1);
    assert_eq!(report.balloon_errors, 0);
}

/// A compact version of the fig's noisy-neighbor scenario. The victim
/// issues the identical seeded op stream in every mode; only the
/// aggressor's presence and the QoS switch vary.
fn noisy_victim_p99(with_aggressor: bool, qos: bool) -> u64 {
    let mut s = serve_with(qos);
    let slab = s.slab_bytes();
    s.register_tenant(
        TenantConfig::new(1)
            .with_quota_bytes(2 * slab)
            .with_slo(Nanos::micros(1))
            .with_qos_class(2),
    )
    .unwrap();
    let vbase = s.grow_tenant(1, slab).unwrap();
    let mut abase = VirtAddr::new(0);
    if with_aggressor {
        s.register_tenant(
            TenantConfig::new(2)
                .with_quota_bytes(8 * slab)
                .with_slo(Nanos::millis(10))
                .with_rate(20, 8)
                .with_qos_class(0),
        )
        .unwrap();
        abase = s.grow_tenant(2, 8 * slab).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(derive_shard_seed(99, 1));
    let mut cursor = 0u64;
    for _ in 0..2_000u64 {
        // Victim: 8 hot pages, 64-byte ops.
        let off = rng.gen_range(0..8u64) * 4096 + rng.gen_range(0..64u64) * 64;
        if rng.gen_bool(0.3) {
            s.write(1, vbase + off, &[1u8; 64]).unwrap();
        } else {
            let mut buf = [0u8; 64];
            s.read(1, vbase + off, &mut buf).unwrap();
        }
        if with_aggressor {
            for _ in 0..4 {
                let off = (cursor % (8 * 256)) * 4096;
                cursor += 1;
                s.write(2, abase + off, &[0xEE; 64]).unwrap();
            }
        }
    }
    s.report()
        .tenants
        .iter()
        .find(|t| t.id == 1)
        .expect("victim row")
        .p99
}

#[test]
fn qos_isolates_noisy_neighbor_victim() {
    let solo = noisy_victim_p99(false, true);
    let qos = noisy_victim_p99(true, true);
    let noqos = noisy_victim_p99(true, false);
    assert!(
        qos <= solo + solo / 2,
        "victim p99 with QoS ({qos} ns) must stay within 1.5× solo baseline ({solo} ns)"
    );
    assert!(
        noqos > qos,
        "QoS off ({noqos} ns) must be worse than QoS on ({qos} ns)"
    );
}

/// One seeded multi-tenant run, returning the serve fingerprint. Used
/// by the determinism test below under several worker counts.
fn seeded_run(seed: u64) -> u64 {
    let mut s = serve_with(true);
    let slab = s.slab_bytes();
    for id in 1..=4u32 {
        s.register_tenant(TenantConfig::new(id).with_quota_bytes(2 * slab))
            .unwrap();
        s.grow_tenant(id, slab).unwrap();
    }
    let mut rngs: Vec<StdRng> = (1..=4u32)
        .map(|id| StdRng::seed_from_u64(derive_shard_seed(seed, id)))
        .collect();
    for round in 0..800u64 {
        for id in 1..=4u32 {
            let rng = &mut rngs[id as usize - 1];
            let off = rng.gen_range(0..96u64) * 4096 + rng.gen_range(0..64u64) * 64;
            let base = VirtAddr::new(0);
            if rng.gen_bool(0.3) {
                let b: u8 = rng.gen();
                s.write(id, base + off, &[b; 64]).unwrap();
            } else {
                let mut buf = [0u8; 64];
                s.read(id, base + off, &mut buf).unwrap();
            }
            if round == 400 {
                // Mid-run balloon traffic is part of the fingerprinted
                // timeline too.
                s.grow_tenant(id, slab).unwrap();
                s.shrink_tenant(id, slab).unwrap();
            }
        }
    }
    s.sync().unwrap();
    s.fingerprint()
}

#[test]
fn fingerprints_identical_across_jobs_and_replay() {
    let serial = seeded_run(1234);
    // Replay: same seed, same timeline, same fingerprint.
    assert_eq!(serial, seeded_run(1234), "replay must be byte-identical");
    // Fan the identical run out under different worker counts — the
    // fingerprint must not depend on scheduling.
    for workers in [1usize, 2, 4] {
        let fps = par_map(Jobs::new(workers), vec![1234u64; 3], |_, seed| {
            seeded_run(seed)
        });
        assert!(
            fps.iter().all(|&f| f == serial),
            "fingerprint diverged at {workers} workers: {fps:x?} vs {serial:x}"
        );
    }
    // And a different seed genuinely changes the timeline.
    assert_ne!(serial, seeded_run(4321), "seed must matter");
}

#[test]
fn throttled_ops_do_not_run_and_are_counted() {
    let mut s = serve_with(true);
    let slab = s.slab_bytes();
    s.register_tenant(
        TenantConfig::new(1)
            .with_quota_bytes(slab)
            .with_rate(1, 1), // 1 op/ms, burst 1: nearly everything throttles
    )
    .unwrap();
    let base = s.grow_tenant(1, slab).unwrap();
    s.write(1, base, &[7u8; 64]).unwrap(); // burst token
    let mut throttled = 0u64;
    for _ in 0..64 {
        match s.write(1, base, &[9u8; 64]).unwrap() {
            Admission::Throttled => throttled += 1,
            Admission::Ran(_) => {}
        }
    }
    assert!(throttled > 0, "tight bucket must throttle");
    // Throttled writes never landed: the first write's bytes survive
    // unless some later write was admitted and overwrote them.
    let report = s.report();
    assert_eq!(report.throttled, throttled);
    assert_eq!(
        report.admitted as usize + throttled as usize,
        1 + 64,
        "every op is either admitted or throttled"
    );
}
