//! Multi-tenant serving: p99 per-tenant latency vs tenant count, plus a
//! noisy-neighbor isolation demo.
//!
//! Drives the `kona-serve` front end over one fixed-capacity cluster:
//!
//! * **Scale sweep** — 2 → N tenants (N ≥ 8), each a seeded workload
//!   with its own private address space, multiplexed over the same
//!   cluster. With capacity fixed, per-tenant p99 rises with tenant
//!   count as working sets start fighting over FMem — the ROADMAP
//!   figure. Every row self-checks isolation: per-tenant byte models
//!   must match every read, deliberate cross-tenant probes must fail
//!   typed (`TenantFault`), over-quota grows must fail typed
//!   (`QuotaExceeded`), and the balloon must round-trip bytes.
//! * **Noisy neighbor** — a victim tenant with a tight SLO shares the
//!   cluster with a streaming aggressor. With QoS on (admission
//!   throttling + SLO-aware eviction protection + prefetch shedding)
//!   the victim's p99 stays within 1.5× its solo baseline; the same
//!   scenario with QoS off is provably worse. The `mon.tenant_slo`
//!   health rule fires when SLO protection engages.
//!
//! Everything is seeded and driven in simulated time; output is
//! byte-identical at any `--jobs` (which also sets the worker count of
//! the replay determinism check, whose merged output is order-stable).
//! Exits non-zero when a gate fails.
//!
//! ```bash
//! cargo run --release --bin fig_tenants -- --quick
//! cargo run --release --bin fig_tenants -- --tenants 12 --tenant-quota 4
//! cargo run --release --bin fig_tenants -- --quick --no-qos
//! ```

use kona::ClusterConfig;
use kona_bench::{banner, f2, ExpOptions, TextTable};
use kona_cluster::ControlPlaneConfig;
use kona_serve::{Admission, ServeConfig, ServeReport, ServeRuntime, TenantConfig};
use kona_telemetry::{Profile, Rule, Telemetry, DEFAULT_WINDOW_NS};
use kona_types::rng::{Rng, StdRng};
use kona_types::{derive_shard_seed, par_map, KonaError, Nanos, VirtAddr};
use std::process::ExitCode;

/// Pages per slab (4 KiB pages, 1 MiB slabs in `ClusterConfig::small`).
const PAGES_PER_SLAB: u64 = 256;
/// Sweep tenants' working set inside their first slab, in pages.
const WS_PAGES: u64 = 96;
/// Hot subset of the working set (90% of accesses land here).
const HOT_PAGES: u64 = 16;
/// Victim's hot working set in the noisy-neighbor scenario, in pages —
/// small enough that remote misses stay under 1% of ops when isolated,
/// so the victim's p99 sits on the FMem-hit step of the latency
/// distribution rather than the remote-fetch step.
const VICTIM_WS_PAGES: u64 = 8;
/// Aggressor stream span, in pages (8 slabs).
const AGGR_WS_PAGES: u64 = 8 * PAGES_PER_SLAB;
/// Aggressor demand ops issued per victim op.
const AGGR_OPS_PER_ROUND: u64 = 4;
/// Victim p99 SLO — the cold-fill phase burns it (engaging eviction
/// protection), the steady state under QoS does not.
const VICTIM_SLO: Nanos = Nanos::micros(1);
/// Aggressor admission rate under QoS, ops per simulated millisecond.
const AGGR_RATE_PER_MS: u64 = 20;
/// Replay replicas for the determinism self-check.
const REPLAY_RUNS: usize = 3;

/// The fixed-capacity cluster every scenario shares: 2×32 MiB nodes,
/// 1 MiB slabs, but FMem squeezed to 1 MiB (256 pages) and a small CPU
/// cache so tenant working sets genuinely compete.
fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::small().with_local_cache_pages(256);
    cfg.cpu_cache_lines = 512;
    cfg
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum NoisyMode {
    Solo,
    Qos,
    NoQos,
}

impl NoisyMode {
    fn label(self) -> &'static str {
        match self {
            NoisyMode::Solo => "solo",
            NoisyMode::Qos => "qos",
            NoisyMode::NoQos => "no-qos",
        }
    }
}

#[derive(Clone, Copy)]
enum Point {
    Scale(u32),
    Noisy(NoisyMode),
}

/// Scalar knobs shared by every point.
#[derive(Clone, Copy)]
struct Knobs {
    seed: u64,
    ops: u64,
    quota_slabs: u64,
    balloon: bool,
    window_ns: u64,
    trace_capacity: usize,
}

struct Outcome {
    label: String,
    tenants: u32,
    report: ServeReport,
    fingerprint: u64,
    /// Reads that came back with bytes differing from the tenant's own
    /// model — true isolation violations. Must be zero everywhere.
    violations: u64,
    cross_probes: u64,
    cross_faults_typed: u64,
    quota_probes: u64,
    quota_typed: u64,
    balloon_released: u64,
    balloon_roundtrip_errors: u64,
    /// Worst and mean per-tenant p99, ns.
    p99_max: u64,
    p99_mean: u64,
    /// Victim / aggressor p99 (noisy rows; 0 elsewhere).
    victim_p99: u64,
    aggressor_p99: u64,
    tenant_slo_fired: u64,
    profile: Option<Profile>,
    /// `tenant.<id>.*` counter rows of the shared registry (attribution
    /// table, printed for the QoS noisy row).
    attribution: Vec<(String, u64)>,
}

fn telemetry_for(knobs: Knobs) -> Telemetry {
    let tel = if knobs.trace_capacity > 0 {
        Telemetry::with_tracing(knobs.trace_capacity)
    } else {
        Telemetry::disabled()
    };
    tel.enable_timeseries(knobs.window_ns);
    tel.install_monitor(vec![
        // Fires in any window where a compliant tenant burns its SLO —
        // i.e. whenever SLO-aware eviction protection engages.
        Rule::above("mon.tenant_slo", "serve.slo_breaches", 0.5).critical(),
    ]);
    tel
}

/// One sweep point: `n` symmetric tenants over the shared cluster.
fn run_scale(n: u32, knobs: Knobs) -> Outcome {
    let tel = telemetry_for(knobs);
    let mut serve = ServeRuntime::with_telemetry(
        cluster_config(),
        ControlPlaneConfig::default(),
        ServeConfig::default(),
        tel.clone(),
    )
    .expect("valid config");
    let slab = serve.slab_bytes();
    let quota = knobs.quota_slabs * slab;
    let mut rngs = Vec::new();
    let mut bases = Vec::new();
    let mut models = Vec::new();
    for id in 1..=n {
        serve
            .register_tenant(TenantConfig::new(id).with_quota_bytes(quota))
            .expect("register");
        bases.push(serve.grow_tenant(id, slab).expect("initial grow"));
        rngs.push(StdRng::seed_from_u64(derive_shard_seed(knobs.seed, id)));
        models.push(vec![0u8; slab as usize]);
    }

    let mut violations = 0u64;
    let (mut cross_probes, mut cross_faults_typed) = (0u64, 0u64);
    for round in 0..knobs.ops {
        for idx in 0..n as usize {
            let id = idx as u32 + 1;
            let base = bases[idx];
            if round % 64 == 63 {
                // Deliberate cross-tenant probe: an address past this
                // tenant's whole quota can only belong to someone else's
                // slice of the shared runtime — it must fault typed.
                cross_probes += 1;
                let mut buf = [0u8; 8];
                match serve.read(id, VirtAddr::new(quota + 4096 * id as u64), &mut buf) {
                    Err(KonaError::TenantFault { tenant, .. }) if tenant == id => {
                        cross_faults_typed += 1;
                    }
                    Ok(_) | Err(_) => {}
                }
            }
            let rng = &mut rngs[idx];
            let page = if rng.gen_bool(0.9) {
                rng.gen_range(0..HOT_PAGES)
            } else {
                rng.gen_range(0..WS_PAGES)
            };
            let off = (page * 4096 + rng.gen_range(0..64) * 64) as usize;
            if rng.gen_bool(0.3) {
                let byte: u8 = rng.gen();
                if let Admission::Ran(_) = serve
                    .write(id, base + off as u64, &[byte; 64])
                    .expect("demand write")
                {
                    models[idx][off..off + 64].fill(byte);
                }
            } else {
                let mut buf = [0u8; 64];
                if let Admission::Ran(_) =
                    serve.read(id, base + off as u64, &mut buf).expect("demand read")
                {
                    if buf[..] != models[idx][off..off + 64] {
                        violations += 1;
                    }
                }
            }
        }
    }

    // Balloon demo: grow a second region, round-trip bytes through it,
    // then shrink — the cold new region is evacuated, the hot first
    // region survives untouched.
    let mut balloon_released = 0u64;
    let mut balloon_roundtrip_errors = 0u64;
    let (mut quota_probes, mut quota_typed) = (0u64, 0u64);
    for idx in 0..n as usize {
        let id = idx as u32 + 1;
        if knobs.balloon {
            let extra = serve.grow_tenant(id, slab).expect("balloon grow");
            let pattern = [id as u8 ^ 0x5A; 64];
            serve.write(id, extra, &pattern).expect("balloon write");
            let mut buf = [0u8; 64];
            serve.read(id, extra, &mut buf).expect("balloon read");
            if buf != pattern {
                balloon_roundtrip_errors += 1;
            }
            balloon_released += serve.shrink_tenant(id, slab).expect("balloon shrink");
            // The hot region must have survived the evacuation intact.
            let mut check = [0u8; 64];
            serve.read(id, bases[idx], &mut check).expect("post-shrink read");
            if check[..] != models[idx][..64] {
                balloon_roundtrip_errors += 1;
            }
        }
        // Over-quota probe: must be rejected typed, before any slab
        // moves.
        quota_probes += 1;
        let used = serve.tenant_used(id).expect("registered");
        match serve.grow_tenant(id, quota - used + slab) {
            Err(KonaError::QuotaExceeded { tenant, .. }) if tenant == id => quota_typed += 1,
            Ok(_) | Err(_) => {}
        }
    }
    serve.sync().expect("final sync");

    let report = serve.report();
    let p99s: Vec<u64> = report.tenants.iter().map(|t| t.p99).collect();
    let p99_max = p99s.iter().copied().max().unwrap_or(0);
    let p99_mean = if p99s.is_empty() {
        0
    } else {
        p99s.iter().sum::<u64>() / p99s.len() as u64
    };
    let health = tel.health_report().expect("monitor installed");
    let tenant_slo_fired = health
        .rules
        .iter()
        .find(|o| o.rule == "mon.tenant_slo")
        .map_or(0, |o| o.fired);
    let profile = (knobs.trace_capacity > 0).then(|| Profile::from_spans(&tel.events()));
    Outcome {
        label: format!("scale{n}"),
        tenants: n,
        fingerprint: serve.fingerprint(),
        report,
        violations,
        cross_probes,
        cross_faults_typed,
        quota_probes,
        quota_typed,
        balloon_released,
        balloon_roundtrip_errors,
        p99_max,
        p99_mean,
        victim_p99: 0,
        aggressor_p99: 0,
        tenant_slo_fired,
        profile,
        attribution: Vec::new(),
    }
}

/// The noisy-neighbor scenario. The victim issues the identical seeded
/// op stream in all three modes; only the aggressor's presence and the
/// QoS switch vary.
fn run_noisy(mode: NoisyMode, knobs: Knobs) -> Outcome {
    let tel = telemetry_for(knobs);
    let serve_cfg = ServeConfig {
        qos: mode != NoisyMode::NoQos,
        ..ServeConfig::default()
    };
    let mut serve = ServeRuntime::with_telemetry(
        cluster_config(),
        ControlPlaneConfig::default(),
        serve_cfg,
        tel.clone(),
    )
    .expect("valid config");
    let slab = serve.slab_bytes();

    const VICTIM: u32 = 1;
    const AGGR: u32 = 2;
    serve
        .register_tenant(
            TenantConfig::new(VICTIM)
                .with_quota_bytes(2 * slab)
                .with_slo(VICTIM_SLO)
                .with_qos_class(2),
        )
        .expect("victim");
    let vbase = serve.grow_tenant(VICTIM, slab).expect("victim grow");
    let mut vmodel = vec![0u8; slab as usize];
    let mut vrng = StdRng::seed_from_u64(derive_shard_seed(knobs.seed, VICTIM));

    let with_aggr = mode != NoisyMode::Solo;
    let mut abase = VirtAddr::new(0);
    if with_aggr {
        serve
            .register_tenant(
                TenantConfig::new(AGGR)
                    .with_quota_bytes(8 * slab)
                    .with_slo(Nanos::millis(10))
                    .with_rate(AGGR_RATE_PER_MS, 8)
                    .with_qos_class(0),
            )
            .expect("aggressor");
        abase = serve.grow_tenant(AGGR, 8 * slab).expect("aggressor grow");
    }

    let mut violations = 0u64;
    let mut aggr_cursor = 0u64;
    // Twice the sweep round count: the victim's cold fill must be a
    // sub-1% sliver of its histogram for p99 to sit on the hit step.
    for _ in 0..knobs.ops * 2 {
        // One victim op per round: small accesses over a hot set that
        // fits FMem comfortably when alone.
        let page = vrng.gen_range(0..VICTIM_WS_PAGES);
        let off = (page * 4096 + vrng.gen_range(0..64) * 64) as usize;
        if vrng.gen_bool(0.3) {
            let byte: u8 = vrng.gen();
            if let Admission::Ran(_) = serve
                .write(VICTIM, vbase + off as u64, &[byte; 64])
                .expect("victim write")
            {
                vmodel[off..off + 64].fill(byte);
            }
        } else {
            let mut buf = [0u8; 64];
            if let Admission::Ran(_) = serve
                .read(VICTIM, vbase + off as u64, &mut buf)
                .expect("victim read")
            {
                if buf[..] != vmodel[off..off + 64] {
                    violations += 1;
                }
            }
        }
        // A burst of streaming aggressor ops: maximal cache pollution.
        // Under QoS most of these are throttled at the front door.
        if with_aggr {
            for _ in 0..AGGR_OPS_PER_ROUND {
                let off = (aggr_cursor % AGGR_WS_PAGES) * 4096;
                aggr_cursor += 1;
                let _ = serve
                    .write(AGGR, abase + off, &[0xEE; 64])
                    .expect("aggressor write");
            }
        }
    }
    serve.sync().expect("final sync");

    let report = serve.report();
    let victim_row = report
        .tenants
        .iter()
        .find(|t| t.id == VICTIM)
        .expect("victim row");
    let victim_p99 = victim_row.p99;
    let aggressor_p99 = report
        .tenants
        .iter()
        .find(|t| t.id == AGGR)
        .map_or(0, |t| t.p99);
    let health = tel.health_report().expect("monitor installed");
    let tenant_slo_fired = health
        .rules
        .iter()
        .find(|o| o.rule == "mon.tenant_slo")
        .map_or(0, |o| o.fired);
    let attribution = tel
        .snapshot()
        .with_prefix("tenant.")
        .counters;
    let profile = (knobs.trace_capacity > 0).then(|| Profile::from_spans(&tel.events()));
    Outcome {
        label: format!("noisy.{}", mode.label()),
        tenants: if with_aggr { 2 } else { 1 },
        fingerprint: serve.fingerprint(),
        report,
        violations,
        cross_probes: 0,
        cross_faults_typed: 0,
        quota_probes: 0,
        quota_typed: 0,
        balloon_released: 0,
        balloon_roundtrip_errors: 0,
        p99_max: victim_p99.max(aggressor_p99),
        p99_mean: victim_p99,
        victim_p99,
        aggressor_p99,
        tenant_slo_fired,
        profile,
        attribution,
    }
}

fn run_point(p: Point, knobs: Knobs) -> Outcome {
    match p {
        Point::Scale(n) => run_scale(n, knobs),
        Point::Noisy(m) => run_noisy(m, knobs),
    }
}

fn main() -> ExitCode {
    let opts = ExpOptions::from_env();
    banner(
        "Multi-tenant serving: per-tenant p99 vs tenant count + noisy neighbor",
        "tenant isolation, token-bucket admission, SLO-aware QoS and live ballooning over one cluster",
    );
    let seed = opts.seed();
    let ops: u64 = if opts.quick { 1_200 } else { 3_000 };
    let max_tenants = opts.tenants().max(8);
    let no_qos_only = opts.args.iter().any(|a| a == "--no-qos");
    let knobs = Knobs {
        seed,
        ops,
        quota_slabs: opts.tenant_quota().max(2),
        balloon: opts.balloon(),
        window_ns: opts.window_ns().unwrap_or(DEFAULT_WINDOW_NS),
        trace_capacity: if opts.profiling() { opts.trace_capacity() } else { 0 },
    };
    println!(
        "seed: {seed}, ops per tenant per row: {ops}, quota: {} slabs, balloon demo: {}, \
         victim SLO: {} ns\n",
        knobs.quota_slabs,
        if knobs.balloon { "on" } else { "off" },
        VICTIM_SLO.as_ns()
    );

    let mut counts: Vec<u32> = vec![2, 4, 8];
    if max_tenants > 8 {
        counts.push(max_tenants);
    }
    let mut points: Vec<Point> = counts.iter().map(|&n| Point::Scale(n)).collect();
    // The noisy trio always runs (the QoS rows are the figure's second
    // panel); --no-qos drops the QoS row to showcase the unprotected
    // runtime on its own.
    points.push(Point::Noisy(NoisyMode::Solo));
    if !no_qos_only {
        points.push(Point::Noisy(NoisyMode::Qos));
    }
    points.push(Point::Noisy(NoisyMode::NoQos));
    let results = par_map(opts.jobs, points, move |_, p| run_point(p, knobs));

    let tel = opts.telemetry();
    let mut gate_failures = 0u64;

    // ---- Scale sweep table -------------------------------------------------
    let mut table = TextTable::new(&[
        "Tenants",
        "Ops",
        "p99 max µs",
        "p99 mean µs",
        "Cross-faults",
        "Quota rej",
        "Balloon MiB",
        "Violations",
        "Fingerprint",
    ]);
    for r in results.iter().filter(|r| r.label.starts_with("scale")) {
        table.row(vec![
            r.tenants.to_string(),
            r.report.admitted.to_string(),
            f2(r.p99_max as f64 / 1_000.0),
            f2(r.p99_mean as f64 / 1_000.0),
            format!("{}/{}", r.cross_faults_typed, r.cross_probes),
            format!("{}/{}", r.quota_typed, r.quota_probes),
            f2(r.balloon_released as f64 / (1 << 20) as f64),
            r.violations.to_string(),
            format!("{:016x}", r.fingerprint),
        ]);
        let g = |k: &str| format!("fig_tenants.{}.{k}", r.label);
        tel.gauge(&g("p99_max_ns")).set(r.p99_max as f64);
        tel.gauge(&g("p99_mean_ns")).set(r.p99_mean as f64);
        tel.gauge(&g("admitted")).set(r.report.admitted as f64);
        tel.gauge(&g("violations")).set(r.violations as f64);
        tel.gauge(&g("quota_rejections")).set(r.report.quota_rejections as f64);
        tel.gauge(&g("balloon_errors")).set(r.report.balloon_errors as f64);

        let mut fail = |why: &str| {
            gate_failures += 1;
            eprintln!("GATE FAILED [{}]: {why}", r.label);
        };
        if r.violations > 0 {
            fail(&format!("{} isolation violations (bytes crossed tenants)", r.violations));
        }
        if r.cross_faults_typed != r.cross_probes {
            fail(&format!(
                "only {}/{} cross-tenant probes failed typed",
                r.cross_faults_typed, r.cross_probes
            ));
        }
        if r.quota_typed != r.quota_probes {
            fail(&format!(
                "only {}/{} over-quota grows rejected typed",
                r.quota_typed, r.quota_probes
            ));
        }
        if r.balloon_roundtrip_errors > 0 {
            fail(&format!("{} balloon round-trip errors", r.balloon_roundtrip_errors));
        }
        if knobs.balloon && r.balloon_released != r.tenants as u64 * (1 << 20) {
            fail(&format!(
                "balloon released {} bytes, expected one slab per tenant",
                r.balloon_released
            ));
        }
        if r.report.balloon_errors > 0 {
            fail(&format!("{} balloon evacuation errors", r.report.balloon_errors));
        }
    }
    table.print();
    let max_row = results
        .iter()
        .filter(|r| r.label.starts_with("scale"))
        .map(|r| r.tenants)
        .max()
        .unwrap_or(0);
    if max_row < 8 {
        gate_failures += 1;
        eprintln!("GATE FAILED [sweep]: largest row has {max_row} tenants, need ≥ 8");
    }

    // ---- Replay determinism (uses --jobs as its worker count) -------------
    let replay = par_map(opts.jobs, vec![max_row; REPLAY_RUNS], move |_, n| {
        run_scale(n, knobs).fingerprint
    });
    let sweep_fp = results
        .iter()
        .find(|r| r.tenants == max_row && r.label.starts_with("scale"))
        .map_or(0, |r| r.fingerprint);
    if replay.iter().any(|&f| f != sweep_fp) {
        gate_failures += 1;
        eprintln!("GATE FAILED [replay]: fingerprints diverged across replays/worker counts");
    } else {
        println!(
            "\nreplay determinism: {max_row}-tenant row fingerprint {sweep_fp:016x} stable \
             across replays and worker counts"
        );
    }

    // ---- Noisy-neighbor table ---------------------------------------------
    let mut noisy = TextTable::new(&[
        "Mode",
        "Victim p99 µs",
        "Victim ops",
        "Aggr p99 µs",
        "Aggr ops",
        "Aggr throttled",
        "Shed wnd",
        "Prot wnd",
        "mon.tenant_slo",
    ]);
    let row_of = |m: NoisyMode| results.iter().find(|r| r.label == format!("noisy.{}", m.label()));
    for r in results.iter().filter(|r| r.label.starts_with("noisy")) {
        let victim = r.report.tenants.first().expect("victim row");
        let aggr = r.report.tenants.get(1);
        noisy.row(vec![
            r.label["noisy.".len()..].to_string(),
            f2(r.victim_p99 as f64 / 1_000.0),
            victim.ops.to_string(),
            f2(r.aggressor_p99 as f64 / 1_000.0),
            aggr.map_or(0, |t| t.ops).to_string(),
            aggr.map_or(0, |t| t.throttled).to_string(),
            aggr.map_or(0, |t| t.shed_windows).to_string(),
            victim.protected_windows.to_string(),
            r.tenant_slo_fired.to_string(),
        ]);
        let g = |k: &str| format!("fig_tenants.{}.{k}", r.label);
        tel.gauge(&g("victim_p99_ns")).set(r.victim_p99 as f64);
        tel.gauge(&g("aggressor_p99_ns")).set(r.aggressor_p99 as f64);
        tel.gauge(&g("victim_protected_windows")).set(victim.protected_windows as f64);
        tel.gauge(&g("tenant_slo_fired")).set(r.tenant_slo_fired as f64);
        if r.violations > 0 {
            gate_failures += 1;
            eprintln!(
                "GATE FAILED [{}]: {} isolation violations",
                r.label, r.violations
            );
        }
    }
    noisy.print();

    let solo = row_of(NoisyMode::Solo).expect("solo row");
    let noqos = row_of(NoisyMode::NoQos).expect("no-qos row");
    if let Some(qos) = row_of(NoisyMode::Qos) {
        let bound = solo.victim_p99 + solo.victim_p99 / 2;
        if qos.victim_p99 > bound {
            gate_failures += 1;
            eprintln!(
                "GATE FAILED [noisy.qos]: victim p99 {} ns exceeds 1.5× solo baseline {} ns",
                qos.victim_p99, solo.victim_p99
            );
        }
        if noqos.victim_p99 <= qos.victim_p99 {
            gate_failures += 1;
            eprintln!(
                "GATE FAILED [noisy]: QoS off ({} ns) not worse than QoS on ({} ns)",
                noqos.victim_p99, qos.victim_p99
            );
        }
        let aggr = qos.report.tenants.get(1).expect("aggressor row");
        if aggr.throttled == 0 {
            gate_failures += 1;
            eprintln!("GATE FAILED [noisy.qos]: admission gate never throttled the aggressor");
        }
        let victim = qos.report.tenants.first().expect("victim row");
        if victim.protected_windows == 0 && qos.tenant_slo_fired == 0 {
            gate_failures += 1;
            eprintln!("GATE FAILED [noisy.qos]: SLO protection never engaged");
        }

        // Per-tenant attribution table for the QoS row: every
        // `tenant.<id>.*` counter of the shared registry, interned names
        // resolved once at registration.
        let mut attr = TextTable::new(&["Metric", "Value"]);
        for (name, v) in &qos.attribution {
            attr.row(vec![name.clone(), v.to_string()]);
        }
        println!("\nPer-tenant attribution (noisy.qos):");
        attr.print();
    }
    if noqos
        .report
        .tenants
        .get(1)
        .map_or(0, |t| t.throttled)
        > 0
    {
        gate_failures += 1;
        eprintln!("GATE FAILED [noisy.no-qos]: throttling happened with QoS off");
    }

    println!(
        "\nExpected shape: per-tenant p99 rises with tenant count at fixed\n\
         capacity as working sets overflow shared FMem. Cross-tenant probes\n\
         all fail typed (TenantFault), over-quota grows all fail typed\n\
         (QuotaExceeded), the balloon releases exactly the cold slab it\n\
         grew, and no read ever observes another tenant's bytes. In the\n\
         noisy-neighbor panel, QoS (throttling + eviction protection +\n\
         prefetch shedding) keeps the victim's p99 within 1.5× of its solo\n\
         baseline while the same scenario without QoS is strictly worse."
    );

    opts.write_outputs(&tel);
    if opts.profiling() {
        let mut profile: Option<Profile> = None;
        for r in &results {
            let p = r
                .profile
                .as_ref()
                .expect("tracing enabled when profiling")
                .prefixed(&r.label);
            match &mut profile {
                Some(all) => all.merge(&p),
                None => profile = Some(p),
            }
        }
        if let Some(p) = &profile {
            opts.write_profile(p);
        }
    }
    if gate_failures > 0 {
        eprintln!("\n{gate_failures} tenant gate(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall tenant gates passed");
    ExitCode::SUCCESS
}
