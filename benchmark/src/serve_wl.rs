//! `serve_stack`: four tenants through `ServeRuntime` → `ClusterRuntime`
//! → `KonaRuntime`, with the telemetry `fig_tenants` / `fig_health` ship
//! with. The only workload where the wrappers and the recorder do most of
//! the work.

use crate::host;
use crate::ledger::{Above, PriorityChange, PriorityCursor};
use crate::pass::{timed_pass, PassTiming, Plan, Scale, CHUNKS, PASSES};
use crate::result::{Layers, RunResult};
use crate::rounds::Rounds;
use crate::runtime_wl::{
    book_ring_rows, book_self_times, build, core_ledger, fit_nodes, fmem_pages, masked_pass,
    noop_call_ns, CoreCounts, LedgerCtx, Live, Scenario, RING_CAPACITY, SERIES_WINDOW_NS,
};
use crate::script::{op_accesses, ops_from_trace, splitmix64, Driver, Op, Outcome, Path, Target};
use crate::spans::SpanLog;
use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime, RuntimeStats};
use kona_cluster::{ClusterRuntime, ClusterStats, ControlPlaneConfig, MemoryNodeRuntime};
use kona_serve::{Admission, ServeConfig, ServeReport, ServeRuntime, TenantConfig, TokenBucket};
use kona_telemetry::Telemetry;
use kona_types::{AccessKind, MemAccess, Nanos, PageNumber, VirtAddr, PAGE_SIZE_4K};
use kona_workloads::{RedisWorkload, Workload, WorkloadProfile};
use std::time::Instant;

const TENANTS: u32 = 4;
/// The tenant with a rate limit; its throttles are load shedding, every
/// other tenant's would be a failure.
const AGGRESSOR: u32 = 4;
const AGGRESSOR_RATE_PER_MS: u64 = 50;
const AGGRESSOR_BURST: u64 = 100;
/// Nominal ops per tenant per pass at scale 1 (an op is two events).
const OPS_PER_TENANT: usize = 4_000;

#[derive(Debug, Clone, Copy)]
struct TenantOp {
    tenant: u32,
    op: Op,
}

/// The generated inputs: per-tenant Redis-Rand streams interleaved
/// round-robin.
struct Inputs {
    config: ClusterConfig,
    ops: Vec<TenantOp>,
    op_accesses: Vec<u64>,
    plan: Plan,
    /// Bytes per tenant (whole slabs).
    tenant_bytes: u64,
    max_len: u32,
    seed: u64,
    events: u64,
    gen_ns: f64,
}

impl Inputs {
    fn generate(seed: u64, scale: Scale) -> Inputs {
        let started = Instant::now();
        let profile = WorkloadProfile::default()
            .with_windows(1)
            .with_ops_per_window(scale.apply(OPS_PER_TENANT, 16))
            .with_scale_divisor(128);
        let workload = RedisWorkload::rand().with_profile(profile);
        let streams: Vec<Vec<Op>> = (1..=TENANTS)
            .map(|t| ops_from_trace(&workload.generate(splitmix64(seed ^ u64::from(t)))))
            .collect();
        let gen_ns = started.elapsed().as_nanos() as f64;

        let mut config = ClusterConfig::small().with_replicas(2);
        let slab = config.slab_size.bytes();
        let tenant_bytes = workload.footprint().bytes().div_ceil(slab) * slab;
        let total = fit_nodes(&mut config, tenant_bytes * u64::from(TENANTS));
        config.local_cache_pages = fmem_pages(&config, total, 8);

        let len = streams.iter().map(Vec::len).min().unwrap_or(0);
        let ops: Vec<TenantOp> = (0..len * TENANTS as usize)
            .map(|i| {
                let t = i % TENANTS as usize;
                TenantOp {
                    tenant: t as u32 + 1,
                    op: streams[t][i / TENANTS as usize],
                }
            })
            .collect();
        let flat: Vec<Op> = ops.iter().map(|t| t.op).collect();
        Inputs {
            plan: Plan::new(ops.len(), 1),
            op_accesses: op_accesses(&flat),
            max_len: flat.iter().map(|op| op.len).max().unwrap_or(1),
            events: ops.len() as u64,
            ops,
            config,
            tenant_bytes,
            seed,
            gen_ns,
        }
    }

    fn drivers(&self) -> Vec<Driver> {
        (1..=TENANTS)
            .map(|t| {
                Driver::new(
                    Path::Bytes,
                    splitmix64(self.seed ^ u64::from(t)),
                    self.tenant_bytes,
                    self.max_len,
                )
            })
            .collect()
    }

    /// The same ops in the cluster's address space (tenant regions are
    /// granted back to back), as the levels below the front door see them.
    fn flattened(&self) -> Scenario {
        let ops: Vec<Op> = self
            .ops
            .iter()
            .map(|t| Op {
                addr: u64::from(t.tenant - 1) * self.tenant_bytes + t.op.addr,
                ..t.op
            })
            .collect();
        Scenario {
            config: self.config.clone(),
            path: Path::Bytes,
            op_accesses: self.op_accesses.clone(),
            plan: self.plan,
            footprint: self.tenant_bytes * u64::from(TENANTS),
            seed: self.seed,
            events: self.events,
            gen_ns: self.gen_ns,
            ops,
        }
    }
}

/// One tenant's view of the serving front end.
struct Port<'a> {
    serve: &'a mut ServeRuntime,
    tenant: u32,
}

fn admitted(res: kona_types::Result<Admission>) -> Outcome {
    match res {
        Ok(Admission::Ran(_)) => Outcome::Ran,
        Ok(Admission::Throttled) => Outcome::Throttled,
        Err(_) => Outcome::Failed,
    }
}

impl Target for Port<'_> {
    fn access(&mut self, addr: u64, len: u32, kind: AccessKind) -> Outcome {
        admitted(
            self.serve
                .access(self.tenant, MemAccess::new(VirtAddr::new(addr), len, kind)),
        )
    }
    fn write(&mut self, addr: u64, data: &[u8]) -> Outcome {
        admitted(self.serve.write(self.tenant, VirtAddr::new(addr), data))
    }
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Outcome {
        admitted(self.serve.read(self.tenant, VirtAddr::new(addr), buf))
    }
}

/// The telemetry a serve-level run records with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Recorder {
    Off,
    Ring,
    RingSeries,
    Causal,
}

impl Recorder {
    fn build(self) -> Telemetry {
        match self {
            Recorder::Off => Telemetry::disabled(),
            Recorder::Ring => Telemetry::with_tracing(RING_CAPACITY),
            Recorder::RingSeries => {
                let tel = Telemetry::with_tracing(RING_CAPACITY);
                tel.enable_timeseries(SERIES_WINDOW_NS);
                tel
            }
            Recorder::Causal => Telemetry::with_causal(RING_CAPACITY, 1 << 12),
        }
    }
}

/// A registered, grown, warmed-up serving stack.
struct Stack {
    serve: ServeRuntime,
    telemetry: Telemetry,
    drivers: Vec<Driver>,
    /// Throttles of tenants that have no rate limit.
    unexpected_throttles: u64,
    /// Which ops of the latest pass reached the cluster.
    admitted: Vec<bool>,
}

impl Stack {
    fn build(inputs: &Inputs, recorder: Recorder) -> Stack {
        let telemetry = recorder.build();
        let mut serve = ServeRuntime::with_telemetry(
            inputs.config.clone(),
            ControlPlaneConfig::default(),
            ServeConfig::default(),
            telemetry.clone(),
        )
        .expect("valid configuration");
        for id in 1..=TENANTS {
            let mut cfg = TenantConfig::new(id).with_quota_bytes(inputs.tenant_bytes);
            if id == AGGRESSOR {
                cfg = cfg.with_rate(AGGRESSOR_RATE_PER_MS, AGGRESSOR_BURST);
            }
            serve.register_tenant(cfg).expect("fresh tenant id");
            let base = serve
                .grow_tenant(id, inputs.tenant_bytes)
                .expect("nodes sized for every tenant");
            assert_eq!(
                base.raw(),
                0,
                "a tenant's first region starts its address space"
            );
        }
        Stack {
            serve,
            telemetry,
            drivers: inputs.drivers(),
            unexpected_throttles: 0,
            admitted: vec![false; inputs.ops.len()],
        }
    }

    /// [`Stack::build`] plus the warm-up pass.
    fn warmed(inputs: &Inputs, recorder: Recorder) -> Stack {
        let mut stack = Stack::build(inputs, recorder);
        stack.pass(inputs);
        stack
    }

    fn pass(&mut self, inputs: &Inputs) -> PassTiming {
        self.pass_observed(inputs, |_, _| {})
    }

    /// One pass, `after(i, serve)` looking at the stack after every op.
    fn pass_observed(
        &mut self,
        inputs: &Inputs,
        mut after: impl FnMut(usize, &ServeRuntime),
    ) -> PassTiming {
        let Stack {
            serve,
            drivers,
            unexpected_throttles,
            admitted,
            ..
        } = self;
        timed_pass(&inputs.ops, inputs.plan, |i, t| {
            let mut port = Port {
                serve,
                tenant: t.tenant,
            };
            let outcome = drivers[t.tenant as usize - 1].issue(&mut port, 0, &t.op);
            admitted[i] = outcome == Outcome::Ran;
            if outcome == Outcome::Throttled && t.tenant != AGGRESSOR {
                *unexpected_throttles += 1;
            }
            after(i, serve);
        })
    }

    fn inner_stats(&self) -> RuntimeStats {
        RuntimeStats {
            spans_dropped: 0,
            ..self.serve.cluster().inner().stats()
        }
    }

    fn core_counts(&mut self) -> CoreCounts {
        CoreCounts::of(self.serve.cluster_mut().inner_mut())
    }
}

/// The serve/cluster counters booked as deltas over the timed passes.
struct WrapperCounts {
    report: ServeReport,
    cluster: ClusterStats,
    ticks: u64,
}

impl WrapperCounts {
    fn of(serve: &ServeRuntime) -> WrapperCounts {
        WrapperCounts {
            report: serve.report(),
            cluster: serve.cluster().cluster_stats(),
            ticks: serve.cluster().ticks(),
        }
    }

    fn delta_into(&self, after: &WrapperCounts, out: &mut Layers) {
        let d = |a: u64, b: u64| (b - a) as f64;
        let (ra, rb) = (&self.report, &after.report);
        out.set("serve.admitted", d(ra.admitted, rb.admitted));
        out.set("serve.throttled_ops", d(ra.throttled, rb.throttled));
        out.set("serve.slo_breaches", d(ra.slo_breaches, rb.slo_breaches));
        out.set("serve.prefetch_shed", d(ra.prefetch_shed, rb.prefetch_shed));
        let (ca, cb) = (&self.cluster, &after.cluster);
        out.set("cluster.ticks", d(self.ticks, after.ticks));
        out.set(
            "cluster.entries_applied",
            d(ca.entries_applied, cb.entries_applied),
        );
        out.set(
            "cluster.entries_deduped",
            d(ca.entries_deduped, cb.entries_deduped),
        );
        out.set("cluster.pages_folded", d(ca.pages_folded, cb.pages_folded));
        out.set("cluster.compaction_ratio", cb.compaction_ratio());
        out.set(
            "cluster.scrub_checked",
            d(ca.scrub_checked, cb.scrub_checked),
        );
        out.set(
            "cluster.lease_renewals",
            d(ca.lease_renewals, cb.lease_renewals),
        );
    }
}

/// What one round of the main stack leaves behind for the run's books.
struct RoundCounts {
    before: (CoreCounts, WrapperCounts),
    after: (CoreCounts, WrapperCounts),
    fingerprint: u64,
    victim_p99: u64,
    series_windows: usize,
}

pub fn run(seed: u64, scale: Scale, traced: bool, quick: bool) -> RunResult {
    let load_before = host::load_avg_1m();
    let mut rounds = Rounds::new(traced, 40 * CHUNKS);
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<(RoundCounts, [Vec<bool>; 2])> = None;
    let mut kept = None;
    for round in 0..PASSES {
        drop(kept.take());
        let started = Instant::now();
        let inputs = Inputs::generate(seed, scale);
        let mut stack = Stack::warmed(&inputs, Recorder::RingSeries);
        let setup = started.elapsed();

        let warm_mask = stack.admitted.clone();
        let before = (stack.core_counts(), WrapperCounts::of(&stack.serve));
        let timing = stack.pass(&inputs);
        let counts = RoundCounts {
            before,
            after: (stack.core_counts(), WrapperCounts::of(&stack.serve)),
            fingerprint: stack.serve.fingerprint(),
            victim_p99: stack.serve.tenant_latency(1).map_or(0, |h| h.p99()),
            series_windows: stack.telemetry.series().map_or(0, |s| s.windows.len()),
        };
        let chunk_accesses = inputs.plan.chunk_accesses(&inputs.op_accesses);
        rounds.record(
            round,
            setup,
            &timing,
            &chunk_accesses,
            "ServeRuntime[ring+series]",
            "telemetry.series_tax_ns_per_acc",
        );
        // Every round is the same seed on a fresh stack: the whole report
        // must repeat.
        match &first {
            None => first = Some((counts, [warm_mask, stack.admitted.clone()])),
            Some((round0, _))
                if round0.fingerprint != counts.fingerprint || round0.after.0 != counts.after.0 =>
            {
                problems.push(format!(
                    "round {round} simulated something else than round 0"
                ));
            }
            Some(_) => {}
        }
        if round + 1 == PASSES {
            // Outputs: push everything out, then read every tenant's whole
            // region back through the cluster (below admission, so the
            // aggressor's rate limit cannot hide a byte).
            if stack.serve.sync().is_err() {
                problems.push("final sync failed".to_string());
            }
            let Stack { serve, drivers, .. } = &mut stack;
            for (t, driver) in drivers.iter_mut().enumerate() {
                let base = t as u64 * inputs.tenant_bytes;
                driver.read_back(|at, buf| {
                    serve
                        .cluster_mut()
                        .read_bytes(VirtAddr::new(base + at), buf)
                        .is_ok()
                });
            }
        }
        attempted += stack.drivers.iter().map(|d| d.attempted).sum::<u64>();
        failed +=
            stack.drivers.iter().map(Driver::failed).sum::<u64>() + stack.unexpected_throttles;
        if stack.unexpected_throttles > 0 {
            problems.push(format!(
                "{} ops of tenants without a rate limit were throttled",
                stack.unexpected_throttles
            ));
        }
        kept = Some(inputs);
    }
    let inputs = kept.expect("PASSES > 0");
    let (round0, masks) = first.expect("PASSES > 0");
    let accesses: u64 = inputs.op_accesses.iter().sum();

    let mut layers = Layers::default();
    round0.before.0.delta_into(&round0.after.0, &mut layers);
    round0.before.1.delta_into(&round0.after.1, &mut layers);
    layers.set("serve.victim_p99_sim_ns", round0.victim_p99 as f64);
    layers.set("telemetry.series_windows", round0.series_windows as f64);
    layers.set(
        "driver.chunks",
        rounds.host_times.chunk_ns_per_acc.len() as f64,
    );
    layers.set("driver.accesses_per_pass", accesses as f64);
    layers.set("workloads.events", inputs.events as f64);
    layers.set("driver.validated", 0.0);
    layers.set("driver.ref_err_pct", 0.0);

    let mut warnings = Vec::new();
    if let (Some(log), Some((root_first, root_timing))) = (&mut rounds.spans, &rounds.root) {
        layers.set_driver_rows(
            &rounds.host_times,
            &rounds.with_spans,
            &rounds.without_spans,
        );
        layers.set(
            "workloads.gen_ns_per_event",
            inputs.gen_ns / inputs.events as f64,
        );
        let ledger = Ledger {
            inputs: &inputs,
            masks: [&masks[0], &masks[1]],
            root_first: *root_first,
            root_ns: root_timing.total_ns(),
            fingerprint: round0.fingerprint,
            accesses: accesses as f64,
        };
        let flags = ledger.book(log, &mut layers, &mut problems, &mut warnings);
        layers.set("driver.ledger_flags", f64::from(flags));
        layers.set("driver.ledger_warnings", warnings.len() as f64);
    }

    let sim_ns = (round0.after.0.rt.app_time.as_ns() - round0.before.0.rt.app_time.as_ns()) as f64;
    RunResult {
        workload: "serve_stack",
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
        ref_err_pct: None,
        layers,
        spans: rounds.spans,
        load_before,
    }
}

/// The differential replays of one serve_stack run.
struct Ledger<'a> {
    inputs: &'a Inputs,
    /// Ops the front door admitted in the warm-up and the first timed pass.
    masks: [&'a [bool]; 2],
    root_first: u32,
    root_ns: f64,
    /// `ServeRuntime::fingerprint` after warm-up + one timed pass.
    fingerprint: u64,
    accesses: f64,
}

impl Ledger<'_> {
    /// Warm-up + one timed pass through a fresh stack under `recorder`.
    fn serve_replay(&self, recorder: Recorder) -> (PassTiming, Stack) {
        let mut stack = Stack::warmed(self.inputs, recorder);
        let timing = stack.pass(self.inputs);
        (timing, stack)
    }

    /// The eviction-priority changes the QoS review makes, found by
    /// watching each tenant's region from outside during an (untimed)
    /// run: the levels below must see the same changes at the same ops,
    /// or they would simulate a different FMem.
    fn record_priorities(&self) -> Vec<PriorityChange> {
        let pages_per_tenant = self.inputs.tenant_bytes / PAGE_SIZE_4K;
        let mut current = [0i8; TENANTS as usize];
        let mut changes = Vec::new();
        let mut stack = Stack::build(self.inputs, Recorder::Off);
        for pass in 0..2 {
            stack.pass_observed(self.inputs, |i, serve| {
                let fpga = serve.cluster().inner().fpga();
                for (t, seen) in current.iter_mut().enumerate() {
                    let start_page = t as u64 * pages_per_tenant;
                    let priority = fpga.page_priority(PageNumber(start_page));
                    if priority != *seen {
                        *seen = priority;
                        changes.push(PriorityChange {
                            pass,
                            after_op: i,
                            start_page,
                            end_page: start_page + pages_per_tenant,
                            priority,
                        });
                    }
                }
            });
        }
        changes
    }

    /// `ClusterRuntime` on the admitted ops, the harness calling `tick()`
    /// on the control plane's own op-count cadence so each tick can be
    /// timed. Returns the timed pass and the mean tick time in ns.
    fn cluster_replay(&self, sc: &Scenario, above: Above) -> (PassTiming, f64, RuntimeStats) {
        let cadence = ControlPlaneConfig::default().tick_ops;
        let plane = ControlPlaneConfig {
            tick_ops: 0,
            ..ControlPlaneConfig::default()
        };
        let rt = ClusterRuntime::with_telemetry(sc.config.clone(), plane, Telemetry::disabled())
            .expect("valid configuration");
        let Live {
            mut rt,
            mut driver,
            base,
        } = build(sc, rt, sc.driver());
        // Under ServeRuntime every tenant's grow counted as one op already.
        let (mut counted, mut ticks, mut tick_ns) = (u64::from(TENANTS), 0u64, 0.0);
        let mut priorities = PriorityCursor::new(Some(above));
        let mut timing = None;
        for (pass, mask) in above.masks.iter().enumerate() {
            timing = Some(timed_pass(&sc.ops, sc.plan, |i, op| {
                let set = |c: &PriorityChange, rt: &mut ClusterRuntime| {
                    let (addr, bytes, priority) = priority_range(c, base);
                    rt.set_eviction_priority(addr, bytes, priority);
                };
                if !mask[i] {
                    priorities.due(pass, i, |c| set(c, &mut rt));
                    return;
                }
                driver.issue(&mut rt, base, op);
                counted += 1;
                if counted.is_multiple_of(cadence) {
                    let started = Instant::now();
                    rt.tick();
                    if pass == 1 {
                        tick_ns += started.elapsed().as_nanos() as f64;
                        ticks += 1;
                    }
                }
                priorities.due(pass, i, |c| set(c, &mut rt));
            }));
        }
        (
            timing.expect("two passes ran"),
            tick_ns / ticks.max(1) as f64,
            rt.inner().stats(),
        )
    }

    /// Mean host ns for a memory node to ingest and apply one shipped log
    /// batch, replaying the shipments a journaled `KonaRuntime` produces
    /// for the admitted ops.
    fn node_apply_ns(&self, sc: &Scenario) -> f64 {
        let mut rt = KonaRuntime::new(sc.config.clone()).expect("valid configuration");
        rt.enable_shipment_journal();
        let mut live = build(sc, rt, sc.driver());
        masked_pass(sc, &mut live, Some(self.masks[0]));
        let batch = live.rt.drain_log_shipments();
        let mut nodes: Vec<MemoryNodeRuntime> = (0..sc.config.memory_nodes)
            .map(MemoryNodeRuntime::new)
            .collect();
        let started = Instant::now();
        for (node, at, encoded) in batch.iter() {
            let nr = &mut nodes[node as usize];
            nr.ingest_slice(at, encoded);
            std::hint::black_box(nr.apply());
        }
        started.elapsed().as_nanos() as f64 / batch.len().max(1) as f64
    }

    fn book(
        &self,
        log: &mut SpanLog,
        layers: &mut Layers,
        problems: &mut Vec<String>,
        warnings: &mut Vec<String>,
    ) -> u32 {
        let per_acc = |ns: f64| ns / self.accesses;
        let sc = self.inputs.flattened();

        // Recorder modes, each one level of the stack down from the last.
        let (ring_t, ring) = self.serve_replay(Recorder::Ring);
        let ring_fp = ring.serve.fingerprint();
        let ring_tel = ring.telemetry.clone();
        drop(ring);
        let (off_t, off) = self.serve_replay(Recorder::Off);
        let (off_fp, off_inner) = (off.serve.fingerprint(), off.inner_stats());
        drop(off);
        let (causal_t, causal) = self.serve_replay(Recorder::Causal);
        let causal_fp = causal.serve.fingerprint();
        drop(causal);
        let ring = log.record_pass(
            "ServeRuntime[ring]",
            "telemetry.ring_tax_ns_per_acc",
            &ring_t,
            Some(self.root_first),
        );
        let off = log.record_pass(
            "ServeRuntime[off]",
            "serve.self_ns_per_acc",
            &off_t,
            Some(ring),
        );
        log.record_pass("ServeRuntime[causal]", "whatif.causal", &causal_t, None);
        layers.set(
            "telemetry.causal_tax_ns_per_acc",
            per_acc(causal_t.total_ns() - off_t.total_ns()),
        );
        let reproduced = [ring_fp, off_fp, causal_fp]
            .iter()
            .all(|fp| *fp == self.fingerprint);
        if !reproduced {
            problems.push(format!(
                "a recorder changed ServeReport::fingerprint: ring+series {:#x}, ring {ring_fp:#x}, off {off_fp:#x}, causal {causal_fp:#x}",
                self.fingerprint
            ));
        }
        layers.set(
            "telemetry.fingerprint_match",
            f64::from(u8::from(reproduced)),
        );
        book_ring_rows(&ring_tel, self.accesses, layers);
        drop(ring_tel);
        layers.set("telemetry.noop_call_ns", noop_call_ns());
        layers.set("serve.token_bucket_ns_per_admit", token_bucket_ns());

        // Down the wrapper stack, on the ops the front door admitted and
        // under the eviction priorities its QoS review set.
        let priorities = self.record_priorities();
        let above = Above {
            masks: self.masks,
            priorities: &priorities,
        };
        let mut flags = 0;
        let (cluster_t, tick_ns, cluster_inner) = self.cluster_replay(&sc, above);
        if cluster_inner != off_inner {
            flags += 1;
            problems.push(format!(
                "the ClusterRuntime replay simulated something else than the cluster under ServeRuntime: {cluster_inner:?} vs {off_inner:?}"
            ));
        }
        let cluster = log.record_pass(
            "ClusterRuntime",
            "cluster.self_ns_per_acc",
            &cluster_t,
            Some(off),
        );
        layers.set("cluster.tick_ns", tick_ns);
        layers.set("cluster.node_apply_ns_per_batch", self.node_apply_ns(&sc));

        let rt = KonaRuntime::new(sc.config.clone()).expect("valid configuration");
        let mut core = build(&sc, rt, sc.driver());
        let mut cursor = PriorityCursor::new(Some(above));
        let mut core_t = None;
        for (pass, mask) in self.masks.iter().enumerate() {
            let Live { rt, driver, base } = &mut core;
            core_t = Some(timed_pass(&sc.ops, sc.plan, |i, op| {
                if mask[i] {
                    driver.issue(rt, *base, op);
                }
                cursor.due(pass, i, |c| {
                    let (addr, bytes, priority) = priority_range(c, *base);
                    rt.set_eviction_priority(addr, bytes, priority);
                });
            }));
        }
        let core_t = core_t.expect("two passes ran");
        let core_first = log.record_pass(
            "KonaRuntime",
            "core.runtime_self_ns_per_acc",
            &core_t,
            Some(cluster),
        );

        let slabs = core.rt.slab_copies();
        let ctx = LedgerCtx {
            sc: &sc,
            slabs: &slabs,
            base: core.base,
            root_first: core_first,
            root_ns: core_t.total_ns(),
            accesses: self.accesses,
            counts_after_pass: CoreCounts::of(&mut core.rt),
        };
        drop(core);
        flags += core_ledger(&ctx, Some(above), log, layers, problems);
        book_self_times(
            log,
            self.accesses,
            self.root_ns,
            ctx.root_ns,
            layers,
            problems,
            warnings,
        );
        flags
    }
}

/// The cluster-address range and priority of a change recorded in pages.
fn priority_range(change: &PriorityChange, base: u64) -> (VirtAddr, u64, i8) {
    (
        VirtAddr::new(base + change.start_page * PAGE_SIZE_4K),
        (change.end_page - change.start_page) * PAGE_SIZE_4K,
        change.priority,
    )
}

/// `TokenBucket::admit` on the aggressor's settings, simulated time
/// advancing a microsecond per call.
fn token_bucket_ns() -> f64 {
    const CALLS: u64 = 2_000_000;
    let mut bucket = TokenBucket::new(AGGRESSOR_RATE_PER_MS, AGGRESSOR_BURST);
    let started = Instant::now();
    let mut admitted = 0u64;
    for i in 0..CALLS {
        admitted += u64::from(bucket.admit(Nanos::from_ns(std::hint::black_box(i) * 1_000)));
    }
    std::hint::black_box(admitted);
    started.elapsed().as_nanos() as f64 / CALLS as f64
}
