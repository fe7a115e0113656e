//! The Kona runtime and the [`RemoteMemoryRuntime`] interface.

use crate::alloc::SlabAllocator;
use crate::config::{ClusterConfig, DataMode};
use crate::controller::{Controller, NodeOccupancy};
use crate::eviction::EvictionHandler;
use crate::failure::{FailurePolicy, FailureState, McEvent};
use crate::metrics::{names, RuntimeCounters};
use crate::poller::Poller;
use crate::stats::RuntimeStats;
use kona_coherence::AgentId;
use kona_fpga::{CpuAccessOutcome, FpgaConfig, KonaFpga, VictimPage};
use kona_net::{Fabric, FaultInjector, NetworkModel, WorkRequest};
use kona_telemetry::{EventKind, Histogram, OpKind, Telemetry, Track};
use kona_trace::TraceEvent;
use kona_types::{
    AccessKind, FxHashMap, KonaError, MemAccess, Nanos, PageNumber, RemoteAddr, Result, VfMemAddr,
    VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE_4K,
};
use std::collections::BTreeMap;

/// The common interface of Kona and the VM baselines.
///
/// Both runtimes are driven identically (same traces, same allocation
/// calls, same eviction policy), so measured differences isolate the
/// mechanism — the paper's §6.1 methodology.
pub trait RemoteMemoryRuntime {
    /// Runtime name for reports (e.g. `"Kona"`, `"Kona-VM"`).
    fn name(&self) -> &str;

    /// Allocates `bytes` of transparently-remote memory.
    ///
    /// # Errors
    ///
    /// Fails when the rack is out of remote memory.
    fn allocate(&mut self, bytes: u64) -> Result<VirtAddr>;

    /// Returns an allocation of `bytes` at `addr`.
    fn free(&mut self, addr: VirtAddr, bytes: u64);

    /// Performs one application memory access, returning the simulated
    /// time charged to the application.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses or unrecoverable network failures.
    fn access(&mut self, access: MemAccess) -> Result<Nanos>;

    /// Writes `data` at `addr` (access + data movement).
    ///
    /// # Errors
    ///
    /// As for [`RemoteMemoryRuntime::access`].
    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<Nanos>;

    /// Reads into `buf` from `addr` (access + data movement).
    ///
    /// # Errors
    ///
    /// As for [`RemoteMemoryRuntime::access`].
    fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<Nanos>;

    /// Pushes all dirty local state to remote memory; returns the time
    /// charged to the application.
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    fn sync(&mut self) -> Result<Nanos>;

    /// Accumulated statistics.
    fn stats(&self) -> RuntimeStats;

    /// Replays a trace through [`RemoteMemoryRuntime::access`], returning
    /// total application time (trace timestamps are ignored; the runtime's
    /// simulated costs define time).
    ///
    /// # Errors
    ///
    /// Stops at the first access error.
    fn run_trace(&mut self, events: &[TraceEvent]) -> Result<Nanos> {
        let mut total = Nanos::ZERO;
        for e in events {
            total += self.access(e.access)?;
        }
        Ok(total)
    }
}

#[derive(Debug, Clone)]
struct SlabInfo {
    len: u64,
    replicas: Vec<RemoteAddr>,
}

/// The coherence-based remote-memory runtime (the paper's contribution).
///
/// Virtual addresses map identity onto VFMem: the paper keeps all remote
/// data in VFMem and everything else in CMem; our simulated applications
/// allocate only remote data, so the identity map loses nothing.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct KonaRuntime {
    config: ClusterConfig,
    fpga: KonaFpga,
    fabric: Fabric,
    controller: Controller,
    allocator: SlabAllocator,
    eviction: EvictionHandler,
    poller: Poller,
    failure: FailureState,
    telemetry: Telemetry,
    counters: RuntimeCounters,
    fetch_ns: Histogram,
    vfmem_cursor: u64,
    slabs: BTreeMap<u64, SlabInfo>,
    /// Page data for FMem-resident pages (Tracked mode only).
    local_pages: FxHashMap<u64, Vec<u8>>,
    next_wr_id: u64,
    /// Whether degraded mode is currently applied to the components
    /// (prefetch shedding, widened eviction batching).
    degraded_active: bool,
    /// QoS override: prefetch shedding forced on by the serving front end
    /// (graceful degradation of a low-priority tenant), independent of
    /// the failure-driven degraded mode.
    qos_shed: bool,
    /// Whether a new node abandonment immediately triggers
    /// [`KonaRuntime::repair_lost_nodes`] (the cluster control plane
    /// turns this on; off by default to keep single-rack behaviour
    /// identical to earlier revisions).
    auto_repair: bool,
    /// Black-box dumps (flight traces + fault log) captured at recovery
    /// milestones; bounded to the most recent few.
    flight_dumps: Vec<String>,
    /// Abandoned-flush count already reflected in `flight_dumps`.
    seen_abandoned: u64,
}

impl KonaRuntime {
    /// Builds a runtime over a fresh simulated rack.
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        Self::with_telemetry(config, Telemetry::disabled())
    }

    /// Builds a runtime whose components all report into `telemetry` —
    /// metrics land in its registry, and span events go to its recorder
    /// (pass [`Telemetry::with_tracing`] for a Perfetto-exportable
    /// timeline).
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn with_telemetry(config: ClusterConfig, telemetry: Telemetry) -> Result<Self> {
        config.validate()?;
        let mut fabric = Fabric::new(NetworkModel::connectx5());
        let mut controller = Controller::new(config.slab_size.bytes());
        controller.set_policy(config.placement.build(config.retry.seed ^ 0x70AC));
        let data_capacity = config.node_capacity.bytes();
        let log_capacity = config.log_capacity.bytes();
        for id in 0..config.memory_nodes {
            fabric.add_node(id, data_capacity + log_capacity);
            fabric.register(id, 0, data_capacity)?;
            fabric.register(id, data_capacity, log_capacity)?;
            controller.register_node(id, data_capacity);
        }
        fabric.set_telemetry(&telemetry);
        if let Some(plan) = &config.fault_plan {
            fabric.set_fault_injector(FaultInjector::new(plan.clone()));
        }
        let mut fpga = KonaFpga::new(FpgaConfig {
            cpu_agents: config.cpu_agents.max(1),
            cpu_cache_lines: config.cpu_cache_lines,
            fmem_pages: config.local_cache_pages,
            fmem_ways: config.fmem_ways,
            prefetcher: config.prefetcher.clone(),
        });
        fpga.set_telemetry(&telemetry);
        let mut eviction = EvictionHandler::new(data_capacity, log_capacity as usize);
        eviction.set_telemetry(&telemetry);
        eviction.set_retry_policy(config.retry.clone());
        // Losing more than `replicas - 1` nodes would leave some page with
        // no up-to-date copy, so that is the abandonment budget.
        eviction.set_max_node_losses(config.replicas.saturating_sub(1));
        let failure = FailureState::with_config(
            FailurePolicy::default(),
            config.degraded,
            config.retry.seed,
        );
        Ok(KonaRuntime {
            eviction,
            fpga,
            fabric,
            controller,
            allocator: SlabAllocator::new(),
            poller: Poller::new(),
            failure,
            counters: RuntimeCounters::new(&telemetry),
            fetch_ns: telemetry.histogram(names::FETCH_NS),
            telemetry,
            vfmem_cursor: 0,
            slabs: BTreeMap::new(),
            local_pages: FxHashMap::default(),
            config,
            next_wr_id: 0,
            degraded_active: false,
            qos_shed: false,
            auto_repair: false,
            flight_dumps: Vec::new(),
            seen_abandoned: 0,
        })
    }

    /// The telemetry handle the runtime reports into (clone it to export
    /// metrics or the span timeline).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The fabric, for failure injection in tests and examples.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The FPGA model, for inspection.
    pub fn fpga(&self) -> &KonaFpga {
        &self.fpga
    }

    /// Eviction-phase breakdown (Fig 11c).
    pub fn eviction_breakdown(&self) -> crate::eviction::EvictionBreakdown {
        self.eviction.breakdown()
    }

    /// Sets the failure policy (§4.5).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.failure.set_policy(policy);
    }

    /// Selects the eviction copy engine (§4.2's optional `copy-dirty-data`
    /// hardware primitive).
    pub fn set_copy_engine(&mut self, engine: crate::eviction::CopyEngine) {
        self.eviction.set_copy_engine(engine);
    }

    /// Machine-check events retained so far (bounded ring; see
    /// [`FailureState::event_capacity`]).
    pub fn mce_events(&self) -> Vec<McEvent> {
        self.failure.events().copied().collect()
    }

    /// The failure bookkeeping (policy counts, degraded windows).
    pub fn failure_state(&self) -> &FailureState {
        &self.failure
    }

    /// Whether degraded mode is currently active (prefetch shedding plus
    /// widened eviction batching).
    pub fn is_degraded(&self) -> bool {
        self.degraded_active
    }

    /// Eviction counters (flush retries, abandoned nodes, batching).
    pub fn eviction_stats(&self) -> crate::eviction::EvictionStats {
        self.eviction.stats()
    }

    /// Re-applies degraded mode to the components when the state machine
    /// has flipped since the last check.
    fn update_degraded(&mut self) {
        let degraded = self.failure.is_degraded(self.fabric.now());
        if degraded != self.degraded_active {
            self.degraded_active = degraded;
            if degraded {
                self.counters.degraded_entries.inc();
                self.note_flight_dump("degraded_mode_entered");
            }
            self.fpga.set_prefetch_shedding(degraded || self.qos_shed);
            self.eviction.set_degraded(degraded);
        }
    }

    /// QoS hook: forces prefetch shedding on or off for the current
    /// caller, on top of the failure-driven degraded mode (shedding stays
    /// on while either wants it). The serving front end brackets a shed
    /// tenant's operations with this so only that tenant's speculative
    /// traffic is dropped — demand fetches are never affected.
    pub fn set_prefetch_shedding(&mut self, shed: bool) {
        self.qos_shed = shed;
        self.fpga.set_prefetch_shedding(shed || self.degraded_active);
    }

    /// QoS hook: assigns FMem eviction priority `priority` to the pages
    /// backing `[base, base + bytes)`. Higher priority means protected;
    /// when an FMem set overflows, the lowest-priority way is evicted
    /// first (ties fall back to LRU, so priority 0 everywhere is exactly
    /// the historical policy). Setting 0 restores the default.
    pub fn set_eviction_priority(&mut self, base: VirtAddr, bytes: u64, priority: i8) {
        if bytes == 0 {
            return;
        }
        let start = base.page_number().raw();
        let end = VirtAddr::new(base.raw() + bytes - 1).page_number().raw() + 1;
        self.fpga.set_page_priority(start, end, priority);
    }

    /// Black-box dumps captured whenever recovery abandoned a node or
    /// degraded mode tripped: the flight recorder's last completed traces
    /// plus the fault log, as JSON. Oldest first, bounded to the last
    /// [`KonaRuntime::FLIGHT_DUMPS_MAX`].
    pub fn flight_dumps(&self) -> &[String] {
        &self.flight_dumps
    }

    /// How many black-box dumps are retained.
    pub const FLIGHT_DUMPS_MAX: usize = 4;

    /// Captures a black-box dump if causal tracing is on.
    fn note_flight_dump(&mut self, reason: &str) {
        if !self.telemetry.causal_enabled() {
            return;
        }
        let mut lost: Vec<u32> = self.eviction.lost_nodes().iter().copied().collect();
        lost.sort_unstable();
        let mces: Vec<String> = self
            .failure
            .events()
            .map(|e| format!("{{\"addr\":{},\"at_ns\":{}}}", e.addr.raw(), e.at.as_ns()))
            .collect();
        let fs = self.fabric.fault_stats();
        let dump = format!(
            "{{\"reason\":\"{reason}\",\"sim_now_ns\":{},\"lost_nodes\":{lost:?},\
             \"mce_events\":[{}],\"fault_log\":{{\"dropped\":{},\"corrupted\":{},\
             \"timed_out\":{},\"node_down_rejections\":{},\"spiked_chains\":{}}},\
             \"traces\":{}}}",
            self.fabric.now().as_ns(),
            mces.join(","),
            fs.dropped,
            fs.corrupted,
            fs.timed_out,
            fs.node_down_rejections,
            fs.spiked_chains,
            self.telemetry.flight_json(),
        );
        if self.flight_dumps.len() == Self::FLIGHT_DUMPS_MAX {
            self.flight_dumps.remove(0);
        }
        self.flight_dumps.push(dump);
    }

    /// Captures a dump when the eviction handler abandoned another node
    /// since the last check.
    fn check_abandoned(&mut self) {
        let abandoned = self.eviction.stats().abandoned_flushes;
        if abandoned > self.seen_abandoned {
            self.seen_abandoned = abandoned;
            self.note_flight_dump("node_abandoned");
            if self.auto_repair {
                // Best-effort: grant exhaustion leaves the affected slabs
                // observably under-replicated for the control plane's
                // next sweep to retry.
                let _ = self.repair_lost_nodes();
            }
        }
    }

    /// Performs an access issued by a specific CPU core (cache agent).
    /// Threads sharing lines exercise the full MESI protocol: writes by
    /// one core invalidate the others' copies, and the resulting dirty
    /// writebacks reach the FPGA's tracker like any others.
    ///
    /// # Errors
    ///
    /// As for [`RemoteMemoryRuntime::access`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is not below the configured
    /// [`ClusterConfig::cpu_agents`].
    pub fn access_from_core(&mut self, core: u32, access: MemAccess) -> Result<Nanos> {
        let mut elapsed = Nanos::ZERO;
        let start = access.addr.line_start().raw();
        let end = access.end().raw();
        let mut line = start;
        loop {
            elapsed += self.access_line_from(AgentId(core), VfMemAddr::new(line), access.kind)?;
            line += CACHE_LINE_SIZE;
            if line >= end {
                break;
            }
        }
        if access.kind.is_write() {
            self.counters.app_dirty_bytes.add(u64::from(access.len));
        }
        self.counters.charge_app(elapsed);
        self.telemetry.observe_time(self.fabric.now());
        Ok(elapsed)
    }

    fn wr_id(&mut self) -> u64 {
        self.next_wr_id += 1;
        self.next_wr_id
    }

    /// Resolves the replica addresses backing `page`, if any.
    fn replicas_for(&self, page: PageNumber) -> Vec<RemoteAddr> {
        let base = page.base_vfmem().raw();
        if let Some((&slab_base, info)) = self.slabs.range(..=base).next_back() {
            if base < slab_base + info.len {
                return info
                    .replicas
                    .iter()
                    .map(|r| r.add(base - slab_base))
                    .collect();
            }
        }
        Vec::new()
    }

    /// Grabs a slab (plus replicas) from the controller and wires it up,
    /// handing the space to the fine-grained allocator.
    fn grow(&mut self) -> Result<()> {
        let (base, len) = self.grow_reserved()?;
        self.allocator.add_slab(base, len);
        Ok(())
    }

    /// Grabs a slab (plus replicas) and wires it into translation without
    /// exposing it to the fine-grained allocator (whole-slab allocations).
    fn grow_reserved(&mut self) -> Result<(VfMemAddr, u64)> {
        let primary = self.controller.allocate_slab()?;
        let mut replicas = Vec::new();
        let mut used = vec![primary.remote.node()];
        for _ in 1..self.config.replicas {
            let grant = self.controller.allocate_slab_excluding(&used)?;
            used.push(grant.remote.node());
            replicas.push(grant.remote);
        }
        let base = VfMemAddr::new(self.vfmem_cursor);
        self.vfmem_cursor += primary.len;
        self.fpga
            .translation_mut()
            .register(base, primary.len, primary.remote)?;
        self.slabs.insert(
            base.raw(),
            SlabInfo {
                len: primary.len,
                replicas,
            },
        );
        Ok((base, primary.len))
    }

    /// Fetches `page` from remote memory with the full §4.5 recovery
    /// pipeline: per-target retries with exponential backoff and jitter,
    /// failover from the primary to replicas, then the configured failure
    /// policy if every copy stays unreachable.
    fn fetch_page(&mut self, page: PageNumber) -> Result<Nanos> {
        self.update_degraded();
        match self.fetch_page_attempt(page) {
            Ok(t) => Ok(t),
            // The policy governs *network* failures; structural errors
            // (no translation, unregistered memory) propagate untouched.
            Err(err) if err.is_transient() => self.fetch_page_failed(page, err),
            Err(err) => Err(err),
        }
    }

    /// One pass over all targets (primary first, replicas on failover),
    /// each retried under the cluster's [`RetryPolicy`]. Returns the last
    /// error when every copy is unreachable; policy handling is the
    /// caller's job.
    fn fetch_page_attempt(&mut self, page: PageNumber) -> Result<Nanos> {
        // Read-your-writes: if the page has unflushed log entries, flush
        // them so the fetched copy is current.
        let mut elapsed = Nanos::ZERO;
        if self.eviction.is_pending(page.raw()) {
            elapsed += self
                .eviction
                .flush_all(&mut self.fabric, &mut self.poller)?;
            self.update_degraded();
            self.check_abandoned();
        }

        let primary = self.fpga.translate_page(page)?;
        let mut targets = vec![primary];
        targets.extend(self.replicas_for(page));
        // Never read from a node whose writeback was abandoned — its copy
        // is stale. The stable sort keeps primary-first among the healthy.
        if !self.eviction.lost_nodes().is_empty() {
            let lost = self.eviction.lost_nodes().clone();
            targets.sort_by_key(|t| lost.contains(&t.node()));
        }

        let retry = self.config.retry.clone();
        let mut last_err = None;
        'targets: for (i, target) in targets.iter().enumerate() {
            let mut attempt = 0u32;
            // Per-verb deadline: stop burning backoff on one target once
            // its accumulated delay exceeds the budget; fail over instead.
            let mut target_delay = Nanos::ZERO;
            loop {
                let wr_id = self.wr_id();
                let wr = WorkRequest::read(wr_id, *target, PAGE_SIZE_4K).signaled();
                match self.poller.post_and_poll(&mut self.fabric, vec![wr]) {
                    Ok((time, completions)) => {
                        if i > 0 {
                            self.counters.failovers.inc();
                            // Failovers stay visible under the legacy MCE
                            // counter too (pre-failover dashboards).
                            self.counters.mce_events.inc();
                        }
                        if self.config.data_mode == DataMode::Tracked {
                            let data = completions
                                .first()
                                .map(|c| c.data.to_vec())
                                .unwrap_or_else(|| vec![0; PAGE_SIZE_4K as usize]);
                            self.local_pages.insert(page.raw(), data);
                        }
                        self.counters.remote_fetches.inc();
                        self.fetch_ns.record(time.as_ns());
                        return Ok(elapsed + time);
                    }
                    Err(e)
                        if e.is_transient()
                            && attempt + 1 < retry.max_attempts
                            && target_delay < retry.verb_deadline =>
                    {
                        if let Some(node) = e.failed_node() {
                            self.failure.note_transient(node, self.fabric.now());
                        }
                        self.counters.retries.inc();
                        let backoff = retry.backoff_for(attempt, self.failure.rng_mut());
                        attempt += 1;
                        self.counters.backoff_ns.add(backoff.as_ns());
                        // Backing off advances simulated time, so a
                        // scheduled flap can clear while we wait.
                        self.fabric.advance_time(backoff);
                        self.telemetry.span_leaf_inherit(EventKind::Backoff, backoff);
                        elapsed += backoff;
                        target_delay += backoff;
                        self.update_degraded();
                    }
                    Err(e) => {
                        if e.is_transient() {
                            if let Some(node) = e.failed_node() {
                                self.failure.note_transient(node, self.fabric.now());
                                self.update_degraded();
                            }
                        }
                        last_err = Some(e);
                        continue 'targets;
                    }
                }
            }
        }
        Err(last_err.expect("at least one target attempted"))
    }

    /// Applies the configured [`FailurePolicy`] after every copy of
    /// `page` proved unreachable.
    fn fetch_page_failed(&mut self, page: PageNumber, err: KonaError) -> Result<Nanos> {
        let addr = page.base_vfmem();
        match self.failure.policy() {
            FailurePolicy::HandleMce => {
                // §4.5: the coherence timeout surfaces as a machine-check
                // exception; record it and report to the operator.
                self.telemetry.retag_trace(OpKind::Recovery);
                self.telemetry.instant(Track::App, EventKind::Mce);
                self.failure.record(addr, self.counters.app_time());
                self.counters.mce_events.inc();
                Err(KonaError::CoherenceTimeout {
                    addr,
                    deadline_ns: self.config.retry.verb_deadline.as_ns(),
                })
            }
            FailurePolicy::PageFaultFallback => {
                // §4.5: the page is marked not-present so software regains
                // control. Charge a fault's worth of time; when the fabric
                // knows the outage's end (a scheduled flap), wait it out
                // and retry the fetch ourselves.
                self.telemetry.retag_trace(OpKind::Recovery);
                self.counters.charge_app(Nanos::micros(3));
                self.telemetry
                    .span_leaf(Track::App, EventKind::PageFault, Nanos::micros(3));
                self.failure.note_fallback();
                if let Some(node) = err.failed_node() {
                    if let Some(back_at) = self.fabric.node_back_at(node) {
                        let now = self.fabric.now();
                        let wait = back_at.saturating_sub(now);
                        self.fabric.advance_time(wait);
                        self.telemetry
                            .span_leaf(Track::App, EventKind::Backoff, wait);
                        self.counters.fallback_waits.inc();
                        self.update_degraded();
                        return self
                            .fetch_page_attempt(page)
                            .map(|t| t + wait);
                    }
                }
                Err(err)
            }
        }
    }

    fn handle_victim(&mut self, victim: &VictimPage) -> Result<()> {
        let page_data = self.local_pages.get(&victim.page.raw());
        if self.config.data_mode == DataMode::Tracked && page_data.is_none() && victim.is_dirty()
        {
            // Degenerate (zero-cache) configurations write data through
            // directly; there is nothing to ship from a local copy.
            self.local_pages.remove(&victim.page.raw());
            return Ok(());
        }
        let primary = self.fpga.translate_page(victim.page)?;
        let replicas = self.replicas_for(victim.page);
        let time = self.eviction.evict_page(
            victim,
            page_data.map(Vec::as_slice),
            primary,
            &replicas,
            &mut self.fabric,
            &mut self.poller,
        )?;
        // Eviction runs on its own thread, concurrent with the app.
        self.counters.charge_background(time);
        self.local_pages.remove(&victim.page.raw());
        self.check_abandoned();
        Ok(())
    }

    fn access_line(&mut self, addr: VfMemAddr, kind: AccessKind) -> Result<Nanos> {
        self.access_line_from(AgentId(0), addr, kind)
    }

    fn access_line_from(
        &mut self,
        agent: AgentId,
        addr: VfMemAddr,
        kind: AccessKind,
    ) -> Result<Nanos> {
        if !self.telemetry.causal_enabled() {
            return self.access_line_inner(agent, addr, kind);
        }
        self.telemetry.trace_begin(OpKind::Access);
        let res = self.access_line_inner(agent, addr, kind);
        self.telemetry
            .trace_end(*res.as_ref().unwrap_or(&Nanos::ZERO));
        res
    }

    fn access_line_inner(
        &mut self,
        agent: AgentId,
        addr: VfMemAddr,
        kind: AccessKind,
    ) -> Result<Nanos> {
        match self.fpga.cpu_access_from(agent, addr, kind) {
            CpuAccessOutcome::CpuCacheHit => {
                self.counters.local_hits.inc();
                let t = self.config.latency.cpu_cache_hit;
                self.telemetry.span_leaf(Track::App, EventKind::LocalHit, t);
                Ok(t)
            }
            CpuAccessOutcome::FMemHit => {
                self.counters.local_hits.inc();
                let t = self.config.latency.fmem_fill;
                self.telemetry.span_leaf(Track::App, EventKind::FmemFill, t);
                Ok(t)
            }
            CpuAccessOutcome::RemoteFetch {
                page,
                victims,
                prefetch,
            } => {
                for victim in &victims {
                    self.handle_victim(victim)?;
                }
                let fetch_span = self.telemetry.span_open(Track::App, EventKind::RemoteFetch);
                let fetch = match self.fetch_page(page) {
                    Ok(t) => {
                        self.telemetry.span_close(fetch_span, t);
                        t
                    }
                    Err(e) => {
                        self.telemetry.span_close(fetch_span, Nanos::ZERO);
                        return Err(e);
                    }
                };
                for p in prefetch {
                    // Prefetches run off the critical path.
                    let pf_span = self
                        .telemetry
                        .span_open(Track::Background, EventKind::Prefetch);
                    match self.fetch_page(p) {
                        Ok(t) => {
                            self.telemetry.span_close(pf_span, t);
                            self.counters.charge_background(t);
                            self.counters.prefetches.inc();
                        }
                        Err(e) => {
                            self.telemetry.span_close(pf_span, Nanos::ZERO);
                            return Err(e);
                        }
                    }
                }
                let fill = self.config.latency.fmem_fill;
                self.telemetry.span_leaf(Track::App, EventKind::FmemFill, fill);
                Ok(fetch + fill)
            }
        }
    }

    /// Direct write-through for pages that cannot be held locally
    /// (degenerate zero-cache configurations).
    fn write_through(&mut self, addr: VfMemAddr, data: &[u8]) -> Result<Nanos> {
        let remote = self.fpga.translate_page(addr.page_number())?;
        let wr_id = self.wr_id();
        let wr = WorkRequest::write(
            wr_id,
            remote.add(addr.page_offset()),
            data.to_vec(),
        )
        .signaled();
        let (time, _) = self.poller.post_and_poll(&mut self.fabric, vec![wr])?;
        Ok(time)
    }

    fn read_through(&mut self, addr: VfMemAddr, buf: &mut [u8]) -> Result<Nanos> {
        let remote = self.fpga.translate_page(addr.page_number())?;
        let wr_id = self.wr_id();
        let wr = WorkRequest::read(wr_id, remote.add(addr.page_offset()), buf.len() as u64)
            .signaled();
        let (time, completions) = self.poller.post_and_poll(&mut self.fabric, vec![wr])?;
        if let Some(c) = completions.first() {
            buf.copy_from_slice(&c.data);
        }
        Ok(time)
    }
}

impl RemoteMemoryRuntime for KonaRuntime {
    fn name(&self) -> &str {
        "Kona"
    }

    fn allocate(&mut self, bytes: u64) -> Result<VirtAddr> {
        // Requests near or above the slab size are served as whole
        // contiguous slabs (the controller's coarse granularity); smaller
        // objects go through AllocLib's size-class allocator.
        if bytes > self.config.slab_size.bytes() / 2 {
            let base = self.vfmem_cursor;
            let slabs = bytes.div_ceil(self.config.slab_size.bytes());
            for _ in 0..slabs {
                self.grow_reserved()?;
            }
            return Ok(VirtAddr::new(base));
        }
        while self.allocator.needs_slab(bytes) {
            self.grow()?;
        }
        let addr = self.allocator.allocate(bytes)?;
        Ok(VirtAddr::new(addr.raw()))
    }

    fn free(&mut self, addr: VirtAddr, bytes: u64) {
        // Mirror of `allocate`: whole-slab allocations hand their slabs
        // back to the rack controller; AllocLib objects go back on their
        // size-class free list.
        if bytes > self.config.slab_size.bytes() / 2 {
            self.reclaim_slabs(addr, bytes);
            return;
        }
        self.allocator.free(VfMemAddr::new(addr.raw()), bytes);
    }

    fn access(&mut self, access: MemAccess) -> Result<Nanos> {
        let mut elapsed = Nanos::ZERO;
        let start = access.addr.line_start().raw();
        let end = access.end().raw();
        let mut line = start;
        loop {
            elapsed += self.access_line(VfMemAddr::new(line), access.kind)?;
            line += CACHE_LINE_SIZE;
            if line >= end {
                break;
            }
        }
        if access.kind.is_write() {
            self.counters.app_dirty_bytes.add(u64::from(access.len));
        }
        self.counters.charge_app(elapsed);
        self.telemetry.observe_time(self.fabric.now());
        Ok(elapsed)
    }

    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<Nanos> {
        // Access and data movement interleave per cache line: the line's
        // bytes must reach the local page copy *before* the next line's
        // fetch can evict (and ship) this page, or eviction would write
        // stale data over the remote copy.
        let mut elapsed = Nanos::ZERO;
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            // Chunk: up to the end of the current cache line.
            let in_line = (CACHE_LINE_SIZE - a.raw() % CACHE_LINE_SIZE) as usize;
            let chunk = in_line.min(data.len() - off);
            elapsed += self.access_line(VfMemAddr::new(a.line_start().raw()), AccessKind::Write)?;
            if self.config.data_mode == DataMode::Tracked {
                let page = a.page_number();
                if let Some(pd) = self.local_pages.get_mut(&page.raw()) {
                    let s = a.page_offset() as usize;
                    pd[s..s + chunk].copy_from_slice(&data[off..off + chunk]);
                } else {
                    let t =
                        self.write_through(VfMemAddr::new(a.raw()), &data[off..off + chunk])?;
                    elapsed += t;
                }
            }
            off += chunk;
        }
        self.counters.app_dirty_bytes.add(data.len() as u64);
        self.counters.charge_app(elapsed);
        self.telemetry.observe_time(self.fabric.now());
        Ok(elapsed)
    }

    fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<Nanos> {
        // Interleaved per line, mirroring write_bytes: the line's bytes are
        // copied out while its page is guaranteed resident.
        let mut elapsed = Nanos::ZERO;
        let len = buf.len();
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let in_line = (CACHE_LINE_SIZE - a.raw() % CACHE_LINE_SIZE) as usize;
            let chunk = in_line.min(len - off);
            elapsed += self.access_line(VfMemAddr::new(a.line_start().raw()), AccessKind::Read)?;
            if self.config.data_mode == DataMode::Tracked {
                let page = a.page_number();
                if let Some(pd) = self.local_pages.get(&page.raw()) {
                    let s = a.page_offset() as usize;
                    buf[off..off + chunk].copy_from_slice(&pd[s..s + chunk]);
                } else {
                    let t = self.read_through(
                        VfMemAddr::new(a.raw()),
                        &mut buf[off..off + chunk],
                    )?;
                    elapsed += t;
                }
            }
            off += chunk;
        }
        self.counters.charge_app(elapsed);
        self.telemetry.observe_time(self.fabric.now());
        Ok(elapsed)
    }

    fn sync(&mut self) -> Result<Nanos> {
        self.sync_traced(Self::sync_inner)
    }

    fn stats(&self) -> RuntimeStats {
        // Derived entirely from the registry: the eviction handler bumps
        // the shared pages-evicted / writeback-bytes counters itself.
        self.counters.to_stats()
    }
}

impl KonaRuntime {
    /// Runs `walk` as one traced `Sync` operation.
    fn sync_traced(&mut self, walk: fn(&mut Self) -> Result<Nanos>) -> Result<Nanos> {
        let res = if !self.telemetry.causal_enabled() {
            walk(self)
        } else {
            self.telemetry.trace_begin(OpKind::Sync);
            let res = walk(self);
            self.telemetry
                .trace_end(*res.as_ref().unwrap_or(&Nanos::ZERO));
            res
        };
        self.telemetry.observe_time(self.fabric.now());
        res
    }

    fn sync_inner(&mut self) -> Result<Nanos> {
        // Only pages the tracker or a CPU cache knows to be dirty need
        // their lines snooped; the rest of FMem is accounted in bulk.
        let candidates = self.fpga.dirty_candidate_pages();
        self.sync_pages(|page| candidates.contains(&page.raw()))
    }

    /// The reference `sync` the equivalence tests compare against: every
    /// FMem-resident page gets the full 64-line snoop.
    #[cfg(test)]
    fn sync_every_page(&mut self) -> Result<Nanos> {
        self.sync_traced(|rt| rt.sync_pages(|_| true))
    }

    /// Writes back dirty lines of pages still resident in FMem, walking
    /// them in [`KonaFpga::resident_pages_list`] order. `may_be_dirty`
    /// must hold for every page with a tracked or CPU-cached dirty line.
    fn sync_pages(&mut self, may_be_dirty: impl Fn(PageNumber) -> bool) -> Result<Nanos> {
        self.update_degraded();
        let mut elapsed = Nanos::ZERO;
        let resident: Vec<PageNumber> = self.fpga.resident_pages_list();
        for page in resident {
            if !may_be_dirty(page) {
                self.fpga.snoop_clean_page(page);
                continue;
            }
            let dirty = self.fpga.snoop_page_dirty(page);
            if !dirty.any() {
                continue;
            }
            let victim = VictimPage {
                page,
                dirty_lines: dirty,
            };
            let page_data = self.local_pages.get(&page.raw());
            let primary = self.fpga.translate_page(page)?;
            let replicas = self.replicas_for(page);
            elapsed += self.eviction.evict_page(
                &victim,
                page_data.map(Vec::as_slice),
                primary,
                &replicas,
                &mut self.fabric,
                &mut self.poller,
            )?;
        }
        elapsed += self
            .eviction
            .flush_all(&mut self.fabric, &mut self.poller)?;
        self.check_abandoned();
        self.counters.charge_app(elapsed);
        Ok(elapsed)
    }
}

/// Cluster control-plane operations: occupancy accounting, slab
/// migration, rebalancing and post-crash re-replication. These are the
/// rack-scale duties the paper assigns to the memory controller (§4.5);
/// `kona-cluster` drives them from its control plane.
impl KonaRuntime {
    /// Chunk size for slab copies over the fabric (matches the eviction
    /// log's batching granularity).
    const COPY_CHUNK: u64 = 64 * 1024;

    /// Turns automatic re-replication after a node abandonment on or
    /// off. Off by default so single-rack behaviour matches earlier
    /// revisions; the cluster control plane turns it on.
    pub fn set_auto_repair(&mut self, on: bool) {
        self.auto_repair = on;
    }

    /// Per-node occupancy as accounted by the rack controller.
    pub fn node_occupancy(&self) -> Vec<NodeOccupancy> {
        self.controller.occupancy()
    }

    /// Human-readable controller occupancy (for logs and error text).
    pub fn occupancy_summary(&self) -> String {
        self.controller.occupancy_summary()
    }

    /// Name of the active placement policy.
    pub fn placement_name(&self) -> &'static str {
        self.controller.policy_name()
    }

    /// Bases and lengths of the currently mapped slabs.
    pub fn slab_map(&self) -> Vec<(u64, u64)> {
        self.slabs.iter().map(|(&b, i)| (b, i.len)).collect()
    }

    /// Opts in to journaling flushed cache-line-log batches so the
    /// cluster layer can replay them into per-node memory runtimes.
    pub fn enable_shipment_journal(&mut self) {
        self.eviction.enable_shipment_journal();
    }

    /// Drains the journaled `(node, flush time, encoded batch)`
    /// shipments accumulated since the last drain.
    pub fn drain_log_shipments(&mut self) -> crate::log::ShipmentBatch {
        self.eviction.drain_shipments()
    }

    /// Like [`KonaRuntime::drain_log_shipments`] but swaps into the
    /// caller's reusable batch, so a steady ship-and-ingest loop
    /// allocates nothing.
    pub fn drain_log_shipments_into(&mut self, out: &mut crate::log::ShipmentBatch) {
        self.eviction.drain_shipments_into(out);
    }

    /// Slabs currently missing part of their replication budget: the
    /// primary or a replica sits on a lost node, or the replica list is
    /// short of `replicas - 1`.
    pub fn under_replicated_slabs(&self) -> usize {
        let lost = self.eviction.lost_nodes();
        let want = self.config.replicas.saturating_sub(1);
        self.slabs
            .iter()
            .filter(|&(&base, info)| {
                let primary_bad = self
                    .fpga
                    .translate_page(VfMemAddr::new(base).page_number())
                    .map(|r| lost.contains(&r.node()))
                    .unwrap_or(true);
                primary_bad
                    || info.replicas.len() < want
                    || info.replicas.iter().any(|r| lost.contains(&r.node()))
            })
            .count()
    }

    /// Moves the slab at `base` (a slab base address) to a node chosen
    /// by the placement policy among nodes not already hosting a copy.
    /// The image is copied over the fabric, translation repoints to the
    /// new location, and the vacated slab returns to its node's free
    /// list. Returns the bytes moved.
    ///
    /// # Errors
    ///
    /// Fails when `base` maps no slab, no eligible node has capacity, or
    /// the copy hits an unrecoverable network failure (the original
    /// placement is kept in that case).
    pub fn migrate_slab(&mut self, base: u64) -> Result<u64> {
        self.migrate_slab_to(VfMemAddr::new(base), &[])
            .map(|(bytes, _)| bytes)
    }

    /// Migrates slabs off the fullest node until the occupancy gap
    /// between the fullest and emptiest live nodes is at most
    /// `max_skew_slabs` slabs (floored at one slab — a one-slab gap
    /// cannot be improved by moving a slab). Each move targets the
    /// emptiest node. Returns the total bytes moved.
    ///
    /// # Errors
    ///
    /// As for [`KonaRuntime::migrate_slab`]; slabs moved before the
    /// error stay moved.
    pub fn rebalance(&mut self, max_skew_slabs: u64) -> Result<u64> {
        let span = self.telemetry.span_open(Track::Cluster, EventKind::Rebalance);
        match self.rebalance_inner(max_skew_slabs) {
            Ok((moved, t)) => {
                self.telemetry.span_close(span, t);
                Ok(moved)
            }
            Err(e) => {
                self.telemetry.span_close(span, Nanos::ZERO);
                Err(e)
            }
        }
    }

    fn rebalance_inner(&mut self, max_skew_slabs: u64) -> Result<(u64, Nanos)> {
        let slab = self.config.slab_size.bytes();
        let mut moved = 0u64;
        let mut elapsed = Nanos::ZERO;
        // Bounded sweep: each move shrinks the gap by one slab, so this
        // only guards against pathological configurations.
        for _ in 0..64 {
            let occ = self.controller.occupancy();
            if occ.len() < 2 {
                break;
            }
            let fullest = *occ
                .iter()
                .max_by_key(|o| (o.used, std::cmp::Reverse(o.id)))
                .expect("occupancy non-empty");
            let emptiest = *occ
                .iter()
                .min_by_key(|o| (o.used, o.id))
                .expect("occupancy non-empty");
            // A gap of one slab is the balance floor: moving a slab
            // across it just flips which node is fullest.
            let floor = max_skew_slabs.max(1);
            if fullest.used.saturating_sub(emptiest.used) <= floor.saturating_mul(slab) {
                break;
            }
            // First slab whose primary lives on the fullest node.
            let candidate = self.slabs.keys().copied().find(|&b| {
                self.fpga
                    .translate_page(VfMemAddr::new(b).page_number())
                    .map(|r| r.node() == fullest.id)
                    .unwrap_or(false)
            });
            let Some(base) = candidate else { break };
            // Steer the move to the emptiest node by excluding the rest.
            let exclude: Vec<u32> = occ
                .iter()
                .map(|o| o.id)
                .filter(|&id| id != emptiest.id)
                .collect();
            let (bytes, t) = self.migrate_slab_to(VfMemAddr::new(base), &exclude)?;
            moved += bytes;
            elapsed += t;
        }
        Ok((moved, elapsed))
    }

    fn migrate_slab_to(&mut self, base: VfMemAddr, exclude: &[u32]) -> Result<(u64, Nanos)> {
        let info = self
            .slabs
            .get(&base.raw())
            .cloned()
            .ok_or_else(|| KonaError::InvalidConfig(format!("no slab at {:#x}", base.raw())))?;
        // Unflushed log entries carry pre-resolved remote addresses, so
        // push them to the old location before copying its image.
        let mut elapsed = self
            .eviction
            .flush_all(&mut self.fabric, &mut self.poller)?;
        self.check_abandoned();
        let src = self.fpga.translate_page(base.page_number())?;
        let mut hosts: Vec<u32> = vec![src.node()];
        hosts.extend(info.replicas.iter().map(|r| r.node()));
        hosts.extend_from_slice(exclude);
        let grant = self.controller.allocate_slab_excluding(&hosts)?;
        let span = self.telemetry.span_open(Track::Cluster, EventKind::Migration);
        match self.copy_remote(src, grant.remote, info.len) {
            Ok(t) => {
                self.telemetry.span_close(span, t);
                self.counters.charge_background(t);
                elapsed += t;
            }
            Err(e) => {
                self.telemetry.span_close(span, Nanos::ZERO);
                let _ = self.controller.free_slab(grant.remote);
                return Err(e);
            }
        }
        self.fpga.translation_mut().unregister(base);
        self.fpga
            .translation_mut()
            .register(base, info.len, grant.remote)?;
        let _ = self.controller.free_slab(src);
        self.counters.migration_bytes.add(info.len);
        Ok((info.len, elapsed))
    }

    /// Re-replicates every slab that references a lost node, restoring
    /// the configured K-way budget (the lost-node protocol extended to
    /// the rack: the control plane re-creates the lost copies on healthy
    /// nodes).
    ///
    /// Lost nodes are first withdrawn from the controller so replacement
    /// grants never land on them. For each affected slab a healthy copy
    /// is the source — a surviving replica is promoted to primary when
    /// the primary itself was lost — and the image is copied to a fresh
    /// grant over the fabric. Once a lost node no longer backs any slab
    /// it is marked repaired, which replenishes the eviction handler's
    /// loss budget. Returns the number of replacement copies created.
    ///
    /// # Errors
    ///
    /// Propagates grant exhaustion and unrecoverable network failures;
    /// slabs repaired before the error stay repaired, and the remainder
    /// stay visible through [`KonaRuntime::under_replicated_slabs`].
    pub fn repair_lost_nodes(&mut self) -> Result<u64> {
        let lost = self.eviction.lost_nodes().clone();
        if lost.is_empty() {
            return Ok(0);
        }
        // Stop granting on lost nodes before placing any replacement.
        for &n in &lost {
            self.controller.remove_node(n);
        }
        // Push pending log entries to the survivors so copied images are
        // current. Failures here are exactly what repair absorbs.
        if let Ok(t) = self.eviction.flush_all(&mut self.fabric, &mut self.poller) {
            self.counters.charge_background(t);
        }
        let mut created = 0u64;
        let bases: Vec<u64> = self.slabs.keys().copied().collect();
        for base_raw in bases {
            let base = VfMemAddr::new(base_raw);
            let info = self.slabs.get(&base_raw).cloned().expect("slab exists");
            let primary = self.fpga.translate_page(base.page_number())?;
            let primary_lost = lost.contains(&primary.node());
            let replica_lost = info.replicas.iter().any(|r| lost.contains(&r.node()));
            if !primary_lost && !replica_lost {
                continue;
            }
            let mut replicas = info.replicas.clone();
            let mut source = primary;
            if primary_lost {
                let Some(idx) = replicas.iter().position(|r| !lost.contains(&r.node()))
                else {
                    // Every copy was lost: nothing to copy from. Leave
                    // the slab in place so the loss stays observable.
                    continue;
                };
                source = replicas.remove(idx);
                self.fpga.translation_mut().unregister(base);
                self.fpga.translation_mut().register(base, info.len, source)?;
            }
            replicas.retain(|r| !lost.contains(&r.node()));
            self.slabs
                .get_mut(&base_raw)
                .expect("slab exists")
                .replicas = replicas.clone();
            let want = self.config.replicas.saturating_sub(1);
            while replicas.len() < want {
                let mut hosts: Vec<u32> = vec![source.node()];
                hosts.extend(replicas.iter().map(|r| r.node()));
                let grant = self.controller.allocate_slab_excluding(&hosts)?;
                let span = self.telemetry.span_open(Track::Cluster, EventKind::Migration);
                match self.copy_remote(source, grant.remote, info.len) {
                    Ok(t) => {
                        self.telemetry.span_close(span, t);
                        self.counters.charge_background(t);
                    }
                    Err(e) => {
                        self.telemetry.span_close(span, Nanos::ZERO);
                        let _ = self.controller.free_slab(grant.remote);
                        return Err(e);
                    }
                }
                self.counters.migration_bytes.add(info.len);
                self.counters.rereplications.inc();
                self.failure.note_rereplication();
                replicas.push(grant.remote);
                self.slabs
                    .get_mut(&base_raw)
                    .expect("slab exists")
                    .replicas = replicas.clone();
                created += 1;
            }
        }
        // A lost node with no remaining references is fully evacuated;
        // repairing it replenishes the eviction handler's loss budget.
        let mut evacuated: Vec<u32> = lost.into_iter().collect();
        evacuated.sort_unstable();
        for n in evacuated {
            if !self.slab_references_node(n) {
                self.eviction.note_node_repaired(n);
            }
        }
        Ok(created)
    }

    /// Nodes out of service right now — lost, whether or not their
    /// data has since been re-replicated — sorted for determinism.
    pub fn lost_nodes(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.eviction.lost_nodes().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether no live slab still depends on `node`: either it was
    /// never lost, or every slab it held has been re-replicated onto
    /// healthy nodes. A fenced node may only rejoin once this holds —
    /// its quarantined (possibly stale) copies are no longer load-
    /// bearing, so a wipe-and-resync cannot lose data.
    pub fn node_evacuated(&self, node: u32) -> bool {
        !self.eviction.lost_nodes().contains(&node) || self.eviction.node_repaired(node)
    }

    /// Proactively marks `node` lost — the control plane fencing a
    /// member whose lease expired, rather than waiting for a flush to
    /// time out against it. Returns `false` when the `replicas − 1`
    /// loss budget is already spent, in which case the node is left
    /// unfenced and the caller must wait for a repair to complete.
    pub fn fence_node(&mut self, node: u32) -> bool {
        self.eviction.note_node_lost(node)
    }

    /// Brings a previously lost node back into service. With `wipe`
    /// the node rejoins empty — its controller entry is resurrected
    /// with a clean free list and its memory pool is zeroed, so stale
    /// pre-partition contents cannot be served (the fenced-rejoin
    /// path). Without `wipe` the node is simply unmarked, keeping
    /// whatever it held — the naive heal that integrity scrubbing
    /// exists to catch.
    pub fn reinstate_node(&mut self, node: u32, wipe: bool) {
        self.eviction.reinstate_node(node);
        if wipe {
            self.controller.reinstate_node(node);
            if let Some(mem) = self.fabric.node_mut(node) {
                mem.wipe();
            }
        }
    }

    /// Every mapped slab as `(base, len, copies)` with the primary
    /// first — the scrub walker's view of where each byte should live.
    pub fn slab_copies(&self) -> Vec<(u64, u64, Vec<RemoteAddr>)> {
        self.slabs
            .iter()
            .map(|(&base, info)| self.copies_of(base, info))
            .collect()
    }

    /// Number of mapped slabs (the length of [`slab_copies`](Self::slab_copies)).
    pub fn slab_count(&self) -> usize {
        self.slabs.len()
    }

    /// The entries of [`slab_copies`](Self::slab_copies) at indices
    /// `picks`, in `picks` order, materialising only those — the scrubber
    /// checks a few slabs per step out of a map that may hold hundreds.
    pub fn slab_copies_at(&self, picks: &[usize]) -> Vec<(u64, u64, Vec<RemoteAddr>)> {
        let mut out = vec![None; picks.len()];
        for (i, (&base, info)) in self.slabs.iter().enumerate() {
            match picks.iter().position(|&p| p == i) {
                Some(k) => out[k] = Some(self.copies_of(base, info)),
                // Still translated, in map order, so a traced run records
                // the same `Translate` instants as the full listing.
                None => {
                    let _ = self.fpga.translate_page(VfMemAddr::new(base).page_number());
                }
            }
        }
        out.into_iter().flatten().collect()
    }

    fn copies_of(&self, base: u64, info: &SlabInfo) -> (u64, u64, Vec<RemoteAddr>) {
        let mut copies = Vec::with_capacity(1 + info.replicas.len());
        if let Ok(primary) = self.fpga.translate_page(VfMemAddr::new(base).page_number()) {
            copies.push(primary);
        }
        copies.extend(info.replicas.iter().copied());
        (base, info.len, copies)
    }

    /// Writes `data` to `dst` over the fabric in
    /// [`KonaRuntime::COPY_CHUNK`] pieces, retrying transient faults —
    /// the scrubber re-copying a divergent replica from a good copy.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable network failures; chunks written
    /// before the error stay written (re-scrub picks up the rest).
    pub fn write_remote_retrying(&mut self, dst: RemoteAddr, data: &[u8]) -> Result<Nanos> {
        let mut elapsed = Nanos::ZERO;
        let mut off = 0usize;
        while off < data.len() {
            let chunk = (Self::COPY_CHUNK as usize).min(data.len() - off);
            let piece = data[off..off + chunk].to_vec();
            let (t, _) = self.post_retrying(|id| {
                WorkRequest::write(id, dst.add(off as u64), piece.clone()).signaled()
            })?;
            elapsed += t;
            off += chunk;
        }
        self.counters.charge_background(elapsed);
        Ok(elapsed)
    }

    fn slab_references_node(&self, node: u32) -> bool {
        self.slabs.iter().any(|(&base, info)| {
            self.fpga
                .translate_page(VfMemAddr::new(base).page_number())
                .map(|r| r.node() == node)
                .unwrap_or(false)
                || info.replicas.iter().any(|r| r.node() == node)
        })
    }

    /// Copies `len` bytes from `src` to `dst` over the fabric in
    /// [`KonaRuntime::COPY_CHUNK`] pieces (RDMA read from the survivor,
    /// write to the replacement), retrying transient faults under the
    /// cluster's retry policy.
    fn copy_remote(&mut self, src: RemoteAddr, dst: RemoteAddr, len: u64) -> Result<Nanos> {
        let mut elapsed = Nanos::ZERO;
        let mut off = 0u64;
        while off < len {
            let chunk = Self::COPY_CHUNK.min(len - off);
            let (t_read, completions) =
                self.post_retrying(|id| WorkRequest::read(id, src.add(off), chunk).signaled())?;
            elapsed += t_read;
            let data = completions
                .first()
                .map(|c| c.data.to_vec())
                .unwrap_or_else(|| vec![0; chunk as usize]);
            let (t_write, _) = self
                .post_retrying(|id| WorkRequest::write(id, dst.add(off), data.clone()).signaled())?;
            elapsed += t_write;
            off += chunk;
        }
        Ok(elapsed)
    }

    /// Posts one work request, retrying transient failures with the
    /// retry policy's backoff (no failover: the caller picks targets).
    fn post_retrying<F>(&mut self, mut make: F) -> Result<(Nanos, Vec<kona_net::Completion>)>
    where
        F: FnMut(u64) -> WorkRequest,
    {
        let retry = self.config.retry.clone();
        let mut attempt = 0u32;
        let mut waited = Nanos::ZERO;
        loop {
            let id = self.wr_id();
            match self.poller.post_and_poll(&mut self.fabric, vec![make(id)]) {
                Ok((t, completions)) => return Ok((waited + t, completions)),
                Err(e) if e.is_transient() && attempt + 1 < retry.max_attempts => {
                    self.counters.retries.inc();
                    let backoff = retry.backoff_for(attempt, self.failure.rng_mut());
                    attempt += 1;
                    self.counters.backoff_ns.add(backoff.as_ns());
                    self.fabric.advance_time(backoff);
                    waited += backoff;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Returns the whole-slab allocation at `addr` to the controller:
    /// pending log entries are flushed (they carry pre-resolved remote
    /// addresses that must not land in a re-granted slab), resident
    /// pages are dropped without writeback, translation entries are
    /// withdrawn, and every backing slab — primary and replicas — goes
    /// back on its node's free list for reuse.
    fn reclaim_slabs(&mut self, addr: VirtAddr, bytes: u64) {
        if let Ok(t) = self.eviction.flush_all(&mut self.fabric, &mut self.poller) {
            self.counters.charge_background(t);
        }
        self.check_abandoned();
        let slab = self.config.slab_size.bytes();
        let count = bytes.div_ceil(slab);
        for k in 0..count {
            let base = addr.raw() + k * slab;
            let Some(info) = self.slabs.remove(&base) else {
                continue;
            };
            let mut page = base;
            while page < base + info.len {
                let pn = VfMemAddr::new(page).page_number();
                if self.fpga.fmem_resident(pn) {
                    let _ = self.fpga.evict_page(pn);
                }
                self.local_pages.remove(&pn.raw());
                page += PAGE_SIZE_4K;
            }
            if let Some(primary) = self.fpga.translation_mut().unregister(VfMemAddr::new(base)) {
                let _ = self.controller.free_slab(primary);
            }
            for r in info.replicas {
                let _ = self.controller.free_slab(r);
            }
        }
    }
}

#[cfg(test)]
mod sync_equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> KonaRuntime {
        KonaRuntime::new(ClusterConfig::small()).unwrap()
    }

    #[test]
    fn allocate_grows_slabs_on_demand() {
        let mut rt = runtime();
        let a = rt.allocate(1024).unwrap();
        let b = rt.allocate(1024).unwrap();
        assert_ne!(a, b);
        assert!(rt.controller.slabs_granted() >= 1);
    }

    #[test]
    fn write_read_roundtrip_within_cache() {
        let mut rt = runtime();
        let addr = rt.allocate(8192).unwrap();
        rt.write_bytes(addr, &[0xAB; 300]).unwrap();
        let mut buf = [0u8; 300];
        rt.read_bytes(addr, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 300]);
    }

    #[test]
    fn roundtrip_survives_eviction_pressure() {
        // Cache of 8 pages; write 32 pages of distinct data, then verify.
        let mut cfg = ClusterConfig::small().with_local_cache_pages(8);
        cfg.cpu_cache_lines = 64;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        let base = rt.allocate(32 * 4096).unwrap();
        for p in 0..32u64 {
            let pattern = [p as u8 + 1; 64];
            rt.write_bytes(base + p * 4096 + 128, &pattern).unwrap();
        }
        for p in 0..32u64 {
            let mut buf = [0u8; 64];
            rt.read_bytes(base + p * 4096 + 128, &mut buf).unwrap();
            assert_eq!(buf, [p as u8 + 1; 64], "page {p} corrupted");
        }
        assert!(rt.stats().pages_evicted > 0, "pressure must evict");
    }

    #[test]
    fn no_page_faults_ever() {
        let mut rt = runtime();
        let addr = rt.allocate(1 << 16).unwrap();
        for i in 0..256u64 {
            rt.access(MemAccess::write(addr + i * 64, 8)).unwrap();
        }
        let s = rt.stats();
        assert_eq!(s.major_faults, 0);
        assert_eq!(s.minor_faults, 0);
        assert_eq!(s.tlb_invalidations, 0);
        assert!(s.remote_fetches > 0);
    }

    #[test]
    fn repeated_access_hits_cpu_cache() {
        let mut rt = runtime();
        let addr = rt.allocate(4096).unwrap();
        let cold = rt.access(MemAccess::read(addr, 8)).unwrap();
        let warm = rt.access(MemAccess::read(addr, 8)).unwrap();
        assert!(warm < cold / 100, "warm {warm} vs cold {cold}");
        assert_eq!(warm, rt.config.latency.cpu_cache_hit);
    }

    #[test]
    fn sync_pushes_dirty_lines_to_remote() {
        let mut rt = runtime();
        let addr = rt.allocate(4096).unwrap();
        rt.write_bytes(addr, &[0x5A; 64]).unwrap();
        rt.sync().unwrap();
        // The data must now be present on the remote node.
        let primary = rt.fpga.translate_page(addr.page_number()).unwrap();
        let node = rt.fabric.node(primary.node()).unwrap();
        assert_eq!(
            node.read_bytes(primary.offset(), 64),
            &[0x5A; 64][..]
        );
    }

    #[test]
    fn access_unallocated_address_fails() {
        let mut rt = runtime();
        let err = rt
            .access(MemAccess::read(VirtAddr::new(1 << 40), 8))
            .unwrap_err();
        assert!(matches!(err, KonaError::NoRemoteTranslation(_)));
    }

    #[test]
    fn failed_node_with_mce_policy_errors() {
        let mut cfg = ClusterConfig::small().with_local_cache_pages(4);
        cfg.cpu_cache_lines = 64;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        let addr = rt.allocate(64 * 4096).unwrap();
        // Find which node backs the first page, then fail it after
        // flushing the page out of the local cache.
        let node = rt.fpga.translate_page(addr.page_number()).unwrap().node();
        for p in 1..32u64 {
            rt.access(MemAccess::read(addr + p * 4096, 8)).unwrap();
        }
        rt.fabric_mut().fail_node(node).unwrap();
        // The first page was evicted; re-fetching it must hit the failure.
        let err = rt.access(MemAccess::read(addr, 8)).unwrap_err();
        assert!(matches!(err, KonaError::CoherenceTimeout { .. }));
        assert_eq!(rt.mce_events().len(), 1);
        assert_eq!(rt.failure_state().policy_counts().mce, 1);
        // The fetch was retried before surfacing the MCE.
        assert!(rt.stats().retries > 0);
        assert!(rt.stats().backoff_time > Nanos::ZERO);
    }

    #[test]
    fn failed_node_recovers_with_fallback_policy() {
        let mut cfg = ClusterConfig::small().with_local_cache_pages(4);
        cfg.cpu_cache_lines = 64;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        rt.set_failure_policy(FailurePolicy::PageFaultFallback);
        let addr = rt.allocate(64 * 4096).unwrap();
        let node = rt.fpga.translate_page(addr.page_number()).unwrap().node();
        for p in 1..32u64 {
            rt.access(MemAccess::read(addr + p * 4096, 8)).unwrap();
        }
        rt.fabric_mut().fail_node(node).unwrap();
        assert!(rt.access(MemAccess::read(addr, 8)).is_err());
        assert!(rt.mce_events().is_empty(), "fallback must not raise MCE");
        assert_eq!(rt.failure_state().policy_counts().fallback, 1);
        // Outage resolves; the retried access succeeds.
        rt.fabric_mut().recover_node(node);
        assert!(rt.access(MemAccess::read(addr, 8)).is_ok());
    }

    #[test]
    fn replication_enables_failover_reads() {
        let mut cfg = ClusterConfig::small()
            .with_replicas(2)
            .with_local_cache_pages(4);
        cfg.cpu_cache_lines = 64;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        let addr = rt.allocate(64 * 4096).unwrap();
        rt.write_bytes(addr, &[0x11; 64]).unwrap();
        rt.sync().unwrap();
        // Push the page out of the local cache.
        for p in 1..40u64 {
            rt.access(MemAccess::read(addr + p * 4096, 8)).unwrap();
        }
        rt.sync().unwrap();
        // Fail the primary; the read must come from the replica.
        let primary_node = rt.fpga.translate_page(addr.page_number()).unwrap().node();
        rt.fabric_mut().fail_node(primary_node).unwrap();
        let mut buf = [0u8; 64];
        rt.read_bytes(addr, &mut buf).unwrap();
        assert_eq!(buf, [0x11; 64]);
        assert!(rt.stats().failovers > 0);
    }

    #[test]
    fn eviction_is_background_work() {
        let mut cfg = ClusterConfig::small().with_local_cache_pages(4);
        cfg.cpu_cache_lines = 64;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        let addr = rt.allocate(64 * 4096).unwrap();
        for p in 0..64u64 {
            rt.access(MemAccess::write(addr + p * 4096, 8)).unwrap();
        }
        let s = rt.stats();
        assert!(s.background_time > Nanos::ZERO);
        assert!(s.pages_evicted > 0);
    }

    #[test]
    fn timing_mode_skips_data() {
        let mut rt = KonaRuntime::new(ClusterConfig::small().timing_only()).unwrap();
        let addr = rt.allocate(4096).unwrap();
        let t = rt.access(MemAccess::write(addr, 64)).unwrap();
        assert!(t > Nanos::ZERO);
        assert!(rt.local_pages.is_empty());
    }

    #[test]
    fn multi_core_sharing_is_coherent() {
        let mut cfg = ClusterConfig::small().with_cpu_agents(2);
        cfg.cpu_cache_lines = 256;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        let addr = rt.allocate(4096).unwrap();
        // Core 0 writes; core 1 reads the same line: the read downgrades
        // core 0's modified copy, producing an observed writeback.
        rt.access_from_core(0, MemAccess::write(addr, 8)).unwrap();
        let before = rt.fpga().stats().writebacks_observed;
        rt.access_from_core(1, MemAccess::read(addr, 8)).unwrap();
        assert!(rt.fpga().stats().writebacks_observed > before);
        // Core 1 writing invalidates core 0's copy; a subsequent core-0
        // read misses its own cache (but hits FMem, no remote fetch).
        rt.access_from_core(1, MemAccess::write(addr, 8)).unwrap();
        let fetches = rt.stats().remote_fetches;
        rt.access_from_core(0, MemAccess::read(addr, 8)).unwrap();
        assert_eq!(rt.stats().remote_fetches, fetches);
    }

    /// The directory's sharer mask caps the agent count; asking for more
    /// is a configuration error, not a panic inside the coherence crate.
    #[test]
    fn too_many_cpu_agents_is_a_typed_error() {
        let limit = kona_coherence::MAX_AGENTS;
        assert!(KonaRuntime::new(ClusterConfig::small().with_cpu_agents(limit)).is_ok());
        match KonaRuntime::new(ClusterConfig::small().with_cpu_agents(limit + 1)) {
            Err(KonaError::InvalidConfig(msg)) => {
                assert!(msg.contains("cpu_agents") && msg.contains(&limit.to_string()));
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn hardware_copy_engine_reduces_background_time() {
        let mk = |engine| {
            let mut cfg = ClusterConfig::small().with_local_cache_pages(4);
            cfg.cpu_cache_lines = 64;
            let mut rt = KonaRuntime::new(cfg).unwrap();
            rt.set_copy_engine(engine);
            let addr = rt.allocate(64 * 4096).unwrap();
            for p in 0..64u64 {
                rt.access(MemAccess::write(addr + p * 4096, 8)).unwrap();
            }
            rt.sync().unwrap();
            rt.stats().background_time
        };
        let sw = mk(crate::eviction::CopyEngine::SoftwareAvx);
        let hw = mk(crate::eviction::CopyEngine::HardwareDma);
        assert!(hw < sw, "dma {hw} should beat software {sw}");
    }

    /// §4.5 ablation: eviction is off the critical path, so every extra
    /// replica costs the background thread and leaves app time alone.
    #[test]
    fn replicas_slow_eviction_but_not_the_app() {
        let run = |replicas| {
            let mut cfg = ClusterConfig::small()
                .with_local_cache_pages(4)
                .with_replicas(replicas);
            cfg.memory_nodes = 3;
            cfg.cpu_cache_lines = 64;
            let mut rt = KonaRuntime::new(cfg).unwrap();
            let addr = rt.allocate(64 * 4096).unwrap();
            for p in 0..64u64 {
                rt.access(MemAccess::write(addr + p * 4096, 8)).unwrap();
            }
            // Read app time before the sync: a sync waits for every
            // replica's flush on the caller's clock by design.
            let app = rt.stats().app_time;
            rt.sync().unwrap();
            (app, rt.eviction_breakdown().total())
        };
        let (app1, evict1) = run(1);
        let (app2, evict2) = run(2);
        let (app3, evict3) = run(3);
        assert!(
            app1 == app2 && app2 == app3,
            "replication must not reach the app: {app1} {app2} {app3}"
        );
        assert!(
            evict1 < evict2 && evict2 < evict3,
            "eviction cost must grow per replica: {evict1} {evict2} {evict3}"
        );
    }

    /// §3 ablation: next-page prefetch turns a sequential scan's demand
    /// fetches into background work — something a page-fault system
    /// cannot do across page boundaries.
    #[test]
    fn next_page_prefetch_speeds_up_a_sequential_scan() {
        let scan = |prefetcher| {
            let cfg = ClusterConfig::small()
                .timing_only()
                .with_prefetcher(prefetcher)
                .with_local_cache_pages(64);
            let mut rt = KonaRuntime::new(cfg).unwrap();
            let addr = rt.allocate(128 * 4096).unwrap();
            for p in 0..128u64 {
                rt.access(MemAccess::read(addr + p * 4096, 8)).unwrap();
            }
            rt.stats()
        };
        let off = scan(kona_fpga::NextPagePrefetcher::disabled());
        let on = scan(kona_fpga::NextPagePrefetcher::new(2, 2));
        assert_eq!(off.prefetches, 0);
        assert!(on.prefetches > 0 && on.local_hits > off.local_hits);
        assert!(
            on.app_time < off.app_time && on.background_time > off.background_time,
            "fetch time must move off the app: {on:?} vs {off:?}"
        );
    }

    /// Evicts the first page of `addr` out of the local cache and returns
    /// the node backing it.
    fn evict_first_page(rt: &mut KonaRuntime, addr: VirtAddr) -> u32 {
        let node = rt.fpga.translate_page(addr.page_number()).unwrap().node();
        for p in 1..32u64 {
            rt.access(MemAccess::read(addr + p * 4096, 8)).unwrap();
        }
        node
    }

    #[test]
    fn retries_ride_out_a_scheduled_flap() {
        use kona_net::{FaultInjector, FaultPlan};
        let mut cfg = ClusterConfig::small().with_local_cache_pages(4);
        cfg.cpu_cache_lines = 64;
        cfg.retry.base_backoff = Nanos::micros(40);
        cfg.retry.max_backoff = Nanos::micros(200);
        cfg.retry.jitter = 0.0;
        cfg.retry.verb_deadline = Nanos::micros(500);
        let mut rt = KonaRuntime::new(cfg).unwrap();
        let addr = rt.allocate(64 * 4096).unwrap();
        let node = evict_first_page(&mut rt, addr);
        let now = rt.fabric_mut().now();
        rt.fabric_mut().set_fault_injector(FaultInjector::new(
            FaultPlan::calm(11).with_flap(node, now, Nanos::micros(30)),
        ));
        // The first post hits the downed node; the 40 µs backoff outlasts
        // the 30 µs flap and the retry succeeds.
        rt.access(MemAccess::read(addr, 8)).unwrap();
        let s = rt.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.backoff_time, Nanos::micros(40));
        assert_eq!(s.failovers, 0, "same node, not a failover");
    }

    #[test]
    fn fallback_waits_out_a_long_flap() {
        use kona_net::{FaultInjector, FaultPlan};
        let mut cfg = ClusterConfig::small().with_local_cache_pages(4);
        cfg.cpu_cache_lines = 64;
        cfg.retry.jitter = 0.0;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        rt.set_failure_policy(FailurePolicy::PageFaultFallback);
        let addr = rt.allocate(64 * 4096).unwrap();
        let pattern = [0x7E; 64];
        rt.write_bytes(addr, &pattern).unwrap();
        rt.sync().unwrap();
        let node = evict_first_page(&mut rt, addr);
        let now = rt.fabric_mut().now();
        rt.fabric_mut().set_fault_injector(FaultInjector::new(
            FaultPlan::calm(11).with_flap(node, now, Nanos::millis(2)),
        ));
        // Retries exhaust while the node is down, but the fabric knows
        // when the flap ends: the fallback waits it out and re-fetches.
        let mut buf = [0u8; 64];
        rt.read_bytes(addr, &mut buf).unwrap();
        assert_eq!(buf, pattern);
        let s = rt.stats();
        assert_eq!(s.fallback_waits, 1);
        assert!(s.retries > 0);
        assert!(rt.mce_events().is_empty(), "no MCE on the fallback path");
    }

    #[test]
    fn repeated_failures_enter_and_exit_degraded_mode() {
        let mut cfg = ClusterConfig::small().with_local_cache_pages(4);
        cfg.cpu_cache_lines = 64;
        cfg.degraded.failure_threshold = 2;
        let mut rt = KonaRuntime::new(cfg).unwrap();
        let addr = rt.allocate(64 * 4096).unwrap();
        let node = evict_first_page(&mut rt, addr);
        rt.fabric_mut().fail_node(node).unwrap();
        assert!(rt.access(MemAccess::read(addr, 8)).is_err());
        // The transient failures during the retry loop crossed the
        // threshold: prefetches shed, eviction batching widened.
        assert!(rt.is_degraded());
        assert!(rt.fpga().prefetch_shedding());
        assert_eq!(rt.stats().degraded_entries, 1);
        // Outage clears and the cooloff passes: healthy again. The fresh
        // page forces a remote fetch, which re-evaluates degraded mode.
        rt.fabric_mut().recover_node(node);
        rt.fabric_mut().advance_time(Nanos::millis(5));
        rt.access(MemAccess::read(addr + 40 * 4096, 8)).unwrap();
        assert!(!rt.is_degraded());
        assert!(!rt.fpga().prefetch_shedding());
        assert_eq!(rt.stats().degraded_entries, 1, "one entry, not re-counted");
    }

    #[test]
    fn fault_plan_in_config_installs_injector() {
        use kona_net::FaultPlan;
        let mut cfg = ClusterConfig::small();
        cfg.fault_plan = Some(FaultPlan::calm(42));
        let mut rt = KonaRuntime::new(cfg).unwrap();
        assert!(rt.fabric_mut().fault_injector().is_some());
        let addr = rt.allocate(4096).unwrap();
        rt.write_bytes(addr, &[9u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        rt.read_bytes(addr, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 64]);
    }

    #[test]
    fn run_trace_accumulates() {
        let mut rt = runtime();
        let addr = rt.allocate(1 << 16).unwrap();
        let events: Vec<TraceEvent> = (0..16u64)
            .map(|i| {
                TraceEvent::new(
                    Nanos::from_ns(i),
                    MemAccess::read(addr + i * 4096 % (1 << 16), 8),
                )
            })
            .collect();
        let t = rt.run_trace(&events).unwrap();
        assert!(t > Nanos::ZERO);
        assert_eq!(rt.stats().app_time, t);
    }
}
