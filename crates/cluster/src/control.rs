//! The cluster control plane.
//!
//! [`ClusterRuntime`] wraps a [`KonaRuntime`] and adds the rack-scale
//! duties the paper assigns to the memory controller: it journals the
//! eviction handler's flushed log batches and replays them into per-node
//! [`MemoryNodeRuntime`] apply workers, re-replicates slabs after a node
//! crash to restore the K-way budget, and migrates slabs off overloaded
//! nodes when occupancy skews. Control work runs on a deterministic
//! operation-count tick, so identical inputs produce identical traffic.
//!
//! On top of that sits partition tolerance (see [`crate::lease`] and
//! [`crate::scrub`]): the control plane grants every node a time-bound
//! lease, fences nodes whose lease lapses while they are unreachable
//! (epoch bump, stale-epoch applies rejected, slabs re-replicated on the
//! reachable side), readmits them through a wipe-and-resync rejoin, and
//! runs a cursor-driven integrity scrub that digests compute-node truth
//! against every replica's fabric memory and re-copies divergent slabs.

use crate::lease::LeaseTable;
use crate::node_runtime::{MemoryNodeRuntime, NodeRuntimeConfig};
use crate::scrub::{digest_fold, ScrubCursor, ScrubStats, TruthStore, FNV_OFFSET};
use kona::{
    ClusterConfig, DataMode, KonaRuntime, NodeOccupancy, RemoteMemoryRuntime, RuntimeStats,
    ShipmentBatch,
};
use kona_telemetry::{Counter, Telemetry};
use kona_types::{FxHashMap, MemAccess, Nanos, Result, VirtAddr};

/// Control-plane tuning.
#[derive(Debug, Clone, Copy)]
pub struct ControlPlaneConfig {
    /// Run a control tick every this many runtime operations (accesses,
    /// reads, writes, syncs).
    pub tick_ops: u64,
    /// Rebalance when the fullest and emptiest live nodes differ by more
    /// than this many slabs.
    pub rebalance_skew_slabs: u64,
    /// Lease duration in simulated nanoseconds. A node that stays
    /// unreachable past its expiry is fenced.
    pub lease_ns: u64,
    /// Run an integrity-scrub step every this many control ticks
    /// (0 disables scrubbing).
    pub scrub_interval_ticks: u64,
    /// Slabs digest-checked per scrub step.
    pub scrub_batch: usize,
    /// Enforce lease fencing (the default). Off, the control plane
    /// plays the naive heal: expired leases still bump epochs for
    /// accounting, but stale-epoch batches are applied (and counted)
    /// and healed nodes rejoin without a wipe — the split-brain the
    /// integrity scrubber then detects and repairs.
    pub fencing: bool,
    /// Per-node apply/compaction tuning.
    pub node: NodeRuntimeConfig,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            tick_ops: 64,
            rebalance_skew_slabs: 2,
            lease_ns: 200_000,
            scrub_interval_ticks: 4,
            scrub_batch: 4,
            fencing: true,
            node: NodeRuntimeConfig::default(),
        }
    }
}

/// Rolled-up view of the cluster's health, combined from the compute
/// runtime's counters and every node runtime's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterStats {
    /// Encoded bytes waiting in node apply backlogs.
    pub backlog_bytes: u64,
    /// Entries applied into node page stores (post-compaction).
    pub entries_applied: u64,
    /// Payload bytes applied into node page stores.
    pub bytes_applied: u64,
    /// Entries dropped by same-line dedupe across all nodes.
    pub entries_deduped: u64,
    /// Pages folded into full-page images across all nodes.
    pub pages_folded: u64,
    /// Dirty lines across compacted pages (compaction-ratio numerator).
    pub compaction_dirty_lines: u64,
    /// Pages touched by compaction (compaction-ratio denominator).
    pub compaction_pages: u64,
    /// Bytes moved by migration and re-replication.
    pub migration_bytes: u64,
    /// Replacement copies created after node losses.
    pub rereplications: u64,
    /// Slabs still missing part of their replication budget.
    pub under_replicated: u64,
    /// Initial lease grants (one per node, plus rejoin re-grants).
    pub lease_grants: u64,
    /// Successful lease renewals.
    pub lease_renewals: u64,
    /// Leases that lapsed while the holder was unreachable (each one
    /// fences the node and bumps its epoch).
    pub lease_expirations: u64,
    /// Fenced nodes readmitted after evacuation and heal.
    pub lease_rejoins: u64,
    /// Log entries refused because their batch carried a stale grantor
    /// epoch (fencing on — the split-brain writes that never landed).
    pub fenced_writes: u64,
    /// Stale-epoch entries applied anyway (fencing off).
    pub stale_applied: u64,
    /// Crash-repair attempts that returned an error (retried next tick;
    /// previously discarded silently).
    pub repair_errors: u64,
    /// Slab/copy pairs digest-checked by the integrity scrub.
    pub scrub_checked: u64,
    /// Copies whose digest diverged from compute-node truth.
    pub scrub_divergence_found: u64,
    /// Divergent copies repaired by re-copying the truth bytes.
    pub scrub_divergence_repaired: u64,
    /// Copy checks skipped because the hosting node was unreachable.
    pub scrub_skipped: u64,
}

impl ClusterStats {
    /// Cluster-wide compaction ratio (the FPGA's dirty-ratio pattern,
    /// aggregated over every node's compacted pages).
    pub fn compaction_ratio(&self) -> f64 {
        if self.compaction_pages == 0 {
            return 0.0;
        }
        self.compaction_dirty_lines as f64
            / (self.compaction_pages * kona_types::LINES_PER_PAGE_4K as u64) as f64
    }
}

/// Telemetry counters the control plane publishes.
#[derive(Debug, Clone)]
struct PlaneCounters {
    lease_grants: Counter,
    lease_renewals: Counter,
    lease_expirations: Counter,
    lease_rejoins: Counter,
    fenced_writes: Counter,
    stale_applied: Counter,
    repair_errors: Counter,
    scrub_checked: Counter,
    scrub_divergent: Counter,
    scrub_repaired: Counter,
    scrub_skipped: Counter,
}

impl PlaneCounters {
    fn new(telemetry: &Telemetry) -> Self {
        PlaneCounters {
            lease_grants: telemetry.counter("cluster.lease_grants"),
            lease_renewals: telemetry.counter("cluster.lease_renewals"),
            lease_expirations: telemetry.counter("cluster.lease_expirations"),
            lease_rejoins: telemetry.counter("cluster.lease_rejoins"),
            fenced_writes: telemetry.counter("cluster.fenced_writes"),
            stale_applied: telemetry.counter("cluster.stale_applied"),
            repair_errors: telemetry.counter("cluster.repair_errors"),
            scrub_checked: telemetry.counter("scrub.checked"),
            scrub_divergent: telemetry.counter("scrub.divergent"),
            scrub_repaired: telemetry.counter("scrub.repaired"),
            scrub_skipped: telemetry.counter("scrub.skipped"),
        }
    }
}

/// The Kona runtime plus its cluster control plane.
///
/// Drives exactly like a [`KonaRuntime`] through
/// [`RemoteMemoryRuntime`]; every `tick_ops` operations the control
/// plane drains journaled log shipments into the per-node apply workers,
/// maintains leases (fencing members that miss renewal while cut off),
/// retries crash repair, scrubs replica integrity, and rebalances
/// occupancy skew.
///
/// # Examples
///
/// ```
/// # use kona_cluster::ClusterRuntime;
/// # use kona::{ClusterConfig, RemoteMemoryRuntime};
/// let mut rt = ClusterRuntime::new(ClusterConfig::small()).unwrap();
/// let addr = rt.allocate(1 << 20).unwrap();
/// rt.write_bytes(addr, &[42u8; 256]).unwrap();
/// rt.sync().unwrap();
/// assert!(rt.cluster_stats().bytes_applied >= 256);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterRuntime {
    inner: KonaRuntime,
    nodes: Vec<MemoryNodeRuntime>,
    plane: ControlPlaneConfig,
    shipments: ShipmentBatch,
    leases: LeaseTable,
    /// Shipments addressed to nodes that were unreachable at drain
    /// time, stamped with the epoch their lease held when flushed;
    /// delivered when the node is reachable again (and rejected there
    /// if the node was fenced in between).
    pending: FxHashMap<u32, Vec<(Nanos, u64, Vec<u8>)>>,
    truth: TruthStore,
    scrub_cursor: ScrubCursor,
    scrub_stats: ScrubStats,
    /// Whether the wrapped runtime tracks data (scrubbing compares
    /// bytes, so it only runs in [`DataMode::Tracked`]).
    tracked: bool,
    counters: PlaneCounters,
    /// Typed [`kona_types::KonaError::FencedEpoch`] rejections, bounded
    /// at 64; drained via [`ClusterRuntime::drain_fence_errors`].
    fence_errors: Vec<kona_types::KonaError>,
    repair_errors: u64,
    /// Watermarks for publishing node-stat deltas as counters.
    fenced_seen: u64,
    stale_seen: u64,
    ops: u64,
    ticks: u64,
}

impl ClusterRuntime {
    /// Creates a cluster runtime with default control-plane tuning and
    /// no telemetry.
    ///
    /// # Errors
    ///
    /// As for [`KonaRuntime::new`].
    pub fn new(config: ClusterConfig) -> Result<Self> {
        Self::with_telemetry(config, ControlPlaneConfig::default(), Telemetry::disabled())
    }

    /// Creates a cluster runtime publishing metrics and Cluster-track
    /// spans to `telemetry`.
    ///
    /// # Errors
    ///
    /// As for [`KonaRuntime::new`].
    pub fn with_telemetry(
        config: ClusterConfig,
        plane: ControlPlaneConfig,
        telemetry: Telemetry,
    ) -> Result<Self> {
        let tracked = config.data_mode == DataMode::Tracked;
        let counters = PlaneCounters::new(&telemetry);
        let mut nodes: Vec<MemoryNodeRuntime> = (0..config.memory_nodes)
            .map(|id| MemoryNodeRuntime::with_telemetry(id, plane.node, telemetry.clone()))
            .collect();
        let mut leases = LeaseTable::new();
        for nr in &mut nodes {
            // Admission: every node starts with an epoch-1 lease that
            // the first control tick renews.
            leases.grant(nr.id(), Nanos::from_ns(plane.lease_ns));
            nr.grant_lease(1);
            nr.set_fencing(plane.fencing);
            counters.lease_grants.inc();
        }
        let mut inner = KonaRuntime::with_telemetry(config, telemetry)?;
        inner.enable_shipment_journal();
        // With fencing the control plane owns repair timing; the naive
        // (fencing-off) plane must not let the inner runtime repair
        // behind its back either, so it drives repair from the tick in
        // both modes.
        inner.set_auto_repair(plane.fencing);
        Ok(ClusterRuntime {
            inner,
            nodes,
            plane,
            shipments: ShipmentBatch::default(),
            leases,
            pending: FxHashMap::default(),
            truth: TruthStore::new(),
            scrub_cursor: ScrubCursor::default(),
            scrub_stats: ScrubStats::default(),
            tracked,
            counters,
            fence_errors: Vec::new(),
            repair_errors: 0,
            fenced_seen: 0,
            stale_seen: 0,
            ops: 0,
            ticks: 0,
        })
    }

    /// The wrapped compute-node runtime.
    pub fn inner(&self) -> &KonaRuntime {
        &self.inner
    }

    /// Mutable access to the wrapped runtime (fault injection, manual
    /// migration).
    pub fn inner_mut(&mut self) -> &mut KonaRuntime {
        &mut self.inner
    }

    /// The per-node runtimes, indexed by fabric node id.
    pub fn nodes(&self) -> &[MemoryNodeRuntime] {
        &self.nodes
    }

    /// One node's runtime, if `id` is in range.
    pub fn node(&self, id: u32) -> Option<&MemoryNodeRuntime> {
        self.nodes.get(id as usize)
    }

    /// Control ticks run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The lease table (epochs, expiry, fence state).
    pub fn leases(&self) -> &LeaseTable {
        &self.leases
    }

    /// Per-node occupancy as accounted by the rack controller.
    pub fn occupancy(&self) -> Vec<NodeOccupancy> {
        self.inner.node_occupancy()
    }

    /// Runs one control tick, in order: drain journaled shipments
    /// (parking those addressed to unreachable nodes, stamped with
    /// their flush-time epoch), maintain leases (renew reachable
    /// holders, fence lapsed ones, readmit evacuated-and-healed ones),
    /// deliver parked shipments to reachable nodes, run the apply
    /// workers, retry crash repair, scrub replica integrity on its
    /// cadence, and rebalance skew. Repair and rebalance errors are
    /// retried on the next tick; repair errors are additionally counted
    /// in [`repair_errors`](ClusterStats::repair_errors) and the
    /// `cluster.repair_errors` telemetry counter.
    pub fn tick(&mut self) {
        self.ticks += 1;
        let now = self.inner.fabric_mut().now();

        // 1. Drain the shipment journal. Batches for unreachable nodes
        // park in the pending queue; their epoch stamp is fixed at the
        // flush time, so a fence between flush and delivery makes them
        // recognisably stale.
        self.inner.drain_log_shipments_into(&mut self.shipments);
        for (node, at, encoded) in self.shipments.iter() {
            let epoch = self.leases.stamp_epoch(node, at);
            if self.inner.fabric_mut().unreachable(node) {
                self.pending
                    .entry(node)
                    .or_default()
                    .push((at, epoch, encoded.to_vec()));
            } else if let Some(nr) = self.nodes.get_mut(node as usize) {
                nr.ingest_stamped(at, encoded, epoch);
            }
        }

        // 2. Lease maintenance.
        let expires = now + Nanos::from_ns(self.plane.lease_ns);
        for id in 0..self.nodes.len() as u32 {
            let reachable = !self.inner.fabric_mut().unreachable(id);
            if reachable {
                if !self.leases.fenced(id) {
                    self.leases.renew(id, expires);
                    self.counters.lease_renewals.inc();
                }
            } else if self.leases.expired(id, now) {
                // The holder missed renewal while cut off. Fence it:
                // bump the epoch so in-flight batches go stale, and
                // (enforcing) charge the loss budget so its slabs are
                // re-replicated on the reachable side. With the budget
                // already spent, fencing waits for a repair to finish.
                if !self.plane.fencing || self.inner.fence_node(id) {
                    self.leases.fence(id, now);
                    self.counters.lease_expirations.inc();
                }
            }
        }

        // 3. Readmission: a fenced node that is reachable again rejoins
        // once its slabs are fully evacuated (with fencing, via a full
        // wipe-and-resync at the bumped epoch; without, the naive heal
        // keeps its stale memory — the scrubber's job to catch).
        for id in 0..self.nodes.len() as u32 {
            if !self.leases.fenced(id) || self.inner.fabric_mut().unreachable(id) {
                continue;
            }
            let evacuated = self.inner.node_evacuated(id);
            if self.plane.fencing && !evacuated {
                continue;
            }
            let epoch = self.leases.epoch(id);
            self.inner.reinstate_node(id, self.plane.fencing);
            if let Some(nr) = self.nodes.get_mut(id as usize) {
                if self.plane.fencing {
                    nr.rejoin(epoch);
                } else {
                    nr.grant_lease(epoch);
                }
            }
            self.leases.rejoin(id, expires);
            self.counters.lease_rejoins.inc();
            self.counters.lease_grants.inc();
        }

        // 4. Deliver parked shipments to nodes that are reachable and
        // hold a live lease. A node fenced in the interim sees them
        // arrive with the pre-fence epoch and refuses them.
        for id in 0..self.nodes.len() as u32 {
            if self.inner.fabric_mut().unreachable(id) || self.leases.fenced(id) {
                continue;
            }
            let Some(parked) = self.pending.remove(&id) else {
                continue;
            };
            if let Some(nr) = self.nodes.get_mut(id as usize) {
                for (at, epoch, encoded) in parked {
                    nr.ingest_stamped(at, &encoded, epoch);
                }
            }
        }

        // 5. Apply, surfacing typed fence rejections into counters and
        // the bounded error ring.
        for nr in &mut self.nodes {
            nr.apply();
            for e in nr.take_fence_rejections() {
                if self.fence_errors.len() < 64 {
                    self.fence_errors.push(e);
                }
            }
        }
        let fenced: u64 = self.nodes.iter().map(|n| n.stats().stale_rejected).sum();
        let stale: u64 = self.nodes.iter().map(|n| n.stats().stale_applied).sum();
        self.counters
            .fenced_writes
            .add(fenced.saturating_sub(self.fenced_seen));
        self.counters
            .stale_applied
            .add(stale.saturating_sub(self.stale_seen));
        self.fenced_seen = fenced;
        self.stale_seen = stale;

        // 6. Repair (it restores the replication budget) — surfacing
        // errors instead of discarding them — then scrub, then smooth
        // out any skew the replacement grants introduced.
        if self.should_repair() {
            if let Err(_e) = self.inner.repair_lost_nodes() {
                self.repair_errors += 1;
                self.counters.repair_errors.inc();
            }
        }
        if self.tracked
            && self.plane.scrub_interval_ticks > 0
            && self.ticks.is_multiple_of(self.plane.scrub_interval_ticks)
        {
            self.scrub_step();
        }
        let _ = self.inner.rebalance(self.plane.rebalance_skew_slabs);
    }

    /// With fencing, repair runs whenever nodes are lost. The naive
    /// plane instead waits out losses that will heal on their own
    /// (flapped or partitioned nodes) and only repairs permanent
    /// crashes — which is exactly how it ends up serving stale bytes
    /// after the heal.
    fn should_repair(&mut self) -> bool {
        let lost = self.inner.lost_nodes();
        if lost.is_empty() {
            return false;
        }
        if self.plane.fencing {
            return true;
        }
        lost.iter()
            .any(|&n| self.inner.fabric_mut().node_back_at(n).is_none())
    }

    /// One integrity-scrub step: digest the next few slabs' truth
    /// against every reachable copy's fabric memory, re-copying the
    /// truth bytes over any divergent copy.
    fn scrub_step(&mut self) {
        // Flush dirty lines first so truth and fabric agree for healthy
        // copies; under an active partition this can fail transiently,
        // which is fine — unreachable copies are skipped below.
        let _ = self.inner.sync();
        let picks = self
            .scrub_cursor
            .take(self.inner.slab_count(), self.plane.scrub_batch);
        for (base, len, copies) in self.inner.slab_copies_at(&picks) {
            let mut lines = 0usize;
            let want = self
                .truth
                .lines_in(base, len)
                .inspect(|_| lines += 1)
                .fold(FNV_OFFSET, |h, (off, bytes)| digest_fold(h, off, bytes));
            if lines == 0 {
                continue;
            }
            for copy in copies {
                if self.inner.fabric_mut().unreachable(copy.node()) {
                    self.scrub_stats.skipped += 1;
                    self.counters.scrub_skipped.inc();
                    continue;
                }
                let Some(mem) = self.inner.fabric_mut().node(copy.node()) else {
                    continue;
                };
                let got = self
                    .truth
                    .lines_in(base, len)
                    .fold(FNV_OFFSET, |h, (off, bytes)| {
                        digest_fold(h, off, mem.read_bytes(copy.offset() + off, bytes.len() as u64))
                    });
                self.scrub_stats.copies_checked += 1;
                self.counters.scrub_checked.inc();
                if got == want {
                    continue;
                }
                self.scrub_stats.divergence_found += 1;
                self.counters.scrub_divergent.inc();
                // Repair: re-copy the truth bytes, coalescing adjacent
                // lines into runs to keep the verb count down.
                let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
                for (off, bytes) in self.truth.lines_in(base, len) {
                    match runs.last_mut() {
                        Some((start, buf)) if *start + buf.len() as u64 == off => {
                            buf.extend_from_slice(bytes);
                        }
                        _ => runs.push((off, bytes.to_vec())),
                    }
                }
                let mut repaired = true;
                for (off, buf) in runs {
                    if self
                        .inner
                        .write_remote_retrying(copy.add(off), &buf)
                        .is_err()
                    {
                        repaired = false;
                        break;
                    }
                }
                if repaired {
                    self.scrub_stats.divergence_repaired += 1;
                    self.counters.scrub_repaired.inc();
                }
            }
        }
    }

    /// Runs a full integrity-scrub pass over every slab immediately
    /// (Tracked-mode only; unreachable copies are still skipped) — the
    /// end-of-run audit the partition experiments gate on.
    pub fn scrub_all(&mut self) {
        if !self.tracked {
            return;
        }
        let total = self.inner.slab_copies().len();
        let batch = self.plane.scrub_batch.max(1);
        for _ in 0..total.div_ceil(batch) {
            self.scrub_step();
        }
    }

    /// Lifetime integrity-scrub totals.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrub_stats
    }

    /// Drains the typed [`kona_types::KonaError::FencedEpoch`]
    /// rejections the apply workers raised (bounded at 64 between
    /// drains).
    pub fn drain_fence_errors(&mut self) -> Vec<kona_types::KonaError> {
        std::mem::take(&mut self.fence_errors)
    }

    /// Balloon support: allocates `bytes` of fresh remote memory (whole
    /// slabs when `bytes` exceeds half a slab, which is how the serving
    /// front end always calls it) and runs the control-plane upkeep the
    /// allocation's fabric traffic earned.
    pub fn balloon_grow(&mut self, bytes: u64) -> Result<VirtAddr> {
        let addr = self.inner.allocate(bytes)?;
        self.after_op();
        Ok(addr)
    }

    /// Balloon support: evacuates and releases `[addr, addr + bytes)`.
    /// Dirty lines are flushed to their home nodes first (the evacuation
    /// step — its failure propagates to the caller *before* anything is
    /// freed, so a failed shrink leaves the region intact), then the
    /// region's truth records are cleared and its slabs returned to the
    /// controller through the slab-reclamation machinery.
    pub fn balloon_release(&mut self, addr: VirtAddr, bytes: u64) -> Result<()> {
        self.inner.sync()?;
        self.truth.clear_range(addr.raw(), bytes);
        self.inner.free(addr, bytes);
        self.tick();
        Ok(())
    }

    /// QoS passthrough: FMem eviction priority for the pages backing
    /// `[base, base + bytes)` (see [`KonaRuntime::set_eviction_priority`]).
    pub fn set_eviction_priority(&mut self, base: VirtAddr, bytes: u64, priority: i8) {
        self.inner.set_eviction_priority(base, bytes, priority);
    }

    /// Rolled-up cluster health.
    pub fn cluster_stats(&self) -> ClusterStats {
        let rt = self.inner.stats();
        let ls = self.leases.stats();
        let mut out = ClusterStats {
            migration_bytes: rt.migration_bytes,
            rereplications: rt.rereplications,
            under_replicated: self.inner.under_replicated_slabs() as u64,
            lease_grants: ls.grants + ls.rejoins,
            lease_renewals: ls.renewals,
            lease_expirations: ls.expirations,
            lease_rejoins: ls.rejoins,
            repair_errors: self.repair_errors,
            scrub_checked: self.scrub_stats.copies_checked,
            scrub_divergence_found: self.scrub_stats.divergence_found,
            scrub_divergence_repaired: self.scrub_stats.divergence_repaired,
            scrub_skipped: self.scrub_stats.skipped,
            ..ClusterStats::default()
        };
        for nr in &self.nodes {
            let s = nr.stats();
            out.backlog_bytes += nr.backlog_bytes();
            out.entries_applied += s.entries_applied;
            out.bytes_applied += s.bytes_applied;
            out.entries_deduped += s.entries_deduped;
            out.pages_folded += s.pages_folded;
            out.compaction_dirty_lines += s.compaction_dirty_lines;
            out.compaction_pages += s.compaction_pages;
            out.fenced_writes += s.stale_rejected;
            out.stale_applied += s.stale_applied;
        }
        out
    }

    fn after_op(&mut self) {
        self.ops += 1;
        if self.plane.tick_ops > 0 && self.ops.is_multiple_of(self.plane.tick_ops) {
            self.tick();
        }
    }
}

impl RemoteMemoryRuntime for ClusterRuntime {
    fn name(&self) -> &str {
        "Kona-Cluster"
    }

    fn allocate(&mut self, bytes: u64) -> Result<VirtAddr> {
        self.inner.allocate(bytes)
    }

    fn free(&mut self, addr: VirtAddr, bytes: u64) {
        self.truth.clear_range(addr.raw(), bytes);
        self.inner.free(addr, bytes);
    }

    fn access(&mut self, access: MemAccess) -> Result<Nanos> {
        let t = self.inner.access(access)?;
        self.after_op();
        Ok(t)
    }

    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<Nanos> {
        let t = self.inner.write_bytes(addr, data)?;
        if self.tracked {
            self.truth.record_write(addr.raw(), data);
        }
        self.after_op();
        Ok(t)
    }

    fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<Nanos> {
        let t = self.inner.read_bytes(addr, buf)?;
        self.after_op();
        Ok(t)
    }

    fn sync(&mut self) -> Result<Nanos> {
        let t = self.inner.sync()?;
        // Sync is a drain point: always run the control tick so every
        // journaled shipment reaches its node runtime.
        self.tick();
        self.ops += 1;
        Ok(t)
    }

    fn stats(&self) -> RuntimeStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_types::ByteSize;

    fn config() -> ClusterConfig {
        ClusterConfig::small()
    }

    #[test]
    fn shipments_reach_node_runtimes_on_sync() {
        let mut rt = ClusterRuntime::new(config()).unwrap();
        let addr = rt.allocate(1 << 20).unwrap();
        rt.write_bytes(addr, &[0x5A; 4096]).unwrap();
        rt.sync().unwrap();
        let stats = rt.cluster_stats();
        assert!(stats.bytes_applied >= 4096, "stats: {stats:?}");
        assert_eq!(stats.backlog_bytes, 0);
        assert!(rt.ticks() >= 1);
    }

    #[test]
    fn node_store_matches_written_bytes() {
        let mut rt = ClusterRuntime::new(config()).unwrap();
        let addr = rt.allocate(1 << 20).unwrap();
        let pattern: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        rt.write_bytes(addr, &pattern).unwrap();
        rt.sync().unwrap();
        // The slab's primary node applied the flushed log; its store
        // mirrors the bytes at the slab's remote offset.
        let total: u64 = rt
            .nodes()
            .iter()
            .map(|n| n.stats().bytes_applied)
            .sum();
        assert!(total >= 256);
    }

    #[test]
    fn tick_cadence_follows_ops() {
        let mut rt = ClusterRuntime::with_telemetry(
            config(),
            ControlPlaneConfig {
                tick_ops: 2,
                ..ControlPlaneConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let addr = rt.allocate(1 << 20).unwrap();
        for i in 0..6u64 {
            rt.write_bytes(addr + i * 64, &[1; 64]).unwrap();
        }
        assert_eq!(rt.ticks(), 3);
    }

    #[test]
    fn occupancy_visible_through_control_plane() {
        let mut rt = ClusterRuntime::new(config()).unwrap();
        rt.allocate(1 << 20).unwrap();
        let occ = rt.occupancy();
        assert_eq!(occ.len(), 2);
        let used: u64 = occ.iter().map(|o| o.used).sum();
        assert_eq!(used, ByteSize::mib(1).bytes());
    }

    #[test]
    fn leases_granted_and_renewed_on_healthy_cluster() {
        let mut rt = ClusterRuntime::new(config()).unwrap();
        let addr = rt.allocate(1 << 20).unwrap();
        rt.write_bytes(addr, &[9; 1024]).unwrap();
        rt.sync().unwrap();
        let stats = rt.cluster_stats();
        assert_eq!(stats.lease_grants, 2, "one initial grant per node");
        assert!(stats.lease_renewals >= 2);
        assert_eq!(stats.lease_expirations, 0);
        assert_eq!(stats.fenced_writes, 0);
        assert_eq!(stats.stale_applied, 0);
        assert!(!rt.leases().fenced(0));
        assert_eq!(rt.leases().epoch(0), 1);
    }

    #[test]
    fn scrub_runs_clean_on_healthy_cluster() {
        let mut rt = ClusterRuntime::with_telemetry(
            config(),
            ControlPlaneConfig {
                tick_ops: 4,
                scrub_interval_ticks: 1,
                ..ControlPlaneConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let addr = rt.allocate(1 << 20).unwrap();
        for i in 0..32u64 {
            rt.write_bytes(addr + i * 64, &[i as u8; 64]).unwrap();
        }
        rt.sync().unwrap();
        let stats = rt.cluster_stats();
        assert!(stats.scrub_checked > 0, "stats: {stats:?}");
        assert_eq!(stats.scrub_divergence_found, 0);
        assert_eq!(stats.scrub_skipped, 0);
    }

    #[test]
    fn scrub_detects_and_repairs_injected_divergence() {
        let mut rt = ClusterRuntime::with_telemetry(
            config(),
            ControlPlaneConfig {
                tick_ops: 4,
                scrub_interval_ticks: 1,
                ..ControlPlaneConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let addr = rt.allocate(1 << 20).unwrap();
        rt.write_bytes(addr, &[0xAB; 256]).unwrap();
        rt.sync().unwrap();
        // Corrupt the primary copy behind the runtime's back.
        let copies = rt.inner().slab_copies();
        let (_, _, slab_copies) = &copies[0];
        let target = slab_copies[0];
        rt.inner_mut()
            .fabric_mut()
            .node_mut(target.node())
            .unwrap()
            .local_write(target.offset(), &[0xFF; 64]);
        let before = rt.cluster_stats();
        rt.sync().unwrap();
        let after = rt.cluster_stats();
        assert!(
            after.scrub_divergence_found > before.scrub_divergence_found,
            "divergence detected: {after:?}"
        );
        assert_eq!(after.scrub_divergence_found, after.scrub_divergence_repaired);
        // Another pass finds nothing: the repair converged.
        rt.sync().unwrap();
        let healed = rt.cluster_stats();
        assert_eq!(healed.scrub_divergence_found, after.scrub_divergence_found);
    }

    /// The batch-local scrub must reach every slab: corrupt the *last*
    /// slab's replica and walk the cursor across the wrap (`[0,1]`,
    /// `[2,0]`, `[1,2]` with three slabs and a batch of two).
    #[test]
    fn scrub_repairs_divergence_beyond_the_first_slab_across_cursor_wrap() {
        let mut rt = ClusterRuntime::with_telemetry(
            config().with_replicas(2),
            ControlPlaneConfig {
                tick_ops: 0,
                scrub_interval_ticks: 1,
                scrub_batch: 2,
                ..ControlPlaneConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let addr = rt.allocate(3 << 20).unwrap();
        for slab in 0..3u64 {
            rt.write_bytes(addr + (slab << 20) + 128, &[0xC0 + slab as u8; 192])
                .unwrap();
        }
        rt.sync().unwrap(); // scrubs slabs [0, 1]
        assert_eq!(rt.cluster_stats().scrub_divergence_found, 0);

        let copies = rt.inner().slab_copies();
        assert_eq!(copies.len(), 3);
        assert_eq!(
            rt.inner().slab_copies_at(&[2, 0]),
            vec![copies[2].clone(), copies[0].clone()]
        );
        let target = copies[2].2[1].add(128);
        let corrupt = |rt: &mut ClusterRuntime| {
            rt.inner_mut()
                .fabric_mut()
                .node_mut(target.node())
                .unwrap()
                .local_write(target.offset(), &[0xFF; 64]);
        };
        let stored = |rt: &mut ClusterRuntime| {
            let mem = rt.inner_mut().fabric_mut().node(target.node()).unwrap();
            mem.read_bytes(target.offset(), 64).to_vec()
        };

        corrupt(&mut rt);
        rt.sync().unwrap(); // scrubs [2, 0]: the wrap
        let stats = rt.cluster_stats();
        assert_eq!(stats.scrub_divergence_found, 1, "{stats:?}");
        assert_eq!(stats.scrub_divergence_repaired, 1);
        assert_eq!(stored(&mut rt), vec![0xC2; 64]);

        corrupt(&mut rt);
        rt.sync().unwrap(); // scrubs [1, 2]: slab 2 picked second
        let stats = rt.cluster_stats();
        assert_eq!(stats.scrub_divergence_found, 2, "{stats:?}");
        assert_eq!(stats.scrub_divergence_repaired, 2);
        assert_eq!(stored(&mut rt), vec![0xC2; 64]);
        // Two copies of two slabs per step, three steps.
        assert_eq!(stats.scrub_checked, 12);
    }
}
