//! The Eviction Handler: cache-line granularity writeback.
//!
//! Where a virtual-memory runtime must write entire 4 KiB pages back, Kona
//! "evicts 4KB pages, but writes only the dirty cache-lines to the remote
//! hosts" (§6.4): it scans the page's dirty bitmap, copies each dirty
//! segment into the per-node [`CacheLineLog`], and ships full logs with a
//! single RDMA write. The remote [`LogReceiver`] unpacks entries to their
//! home addresses and acknowledges.
//!
//! The handler accounts its time in the four phases of the paper's Fig 11c
//! breakdown: **Bitmap** scan, **Copy** into the RDMA buffer, **RDMA
//! write**, and **Ack wait**.

use crate::config::RetryPolicy;
use crate::log::{CacheLineLog, LogReceiver, ShipmentBatch};
use crate::metrics::names;
use crate::poller::Poller;
use kona_fpga::VictimPage;
use kona_net::{CopyModel, Fabric, WorkRequest};
use kona_telemetry::{Counter, EventKind, Histogram, Telemetry, Track};
use kona_types::rng::StdRng;
use kona_types::{FxHashMap, FxHashSet, Nanos, RemoteAddr, Result, CACHE_LINE_SIZE, PAGE_SIZE_4K};

/// Cost of scanning one page's 64-bit dirty bitmap.
const BITMAP_SCAN: Nanos = Nanos::from_ns(50);
/// Cache-miss latency charged once per dirty segment gathered (the first
/// touch of the segment in application memory).
const SEGMENT_GATHER: Nanos = Nanos::from_ns(60);

/// How dirty segments are copied into the RDMA log buffer.
///
/// §4.2 proposes `copy-dirty-data` as an *optional* third hardware
/// primitive: "The Eviction Handler copies dirty cache lines or pages to
/// the remote host. While this operation can be realized on current
/// hardware, it could also benefit from hardware acceleration."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CopyEngine {
    /// Software copy with AVX streaming (the paper's implementation).
    #[default]
    SoftwareAvx,
    /// The hypothetical `copy-dirty-data` primitive: the FPGA gathers
    /// dirty lines straight out of FMem into the log with no CPU
    /// involvement — no per-segment cache-miss gather, and DMA-rate
    /// copies.
    HardwareDma,
}

impl CopyEngine {
    /// Time to gather and copy one dirty segment of `bytes` bytes.
    fn segment_copy_time(self, copy: &CopyModel, bytes: u64) -> Nanos {
        match self {
            CopyEngine::SoftwareAvx => SEGMENT_GATHER + copy.avx_copy(bytes),
            // DMA engines pipeline descriptor setup with the transfer:
            // a small fixed descriptor cost plus streaming bandwidth.
            CopyEngine::HardwareDma => Nanos::from_ns(10) + copy.streaming_copy(bytes),
        }
    }
}

/// Time spent in each phase of cache-line eviction (Fig 11c).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionBreakdown {
    /// Scanning dirty bitmaps.
    pub bitmap: Nanos,
    /// Copying dirty lines into the RDMA log buffer.
    pub copy: Nanos,
    /// RDMA writes of the log.
    pub rdma_write: Nanos,
    /// Waiting for the receiver's acknowledgment.
    pub ack_wait: Nanos,
}

impl EvictionBreakdown {
    /// Total time across phases.
    pub fn total(&self) -> Nanos {
        self.bitmap + self.copy + self.rdma_write + self.ack_wait
    }

    /// Phase shares in percent `[bitmap, copy, rdma, ack]` (zeros when no
    /// time has accumulated).
    pub fn shares(&self) -> [f64; 4] {
        let total = self.total().as_ns() as f64;
        if total == 0.0 {
            return [0.0; 4];
        }
        [
            self.bitmap.as_ns() as f64 / total * 100.0,
            self.copy.as_ns() as f64 / total * 100.0,
            self.rdma_write.as_ns() as f64 / total * 100.0,
            self.ack_wait.as_ns() as f64 / total * 100.0,
        ]
    }
}

/// Eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionStats {
    /// Pages processed (dirty or clean).
    pub pages_evicted: u64,
    /// Pages that were clean and evicted silently.
    pub silent_evictions: u64,
    /// Dirty cache lines shipped.
    pub lines_written: u64,
    /// Dirty payload bytes shipped (goodput numerator).
    pub dirty_bytes_written: u64,
    /// Log flushes performed.
    pub flushes: u64,
    /// Flush posts retried after a transient fabric fault.
    pub flush_retries: u64,
    /// Node logs abandoned after retries exhausted (replicas hold the
    /// data; the node is marked lost and never read again).
    pub abandoned_flushes: u64,
    /// Writeback targets skipped because their node is marked lost.
    pub skipped_targets: u64,
    /// Degraded-mode flushes that combined all node logs into one chain.
    pub batched_flushes: u64,
    /// Lost nodes whose data has been re-replicated elsewhere (the loss
    /// budget regenerates by this much).
    pub repaired_nodes: u64,
}

impl EvictionStats {
    /// Accumulates another handler's counters (shard-merge aggregation).
    pub fn merge(&mut self, other: &EvictionStats) {
        self.pages_evicted += other.pages_evicted;
        self.silent_evictions += other.silent_evictions;
        self.lines_written += other.lines_written;
        self.dirty_bytes_written += other.dirty_bytes_written;
        self.flushes += other.flushes;
        self.flush_retries += other.flush_retries;
        self.abandoned_flushes += other.abandoned_flushes;
        self.skipped_targets += other.skipped_targets;
        self.batched_flushes += other.batched_flushes;
        self.repaired_nodes += other.repaired_nodes;
    }
}

/// The eviction handler.
///
/// One [`CacheLineLog`] per memory node aggregates entries; logs flush when
/// full or on [`EvictionHandler::flush_all`]. Pages with entries still
/// buffered are *pending*: the runtime must flush before re-fetching such a
/// page, or it would read stale remote data.
#[derive(Debug, Clone)]
pub struct EvictionHandler {
    logs: FxHashMap<u32, CacheLineLog>,
    receivers: FxHashMap<u32, LogReceiver>,
    /// Offset of each node's log landing region.
    log_region_offset: u64,
    log_capacity: usize,
    copy: CopyModel,
    engine: CopyEngine,
    breakdown: EvictionBreakdown,
    stats: EvictionStats,
    /// VFMem pages with unflushed log entries.
    pending_pages: FxHashSet<u64>,
    /// Retry policy for flush posts that hit transient fabric faults.
    retry: RetryPolicy,
    /// Jitter PRNG for flush-retry backoff (seeded; deterministic runs).
    rng: StdRng,
    /// How many nodes may be abandoned before flush errors become fatal.
    /// The runtime sets this to `replicas` (losing more would leave a
    /// page with no up-to-date copy).
    max_node_losses: usize,
    /// Nodes whose log was abandoned mid-run: their remote copy is stale,
    /// so they take no further writebacks and must not serve reads.
    lost_nodes: FxHashSet<u32>,
    /// Lost nodes whose slabs have since been re-replicated onto healthy
    /// nodes: they still take no writebacks, but they no longer consume
    /// the loss budget (the K-way guarantee has been restored).
    repaired_nodes: FxHashSet<u32>,
    /// When `Some`, every successfully flushed `(node, time, encoded log)`
    /// batch is journaled here for the cluster layer's memory-node
    /// runtimes to ingest (log application is idempotent, so re-applying
    /// the journal is safe). Arena-backed: see [`ShipmentBatch`].
    journal: Option<ShipmentBatch>,
    /// Degraded mode: widen batching by combining every node's log into
    /// one chained post per flush cycle.
    degraded: bool,
    telemetry: Telemetry,
    /// Shares cells with the runtime's counters (same registry names).
    pages_evicted: Counter,
    writeback_bytes: Counter,
    evict_ns: Histogram,
}

impl EvictionHandler {
    /// Creates a handler whose logs land at `log_region_offset` on each
    /// node and hold `log_capacity` bytes.
    pub fn new(log_region_offset: u64, log_capacity: usize) -> Self {
        let telemetry = Telemetry::disabled();
        EvictionHandler {
            logs: FxHashMap::default(),
            receivers: FxHashMap::default(),
            log_region_offset,
            log_capacity,
            copy: CopyModel::skylake(),
            engine: CopyEngine::default(),
            breakdown: EvictionBreakdown::default(),
            stats: EvictionStats::default(),
            pending_pages: FxHashSet::default(),
            retry: RetryPolicy::default(),
            rng: StdRng::seed_from_u64(RetryPolicy::default().seed ^ 0xE71C),
            max_node_losses: 0,
            lost_nodes: FxHashSet::default(),
            repaired_nodes: FxHashSet::default(),
            journal: None,
            degraded: false,
            pages_evicted: telemetry.counter(names::PAGES_EVICTED),
            writeback_bytes: telemetry.counter(names::WRITEBACK_BYTES),
            evict_ns: telemetry.histogram(names::EVICT_NS),
            telemetry,
        }
    }

    /// Routes the handler's metrics and span events into `telemetry`. The
    /// eviction counters resolve to the same registry cells as the
    /// runtime's (see [`crate::metrics::names`]), so stats stay exact.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.pages_evicted = telemetry.counter(names::PAGES_EVICTED);
        self.writeback_bytes = telemetry.counter(names::WRITEBACK_BYTES);
        self.evict_ns = telemetry.histogram(names::EVICT_NS);
        self.telemetry = telemetry.clone();
    }

    /// Selects the copy engine (§4.2's optional `copy-dirty-data`
    /// hardware primitive vs the default software AVX copy).
    pub fn set_copy_engine(&mut self, engine: CopyEngine) {
        self.engine = engine;
    }

    /// The active copy engine.
    pub fn copy_engine(&self) -> CopyEngine {
        self.engine
    }

    /// Sets the retry policy for flush posts (re-seeds the backoff PRNG
    /// from the policy's seed so identical configs replay identically).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.rng = StdRng::seed_from_u64(retry.seed ^ 0xE71C);
        self.retry = retry;
    }

    /// Sets how many nodes may be abandoned (log dropped, node marked
    /// lost) before a failed flush becomes a hard error.
    pub fn set_max_node_losses(&mut self, max: usize) {
        self.max_node_losses = max;
    }

    /// Enables or disables degraded-mode flushing (all node logs combined
    /// into one chained post per flush cycle).
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// Whether degraded-mode flushing is active.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Nodes abandoned after exhausting flush retries. Their remote copy
    /// is stale: the runtime must not fetch from them.
    pub fn lost_nodes(&self) -> &FxHashSet<u32> {
        &self.lost_nodes
    }

    /// Marks a lost node's data as re-replicated onto healthy nodes: the
    /// node stays lost (no writebacks, no reads) but stops consuming the
    /// loss budget, so a *further* node loss can again be absorbed.
    pub fn note_node_repaired(&mut self, node: u32) {
        if self.lost_nodes.contains(&node) && self.repaired_nodes.insert(node) {
            self.stats.repaired_nodes += 1;
        }
    }

    /// Proactively marks `node` lost — the control plane fencing a node
    /// whose lease expired, rather than waiting for a flush to it to
    /// fail. Consumes the same loss budget as a flush abandonment.
    /// Returns `false` (and leaves the node alone) when the budget is
    /// already exhausted: fencing the node would leave some page with no
    /// up-to-date copy, so the caller must keep retrying instead.
    pub fn note_node_lost(&mut self, node: u32) -> bool {
        if self.lost_nodes.contains(&node) {
            return true;
        }
        if self.unrepaired_losses() >= self.max_node_losses {
            return false;
        }
        self.lost_nodes.insert(node);
        self.stats.abandoned_flushes += 1;
        true
    }

    /// Fully reinstates a node the control plane has re-synced: it
    /// leaves the lost set entirely, takes writebacks and serves reads
    /// again, and a *future* loss of it consumes fresh budget. Compare
    /// [`EvictionHandler::note_node_repaired`], which only returns the
    /// budget while keeping the node quarantined.
    pub fn reinstate_node(&mut self, node: u32) {
        self.lost_nodes.remove(&node);
        self.repaired_nodes.remove(&node);
    }

    /// Whether a lost node's data has been re-replicated elsewhere
    /// (see [`EvictionHandler::note_node_repaired`]).
    pub fn node_repaired(&self, node: u32) -> bool {
        self.repaired_nodes.contains(&node)
    }

    /// Lost nodes still counting against the loss budget (lost minus
    /// repaired).
    pub fn unrepaired_losses(&self) -> usize {
        self.lost_nodes
            .iter()
            .filter(|n| !self.repaired_nodes.contains(n))
            .count()
    }

    /// Starts journaling flushed log batches (see
    /// [`EvictionHandler::drain_shipments`]).
    pub fn enable_shipment_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(ShipmentBatch::default());
        }
    }

    /// Drains the journal of successfully shipped `(node, flush time,
    /// encoded log)` batches accumulated since the last drain. Empty when
    /// journaling was never enabled.
    pub fn drain_shipments(&mut self) -> ShipmentBatch {
        self.journal.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Like [`EvictionHandler::drain_shipments`], but swaps the journal
    /// into the caller's batch so both sides keep their allocations: a
    /// steady ship-and-ingest loop reuses the same two arenas forever.
    pub fn drain_shipments_into(&mut self, out: &mut ShipmentBatch) {
        out.clear();
        if let Some(journal) = self.journal.as_mut() {
            std::mem::swap(journal, out);
        }
    }

    /// Accumulated phase breakdown.
    pub fn breakdown(&self) -> EvictionBreakdown {
        self.breakdown
    }

    /// Counters.
    pub fn stats(&self) -> EvictionStats {
        self.stats
    }

    /// Whether `page` has unflushed log entries.
    pub fn is_pending(&self, page_number: u64) -> bool {
        self.pending_pages.contains(&page_number)
    }

    /// Evicts one victim page: gathers its dirty segments into the logs of
    /// the primary (and any replica) homes. Returns the time spent; full
    /// logs are flushed inline.
    ///
    /// `page_data` supplies the page's bytes (`None` in timing-only mode,
    /// shipping zeros).
    ///
    /// # Errors
    ///
    /// Propagates fabric errors from inline flushes.
    pub fn evict_page(
        &mut self,
        victim: &VictimPage,
        page_data: Option<&[u8]>,
        primary: RemoteAddr,
        replicas: &[RemoteAddr],
        fabric: &mut Fabric,
        poller: &mut Poller,
    ) -> Result<Nanos> {
        let span = self.telemetry.span_open(Track::Background, EventKind::Evict);
        let res = self.evict_page_inner(victim, page_data, primary, replicas, fabric, poller);
        self.telemetry
            .span_close(span, *res.as_ref().unwrap_or(&Nanos::ZERO));
        self.telemetry.observe_time(fabric.now());
        res
    }

    fn evict_page_inner(
        &mut self,
        victim: &VictimPage,
        page_data: Option<&[u8]>,
        primary: RemoteAddr,
        replicas: &[RemoteAddr],
        fabric: &mut Fabric,
        poller: &mut Poller,
    ) -> Result<Nanos> {
        let mut elapsed = BITMAP_SCAN;
        self.breakdown.bitmap += BITMAP_SCAN;
        self.telemetry
            .span_leaf(Track::Background, EventKind::BitmapScan, BITMAP_SCAN);
        self.stats.pages_evicted += 1;
        self.pages_evicted.inc();

        if !victim.is_dirty() {
            self.stats.silent_evictions += 1;
            self.note_eviction(elapsed);
            return Ok(elapsed);
        }

        // Pack straight off the bitmap's segment iterator: no staging of
        // segment ranges, no per-segment payload buffer — each dirty run
        // is serialized directly into the per-node log exactly once per
        // target.
        for (start, len) in victim.dirty_lines.segments() {
            let byte_off = start as u64 * CACHE_LINE_SIZE;
            let byte_len = len as u64 * CACHE_LINE_SIZE;
            let src = page_data.map(|page| &page[byte_off as usize..(byte_off + byte_len) as usize]);
            // Gather + copy into the log buffer (charged once per target).
            // Lost nodes take no writebacks; goodput is counted on the
            // first surviving target (normally the primary).
            let mut counted = false;
            for target in std::iter::once(&primary).chain(replicas) {
                let node = target.node();
                if self.lost_nodes.contains(&node) {
                    self.stats.skipped_targets += 1;
                    continue;
                }
                let copy_time = self.engine.segment_copy_time(&self.copy, byte_len);
                self.breakdown.copy += copy_time;
                self.telemetry
                    .span_leaf(Track::Background, EventKind::SegmentCopy, copy_time);
                elapsed += copy_time;
                // Try-append first: one map lookup on the fast path, the
                // flush-then-retry re-lookup only when the log is full
                // (`append_segment` buffers nothing when it declines).
                let capacity = self.log_capacity;
                let appended = self
                    .logs
                    .entry(node)
                    .or_insert_with(|| CacheLineLog::new(capacity))
                    .append_segment(target.add(byte_off), byte_len as usize, src);
                if !appended {
                    elapsed += self.flush_node(node, fabric, poller)?;
                    let retried = self
                        .logs
                        .get_mut(&node)
                        .expect("log just ensured")
                        .append_segment(target.add(byte_off), byte_len as usize, src);
                    assert!(retried, "segment must fit after flush");
                }
                if !counted {
                    counted = true;
                    self.stats.lines_written += len as u64;
                    self.stats.dirty_bytes_written += byte_len;
                    self.writeback_bytes.add(byte_len);
                }
            }
        }
        self.pending_pages.insert(victim.page.raw());
        self.note_eviction(elapsed);
        Ok(elapsed)
    }

    /// Records one page eviction in the latency histogram.
    fn note_eviction(&mut self, elapsed: Nanos) {
        self.evict_ns.record(elapsed.as_ns());
    }

    /// Flushes one node's log: RDMA-writes the encoded buffer to the log
    /// region, lets the receiver unpack it, and waits for the ack.
    ///
    /// Transient fabric faults (dropped/corrupted/timed-out verbs, a node
    /// mid-flap) are retried under the handler's [`RetryPolicy`]; the log
    /// write is idempotent, so re-posting after a mid-chain fault is safe.
    /// When retries exhaust and the node-loss budget allows, the node is
    /// *abandoned*: its log is dropped (replicas hold the data) and it is
    /// recorded in [`EvictionHandler::lost_nodes`] so it never serves a
    /// stale read.
    ///
    /// # Errors
    ///
    /// Propagates non-transient fabric errors (unregistered log region,
    /// manually failed node) and transient ones past the loss budget.
    pub fn flush_node(
        &mut self,
        node: u32,
        fabric: &mut Fabric,
        poller: &mut Poller,
    ) -> Result<Nanos> {
        let Some(log) = self.logs.get_mut(&node) else {
            return Ok(Nanos::ZERO);
        };
        if log.used_bytes() == 0 {
            return Ok(Nanos::ZERO);
        }
        if self.lost_nodes.contains(&node) {
            // Entries queued before the node was abandoned: drop them,
            // the replicas carry the data.
            log.drain_encoded();
            if self.logs.values().all(|l| l.used_bytes() == 0) {
                self.pending_pages.clear();
            }
            return Ok(Nanos::ZERO);
        }
        let encoded = log.drain_encoded();
        self.stats.flushes += 1;

        // One RDMA write for the whole log ("Kona submits a single request
        // to the NIC for the whole log", §6.4). The fabric emits the verb
        // leaf on the network track; this span owns backoffs and the ack
        // wait (its uncovered residual attributes to the wire).
        let wb_span = self
            .telemetry
            .span_open(Track::Background, EventKind::Writeback);
        let mut backoff_total = Nanos::ZERO;
        let mut attempt = 0u32;
        let rdma_time = loop {
            let wr = WorkRequest::write(
                u64::from(node),
                RemoteAddr::new(node, self.log_region_offset),
                encoded.clone(),
            )
            .signaled();
            match poller.post_and_poll(fabric, vec![wr]) {
                Ok((t, _)) => break t,
                Err(e) if e.is_transient() && attempt + 1 < self.retry.max_attempts => {
                    self.stats.flush_retries += 1;
                    let backoff = self.retry.backoff_for(attempt, &mut self.rng);
                    attempt += 1;
                    // Back off on the eviction thread; simulated time
                    // advances so scheduled flaps can clear meanwhile.
                    fabric.advance_time(backoff);
                    self.telemetry
                        .span_leaf(Track::Background, EventKind::Backoff, backoff);
                    backoff_total += backoff;
                }
                Err(e) => {
                    if e.is_transient() && self.unrepaired_losses() < self.max_node_losses {
                        self.lost_nodes.insert(node);
                        self.stats.abandoned_flushes += 1;
                        if self.logs.values().all(|l| l.used_bytes() == 0) {
                            self.pending_pages.clear();
                        }
                        self.telemetry.span_close(wb_span, backoff_total);
                        return Ok(backoff_total);
                    }
                    self.telemetry.span_close(wb_span, backoff_total);
                    return Err(e);
                }
            }
        };
        self.breakdown.rdma_write += rdma_time;
        if let Some(journal) = &mut self.journal {
            journal.record(node, fabric.now(), &encoded);
        }

        // Remote thread unpacks and acknowledges. "The process is
        // asynchronous: the acknowledgment latency can be hidden by
        // continuing to process more dirty cache-lines during the waiting
        // time" (§4.4) — with double-buffered logs only a residual of the
        // unpack + ack round trip lands on the eviction thread.
        let receiver = self.receivers.entry(node).or_default();
        let node_mem = fabric
            .node_mut(node)
            .expect("post succeeded, node must exist");
        let report = receiver.apply(node_mem, &encoded);
        let ack_time = (report.unpack_time + fabric.model().verb_time(0)) / 4;
        self.breakdown.ack_wait += ack_time;
        self.telemetry
            .span_close(wb_span, backoff_total + rdma_time + ack_time);
        // The drained buffer goes back to the node's log: steady-state
        // flush cycles reuse one allocation per node.
        if let Some(log) = self.logs.get_mut(&node) {
            log.recycle(encoded);
        }

        // The flush resolves every pending page (logs are per-node but
        // clearing conservatively is correct and simple).
        if self.logs.values().all(|l| l.used_bytes() == 0) {
            self.pending_pages.clear();
        }
        Ok(backoff_total + rdma_time + ack_time)
    }

    /// Flushes every node's log. In degraded mode the per-node logs are
    /// combined into one work-request chain (one doorbell for the whole
    /// cycle) instead of one post per node — wider batching trades ack
    /// latency for fewer exposures to a flaky fabric.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors.
    pub fn flush_all(&mut self, fabric: &mut Fabric, poller: &mut Poller) -> Result<Nanos> {
        let span = self.telemetry.span_open(Track::Background, EventKind::Flush);
        let res = self.flush_all_inner(fabric, poller);
        self.telemetry
            .span_close(span, *res.as_ref().unwrap_or(&Nanos::ZERO));
        self.telemetry.observe_time(fabric.now());
        res
    }

    fn flush_all_inner(&mut self, fabric: &mut Fabric, poller: &mut Poller) -> Result<Nanos> {
        let total = if self.degraded {
            self.flush_all_batched(fabric, poller)?
        } else {
            let mut nodes: Vec<u32> = self.logs.keys().copied().collect();
            nodes.sort_unstable();
            let mut total = Nanos::ZERO;
            for node in nodes {
                total += self.flush_node(node, fabric, poller)?;
            }
            total
        };
        self.pending_pages.clear();
        Ok(total)
    }

    /// Degraded-mode flush: every node's log in one chained post, retried
    /// as a whole (idempotent, so a mid-chain fault re-posts safely).
    /// Nodes that keep failing are dropped from the batch within the
    /// loss budget, exactly as in [`EvictionHandler::flush_node`].
    fn flush_all_batched(&mut self, fabric: &mut Fabric, poller: &mut Poller) -> Result<Nanos> {
        let mut nodes: Vec<u32> = self
            .logs
            .iter()
            .filter(|(_, log)| log.used_bytes() > 0)
            .map(|(&node, _)| node)
            .collect();
        nodes.sort_unstable();
        let mut batch: Vec<(u32, Vec<u8>)> = Vec::new();
        for node in nodes {
            let log = self.logs.get_mut(&node).expect("node key from logs");
            if self.lost_nodes.contains(&node) {
                log.drain_encoded();
                continue;
            }
            batch.push((node, log.drain_encoded()));
        }
        if batch.is_empty() {
            return Ok(Nanos::ZERO);
        }
        self.stats.batched_flushes += 1;
        self.stats.flushes += batch.len() as u64;
        let wb_span = self
            .telemetry
            .span_open(Track::Background, EventKind::Writeback);
        let mut backoff_total = Nanos::ZERO;
        let mut attempt = 0u32;
        let rdma_time = loop {
            let last = batch.len() - 1;
            let chain: Vec<WorkRequest> = batch
                .iter()
                .enumerate()
                .map(|(i, (node, encoded))| {
                    let wr = WorkRequest::write(
                        u64::from(*node),
                        RemoteAddr::new(*node, self.log_region_offset),
                        encoded.clone(),
                    );
                    if i == last {
                        wr.signaled()
                    } else {
                        wr
                    }
                })
                .collect();
            match poller.post_and_poll(fabric, chain) {
                Ok((t, _)) => break t,
                Err(e) if e.is_transient() && attempt + 1 < self.retry.max_attempts => {
                    self.stats.flush_retries += 1;
                    let backoff = self.retry.backoff_for(attempt, &mut self.rng);
                    attempt += 1;
                    fabric.advance_time(backoff);
                    self.telemetry
                        .span_leaf(Track::Background, EventKind::Backoff, backoff);
                    backoff_total += backoff;
                }
                Err(e) => {
                    let lose = e.failed_node().filter(|_| {
                        e.is_transient() && self.unrepaired_losses() < self.max_node_losses
                    });
                    let Some(node) = lose else {
                        self.telemetry.span_close(wb_span, backoff_total);
                        return Err(e);
                    };
                    self.lost_nodes.insert(node);
                    self.stats.abandoned_flushes += 1;
                    batch.retain(|(n, _)| *n != node);
                    if batch.is_empty() {
                        self.telemetry.span_close(wb_span, backoff_total);
                        return Ok(backoff_total);
                    }
                    attempt = 0;
                }
            }
        };
        self.breakdown.rdma_write += rdma_time;
        if let Some(journal) = &mut self.journal {
            let now = fabric.now();
            for (node, encoded) in &batch {
                journal.record(*node, now, encoded);
            }
        }

        // Each receiver unpacks its own log; acks ride back together, so
        // only one verb round trip is charged for the whole batch.
        let mut unpack_total = Nanos::ZERO;
        for (node, encoded) in batch {
            let receiver = self.receivers.entry(node).or_default();
            let node_mem = fabric
                .node_mut(node)
                .expect("post succeeded, node must exist");
            let report = receiver.apply(node_mem, &encoded);
            unpack_total += report.unpack_time;
            if let Some(log) = self.logs.get_mut(&node) {
                log.recycle(encoded);
            }
        }
        let ack_time = (unpack_total + fabric.model().verb_time(0)) / 4;
        self.breakdown.ack_wait += ack_time;
        self.telemetry
            .span_close(wb_span, backoff_total + rdma_time + ack_time);
        Ok(backoff_total + rdma_time + ack_time)
    }

    /// The dirty-data amplification achieved by this handler so far:
    /// wire payload bytes over dirty bytes (1.0 = no amplification). A
    /// page-granularity evictor would ship `pages × 4096` instead.
    pub fn amplification(&self) -> f64 {
        if self.stats.dirty_bytes_written == 0 {
            return 0.0;
        }
        // Kona ships exactly the dirty bytes (plus small headers).
        1.0
    }

    /// What a 4 KiB-granularity evictor would have shipped for the same
    /// dirty pages, in bytes.
    pub fn page_granularity_equivalent_bytes(&self) -> u64 {
        (self.stats.pages_evicted - self.stats.silent_evictions) * PAGE_SIZE_4K
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_net::NetworkModel;
    use kona_types::rng::{Rng, StdRng};
    use kona_types::{LineBitmap, PageNumber, LINES_PER_PAGE_4K};

    fn fabric_with_nodes(n: u32) -> Fabric {
        let mut f = Fabric::new(NetworkModel::connectx5());
        for id in 0..n {
            f.add_node(id, (1 << 20) + 65536);
            f.register(id, 0, 1 << 20).unwrap();
            f.register(id, 1 << 20, 65536).unwrap(); // log region
        }
        f
    }

    fn victim(page: u64, dirty: &[usize]) -> VictimPage {
        let mut bm = LineBitmap::new(LINES_PER_PAGE_4K);
        for &l in dirty {
            bm.set(l);
        }
        VictimPage {
            page: PageNumber(page),
            dirty_lines: bm,
        }
    }

    #[test]
    fn clean_page_is_silent() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        let mut f = fabric_with_nodes(1);
        let mut p = Poller::new();
        let t = h
            .evict_page(&victim(0, &[]), None, RemoteAddr::new(0, 0), &[], &mut f, &mut p)
            .unwrap();
        assert_eq!(t, BITMAP_SCAN);
        assert_eq!(h.stats().silent_evictions, 1);
        assert_eq!(h.stats().dirty_bytes_written, 0);
    }

    #[test]
    fn dirty_lines_reach_remote_home() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        let mut f = fabric_with_nodes(1);
        let mut p = Poller::new();
        let mut page = vec![0u8; 4096];
        page[64..128].fill(0x77); // line 1 dirty
        h.evict_page(
            &victim(0, &[1]),
            Some(&page),
            RemoteAddr::new(0, 8192),
            &[],
            &mut f,
            &mut p,
        )
        .unwrap();
        assert!(h.is_pending(0));
        h.flush_all(&mut f, &mut p).unwrap();
        assert!(!h.is_pending(0));
        // Line 1 of the page landed at home offset 8192 + 64.
        assert_eq!(f.node(0).unwrap().read_bytes(8192 + 64, 64), &[0x77; 64][..]);
        // Neighbouring lines untouched.
        assert_eq!(f.node(0).unwrap().read_bytes(8192, 64), &[0u8; 64][..]);
        assert_eq!(h.stats().lines_written, 1);
        assert_eq!(h.stats().dirty_bytes_written, 64);
    }

    #[test]
    fn contiguous_segment_is_one_entry() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        let mut f = fabric_with_nodes(1);
        let mut p = Poller::new();
        h.evict_page(
            &victim(0, &[3, 4, 5]),
            None,
            RemoteAddr::new(0, 0),
            &[],
            &mut f,
            &mut p,
        )
        .unwrap();
        // One 3-line segment: copy charged once (gather) not thrice.
        let copies = h.breakdown().copy;
        let expected = SEGMENT_GATHER + CopyModel::skylake().avx_copy(192);
        assert_eq!(copies, expected);
        assert_eq!(h.stats().lines_written, 3);
    }

    #[test]
    fn full_log_flushes_inline() {
        // Tiny log: one 64-line page worth of entries overflows it.
        let mut h = EvictionHandler::new(1 << 20, 1024);
        let mut f = fabric_with_nodes(1);
        let mut p = Poller::new();
        let all: Vec<usize> = (0..LINES_PER_PAGE_4K).step_by(2).collect();
        h.evict_page(&victim(0, &all), None, RemoteAddr::new(0, 0), &[], &mut f, &mut p)
            .unwrap();
        assert!(h.stats().flushes >= 1, "inline flush expected");
    }

    /// §5.1 ablation: a log 64x smaller flushes ~64x as often (62x: a
    /// one-line entry is 80 bytes, so 12 fit in 1 KiB and 819 in 64 KiB),
    /// paying the RDMA base latency each time.
    #[test]
    fn small_log_flushes_about_64x_as_often() {
        let run = |log_capacity| {
            let mut h = EvictionHandler::new(1 << 20, log_capacity);
            let mut f = fabric_with_nodes(1);
            let mut p = Poller::new();
            for page in 0..8192u64 {
                let home = RemoteAddr::new(0, page % 256 * 4096);
                h.evict_page(&victim(page, &[0]), None, home, &[], &mut f, &mut p)
                    .unwrap();
            }
            h.flush_all(&mut f, &mut p).unwrap();
            (h.stats().flushes, h.breakdown().total())
        };
        let (small_flushes, small_cost) = run(1 << 10);
        let (large_flushes, large_cost) = run(1 << 16);
        assert!(
            (60..=64).contains(&(small_flushes / large_flushes)),
            "{small_flushes} vs {large_flushes} flushes"
        );
        assert!(
            small_cost > large_cost + large_cost,
            "{small_cost} vs {large_cost}"
        );
    }

    #[test]
    fn replication_writes_to_all_targets() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        let mut f = fabric_with_nodes(2);
        let mut p = Poller::new();
        let mut page = vec![0u8; 4096];
        page[..64].fill(0x42);
        h.evict_page(
            &victim(0, &[0]),
            Some(&page),
            RemoteAddr::new(0, 0),
            &[RemoteAddr::new(1, 0)],
            &mut f,
            &mut p,
        )
        .unwrap();
        h.flush_all(&mut f, &mut p).unwrap();
        assert_eq!(f.node(0).unwrap().read_bytes(0, 64), &[0x42; 64][..]);
        assert_eq!(f.node(1).unwrap().read_bytes(0, 64), &[0x42; 64][..]);
        // Goodput accounting counts the primary only.
        assert_eq!(h.stats().dirty_bytes_written, 64);
    }

    #[test]
    fn breakdown_phases_all_populated() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        let mut f = fabric_with_nodes(1);
        let mut p = Poller::new();
        for page in 0..8u64 {
            h.evict_page(
                &victim(page, &[0, 1, 10]),
                None,
                RemoteAddr::new(0, page * 4096),
                &[],
                &mut f,
                &mut p,
            )
            .unwrap();
        }
        h.flush_all(&mut f, &mut p).unwrap();
        let b = h.breakdown();
        assert!(b.bitmap > Nanos::ZERO);
        assert!(b.copy > Nanos::ZERO);
        assert!(b.rdma_write > Nanos::ZERO);
        assert!(b.ack_wait > Nanos::ZERO);
        let shares = b.shares();
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn hardware_copy_engine_is_faster() {
        let mut fabric_a = fabric_with_nodes(1);
        let mut fabric_b = fabric_with_nodes(1);
        let mut pa = Poller::new();
        let mut pb = Poller::new();
        let mut sw = EvictionHandler::new(1 << 20, 65536);
        let mut hw = EvictionHandler::new(1 << 20, 65536);
        hw.set_copy_engine(CopyEngine::HardwareDma);
        assert_eq!(hw.copy_engine(), CopyEngine::HardwareDma);
        for p in 0..32u64 {
            sw.evict_page(&victim(p, &[0, 5, 9]), None, RemoteAddr::new(0, p * 4096), &[], &mut fabric_a, &mut pa)
                .unwrap();
            hw.evict_page(&victim(p, &[0, 5, 9]), None, RemoteAddr::new(0, p * 4096), &[], &mut fabric_b, &mut pb)
                .unwrap();
        }
        assert!(
            hw.breakdown().copy < sw.breakdown().copy / 2,
            "hw {:?} vs sw {:?}",
            hw.breakdown().copy,
            sw.breakdown().copy
        );
        // Identical data movement either way.
        assert_eq!(hw.stats().dirty_bytes_written, sw.stats().dirty_bytes_written);
    }

    /// For any dirty bitmap and page contents, exactly the dirty lines
    /// reach their remote home — no more, no less, byte for byte.
    #[test]
    fn prop_exact_dirty_lines_transferred() {
        let mut rng = StdRng::seed_from_u64(0xE71C);
        for _ in 0..32 {
            let dirty: Vec<bool> = (0..LINES_PER_PAGE_4K).map(|_| rng.gen()).collect();
            let seed: u8 = rng.gen();
            let mut h = EvictionHandler::new(1 << 20, 65536);
            let mut f = fabric_with_nodes(1);
            let mut p = Poller::new();
            let mut bm = LineBitmap::new(LINES_PER_PAGE_4K);
            let mut page = vec![0u8; 4096];
            for (i, byte) in page.iter_mut().enumerate() {
                *byte = (i as u8).wrapping_add(seed).max(1);
            }
            for (i, &d) in dirty.iter().enumerate() {
                if d {
                    bm.set(i);
                }
            }
            let victim = VictimPage {
                page: PageNumber(0),
                dirty_lines: bm,
            };
            h.evict_page(&victim, Some(&page), RemoteAddr::new(0, 0), &[], &mut f, &mut p)
                .unwrap();
            h.flush_all(&mut f, &mut p).unwrap();
            let node = f.node(0).unwrap();
            for (line, &d) in dirty.iter().enumerate() {
                let off = line as u64 * 64;
                let remote = node.read_bytes(off, 64);
                if d {
                    assert_eq!(
                        remote,
                        &page[off as usize..off as usize + 64],
                        "dirty line {line} corrupted"
                    );
                } else {
                    assert_eq!(remote, &[0u8; 64][..], "clean line {line} written");
                }
            }
            let expected: u64 = dirty.iter().filter(|&&d| d).count() as u64 * 64;
            assert_eq!(h.stats().dirty_bytes_written, expected);
        }
    }

    #[test]
    fn flush_retry_rides_out_a_flap() {
        use kona_net::{FaultInjector, FaultPlan};
        let mut h = EvictionHandler::new(1 << 20, 65536);
        h.set_retry_policy(RetryPolicy {
            max_attempts: 4,
            base_backoff: Nanos::micros(40),
            max_backoff: Nanos::micros(200),
            jitter: 0.0,
            ..RetryPolicy::default()
        });
        let mut f = fabric_with_nodes(1);
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(7).with_flap(0, Nanos::ZERO, Nanos::micros(30)),
        ));
        let mut p = Poller::new();
        let mut page = vec![0u8; 4096];
        page[..64].fill(0x5A);
        h.evict_page(&victim(0, &[0]), Some(&page), RemoteAddr::new(0, 0), &[], &mut f, &mut p)
            .unwrap();
        h.flush_all(&mut f, &mut p).unwrap();
        // First post hits the down node; the 40 µs backoff outlasts the
        // 30 µs flap and the retry lands the data.
        assert_eq!(h.stats().flush_retries, 1);
        assert!(h.lost_nodes().is_empty());
        assert_eq!(f.node(0).unwrap().read_bytes(0, 64), &[0x5A; 64][..]);
    }

    #[test]
    fn exhausted_retries_abandon_node_within_budget() {
        use kona_net::{FaultInjector, FaultPlan};
        let mut h = EvictionHandler::new(1 << 20, 65536);
        h.set_retry_policy(RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        });
        h.set_max_node_losses(1);
        let mut f = fabric_with_nodes(2);
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(7).with_crash(0, Nanos::ZERO),
        ));
        let mut p = Poller::new();
        let mut page = vec![0u8; 4096];
        page[..64].fill(0x33);
        h.evict_page(
            &victim(0, &[0]),
            Some(&page),
            RemoteAddr::new(0, 0),
            &[RemoteAddr::new(1, 0)],
            &mut f,
            &mut p,
        )
        .unwrap();
        h.flush_all(&mut f, &mut p).unwrap();
        // The crashed primary is abandoned; the replica holds the data.
        assert!(h.lost_nodes().contains(&0));
        assert_eq!(h.stats().abandoned_flushes, 1);
        assert_eq!(f.node(1).unwrap().read_bytes(0, 64), &[0x33; 64][..]);
        // Later evictions skip the lost node but still count goodput.
        let before = h.stats().dirty_bytes_written;
        h.evict_page(
            &victim(1, &[0]),
            Some(&page),
            RemoteAddr::new(0, 4096),
            &[RemoteAddr::new(1, 4096)],
            &mut f,
            &mut p,
        )
        .unwrap();
        assert_eq!(h.stats().skipped_targets, 1);
        assert_eq!(h.stats().dirty_bytes_written, before + 64);
        h.flush_all(&mut f, &mut p).unwrap();
        assert_eq!(f.node(1).unwrap().read_bytes(4096, 64), &[0x33; 64][..]);
    }

    #[test]
    fn exhausted_retries_without_budget_error_out() {
        use kona_net::{FaultInjector, FaultPlan};
        let mut h = EvictionHandler::new(1 << 20, 65536);
        h.set_retry_policy(RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        });
        let mut f = fabric_with_nodes(1);
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(7).with_crash(0, Nanos::ZERO),
        ));
        let mut p = Poller::new();
        h.evict_page(&victim(0, &[0]), None, RemoteAddr::new(0, 0), &[], &mut f, &mut p)
            .unwrap();
        assert!(h.flush_all(&mut f, &mut p).is_err());
    }

    #[test]
    fn degraded_mode_batches_all_logs_into_one_post() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        h.set_degraded(true);
        assert!(h.is_degraded());
        let mut f = fabric_with_nodes(2);
        let mut p = Poller::new();
        let mut page = vec![0u8; 4096];
        page[..64].fill(0x42);
        h.evict_page(
            &victim(0, &[0]),
            Some(&page),
            RemoteAddr::new(0, 0),
            &[RemoteAddr::new(1, 0)],
            &mut f,
            &mut p,
        )
        .unwrap();
        h.flush_all(&mut f, &mut p).unwrap();
        assert_eq!(h.stats().batched_flushes, 1);
        assert_eq!(h.stats().flushes, 2, "both node logs in the batch");
        assert_eq!(f.node(0).unwrap().read_bytes(0, 64), &[0x42; 64][..]);
        assert_eq!(f.node(1).unwrap().read_bytes(0, 64), &[0x42; 64][..]);
        // The whole cycle was one doorbell.
        assert_eq!(f.stats().posts, 1);
        assert!(!h.is_pending(0));
    }

    #[test]
    fn shipment_journal_records_flushed_batches() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        h.enable_shipment_journal();
        let mut f = fabric_with_nodes(2);
        let mut p = Poller::new();
        let mut page = vec![0u8; 4096];
        page[..64].fill(0x21);
        h.evict_page(
            &victim(0, &[0]),
            Some(&page),
            RemoteAddr::new(0, 0),
            &[RemoteAddr::new(1, 0)],
            &mut f,
            &mut p,
        )
        .unwrap();
        assert!(h.drain_shipments().is_empty(), "nothing shipped yet");
        h.flush_all(&mut f, &mut p).unwrap();
        let shipped = h.drain_shipments();
        assert_eq!(shipped.len(), 2, "one batch per node");
        let mut nodes: Vec<u32> = shipped.iter().map(|(n, _, _)| n).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1]);
        // Journaled bytes are the encoded log: header + one line.
        assert!(shipped.iter().all(|(_, _, enc)| enc.len() == 16 + 64));
        // Drain empties the journal; the swapping drain keeps reusing the
        // caller's arena.
        assert!(h.drain_shipments().is_empty());
        let mut reuse = shipped;
        h.evict_page(&victim(1, &[0]), Some(&page), RemoteAddr::new(0, 4096), &[], &mut f, &mut p)
            .unwrap();
        h.flush_all(&mut f, &mut p).unwrap();
        h.drain_shipments_into(&mut reuse);
        assert_eq!(reuse.len(), 1);
        h.drain_shipments_into(&mut reuse);
        assert!(reuse.is_empty());
        // Journaling is opt-in: a fresh handler journals nothing.
        let mut h2 = EvictionHandler::new(1 << 20, 65536);
        let mut f2 = fabric_with_nodes(1);
        h2.evict_page(&victim(0, &[0]), Some(&page), RemoteAddr::new(0, 0), &[], &mut f2, &mut p)
            .unwrap();
        h2.flush_all(&mut f2, &mut p).unwrap();
        assert!(h2.drain_shipments().is_empty());
    }

    #[test]
    fn repaired_node_replenishes_loss_budget() {
        use kona_net::{FaultInjector, FaultPlan};
        let mut h = EvictionHandler::new(1 << 20, 65536);
        h.set_retry_policy(RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        });
        h.set_max_node_losses(1);
        let mut f = fabric_with_nodes(3);
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(7)
                .with_crash(0, Nanos::ZERO)
                .with_crash(1, Nanos::ZERO),
        ));
        let mut p = Poller::new();
        let mut page = vec![0u8; 4096];
        page[..64].fill(0x44);
        h.evict_page(
            &victim(0, &[0]),
            Some(&page),
            RemoteAddr::new(0, 0),
            &[RemoteAddr::new(2, 0)],
            &mut f,
            &mut p,
        )
        .unwrap();
        h.flush_all(&mut f, &mut p).unwrap();
        assert!(h.lost_nodes().contains(&0));
        assert_eq!(h.unrepaired_losses(), 1);
        // Budget exhausted: losing node 1 now would be fatal ...
        h.evict_page(
            &victim(1, &[0]),
            Some(&page),
            RemoteAddr::new(1, 0),
            &[RemoteAddr::new(2, 4096)],
            &mut f,
            &mut p,
        )
        .unwrap();
        assert!(h.flush_all(&mut f, &mut p).is_err());
        // ... but after re-replication repairs node 0, the budget
        // regenerates and node 1's loss is absorbed.
        h.note_node_repaired(0);
        assert_eq!(h.unrepaired_losses(), 0);
        assert_eq!(h.stats().repaired_nodes, 1);
        h.evict_page(
            &victim(2, &[0]),
            Some(&page),
            RemoteAddr::new(1, 8192),
            &[RemoteAddr::new(2, 8192)],
            &mut f,
            &mut p,
        )
        .unwrap();
        h.flush_all(&mut f, &mut p).unwrap();
        assert!(h.lost_nodes().contains(&1));
        assert_eq!(h.unrepaired_losses(), 1);
        assert_eq!(f.node(2).unwrap().read_bytes(8192, 64), &[0x44; 64][..]);
        // Repairing an unknown node is a no-op.
        h.note_node_repaired(99);
        assert_eq!(h.stats().repaired_nodes, 1);
    }

    #[test]
    fn page_equivalent_bytes() {
        let mut h = EvictionHandler::new(1 << 20, 65536);
        let mut f = fabric_with_nodes(1);
        let mut p = Poller::new();
        h.evict_page(&victim(0, &[0]), None, RemoteAddr::new(0, 0), &[], &mut f, &mut p)
            .unwrap();
        h.evict_page(&victim(1, &[]), None, RemoteAddr::new(0, 4096), &[], &mut f, &mut p)
            .unwrap();
        assert_eq!(h.page_granularity_equivalent_bytes(), 4096);
        assert_eq!(h.amplification(), 1.0);
    }
}
