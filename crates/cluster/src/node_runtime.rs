//! The memory-node runtime: backlog ingestion, log compaction and apply.
//!
//! Each memory node runs a small software runtime (the paper's cache-line
//! log receiver, §4.4) that unpacks shipped log batches into the node's
//! page store. This module models that runtime in simulated time: batches
//! journaled by the compute node's eviction handler land in an apply
//! backlog, a background compaction worker dedupes same-line entries and
//! folds hot pages into full-page images, and the apply worker charges
//! per-entry decode plus streaming-copy costs to the node's local clock.

use kona::{CacheLineLog, LogEntry};
use kona_telemetry::{EventKind, Gauge, Histogram, Telemetry, Track};
use kona_types::{
    FxHashMap, KonaError, LineBitmap, Nanos, RemoteAddr, CACHE_LINE_SIZE, LINES_PER_PAGE_4K,
    PAGE_SIZE_4K,
};
use std::collections::VecDeque;

/// Tuning for a memory node's apply/compaction worker.
#[derive(Debug, Clone, Copy)]
pub struct NodeRuntimeConfig {
    /// Dirty-line ratio at or above which the compactor folds a page's
    /// surviving entries into one full-page image (the FPGA applies the
    /// same threshold idea to its dirty-compaction accounting).
    pub fold_threshold: f64,
    /// Fixed decode cost per log entry ("a few memory reads and writes").
    pub per_entry_ns: u64,
    /// Streaming-copy bandwidth into the page store, in bytes per
    /// nanosecond.
    pub copy_bytes_per_ns: u64,
}

impl Default for NodeRuntimeConfig {
    fn default() -> Self {
        NodeRuntimeConfig {
            fold_threshold: 0.5,
            per_entry_ns: 15,
            copy_bytes_per_ns: 16,
        }
    }
}

/// Lifetime totals for one memory-node runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeRuntimeStats {
    /// Log batches received into the backlog.
    pub batches_ingested: u64,
    /// Entries received into the backlog.
    pub entries_ingested: u64,
    /// Encoded bytes received into the backlog.
    pub bytes_ingested: u64,
    /// Entries written into the page store (post-compaction).
    pub entries_applied: u64,
    /// Payload bytes written into the page store.
    pub bytes_applied: u64,
    /// Entries dropped by same-line dedupe (a newer write to the exact
    /// same range superseded them before they were applied).
    pub entries_deduped: u64,
    /// Pages whose entries were folded into one full-page image.
    pub pages_folded: u64,
    /// Pages touched by compaction (denominator of the compaction ratio).
    pub compaction_pages: u64,
    /// Dirty lines observed across compacted pages (numerator).
    pub compaction_dirty_lines: u64,
    /// Entries refused because their batch carried a stale grantor
    /// epoch while fencing was enforced (each refusal surfaces a
    /// [`KonaError::FencedEpoch`]).
    pub stale_rejected: u64,
    /// Entries from stale-epoch batches applied anyway because fencing
    /// enforcement was off — the split-brain writes integrity
    /// scrubbing exists to catch.
    pub stale_applied: u64,
    /// Simulated time the apply worker has spent.
    pub apply_time: Nanos,
}

impl NodeRuntimeStats {
    /// Mean fraction of each compacted page that was dirty — the same
    /// shape as `KonaFpga::dirty_compaction_ratio`, measured at the
    /// receiving node. High ratios mean folding to full-page images is
    /// winning; low ratios mean fine-grained entries carry the traffic.
    pub fn compaction_ratio(&self) -> f64 {
        if self.compaction_pages == 0 {
            return 0.0;
        }
        self.compaction_dirty_lines as f64
            / (self.compaction_pages * LINES_PER_PAGE_4K as u64) as f64
    }
}

/// One memory node's software runtime.
///
/// # Examples
///
/// ```
/// # use kona_cluster::MemoryNodeRuntime;
/// # use kona::{CacheLineLog, LogEntry};
/// # use kona_types::{Nanos, RemoteAddr};
/// let mut node = MemoryNodeRuntime::new(0);
/// let mut log = CacheLineLog::new(4096);
/// log.append(LogEntry { remote: RemoteAddr::new(0, 128), data: vec![7; 64] });
/// node.ingest(Nanos::from_ns(100), log.drain_encoded());
/// assert_eq!(node.backlog_batches(), 1);
/// node.apply();
/// assert_eq!(node.backlog_batches(), 0);
/// assert_eq!(node.read_bytes(128, 64), vec![7; 64]);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryNodeRuntime {
    id: u32,
    config: NodeRuntimeConfig,
    /// Page images keyed by page index within the node (offset / 4 KiB).
    pages: FxHashMap<u64, Vec<u8>>,
    /// Per-page dirty-line bitmaps accumulated across applied batches.
    dirty: FxHashMap<u64, LineBitmap>,
    /// Received-but-unapplied `(shipped at, grantor epoch, encoded)`
    /// batches, in arrival order.
    backlog: VecDeque<(Nanos, u64, Vec<u8>)>,
    backlog_bytes: u64,
    /// The grantor epoch of this node's current lease. Batches stamped
    /// with an older epoch were shipped before the node was fenced.
    epoch: u64,
    /// Whether stale-epoch batches are rejected (lease fencing) or
    /// applied anyway (the naive heal).
    fencing: bool,
    /// Typed rejections accumulated by the apply worker, drained by the
    /// control plane via [`MemoryNodeRuntime::take_fence_rejections`].
    fence_rejections: Vec<KonaError>,
    /// The node's local apply clock: tracks the latest shipment time seen,
    /// advanced by apply work.
    clock: Nanos,
    stats: NodeRuntimeStats,
    telemetry: Telemetry,
    backlog_gauge: Gauge,
    backlog_batches_gauge: Gauge,
    /// Backlog depths observed at ingest. Gauges only land at window
    /// close, so a backlog that drains within one control-plane tick is
    /// invisible to them; the histograms keep the within-window peaks.
    backlog_depth_hist: Histogram,
    backlog_bytes_hist: Histogram,
    ratio_gauge: Gauge,
}

impl MemoryNodeRuntime {
    /// Creates a node runtime with default tuning and no telemetry.
    pub fn new(id: u32) -> Self {
        Self::with_telemetry(id, NodeRuntimeConfig::default(), Telemetry::disabled())
    }

    /// Creates a node runtime with explicit tuning, publishing
    /// `cluster.node<id>.*` gauges and Cluster-track spans to `telemetry`.
    pub fn with_telemetry(id: u32, config: NodeRuntimeConfig, telemetry: Telemetry) -> Self {
        let backlog_gauge = telemetry.gauge_interned("cluster.node", id, "backlog_bytes");
        let backlog_batches_gauge = telemetry.gauge_interned("cluster.node", id, "backlog_batches");
        let backlog_depth_hist = telemetry.histogram_interned("cluster.node", id, "backlog_depth");
        let backlog_bytes_hist =
            telemetry.histogram_interned("cluster.node", id, "backlog_bytes_depth");
        let ratio_gauge = telemetry.gauge_interned("cluster.node", id, "compaction_ratio");
        MemoryNodeRuntime {
            id,
            config,
            pages: FxHashMap::default(),
            dirty: FxHashMap::default(),
            backlog: VecDeque::new(),
            backlog_bytes: 0,
            epoch: 0,
            fencing: true,
            fence_rejections: Vec::new(),
            clock: Nanos::ZERO,
            stats: NodeRuntimeStats::default(),
            telemetry,
            backlog_gauge,
            backlog_batches_gauge,
            backlog_depth_hist,
            backlog_bytes_hist,
            ratio_gauge,
        }
    }

    /// This node's fabric id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Batches waiting in the apply backlog.
    pub fn backlog_batches(&self) -> usize {
        self.backlog.len()
    }

    /// Encoded bytes waiting in the apply backlog.
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// The node's local clock (latest shipment seen plus apply work).
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Lifetime totals.
    pub fn stats(&self) -> NodeRuntimeStats {
        self.stats
    }

    /// The page image at `page_index` (offset / 4 KiB), if any entry has
    /// ever been applied to it.
    pub fn page(&self, page_index: u64) -> Option<&[u8]> {
        self.pages.get(&page_index).map(Vec::as_slice)
    }

    /// Reads `len` bytes at `offset` from the applied page store; bytes
    /// never written read as zero.
    pub fn read_bytes(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let pos = offset + done as u64;
            let page = pos / PAGE_SIZE_4K;
            let start = (pos % PAGE_SIZE_4K) as usize;
            let chunk = (PAGE_SIZE_4K as usize - start).min(len - done);
            if let Some(image) = self.pages.get(&page) {
                out[done..done + chunk].copy_from_slice(&image[start..start + chunk]);
            }
            done += chunk;
        }
        out
    }

    /// The grantor epoch of this node's current lease (0 before any
    /// grant — everything is accepted).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Installs a lease at `epoch`. Epochs only move forward; a stale
    /// grant is ignored.
    pub fn grant_lease(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Turns stale-epoch rejection on (lease fencing, the default) or
    /// off (apply everything and count it — the naive heal the
    /// integrity scrubber backstops).
    pub fn set_fencing(&mut self, on: bool) {
        self.fencing = on;
    }

    /// Rejoins after a fence: the page store, dirty accounting and
    /// apply backlog are wiped — the node re-syncs from scratch rather
    /// than trusting pre-partition state — and the lease is re-granted
    /// at the bumped `epoch`. Lifetime stats and the local clock are
    /// kept.
    pub fn rejoin(&mut self, epoch: u64) {
        self.pages.clear();
        self.dirty.clear();
        self.backlog.clear();
        self.backlog_bytes = 0;
        self.backlog_gauge.set(0.0);
        self.backlog_batches_gauge.set(0.0);
        self.epoch = self.epoch.max(epoch);
    }

    /// Typed [`KonaError::FencedEpoch`] rejections recorded by the
    /// apply worker since the last drain.
    pub fn take_fence_rejections(&mut self) -> Vec<KonaError> {
        std::mem::take(&mut self.fence_rejections)
    }

    /// Receives one encoded log batch shipped at `at` into the backlog,
    /// stamped with the node's current lease epoch.
    pub fn ingest(&mut self, at: Nanos, encoded: Vec<u8>) {
        self.note_ingest(at, &encoded);
        self.backlog.push_back((at, self.epoch, encoded));
        self.publish_backlog_depth();
        self.telemetry.observe_time(self.clock);
    }

    /// [`MemoryNodeRuntime::ingest`] for borrowed batches — the shape the
    /// eviction handler's arena-backed shipment journal hands out.
    pub fn ingest_slice(&mut self, at: Nanos, encoded: &[u8]) {
        self.ingest_stamped(at, encoded, self.epoch);
    }

    /// [`MemoryNodeRuntime::ingest_slice`] with an explicit grantor
    /// epoch — the control plane stamps each drained shipment with the
    /// epoch its lease table held when the batch was flushed, so the
    /// apply worker can tell pre-fence traffic from live traffic.
    pub fn ingest_stamped(&mut self, at: Nanos, encoded: &[u8], epoch: u64) {
        self.note_ingest(at, encoded);
        self.backlog.push_back((at, epoch, encoded.to_vec()));
        self.publish_backlog_depth();
        self.telemetry.observe_time(self.clock);
    }

    /// Publishes the post-ingest backlog depth: gauges carry the value
    /// visible at the next window boundary; the histograms record every
    /// ingest-time sample so peaks inside a window survive even when the
    /// apply worker drains the backlog before the boundary.
    fn publish_backlog_depth(&mut self) {
        self.backlog_gauge.set(self.backlog_bytes as f64);
        self.backlog_batches_gauge.set(self.backlog.len() as f64);
        self.backlog_depth_hist.record(self.backlog.len() as u64);
        self.backlog_bytes_hist.record(self.backlog_bytes);
    }

    /// Shared ingest bookkeeping (entry counting walks headers only — no
    /// decode allocation on the receive path).
    fn note_ingest(&mut self, at: Nanos, encoded: &[u8]) {
        self.stats.batches_ingested += 1;
        self.stats.entries_ingested += CacheLineLog::entry_count(encoded) as u64;
        self.stats.bytes_ingested += encoded.len() as u64;
        self.backlog_bytes += encoded.len() as u64;
        self.clock = self.clock.max(at);
    }

    /// Runs the compaction worker then the apply worker over the whole
    /// backlog, returning the simulated time spent.
    pub fn apply(&mut self) -> Nanos {
        if self.backlog.is_empty() {
            return Nanos::ZERO;
        }
        let entries = self.compact_backlog();
        let span = self.telemetry.span_open(Track::Cluster, EventKind::LogApply);
        let mut elapsed = Nanos::ZERO;
        for entry in entries {
            elapsed += Nanos::from_ns(
                self.config.per_entry_ns
                    + entry.data.len() as u64 / self.config.copy_bytes_per_ns.max(1),
            );
            self.write_entry(&entry);
            self.stats.entries_applied += 1;
            self.stats.bytes_applied += entry.data.len() as u64;
        }
        self.telemetry.span_close(span, elapsed);
        self.stats.apply_time += elapsed;
        self.clock += elapsed;
        self.backlog_gauge.set(self.backlog_bytes as f64);
        self.backlog_batches_gauge.set(self.backlog.len() as f64);
        self.ratio_gauge.set(self.stats.compaction_ratio());
        self.telemetry.observe_time(self.clock);
        elapsed
    }

    /// The compaction worker: decodes the backlog, drops entries whose
    /// exact byte range is rewritten by a later batch (last-writer-wins —
    /// sound because the surviving write covers the dropped one
    /// completely), and folds a page's surviving entries into one
    /// full-page image once its dirty ratio crosses the fold threshold.
    fn compact_backlog(&mut self) -> Vec<LogEntry> {
        let mut input: Vec<LogEntry> = Vec::new();
        while let Some((_, epoch, encoded)) = self.backlog.pop_front() {
            self.backlog_bytes -= encoded.len() as u64;
            let mine: Vec<LogEntry> = CacheLineLog::decode(&encoded)
                .into_iter()
                .filter(|e| e.remote.node() == self.id)
                .collect();
            if epoch < self.epoch {
                // The batch was shipped under a lease this node no
                // longer holds — it predates a fence.
                if self.fencing {
                    self.stats.stale_rejected += mine.len() as u64;
                    if !mine.is_empty() {
                        self.fence_rejections.push(KonaError::FencedEpoch {
                            node: self.id,
                            stale: epoch,
                            current: self.epoch,
                        });
                    }
                    continue;
                }
                self.stats.stale_applied += mine.len() as u64;
            }
            input.extend(mine);
        }
        let span = self
            .telemetry
            .span_open(Track::Cluster, EventKind::Compaction);
        let scan = Nanos::from_ns(self.config.per_entry_ns * input.len() as u64);

        // Dedupe: keep only the last write to each exact (offset, len)
        // range, at its original position in the order.
        let input_len = input.len();
        let mut seen: FxHashMap<(u64, usize), ()> = FxHashMap::default();
        let mut keep = vec![false; input_len];
        for (i, e) in input.iter().enumerate().rev() {
            let key = (e.remote.offset(), e.data.len());
            if seen.insert(key, ()).is_none() {
                keep[i] = true;
            }
        }
        let deduped: Vec<LogEntry> = input
            .into_iter()
            .zip(keep)
            .filter_map(|(e, k)| k.then_some(e))
            .collect();
        self.stats.entries_deduped += (input_len - deduped.len()) as u64;

        // Per-page dirty accounting over the surviving entries.
        let mut page_dirty: FxHashMap<u64, LineBitmap> = FxHashMap::default();
        let mut page_order: Vec<u64> = Vec::new();
        for e in &deduped {
            let page = e.remote.offset() / PAGE_SIZE_4K;
            let bm = page_dirty.entry(page).or_insert_with(|| {
                page_order.push(page);
                LineBitmap::new(LINES_PER_PAGE_4K)
            });
            let first = (e.remote.offset() % PAGE_SIZE_4K) / CACHE_LINE_SIZE;
            let lines = (e.data.len() as u64).div_ceil(CACHE_LINE_SIZE);
            for l in first..(first + lines).min(LINES_PER_PAGE_4K as u64) {
                bm.set(l as usize);
            }
        }
        for page in &page_order {
            let bm = &page_dirty[page];
            self.stats.compaction_pages += 1;
            self.stats.compaction_dirty_lines += bm.count_set() as u64;
            let merged = self
                .dirty
                .entry(*page)
                .or_insert_with(|| LineBitmap::new(LINES_PER_PAGE_4K));
            merged.union_with(bm);
        }

        // Fold: pages dirtied past the threshold ship as one full-page
        // image built by replaying their surviving entries over the
        // current store image.
        let fold_lines = (self.config.fold_threshold * LINES_PER_PAGE_4K as f64).ceil() as usize;
        let folding: Vec<u64> = page_order
            .iter()
            .copied()
            .filter(|p| page_dirty[p].count_set() >= fold_lines.max(1))
            .collect();
        let mut out: Vec<LogEntry> = Vec::new();
        if folding.is_empty() {
            out = deduped;
        } else {
            let mut images: FxHashMap<u64, Vec<u8>> = folding
                .iter()
                .map(|&p| {
                    let image = self
                        .pages
                        .get(&p)
                        .cloned()
                        .unwrap_or_else(|| vec![0; PAGE_SIZE_4K as usize]);
                    (p, image)
                })
                .collect();
            for e in deduped {
                let page = e.remote.offset() / PAGE_SIZE_4K;
                if let Some(image) = images.get_mut(&page) {
                    let start = (e.remote.offset() % PAGE_SIZE_4K) as usize;
                    let end = (start + e.data.len()).min(PAGE_SIZE_4K as usize);
                    image[start..end].copy_from_slice(&e.data[..end - start]);
                } else {
                    out.push(e);
                }
            }
            for page in folding {
                self.stats.pages_folded += 1;
                out.push(LogEntry {
                    remote: RemoteAddr::new(self.id, page * PAGE_SIZE_4K),
                    data: images.remove(&page).expect("image built above"),
                });
            }
        }
        self.telemetry.span_close(span, scan);
        self.clock += scan;
        self.stats.apply_time += scan;
        out
    }

    /// Writes one entry's payload into the page store, chunked at page
    /// boundaries.
    fn write_entry(&mut self, entry: &LogEntry) {
        let mut done = 0usize;
        while done < entry.data.len() {
            let pos = entry.remote.offset() + done as u64;
            let page = pos / PAGE_SIZE_4K;
            let start = (pos % PAGE_SIZE_4K) as usize;
            let chunk = (PAGE_SIZE_4K as usize - start).min(entry.data.len() - done);
            let image = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0; PAGE_SIZE_4K as usize]);
            image[start..start + chunk].copy_from_slice(&entry.data[done..done + chunk]);
            done += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(entries: &[(u32, u64, u8, usize)]) -> Vec<u8> {
        let mut log = CacheLineLog::new(1 << 20);
        for &(node, offset, byte, len) in entries {
            assert!(log.append(LogEntry {
                remote: RemoteAddr::new(node, offset),
                data: vec![byte; len],
            }));
        }
        log.drain_encoded()
    }

    #[test]
    fn ingest_and_apply_updates_page_store() {
        let mut node = MemoryNodeRuntime::new(0);
        node.ingest(Nanos::from_ns(10), batch(&[(0, 64, 0xAB, 64), (0, 4096, 0xCD, 128)]));
        assert_eq!(node.backlog_batches(), 1);
        let t = node.apply();
        assert!(t > Nanos::ZERO);
        assert_eq!(node.backlog_batches(), 0);
        assert_eq!(node.backlog_bytes(), 0);
        assert_eq!(node.read_bytes(64, 64), vec![0xAB; 64]);
        assert_eq!(node.read_bytes(4096, 128), vec![0xCD; 128]);
        // Untouched bytes read as zero.
        assert_eq!(node.read_bytes(0, 64), vec![0; 64]);
        let s = node.stats();
        assert_eq!(s.entries_applied, 2);
        assert_eq!(s.bytes_applied, 192);
    }

    #[test]
    fn entries_for_other_nodes_are_skipped() {
        let mut node = MemoryNodeRuntime::new(1);
        node.ingest(Nanos::ZERO, batch(&[(0, 0, 0xFF, 64), (1, 0, 0x11, 64)]));
        node.apply();
        assert_eq!(node.stats().entries_applied, 1);
        assert_eq!(node.read_bytes(0, 64), vec![0x11; 64]);
    }

    #[test]
    fn compaction_dedupes_same_range_last_writer_wins() {
        let mut node = MemoryNodeRuntime::new(0);
        node.ingest(Nanos::ZERO, batch(&[(0, 128, 0x01, 64)]));
        node.ingest(Nanos::from_ns(5), batch(&[(0, 128, 0x02, 64)]));
        node.ingest(Nanos::from_ns(9), batch(&[(0, 128, 0x03, 64)]));
        node.apply();
        // Only the newest write to the range is applied.
        assert_eq!(node.stats().entries_applied, 1);
        assert_eq!(node.read_bytes(128, 64), vec![0x03; 64]);
    }

    #[test]
    fn hot_page_folds_into_full_page_image() {
        let cfg = NodeRuntimeConfig {
            fold_threshold: 0.5,
            ..NodeRuntimeConfig::default()
        };
        let mut node = MemoryNodeRuntime::with_telemetry(0, cfg, Telemetry::disabled());
        // Dirty 40 of 64 lines on page 0 — past the 50% threshold.
        let entries: Vec<(u32, u64, u8, usize)> =
            (0..40).map(|i| (0, i * 64, i as u8, 64)).collect();
        node.ingest(Nanos::ZERO, batch(&entries));
        node.apply();
        let s = node.stats();
        assert_eq!(s.pages_folded, 1);
        // One full-page image instead of 40 entries.
        assert_eq!(s.entries_applied, 1);
        assert_eq!(s.bytes_applied, PAGE_SIZE_4K);
        for i in 0..40u64 {
            assert_eq!(node.read_bytes(i * 64, 64), vec![i as u8; 64], "line {i}");
        }
        // Compaction ratio follows the FPGA pattern: dirty / total lines.
        assert!((s.compaction_ratio() - 40.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn cold_page_stays_fine_grained() {
        let mut node = MemoryNodeRuntime::new(0);
        node.ingest(Nanos::ZERO, batch(&[(0, 0, 0xEE, 64), (0, 512, 0xDD, 64)]));
        node.apply();
        let s = node.stats();
        assert_eq!(s.pages_folded, 0);
        assert_eq!(s.entries_applied, 2);
        assert_eq!(s.bytes_applied, 128);
    }

    #[test]
    fn folding_preserves_prior_page_contents() {
        let mut node = MemoryNodeRuntime::new(0);
        // First: one cold write establishes bytes at offset 3968.
        node.ingest(Nanos::ZERO, batch(&[(0, 3968, 0x55, 64)]));
        node.apply();
        // Then a hot burst folds the page; the old bytes must survive in
        // the folded image.
        let entries: Vec<(u32, u64, u8, usize)> =
            (0..40).map(|i| (0, i * 64, 0x77, 64)).collect();
        node.ingest(Nanos::from_ns(50), batch(&entries));
        node.apply();
        assert_eq!(node.read_bytes(3968, 64), vec![0x55; 64]);
        assert_eq!(node.read_bytes(0, 64), vec![0x77; 64]);
    }

    #[test]
    fn stale_epoch_batches_are_fenced() {
        let mut node = MemoryNodeRuntime::new(0);
        node.grant_lease(1);
        // Shipped under epoch 1, then the node is fenced to epoch 2
        // before the batch is applied.
        node.ingest(Nanos::ZERO, batch(&[(0, 0, 0x01, 64)]));
        node.grant_lease(2);
        node.apply();
        assert_eq!(node.stats().stale_rejected, 1);
        assert_eq!(node.stats().entries_applied, 0);
        assert_eq!(node.read_bytes(0, 64), vec![0; 64], "stale write must not land");
        let errs = node.take_fence_rejections();
        assert_eq!(errs.len(), 1);
        match &errs[0] {
            KonaError::FencedEpoch { node: n, stale, current } => {
                assert_eq!((*n, *stale, *current), (0, 1, 2));
            }
            other => panic!("expected FencedEpoch, got {other:?}"),
        }
        assert!(node.take_fence_rejections().is_empty(), "drain empties the ring");
    }

    #[test]
    fn fencing_off_applies_and_counts_stale_batches() {
        let mut node = MemoryNodeRuntime::new(0);
        node.set_fencing(false);
        node.grant_lease(1);
        node.ingest(Nanos::ZERO, batch(&[(0, 0, 0x77, 64)]));
        node.grant_lease(2);
        node.apply();
        assert_eq!(node.stats().stale_applied, 1);
        assert_eq!(node.stats().stale_rejected, 0);
        assert_eq!(node.read_bytes(0, 64), vec![0x77; 64], "naive heal applies stale writes");
        assert!(node.take_fence_rejections().is_empty());
    }

    #[test]
    fn rejoin_wipes_state_and_installs_the_bumped_epoch() {
        let mut node = MemoryNodeRuntime::new(0);
        node.grant_lease(1);
        node.ingest(Nanos::ZERO, batch(&[(0, 0, 0x42, 64)]));
        node.apply();
        assert_eq!(node.read_bytes(0, 64), vec![0x42; 64]);
        node.ingest(Nanos::from_ns(5), batch(&[(0, 64, 0x43, 64)]));
        node.rejoin(3);
        assert_eq!(node.epoch(), 3);
        assert_eq!(node.backlog_batches(), 0, "rejoin drops the backlog");
        assert_eq!(node.backlog_bytes(), 0);
        assert_eq!(node.read_bytes(0, 64), vec![0; 64], "rejoin wipes the page store");
        // Fresh post-rejoin traffic applies normally.
        node.ingest(Nanos::from_ns(10), batch(&[(0, 0, 0x44, 64)]));
        node.apply();
        assert_eq!(node.read_bytes(0, 64), vec![0x44; 64]);
    }

    #[test]
    fn clock_tracks_shipments_and_apply_work() {
        let mut node = MemoryNodeRuntime::new(0);
        node.ingest(Nanos::from_ns(1000), batch(&[(0, 0, 1, 64)]));
        assert_eq!(node.clock(), Nanos::from_ns(1000));
        node.apply();
        assert!(node.clock() > Nanos::from_ns(1000));
        assert_eq!(node.clock(), Nanos::from_ns(1000) + node.stats().apply_time);
    }
}
