//! The composed FPGA device.

use crate::dirty::DirtyTracker;
use crate::fmem::FMemCache;
use crate::prefetch::NextPagePrefetcher;
use crate::translation::RemoteTranslation;
use kona_coherence::{AgentId, CoherenceStats, CoherenceSystem};
use kona_telemetry::{Counter, Gauge, Telemetry};
use kona_types::{
    AccessKind, FxHashSet, LineBitmap, LineIndex, PageNumber, RemoteAddr, Result, VfMemAddr,
    LINES_PER_PAGE_4K, PAGE_SIZE_4K,
};

/// FPGA configuration.
#[derive(Debug, Clone)]
pub struct FpgaConfig {
    /// Number of CPU cache agents observed by the VFMem directory.
    pub cpu_agents: usize,
    /// Capacity of each CPU agent's cache, in lines.
    pub cpu_cache_lines: usize,
    /// FMem capacity in pages.
    pub fmem_pages: usize,
    /// FMem associativity (the paper uses 4, §4.4).
    pub fmem_ways: usize,
    /// Prefetcher; [`NextPagePrefetcher::disabled`] for conservative runs.
    pub prefetcher: NextPagePrefetcher,
}

impl FpgaConfig {
    /// A small configuration convenient for tests and examples: one CPU
    /// agent with a 256-line cache and a 64-page FMem.
    pub fn small() -> Self {
        FpgaConfig {
            cpu_agents: 1,
            cpu_cache_lines: 256,
            fmem_pages: 64,
            fmem_ways: 4,
            prefetcher: NextPagePrefetcher::disabled(),
        }
    }

    /// Returns the configuration with a different FMem size.
    #[must_use]
    pub fn with_fmem_pages(mut self, pages: usize) -> Self {
        self.fmem_pages = pages;
        self
    }

    /// Returns the configuration with the given prefetcher.
    #[must_use]
    pub fn with_prefetcher(mut self, prefetcher: NextPagePrefetcher) -> Self {
        self.prefetcher = prefetcher;
        self
    }
}

/// A page dropped from FMem to make room, together with its dirty lines
/// (already snooped out of CPU caches); the runtime must write those lines
/// to remote memory before reusing the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VictimPage {
    /// The evicted VFMem page.
    pub page: PageNumber,
    /// Its dirty cache lines (empty bitmap if the page is clean and the
    /// eviction is silent).
    pub dirty_lines: LineBitmap,
}

impl VictimPage {
    /// Whether any line must be written back.
    pub fn is_dirty(&self) -> bool {
        self.dirty_lines.any()
    }
}

/// Outcome of one CPU access to VFMem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuAccessOutcome {
    /// Served by the CPU cache hierarchy; the FPGA saw nothing.
    CpuCacheHit,
    /// Line fill served from FMem.
    FMemHit,
    /// Line fill required fetching `page` from remote memory; `victims`
    /// must be written back / dropped first, and `prefetch` pages may be
    /// pulled in the background.
    RemoteFetch {
        /// Page to fetch.
        page: PageNumber,
        /// FMem pages displaced by the fill.
        victims: Vec<VictimPage>,
        /// Prefetch suggestions (fetched off the critical path).
        prefetch: Vec<PageNumber>,
    },
}

/// FPGA counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpgaStats {
    /// Accesses absorbed by CPU caches.
    pub cpu_hits: u64,
    /// Line fills served from FMem.
    pub fmem_hits: u64,
    /// Line fills requiring a remote fetch.
    pub remote_fetches: u64,
    /// Pages prefetched.
    pub prefetched_pages: u64,
    /// Prefetches suppressed while shedding was on (degraded mode).
    pub prefetches_shed: u64,
    /// Writebacks observed (dirty lines reaching the FPGA).
    pub writebacks_observed: u64,
    /// Snoop rounds issued (page-granularity).
    pub page_snoops: u64,
}

impl FpgaStats {
    /// Accumulates another device's counters (shard-merge aggregation).
    pub fn merge(&mut self, other: &FpgaStats) {
        self.cpu_hits += other.cpu_hits;
        self.fmem_hits += other.fmem_hits;
        self.remote_fetches += other.remote_fetches;
        self.prefetched_pages += other.prefetched_pages;
        self.prefetches_shed += other.prefetches_shed;
        self.writebacks_observed += other.writebacks_observed;
        self.page_snoops += other.page_snoops;
    }
}

/// The cache-coherent FPGA: VFMem directory + FMem cache + dirty bitmaps +
/// remote translation + prefetcher.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct KonaFpga {
    coherence: CoherenceSystem,
    fmem: FMemCache,
    dirty: DirtyTracker,
    translation: RemoteTranslation,
    prefetcher: NextPagePrefetcher,
    /// When set, prefetch suggestions are suppressed (degraded mode sheds
    /// speculative traffic while the fabric is unhealthy, §4.5).
    shed_prefetches: bool,
    stats: FpgaStats,
    metrics: FpgaCounters,
    /// Prefetched pages not yet touched by a demand access (for the
    /// issued-vs-useful ratio).
    prefetched_pending: FxHashSet<u64>,
    /// Dirty lines across expelled/snooped pages (compaction numerator).
    compaction_dirty_lines: u64,
    /// Pages expelled/snooped (compaction denominator, × lines/page).
    compaction_pages: u64,
    /// Span sink: FMem lookups, translations and prefetch decisions
    /// become instant markers inside whatever trace is open.
    telemetry: Telemetry,
}

/// Pre-resolved telemetry handles for the FPGA's hot paths.
#[derive(Debug, Clone)]
struct FpgaCounters {
    fmem_hits: Counter,
    fmem_misses: Counter,
    prefetch_issued: Counter,
    prefetch_useful: Counter,
    prefetch_shed: Counter,
    dirty_compaction: Gauge,
}

impl FpgaCounters {
    fn new(telemetry: &Telemetry) -> Self {
        FpgaCounters {
            fmem_hits: telemetry.counter("fmem.hits"),
            fmem_misses: telemetry.counter("fmem.misses"),
            prefetch_issued: telemetry.counter("fmem.prefetch_issued"),
            prefetch_useful: telemetry.counter("fmem.prefetch_useful"),
            prefetch_shed: telemetry.counter("fmem.prefetch_shed"),
            dirty_compaction: telemetry.gauge("fmem.dirty_compaction"),
        }
    }
}

impl KonaFpga {
    /// Builds the device from a configuration.
    pub fn new(config: FpgaConfig) -> Self {
        KonaFpga {
            coherence: CoherenceSystem::new(config.cpu_agents, config.cpu_cache_lines),
            fmem: FMemCache::new(config.fmem_pages, config.fmem_ways),
            dirty: DirtyTracker::new(),
            translation: RemoteTranslation::new(),
            prefetcher: config.prefetcher,
            shed_prefetches: false,
            stats: FpgaStats::default(),
            metrics: FpgaCounters::new(&Telemetry::disabled()),
            prefetched_pending: FxHashSet::default(),
            compaction_dirty_lines: 0,
            compaction_pages: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Routes the FPGA's metrics (FMem hit/miss, prefetch issued vs
    /// useful, dirty-bitmap compaction ratio) into `telemetry`'s registry
    /// and its lookup/translate/prefetch instants into the causal tracer.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = FpgaCounters::new(telemetry);
        self.telemetry = telemetry.clone();
    }

    /// Counters.
    pub fn stats(&self) -> FpgaStats {
        self.stats
    }

    /// The embedded coherence domain's counters.
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.coherence.stats()
    }

    /// Turns prefetch shedding on or off. While on, the prefetcher still
    /// observes the fetch stream (so its stride state stays warm) but its
    /// suggestions are dropped instead of fetched — degraded mode uses
    /// this to stop speculative traffic while the fabric is unhealthy.
    pub fn set_prefetch_shedding(&mut self, shed: bool) {
        self.shed_prefetches = shed;
    }

    /// Assigns FMem eviction priority `priority` to the VFMem page range
    /// `[start_page, end_page)` — the QoS hook behind per-tenant eviction
    /// protection. See [`FMemCache::set_page_priority`] for the policy.
    ///
    /// [`FMemCache::set_page_priority`]: crate::FMemCache::set_page_priority
    pub fn set_page_priority(&mut self, start_page: u64, end_page: u64, priority: i8) {
        self.fmem.set_page_priority(start_page, end_page, priority);
    }

    /// The FMem eviction priority of `page` (0 unless a range was set).
    pub fn page_priority(&self, page: PageNumber) -> i8 {
        self.fmem.page_priority(page)
    }

    /// Whether prefetch shedding is currently on.
    pub fn prefetch_shedding(&self) -> bool {
        self.shed_prefetches
    }

    /// Fraction of cache lines dirty among pages expelled or snooped so
    /// far (what the cache-line log compacts a 4 KiB writeback down to);
    /// 0 before any page left FMem.
    pub fn dirty_compaction_ratio(&self) -> f64 {
        if self.compaction_pages == 0 {
            return 0.0;
        }
        self.compaction_dirty_lines as f64
            / (self.compaction_pages * LINES_PER_PAGE_4K as u64) as f64
    }

    /// The remote-translation map (the Resource Manager registers slabs
    /// here).
    pub fn translation_mut(&mut self) -> &mut RemoteTranslation {
        &mut self.translation
    }

    /// Translates a VFMem page to its remote address.
    ///
    /// # Errors
    ///
    /// Returns [`kona_types::KonaError::NoRemoteTranslation`] if no slab
    /// covers the page.
    pub fn translate_page(&self, page: PageNumber) -> Result<RemoteAddr> {
        let addr = self.translation.translate(page.base_vfmem())?;
        self.telemetry
            .instant(kona_telemetry::Track::App, kona_telemetry::EventKind::Translate);
        Ok(addr)
    }

    /// The dirty tracker (read access for inspection).
    pub fn dirty(&self) -> &DirtyTracker {
        &self.dirty
    }

    /// Whether `page` is resident in FMem.
    pub fn fmem_resident(&self, page: PageNumber) -> bool {
        self.fmem.contains(page)
    }

    /// Number of FMem-resident pages.
    pub fn fmem_resident_pages(&self) -> usize {
        self.fmem.resident_pages()
    }

    /// An eviction candidate chosen by FMem's LRU metadata.
    pub fn eviction_candidate(&self) -> Option<PageNumber> {
        self.fmem.eviction_candidate()
    }

    /// All FMem-resident pages, set by set and most-recently-used first
    /// within a set — used by `sync` to write back dirty lines of pages
    /// that were never evicted. `sync` appends to the eviction log in
    /// this order, so log contents, shipments and every window-roll
    /// gauge sample depend on it: it must stay a pure function of the
    /// FMem state.
    pub fn resident_pages_list(&self) -> Vec<PageNumber> {
        self.fmem.resident().collect()
    }

    /// The pages a snoop round could find dirty lines on: those with a
    /// dirty-tracker entry plus those holding a line some CPU cache has
    /// Modified. Costs one pass over the tracker and the CPU caches —
    /// bounded by what was written, not by what is resident. Any other
    /// page may be accounted with [`snoop_clean_page`](Self::snoop_clean_page).
    pub fn dirty_candidate_pages(&self) -> FxHashSet<u64> {
        let mut pages: FxHashSet<u64> = self.dirty.pages().collect();
        pages.extend(
            self.coherence
                .modified_lines()
                .map(|line| line.page_number().raw()),
        );
        pages
    }

    /// A CPU access (agent 0) to a VFMem address.
    pub fn cpu_access(&mut self, addr: VfMemAddr, kind: AccessKind) -> CpuAccessOutcome {
        self.cpu_access_from(AgentId(0), addr, kind)
    }

    /// A CPU access from a specific agent to a VFMem address.
    ///
    /// This is the heart of the `cache-remote-data` primitive: because the
    /// pages are always mapped present, the access arrives as a coherence
    /// request rather than a page fault, and the FPGA can serve it from
    /// FMem or fetch remotely.
    ///
    /// # Panics
    ///
    /// Panics if the agent id is out of range.
    pub fn cpu_access_from(
        &mut self,
        agent: AgentId,
        addr: VfMemAddr,
        kind: AccessKind,
    ) -> CpuAccessOutcome {
        let line = LineIndex(addr.raw() / 64);
        let result = match kind {
            AccessKind::Read => self.coherence.read(agent, line),
            AccessKind::Write => self.coherence.write(agent, line),
        };
        self.absorb_writebacks();

        if result.hit {
            self.stats.cpu_hits += 1;
            return CpuAccessOutcome::CpuCacheHit;
        }

        // Line fill request reached the VFMem directory.
        let page = addr.page_number();
        if self.fmem.touch(page) {
            self.stats.fmem_hits += 1;
            self.metrics.fmem_hits.inc();
            if self.prefetched_pending.remove(&page.raw()) {
                self.metrics.prefetch_useful.inc();
            }
            return CpuAccessOutcome::FMemHit;
        }

        // Remote fetch: install the page in FMem, evicting as needed.
        self.stats.remote_fetches += 1;
        self.metrics.fmem_misses.inc();
        self.telemetry
            .instant(kona_telemetry::Track::App, kona_telemetry::EventKind::FmemLookup);
        let mut victims = Vec::new();
        if let Some(victim) = self.fmem.insert(page) {
            victims.push(self.expel_page(victim));
        }
        let mut prefetch = Vec::new();
        for pf_page in self.prefetcher.observe_fetch(page) {
            if self.shed_prefetches {
                self.stats.prefetches_shed += 1;
                self.metrics.prefetch_shed.inc();
                continue;
            }
            if !self.fmem.contains(pf_page) && self.translate_page(pf_page).is_ok() {
                if let Some(victim) = self.fmem.insert(pf_page) {
                    victims.push(self.expel_page(victim));
                }
                self.stats.prefetched_pages += 1;
                self.metrics.prefetch_issued.inc();
                self.prefetched_pending.insert(pf_page.raw());
                prefetch.push(pf_page);
            }
        }
        if !prefetch.is_empty() {
            self.telemetry.instant(
                kona_telemetry::Track::App,
                kona_telemetry::EventKind::PrefetchHint,
            );
        }
        CpuAccessOutcome::RemoteFetch {
            page,
            victims,
            prefetch,
        }
    }

    /// Snoops all of `page`'s lines out of CPU caches and returns the
    /// complete dirty bitmap for the page, consuming the tracker's state —
    /// what the eviction handler calls before writing dirty lines out
    /// (§4.4: "When the FPGA decides to write out dirty cache lines, it has
    /// to snoop them from CPU caches").
    pub fn snoop_page_dirty(&mut self, page: PageNumber) -> LineBitmap {
        self.stats.page_snoops += 1;
        let first_line = page.raw() * (PAGE_SIZE_4K / 64);
        for i in 0..LINES_PER_PAGE_4K as u64 {
            self.coherence.recall(LineIndex(first_line + i));
        }
        self.absorb_writebacks();
        let bitmap = self
            .dirty
            .take_page(page)
            .unwrap_or_else(|| LineBitmap::new(LINES_PER_PAGE_4K));
        self.note_compaction(&bitmap);
        bitmap
    }

    /// A snoop round of a page outside
    /// [`dirty_candidate_pages`](Self::dirty_candidate_pages): the same
    /// accounting as [`snoop_page_dirty`](Self::snoop_page_dirty)
    /// returning an empty bitmap — one page snoop, one line snoop per
    /// line, one clean page folded into the compaction ratio — without
    /// walking the lines, because recalling a line no cache holds
    /// Modified only counts a snoop.
    pub fn snoop_clean_page(&mut self, page: PageNumber) {
        debug_assert!(
            self.dirty.peek_page(page).is_none(),
            "{page:?} has tracked dirty lines"
        );
        self.stats.page_snoops += 1;
        self.coherence.note_clean_snoops(LINES_PER_PAGE_4K as u64);
        self.note_compaction_lines(0);
    }

    /// Drops `page` from FMem (eviction-handler initiated), invalidating
    /// CPU copies, and returns its dirty bitmap.
    pub fn evict_page(&mut self, page: PageNumber) -> VictimPage {
        let victim = self.expel_page(page);
        self.fmem.remove(page);
        victim
    }

    /// Invalidate CPU lines of `page`, fold their dirty state into the
    /// tracker, and package the victim.
    fn expel_page(&mut self, page: PageNumber) -> VictimPage {
        let first_line = page.raw() * (PAGE_SIZE_4K / 64);
        self.coherence.invalidate_page(LineIndex(first_line));
        self.absorb_writebacks();
        let dirty_lines = self
            .dirty
            .take_page(page)
            .unwrap_or_else(|| LineBitmap::new(LINES_PER_PAGE_4K));
        self.note_compaction(&dirty_lines);
        self.prefetched_pending.remove(&page.raw());
        VictimPage { page, dirty_lines }
    }

    /// Folds one expelled/snooped page's dirty bitmap into the compaction
    /// ratio and publishes the updated gauge.
    fn note_compaction(&mut self, dirty_lines: &LineBitmap) {
        self.note_compaction_lines(dirty_lines.count_set() as u64);
    }

    fn note_compaction_lines(&mut self, dirty_lines: u64) {
        self.compaction_dirty_lines += dirty_lines;
        self.compaction_pages += 1;
        self.metrics
            .dirty_compaction
            .set(self.dirty_compaction_ratio());
    }

    fn absorb_writebacks(&mut self) {
        while let Some(event) = self.coherence.pop_writeback() {
            self.stats.writebacks_observed += 1;
            self.dirty.mark(event.line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fpga() -> KonaFpga {
        let mut f = KonaFpga::new(FpgaConfig::small());
        f.translation_mut()
            .register(VfMemAddr::new(0), 1 << 20, RemoteAddr::new(0, 0))
            .unwrap();
        f
    }

    #[test]
    fn cold_access_is_remote_fetch() {
        let mut f = fpga();
        match f.cpu_access(VfMemAddr::new(0), AccessKind::Read) {
            CpuAccessOutcome::RemoteFetch { page, victims, .. } => {
                assert_eq!(page, PageNumber(0));
                assert!(victims.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.stats().remote_fetches, 1);
        assert!(f.fmem_resident(PageNumber(0)));
    }

    #[test]
    fn second_access_same_line_hits_cpu_cache() {
        let mut f = fpga();
        f.cpu_access(VfMemAddr::new(0), AccessKind::Read);
        assert_eq!(
            f.cpu_access(VfMemAddr::new(0), AccessKind::Read),
            CpuAccessOutcome::CpuCacheHit
        );
    }

    #[test]
    fn different_line_same_page_hits_fmem() {
        let mut f = fpga();
        f.cpu_access(VfMemAddr::new(0), AccessKind::Read);
        assert_eq!(
            f.cpu_access(VfMemAddr::new(64), AccessKind::Read),
            CpuAccessOutcome::FMemHit
        );
        assert_eq!(f.stats().fmem_hits, 1);
    }

    #[test]
    fn writebacks_populate_dirty_bitmap() {
        let mut f = fpga();
        // Write a line, then snoop the page: the dirty bitmap must show it.
        f.cpu_access(VfMemAddr::new(64), AccessKind::Write);
        let bm = f.snoop_page_dirty(PageNumber(0));
        assert!(bm.get(1));
        assert_eq!(bm.count_set(), 1);
    }

    #[test]
    fn capacity_eviction_in_cpu_cache_reaches_tracker() {
        let mut cfg = FpgaConfig::small();
        cfg.cpu_cache_lines = 2;
        let mut f = KonaFpga::new(cfg);
        f.translation_mut()
            .register(VfMemAddr::new(0), 1 << 20, RemoteAddr::new(0, 0))
            .unwrap();
        f.cpu_access(VfMemAddr::new(0), AccessKind::Write);
        f.cpu_access(VfMemAddr::new(64), AccessKind::Write);
        // Third line evicts the first (dirty) line from the CPU cache.
        f.cpu_access(VfMemAddr::new(128), AccessKind::Write);
        assert!(f.dirty().dirty_line_count(PageNumber(0)) >= 1);
        assert!(f.stats().writebacks_observed >= 1);
    }

    #[test]
    fn fmem_conflict_returns_victim_with_dirty_lines() {
        // FMem with 4 pages, 4-way => 1 set: pages conflict after 4.
        let mut cfg = FpgaConfig::small();
        cfg.fmem_pages = 4;
        let mut f = KonaFpga::new(cfg);
        f.translation_mut()
            .register(VfMemAddr::new(0), 1 << 20, RemoteAddr::new(0, 0))
            .unwrap();
        f.cpu_access(VfMemAddr::new(0), AccessKind::Write); // page 0 dirty
        for p in 1..4u64 {
            f.cpu_access(VfMemAddr::new(p * 4096), AccessKind::Read);
        }
        match f.cpu_access(VfMemAddr::new(4 * 4096), AccessKind::Read) {
            CpuAccessOutcome::RemoteFetch { victims, .. } => {
                assert_eq!(victims.len(), 1);
                assert_eq!(victims[0].page, PageNumber(0));
                assert!(victims[0].is_dirty());
                assert!(victims[0].dirty_lines.get(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The victim's CPU copy is gone: next access misses everywhere.
        assert!(matches!(
            f.cpu_access(VfMemAddr::new(0), AccessKind::Read),
            CpuAccessOutcome::RemoteFetch { .. }
        ));
    }

    #[test]
    fn sequential_fetches_trigger_prefetch() {
        let mut cfg = FpgaConfig::small();
        cfg.prefetcher = NextPagePrefetcher::new(2, 1);
        let mut f = KonaFpga::new(cfg);
        f.translation_mut()
            .register(VfMemAddr::new(0), 1 << 20, RemoteAddr::new(0, 0))
            .unwrap();
        f.cpu_access(VfMemAddr::new(0), AccessKind::Read);
        match f.cpu_access(VfMemAddr::new(4096), AccessKind::Read) {
            CpuAccessOutcome::RemoteFetch { prefetch, .. } => {
                assert_eq!(prefetch, vec![PageNumber(2)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The prefetched page now hits FMem.
        assert_eq!(
            f.cpu_access(VfMemAddr::new(2 * 4096), AccessKind::Read),
            CpuAccessOutcome::FMemHit
        );
        assert_eq!(f.stats().prefetched_pages, 1);
    }

    #[test]
    fn shedding_suppresses_prefetches_and_counts_them() {
        let mut cfg = FpgaConfig::small();
        cfg.prefetcher = NextPagePrefetcher::new(2, 1);
        let mut f = KonaFpga::new(cfg);
        f.translation_mut()
            .register(VfMemAddr::new(0), 1 << 20, RemoteAddr::new(0, 0))
            .unwrap();
        let tel = Telemetry::disabled();
        f.set_telemetry(&tel);
        f.set_prefetch_shedding(true);
        assert!(f.prefetch_shedding());
        f.cpu_access(VfMemAddr::new(0), AccessKind::Read);
        match f.cpu_access(VfMemAddr::new(4096), AccessKind::Read) {
            CpuAccessOutcome::RemoteFetch { prefetch, .. } => {
                assert!(prefetch.is_empty(), "shed mode must not prefetch");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.stats().prefetched_pages, 0);
        assert_eq!(f.stats().prefetches_shed, 1);
        assert_eq!(tel.snapshot().counter("fmem.prefetch_shed"), Some(1));
        // Shedding off: the stream detector is still warm and fires.
        f.set_prefetch_shedding(false);
        match f.cpu_access(VfMemAddr::new(2 * 4096), AccessKind::Read) {
            CpuAccessOutcome::RemoteFetch { prefetch, .. } => {
                assert_eq!(prefetch, vec![PageNumber(3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn telemetry_tracks_hits_prefetch_and_compaction() {
        let mut cfg = FpgaConfig::small();
        cfg.prefetcher = NextPagePrefetcher::new(2, 1);
        let mut f = KonaFpga::new(cfg);
        f.translation_mut()
            .register(VfMemAddr::new(0), 1 << 20, RemoteAddr::new(0, 0))
            .unwrap();
        let tel = Telemetry::disabled();
        f.set_telemetry(&tel);

        f.cpu_access(VfMemAddr::new(0), AccessKind::Read);
        f.cpu_access(VfMemAddr::new(4096), AccessKind::Read); // prefetches page 2
        f.cpu_access(VfMemAddr::new(2 * 4096), AccessKind::Write); // uses prefetch
        let snap = tel.snapshot();
        assert_eq!(snap.counter("fmem.misses"), Some(2));
        assert_eq!(snap.counter("fmem.prefetch_issued"), Some(1));
        assert_eq!(snap.counter("fmem.prefetch_useful"), Some(1));
        assert_eq!(snap.counter("fmem.hits"), Some(1));

        // One of 64 lines dirty on the snooped page → ratio 1/64.
        f.snoop_page_dirty(PageNumber(2));
        assert!((f.dirty_compaction_ratio() - 1.0 / 64.0).abs() < 1e-9);
        assert_eq!(
            tel.snapshot().gauge("fmem.dirty_compaction"),
            Some(f.dirty_compaction_ratio())
        );
    }

    #[test]
    fn explicit_evict_page() {
        let mut f = fpga();
        f.cpu_access(VfMemAddr::new(0), AccessKind::Write);
        let victim = f.evict_page(PageNumber(0));
        assert!(victim.is_dirty());
        assert!(!f.fmem_resident(PageNumber(0)));
    }

    #[test]
    fn snoop_clean_page_returns_empty_bitmap() {
        let mut f = fpga();
        f.cpu_access(VfMemAddr::new(0), AccessKind::Read);
        let bm = f.snoop_page_dirty(PageNumber(0));
        assert!(!bm.any());
    }

    #[test]
    fn translate_page_through_slabs() {
        let f = fpga();
        assert_eq!(
            f.translate_page(PageNumber(2)).unwrap(),
            RemoteAddr::new(0, 8192)
        );
        assert!(f.translate_page(PageNumber(1 << 30)).is_err());
    }
}
