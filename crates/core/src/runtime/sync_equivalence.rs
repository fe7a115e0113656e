//! `sync` snoops only dirty-candidate pages and accounts the rest of
//! FMem in bulk. These tests drive two identically configured runtimes
//! through the same script — one syncing the production way, one with the
//! every-page reference walk — and require every observable to match
//! after each `sync`.

use super::*;
use kona_types::rng::{Rng, StdRng};
use kona_types::{ByteSize, MemAccess, VirtAddr, PAGE_SIZE_4K};

const REGION: u64 = 2 << 20;

fn config(fmem_pages: usize, tracked: bool, replicas: usize, agents: usize) -> ClusterConfig {
    let mut c = ClusterConfig::small()
        .with_local_cache_pages(fmem_pages)
        .with_replicas(replicas)
        .with_cpu_agents(agents);
    c.node_capacity = ByteSize::mib(4);
    if !tracked {
        c = c.timing_only();
    }
    c
}

/// The production runtime and its every-page twin, each with its own
/// telemetry (metrics + a time series, so gauge samples at window rolls
/// are compared too).
struct Pair {
    new: KonaRuntime,
    reference: KonaRuntime,
    base: VirtAddr,
}

impl Pair {
    fn new(config: ClusterConfig) -> Pair {
        let build = || {
            let tel = Telemetry::disabled();
            tel.enable_timeseries(2_000);
            let mut rt = KonaRuntime::with_telemetry(config.clone(), tel).unwrap();
            rt.enable_shipment_journal();
            let base = rt.allocate(REGION).unwrap();
            (rt, base)
        };
        let (new, base) = build();
        let (reference, _) = build();
        Pair {
            new,
            reference,
            base,
        }
    }

    fn both(&mut self, mut op: impl FnMut(&mut KonaRuntime) -> Result<Nanos>) {
        assert_eq!(op(&mut self.new).unwrap(), op(&mut self.reference).unwrap());
    }

    fn write(&mut self, off: u64, len: usize, fill: u8) {
        let addr = self.base + off;
        self.both(|rt| rt.write_bytes(addr, &vec![fill; len]));
    }

    fn read(&mut self, off: u64, len: usize) {
        let addr = self.base + off;
        self.both(|rt| rt.read_bytes(addr, &mut vec![0; len]));
    }

    fn access_from(&mut self, core: u32, off: u64, len: u32, kind: AccessKind) {
        let access = MemAccess::new(self.base + off, len, kind);
        self.both(|rt| rt.access_from_core(core, access));
    }

    /// Syncs both ways and compares everything a caller can observe.
    fn sync(&mut self, ctx: &str) {
        let t_new = self.new.sync().unwrap();
        let t_ref = self.reference.sync_every_page().unwrap();
        assert_eq!(t_new, t_ref, "{ctx}: sync time");
        let (a, b) = (&mut self.new, &mut self.reference);
        assert_eq!(a.fpga().stats(), b.fpga().stats(), "{ctx}: FpgaStats");
        assert_eq!(
            a.fpga().coherence_stats(),
            b.fpga().coherence_stats(),
            "{ctx}: CoherenceStats"
        );
        assert_eq!(a.stats(), b.stats(), "{ctx}: RuntimeStats");
        assert_eq!(
            a.eviction_stats(),
            b.eviction_stats(),
            "{ctx}: EvictionStats"
        );
        assert_eq!(
            a.drain_log_shipments(),
            b.drain_log_shipments(),
            "{ctx}: shipments"
        );
        assert_eq!(
            a.fpga().dirty_compaction_ratio().to_bits(),
            b.fpga().dirty_compaction_ratio().to_bits(),
            "{ctx}: compaction ratio"
        );
        assert!(a.fpga().dirty().is_empty() && b.fpga().dirty().is_empty());
        for node in 0..a.config.memory_nodes {
            let (ma, mb) = (a.fabric.node(node).unwrap(), b.fabric.node(node).unwrap());
            assert!(
                ma.read_bytes(0, ma.capacity()) == mb.read_bytes(0, mb.capacity()),
                "{ctx}: node {node} bytes"
            );
        }
        assert_eq!(
            a.telemetry().snapshot(),
            b.telemetry().snapshot(),
            "{ctx}: metrics"
        );
    }

    /// The whole run's window series: every gauge sample a window roll
    /// took mid-sync must match too.
    fn assert_same_series(&self) {
        assert_eq!(
            self.new.telemetry().series().unwrap().to_json(),
            self.reference.telemetry().series().unwrap().to_json()
        );
    }
}

#[test]
fn random_scripts_match_every_page_reference() {
    let mut cases = 0;
    for (fmem_pages, cpu_lines) in [(8, 16), (64, 64), (256, 8192)] {
        for tracked in [true, false] {
            for replicas in 1..=2 {
                let seed =
                    0x5EED ^ (fmem_pages as u64) << 8 ^ (replicas as u64) << 1 ^ tracked as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut cfg = config(fmem_pages, tracked, replicas, 2);
                cfg.cpu_cache_lines = cpu_lines;
                let mut pair = Pair::new(cfg);
                let pages = REGION / PAGE_SIZE_4K;
                let mut syncs = 0;
                for step in 0..600 {
                    // Skewed page choice: a hot eighth takes half the ops.
                    let page = if rng.gen() {
                        rng.gen_range(0..pages / 8)
                    } else {
                        rng.gen_range(0..pages)
                    };
                    let off = page * PAGE_SIZE_4K + rng.gen_range(0u64..PAGE_SIZE_4K - 256);
                    let len = rng.gen_range(1usize..256);
                    match rng.gen_range(0u8..10) {
                        0..=2 => pair.write(off, len, step as u8),
                        3..=5 => pair.read(off, len),
                        6 => pair.access_from(1, off, len as u32, AccessKind::Write),
                        7 => pair.access_from(1, off, len as u32, AccessKind::Read),
                        8 => pair.access_from(0, off, len as u32, AccessKind::Write),
                        _ => {
                            syncs += 1;
                            pair.sync(&format!("seed {seed:#x} step {step}"));
                        }
                    }
                }
                pair.sync(&format!("seed {seed:#x} final"));
                pair.assert_same_series();
                assert!(syncs > 10, "script exercised sync {syncs} times");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 12);
}

/// The corners of the candidate set, one at a time: dirty only in a CPU
/// cache, only in the tracker, in both, Exclusive-but-clean lines, and a
/// sync with nothing left dirty.
#[test]
fn candidate_set_edge_cases() {
    let mut cfg = config(64, true, 2, 1);
    cfg.cpu_cache_lines = 2;
    let mut pair = Pair::new(cfg);
    let base = pair.base;
    let page = |n: u64| (base + n * PAGE_SIZE_4K).page_number();
    let candidates = |rt: &KonaRuntime| {
        let mut v: Vec<u64> = rt.fpga().dirty_candidate_pages().into_iter().collect();
        v.sort_unstable();
        v
    };

    // Dirty only in a CPU cache: the line is Modified, nothing reached
    // the tracker yet.
    pair.write(0, 64, 1);
    assert!(pair.new.fpga().dirty().is_empty());
    assert_eq!(candidates(&pair.new), vec![page(0).raw()]);
    pair.sync("cache only");

    // Dirty only in the tracker: two more writes push page 0's line out
    // of the 2-line cache, so its writeback lands in the tracker and no
    // cache holds a line of it any more.
    pair.write(0, 64, 2);
    pair.write(PAGE_SIZE_4K, 64, 2);
    pair.write(2 * PAGE_SIZE_4K, 64, 2);
    let p0 = page(0);
    assert_eq!(pair.new.fpga().dirty().dirty_line_count(p0), 1);
    assert_eq!(candidates(&pair.new).len(), 3);
    pair.sync("tracker only");

    // Both at once: one line of page 3 evicted to the tracker, another
    // still Modified in the cache.
    pair.write(3 * PAGE_SIZE_4K, 64, 3);
    pair.write(4 * PAGE_SIZE_4K, 64, 3);
    pair.write(5 * PAGE_SIZE_4K, 64, 3);
    pair.write(3 * PAGE_SIZE_4K + 64, 64, 3);
    let p3 = page(3);
    assert_eq!(pair.new.fpga().dirty().dirty_line_count(p3), 1);
    assert!(candidates(&pair.new).contains(&p3.raw()));
    pair.sync("tracker and cache");

    // Exclusive-but-clean lines are not candidates and a sync ships
    // nothing for them.
    pair.read(6 * PAGE_SIZE_4K, 64);
    pair.read(7 * PAGE_SIZE_4K, 64);
    assert!(candidates(&pair.new).is_empty());
    let before = pair.new.eviction_stats().lines_written;
    pair.sync("exclusive clean");
    assert_eq!(pair.new.eviction_stats().lines_written, before);

    // Nothing dirty at all: the whole of FMem takes the bulk path.
    let snoops = pair.new.fpga().stats().page_snoops;
    pair.sync("second sync, nothing dirty");
    assert_eq!(
        pair.new.fpga().stats().page_snoops - snoops,
        pair.new.fpga().fmem_resident_pages() as u64
    );
    assert_eq!(pair.new.eviction_stats().lines_written, before);
    pair.assert_same_series();
}
