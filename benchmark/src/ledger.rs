//! Outside-in replays below `KonaRuntime`.
//!
//! The harness cannot see inside a crate, so it re-creates each lower
//! layer on its own and drives it with the stream `KonaRuntime` would
//! have given it, derived from public outcomes only:
//!
//! * the line stream of the ops → a bare [`KonaFpga`];
//! * the victims and fetches its [`CpuAccessOutcome::RemoteFetch`]
//!   outcomes name → an [`EvictionHandler`] and a [`Fabric`];
//! * the same line stream plus the victims' invalidations → a bare
//!   [`CoherenceSystem`].
//!
//! Every replay reports the counters of the object it drove, and the
//! caller checks them against the runtime's: a replay that did different
//! work is flagged, not trusted.

use crate::pass::{timed_chunks, timed_pass, PassTiming, Plan};
use crate::script::Op;
use kona::{ClusterConfig, DataMode, EvictionHandler, EvictionStats, Poller};
use kona_coherence::{AgentId, CoherenceStats, CoherenceSystem};
use kona_fpga::{CpuAccessOutcome, FpgaConfig, FpgaStats, KonaFpga, VictimPage};
use kona_net::{Bytes, Fabric, NetworkModel, WorkRequest};
use kona_types::{LineIndex, PageNumber, RemoteAddr, VfMemAddr, LINES_PER_PAGE_4K, PAGE_SIZE_4K};

/// Where every slab lives: `(base, len, [primary, replicas...])`, as
/// [`kona::KonaRuntime::slab_copies`] reports it.
pub type SlabMap = Vec<(u64, u64, Vec<RemoteAddr>)>;

/// What the level above did to the ops besides issuing them
/// (serve_stack only): which ones its front door admitted in the warm-up
/// and in the timed pass, and when its QoS review re-prioritised a page
/// range for eviction.
#[derive(Clone, Copy)]
pub struct Above<'a> {
    pub masks: [&'a [bool]; 2],
    pub priorities: &'a [PriorityChange],
}

/// FMem eviction priority `priority` for pages `[start_page, end_page)`,
/// taking effect after op `after_op` of pass `pass` (0 = warm-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityChange {
    pub pass: usize,
    pub after_op: usize,
    pub start_page: u64,
    pub end_page: u64,
    pub priority: i8,
}

/// Walks a `(pass, after_op)`-ordered change list alongside a replay.
pub struct PriorityCursor<'a> {
    changes: &'a [PriorityChange],
    next: usize,
}

impl<'a> PriorityCursor<'a> {
    pub fn new(above: Option<Above<'a>>) -> PriorityCursor<'a> {
        PriorityCursor {
            changes: above.map_or(&[], |a| a.priorities),
            next: 0,
        }
    }

    /// Hands `apply` every change due after op `i` of pass `pass`.
    pub fn due(&mut self, pass: usize, i: usize, mut apply: impl FnMut(&PriorityChange)) {
        while self
            .changes
            .get(self.next)
            .is_some_and(|c| (c.pass, c.after_op) == (pass, i))
        {
            apply(&self.changes[self.next]);
            self.next += 1;
        }
    }
}

/// The ops of the warm-up and of the timed pass.
pub struct Stream<'a> {
    pub ops: &'a [Op],
    pub base: u64,
    pub plan: Plan,
    pub above: Option<Above<'a>>,
}

impl Stream<'_> {
    fn admitted(&self, pass: usize, i: usize) -> bool {
        self.above.is_none_or(|a| a.masks[pass][i])
    }
}

/// What the FPGA asked the runtime to do, in order.
#[derive(Debug, Clone)]
enum FpgaEvent {
    Victim(VictimPage),
    Fetch(PageNumber),
}

/// The events of one pass, grouped by the chunk whose ops caused them.
#[derive(Debug, Default)]
struct EventLog {
    events: Vec<FpgaEvent>,
    /// `events[chunk_end[c - 1]..chunk_end[c]]` belong to chunk `c`.
    chunk_end: Vec<usize>,
    /// `(line ordinal within the pass, page)` of every victim, for the
    /// coherence replay's invalidations.
    victim_at: Vec<(u64, PageNumber)>,
}

impl EventLog {
    fn chunk(&self, c: usize) -> &[FpgaEvent] {
        let lo = if c == 0 { 0 } else { self.chunk_end[c - 1] };
        &self.events[lo..self.chunk_end[c]]
    }
}

/// Timed-pass results of the replays below `KonaRuntime`.
#[derive(Debug)]
pub struct SubCore {
    pub fpga: PassTiming,
    pub coherence: PassTiming,
    pub evict: PassTiming,
    pub net_reads: PassTiming,
    pub net_writes: PassTiming,
    /// Counters of the replayed objects after warm-up + one timed pass,
    /// for the caller's fidelity check.
    pub fpga_stats: FpgaStats,
    pub fpga_coherence_stats: CoherenceStats,
    pub coherence_stats: CoherenceStats,
    pub eviction_stats: EvictionStats,
    /// Timed pass only.
    pub victims: u64,
    pub dirty_lines: u64,
    pub verbs: u64,
}

fn locate(slabs: &SlabMap, page: PageNumber) -> (RemoteAddr, Vec<RemoteAddr>) {
    let addr = page.raw() * PAGE_SIZE_4K;
    let i = slabs.partition_point(|(base, _, _)| *base <= addr) - 1;
    let (base, _, copies) = &slabs[i];
    let at = |r: &RemoteAddr| r.add(addr - base);
    (at(&copies[0]), copies[1..].iter().map(at).collect())
}

/// A fabric laid out like the runtime's: per node a data region and a
/// log landing region behind it.
fn fabric_like(config: &ClusterConfig) -> Fabric {
    let mut fabric = Fabric::new(NetworkModel::connectx5());
    let (data, log) = (config.node_capacity.bytes(), config.log_capacity.bytes());
    for id in 0..config.memory_nodes {
        fabric.add_node(id, data + log);
        fabric.register(id, 0, data).expect("fresh node");
        fabric.register(id, data, log).expect("fresh node");
    }
    fabric
}

fn replay_fpga(
    config: &ClusterConfig,
    slabs: &SlabMap,
    stream: &Stream,
) -> (PassTiming, KonaFpga, [EventLog; 2]) {
    let mut fpga = KonaFpga::new(FpgaConfig {
        cpu_agents: config.cpu_agents.max(1),
        cpu_cache_lines: config.cpu_cache_lines,
        fmem_pages: config.local_cache_pages,
        fmem_ways: config.fmem_ways,
        prefetcher: config.prefetcher.clone(),
    });
    for (base, len, copies) in slabs {
        fpga.translation_mut()
            .register(VfMemAddr::new(*base), *len, copies[0])
            .expect("slabs are disjoint");
    }
    let mut logs = [EventLog::default(), EventLog::default()];
    let mut priorities = PriorityCursor::new(stream.above);
    let mut timing = None;
    for (pass, log) in logs.iter_mut().enumerate() {
        let mut ordinal = 0u64;
        timing = Some(timed_chunks(stream.plan.chunks, |c| {
            let (lo, hi) = stream.plan.bounds(stream.ops.len(), c);
            for (i, op) in stream.ops[lo..hi].iter().enumerate() {
                let lines = if stream.admitted(pass, lo + i) {
                    op.lines()
                } else {
                    0..0
                };
                for line in lines {
                    let outcome = fpga.cpu_access_from(
                        AgentId(0),
                        VfMemAddr::new(stream.base + line * 64),
                        op.kind(),
                    );
                    if let CpuAccessOutcome::RemoteFetch {
                        page,
                        victims,
                        prefetch,
                    } = outcome
                    {
                        for v in victims {
                            log.victim_at.push((ordinal, v.page));
                            log.events.push(FpgaEvent::Victim(v));
                        }
                        log.events.push(FpgaEvent::Fetch(page));
                        log.events
                            .extend(prefetch.into_iter().map(FpgaEvent::Fetch));
                    }
                    ordinal += 1;
                }
                priorities.due(pass, lo + i, |c| {
                    fpga.set_page_priority(c.start_page, c.end_page, c.priority)
                });
            }
            log.chunk_end.push(log.events.len());
        }));
    }
    (timing.expect("two passes ran"), fpga, logs)
}

fn replay_coherence(
    config: &ClusterConfig,
    stream: &Stream,
    logs: &[EventLog; 2],
) -> (PassTiming, CoherenceStats) {
    let mut sys = CoherenceSystem::new(config.cpu_agents.max(1), config.cpu_cache_lines);
    let mut timing = None;
    for (pass, log) in logs.iter().enumerate() {
        let mut ordinal = 0u64;
        let mut next_victim = 0usize;
        timing = Some(timed_pass(stream.ops, stream.plan, |i, op| {
            if !stream.admitted(pass, i) {
                return;
            }
            for line in op.lines() {
                let line = LineIndex(stream.base / 64 + line);
                if op.write {
                    sys.write(AgentId(0), line);
                } else {
                    sys.read(AgentId(0), line);
                }
                std::hint::black_box(sys.drain_writebacks());
                // The FPGA invalidates an expelled page's lines right
                // after the access that displaced it.
                while log
                    .victim_at
                    .get(next_victim)
                    .is_some_and(|(at, _)| *at == ordinal)
                {
                    let first = log.victim_at[next_victim].1.raw() * LINES_PER_PAGE_4K as u64;
                    for l in 0..LINES_PER_PAGE_4K as u64 {
                        sys.invalidate_all(LineIndex(first + l));
                    }
                    std::hint::black_box(sys.drain_writebacks());
                    next_victim += 1;
                }
                ordinal += 1;
            }
        }));
    }
    (timing.expect("two passes ran"), sys.stats())
}

/// One log flush the eviction replay posted: which chunk, how many wire
/// bytes.
struct Flush {
    chunk: usize,
    bytes: u64,
}

fn replay_evict(
    config: &ClusterConfig,
    slabs: &SlabMap,
    logs: &[EventLog; 2],
    chunks: usize,
) -> (PassTiming, EvictionStats, Vec<Flush>) {
    let mut fabric = fabric_like(config);
    let mut poller = Poller::new();
    let mut handler = EvictionHandler::new(
        config.node_capacity.bytes(),
        config.log_capacity.bytes() as usize,
    );
    handler.set_retry_policy(config.retry.clone());
    handler.set_max_node_losses(config.replicas.saturating_sub(1));
    let page = vec![0u8; PAGE_SIZE_4K as usize];
    let page_data = (config.data_mode == DataMode::Tracked).then_some(page.as_slice());

    let mut flushes = Vec::new();
    let mut timing = None;
    for (pass, log) in logs.iter().enumerate() {
        timing = Some(timed_chunks(chunks, |c| {
            for event in log.chunk(c) {
                let before = fabric.stats();
                match event {
                    FpgaEvent::Victim(victim) => {
                        let (primary, replicas) = locate(slabs, victim.page);
                        handler
                            .evict_page(
                                victim,
                                page_data,
                                primary,
                                &replicas,
                                &mut fabric,
                                &mut poller,
                            )
                            .expect("calm fabric");
                    }
                    // Read-your-writes: the runtime flushes before it
                    // re-fetches a page with unflushed log entries.
                    FpgaEvent::Fetch(page) if handler.is_pending(page.raw()) => {
                        handler
                            .flush_all(&mut fabric, &mut poller)
                            .expect("calm fabric");
                    }
                    FpgaEvent::Fetch(_) => {}
                }
                let after = fabric.stats();
                if pass == 1 && after.posts > before.posts {
                    flushes.push(Flush {
                        chunk: c,
                        bytes: after.wire_bytes - before.wire_bytes,
                    });
                }
            }
        }));
    }
    (timing.expect("two passes ran"), handler.stats(), flushes)
}

fn replay_net(
    config: &ClusterConfig,
    slabs: &SlabMap,
    log: &EventLog,
    flushes: &[Flush],
    chunks: usize,
) -> (PassTiming, PassTiming) {
    let mut fabric = fabric_like(config);
    let mut poller = Poller::new();
    let mut wr_id = 0u64;
    let reads = timed_chunks(chunks, |c| {
        for event in log.chunk(c) {
            if let FpgaEvent::Fetch(page) = event {
                wr_id += 1;
                let (primary, _) = locate(slabs, *page);
                let wr = WorkRequest::read(wr_id, primary, PAGE_SIZE_4K).signaled();
                std::hint::black_box(
                    poller
                        .post_and_poll(&mut fabric, vec![wr])
                        .expect("calm fabric"),
                );
            }
        }
    });

    // Payloads are built before the clock starts (the eviction handler's
    // own encode + copy is its self time, not the fabric's), rounded up
    // to 1 KiB so a handful of buffers covers every flush size.
    let log_at = config.node_capacity.bytes();
    let log_len = config.log_capacity.bytes();
    let round = |bytes: u64| bytes.div_ceil(1024).max(1) * 1024;
    let mut payloads: std::collections::BTreeMap<u64, Bytes> = std::collections::BTreeMap::new();
    for f in flushes {
        let size = round(f.bytes).min(log_len);
        payloads
            .entry(size)
            .or_insert_with(|| Bytes::from(vec![0u8; size as usize]));
    }
    let mut next = 0usize;
    let mut node = 0u32;
    let writes = timed_chunks(chunks, |c| {
        while flushes.get(next).is_some_and(|f| f.chunk == c) {
            let size = round(flushes[next].bytes).min(log_len);
            wr_id += 1;
            node = (node + 1) % config.memory_nodes;
            let wr = WorkRequest::write(
                wr_id,
                RemoteAddr::new(node, log_at),
                payloads[&size].clone(),
            )
            .signaled();
            std::hint::black_box(
                poller
                    .post_and_poll(&mut fabric, vec![wr])
                    .expect("calm fabric"),
            );
            next += 1;
        }
    });
    (reads, writes)
}

/// Runs every replay below `KonaRuntime` for one stream.
pub fn replay(config: &ClusterConfig, slabs: &SlabMap, stream: &Stream) -> SubCore {
    let chunks = stream.plan.chunks;
    let (fpga, device, logs) = replay_fpga(config, slabs, stream);
    let (coherence, coherence_stats) = replay_coherence(config, stream, &logs);
    let (evict, eviction_stats, flushes) = replay_evict(config, slabs, &logs, chunks);
    let (net_reads, net_writes) = replay_net(config, slabs, &logs[1], &flushes, chunks);

    let timed = &logs[1];
    let (mut victims, mut dirty_lines, mut fetches) = (0u64, 0u64, 0u64);
    for event in &timed.events {
        match event {
            FpgaEvent::Victim(v) => {
                victims += 1;
                dirty_lines += v.dirty_lines.count_set() as u64;
            }
            FpgaEvent::Fetch(_) => fetches += 1,
        }
    }
    SubCore {
        fpga,
        coherence,
        evict,
        net_reads,
        net_writes,
        fpga_stats: device.stats(),
        fpga_coherence_stats: device.coherence_stats(),
        coherence_stats,
        eviction_stats,
        victims,
        dirty_lines,
        verbs: fetches + flushes.len() as u64,
    }
}
