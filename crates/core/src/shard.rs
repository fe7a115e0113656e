//! The sharded simulation model.
//!
//! A [`ShardPlan`] stripes one run's page space into a fixed number of
//! **logical shards** (page `p` → shard `p % logical`); each logical
//! shard owns a complete vertical slice of the runtime — its own eviction
//! handler and shipment journal, its own coherence directory and FMem
//! partition, its own fabric, fault-injector and RNG streams (seeded by
//! [`derive_shard_seed`](kona_types::derive_shard_seed)), its own
//! telemetry registry and trace-span ring. Shards share nothing, so
//! [`ShardedRun::execute`] merges their results **in shard order**,
//! making the combined output byte-identical at any worker count:
//!
//! * counters and stats merge by field ([`RuntimeStats::merge`] and
//!   friends);
//! * metric registries absorb in shard order into one [`MetricsDump`];
//! * time-series windows merge index-wise ([`SeriesData::merge`]);
//! * trace spans merge by `(start, shard)`
//!   ([`merge_span_streams`](kona_telemetry::merge_span_streams));
//! * shipment journals sequence by `(time, shard)`
//!   ([`sequence_streams`](kona_types::sequence_streams)).
//!
//! The logical shard count is part of the *model* (it decides which pages
//! share a directory partition), so it stays fixed while the worker count
//! varies; [`ShardReport::fingerprint`] captures the merged history and
//! is the byte-equality witness used by the determinism tests. The worker
//! count is an argument of `execute` only so the benchmark's scaling row
//! can vary it; the experiments run the shards serially.
//!
//! # Examples
//!
//! ```
//! use kona::{ClusterConfig, ShardedRun};
//! use kona_types::{Jobs, ShardPlan};
//!
//! let run = ShardedRun::new(ClusterConfig::small(), 256).with_plan(ShardPlan::new(4));
//! let script = kona::seeded_script(256, 2_000, 42);
//! let serial = run.execute(&script, Jobs::serial()).unwrap();
//! let wide = run.execute(&script, Jobs::new(4)).unwrap();
//! assert_eq!(serial.fingerprint(), wide.fingerprint());
//! ```

use crate::config::{ClusterConfig, DataMode};
use crate::eviction::EvictionStats;
use crate::failure::FailurePolicy;
use crate::log::ShipmentBatch;
use crate::runtime::{KonaRuntime, RemoteMemoryRuntime};
use crate::stats::RuntimeStats;
use kona_coherence::CoherenceStats;
use kona_fpga::FpgaStats;
use kona_net::{FaultStats, NetStats};
use kona_telemetry::{
    merge_span_streams, MetricsDump, Profile, Registry, SeriesData, SpanEvent, Telemetry,
};
use kona_types::rng::{Rng, StdRng};
use kona_types::{
    par_map, sequence_streams, Jobs, Nanos, Result, ShardPlan, VirtAddr, CACHE_LINE_SIZE,
    FxHashMap, LINES_PER_PAGE_4K, PAGE_SIZE_4K,
};

/// One scripted operation against the sharded page space.
///
/// Pages are *global* logical page ids in `0..pages`; the engine routes
/// each op to the owning shard ([`ShardPlan::shard_of_page`]) while
/// preserving per-shard order, so a script is a deterministic workload
/// regardless of worker count. Accesses stay within one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOp {
    /// Store `len` bytes of `fill` at line `line` of page `page`.
    Write {
        /// Global logical page id.
        page: u64,
        /// Cache line within the page (`0..64`).
        line: u32,
        /// Bytes stored from the line start (`1..=64`).
        len: u32,
        /// Payload byte.
        fill: u8,
    },
    /// Load `len` bytes from line `line` of page `page` (verified against
    /// a model when data tracking is on).
    Read {
        /// Global logical page id.
        page: u64,
        /// Cache line within the page (`0..64`).
        line: u32,
        /// Bytes loaded from the line start (`1..=64`).
        len: u32,
    },
    /// Flush all dirty state (broadcast to every shard at this point of
    /// the script).
    Sync,
}

/// A compact, order-preserving digest of one flushed log batch, used in
/// the sequenced shipment stream so the merged journal history can be
/// fingerprinted without retaining payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipmentDigest {
    /// Destination memory node (within the shard's fabric).
    pub node: u32,
    /// Encoded batch length in bytes.
    pub bytes: u64,
    /// FNV-1a hash of the encoded batch.
    pub checksum: u64,
}

/// Generates a deterministic mixed read/write script over `pages` global
/// pages: ~60 % line-granularity stores with varying lengths and fills,
/// ~40 % loads, a global [`ShardOp::Sync`] every 1024 ops and one at the
/// end. The same `(pages, ops, seed)` always yields the same script.
pub fn seeded_script(pages: u64, ops: usize, seed: u64) -> Vec<ShardOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(ops + ops / 1024 + 1);
    for i in 0..ops {
        let page = rng.gen_range(0..pages.max(1));
        let line = rng.gen_range(0..LINES_PER_PAGE_4K as u32);
        if rng.gen_bool(0.6) {
            script.push(ShardOp::Write {
                page,
                line,
                len: rng.gen_range(8..=CACHE_LINE_SIZE as u32),
                fill: rng.gen(),
            });
        } else {
            script.push(ShardOp::Read {
                page,
                line,
                len: CACHE_LINE_SIZE as u32,
            });
        }
        if i % 1024 == 1023 {
            script.push(ShardOp::Sync);
        }
    }
    script.push(ShardOp::Sync);
    script
}

/// What one logical shard produced; merged in shard order by
/// [`ShardedRun::execute`]. Everything here is `Send` (plain data), so
/// outcomes can cross worker-thread boundaries.
#[derive(Debug)]
struct ShardOutcome {
    stats: RuntimeStats,
    eviction: EvictionStats,
    fpga: FpgaStats,
    coherence: CoherenceStats,
    net: NetStats,
    faults: FaultStats,
    dump: MetricsDump,
    series: Option<SeriesData>,
    events: Vec<SpanEvent>,
    profile: Option<Profile>,
    shipments: Vec<(Nanos, ShipmentDigest)>,
    ops: u64,
    failed: u64,
    app_time: Nanos,
}

/// The merged result of a sharded run.
///
/// Every field is a deterministic, shard-order merge of the per-shard
/// histories — independent of the worker count that produced them.
/// [`ShardReport::fingerprint`] folds the lot into one string for
/// byte-equality assertions.
#[derive(Debug)]
pub struct ShardReport {
    /// The logical decomposition that ran.
    pub plan: ShardPlan,
    /// Global pages in the run's page space.
    pub pages: u64,
    /// Field-wise sum of every shard's runtime counters.
    pub stats: RuntimeStats,
    /// Field-wise sum of every shard's eviction counters.
    pub eviction: EvictionStats,
    /// Field-wise sum of every shard's FPGA counters.
    pub fpga: FpgaStats,
    /// Field-wise sum of every shard's coherence-directory counters.
    pub coherence: CoherenceStats,
    /// Field-wise sum of every shard's fabric counters.
    pub net: NetStats,
    /// Field-wise sum of every shard's injected-fault counters.
    pub faults: FaultStats,
    /// All shard metric registries absorbed in shard order.
    pub dump: MetricsDump,
    /// Index-wise merge of the shard time-series (when windows were on).
    pub series: Option<SeriesData>,
    /// Trace spans merged by `(start, shard)` (when tracing was on).
    pub events: Vec<SpanEvent>,
    /// Path-keyed merge of the per-shard simulated-time profiles (when
    /// tracing was on). Each shard folds its own span stream — span ids
    /// are per-telemetry, so folding before the merge is what keeps
    /// paths unambiguous — and path-keyed addition is order-independent,
    /// so the merged profile is byte-identical at any worker count.
    pub profile: Option<Profile>,
    /// Shipment-journal batches sequenced by `(flush time, shard)`.
    pub shipments: Vec<(Nanos, u32, ShipmentDigest)>,
    /// Ops executed by each logical shard.
    pub shard_ops: Vec<u64>,
    /// Ops per shard that failed on an injected fault (tolerated, like
    /// the chaos workloads; the final sync still has to succeed).
    pub shard_failed: Vec<u64>,
    /// Slowest shard's simulated application time — the run's simulated
    /// completion time under perfect shard parallelism.
    pub app_time_max: Nanos,
}

impl ShardReport {
    /// Total ops executed across all shards.
    pub fn total_ops(&self) -> u64 {
        self.shard_ops.iter().sum()
    }

    /// A deterministic digest of the merged run history: per-shard op and
    /// time streams, every merged counter block, the sequenced shipment
    /// journal and the metric dump. Two runs of the same script with the
    /// same plan produce byte-identical fingerprints at **any** worker
    /// count — this is the equality the determinism suite asserts.
    pub fn fingerprint(&self) -> String {
        let mut ship_hash = FNV_OFFSET;
        for &(at, shard, digest) in &self.shipments {
            for limb in [
                at.as_ns(),
                u64::from(shard),
                u64::from(digest.node),
                digest.bytes,
                digest.checksum,
            ] {
                ship_hash = fnv_fold(ship_hash, limb);
            }
        }
        let mut dump_hash = FNV_OFFSET;
        for (name, value) in &self.dump.counters {
            dump_hash = fnv_bytes(dump_hash, name.as_bytes());
            dump_hash = fnv_fold(dump_hash, *value);
        }
        let mut span_hash = FNV_OFFSET;
        for event in &self.events {
            span_hash = fnv_fold(span_hash, event.start.as_ns());
            span_hash = fnv_fold(span_hash, event.duration.as_ns());
        }
        let s = &self.stats;
        format!(
            "shard-run logical={} pages={} ops={:?} failed={:?} app_ns={} wall_ns={} \
             hits={} fetches={} evicted={} wb={} dirty={} retries={} failovers={} \
             fallback={} degraded={} mce={} | ev lines={} bytes={} flushes={} \
             fretry={} abandoned={} skipped={} | net req={} wire={} faulted={} \
             | faults drop={} corrupt={} timeout={} down={} spike={} \
             | fpga fmem={} fetch={} wbobs={} snoops={} | coh dir={} inv={} wb={} \
             | ships={} h={:016x} spans={} h={:016x} dump h={:016x}",
            self.plan.logical(),
            self.pages,
            self.shard_ops,
            self.shard_failed,
            s.app_time.as_ns(),
            self.app_time_max.as_ns(),
            s.local_hits,
            s.remote_fetches,
            s.pages_evicted,
            s.writeback_bytes,
            s.app_dirty_bytes,
            s.retries,
            s.failovers,
            s.fallback_waits,
            s.degraded_entries,
            s.mce_events,
            self.eviction.lines_written,
            self.eviction.dirty_bytes_written,
            self.eviction.flushes,
            self.eviction.flush_retries,
            self.eviction.abandoned_flushes,
            self.eviction.skipped_targets,
            self.net.requests,
            self.net.wire_bytes,
            self.net.faulted_posts,
            self.faults.dropped,
            self.faults.corrupted,
            self.faults.timed_out,
            self.faults.node_down_rejections,
            self.faults.spiked_chains,
            self.fpga.fmem_hits,
            self.fpga.remote_fetches,
            self.fpga.writebacks_observed,
            self.fpga.page_snoops,
            self.coherence.directory_transactions,
            self.coherence.invalidations,
            self.coherence.writebacks,
            self.shipments.len(),
            ship_hash,
            self.events.len(),
            span_hash,
            dump_hash,
        )
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_fold(hash: u64, value: u64) -> u64 {
    fnv_bytes(hash, &value.to_le_bytes())
}

/// A single simulation partitioned over logical shards.
///
/// Configure once, [`execute`](ShardedRun::execute) many times: the same
/// script produces the same [`ShardReport::fingerprint`] at every
/// [`Jobs`] width. See the [module documentation](self) for the
/// decomposition rules.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    config: ClusterConfig,
    plan: ShardPlan,
    pages: u64,
    window_ns: u64,
    trace_capacity: usize,
    policy: Option<FailurePolicy>,
}

impl ShardedRun {
    /// A sharded run over `pages` global pages with the default logical
    /// decomposition, no time-series windows and no tracing. Each shard
    /// slices `config` with [`ClusterConfig::shard_slice`].
    pub fn new(config: ClusterConfig, pages: u64) -> Self {
        ShardedRun {
            config,
            plan: ShardPlan::default(),
            pages: pages.max(1),
            window_ns: 0,
            trace_capacity: 0,
            policy: None,
        }
    }

    /// Replaces the logical decomposition (model change: per-shard
    /// histories differ across plans, not across worker counts).
    #[must_use]
    pub fn with_plan(mut self, plan: ShardPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Enables per-shard time-series collection with `window_ns` windows;
    /// the merged report carries the index-wise merge.
    #[must_use]
    pub fn with_windows(mut self, window_ns: u64) -> Self {
        self.window_ns = window_ns;
        self
    }

    /// Enables per-shard span tracing with a ring of `capacity` events;
    /// the merged report carries the `(start, shard)`-ordered timeline.
    #[must_use]
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Installs a failure policy on every shard runtime (required for
    /// fault plans that take nodes down — the chaos workloads use
    /// [`FailurePolicy::PageFaultFallback`]).
    #[must_use]
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The logical decomposition in use.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Routes `script` to the owning shards and runs every logical shard
    /// to completion on up to `jobs` worker threads, then merges the
    /// per-shard histories in shard order.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error from any shard (allocation
    /// exhaustion, unrecoverable network failure).
    ///
    /// # Panics
    ///
    /// Panics if data verification fails — a read observing bytes that
    /// differ from the model is a simulator bug, not an input error.
    pub fn execute(&self, script: &[ShardOp], jobs: Jobs) -> Result<ShardReport> {
        let logical = self.plan.logical() as usize;
        let mut streams: Vec<Vec<ShardOp>> = vec![Vec::new(); logical];
        for &op in script {
            match op {
                ShardOp::Write { page, .. } | ShardOp::Read { page, .. } => {
                    streams[self.plan.shard_of_page(page) as usize].push(op);
                }
                ShardOp::Sync => {
                    for stream in &mut streams {
                        stream.push(op);
                    }
                }
            }
        }

        let outcomes: Vec<Result<ShardOutcome>> = par_map(jobs, streams, |shard, stream| {
            self.run_shard(shard as u32, &stream)
        });
        let mut merged: Vec<ShardOutcome> = Vec::with_capacity(logical);
        for outcome in outcomes {
            merged.push(outcome?);
        }

        let mut stats = RuntimeStats::default();
        let mut eviction = EvictionStats::default();
        let mut fpga = FpgaStats::default();
        let mut coherence = CoherenceStats::default();
        let mut net = NetStats::default();
        let mut faults = FaultStats::default();
        let mut registry = Registry::new();
        let mut series: Option<SeriesData> = None;
        let mut profile: Option<Profile> = None;
        let mut app_time_max = Nanos::ZERO;
        for outcome in &merged {
            stats.merge(&outcome.stats);
            eviction.merge(&outcome.eviction);
            fpga.merge(&outcome.fpga);
            coherence.merge(&outcome.coherence);
            net.merge(&outcome.net);
            faults.merge(&outcome.faults);
            registry.absorb(&outcome.dump);
            if let Some(shard_series) = &outcome.series {
                match &mut series {
                    Some(all) => all.merge(shard_series),
                    None => series = Some(shard_series.clone()),
                }
            }
            if let Some(shard_profile) = &outcome.profile {
                match &mut profile {
                    Some(all) => all.merge(shard_profile),
                    None => profile = Some(shard_profile.clone()),
                }
            }
            app_time_max = app_time_max.max(outcome.app_time);
        }
        let shard_ops: Vec<u64> = merged.iter().map(|o| o.ops).collect();
        let shard_failed: Vec<u64> = merged.iter().map(|o| o.failed).collect();
        let mut event_streams = Vec::with_capacity(logical);
        let mut shipment_streams = Vec::with_capacity(logical);
        for outcome in merged {
            event_streams.push(outcome.events);
            shipment_streams.push(outcome.shipments);
        }
        Ok(ShardReport {
            plan: self.plan,
            pages: self.pages,
            stats,
            eviction,
            fpga,
            coherence,
            net,
            faults,
            dump: registry.dump(),
            series,
            profile,
            events: merge_span_streams(event_streams),
            shipments: sequence_streams(shipment_streams),
            shard_ops,
            shard_failed,
            app_time_max,
        })
    }

    /// Runs one logical shard's op stream to completion on its own
    /// vertical slice of the runtime.
    fn run_shard(&self, shard: u32, stream: &[ShardOp]) -> Result<ShardOutcome> {
        let slice = self.config.shard_slice(shard, self.plan.logical());
        let verify = matches!(slice.data_mode, DataMode::Tracked);
        let telemetry = if self.trace_capacity > 0 {
            Telemetry::with_tracing(self.trace_capacity)
        } else {
            Telemetry::disabled()
        };
        if self.window_ns > 0 {
            telemetry.enable_timeseries(self.window_ns);
        }
        telemetry.set_trace_id_base((u64::from(shard) + 1) << 32);

        let mut rt = KonaRuntime::with_telemetry(slice, telemetry.clone())?;
        if let Some(policy) = self.policy {
            rt.set_failure_policy(policy);
        }
        rt.enable_shipment_journal();
        let owned = self.plan.pages_owned(shard, self.pages).max(1);
        let base = rt.allocate(owned * PAGE_SIZE_4K)?;

        let mut model: FxHashMap<u64, u8> = FxHashMap::default();
        let mut buf = [0u8; CACHE_LINE_SIZE as usize];
        let mut line_data = [0u8; CACHE_LINE_SIZE as usize];
        let mut clock = Nanos::ZERO;
        let mut ops = 0u64;
        let addr_of = |page: u64, line: u32| -> VirtAddr {
            base + self.plan.local_index(page) * PAGE_SIZE_4K
                + u64::from(line) * CACHE_LINE_SIZE
        };
        let mut failed = 0u64;
        for &op in stream {
            // Injected faults fail individual ops (counted, like the
            // chaos workloads); the final sync below must still succeed.
            match op {
                ShardOp::Write { page, line, len, fill } => {
                    let addr = addr_of(page, line);
                    line_data[..len as usize].fill(fill);
                    match rt.write_bytes(addr, &line_data[..len as usize]) {
                        Ok(t) => {
                            clock += t;
                            if verify {
                                for j in 0..u64::from(len) {
                                    model.insert(addr.raw() + j, fill);
                                }
                            }
                        }
                        Err(_) => failed += 1,
                    }
                }
                ShardOp::Read { page, line, len } => {
                    let addr = addr_of(page, line);
                    match rt.read_bytes(addr, &mut buf[..len as usize]) {
                        Ok(t) => {
                            clock += t;
                            if verify {
                                for j in 0..u64::from(len) {
                                    if let Some(&expect) = model.get(&(addr.raw() + j)) {
                                        assert_eq!(
                                            buf[j as usize], expect,
                                            "shard {shard} read mismatch at {addr:?}+{j}"
                                        );
                                    }
                                }
                            }
                        }
                        Err(_) => failed += 1,
                    }
                }
                ShardOp::Sync => match rt.sync() {
                    Ok(t) => clock += t,
                    Err(_) => failed += 1,
                },
            }
            ops += 1;
            if self.window_ns > 0 {
                telemetry.observe_time(clock);
            }
        }
        clock += rt.sync()?;

        let mut batch = ShipmentBatch::default();
        rt.drain_log_shipments_into(&mut batch);
        let shipments: Vec<(Nanos, ShipmentDigest)> = batch
            .iter()
            .map(|(node, at, encoded)| {
                (
                    at,
                    ShipmentDigest {
                        node,
                        bytes: encoded.len() as u64,
                        checksum: fnv_bytes(FNV_OFFSET, encoded),
                    },
                )
            })
            .collect();

        // Fold this shard's profile from its own span stream *before* the
        // merge: span ids are allocated per telemetry instance, so parent
        // links only resolve against the stream that produced them.
        let events = telemetry.events();
        let profile = (self.trace_capacity > 0).then(|| Profile::from_spans(&events));

        Ok(ShardOutcome {
            stats: rt.stats(),
            eviction: rt.eviction_stats(),
            fpga: rt.fpga().stats(),
            coherence: rt.fpga().coherence_stats(),
            net: rt.fabric_mut().stats(),
            faults: rt.fabric_mut().fault_stats(),
            dump: telemetry.dump(),
            series: telemetry.series(),
            events,
            profile,
            shipments,
            ops,
            failed,
            app_time: clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(pages: u64) -> ShardedRun {
        ShardedRun::new(ClusterConfig::small(), pages).with_plan(ShardPlan::new(4))
    }

    #[test]
    fn worker_count_does_not_change_the_fingerprint() {
        let run = small_run(64);
        let script = seeded_script(64, 1500, 7);
        let serial = run.execute(&script, Jobs::serial()).unwrap();
        let two = run.execute(&script, Jobs::new(2)).unwrap();
        let wide = run.execute(&script, Jobs::new(8)).unwrap();
        assert_eq!(serial.fingerprint(), two.fingerprint());
        assert_eq!(serial.fingerprint(), wide.fingerprint());
        // Syncs broadcast to every shard; point ops run exactly once.
        let syncs = script.iter().filter(|o| matches!(o, ShardOp::Sync)).count();
        assert_eq!(serial.total_ops() as usize, script.len() - syncs + syncs * 4);
    }

    #[test]
    fn shard_ops_counters_reach_the_dump() {
        let run = small_run(32);
        let script = seeded_script(32, 400, 11);
        let report = run.execute(&script, Jobs::serial()).unwrap();
        assert_eq!(report.shard_ops.len(), 4);
        assert!(report.shard_ops.iter().all(|&ops| ops > 0), "idle shard");
        assert_eq!(report.shard_ops.iter().sum::<u64>(), report.total_ops());
        let syncs = script.iter().filter(|o| matches!(o, ShardOp::Sync)).count() as u64;
        assert_eq!(report.total_ops(), script.len() as u64 - syncs + syncs * 4);
        assert!(report.stats.app_dirty_bytes > 0);
    }

    #[test]
    fn plans_change_history_but_stay_deterministic() {
        let script = seeded_script(64, 800, 3);
        let four = small_run(64).execute(&script, Jobs::serial()).unwrap();
        let eight = ShardedRun::new(ClusterConfig::small(), 64)
            .with_plan(ShardPlan::new(8))
            .execute(&script, Jobs::new(3))
            .unwrap();
        assert_ne!(four.fingerprint(), eight.fingerprint());
        let again = ShardedRun::new(ClusterConfig::small(), 64)
            .with_plan(ShardPlan::new(8))
            .execute(&script, Jobs::serial())
            .unwrap();
        assert_eq!(eight.fingerprint(), again.fingerprint());
    }

    #[test]
    fn windows_and_tracing_merge_deterministically() {
        let run = small_run(48)
            .with_windows(kona_telemetry::DEFAULT_WINDOW_NS)
            .with_tracing(1 << 14);
        let script = seeded_script(48, 600, 19);
        let serial = run.execute(&script, Jobs::serial()).unwrap();
        let wide = run.execute(&script, Jobs::new(4)).unwrap();
        assert_eq!(serial.fingerprint(), wide.fingerprint());
        assert!(serial.series.is_some());
        assert!(!serial.events.is_empty());
        let serial_json = serial.series.unwrap().to_json();
        let wide_json = wide.series.unwrap().to_json();
        assert_eq!(serial_json, wide_json);
    }
}
