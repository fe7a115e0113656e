//! Cluster and latency configuration.

use crate::controller::{CapacityWeighted, PlacementPolicy, PowerOfTwoChoices, RoundRobin};
use kona_fpga::NextPagePrefetcher;
use kona_net::FaultPlan;
use kona_types::rng::{Rng, StdRng};
use kona_types::{ByteSize, KonaError, Nanos, Result, PAGE_SIZE_4K};

/// Which [`PlacementPolicy`] the rack controller runs.
///
/// A plain enum (rather than a boxed trait object) so `ClusterConfig`
/// stays `Clone + Debug` trivially and experiment binaries can parse it
/// from a flag; [`PlacementKind::build`] produces the live policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementKind {
    /// Rotate grants over nodes in registration order (the paper's
    /// baseline).
    #[default]
    RoundRobin,
    /// Sample nodes with probability proportional to free capacity.
    CapacityWeighted,
    /// Sample two nodes, grant on the emptier (d=2 choices).
    PowerOfTwoChoices,
}

impl PlacementKind {
    /// Instantiates the policy, seeding any internal PRNG from `seed`.
    pub fn build(self, seed: u64) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementKind::RoundRobin => Box::new(RoundRobin::default()),
            PlacementKind::CapacityWeighted => Box::new(CapacityWeighted::new(seed)),
            PlacementKind::PowerOfTwoChoices => Box::new(PowerOfTwoChoices::new(seed)),
        }
    }
}

impl std::str::FromStr for PlacementKind {
    type Err = KonaError;

    /// Parses the experiment-flag spelling (`round-robin`, `capacity`,
    /// `p2c`).
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::InvalidConfig`] for unknown names.
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "round-robin" | "rr" => Ok(PlacementKind::RoundRobin),
            "capacity" => Ok(PlacementKind::CapacityWeighted),
            "p2c" => Ok(PlacementKind::PowerOfTwoChoices),
            other => Err(KonaError::InvalidConfig(format!(
                "unknown placement policy '{other}' (expected round-robin, capacity or p2c)"
            ))),
        }
    }
}

/// Whether the runtime moves real bytes or only simulates timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataMode {
    /// Full data fidelity: remote pools hold real bytes; reads return what
    /// was written. Used by correctness tests and examples.
    #[default]
    Tracked,
    /// Timing only: transfers are charged but payloads are zeros. Used by
    /// large benchmark sweeps where holding the working set in host memory
    /// would be wasteful.
    Timing,
}

/// Local memory latencies of the reference architecture (§4.3).
///
/// CMem is CPU-attached DRAM; FMem is FPGA-attached DRAM reached over the
/// coherent interconnect, "1.5X slower than accessing the local socket"
/// being the paper's NUMA comparison point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Access served by the CPU cache hierarchy.
    pub cpu_cache_hit: Nanos,
    /// CPU-attached DRAM access.
    pub cmem: Nanos,
    /// Line fill from FMem over the coherent interconnect.
    pub fmem_fill: Nanos,
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile {
            cpu_cache_hit: Nanos::from_ns(2),
            cmem: Nanos::from_ns(85),
            fmem_fill: Nanos::from_ns(250),
        }
    }
}

/// Retry policy for transient remote failures (§4.5 recovery).
///
/// Transient errors (injected verb faults, flapping nodes) are retried
/// with exponential backoff plus seeded jitter; permanent errors
/// (unregistered memory, unknown nodes) are never retried. The jitter
/// PRNG is seeded, so retry timing is deterministic for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per target before giving up (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base_backoff: Nanos,
    /// Cap on any single backoff.
    pub max_backoff: Nanos,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a random
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter PRNG.
    pub seed: u64,
    /// Per-verb deadline reported in machine-check events
    /// ([`kona_types::KonaError::CoherenceTimeout`]).
    pub verb_deadline: Nanos,
}

impl RetryPolicy {
    /// No retries at all: one attempt per target.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff to sleep after attempt number `attempt` (0-based):
    /// exponential from [`RetryPolicy::base_backoff`], capped at
    /// [`RetryPolicy::max_backoff`], with multiplicative jitter drawn
    /// from `rng`.
    pub fn backoff_for(&self, attempt: u32, rng: &mut StdRng) -> Nanos {
        let exp = self
            .base_backoff
            .as_ns()
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff.as_ns());
        if self.jitter <= 0.0 {
            return Nanos::from_ns(exp);
        }
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.gen::<f64>();
        Nanos::from_ns((exp as f64 * factor) as u64)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::InvalidConfig`] on zero attempts or a jitter
    /// fraction outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(KonaError::InvalidConfig(
                "retry max_attempts must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(KonaError::InvalidConfig(format!(
                "retry jitter {} outside [0, 1]",
                self.jitter
            )));
        }
        if self.base_backoff > self.max_backoff {
            return Err(KonaError::InvalidConfig(format!(
                "retry base backoff {} exceeds max backoff {}",
                self.base_backoff, self.max_backoff
            )));
        }
        Ok(())
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Nanos::micros(10),
            max_backoff: Nanos::micros(200),
            jitter: 0.25,
            seed: 0x5EED_CAFE,
            verb_deadline: Nanos::micros(30),
        }
    }
}

/// Degraded-mode configuration: when a node flaps, the runtime sheds
/// prefetching (don't waste fetches that may fail) and widens eviction
/// batching (combine every node's log flush into one chained post) until
/// the fabric has been quiet for a cooloff period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedConfig {
    /// Master switch.
    pub enabled: bool,
    /// Transient failures within [`DegradedConfig::window`] that trigger
    /// degraded mode.
    pub failure_threshold: u32,
    /// Sliding window over which failures are counted (simulated time).
    pub window: Nanos,
    /// How long after the last failure the runtime stays degraded.
    pub cooloff: Nanos,
}

impl DegradedConfig {
    /// Degraded mode disabled entirely.
    pub fn disabled() -> Self {
        DegradedConfig {
            enabled: false,
            ..DegradedConfig::default()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::InvalidConfig`] on a zero threshold or window.
    pub fn validate(&self) -> Result<()> {
        if self.failure_threshold == 0 {
            return Err(KonaError::InvalidConfig(
                "degraded failure_threshold must be at least 1".into(),
            ));
        }
        if self.window == Nanos::ZERO {
            return Err(KonaError::InvalidConfig(
                "degraded window must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            enabled: true,
            failure_threshold: 3,
            window: Nanos::millis(1),
            cooloff: Nanos::millis(2),
        }
    }
}

/// Configuration of a simulated rack: one compute node plus memory nodes.
///
/// # Examples
///
/// ```
/// # use kona::ClusterConfig;
/// let cfg = ClusterConfig::small();
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of memory nodes.
    pub memory_nodes: u32,
    /// Capacity of each memory node in bytes.
    pub node_capacity: ByteSize,
    /// Slab size for coarse-grain controller allocations.
    pub slab_size: ByteSize,
    /// Local DRAM cache capacity in pages (FMem for Kona, the page cache
    /// for VM baselines).
    pub local_cache_pages: usize,
    /// FMem associativity (Kona only; §4.4 uses 4).
    pub fmem_ways: usize,
    /// Replication factor for evicted data (§4.5); 1 = no replication.
    pub replicas: usize,
    /// CPU cache capacity in lines, as seen by the coherence directory.
    pub cpu_cache_lines: usize,
    /// Number of CPU cores (coherence agents) the FPGA's directory
    /// observes; cores share VFMem coherently.
    pub cpu_agents: usize,
    /// Prefetcher for Kona's FPGA.
    pub prefetcher: NextPagePrefetcher,
    /// Latency profile.
    pub latency: LatencyProfile,
    /// Data fidelity mode.
    pub data_mode: DataMode,
    /// Ring-buffer capacity of each node's cache-line log, in bytes.
    pub log_capacity: ByteSize,
    /// Retry/backoff policy on the remote fetch and eviction paths.
    pub retry: RetryPolicy,
    /// Degraded-mode triggers (§4.5 recovery under flapping nodes).
    pub degraded: DegradedConfig,
    /// Optional fault plan installed into the fabric at construction
    /// (chaos testing; `None` = healthy network).
    pub fault_plan: Option<FaultPlan>,
    /// Slab placement policy run by the rack controller.
    pub placement: PlacementKind,
}

impl ClusterConfig {
    /// A laptop-scale cluster for tests and examples: two 32 MiB memory
    /// nodes, 1 MiB slabs, a 1024-page (4 MiB) local cache.
    pub fn small() -> Self {
        ClusterConfig {
            memory_nodes: 2,
            node_capacity: ByteSize::mib(32),
            slab_size: ByteSize::mib(1),
            local_cache_pages: 1024,
            fmem_ways: 4,
            replicas: 1,
            cpu_cache_lines: 8192,
            cpu_agents: 1,
            prefetcher: NextPagePrefetcher::disabled(),
            latency: LatencyProfile::default(),
            data_mode: DataMode::Tracked,
            log_capacity: ByteSize::kib(64),
            retry: RetryPolicy::default(),
            degraded: DegradedConfig::default(),
            fault_plan: None,
            placement: PlacementKind::RoundRobin,
        }
    }

    /// Returns the configuration with a different local cache size.
    #[must_use]
    pub fn with_local_cache_pages(mut self, pages: usize) -> Self {
        self.local_cache_pages = pages;
        self
    }

    /// Returns the configuration with a different replication factor.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Returns the configuration in timing-only mode.
    #[must_use]
    pub fn timing_only(mut self) -> Self {
        self.data_mode = DataMode::Timing;
        self
    }

    /// Returns the configuration with the given prefetcher.
    #[must_use]
    pub fn with_prefetcher(mut self, prefetcher: NextPagePrefetcher) -> Self {
        self.prefetcher = prefetcher;
        self
    }

    /// Returns the configuration with `cores` CPU coherence agents.
    #[must_use]
    pub fn with_cpu_agents(mut self, cores: usize) -> Self {
        self.cpu_agents = cores;
        self
    }

    /// Returns the configuration with the given retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns the configuration with the given degraded-mode triggers.
    #[must_use]
    pub fn with_degraded(mut self, degraded: DegradedConfig) -> Self {
        self.degraded = degraded;
        self
    }

    /// Returns the configuration with `plan` installed into the fabric at
    /// construction (deterministic chaos testing).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Returns the configuration with the given slab placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }

    /// Carves out shard `shard`'s slice of a `logical`-way decomposition:
    /// the local cache, CPU cache and node capacity are divided `logical`
    /// ways (respecting FMem-way and slab-size granularity), and the retry
    /// seed and any fault plan are reseeded with
    /// [`derive_shard_seed`](kona_types::derive_shard_seed) so each shard
    /// runs a decorrelated but fully deterministic stream. Slicing the
    /// *same* config for the *same* `(shard, logical)` always yields the
    /// same slice, independent of worker count.
    #[must_use]
    pub fn shard_slice(&self, shard: u32, logical: u32) -> Self {
        let logical = logical.max(1) as usize;
        let mut slice = self.clone();
        slice.local_cache_pages =
            (self.local_cache_pages / logical / self.fmem_ways).max(1) * self.fmem_ways;
        slice.cpu_cache_lines = (self.cpu_cache_lines / logical).max(1);
        let slab = self.slab_size.bytes();
        slice.node_capacity =
            ByteSize(((self.node_capacity.bytes() / logical as u64) / slab).max(1) * slab);
        slice.retry.seed = kona_types::derive_shard_seed(self.retry.seed, shard);
        slice.fault_plan = self.fault_plan.clone().map(|plan| plan.for_shard(shard));
        slice
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::InvalidConfig`] when sizes are zero, the slab
    /// size is not page-aligned or exceeds the node capacity, the replica
    /// count is zero or exceeds the node count, the local cache is not
    /// divisible into FMem sets, or `cpu_agents` exceeds the coherence
    /// directory's sharer mask ([`kona_coherence::MAX_AGENTS`]).
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(KonaError::InvalidConfig(msg));
        if self.memory_nodes == 0 {
            return fail("at least one memory node required".into());
        }
        if self.slab_size.bytes() == 0 || !self.slab_size.bytes().is_multiple_of(PAGE_SIZE_4K) {
            return fail(format!(
                "slab size {} must be a non-zero multiple of 4 KiB",
                self.slab_size
            ));
        }
        if self.slab_size > self.node_capacity {
            return fail("slab larger than node capacity".into());
        }
        if self.replicas == 0 || self.replicas > self.memory_nodes as usize {
            return fail(format!(
                "replicas {} must be in 1..={}",
                self.replicas, self.memory_nodes
            ));
        }
        if self.fmem_ways == 0
            || (self.local_cache_pages > 0 && !self.local_cache_pages.is_multiple_of(self.fmem_ways))
        {
            return fail(format!(
                "local cache pages {} not divisible into {}-way sets",
                self.local_cache_pages, self.fmem_ways
            ));
        }
        if self.cpu_cache_lines == 0 {
            return fail("cpu cache must hold at least one line".into());
        }
        if self.cpu_agents == 0 {
            return fail("at least one CPU agent required".into());
        }
        if self.cpu_agents > kona_coherence::MAX_AGENTS {
            return fail(format!(
                "cpu_agents {} exceeds the coherence directory's limit of {}",
                self.cpu_agents,
                kona_coherence::MAX_AGENTS
            ));
        }
        if self.log_capacity.bytes() < 1024 {
            return fail("cache-line log must be at least 1 KiB".into());
        }
        self.retry.validate()?;
        self.degraded.validate()?;
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_is_valid() {
        assert!(ClusterConfig::small().validate().is_ok());
    }

    #[test]
    fn invalid_configs_detected() {
        let mut c = ClusterConfig::small();
        c.memory_nodes = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::small();
        c.slab_size = ByteSize(1000);
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::small();
        c.replicas = 5;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::small();
        c.local_cache_pages = 7;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::small();
        c.log_capacity = ByteSize(100);
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders() {
        let c = ClusterConfig::small()
            .with_local_cache_pages(64)
            .with_replicas(2)
            .timing_only();
        assert_eq!(c.local_cache_pages, 64);
        assert_eq!(c.replicas, 2);
        assert_eq!(c.data_mode, DataMode::Timing);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn retry_policy_validation_and_backoff() {
        let p = RetryPolicy::default();
        assert!(p.validate().is_ok());
        assert!(RetryPolicy {
            max_attempts: 0,
            ..p.clone()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            jitter: 1.5,
            ..p.clone()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            base_backoff: Nanos::millis(1),
            max_backoff: Nanos::micros(1),
            ..p.clone()
        }
        .validate()
        .is_err());
        // Backoff grows exponentially, stays within jitter bounds, and is
        // capped.
        let mut rng = StdRng::seed_from_u64(1);
        let b0 = p.backoff_for(0, &mut rng).as_ns() as f64;
        let base = p.base_backoff.as_ns() as f64;
        assert!(b0 >= base * (1.0 - p.jitter) - 1.0 && b0 <= base * (1.0 + p.jitter) + 1.0);
        let b_large = p.backoff_for(30, &mut rng);
        assert!(b_large <= Nanos::from_ns((p.max_backoff.as_ns() as f64 * 1.26) as u64));
        // Deterministic for a fixed rng stream.
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(p.backoff_for(2, &mut r1), p.backoff_for(2, &mut r2));
        // No-jitter policies are exact.
        let exact = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(exact.backoff_for(1, &mut rng), Nanos::micros(20));
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn degraded_config_validation() {
        assert!(DegradedConfig::default().validate().is_ok());
        assert!(!DegradedConfig::disabled().enabled);
        let mut d = DegradedConfig::default();
        d.failure_threshold = 0;
        assert!(d.validate().is_err());
        let mut d = DegradedConfig::default();
        d.window = Nanos::ZERO;
        assert!(d.validate().is_err());
    }

    #[test]
    fn fault_plan_validated_through_cluster_config() {
        use kona_net::FaultPlan;
        let good = ClusterConfig::small().with_fault_plan(FaultPlan::calm(1));
        assert!(good.validate().is_ok());
        let bad =
            ClusterConfig::small().with_fault_plan(FaultPlan::calm(1).with_drop_prob(2.0));
        assert!(bad.validate().is_err());
        let bad_retry = ClusterConfig::small().with_retry(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        });
        assert!(bad_retry.validate().is_err());
    }

    #[test]
    fn placement_kind_parses_and_builds() {
        assert_eq!("round-robin".parse(), Ok(PlacementKind::RoundRobin));
        assert_eq!("capacity".parse(), Ok(PlacementKind::CapacityWeighted));
        assert_eq!("p2c".parse(), Ok(PlacementKind::PowerOfTwoChoices));
        assert!("zeal".parse::<PlacementKind>().is_err());
        for kind in [
            PlacementKind::RoundRobin,
            PlacementKind::CapacityWeighted,
            PlacementKind::PowerOfTwoChoices,
        ] {
            let policy = kind.build(7);
            assert!(!policy.name().is_empty());
        }
        let c = ClusterConfig::small().with_placement(PlacementKind::CapacityWeighted);
        assert_eq!(c.placement, PlacementKind::CapacityWeighted);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn latency_defaults_ordered() {
        let l = LatencyProfile::default();
        assert!(l.cpu_cache_hit < l.cmem);
        assert!(l.cmem < l.fmem_fill);
    }
}
