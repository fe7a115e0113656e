//! KCacheSim: the average-memory-access-time simulator (§5, §6.2).
//!
//! "KCacheSim uses an existing cache simulator (Cachegrind) to determine
//! the cache miss rates for each application from each level of the cache.
//! Based on the cache miss rates, KCacheSim computes the AMAT. For Kona,
//! we model the DRAM cache (FMem) as another level in the cache hierarchy,
//! with a 4KB block size. For the baselines, we use main memory (CMem)
//! instead of FMem."
//!
//! Our Cachegrind stand-in is `kona-cache-sim`; this crate adds the
//! per-system latency models ([`SystemModel`]) and the sweeps behind the
//! paper's Fig 8 panels ([`sweep_cache_size`], [`sweep_block_size`],
//! [`sweep_associativity`]).
//!
//! Remote latencies come from the paper's measurements: Kona at the raw
//! 3 µs RDMA page fetch (no page fault), LegoOS at 10 µs and Infiniswap at
//! 40 µs (fault + software stack included). `Kona-main` is the hypothetical
//! variant caching in CMem rather than FMem (no NUMA penalty).
//!
//! # Examples
//!
//! ```
//! use kona_kcachesim::{simulate, SystemModel};
//! use kona_workloads::{RedisWorkload, Workload, WorkloadProfile};
//!
//! let profile = WorkloadProfile::default().with_windows(1).with_ops_per_window(500);
//! let trace = RedisWorkload::rand().with_profile(profile).generate(1);
//! let result = simulate(&trace, &SystemModel::kona(), 0.5, 4096, 4);
//! assert!(result.amat_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod sweep;

pub use model::{simulate, AmatResult, SystemModel};
pub use sweep::{
    sweep_associativity, sweep_associativity_jobs, sweep_block_size, sweep_block_size_jobs,
    sweep_cache_size, sweep_cache_size_jobs, SweepPoint,
};
