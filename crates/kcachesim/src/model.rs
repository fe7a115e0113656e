//! Per-system AMAT models.

use kona_cache_sim::{CacheConfig, CacheHierarchy, HierarchyConfig};
use kona_trace::{Trace, TraceEvent};
use kona_types::Nanos;

/// Latency model of one remote-memory system.
///
/// All systems share the Skylake L1/L2/LLC levels; they differ in the
/// DRAM-cache latency (FMem vs CMem) and the remote-access latency
/// (with or without the page-fault software stack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemModel {
    name: &'static str,
    /// Latencies of L1 / L2 / LLC hits.
    cache_latencies: [Nanos; 3],
    /// Latency of a DRAM-cache (4th level) hit.
    dram_latency: Nanos,
    /// Latency of an access that misses everything and goes remote.
    remote_latency: Nanos,
}

impl SystemModel {
    /// Kona: DRAM cache in FMem (NUMA-like penalty), remote access at raw
    /// RDMA cost — no page fault.
    pub fn kona() -> Self {
        SystemModel {
            name: "Kona",
            cache_latencies: [Nanos::from_ns(2), Nanos::from_ns(6), Nanos::from_ns(20)],
            dram_latency: Nanos::from_ns(150),
            remote_latency: Nanos::micros(3),
        }
    }

    /// Kona-main: "a version of Kona where the data is cached in CMem,
    /// thus avoiding the NUMA overheads ... the best performance that Kona
    /// can achieve if it could track CMem" (§6.2).
    pub fn kona_main() -> Self {
        SystemModel {
            dram_latency: Nanos::from_ns(85),
            name: "Kona-main",
            ..Self::kona()
        }
    }

    /// LegoOS: CMem DRAM cache, 10 µs measured remote fetch.
    pub fn legoos() -> Self {
        SystemModel {
            name: "LegoOS",
            cache_latencies: [Nanos::from_ns(2), Nanos::from_ns(6), Nanos::from_ns(20)],
            dram_latency: Nanos::from_ns(85),
            remote_latency: Nanos::micros(10),
        }
    }

    /// Infiniswap: CMem DRAM cache, 40 µs measured remote fetch.
    pub fn infiniswap() -> Self {
        SystemModel {
            name: "Infiniswap",
            remote_latency: Nanos::micros(40),
            ..Self::legoos()
        }
    }

    /// Kona-VM "achieves similar remote access latency with LegoOS,
    /// resulting in similar AMAT" (§6.2).
    pub fn kona_vm() -> Self {
        SystemModel {
            name: "Kona-VM",
            ..Self::legoos()
        }
    }

    /// System name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The remote-access latency constant.
    pub fn remote_latency(&self) -> Nanos {
        self.remote_latency
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct AmatResult {
    /// Average memory access time in nanoseconds.
    pub amat_ns: f64,
    /// Fraction of accesses served at [L1, L2, LLC, DRAM-cache, remote].
    pub fractions: Vec<f64>,
    /// Total line accesses simulated.
    pub accesses: u64,
}

/// Runs `trace` through the system's hierarchy with a DRAM cache sized to
/// `cache_frac` of the trace footprint, with the given DRAM-cache block
/// size and associativity, and returns the AMAT.
///
/// A `cache_frac` of 0 models pure disaggregation (every LLC miss goes
/// remote); 1.0 holds the whole footprint locally.
///
/// # Panics
///
/// Panics if the trace is empty or `block_size` is not a power of two.
pub fn simulate(
    trace: &Trace,
    system: &SystemModel,
    cache_frac: f64,
    block_size: u64,
    ways: usize,
) -> AmatResult {
    assert!(!trace.is_empty(), "cannot simulate an empty trace");
    let capacity = dram_capacity(trace.address_span(), cache_frac, block_size, ways);
    amat_of(&drive(trace.as_slice(), capacity, block_size, ways), system)
}

/// Computes the AMAT of an already-driven hierarchy under a system model.
/// The hierarchy must be the Skylake levels plus one DRAM-cache level.
pub(crate) fn amat_of(hierarchy: &CacheHierarchy, system: &SystemModel) -> AmatResult {
    let fractions = hierarchy.hit_fractions();
    assert_eq!(fractions.len(), 5, "expected 4 levels + memory");
    let latencies = [
        system.cache_latencies[0],
        system.cache_latencies[1],
        system.cache_latencies[2],
        system.dram_latency,
        system.remote_latency,
    ];
    let amat_ns = fractions
        .iter()
        .zip(latencies.iter())
        .map(|(f, l)| f * l.as_ns() as f64)
        .sum();
    AmatResult {
        amat_ns,
        fractions,
        accesses: hierarchy.total_accesses(),
    }
}

/// Rounds a fractional DRAM-cache capacity to a whole number of sets.
pub(crate) fn dram_capacity(footprint: u64, cache_frac: f64, block_size: u64, ways: usize) -> u64 {
    assert!((0.0..=1.0).contains(&cache_frac), "cache_frac in [0,1]");
    let way_bytes = block_size * ways as u64;
    let raw = (footprint as f64 * cache_frac) as u64;
    raw / way_bytes * way_bytes
}

/// Helper shared with sweeps: replay a trace into a fresh hierarchy with
/// the given DRAM-cache geometry.
pub(crate) fn drive(
    events: &[TraceEvent],
    capacity: u64,
    block_size: u64,
    ways: usize,
) -> CacheHierarchy {
    let mut levels = HierarchyConfig::skylake().levels;
    levels.push(
        CacheConfig::new("DRAM-cache", capacity, ways, block_size)
            .expect("capacity rounded to set multiple"),
    );
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig { levels });
    for event in events {
        hierarchy.access_range(event.access);
    }
    hierarchy
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_types::{MemAccess, VirtAddr, PAGE_SIZE_4K};

    fn stream_trace(pages: u64, passes: usize) -> Trace {
        let mut t = Trace::new();
        let mut time = 0u64;
        for _ in 0..passes {
            for p in 0..pages {
                t.push(TraceEvent::new(
                    Nanos::from_ns(time),
                    MemAccess::read(VirtAddr::new(p * PAGE_SIZE_4K), 4096),
                ));
                time += 1;
            }
        }
        t
    }

    #[test]
    fn full_cache_needs_no_remote() {
        let trace = stream_trace(64, 3);
        let r = simulate(&trace, &SystemModel::kona(), 1.0, 4096, 4);
        // After the cold pass, everything hits locally; remote fraction
        // must be small (only cold misses).
        assert!(r.fractions[4] < 0.4, "remote fraction {}", r.fractions[4]);
    }

    #[test]
    fn zero_cache_sends_llc_misses_remote() {
        let trace = stream_trace(64, 2);
        let r = simulate(&trace, &SystemModel::kona(), 0.0, 4096, 4);
        let full = simulate(&trace, &SystemModel::kona(), 1.0, 4096, 4);
        assert!(r.amat_ns > full.amat_ns);
    }

    #[test]
    fn infiniswap_worst_legoos_middle_kona_best() {
        // Random-access trace over 8 MiB with a 25% cache.
        let mut t = Trace::new();
        let mut x = 12345u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (8 << 20);
            t.push(TraceEvent::new(
                Nanos::from_ns(i),
                MemAccess::read(VirtAddr::new(addr), 8),
            ));
        }
        let kona = simulate(&t, &SystemModel::kona(), 0.25, 4096, 4);
        let lego = simulate(&t, &SystemModel::legoos(), 0.25, 4096, 4);
        let inf = simulate(&t, &SystemModel::infiniswap(), 0.25, 4096, 4);
        assert!(kona.amat_ns < lego.amat_ns);
        assert!(lego.amat_ns < inf.amat_ns);
        // Paper: Infiniswap consistently 2.3-3.7X worse than LegoOS.
        assert!(inf.amat_ns / lego.amat_ns > 1.5);
    }

    #[test]
    fn kona_main_beats_kona_when_local_hits_dominate() {
        let trace = stream_trace(32, 8);
        let kona = simulate(&trace, &SystemModel::kona(), 1.0, 4096, 4);
        let main = simulate(&trace, &SystemModel::kona_main(), 1.0, 4096, 4);
        assert!(main.amat_ns <= kona.amat_ns);
    }

    #[test]
    fn fractions_sum_to_one() {
        let trace = stream_trace(16, 2);
        let r = simulate(&trace, &SystemModel::kona(), 0.5, 4096, 4);
        let sum: f64 = r.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(r.accesses, 16 * 2 * 64);
    }

    #[test]
    fn dram_capacity_rounds_to_sets() {
        assert_eq!(dram_capacity(1 << 20, 0.5, 4096, 4), 512 * 1024);
        let c = dram_capacity(100_000, 0.33, 4096, 4);
        assert_eq!(c % (4096 * 4), 0);
        assert_eq!(dram_capacity(1 << 20, 0.0, 4096, 4), 0);
    }

    #[test]
    fn kona_vm_matches_legoos_latency() {
        assert_eq!(
            SystemModel::kona_vm().remote_latency(),
            SystemModel::legoos().remote_latency()
        );
    }

    #[test]
    #[should_panic]
    fn empty_trace_panics() {
        simulate(&Trace::new(), &SystemModel::kona(), 0.5, 4096, 4);
    }
}
