//! Shard decomposition of one run's page space.
//!
//! A [`ShardPlan`] deterministically partitions the page space into a
//! **fixed number of logical shards**. The decomposition is part of the
//! *model* — it decides which pages share an eviction handler, a
//! coherence-directory partition, an FMem slice and an RNG stream — so it
//! never changes with the machine. Logical shards are independent, so the
//! number of worker threads that execute them (a [`Jobs`](crate::Jobs))
//! never changes the per-shard histories, and an input-order merge makes
//! the combined output byte-identical at every worker count.
//!
//! Cross-shard result streams (shipment journals, trace spans) are
//! recombined by [`sequence_streams`]: a stable k-way merge by simulated
//! time with ties broken by shard id, so the merged history is a total
//! order that does not depend on scheduling.
//!
//! # Examples
//!
//! ```
//! use kona_types::{sequence_streams, Nanos, ShardPlan};
//!
//! let plan = ShardPlan::new(4);
//! assert_eq!(plan.shard_of_page(9), 1);
//! assert_eq!(plan.local_index(9), 2); // third page owned by shard 1
//!
//! let merged = sequence_streams(vec![
//!     vec![(Nanos::from_ns(5), "a1"), (Nanos::from_ns(9), "a2")],
//!     vec![(Nanos::from_ns(5), "b1")],
//! ]);
//! // Equal times break ties by shard id; within-shard order is kept.
//! assert_eq!(merged, vec![
//!     (Nanos::from_ns(5), 0, "a1"),
//!     (Nanos::from_ns(5), 1, "b1"),
//!     (Nanos::from_ns(9), 0, "a2"),
//! ]);
//! ```

use crate::par::Jobs;
use crate::time::Nanos;

/// Default logical shard count used by the sharded engine when the caller
/// does not pick one. Eight keeps per-shard cache slices comfortably
/// above one FMem set for the stock configs.
pub const DEFAULT_LOGICAL_SHARDS: u32 = 8;

/// Derives a per-shard seed from a base seed: splitmix64 of the base
/// xored with the shard id, so shard streams are decorrelated but fully
/// determined by `(base, shard)` — independent of worker count.
pub fn derive_shard_seed(base: u64, shard: u32) -> u64 {
    let mut z = base ^ (u64::from(shard) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed logical partitioning of the page space.
///
/// Pages are striped round-robin: page `p` belongs to shard
/// `p % logical`, and is the `p / logical`-th page owned by that shard.
/// Striping (rather than contiguous ranges) balances any workload whose
/// footprint is smaller than the allocation, and makes the owner of a
/// page computable without a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    logical: u32,
}

impl ShardPlan {
    /// A plan with `logical` shards (0 is clamped to 1).
    pub fn new(logical: u32) -> Self {
        ShardPlan {
            logical: logical.max(1),
        }
    }

    /// The number of logical shards.
    pub fn logical(self) -> u32 {
        self.logical
    }

    /// The shard that owns `page`.
    pub fn shard_of_page(self, page: u64) -> u32 {
        (page % u64::from(self.logical)) as u32
    }

    /// The position of `page` within its owner's page space.
    pub fn local_index(self, page: u64) -> u64 {
        page / u64::from(self.logical)
    }

    /// How many of the first `total_pages` pages shard `shard` owns.
    pub fn pages_owned(self, shard: u32, total_pages: u64) -> u64 {
        let logical = u64::from(self.logical);
        let base = total_pages / logical;
        let rem = total_pages % logical;
        base + u64::from(u64::from(shard) < rem)
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan::new(DEFAULT_LOGICAL_SHARDS)
    }
}

impl std::fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} logical shards (page % {})", self.logical, self.logical)
    }
}

/// The old name of the sharded engine's worker count, kept only because
/// the benchmark package spells it this way; use [`Jobs`] everywhere else.
pub type Shards = Jobs;

/// Deterministically sequences per-shard `(time, item)` streams into one
/// total order: ascending simulated time, ties broken by shard id, and
/// within one shard the original stream order is preserved (streams are
/// produced by a single simulated clock, so they are nondecreasing; the
/// merge is stable either way).
///
/// This is the cross-shard sequencing layer: shipment journals, trace
/// spans and cluster ticks from independent shards recombine through it,
/// so the merged history never depends on which worker thread finished
/// first.
pub fn sequence_streams<T>(streams: Vec<Vec<(Nanos, T)>>) -> Vec<(Nanos, u32, T)> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut tagged: Vec<(Nanos, u32, usize, T)> = Vec::with_capacity(total);
    for (shard, stream) in streams.into_iter().enumerate() {
        for (pos, (at, item)) in stream.into_iter().enumerate() {
            tagged.push((at, shard as u32, pos, item));
        }
    }
    // Sort key (time, shard, position-within-shard) is unique per item,
    // so the order is total and independent of the input's interleaving.
    tagged.sort_by_key(|&(at, shard, pos, _)| (at, shard, pos));
    tagged
        .into_iter()
        .map(|(at, shard, _, item)| (at, shard, item))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stripes_pages() {
        let plan = ShardPlan::new(4);
        assert_eq!(plan.logical(), 4);
        for page in 0..32u64 {
            assert_eq!(u64::from(plan.shard_of_page(page)), page % 4);
            assert_eq!(plan.local_index(page), page / 4);
        }
        // 10 pages over 4 shards: shards 0 and 1 own 3, shards 2 and 3 own 2.
        assert_eq!(plan.pages_owned(0, 10), 3);
        assert_eq!(plan.pages_owned(1, 10), 3);
        assert_eq!(plan.pages_owned(2, 10), 2);
        assert_eq!(plan.pages_owned(3, 10), 2);
        let total: u64 = (0..4).map(|s| plan.pages_owned(s, 10)).sum();
        assert_eq!(total, 10);
        assert_eq!(ShardPlan::new(0).logical(), 1);
        assert_eq!(ShardPlan::default().logical(), DEFAULT_LOGICAL_SHARDS);
        assert!(format!("{}", ShardPlan::new(4)).contains("4 logical"));
    }

    #[test]
    fn seeds_are_distinct_and_stable() {
        let a = derive_shard_seed(42, 0);
        let b = derive_shard_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_shard_seed(42, 0), "derivation is pure");
        assert_ne!(derive_shard_seed(43, 0), a, "base seed steers streams");
    }

    #[test]
    fn sequencing_orders_by_time_then_shard() {
        let merged = sequence_streams(vec![
            vec![(Nanos::from_ns(10), 'a'), (Nanos::from_ns(30), 'b')],
            vec![(Nanos::from_ns(10), 'c'), (Nanos::from_ns(20), 'd')],
            vec![],
        ]);
        assert_eq!(
            merged,
            vec![
                (Nanos::from_ns(10), 0, 'a'),
                (Nanos::from_ns(10), 1, 'c'),
                (Nanos::from_ns(20), 1, 'd'),
                (Nanos::from_ns(30), 0, 'b'),
            ]
        );
    }

    #[test]
    fn sequencing_empty_is_empty() {
        let merged: Vec<(Nanos, u32, u8)> = sequence_streams(vec![]);
        assert!(merged.is_empty());
    }
}
