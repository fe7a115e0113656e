//! The measurement loop: fixed work, cut into chunks, timed once per
//! chunk.
//!
//! A run is never time-boxed. `--seconds` only scales the fixed op
//! counts (calibrated so that [`NOMINAL_SECONDS`] of timed passes take
//! about that long on a 2-core box), so two commits always do identical
//! work and a faster commit simply finishes sooner.

use crate::stats;
use std::time::Instant;

/// `run_seconds` in `BENCHMARK.json`: the timed passes of a run at scale
/// 1 take about this long on the 2-core reference box.
pub const NOMINAL_SECONDS: u64 = 5;
/// Rounds per run: each a fresh set-up and one timed pass.
pub const PASSES: usize = 7;
/// Timing samples per pass (one `Instant` read each).
pub const CHUNKS: usize = 256;

/// Multiplier applied to every workload's nominal op count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    num: u64,
    den: u64,
}

impl Scale {
    /// The driver's `--seconds`: nominal size at [`NOMINAL_SECONDS`].
    pub fn from_seconds(seconds: u64) -> Scale {
        Scale {
            num: seconds.max(1),
            den: NOMINAL_SECONDS,
        }
    }

    /// `--quick`: a tenth of the work, every code path.
    pub fn quick() -> Scale {
        Scale { num: 1, den: 10 }
    }

    /// In-package tests: a few hundred ops.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale { num: 1, den: 400 }
    }

    /// `nominal` scaled, never below `floor`.
    pub fn apply(self, nominal: usize, floor: usize) -> usize {
        ((nominal as u64 * self.num / self.den) as usize).max(floor)
    }
}

/// How one pass walks its op list: `reps` traversals, `chunks` timing
/// samples in total (so `chunks / reps` per traversal).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub reps: usize,
    pub chunks: usize,
}

impl Plan {
    /// A plan for `n_ops` ops: at most [`CHUNKS`] samples, at least one
    /// op per chunk, a whole number of chunks per traversal.
    pub fn new(n_ops: usize, reps: usize) -> Plan {
        let reps = reps.max(1);
        let per_rep = (CHUNKS / reps).clamp(1, n_ops.max(1));
        Plan {
            reps,
            chunks: per_rep * reps,
        }
    }

    fn per_rep(self) -> usize {
        self.chunks / self.reps
    }

    /// Op index range of chunk `c` within one traversal of `n_ops` ops.
    pub fn bounds(self, n_ops: usize, c: usize) -> (usize, usize) {
        let per = self.per_rep();
        let c = c % per;
        (c * n_ops / per, (c + 1) * n_ops / per)
    }

    /// Accesses in each chunk of a pass, given per-op access counts.
    pub fn chunk_accesses(self, op_accesses: &[u64]) -> Vec<u64> {
        (0..self.chunks)
            .map(|c| {
                let (lo, hi) = self.bounds(op_accesses.len(), c);
                op_accesses[lo..hi].iter().sum()
            })
            .collect()
    }
}

/// The `Instant` marks of one pass: `marks[c]..marks[c + 1]` is chunk `c`.
#[derive(Debug, Clone)]
pub struct PassTiming {
    pub marks: Vec<Instant>,
}

impl PassTiming {
    pub fn chunk_ns(&self, c: usize) -> f64 {
        (self.marks[c + 1] - self.marks[c]).as_nanos() as f64
    }

    pub fn chunks(&self) -> usize {
        self.marks.len() - 1
    }

    pub fn total_ns(&self) -> f64 {
        (self.marks[self.marks.len() - 1] - self.marks[0]).as_nanos() as f64
    }
}

/// Runs one pass: `f(i, &ops[i])` for every op of every traversal, one
/// clock read per chunk.
pub fn timed_pass<T>(ops: &[T], plan: Plan, mut f: impl FnMut(usize, &T)) -> PassTiming {
    timed_chunks(plan.chunks, |c| {
        let (lo, hi) = plan.bounds(ops.len(), c);
        for (i, op) in ops[lo..hi].iter().enumerate() {
            f(lo + i, op);
        }
    })
}

/// Like [`timed_pass`] for work that is not an op list: `f(c)` does the
/// work of chunk `c`.
pub fn timed_chunks(chunks: usize, mut f: impl FnMut(usize)) -> PassTiming {
    let mut marks = Vec::with_capacity(chunks + 1);
    marks.push(Instant::now());
    for c in 0..chunks {
        f(c);
        marks.push(Instant::now());
    }
    PassTiming { marks }
}

/// The host-time figures of a set of timed passes.
#[derive(Debug, Clone, Default)]
pub struct HostTimes {
    /// Accesses per host second of each pass.
    pub pass_acc_per_s: Vec<f64>,
    /// ns per access of every chunk that spans at least one access.
    pub chunk_ns_per_acc: Vec<f64>,
    /// Each pass's own median of those: the run-to-run yardstick for
    /// `ns_per_acc_p50` (the spread *between* chunks is the workload's
    /// shape, not the measurement's error).
    pub pass_p50: Vec<f64>,
}

impl HostTimes {
    /// Folds one pass in. `chunk_accesses[c]` is the number of accesses
    /// chunk `c` performed.
    pub fn add(&mut self, timing: &PassTiming, chunk_accesses: &[u64]) {
        let accesses: u64 = chunk_accesses.iter().sum();
        self.pass_acc_per_s
            .push(accesses as f64 / (timing.total_ns() / 1e9));
        let first = self.chunk_ns_per_acc.len();
        for (c, &acc) in chunk_accesses.iter().enumerate() {
            if acc > 0 {
                self.chunk_ns_per_acc.push(timing.chunk_ns(c) / acc as f64);
            }
        }
        self.pass_p50
            .push(stats::median(&self.chunk_ns_per_acc[first..]));
    }

    pub fn acc_per_s(&self) -> f64 {
        stats::median(&self.pass_acc_per_s)
    }

    pub fn p50(&self) -> f64 {
        stats::median(&self.chunk_ns_per_acc)
    }

    pub fn p99(&self) -> f64 {
        stats::percentile(&self.chunk_ns_per_acc, 99.0)
    }

    pub fn spread_pct(&self) -> f64 {
        stats::iqr_pct(&self.pass_acc_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_op_exactly_once_per_traversal() {
        for (n, reps) in [(1000, 1), (1000, 4), (7, 1), (300, 2), (256, 1)] {
            let plan = Plan::new(n, reps);
            assert_eq!(plan.chunks % reps, 0);
            let mut seen = vec![0u32; n];
            let timing = timed_pass(&vec![(); n], plan, |i, ()| seen[i] += 1);
            assert_eq!(timing.chunks(), plan.chunks);
            assert!(
                seen.iter().all(|&s| s as usize == reps),
                "n={n} reps={reps}"
            );
        }
    }

    #[test]
    fn chunk_accesses_sum_to_pass_accesses() {
        let per_op: Vec<u64> = (0..1000).map(|i| 1 + i % 3).collect();
        let plan = Plan::new(per_op.len(), 2);
        let chunked = plan.chunk_accesses(&per_op);
        assert_eq!(chunked.len(), plan.chunks);
        assert_eq!(chunked.iter().sum::<u64>(), 2 * per_op.iter().sum::<u64>());
    }

    #[test]
    fn scale_applies_with_floor() {
        assert_eq!(Scale::from_seconds(NOMINAL_SECONDS).apply(1000, 1), 1000);
        assert_eq!(
            Scale::from_seconds(2 * NOMINAL_SECONDS).apply(1000, 1),
            2000
        );
        assert_eq!(Scale::quick().apply(1000, 1), 100);
        assert_eq!(Scale::quick().apply(5, 64), 64);
    }
}
