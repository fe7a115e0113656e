//! The thread-contention projection `fig7` applies to single-thread runs.

use kona_types::Nanos;

/// Amdahl-style serial-fraction contention model for multi-threaded
/// experiment projections.
///
/// Threads share hardware: Kona's VFMem fills serialize in the FPGA's
/// (soft-logic) directory — the §4.3 overhead the paper expects to shrink
/// once "this logic can be hardened" — while a VM baseline's fault handlers
/// serialize on kernel locks but overlap their long network round-trips.
/// A run's wall clock scales by `1 + serial_frac × (threads − 1)`.
///
/// # Examples
///
/// ```
/// use kona_bench::ContentionModel;
/// use kona_types::Nanos;
///
/// let m = ContentionModel::KONA;
/// assert_eq!(m.contended(Nanos::from_ns(1000), 1), Nanos::from_ns(1000));
/// assert!(m.contended(Nanos::from_ns(1000), 4) > Nanos::from_ns(1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Fraction of a thread's work serialized against its peers.
    pub serial_frac: f64,
}

impl ContentionModel {
    /// Kona's VFMem-directory serialization (calibrated so the paper's
    /// 6.6X single-thread advantage eases to 4-5X at four threads).
    pub const KONA: ContentionModel = ContentionModel { serial_frac: 0.35 };

    /// The VM baselines' kernel-lock serialization (fault handlers overlap
    /// their long network round-trips, so the serial share is smaller).
    pub const VM: ContentionModel = ContentionModel { serial_frac: 0.20 };

    /// A custom serial fraction in `[0, 1]`.
    pub fn new(serial_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&serial_frac), "fraction out of range");
        ContentionModel { serial_frac }
    }

    /// Projects a single-thread wall time onto `threads` contending
    /// threads.
    pub fn contended(self, wall: Nanos, threads: u64) -> Nanos {
        let factor = 1.0 + self.serial_frac * (threads as f64 - 1.0);
        Nanos::from_ns_f64(wall.as_ns() as f64 * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_model() {
        let m = ContentionModel::new(0.5);
        assert_eq!(m.contended(Nanos::from_ns(100), 1), Nanos::from_ns(100));
        assert_eq!(m.contended(Nanos::from_ns(100), 3), Nanos::from_ns(200));
        assert!(ContentionModel::KONA.serial_frac > ContentionModel::VM.serial_frac);
    }

    #[test]
    #[should_panic]
    fn contention_fraction_out_of_range() {
        ContentionModel::new(1.5);
    }
}
