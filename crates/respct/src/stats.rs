//! Checkpoint statistics (feeds Fig. 10/11 and the effective-period study).
//!
//! The per-checkpoint counters live in
//! [`RuntimeMetrics`](crate::metrics::RuntimeMetrics) as phase histograms;
//! [`CkptSnapshot`] is the aggregate view
//! [`RuntimeMetrics::ckpt_snapshot`](crate::metrics::RuntimeMetrics::ckpt_snapshot)
//! reconstructs from them (exactly — histogram counts and sums are exact).

use std::time::Duration;

/// Aggregate counters over all checkpoints of a pool, as of one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptSnapshot {
    pub count: u64,
    pub lines_flushed: u64,
    pub wait_ns: u64,
    pub partition_ns: u64,
    pub flush_ns: u64,
    /// Cumulative stop-the-world time: `timer` raised → `timer` released,
    /// at every depth. Covers the flush at depth 0; ends at the ring-slot
    /// claim at depth ≥ 1.
    pub stw_ns: u64,
    /// Cumulative background-drain time (depth ≥ 1; 0 at depth 0).
    pub drain_ns: u64,
    pub total_ns: u64,
}

impl CkptSnapshot {
    /// Mean lines flushed per checkpoint.
    pub fn mean_lines(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.lines_flushed as f64 / self.count as f64
        }
    }

    /// Mean checkpoint duration.
    pub fn mean_duration(&self) -> Duration {
        self.total_ns
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Mean flush-phase duration per checkpoint.
    pub fn mean_flush(&self) -> Duration {
        self.flush_ns
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Mean gather/partition duration per checkpoint.
    pub fn mean_partition(&self) -> Duration {
        self.partition_ns
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_divide_by_count() {
        let snap = CkptSnapshot {
            count: 2,
            lines_flushed: 400,
            partition_ns: 10_000,
            flush_ns: 40_000,
            total_ns: 100_000,
            ..CkptSnapshot::default()
        };
        assert_eq!(snap.mean_lines(), 200.0);
        assert_eq!(snap.mean_duration(), Duration::from_micros(50));
        assert_eq!(snap.mean_flush(), Duration::from_micros(20));
        assert_eq!(snap.mean_partition(), Duration::from_micros(5));
    }

    #[test]
    fn empty_means_are_zero() {
        let snap = CkptSnapshot::default();
        assert_eq!(snap.mean_lines(), 0.0);
        assert_eq!(snap.mean_duration(), Duration::ZERO);
    }
}
