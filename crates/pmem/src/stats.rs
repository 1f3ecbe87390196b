//! Instruction and event counters for overhead analysis (paper Fig. 10).

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated by a [`Region`](crate::Region) and its simulator.
///
/// All counters use relaxed atomics: they are diagnostics, not
/// synchronization. `pwb`/`psync` are always counted (they are rare and are
/// the quantities the paper's overhead analysis reasons about); store/load
/// counting is only exact in sim mode where every access is interposed.
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Cache-line write-backs issued (`clwb`).
    pub pwb: AtomicU64,
    /// Persist fences issued (`sfence`).
    pub psync: AtomicU64,
    /// Persistent stores observed (sim mode).
    pub stores: AtomicU64,
    /// Random evictions performed by the simulator.
    pub evictions: AtomicU64,
}

impl PmemStats {
    /// Snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            pwb: self.pwb.load(Ordering::Relaxed),
            psync: self.psync.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.pwb.store(0, Ordering::Relaxed);
        self.psync.store(0, Ordering::Relaxed);
        self.stores.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_pwbs(&self, n: u64) {
        self.pwb.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_psync(&self) {
        self.psync.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_store(&self) {
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`PmemStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub pwb: u64,
    pub psync: u64,
    pub stores: u64,
    pub evictions: u64,
}

impl StatsSnapshot {
    /// Component-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            pwb: self.pwb.saturating_sub(earlier.pwb),
            psync: self.psync.saturating_sub(earlier.psync),
            stores: self.stores.saturating_sub(earlier.stores),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let s = PmemStats::default();
        s.count_pwbs(1);
        s.count_pwbs(1);
        s.count_psync();
        s.count_store();
        s.count_eviction();
        let snap = s.snapshot();
        assert_eq!(snap.pwb, 2);
        assert_eq!(snap.psync, 1);
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.evictions, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_saturates() {
        let a = StatsSnapshot {
            pwb: 5,
            psync: 1,
            stores: 0,
            evictions: 0,
        };
        let b = StatsSnapshot {
            pwb: 2,
            psync: 3,
            stores: 0,
            evictions: 0,
        };
        let d = a.since(&b);
        assert_eq!(d.pwb, 3);
        assert_eq!(d.psync, 0);
    }
}
