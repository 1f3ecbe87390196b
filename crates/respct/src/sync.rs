//! Trace-visible synchronization primitives.
//!
//! The trace checker's happens-before rules (`respct-analysis`) rebuild the
//! program's synchronization order from [`SyncRel`]/[`SyncAcq`] events in
//! the region trace. Runtime-internal synchronization (quiescence flags,
//! the checkpoint timer, the drain handshake, flusher acknowledgements)
//! emits those edges directly — but the locks *applications and data
//! structures* use to order their pool stores are ordinary mutexes the
//! region never sees. [`TracedMutex`] is the bridge, and the only lock that
//! publishes happens-before edges: the workspace's poison-free mutex
//! (`parking_lot::Mutex`), reporting its acquire/release pairs to the trace
//! sink of the pool it is locked against, so a store protected by it is
//! provably ordered and not a persist race. The runtime's own pool-ordering
//! locks — the checkpoint lock and the free-list class locks — are
//! `TracedMutex`es too.
//!
//! The lock holds no pool of its own — it is exactly as large as the
//! mutex it wraps, which matters for a structure with a lock per bucket.
//! The caller names the pool at each [`TracedMutex::lock`]:
//!
//! ```
//! use respct::{Pool, PoolConfig, Region, RegionConfig, TracedMutex};
//!
//! let pool = Pool::create(Region::new(RegionConfig::fast(1 << 20)), PoolConfig::default())?;
//! let lock = TracedMutex::new(0u64);
//! *lock.lock(&pool) += 1;
//! assert_eq!(*lock.lock(&pool), 1);
//! # Ok::<(), respct::PoolError>(())
//! ```
//!
//! Emission is zero-cost when the pool's region has no sink attached.
//!
//! [`SyncRel`]: respct_pmem::TraceEvent::SyncRel
//! [`SyncAcq`]: respct_pmem::TraceEvent::SyncAcq

use std::ops::{Deref, DerefMut};

use parking_lot::{Mutex, MutexGuard};

use respct_pmem::SyncToken;

use crate::pool::Pool;

/// A mutex whose acquire/release edges are visible in the region trace.
///
/// Use it (instead of a plain `parking_lot::Mutex`) for any lock that
/// guards stores to pool memory: the trace checker treats unsynchronized
/// cross-thread stores to the same InCLL-bearing cache line within one
/// epoch as a persist race, and only traced edges count as
/// synchronization. Lock it against the pool whose memory it guards.
pub struct TracedMutex<T> {
    inner: Mutex<T>,
}

impl<T> TracedMutex<T> {
    /// Wraps `value` in a traced mutex.
    pub const fn new(value: T) -> TracedMutex<T> {
        TracedMutex {
            inner: Mutex::new(value),
        }
    }

    /// The happens-before token identifying this lock in the trace. Stable
    /// once the `TracedMutex` has its final address (lock creation is
    /// expected to finish before the structure is shared across threads —
    /// the same precondition any `&self`-based sharing already has).
    fn token(&self) -> SyncToken {
        SyncToken::Lock {
            id: &self.inner as *const Mutex<T> as u64,
        }
    }

    /// Acquires the lock, reporting the acquire edge to `pool`'s trace
    /// after the lock is held. The returned guard reports the release edge
    /// to the same pool just before unlocking.
    pub fn lock<'a>(&'a self, pool: &'a Pool) -> TracedGuard<'a, T> {
        let guard = self.inner.lock();
        pool.region().sync_acquire(self.token());
        TracedGuard {
            lock: self,
            pool,
            guard,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TracedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for [`TracedMutex::lock`].
#[must_use = "releasing the guard immediately defeats the lock"]
pub struct TracedGuard<'a, T> {
    lock: &'a TracedMutex<T>,
    /// Where the release edge (and the `DropSyncEdge` fault) goes.
    pool: &'a Pool,
    /// Unlocks when the fields drop, after `drop` has reported the release
    /// edge.
    guard: MutexGuard<'a, T>,
}

impl<T> Deref for TracedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TracedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TracedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "fault-inject")]
        let dropped = self.pool.take_fault(crate::pool::Fault::DropSyncEdge(
            crate::pool::SyncEdgeSite::LockRelease,
        ));
        #[cfg(not(feature = "fault-inject"))]
        let dropped = false;
        if !dropped {
            self.pool.region().sync_release(self.lock.token());
        }
    }
}
