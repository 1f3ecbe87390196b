//! Condition variables under ResPCT (paper §3.3.3, Fig. 7).
//!
//! A thread blocked in `cond_wait` cannot reach a restart point, so it must
//! *allow* checkpoints while it waits and *prevent* them again before it
//! resumes — otherwise the checkpoint deadlocks with the waiter. [`RCondvar`]
//! packages the paper's protocol:
//!
//! ```text
//! RP();                       // restart at the critical-section entrance
//! lock(mutex);
//! while !condition {
//!     allow = allow_checkpoints();
//!     cond_wait(cv, mutex);
//!     allow.rearm_locked(mutex);   // may release/re-acquire the lock
//! }
//! ...
//! unlock(mutex);
//! ```
//!
//! The caller is responsible for the two paper rules: an `rp()` immediately
//! before taking the lock, and no persistent stores between lock acquisition
//! and the wait call.

use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::thread::ThreadHandle;

/// A checkpoint-aware condition variable.
#[derive(Default)]
pub struct RCondvar {
    cv: Condvar,
}

impl RCondvar {
    /// Creates a new condition variable.
    pub fn new() -> RCondvar {
        RCondvar { cv: Condvar::new() }
    }

    /// Waits on the condition variable, allowing checkpoints to complete
    /// while blocked. Returns the re-acquired guard.
    pub fn wait<'a, T>(
        &self,
        handle: &mut ThreadHandle,
        mutex: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
    ) -> MutexGuard<'a, T> {
        let allow = handle.allow_checkpoints();
        let guard = self.cv.wait(guard);
        allow.rearm_locked(mutex, guard)
    }

    /// Timed variant of [`RCondvar::wait`]; the boolean reports whether the
    /// wait timed out.
    pub fn wait_for<'a, T>(
        &self,
        handle: &mut ThreadHandle,
        mutex: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let allow = handle.allow_checkpoints();
        let (guard, timed_out) = self.cv.wait_for(guard, timeout);
        (allow.rearm_locked(mutex, guard), timed_out)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.cv.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Pool, PoolConfig};
    use respct_pmem::{Region, RegionConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn checkpoint_completes_while_thread_waits() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let mutex = Arc::new(Mutex::new(false));
        let cv = Arc::new(RCondvar::new());
        let released = Arc::new(AtomicBool::new(false));

        let waiter = {
            let (pool, mutex, cv, released) = (
                Arc::clone(&pool),
                Arc::clone(&mutex),
                Arc::clone(&cv),
                Arc::clone(&released),
            );
            std::thread::spawn(move || {
                let mut h = pool.register();
                h.rp(1);
                let mut guard = mutex.lock();
                while !*guard {
                    guard = cv.wait(&mut h, &mutex, guard);
                }
                released.store(true, Ordering::SeqCst);
            })
        };

        // Give the waiter time to block, then checkpoint: it must complete
        // even though the waiter never reaches another RP.
        std::thread::sleep(Duration::from_millis(30));
        let r = pool.checkpoint_now();
        assert_eq!(r.closed_epoch, 1);

        // Release the waiter.
        {
            let mut guard = mutex.lock();
            *guard = true;
            cv.notify_all();
        }
        waiter.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
    }

    #[test]
    fn waiter_woken_during_checkpoint_waits_for_it() {
        // Wake a waiter while a checkpoint is being held open by a second
        // worker; the waiter must park in checkpoint_prevent and only
        // proceed after the checkpoint finishes.
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let mutex = Arc::new(Mutex::new(false));
        let cv = Arc::new(RCondvar::new());
        let resumed = Arc::new(AtomicBool::new(false));

        // Worker A: never at an RP until we say so — holds the checkpoint open.
        let a_go = Arc::new(AtomicBool::new(false));
        let worker_a = {
            let (pool, a_go) = (Arc::clone(&pool), Arc::clone(&a_go));
            std::thread::spawn(move || {
                let h = pool.register();
                while !a_go.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                h.rp(1);
            })
        };

        // Worker B: waits on the condvar.
        let worker_b = {
            let (pool, mutex, cv, resumed) = (
                Arc::clone(&pool),
                Arc::clone(&mutex),
                Arc::clone(&cv),
                Arc::clone(&resumed),
            );
            std::thread::spawn(move || {
                let mut h = pool.register();
                h.rp(2);
                let mut guard = mutex.lock();
                while !*guard {
                    guard = cv.wait(&mut h, &mutex, guard);
                }
                drop(guard);
                resumed.store(true, Ordering::SeqCst);
            })
        };

        std::thread::sleep(Duration::from_millis(20));
        // Start a checkpoint in the background; it will block on worker A.
        let ck = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.checkpoint_now())
        };
        std::thread::sleep(Duration::from_millis(20));
        // Wake B while the checkpoint is in flight.
        {
            let mut guard = mutex.lock();
            *guard = true;
            cv.notify_all();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !resumed.load(Ordering::SeqCst),
            "B must wait for the ongoing checkpoint"
        );
        // Let A reach its RP; checkpoint completes; B resumes.
        a_go.store(true, Ordering::SeqCst);
        ck.join().unwrap();
        worker_a.join().unwrap();
        worker_b.join().unwrap();
        assert!(resumed.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_for_times_out() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let mutex = Mutex::new(());
        let cv = RCondvar::new();
        let mut h = pool.register();
        let guard = mutex.lock();
        let (_guard, timed_out) = cv.wait_for(&mut h, &mutex, guard, Duration::from_millis(5));
        assert!(timed_out);
    }
}
