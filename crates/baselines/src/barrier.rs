//! Epoch machinery shared by the epoch-based baselines (PMThreads, Montage,
//! Dalí). Their periodic epoch advance runs on `respct`'s one timer loop
//! ([`respct::CheckpointerGuard::every`]); this module holds the rest.
//!
//! * [`EpochBarrier`] — the checkpointing thread must observe a state where
//!   no operation is mid-flight before it copies/flushes epoch data.
//!   Operations bracket themselves with
//!   [`EpochBarrier::op_begin`]/[`EpochBarrier::op_end`] (cheap flag
//!   flips); the checkpointer calls [`EpochBarrier::quiesce`] to stop new
//!   operations and wait out in-flight ones. This mirrors PMThreads'
//!   "checkpoint at the end of any critical section" rule.
//! * [`PersistentEpoch`] — Montage's and Dalí's epoch counter: a volatile
//!   clock mirrored into one NVMM word, advanced by one fixed
//!   fence/store/write-back/fence sequence. PMThreads has no counter.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use respct_pmem::{PAddr, Region};

use crate::nvheap::{NvCtx, NvHeap};

/// Maximum registered operators.
pub const MAX_OPS: usize = 128;

/// The barrier. See the module docs.
pub struct EpochBarrier {
    pause: AtomicBool,
    in_op: Box<[CachePadded<AtomicBool>]>,
    free: Mutex<Vec<usize>>,
}

impl Default for EpochBarrier {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochBarrier {
    /// Creates a barrier.
    pub fn new() -> EpochBarrier {
        EpochBarrier {
            pause: AtomicBool::new(false),
            in_op: (0..MAX_OPS)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            free: Mutex::new((0..MAX_OPS).rev().collect()),
        }
    }

    /// Registers an operator; returns its slot.
    ///
    /// # Panics
    ///
    /// Panics when all slots are taken.
    pub fn register(&self) -> usize {
        self.free.lock().pop().expect("barrier slots exhausted")
    }

    /// Returns a slot (operator finished).
    pub fn deregister(&self, slot: usize) {
        self.in_op[slot].store(false, Ordering::SeqCst);
        self.free.lock().push(slot);
    }

    /// Marks the start of an operation; blocks while a quiesce is pending.
    #[inline]
    pub fn op_begin(&self, slot: usize) {
        loop {
            while self.pause.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            self.in_op[slot].store(true, Ordering::SeqCst);
            if !self.pause.load(Ordering::SeqCst) {
                return;
            }
            // A quiesce started between the check and the flag set; back off.
            self.in_op[slot].store(false, Ordering::SeqCst);
        }
    }

    /// Marks the end of an operation.
    #[inline]
    pub fn op_end(&self, slot: usize) {
        self.in_op[slot].store(false, Ordering::SeqCst);
    }

    /// Stops new operations, waits for in-flight ones, runs `f`, resumes.
    pub fn quiesce<R>(&self, f: impl FnOnce() -> R) -> R {
        self.pause.store(true, Ordering::SeqCst);
        for flag in &self.in_op {
            let mut spins = 0u32;
            while flag.load(Ordering::SeqCst) {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        let r = f();
        self.pause.store(false, Ordering::SeqCst);
        r
    }
}

/// A persistent epoch counter: the running epoch, and the NVMM word that
/// holds it durably. See the module docs.
pub struct PersistentEpoch {
    epoch: AtomicU64,
    addr: PAddr,
}

impl PersistentEpoch {
    /// Allocates the counter's word (a line of its own) from `heap` through
    /// `boot` and stores epoch 1 there.
    pub fn new(heap: &NvHeap, boot: &mut NvCtx) -> PersistentEpoch {
        let addr = heap.alloc(boot, 64);
        heap.region().store(addr, 1u64);
        PersistentEpoch {
            epoch: AtomicU64::new(1),
            addr,
        }
    }

    /// The running epoch.
    #[inline]
    pub fn get(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Closes the running epoch: fences the epoch's write-backs, then bumps
    /// the counter and persists it (store, write-back, fence).
    pub fn advance(&self, region: &Region) {
        region.psync();
        let e = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        region.store(self.addr, e);
        region.pwb(self.addr);
        region.psync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn register_recycles() {
        let b = EpochBarrier::new();
        let s = b.register();
        b.deregister(s);
        assert_eq!(b.register(), s);
    }

    #[test]
    fn quiesce_excludes_ops() {
        let b = Arc::new(EpochBarrier::new());
        let counter = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (b, counter, stop) = (Arc::clone(&b), Arc::clone(&counter), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let slot = b.register();
                    while !stop.load(Ordering::Relaxed) {
                        b.op_begin(slot);
                        counter.fetch_add(1, Ordering::Relaxed);
                        counter.fetch_sub(1, Ordering::Relaxed);
                        b.op_end(slot);
                    }
                    b.deregister(slot);
                })
            })
            .collect();
        for _ in 0..50 {
            b.quiesce(|| {
                assert_eq!(
                    counter.load(Ordering::SeqCst),
                    0,
                    "op in flight during quiesce"
                );
            });
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }
}
