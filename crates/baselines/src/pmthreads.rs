//! PMThreads (PLDI '20): buffered durable linearizability via versioned
//! shadow copies.
//!
//! PMThreads keeps the working copy of persistent data in DRAM; during an
//! epoch all reads and writes hit DRAM, and every store is *intercepted* to
//! record the dirty page (that interception is the system's tracking cost —
//! the paper's Fig. 8 shows it dominating once the persistent state grows).
//! At the end of each epoch a quiescent point is reached and the dirty
//! pages are copied to NVMM and flushed.
//!
//! Reproduced here: DRAM working region + NVMM target region at identical
//! offsets, store interception marking a page-granularity dirty bitmap, and
//! a periodic checkpointer (on `respct`'s timer loop) that quiesces
//! (operations are the paper's critical sections), copies dirty pages,
//! flushes, and fences. The paper's methodology note describes the
//! checkpoint copy loop as the *parallelized* variant the authors helped
//! tune (a pool of copiers); here it is one inline copy loop. PMThreads
//! keeps no persistent epoch counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use respct::CheckpointerGuard;
use respct_pmem::{PAddr, Region};

use crate::barrier::EpochBarrier;
use crate::nvheap::{NvCtx, NvHeap};
use crate::policy::{PersistPolicy, WriteKind};

const PAGE: u64 = 4096;

/// The shadow-copy policy.
pub struct PmThreadsPolicy {
    /// DRAM working copy (all reads/writes).
    work: Arc<Region>,
    /// NVMM persistent copy (checkpoint target), same offsets.
    nvmm: Arc<Region>,
    heap: Arc<NvHeap>,
    /// One bit per page: dirty since the last checkpoint.
    dirty: Box<[AtomicU64]>,
    barrier: EpochBarrier,
}

/// Per-thread state.
pub struct PmCtx {
    alloc: NvCtx,
    slot: usize,
}

impl PmThreadsPolicy {
    /// Creates the policy: `work` is the DRAM working region, `nvmm` the
    /// persistent region (must be the same size).
    pub fn new(work: Arc<Region>, nvmm: Arc<Region>) -> PmThreadsPolicy {
        assert_eq!(
            work.size(),
            nvmm.size(),
            "shadow and NVMM regions must match"
        );
        let pages = (work.size() as u64).div_ceil(PAGE);
        let words = pages.div_ceil(64) as usize;
        PmThreadsPolicy {
            heap: Arc::new(NvHeap::new(Arc::clone(&work))),
            work,
            nvmm,
            dirty: (0..words).map(|_| AtomicU64::new(0)).collect(),
            barrier: EpochBarrier::new(),
        }
    }

    #[inline]
    fn mark_dirty(&self, addr: PAddr) {
        let page = addr.0 / PAGE;
        let (word, bit) = ((page / 64) as usize, page % 64);
        // The interception cost PMThreads pays on every store.
        self.dirty[word].fetch_or(1 << bit, Ordering::Relaxed);
    }

    /// Copies all dirty pages to NVMM, flushes them, and clears the bitmap.
    /// Returns the number of pages persisted.
    pub fn checkpoint(&self) -> u64 {
        self.barrier.quiesce(|| {
            let mut pages = 0;
            let mut buf = vec![0u8; PAGE as usize];
            for (w, word) in self.dirty.iter().enumerate() {
                let mut bits = word.swap(0, Ordering::SeqCst);
                while bits != 0 {
                    let bit = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    let page = (w as u64) * 64 + bit;
                    let base = PAddr(page * PAGE);
                    let len = (PAGE as usize).min(self.work.size() - base.0 as usize);
                    self.work.load_bytes(base, &mut buf[..len]);
                    self.nvmm.store_bytes(base, &buf[..len]);
                    self.nvmm.flush_range(base, len);
                    pages += 1;
                }
            }
            pages
        })
    }

    /// Spawns a periodic checkpointer.
    pub fn start_checkpointer(self: &Arc<Self>, period: Duration) -> CheckpointerGuard {
        let this = Arc::clone(self);
        CheckpointerGuard::every("pmthreads-ckpt", period, move || {
            this.checkpoint();
        })
    }

    /// The NVMM region (flush-count diagnostics).
    pub fn nvmm(&self) -> &Arc<Region> {
        &self.nvmm
    }
}

impl PersistPolicy for PmThreadsPolicy {
    type Ctx = PmCtx;

    fn register(&self) -> PmCtx {
        PmCtx {
            alloc: self.heap.ctx(),
            slot: self.barrier.register(),
        }
    }

    fn stride(&self) -> u64 {
        8
    }

    fn alloc(&self, ctx: &mut PmCtx, size: u64) -> PAddr {
        let addr = self.heap.alloc(&mut ctx.alloc, size);
        self.mark_dirty(addr);
        addr
    }

    fn free(&self, _ctx: &mut PmCtx, addr: PAddr, size: u64) {
        self.heap.free(addr, size);
    }

    fn begin(&self, ctx: &mut PmCtx) {
        self.barrier.op_begin(ctx.slot);
    }

    fn read(&self, addr: PAddr) -> u64 {
        // Reads hit the DRAM working copy — PMThreads' advantage.
        self.work.load(addr)
    }

    fn write(&self, ctx: &mut PmCtx, addr: PAddr, val: u64, _kind: WriteKind) {
        let _ = ctx;
        self.work.store(addr, val);
        self.mark_dirty(addr);
    }

    fn init(&self, ctx: &mut PmCtx, addr: PAddr, val: u64) {
        self.write(ctx, addr, val, WriteKind::Blind);
    }

    fn commit(&self, ctx: &mut PmCtx) {
        // No flush/fence: durability is deferred to the checkpoint.
        self.barrier.op_end(ctx.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct_ds::traits::BenchMap;
    use respct_pmem::RegionConfig;

    fn policy() -> Arc<PmThreadsPolicy> {
        Arc::new(PmThreadsPolicy::new(
            Region::new(RegionConfig::fast(16 << 20)),
            Region::new(RegionConfig::fast(16 << 20)),
        ))
    }

    #[test]
    fn checkpoint_copies_dirty_pages_to_nvmm() {
        let p = policy();
        let m = crate::policy::PolicyHashMap::new(Arc::clone(&p), 8);
        let mut ctx = m.register();
        for k in 0..100 {
            m.insert(&mut ctx, k, k + 7);
        }
        // Nothing reached NVMM yet.
        let pages = p.checkpoint();
        assert!(pages > 0);
        // After the checkpoint, the NVMM copy of a bucket page matches DRAM.
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        p.work.load_bytes(PAddr(0), &mut a);
        p.nvmm.load_bytes(PAddr(0), &mut b);
        assert_eq!(a, b);
        // A second checkpoint with no writes copies nothing.
        assert_eq!(p.checkpoint(), 0);
    }

    #[test]
    fn periodic_checkpointer_under_load() {
        let p = policy();
        let m = Arc::new(crate::policy::PolicyHashMap::new(Arc::clone(&p), 64));
        let guard = p.start_checkpointer(Duration::from_millis(3));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut ctx = m.register();
                    for i in 0..2000 {
                        m.insert(&mut ctx, t * 10_000 + i, i);
                    }
                });
            }
        });
        drop(guard);
        let mut ctx = m.register();
        for t in 0..3u64 {
            for i in 0..2000 {
                assert_eq!(m.get(&mut ctx, t * 10_000 + i), Some(i));
            }
        }
    }
}
