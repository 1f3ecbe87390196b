//! Dalí (DISC '17): a periodically persistent hash map.
//!
//! Dalí never issues flushes during an epoch either: each update *prepends
//! a version record* to the bucket's chain (key, value, operation, epoch),
//! and the periodic persist pass flushes the dirty buckets and advances the
//! epoch. Reads walk the chain and take the newest record for their key.
//! The price is record accumulation: chains grow until they are compacted,
//! which is why Dalí trails ResPCT in the paper's Fig. 8 even though both
//! flush lazily.
//!
//! Reproduced: prepend-only version records in NVMM, per-bucket dirty
//! tracking, epoch flush via quiesce (advancing the [`PersistentEpoch`]
//! shared with Montage, on `respct`'s timer loop), and per-bucket
//! compaction once a chain exceeds a threshold — records from
//! already-persisted epochs collapse to one record per live key.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use respct::CheckpointerGuard;
use respct_ds::hash_u64;
use respct_ds::traits::BenchMap;
use respct_pmem::{PAddr, Region};

use crate::barrier::{EpochBarrier, PersistentEpoch};
use crate::nvheap::{NvCtx, NvHeap};

/// Record: key@0, value@8, meta@16 (op in bit 0: 1 = put, 0 = delete;
/// epoch in the upper bits), next@24. 32 bytes, class 32.
const REC_SIZE: u64 = 32;

/// Chain length that triggers compaction.
const COMPACT_THRESHOLD: usize = 16;

/// The periodically persistent map.
pub struct DaliHashMap {
    heap: Arc<NvHeap>,
    /// Bucket head words (NVMM).
    heads: PAddr,
    nbuckets: u64,
    locks: Box<[Mutex<()>]>,
    barrier: EpochBarrier,
    epoch: PersistentEpoch,
    /// Buckets touched this epoch, per barrier slot.
    dirty: Box<[Mutex<Vec<u64>>]>,
}

/// Per-thread context.
pub struct DaliCtx {
    alloc: NvCtx,
    slot: usize,
}

impl DaliHashMap {
    /// Creates a map with `nbuckets` buckets over `region`.
    pub fn new(region: Arc<Region>, nbuckets: u64) -> Arc<DaliHashMap> {
        assert!(nbuckets > 0);
        let heap = Arc::new(NvHeap::new(region));
        let mut boot = heap.ctx();
        let heads = heap.alloc(&mut boot, nbuckets * 8);
        for b in 0..nbuckets {
            heap.region().store(PAddr(heads.0 + b * 8), 0u64);
        }
        let epoch = PersistentEpoch::new(&heap, &mut boot);
        Arc::new(DaliHashMap {
            heap,
            heads,
            nbuckets,
            locks: (0..nbuckets).map(|_| Mutex::new(())).collect(),
            barrier: EpochBarrier::new(),
            epoch,
            dirty: (0..crate::barrier::MAX_OPS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        })
    }

    /// Per-thread context.
    pub fn ctx(&self) -> DaliCtx {
        DaliCtx {
            alloc: self.heap.ctx(),
            slot: self.barrier.register(),
        }
    }

    fn head_addr(&self, b: u64) -> PAddr {
        PAddr(self.heads.0 + b * 8)
    }

    /// Prepends a version record; compacts the chain when it grows long.
    fn prepend(&self, ctx: &mut DaliCtx, k: u64, v: u64, is_put: bool) -> bool {
        let region = self.heap.region();
        let b = hash_u64(k) % self.nbuckets;
        self.barrier.op_begin(ctx.slot);
        let _g = self.locks[b as usize].lock();
        // Walk once to learn the previous state of k and the chain length.
        let mut prev_state = None;
        let mut len = 0usize;
        let mut cur: u64 = region.load(self.head_addr(b));
        while cur != 0 {
            len += 1;
            if prev_state.is_none() && region.load::<u64>(PAddr(cur)) == k {
                let meta: u64 = region.load(PAddr(cur + 16));
                prev_state = Some(meta & 1 == 1);
            }
            cur = region.load(PAddr(cur + 24));
        }
        // A delete of an absent key writes no record.
        if !is_put && !prev_state.unwrap_or(false) {
            drop(_g);
            self.barrier.op_end(ctx.slot);
            return false;
        }
        let epoch = self.epoch.get();
        let rec = self.heap.alloc(&mut ctx.alloc, REC_SIZE);
        region.store(rec, k);
        region.store(PAddr(rec.0 + 8), v);
        region.store(PAddr(rec.0 + 16), (epoch << 1) | u64::from(is_put));
        region.store(PAddr(rec.0 + 24), region.load::<u64>(self.head_addr(b)));
        region.store(self.head_addr(b), rec.0);
        self.dirty[ctx.slot].lock().push(b);
        if len + 1 > COMPACT_THRESHOLD {
            self.compact(ctx, b);
        }
        drop(_g);
        self.barrier.op_end(ctx.slot);
        if is_put {
            // "Newly inserted" = key was absent or deleted before.
            !prev_state.unwrap_or(false)
        } else {
            true
        }
    }

    /// Collapses records of already-persisted epochs: newest record per key
    /// wins; superseded records are freed. Caller holds the bucket lock.
    fn compact(&self, ctx: &mut DaliCtx, b: u64) {
        let region = self.heap.region();
        let cur_epoch = self.epoch.get();
        let mut seen = std::collections::HashSet::new();
        let mut prev: u64 = 0;
        let mut cur: u64 = region.load(self.head_addr(b));
        while cur != 0 {
            let next: u64 = region.load(PAddr(cur + 24));
            let k: u64 = region.load(PAddr(cur));
            let meta: u64 = region.load(PAddr(cur + 16));
            let rec_epoch = meta >> 1;
            // Keep the newest record per key; drop older ones once the
            // newest is from a persisted epoch (conservative: drop
            // duplicates only when the *superseded* record is old).
            let drop_it = !seen.insert(k) && rec_epoch < cur_epoch;
            if drop_it {
                if prev == 0 {
                    region.store(self.head_addr(b), next);
                } else {
                    region.store(PAddr(prev + 24), next);
                }
                self.heap.free(PAddr(cur), REC_SIZE);
                self.dirty[ctx.slot].lock().push(b);
            } else {
                prev = cur;
            }
            cur = next;
        }
    }

    /// Looks a key up (newest record wins).
    pub fn get(&self, ctx: &mut DaliCtx, k: u64) -> Option<u64> {
        let region = self.heap.region();
        let b = hash_u64(k) % self.nbuckets;
        self.barrier.op_begin(ctx.slot);
        let _g = self.locks[b as usize].lock();
        let mut cur: u64 = region.load(self.head_addr(b));
        let mut out = None;
        while cur != 0 {
            if region.load::<u64>(PAddr(cur)) == k {
                let meta: u64 = region.load(PAddr(cur + 16));
                if meta & 1 == 1 {
                    out = Some(region.load(PAddr(cur + 8)));
                }
                break;
            }
            cur = region.load(PAddr(cur + 24));
        }
        drop(_g);
        self.barrier.op_end(ctx.slot);
        out
    }

    /// Epoch persist pass: flush every dirty bucket's chain head line and
    /// the records prepended this epoch, then advance the epoch.
    pub fn checkpoint(&self) -> u64 {
        self.barrier.quiesce(|| {
            let region = self.heap.region();
            let mut flushed = 0u64;
            let mut buckets: Vec<u64> = Vec::new();
            for list in &self.dirty {
                buckets.append(&mut list.lock());
            }
            buckets.sort_unstable();
            buckets.dedup();
            let epoch = self.epoch.get();
            for b in buckets {
                region.pwb(self.head_addr(b));
                flushed += 1;
                // Flush records of the current epoch (prefix of the chain
                // plus any interior ones — walk and flush matching).
                let mut cur: u64 = region.load(self.head_addr(b));
                while cur != 0 {
                    let meta: u64 = region.load(PAddr(cur + 16));
                    if meta >> 1 == epoch {
                        region.pwb(PAddr(cur));
                        flushed += 1;
                    }
                    cur = region.load(PAddr(cur + 24));
                }
            }
            self.epoch.advance(region);
            flushed
        })
    }

    /// Spawns a periodic persist pass.
    pub fn start_checkpointer(self: &Arc<Self>, period: Duration) -> CheckpointerGuard {
        let this = Arc::clone(self);
        CheckpointerGuard::every("dali-ckpt", period, move || {
            this.checkpoint();
        })
    }
}

impl BenchMap for DaliHashMap {
    type Ctx = DaliCtx;

    fn register(&self) -> DaliCtx {
        self.ctx()
    }

    fn insert(&self, ctx: &mut DaliCtx, k: u64, v: u64) -> bool {
        self.prepend(ctx, k, v, true)
    }

    fn remove(&self, ctx: &mut DaliCtx, k: u64) -> bool {
        self.prepend(ctx, k, 0, false)
    }

    fn get(&self, ctx: &mut DaliCtx, k: u64) -> Option<u64> {
        DaliHashMap::get(self, ctx, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct_pmem::RegionConfig;

    fn map(nbuckets: u64) -> Arc<DaliHashMap> {
        DaliHashMap::new(Region::new(RegionConfig::fast(32 << 20)), nbuckets)
    }

    #[test]
    fn semantics() {
        let m = map(16);
        let mut ctx = m.ctx();
        assert!(m.prepend(&mut ctx, 1, 10, true));
        assert!(
            !m.prepend(&mut ctx, 1, 11, true),
            "update is not a new insert"
        );
        assert_eq!(m.get(&mut ctx, 1), Some(11));
        assert!(m.prepend(&mut ctx, 1, 0, false));
        assert!(!m.prepend(&mut ctx, 1, 0, false));
        assert_eq!(m.get(&mut ctx, 1), None);
        assert!(
            m.prepend(&mut ctx, 1, 12, true),
            "re-insert after delete is new"
        );
        assert_eq!(m.get(&mut ctx, 1), Some(12));
    }

    #[test]
    fn compaction_bounds_chains() {
        let m = map(1);
        let mut ctx = m.ctx();
        // Hammer one key: versions pile up, compaction must kick in.
        for round in 0..200u64 {
            m.prepend(&mut ctx, 7, round, true);
            if round % 20 == 19 {
                m.checkpoint(); // age records so compaction may drop them
            }
        }
        assert_eq!(m.get(&mut ctx, 7), Some(199));
        // Chain stays bounded.
        let region = m.heap.region();
        let mut len = 0;
        let mut cur: u64 = region.load(m.head_addr(0));
        while cur != 0 {
            len += 1;
            cur = region.load(PAddr(cur + 24));
        }
        assert!(len <= 2 * COMPACT_THRESHOLD, "chain not compacted: {len}");
    }

    #[test]
    fn no_flushes_between_checkpoints() {
        let region = Region::new(RegionConfig::fast(32 << 20));
        let m = DaliHashMap::new(Arc::clone(&region), 16);
        let mut ctx = m.ctx();
        let before = region.stats().snapshot();
        for k in 0..100 {
            m.prepend(&mut ctx, k, k, true);
        }
        let delta = region.stats().snapshot().since(&before);
        assert_eq!(delta.pwb, 0, "Dalí must not flush during an epoch");
        let flushed = m.checkpoint();
        assert!(flushed > 0);
    }

    #[test]
    fn concurrent_with_periodic_persist() {
        let m = map(64);
        let guard = m.start_checkpointer(Duration::from_millis(3));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut ctx = m.ctx();
                    for i in 0..1000 {
                        m.prepend(&mut ctx, t * 10_000 + i, i, true);
                    }
                });
            }
        });
        drop(guard);
        let mut ctx = m.ctx();
        for t in 0..3u64 {
            for i in 0..1000 {
                assert_eq!(m.get(&mut ctx, t * 10_000 + i), Some(i));
            }
        }
    }
}
