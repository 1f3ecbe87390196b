//! Montage (ICPP '21): buffered durable linearizability via copy-on-write
//! payloads.
//!
//! Montage never updates NVMM in place: every mutation allocates a fresh
//! *payload block* in NVMM (key, value, epoch tag), while all pointers live
//! only in DRAM. At each epoch boundary the new payloads are flushed and
//! the epoch advances; payloads retired two epochs ago become reclaimable.
//! Two cost signatures follow, both visible in the paper's Figs. 8–9:
//! pressure on the memory allocator (one allocation per update), and extra
//! NVMM metadata for order-dependent structures — the queue keeps a global
//! sequence number in NVMM, updated inside the critical section, so that
//! recovery can rebuild FIFO order.
//!
//! The epoch boundary ([`MontageRuntime::checkpoint`]) advances the
//! [`PersistentEpoch`] it shares with Dalí, on `respct`'s timer loop
//! ([`MontageRuntime::start_checkpointer`]).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use respct::CheckpointerGuard;
use respct_ds::hash_u64;
use respct_ds::traits::{BenchMap, BenchQueue};
use respct_pmem::{PAddr, Region};

use crate::barrier::{EpochBarrier, PersistentEpoch};
use crate::nvheap::{NvCtx, NvHeap};

/// Payload block: key@0, value@8, epoch@16 (24 bytes, class 32).
const PAYLOAD_SIZE: u64 = 24;

/// Shared Montage runtime: epoch clock, flush lists, retirement.
pub struct MontageRuntime {
    heap: Arc<NvHeap>,
    epoch: PersistentEpoch,
    barrier: EpochBarrier,
    /// Payloads created this epoch, per barrier slot (uncontended pushes).
    fresh: Box<[Mutex<Vec<u64>>]>,
    /// Payloads retired this epoch / last epoch.
    retired: Mutex<(Vec<u64>, Vec<u64>)>,
}

/// Per-thread context.
pub struct MontageCtx {
    alloc: NvCtx,
    slot: usize,
}

impl MontageRuntime {
    /// Creates a runtime over `region`.
    pub fn new(region: Arc<Region>) -> Arc<MontageRuntime> {
        let heap = Arc::new(NvHeap::new(region));
        let epoch = PersistentEpoch::new(&heap, &mut heap.ctx());
        Arc::new(MontageRuntime {
            heap,
            epoch,
            barrier: EpochBarrier::new(),
            fresh: (0..crate::barrier::MAX_OPS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            retired: Mutex::new((Vec::new(), Vec::new())),
        })
    }

    /// Registers a thread.
    pub fn register(&self) -> MontageCtx {
        MontageCtx {
            alloc: self.heap.ctx(),
            slot: self.barrier.register(),
        }
    }

    /// Allocates and fills a payload for `(k, v)`; records it for the
    /// epoch flush.
    fn new_payload(&self, ctx: &mut MontageCtx, k: u64, v: u64) -> u64 {
        let p = self.heap.alloc(&mut ctx.alloc, PAYLOAD_SIZE);
        let region = self.heap.region();
        region.store(p, k);
        region.store(PAddr(p.0 + 8), v);
        region.store(PAddr(p.0 + 16), self.epoch.get());
        self.fresh[ctx.slot].lock().push(p.0);
        p.0
    }

    fn retire(&self, payload: u64) {
        self.retired.lock().0.push(payload);
    }

    fn read_value(&self, payload: u64) -> u64 {
        self.heap.region().load(PAddr(payload + 8))
    }

    /// Epoch boundary: flush this epoch's payloads, advance the persistent
    /// epoch, reclaim payloads retired two epochs ago.
    pub fn checkpoint(&self) -> u64 {
        self.barrier.quiesce(|| {
            let region = self.heap.region();
            let mut flushed = 0u64;
            for list in &self.fresh {
                let drained = std::mem::take(&mut *list.lock());
                for p in drained {
                    region.pwb(PAddr(p));
                    flushed += 1;
                }
            }
            self.epoch.advance(region);
            // Reclaim generation n-2; age generation n-1.
            let mut ret = self.retired.lock();
            let old = std::mem::take(&mut ret.1);
            ret.1 = std::mem::take(&mut ret.0);
            drop(ret);
            for p in old {
                self.heap.free(PAddr(p), PAYLOAD_SIZE);
            }
            flushed
        })
    }

    /// Spawns a periodic epoch advancer.
    pub fn start_checkpointer(self: &Arc<Self>, period: Duration) -> CheckpointerGuard {
        let this = Arc::clone(self);
        CheckpointerGuard::every("montage-ckpt", period, move || {
            this.checkpoint();
        })
    }

    /// The region (diagnostics).
    pub fn region(&self) -> &Arc<Region> {
        self.heap.region()
    }
}

// ---- Hash map ---------------------------------------------------------------

struct MNode {
    k: u64,
    payload: u64,
    next: Option<Box<MNode>>,
}

/// Montage hash map: DRAM chains pointing at NVMM payloads.
pub struct MontageHashMap {
    rt: Arc<MontageRuntime>,
    buckets: Box<[Mutex<Option<Box<MNode>>>]>,
}

impl MontageHashMap {
    /// Creates a map with `nbuckets` buckets.
    pub fn new(rt: Arc<MontageRuntime>, nbuckets: usize) -> MontageHashMap {
        MontageHashMap {
            rt,
            buckets: (0..nbuckets).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The runtime (to drive epochs).
    pub fn runtime(&self) -> &Arc<MontageRuntime> {
        &self.rt
    }
}

impl BenchMap for MontageHashMap {
    type Ctx = MontageCtx;

    fn register(&self) -> MontageCtx {
        self.rt.register()
    }

    fn insert(&self, ctx: &mut MontageCtx, k: u64, v: u64) -> bool {
        self.rt.barrier.op_begin(ctx.slot);
        let b = (hash_u64(k) % self.buckets.len() as u64) as usize;
        // Every update allocates a fresh payload — the CoW cost.
        let payload = self.rt.new_payload(ctx, k, v);
        let mut head = self.buckets[b].lock();
        let mut cur = head.as_deref_mut();
        let mut newly = true;
        loop {
            match cur {
                Some(node) if node.k == k => {
                    self.rt.retire(node.payload);
                    node.payload = payload;
                    newly = false;
                    break;
                }
                Some(node) => cur = node.next.as_deref_mut(),
                None => {
                    let old = head.take();
                    *head = Some(Box::new(MNode {
                        k,
                        payload,
                        next: old,
                    }));
                    break;
                }
            }
        }
        drop(head);
        self.rt.barrier.op_end(ctx.slot);
        newly
    }

    fn remove(&self, ctx: &mut MontageCtx, k: u64) -> bool {
        self.rt.barrier.op_begin(ctx.slot);
        let b = (hash_u64(k) % self.buckets.len() as u64) as usize;
        let mut head = self.buckets[b].lock();
        let mut link = &mut *head;
        let mut found = false;
        loop {
            match link {
                None => break,
                Some(node) if node.k == k => {
                    self.rt.retire(node.payload);
                    let next = node.next.take();
                    *link = next;
                    found = true;
                    break;
                }
                Some(node) => link = &mut node.next,
            }
        }
        drop(head);
        self.rt.barrier.op_end(ctx.slot);
        found
    }

    fn get(&self, ctx: &mut MontageCtx, k: u64) -> Option<u64> {
        self.rt.barrier.op_begin(ctx.slot);
        let b = (hash_u64(k) % self.buckets.len() as u64) as usize;
        let head = self.buckets[b].lock();
        let mut cur = head.as_deref();
        let mut out = None;
        while let Some(node) = cur {
            if node.k == k {
                // Values live in NVMM payloads; reads dereference them.
                out = Some(self.rt.read_value(node.payload));
                break;
            }
            cur = node.next.as_deref();
        }
        drop(head);
        self.rt.barrier.op_end(ctx.slot);
        out
    }
}

// ---- Queue ------------------------------------------------------------------

/// Montage queue: DRAM deque of payloads + persistent global sequence
/// number updated inside the critical section (recovery metadata that the
/// paper identifies as Montage's queue bottleneck).
pub struct MontageQueue {
    rt: Arc<MontageRuntime>,
    inner: Mutex<std::collections::VecDeque<u64>>,
    seqno_addr: PAddr,
}

impl MontageQueue {
    /// Creates an empty queue.
    pub fn new(rt: Arc<MontageRuntime>) -> MontageQueue {
        let mut boot = rt.heap.ctx();
        let seqno_addr = rt.heap.alloc(&mut boot, 64);
        rt.region().store(seqno_addr, 0u64);
        MontageQueue {
            rt,
            inner: Mutex::new(std::collections::VecDeque::new()),
            seqno_addr,
        }
    }

    /// The runtime (to drive epochs).
    pub fn runtime(&self) -> &Arc<MontageRuntime> {
        &self.rt
    }
}

impl BenchQueue for MontageQueue {
    type Ctx = MontageCtx;

    fn register(&self) -> MontageCtx {
        self.rt.register()
    }

    fn enqueue(&self, ctx: &mut MontageCtx, v: u64) {
        self.rt.barrier.op_begin(ctx.slot);
        let mut q = self.inner.lock();
        // Global sequence number: read-modify-write in NVMM inside the CS.
        let region = self.rt.region();
        let seq: u64 = region.load(self.seqno_addr);
        region.store(self.seqno_addr, seq + 1);
        let payload = self.rt.new_payload(ctx, seq, v);
        q.push_back(payload);
        drop(q);
        self.rt.barrier.op_end(ctx.slot);
    }

    fn dequeue(&self, ctx: &mut MontageCtx) -> Option<u64> {
        self.rt.barrier.op_begin(ctx.slot);
        let mut q = self.inner.lock();
        let out = q.pop_front().map(|payload| {
            let v = self.rt.read_value(payload);
            self.rt.retire(payload);
            v
        });
        drop(q);
        self.rt.barrier.op_end(ctx.slot);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct_pmem::RegionConfig;

    fn rt() -> Arc<MontageRuntime> {
        MontageRuntime::new(Region::new(RegionConfig::fast(32 << 20)))
    }

    #[test]
    fn map_semantics() {
        let m = MontageHashMap::new(rt(), 16);
        let mut ctx = m.register();
        assert!(m.insert(&mut ctx, 1, 10));
        assert!(!m.insert(&mut ctx, 1, 11));
        assert_eq!(m.get(&mut ctx, 1), Some(11));
        assert!(m.remove(&mut ctx, 1));
        assert!(!m.remove(&mut ctx, 1));
        assert_eq!(m.get(&mut ctx, 1), None);
    }

    #[test]
    fn queue_fifo_and_seqno() {
        let q = MontageQueue::new(rt());
        let mut ctx = q.register();
        for v in 0..50 {
            q.enqueue(&mut ctx, v);
        }
        let seq: u64 = q.rt.region().load(q.seqno_addr);
        assert_eq!(seq, 50, "global seqno advances per enqueue");
        for v in 0..50 {
            assert_eq!(q.dequeue(&mut ctx), Some(v));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    #[test]
    fn checkpoint_flushes_fresh_payloads() {
        let rt = rt();
        let m = MontageHashMap::new(Arc::clone(&rt), 16);
        let mut ctx = m.register();
        for k in 0..40 {
            m.insert(&mut ctx, k, k);
        }
        let flushed = rt.checkpoint();
        assert_eq!(flushed, 40);
        assert_eq!(rt.checkpoint(), 0, "second epoch has no fresh payloads");
    }

    #[test]
    fn retired_payloads_reused_after_two_epochs() {
        let rt = rt();
        let m = MontageHashMap::new(Arc::clone(&rt), 16);
        let mut ctx = m.register();
        m.insert(&mut ctx, 1, 10);
        let used_after_insert = rt.heap.used();
        m.insert(&mut ctx, 1, 11); // retires payload of 10
        rt.checkpoint();
        rt.checkpoint(); // retirement generation ages out, block freed
        m.insert(&mut ctx, 1, 12); // should reuse the freed block
        assert!(
            rt.heap.used() <= used_after_insert + 64,
            "allocator should recycle"
        );
        assert_eq!(m.get(&mut ctx, 1), Some(12));
    }

    #[test]
    fn concurrent_map_with_epochs() {
        let rt = rt();
        let m = Arc::new(MontageHashMap::new(Arc::clone(&rt), 64));
        let guard = rt.start_checkpointer(Duration::from_millis(3));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut ctx = m.register();
                    for i in 0..1500 {
                        m.insert(&mut ctx, t * 10_000 + i, i);
                    }
                });
            }
        });
        drop(guard);
        let mut ctx = m.register();
        for t in 0..3u64 {
            for i in 0..1500 {
                assert_eq!(m.get(&mut ctx, t * 10_000 + i), Some(i));
            }
        }
    }
}
