//! Persistent single-lock FIFO queue under ResPCT.
//!
//! The paper's queue micro-benchmark: a linked queue of 8-byte elements
//! protected by one mutex (§5.1). Head and tail pointers are WAR variables
//! (read, then rewritten, with RPs between operations) → InCLL cells. The
//! payload and the initial link of a fresh node are written once while the
//! node is unreachable → plain tracked stores. The link of the *previous
//! tail*, however, is rewritten after having been read earlier in the epoch
//! → InCLL cell.
//!
//! Node layout (one 32-byte class block, never straddling a line):
//!
//! ```text
//! 0..8    value (plain)
//! 8..32   next  ICell<u64> (PAddr of next node, 0 = end)
//! ```
//!
//! Descriptor layout (64 bytes): `head` cell at 0, `tail` cell at 32.

use std::sync::Arc;

use respct::{ICell, PAddr, Pool, ThreadHandle, TracedMutex};

const NODE_SIZE: u64 = 32;
const NODE_VAL: u64 = 0;
const NODE_NEXT: u64 = 8;

const DESC_SIZE: u64 = 64;
const DESC_HEAD: u64 = 0;
const DESC_TAIL: u64 = 32;

/// A persistent FIFO queue of `u64` values. See the module docs.
pub struct PQueue {
    pool: Arc<Pool>,
    desc: PAddr,
    lock: TracedMutex<()>,
}

#[inline]
fn next_cell(node: u64) -> ICell<u64> {
    ICell::from_addr(PAddr(node + NODE_NEXT))
}

impl PQueue {
    /// Creates an empty queue; keep `desc()` reachable from the pool root.
    pub fn create(h: &ThreadHandle) -> PQueue {
        let desc = h.alloc(DESC_SIZE, 64);
        h.init_cell_at::<u64>(PAddr(desc.0 + DESC_HEAD), 0);
        h.init_cell_at::<u64>(PAddr(desc.0 + DESC_TAIL), 0);
        PQueue {
            lock: TracedMutex::new(()),
            pool: Arc::clone(h.pool()),
            desc,
        }
    }

    /// Re-opens a queue from its descriptor (after recovery).
    pub fn open(pool: &Arc<Pool>, desc: PAddr) -> PQueue {
        PQueue {
            lock: TracedMutex::new(()),
            pool: Arc::clone(pool),
            desc,
        }
    }

    /// Persistent descriptor address.
    pub fn desc(&self) -> PAddr {
        self.desc
    }

    #[inline]
    fn head_cell(&self) -> ICell<u64> {
        ICell::from_addr(PAddr(self.desc.0 + DESC_HEAD))
    }

    #[inline]
    fn tail_cell(&self) -> ICell<u64> {
        ICell::from_addr(PAddr(self.desc.0 + DESC_TAIL))
    }

    /// Appends `v`.
    pub fn enqueue(&self, h: &ThreadHandle, v: u64) {
        let _g = self.lock.lock(&self.pool);
        let node = h.alloc(NODE_SIZE, 32);
        h.store_tracked(PAddr(node.0 + NODE_VAL), v);
        h.init_cell_at::<u64>(PAddr(node.0 + NODE_NEXT), 0);
        let tail = h.get(self.tail_cell());
        if tail == 0 {
            h.update(self.head_cell(), node.0);
        } else {
            h.update(next_cell(tail), node.0);
        }
        h.update(self.tail_cell(), node.0);
    }

    /// Pops the oldest value, if any.
    pub fn dequeue(&self, h: &ThreadHandle) -> Option<u64> {
        let _g = self.lock.lock(&self.pool);
        let head = h.get(self.head_cell());
        if head == 0 {
            return None;
        }
        let v: u64 = self.pool.region().load(PAddr(head + NODE_VAL));
        let next = h.get(next_cell(head));
        h.update(self.head_cell(), next);
        if next == 0 {
            h.update(self.tail_cell(), 0);
        }
        h.free(PAddr(head), NODE_SIZE);
        Some(v)
    }

    /// Collects the queue front-to-back (verification).
    pub fn collect(&self) -> Vec<u64> {
        let _g = self.lock.lock(&self.pool);
        let region = self.pool.region();
        let mut out = Vec::new();
        let mut cur = self.pool.cell_get(self.head_cell());
        while cur != 0 {
            out.push(region.load(PAddr(cur + NODE_VAL)));
            cur = self.pool.cell_get(next_cell(cur));
        }
        out
    }

    /// Number of queued elements (walks the list).
    pub fn len(&self) -> usize {
        self.collect().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.cell_get(self.head_cell()) == 0
    }
}

impl crate::traits::BenchQueue for PQueue {
    type Ctx = ThreadHandle;

    fn register(&self) -> ThreadHandle {
        self.pool.register()
    }

    fn enqueue(&self, ctx: &mut ThreadHandle, v: u64) {
        PQueue::enqueue(self, ctx, v);
        ctx.rp(crate::rp_ids::QUEUE_ENQ);
    }

    fn dequeue(&self, ctx: &mut ThreadHandle) -> Option<u64> {
        let r = PQueue::dequeue(self, ctx);
        ctx.rp(crate::rp_ids::QUEUE_DEQ);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct::PoolConfig;
    use respct_pmem::{Region, RegionConfig};

    fn setup() -> (Arc<Pool>, ThreadHandle, PQueue) {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(32 << 20)),
            PoolConfig::default(),
        )
        .expect("pool");
        let h = pool.register();
        let q = PQueue::create(&h);
        (pool, h, q)
    }

    #[test]
    fn fifo_order() {
        let (_p, h, q) = setup();
        assert!(q.is_empty());
        assert_eq!(q.dequeue(&h), None);
        for v in 1..=5 {
            q.enqueue(&h, v);
        }
        assert_eq!(q.collect(), vec![1, 2, 3, 4, 5]);
        for v in 1..=5 {
            assert_eq!(q.dequeue(&h), Some(v));
        }
        assert!(q.is_empty());
        // Tail reset: enqueue after drain works.
        q.enqueue(&h, 9);
        assert_eq!(q.dequeue(&h), Some(9));
    }

    #[test]
    fn interleaved_enq_deq() {
        let (_p, h, q) = setup();
        let mut expect = std::collections::VecDeque::new();
        for i in 0..1000u64 {
            q.enqueue(&h, i);
            expect.push_back(i);
            if i % 3 == 0 {
                assert_eq!(q.dequeue(&h), expect.pop_front());
            }
        }
        assert_eq!(q.collect(), expect.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_consumers() {
        let (pool, h, q) = setup();
        for v in 0..1000u64 {
            q.enqueue(&h, v);
        }
        drop(h);
        let q = Arc::new(q);
        let total = std::sync::atomic::AtomicU64::new(0);
        let popped = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (q, pool) = (Arc::clone(&q), Arc::clone(&pool));
                let (total, popped) = (&total, &popped);
                s.spawn(move || {
                    let h = pool.register();
                    for _ in 0..500 {
                        if let Some(v) = q.dequeue(&h) {
                            total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                            popped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(popped.load(std::sync::atomic::Ordering::Relaxed), 1000);
        assert_eq!(
            total.load(std::sync::atomic::Ordering::Relaxed),
            999 * 1000 / 2
        );
        assert!(q.is_empty());
    }

    #[test]
    fn crash_recovers_to_checkpoint() {
        let region = Region::new(respct_pmem::RegionConfig::sim(
            32 << 20,
            respct_pmem::SimConfig::with_eviction(4, 7),
        ));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        let q = PQueue::create(&h);
        for v in 1..=10u64 {
            q.enqueue(&h, v);
        }
        q.dequeue(&h);
        h.set_root(q.desc());
        h.checkpoint_here(); // durable: [2..=10]
        for v in 100..110u64 {
            q.enqueue(&h, v);
        }
        q.dequeue(&h);
        q.dequeue(&h);
        drop(h);
        drop(q);
        drop(pool);
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        region.restore(&img);
        let (pool2, _) =
            Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let q2 = PQueue::open(&pool2, pool2.root());
        assert_eq!(q2.collect(), (2..=10).collect::<Vec<u64>>());
        // The queue remains usable after recovery.
        let h2 = pool2.register();
        q2.enqueue(&h2, 42);
        assert_eq!(q2.dequeue(&h2), Some(2));
    }
}
