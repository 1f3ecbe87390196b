//! Generic lock-based map/queue parameterized by a persistence policy.
//!
//! The durable-linearizability systems the paper compares against (undo
//! logging, Clobber-NVM, Quadra/Trinity) and PMThreads all run the *same*
//! data-structure algorithm; what differs is the persistence work wrapped
//! around each load and store. [`PersistPolicy`] captures exactly that
//! interface, and [`PolicyHashMap`]/[`PolicyQueue`] are the shared
//! structures, so the benchmark differences between systems come purely
//! from their persistence mechanics — the comparison the paper makes.

use std::sync::Arc;

use parking_lot::Mutex;
use respct_ds::hash_u64;
use respct_ds::traits::{BenchMap, BenchQueue};
use respct_pmem::{PAddr, Region};

/// How a store relates to the operation's read set — Clobber-NVM logs only
/// writes to locations the operation has already read (WAR); others are
/// recovered by re-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Write-after-read within this operation: needs an undo log entry in
    /// log-based systems.
    War,
    /// Blind write (not previously read in this operation).
    Blind,
}

/// A persistence discipline for lock-based operations on `u64` fields.
pub trait PersistPolicy: Send + Sync {
    /// Per-thread context (logs, allocation caches, tracked lines).
    type Ctx: Send;

    /// Registers the calling thread.
    fn register(&self) -> Self::Ctx;

    /// Byte stride of one logical `u64` field (8 for most systems; 32 for
    /// in-cache-line-logged cells that carry their backup inline).
    fn stride(&self) -> u64;

    /// Allocates raw persistent bytes.
    fn alloc(&self, ctx: &mut Self::Ctx, size: u64) -> PAddr;

    /// Frees a block.
    fn free(&self, ctx: &mut Self::Ctx, addr: PAddr, size: u64);

    /// Starts an operation (failure-atomic section / transaction).
    fn begin(&self, ctx: &mut Self::Ctx);

    /// Reads a logical field.
    fn read(&self, addr: PAddr) -> u64;

    /// Writes a logical field with the system's logging discipline.
    fn write(&self, ctx: &mut Self::Ctx, addr: PAddr, val: u64, kind: WriteKind);

    /// First write to freshly allocated memory (never needs an undo log).
    fn init(&self, ctx: &mut Self::Ctx, addr: PAddr, val: u64);

    /// Commits the operation (flushes + fences per the system's rules).
    fn commit(&self, ctx: &mut Self::Ctx);
}

/// The per-operation commit of the durably linearizable policies: writes
/// back each of the operation's modified `lines` once, issues one fence when
/// there were any, and clears the list.
pub(crate) fn persist_lines(region: &Region, lines: &mut Vec<u64>) {
    if lines.is_empty() {
        return;
    }
    lines.sort_unstable();
    lines.dedup();
    for &line in lines.iter() {
        region.pwb_line(line);
    }
    region.psync();
    lines.clear();
}

/// Chained lock-per-bucket hash map over a [`PersistPolicy`].
///
/// Node layout in field strides `s`: key@0, value@s, next@2s.
pub struct PolicyHashMap<P: PersistPolicy> {
    policy: Arc<P>,
    buckets: PAddr,
    nbuckets: u64,
    locks: Box<[Mutex<()>]>,
}

impl<P: PersistPolicy> PolicyHashMap<P> {
    /// Creates a map with `nbuckets` buckets.
    pub fn new(policy: Arc<P>, nbuckets: u64) -> PolicyHashMap<P> {
        assert!(nbuckets > 0);
        let mut ctx = policy.register();
        let s = policy.stride();
        let buckets = policy.alloc(&mut ctx, nbuckets * s);
        policy.begin(&mut ctx);
        for b in 0..nbuckets {
            policy.init(&mut ctx, PAddr(buckets.0 + b * s), 0);
        }
        policy.commit(&mut ctx);
        let locks = (0..nbuckets).map(|_| Mutex::new(())).collect::<Vec<_>>();
        PolicyHashMap {
            policy,
            buckets,
            nbuckets,
            locks: locks.into_boxed_slice(),
        }
    }

    /// The policy (for epoch drivers etc.).
    pub fn policy(&self) -> &Arc<P> {
        &self.policy
    }

    fn node_size(&self) -> u64 {
        3 * self.policy.stride()
    }

    fn bucket(&self, k: u64) -> (usize, PAddr) {
        let b = hash_u64(k) % self.nbuckets;
        (b as usize, PAddr(self.buckets.0 + b * self.policy.stride()))
    }

    /// Inserts or updates; `true` when newly inserted.
    pub fn insert(&self, ctx: &mut P::Ctx, k: u64, v: u64) -> bool {
        let s = self.policy.stride();
        let (b, head) = self.bucket(k);
        self.policy.begin(ctx);
        let _g = self.locks[b].lock();
        let mut cur = self.policy.read(head);
        let newly = loop {
            if cur == 0 {
                let node = self.policy.alloc(ctx, self.node_size());
                self.policy.init(ctx, node, k);
                self.policy.init(ctx, PAddr(node.0 + s), v);
                self.policy
                    .init(ctx, PAddr(node.0 + 2 * s), self.policy.read(head));
                self.policy.write(ctx, head, node.0, WriteKind::War);
                break true;
            }
            if self.policy.read(PAddr(cur)) == k {
                self.policy.write(ctx, PAddr(cur + s), v, WriteKind::Blind);
                break false;
            }
            cur = self.policy.read(PAddr(cur + 2 * s));
        };
        self.policy.commit(ctx);
        newly
    }

    /// Removes; `true` if present.
    pub fn remove(&self, ctx: &mut P::Ctx, k: u64) -> bool {
        let s = self.policy.stride();
        let (b, head) = self.bucket(k);
        self.policy.begin(ctx);
        let _g = self.locks[b].lock();
        let mut prev = 0u64;
        let mut cur = self.policy.read(head);
        let found = loop {
            if cur == 0 {
                break false;
            }
            let next = self.policy.read(PAddr(cur + 2 * s));
            if self.policy.read(PAddr(cur)) == k {
                if prev == 0 {
                    self.policy.write(ctx, head, next, WriteKind::War);
                } else {
                    self.policy
                        .write(ctx, PAddr(prev + 2 * s), next, WriteKind::War);
                }
                self.policy.free(ctx, PAddr(cur), self.node_size());
                break true;
            }
            prev = cur;
            cur = next;
        };
        self.policy.commit(ctx);
        found
    }

    /// Looks a key up.
    pub fn get(&self, ctx: &mut P::Ctx, k: u64) -> Option<u64> {
        let s = self.policy.stride();
        let (b, head) = self.bucket(k);
        self.policy.begin(ctx);
        let _g = self.locks[b].lock();
        let mut cur = self.policy.read(head);
        let mut out = None;
        while cur != 0 {
            if self.policy.read(PAddr(cur)) == k {
                out = Some(self.policy.read(PAddr(cur + s)));
                break;
            }
            cur = self.policy.read(PAddr(cur + 2 * s));
        }
        self.policy.commit(ctx);
        out
    }
}

impl<P: PersistPolicy> BenchMap for PolicyHashMap<P> {
    type Ctx = P::Ctx;

    fn register(&self) -> P::Ctx {
        self.policy.register()
    }

    fn insert(&self, ctx: &mut P::Ctx, k: u64, v: u64) -> bool {
        PolicyHashMap::insert(self, ctx, k, v)
    }

    fn remove(&self, ctx: &mut P::Ctx, k: u64) -> bool {
        PolicyHashMap::remove(self, ctx, k)
    }

    fn get(&self, ctx: &mut P::Ctx, k: u64) -> Option<u64> {
        PolicyHashMap::get(self, ctx, k)
    }
}

/// Single-lock linked FIFO queue over a [`PersistPolicy`].
///
/// Descriptor in strides `s`: head@0, tail@s. Node: value@0, next@s.
pub struct PolicyQueue<P: PersistPolicy> {
    policy: Arc<P>,
    desc: PAddr,
    lock: Mutex<()>,
}

impl<P: PersistPolicy> PolicyQueue<P> {
    /// Creates an empty queue.
    pub fn new(policy: Arc<P>) -> PolicyQueue<P> {
        let mut ctx = policy.register();
        let s = policy.stride();
        let desc = policy.alloc(&mut ctx, 2 * s);
        policy.begin(&mut ctx);
        policy.init(&mut ctx, desc, 0);
        policy.init(&mut ctx, PAddr(desc.0 + s), 0);
        policy.commit(&mut ctx);
        PolicyQueue {
            policy,
            desc,
            lock: Mutex::new(()),
        }
    }

    /// The policy (for epoch drivers etc.).
    pub fn policy(&self) -> &Arc<P> {
        &self.policy
    }

    /// Appends a value.
    pub fn enqueue(&self, ctx: &mut P::Ctx, v: u64) {
        let s = self.policy.stride();
        self.policy.begin(ctx);
        let _g = self.lock.lock();
        let node = self.policy.alloc(ctx, 2 * s);
        self.policy.init(ctx, node, v);
        self.policy.init(ctx, PAddr(node.0 + s), 0);
        let tail = self.policy.read(PAddr(self.desc.0 + s));
        if tail == 0 {
            self.policy.write(ctx, self.desc, node.0, WriteKind::War);
        } else {
            self.policy
                .write(ctx, PAddr(tail + s), node.0, WriteKind::Blind);
        }
        self.policy
            .write(ctx, PAddr(self.desc.0 + s), node.0, WriteKind::War);
        self.policy.commit(ctx);
    }

    /// Pops the oldest value.
    pub fn dequeue(&self, ctx: &mut P::Ctx) -> Option<u64> {
        let s = self.policy.stride();
        self.policy.begin(ctx);
        let _g = self.lock.lock();
        let head = self.policy.read(self.desc);
        let out = if head == 0 {
            None
        } else {
            let v = self.policy.read(PAddr(head));
            let next = self.policy.read(PAddr(head + s));
            self.policy.write(ctx, self.desc, next, WriteKind::War);
            if next == 0 {
                self.policy
                    .write(ctx, PAddr(self.desc.0 + s), 0, WriteKind::War);
            }
            self.policy.free(ctx, PAddr(head), 2 * s);
            Some(v)
        };
        self.policy.commit(ctx);
        out
    }
}

impl<P: PersistPolicy> BenchQueue for PolicyQueue<P> {
    type Ctx = P::Ctx;

    fn register(&self) -> P::Ctx {
        self.policy.register()
    }

    fn enqueue(&self, ctx: &mut P::Ctx, v: u64) {
        PolicyQueue::enqueue(self, ctx, v);
    }

    fn dequeue(&self, ctx: &mut P::Ctx) -> Option<u64> {
        PolicyQueue::dequeue(self, ctx)
    }
}

/// Conformance: every policy's map/queue must behave like a map/queue.
#[cfg(test)]
mod conformance {
    use super::*;
    use crate::pmthreads::PmThreadsPolicy;
    use crate::quadra::QuadraPolicy;
    use crate::undo::UndoPolicy;
    use respct_pmem::RegionConfig;

    #[test]
    fn every_policy_conforms() {
        let fast = |mib: usize| Region::new(RegionConfig::fast(mib << 20));
        check_all(|| UndoPolicy::new(fast(32)));
        check_all(|| UndoPolicy::clobber(fast(32)));
        check_all(|| QuadraPolicy::new(fast(64)));
        check_all(|| PmThreadsPolicy::new(fast(16), fast(16)));
    }

    /// Runs the three checks, each on a fresh policy.
    fn check_all<P: PersistPolicy + 'static>(policy: impl Fn() -> P) {
        check_map(Arc::new(policy()));
        check_queue(Arc::new(policy()));
        check_map_concurrent(Arc::new(policy()));
    }

    fn check_map<P: PersistPolicy>(policy: Arc<P>) {
        let m = PolicyHashMap::new(policy, 4);
        let mut ctx = m.register();
        assert!(m.insert(&mut ctx, 1, 10));
        assert!(m.insert(&mut ctx, 2, 20));
        assert!(!m.insert(&mut ctx, 1, 11));
        assert_eq!(m.get(&mut ctx, 1), Some(11));
        assert_eq!(m.get(&mut ctx, 2), Some(20));
        assert_eq!(m.get(&mut ctx, 99), None);
        assert!(m.remove(&mut ctx, 1));
        assert!(!m.remove(&mut ctx, 1));
        // Chain through collisions.
        for k in 100..160 {
            assert!(m.insert(&mut ctx, k, k * 3));
        }
        for k in (100..160).step_by(2) {
            assert!(m.remove(&mut ctx, k));
        }
        for k in 100..160 {
            let expect = if k % 2 == 1 { Some(k * 3) } else { None };
            assert_eq!(m.get(&mut ctx, k), expect, "key {k}");
        }
    }

    fn check_queue<P: PersistPolicy>(policy: Arc<P>) {
        let q = PolicyQueue::new(policy);
        let mut ctx = q.register();
        assert_eq!(q.dequeue(&mut ctx), None);
        for v in 0..200 {
            q.enqueue(&mut ctx, v);
        }
        for v in 0..200 {
            assert_eq!(q.dequeue(&mut ctx), Some(v));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
        q.enqueue(&mut ctx, 7);
        assert_eq!(q.dequeue(&mut ctx), Some(7));
    }

    fn check_map_concurrent<P: PersistPolicy + 'static>(policy: Arc<P>) {
        let m = Arc::new(PolicyHashMap::new(policy, 64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut ctx = m.register();
                    for i in 0..300 {
                        m.insert(&mut ctx, t * 10_000 + i, i);
                    }
                });
            }
        });
        let mut ctx = m.register();
        for t in 0..4u64 {
            for i in 0..300 {
                assert_eq!(m.get(&mut ctx, t * 10_000 + i), Some(i));
            }
        }
    }
}
