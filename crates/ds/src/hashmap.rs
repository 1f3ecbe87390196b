//! Persistent lock-per-bucket hash map under ResPCT.
//!
//! Mirrors the Synch-framework hash map used in the paper's §5.1: one
//! pthread-style mutex per bucket, separate chaining, 8-byte keys and
//! values. Persistence per the RP rules of §3.3.2 (an RP follows every
//! operation, placed by the benchmark adapter):
//!
//! * **bucket head pointers** — read, then possibly rewritten, within an
//!   epoch (WAR) → InCLL cells;
//! * **values** — overwritten in place on update; a crashed epoch must roll
//!   them back to the checkpointed state → InCLL cells;
//! * **keys and the initial link of a fresh node** — written exactly once
//!   while the node is unreachable → plain stores + `add_modified`;
//! * **bucket locks** — volatile (checkpoints never run inside a critical
//!   section, so lock state need not persist).
//!
//! Node layout (one 64-byte class block, i.e. exactly one cache line):
//!
//! ```text
//! 0..8    key (plain)
//! 8..32   value  ICell<u64>
//! 32..56  next   ICell<u64> (PAddr of next node, 0 = end)
//! ```

use std::sync::Arc;

use respct::{ICell, PAddr, Pool, ThreadHandle, TracedMutex};

use crate::hash_u64;

const NODE_SIZE: u64 = 64;
const NODE_KEY: u64 = 0;
const NODE_VAL: u64 = 8;
const NODE_NEXT: u64 = 32;

const DESC_SIZE: u64 = 64;
const DESC_NBUCKETS: u64 = 0;
const DESC_BUCKETS: u64 = 8;

/// Byte stride of one bucket head cell.
const BUCKET_STRIDE: u64 = 32;

/// A persistent hash map (`u64 → u64`). See the module docs.
pub struct PHashMap {
    pool: Arc<Pool>,
    desc: PAddr,
    nbuckets: u64,
    buckets: PAddr,
    locks: Box<[TracedMutex<()>]>,
}

#[inline]
fn val_cell(node: u64) -> ICell<u64> {
    ICell::from_addr(PAddr(node + NODE_VAL))
}

#[inline]
fn next_cell(node: u64) -> ICell<u64> {
    ICell::from_addr(PAddr(node + NODE_NEXT))
}

impl PHashMap {
    /// Creates a map with `nbuckets` buckets in `h`'s pool and returns it
    /// together with its persistent descriptor address (store it in the
    /// pool root to find the map after recovery).
    pub fn create(h: &ThreadHandle, nbuckets: u64) -> PHashMap {
        assert!(nbuckets > 0);
        let desc = h.alloc(DESC_SIZE, 64);
        let buckets = h.alloc(nbuckets * BUCKET_STRIDE, 64);
        for b in 0..nbuckets {
            h.init_cell_at::<u64>(PAddr(buckets.0 + b * BUCKET_STRIDE), 0);
        }
        h.store_tracked(PAddr(desc.0 + DESC_NBUCKETS), nbuckets);
        h.store_tracked(PAddr(desc.0 + DESC_BUCKETS), buckets.0);
        Self::build(Arc::clone(h.pool()), desc, nbuckets, buckets)
    }

    /// Re-opens a map from its descriptor (after recovery).
    pub fn open(pool: &Arc<Pool>, desc: PAddr) -> PHashMap {
        let nbuckets: u64 = pool.region().load(PAddr(desc.0 + DESC_NBUCKETS));
        let buckets: u64 = pool.region().load(PAddr(desc.0 + DESC_BUCKETS));
        assert!(
            nbuckets > 0,
            "descriptor at {desc:?} is not an initialized map"
        );
        Self::build(Arc::clone(pool), desc, nbuckets, PAddr(buckets))
    }

    fn build(pool: Arc<Pool>, desc: PAddr, nbuckets: u64, buckets: PAddr) -> PHashMap {
        PHashMap {
            pool,
            desc,
            nbuckets,
            buckets,
            locks: (0..nbuckets).map(|_| TracedMutex::new(())).collect(),
        }
    }

    /// Persistent descriptor address.
    pub fn desc(&self) -> PAddr {
        self.desc
    }

    /// Number of buckets.
    pub fn nbuckets(&self) -> u64 {
        self.nbuckets
    }

    #[inline]
    fn bucket_cell(&self, b: u64) -> ICell<u64> {
        ICell::from_addr(PAddr(self.buckets.0 + b * BUCKET_STRIDE))
    }

    #[inline]
    fn bucket_of(&self, k: u64) -> u64 {
        hash_u64(k) % self.nbuckets
    }

    /// Inserts `k → v`, updating in place if present. Returns `true` when
    /// the key was newly inserted.
    pub fn insert(&self, h: &ThreadHandle, k: u64, v: u64) -> bool {
        self.replace(h, k, v).is_none()
    }

    /// Inserts `k → v` and returns the value it displaced, all under one
    /// bucket-lock hold. When values are addresses of out-of-band payloads
    /// (as in the KV store's copy-on-write blobs), the atomic read-and-swap
    /// is what lets the caller free the old payload exactly once even when
    /// several threads race on the same key.
    pub fn replace(&self, h: &ThreadHandle, k: u64, v: u64) -> Option<u64> {
        let b = self.bucket_of(k);
        let _g = self.locks[b as usize].lock(&self.pool);
        let head = self.bucket_cell(b);
        let region = self.pool.region();
        let mut cur = h.get(head);
        while cur != 0 {
            let key: u64 = region.load(PAddr(cur + NODE_KEY));
            if key == k {
                let old = h.get(val_cell(cur));
                h.update(val_cell(cur), v);
                return Some(old);
            }
            cur = h.get(next_cell(cur));
        }
        let node = h.alloc(NODE_SIZE, 64);
        h.store_tracked(PAddr(node.0 + NODE_KEY), k);
        h.init_cell_at::<u64>(PAddr(node.0 + NODE_VAL), v);
        h.init_cell_at::<u64>(PAddr(node.0 + NODE_NEXT), h.get(head));
        h.update(head, node.0);
        None
    }

    /// Removes `k`. Returns `true` if it was present.
    pub fn remove(&self, h: &ThreadHandle, k: u64) -> bool {
        self.remove_entry(h, k).is_some()
    }

    /// Removes `k` and returns the value it held, under one bucket-lock
    /// hold (the removal twin of [`replace`](Self::replace)).
    pub fn remove_entry(&self, h: &ThreadHandle, k: u64) -> Option<u64> {
        let b = self.bucket_of(k);
        let _g = self.locks[b as usize].lock(&self.pool);
        let head = self.bucket_cell(b);
        let region = self.pool.region();
        let mut prev: u64 = 0;
        let mut cur = h.get(head);
        while cur != 0 {
            let key: u64 = region.load(PAddr(cur + NODE_KEY));
            let next = h.get(next_cell(cur));
            if key == k {
                let old = h.get(val_cell(cur));
                if prev == 0 {
                    h.update(head, next);
                } else {
                    h.update(next_cell(prev), next);
                }
                h.free(PAddr(cur), NODE_SIZE);
                return Some(old);
            }
            prev = cur;
            cur = next;
        }
        None
    }

    /// Atomically adds `delta` to `k`'s value (inserting `delta` if the
    /// key is absent) under a single bucket-lock hold, and returns the new
    /// value. The read-modify-write of the value cell is a WAR access, so
    /// it goes through `update_InCLL`.
    pub fn fetch_add(&self, h: &ThreadHandle, k: u64, delta: u64) -> u64 {
        let b = self.bucket_of(k);
        let _g = self.locks[b as usize].lock(&self.pool);
        let head = self.bucket_cell(b);
        let region = self.pool.region();
        let mut cur = h.get(head);
        while cur != 0 {
            let key: u64 = region.load(PAddr(cur + NODE_KEY));
            if key == k {
                let new = h.get(val_cell(cur)) + delta;
                h.update(val_cell(cur), new);
                return new;
            }
            cur = h.get(next_cell(cur));
        }
        let node = h.alloc(NODE_SIZE, 64);
        h.store_tracked(PAddr(node.0 + NODE_KEY), k);
        h.init_cell_at::<u64>(PAddr(node.0 + NODE_VAL), delta);
        h.init_cell_at::<u64>(PAddr(node.0 + NODE_NEXT), h.get(head));
        h.update(head, node.0);
        delta
    }

    /// Looks up `k`.
    pub fn get(&self, h: &ThreadHandle, k: u64) -> Option<u64> {
        let b = self.bucket_of(k);
        let _g = self.locks[b as usize].lock(&self.pool);
        let region = self.pool.region();
        let mut cur = h.get(self.bucket_cell(b));
        while cur != 0 {
            let key: u64 = region.load(PAddr(cur + NODE_KEY));
            if key == k {
                return Some(h.get(val_cell(cur)));
            }
            cur = h.get(next_cell(cur));
        }
        None
    }

    /// Collects every key/value pair (single-threaded use: verification and
    /// post-recovery checks).
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let region = self.pool.region();
        let mut out = Vec::new();
        for b in 0..self.nbuckets {
            let _g = self.locks[b as usize].lock(&self.pool);
            let mut cur = self.pool.cell_get(self.bucket_cell(b));
            while cur != 0 {
                let key: u64 = region.load(PAddr(cur + NODE_KEY));
                let val: u64 = self.pool.cell_get(val_cell(cur));
                out.push((key, val));
                cur = self.pool.cell_get(next_cell(cur));
            }
        }
        out
    }

    /// Number of stored pairs (walks every chain).
    pub fn len(&self) -> usize {
        self.collect().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl crate::traits::BenchMap for PHashMap {
    type Ctx = ThreadHandle;

    fn register(&self) -> ThreadHandle {
        self.pool.register()
    }

    fn insert(&self, ctx: &mut ThreadHandle, k: u64, v: u64) -> bool {
        let r = PHashMap::insert(self, ctx, k, v);
        ctx.rp(crate::rp_ids::MAP_INSERT);
        r
    }

    fn remove(&self, ctx: &mut ThreadHandle, k: u64) -> bool {
        let r = PHashMap::remove(self, ctx, k);
        ctx.rp(crate::rp_ids::MAP_REMOVE);
        r
    }

    fn get(&self, ctx: &mut ThreadHandle, k: u64) -> Option<u64> {
        let r = PHashMap::get(self, ctx, k);
        ctx.rp(crate::rp_ids::MAP_GET);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct::PoolConfig;
    use respct_pmem::{Region, RegionConfig};

    fn setup(nbuckets: u64) -> (Arc<Pool>, ThreadHandle, PHashMap) {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(64 << 20)),
            PoolConfig::default(),
        )
        .expect("pool");
        let h = pool.register();
        let map = PHashMap::create(&h, nbuckets);
        (pool, h, map)
    }

    #[test]
    fn insert_get_remove() {
        let (_p, h, map) = setup(64);
        assert!(map.insert(&h, 1, 10));
        assert!(map.insert(&h, 2, 20));
        assert_eq!(map.get(&h, 1), Some(10));
        assert_eq!(map.get(&h, 2), Some(20));
        assert_eq!(map.get(&h, 3), None);
        assert!(!map.insert(&h, 1, 11), "update is not a new insert");
        assert_eq!(map.get(&h, 1), Some(11));
        assert!(map.remove(&h, 1));
        assert!(!map.remove(&h, 1));
        assert_eq!(map.get(&h, 1), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn replace_and_remove_entry_return_displaced_values() {
        let (_p, h, map) = setup(2); // heavy chaining
        assert_eq!(map.replace(&h, 7, 70), None);
        assert_eq!(map.replace(&h, 9, 90), None);
        assert_eq!(map.replace(&h, 7, 71), Some(70));
        assert_eq!(map.get(&h, 7), Some(71));
        assert_eq!(map.remove_entry(&h, 7), Some(71));
        assert_eq!(map.remove_entry(&h, 7), None);
        assert_eq!(map.remove_entry(&h, 9), Some(90));
        assert!(map.is_empty());
    }

    #[test]
    fn collisions_chain_correctly() {
        let (_p, h, map) = setup(2); // heavy chaining
        for k in 0..100 {
            assert!(map.insert(&h, k, k * 2));
        }
        for k in 0..100 {
            assert_eq!(map.get(&h, k), Some(k * 2), "key {k}");
        }
        // Remove every third key, check the rest.
        for k in (0..100).step_by(3) {
            assert!(map.remove(&h, k));
        }
        for k in 0..100 {
            let expect = if k % 3 == 0 { None } else { Some(k * 2) };
            assert_eq!(map.get(&h, k), expect, "key {k}");
        }
    }

    #[test]
    fn reopen_finds_same_data() {
        let (pool, h, map) = setup(16);
        map.insert(&h, 5, 50);
        let desc = map.desc();
        drop(map);
        let map2 = PHashMap::open(&pool, desc);
        assert_eq!(map2.get(&h, 5), Some(50));
    }

    #[test]
    fn concurrent_inserts_disjoint_keys() {
        let (pool, h, map) = setup(256);
        drop(h);
        let map = Arc::new(map);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = Arc::clone(&map);
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let h = pool.register();
                    for i in 0..500 {
                        map.insert(&h, t * 10_000 + i, i);
                    }
                });
            }
        });
        assert_eq!(map.len(), 2000);
        let h = pool.register();
        for t in 0..4u64 {
            for i in 0..500 {
                assert_eq!(map.get(&h, t * 10_000 + i), Some(i));
            }
        }
    }

    #[test]
    fn crash_recovers_to_checkpoint() {
        let region = Region::new(respct_pmem::RegionConfig::sim(
            64 << 20,
            respct_pmem::SimConfig::with_eviction(4, 99),
        ));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        let map = PHashMap::create(&h, 32);
        for k in 0..50 {
            map.insert(&h, k, k + 1000);
        }
        map.remove(&h, 0);
        h.set_root(map.desc());
        h.checkpoint_here();
        // Crashed epoch: updates, inserts, removes — all must vanish.
        for k in 0..50 {
            map.insert(&h, k, 9999);
        }
        for k in 100..150 {
            map.insert(&h, k, k);
        }
        map.remove(&h, 1);
        drop(h);
        drop(map);
        drop(pool);
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        region.restore(&img);
        let (pool2, _rep) =
            Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let map2 = PHashMap::open(&pool2, pool2.root());
        let mut got = map2.collect();
        got.sort_unstable();
        let expect: Vec<(u64, u64)> = (1..50).map(|k| (k, k + 1000)).collect();
        assert_eq!(got, expect);
    }
}
