//! A persistent ordered map (`POrderedMap`) under ResPCT.
//!
//! In-Cache-Line Logging was born in an ordered index (Cohen et al.'s
//! Masstree, the paper's reference \[9\]); this module brings an ordered
//! structure to the general-purpose runtime: a binary search tree
//! (single-lock, as the paper's queue) with crash-consistent links.
//!
//! Persistence analysis (§3.3.2):
//!
//! * child pointers and the root — read while descending, rewritten on
//!   insert/remove (WAR) → InCLL cells;
//! * values — overwritten in place → InCLL cells;
//! * keys — written once while the node is unreachable → plain tracked.
//!
//! Node layout (two cache lines, 128-byte class block):
//!
//! ```text
//! 0..8     key (plain)
//! 8..32    value ICell<u64>
//! 32..56   left  ICell<u64>
//! 64..88   right ICell<u64>   (second line)
//! ```
//!
//! Balancing: keys are perturbed into a treap-style priority derived from
//! the key hash; insertion is plain BST by key but descends comparing
//! hashed keys, which makes adversarial (sequential) insertion orders
//! behave like random insertions — expected O(log n) height without
//! rotations (rotations would churn many InCLL cells per op).

use std::sync::Arc;

use respct::{ICell, PAddr, Pool, ThreadHandle, TracedMutex};

use crate::hash_u64;

const NODE_SIZE: u64 = 128;
const N_KEY: u64 = 0;
const N_VAL: u64 = 8;
const N_LEFT: u64 = 32;
const N_RIGHT: u64 = 64;

const DESC_SIZE: u64 = 64;
const D_ROOT: u64 = 0; // ICell<u64>
const D_LEN: u64 = 32; // ICell<u64>

/// A persistent ordered map (`u64 → u64`) protected by one lock.
pub struct POrderedMap {
    pool: Arc<Pool>,
    desc: PAddr,
    lock: TracedMutex<()>,
}

#[inline]
fn val_cell(n: u64) -> ICell<u64> {
    ICell::from_addr(PAddr(n + N_VAL))
}

#[inline]
fn left_cell(n: u64) -> ICell<u64> {
    ICell::from_addr(PAddr(n + N_LEFT))
}

#[inline]
fn right_cell(n: u64) -> ICell<u64> {
    ICell::from_addr(PAddr(n + N_RIGHT))
}

/// Shuffled key used for tree ordering (de-adversarializes sequential
/// inserts); ties broken by the raw key, but hash collisions on distinct
/// u64 inputs do not occur for splitmix (it is a bijection).
#[inline]
fn shuffle(k: u64) -> u64 {
    hash_u64(k)
}

impl POrderedMap {
    /// Creates an empty map.
    pub fn create(h: &ThreadHandle) -> POrderedMap {
        let desc = h.alloc(DESC_SIZE, 64);
        h.init_cell_at::<u64>(PAddr(desc.0 + D_ROOT), 0);
        h.init_cell_at::<u64>(PAddr(desc.0 + D_LEN), 0);
        POrderedMap {
            lock: TracedMutex::new(()),
            pool: Arc::clone(h.pool()),
            desc,
        }
    }

    /// Re-opens from a descriptor (after recovery).
    pub fn open(pool: &Arc<Pool>, desc: PAddr) -> POrderedMap {
        POrderedMap {
            lock: TracedMutex::new(()),
            pool: Arc::clone(pool),
            desc,
        }
    }

    /// Persistent descriptor address.
    pub fn desc(&self) -> PAddr {
        self.desc
    }

    fn root_cell(&self) -> ICell<u64> {
        ICell::from_addr(PAddr(self.desc.0 + D_ROOT))
    }

    fn len_cell(&self) -> ICell<u64> {
        ICell::from_addr(PAddr(self.desc.0 + D_LEN))
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.pool.cell_get(self.len_cell())
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn key_of(&self, n: u64) -> u64 {
        self.pool.region().load(PAddr(n + N_KEY))
    }

    /// Inserts or updates; `true` when newly inserted.
    pub fn insert(&self, h: &ThreadHandle, k: u64, v: u64) -> bool {
        let _g = self.lock.lock(&self.pool);
        let sk = shuffle(k);
        // Descend to the insertion link.
        let mut link = self.root_cell();
        loop {
            let cur = h.get(link);
            if cur == 0 {
                let node = h.alloc(NODE_SIZE, 64);
                h.store_tracked(PAddr(node.0 + N_KEY), k);
                h.init_cell_at::<u64>(PAddr(node.0 + N_VAL), v);
                h.init_cell_at::<u64>(PAddr(node.0 + N_LEFT), 0);
                h.init_cell_at::<u64>(PAddr(node.0 + N_RIGHT), 0);
                h.update(link, node.0);
                h.update(self.len_cell(), h.get(self.len_cell()) + 1);
                return true;
            }
            let ck = self.key_of(cur);
            if ck == k {
                h.update(val_cell(cur), v);
                return false;
            }
            link = if sk < shuffle(ck) {
                left_cell(cur)
            } else {
                right_cell(cur)
            };
        }
    }

    /// Looks a key up.
    pub fn get(&self, h: &ThreadHandle, k: u64) -> Option<u64> {
        let _g = self.lock.lock(&self.pool);
        let sk = shuffle(k);
        let mut cur = h.get(self.root_cell());
        while cur != 0 {
            let ck = self.key_of(cur);
            if ck == k {
                return Some(h.get(val_cell(cur)));
            }
            cur = if sk < shuffle(ck) {
                h.get(left_cell(cur))
            } else {
                h.get(right_cell(cur))
            };
        }
        None
    }

    /// Removes `k`; `true` if present. Uses the classic BST deletion
    /// (successor splice), all link rewrites through InCLL cells.
    pub fn remove(&self, h: &ThreadHandle, k: u64) -> bool {
        let _g = self.lock.lock(&self.pool);
        let sk = shuffle(k);
        let mut link = self.root_cell();
        loop {
            let cur = h.get(link);
            if cur == 0 {
                return false;
            }
            let ck = self.key_of(cur);
            if ck != k {
                link = if sk < shuffle(ck) {
                    left_cell(cur)
                } else {
                    right_cell(cur)
                };
                continue;
            }
            // Found: splice.
            let l = h.get(left_cell(cur));
            let r = h.get(right_cell(cur));
            if l == 0 || r == 0 {
                h.update(link, l | r);
            } else {
                // Two children: find the in-order successor (leftmost of
                // the right subtree), unlink it, move its key/value here.
                // Moving the key is a plain tracked write: the successor
                // node's content replaces this node's, and the successor
                // node is freed. But the key is also read during descents
                // in this same epoch → it participates in WAR across RPs;
                // to stay within the §3.3.2 rules we relocate instead:
                // allocate a replacement node with the successor's k/v and
                // the current children.
                let mut s_link = right_cell(cur);
                let mut s = h.get(s_link);
                while h.get(left_cell(s)) != 0 {
                    s_link = left_cell(s);
                    s = h.get(s_link);
                }
                let (s_key, s_val) = (self.key_of(s), h.get(val_cell(s)));
                // Unlink the successor (it has no left child).
                h.update(s_link, h.get(right_cell(s)));
                h.free(PAddr(s), NODE_SIZE);
                // Replacement node adopting cur's children.
                let node = h.alloc(NODE_SIZE, 64);
                h.store_tracked(PAddr(node.0 + N_KEY), s_key);
                h.init_cell_at::<u64>(PAddr(node.0 + N_VAL), s_val);
                h.init_cell_at::<u64>(PAddr(node.0 + N_LEFT), h.get(left_cell(cur)));
                h.init_cell_at::<u64>(PAddr(node.0 + N_RIGHT), h.get(right_cell(cur)));
                h.update(link, node.0);
            }
            h.free(PAddr(cur), NODE_SIZE);
            h.update(self.len_cell(), h.get(self.len_cell()) - 1);
            return true;
        }
    }

    /// In-order traversal by *shuffled* order; returns pairs sorted by key
    /// after a final sort (the shuffle is only an internal balancing
    /// device).
    pub fn collect_sorted(&self) -> Vec<(u64, u64)> {
        let _g = self.lock.lock(&self.pool);
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut cur = self.pool.cell_get(self.root_cell());
        while cur != 0 || !stack.is_empty() {
            while cur != 0 {
                stack.push(cur);
                cur = self.pool.cell_get(left_cell(cur));
            }
            let n = stack.pop().expect("non-empty stack");
            out.push((self.key_of(n), self.pool.cell_get(val_cell(n))));
            cur = self.pool.cell_get(right_cell(n));
        }
        out.sort_unstable();
        out
    }

    /// Inclusive range query `[lo, hi]`, sorted by key.
    pub fn range(&self, h: &ThreadHandle, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let _ = h;
        self.collect_sorted()
            .into_iter()
            .filter(|&(k, _)| k >= lo && k <= hi)
            .collect()
    }

    /// Tree height (diagnostics: expected O(log n)).
    pub fn height(&self) -> usize {
        fn depth(pool: &Pool, n: u64) -> usize {
            if n == 0 {
                return 0;
            }
            1 + depth(pool, pool.cell_get(left_cell(n)))
                .max(depth(pool, pool.cell_get(right_cell(n))))
        }
        let _g = self.lock.lock(&self.pool);
        depth(&self.pool, self.pool.cell_get(self.root_cell()))
    }
}

impl crate::traits::BenchMap for POrderedMap {
    type Ctx = ThreadHandle;

    fn register(&self) -> ThreadHandle {
        self.pool.register()
    }

    fn insert(&self, ctx: &mut ThreadHandle, k: u64, v: u64) -> bool {
        let r = POrderedMap::insert(self, ctx, k, v);
        ctx.rp(crate::rp_ids::MAP_INSERT);
        r
    }

    fn remove(&self, ctx: &mut ThreadHandle, k: u64) -> bool {
        let r = POrderedMap::remove(self, ctx, k);
        ctx.rp(crate::rp_ids::MAP_REMOVE);
        r
    }

    fn get(&self, ctx: &mut ThreadHandle, k: u64) -> Option<u64> {
        let r = POrderedMap::get(self, ctx, k);
        ctx.rp(crate::rp_ids::MAP_GET);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct::PoolConfig;
    use respct_pmem::{sim::CrashMode, Region, RegionConfig, SimConfig};

    fn setup() -> (Arc<Pool>, ThreadHandle, POrderedMap) {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(64 << 20)),
            PoolConfig::default(),
        )
        .expect("pool");
        let h = pool.register();
        let m = POrderedMap::create(&h);
        (pool, h, m)
    }

    #[test]
    fn insert_get_remove() {
        let (_p, h, m) = setup();
        assert!(m.insert(&h, 5, 50));
        assert!(m.insert(&h, 3, 30));
        assert!(m.insert(&h, 8, 80));
        assert!(!m.insert(&h, 5, 55));
        assert_eq!(m.get(&h, 5), Some(55));
        assert_eq!(m.get(&h, 4), None);
        assert!(m.remove(&h, 5));
        assert!(!m.remove(&h, 5));
        assert_eq!(m.len(), 2);
        assert_eq!(m.collect_sorted(), vec![(3, 30), (8, 80)]);
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        let (_p, h, m) = setup();
        for k in 0..4096 {
            m.insert(&h, k, k);
        }
        let height = m.height();
        assert!(height < 48, "height {height} for 4096 shuffled keys");
        assert_eq!(m.len(), 4096);
    }

    #[test]
    fn removal_of_two_child_nodes() {
        let (_p, h, m) = setup();
        for k in 0..200u64 {
            m.insert(&h, k, k * 2);
        }
        for k in (0..200).step_by(2) {
            assert!(m.remove(&h, k), "key {k}");
        }
        let want: Vec<(u64, u64)> = (1..200).step_by(2).map(|k| (k, k * 2)).collect();
        assert_eq!(m.collect_sorted(), want);
    }

    #[test]
    fn range_query() {
        let (_p, h, m) = setup();
        for k in 0..100u64 {
            m.insert(&h, k * 3, k);
        }
        let r = m.range(&h, 10, 30);
        assert_eq!(
            r,
            vec![
                (12, 4),
                (15, 5),
                (18, 6),
                (21, 7),
                (24, 8),
                (27, 9),
                (30, 10)
            ]
        );
    }

    #[test]
    fn crash_recovers_to_checkpoint() {
        let region = Region::new(RegionConfig::sim(32 << 20, SimConfig::with_eviction(3, 17)));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        let m = POrderedMap::create(&h);
        for k in 0..60u64 {
            m.insert(&h, k, k + 500);
        }
        m.remove(&h, 10);
        h.set_root(m.desc());
        h.checkpoint_here();
        // Crashed epoch: heavy churn including structural removals.
        for k in 0..60u64 {
            m.insert(&h, k, 1);
        }
        for k in 20..40u64 {
            m.remove(&h, k);
        }
        for k in 100..140u64 {
            m.insert(&h, k, k);
        }
        drop(h);
        drop(m);
        drop(pool);
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let m = POrderedMap::open(&pool, pool.root());
        let want: Vec<(u64, u64)> = (0..60).filter(|&k| k != 10).map(|k| (k, k + 500)).collect();
        assert_eq!(m.collect_sorted(), want);
        // Usable after recovery.
        let h = pool.register();
        assert!(m.insert(&h, 10, 999));
        assert_eq!(m.len(), 60);
    }

    #[test]
    fn concurrent_smoke() {
        let (pool, h, m) = setup();
        drop(h);
        let m = Arc::new(m);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (pool, m) = (Arc::clone(&pool), Arc::clone(&m));
                s.spawn(move || {
                    let h = pool.register();
                    for i in 0..500 {
                        m.insert(&h, t * 10_000 + i, i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 2000);
    }
}
