//! All four persistent containers sharing one pool, mutated concurrently
//! with periodic checkpoints, crashed, and recovered together — the
//! "application with several persistent structures" scenario a
//! general-purpose runtime must handle (the paper's motivation for RPs
//! over per-structure solutions like the original InCLL Masstree).

use std::sync::Arc;
use std::time::Duration;

use respct_repro::ds::{PHashMap, POrderedMap, PQueue, PVec};
use respct_repro::pmem::{sim::CrashMode, PAddr, Region, RegionConfig, SimConfig};
use respct_repro::respct::{Pool, PoolConfig};

struct World {
    map: PHashMap,
    queue: PQueue,
    vec: PVec,
    ordered: POrderedMap,
}

fn create_world(pool: &Arc<Pool>) -> World {
    let h = pool.register();
    let map = PHashMap::create(&h, 64);
    let queue = PQueue::create(&h);
    let vec = PVec::create(&h, 8);
    let ordered = POrderedMap::create(&h);
    let root = h.alloc(64, 64);
    h.store_tracked(root, map.desc().0);
    h.store_tracked(PAddr(root.0 + 8), queue.desc().0);
    h.store_tracked(PAddr(root.0 + 16), vec.desc().0);
    h.store_tracked(PAddr(root.0 + 24), ordered.desc().0);
    h.set_root(root);
    World {
        map,
        queue,
        vec,
        ordered,
    }
}

fn open_world(pool: &Arc<Pool>) -> World {
    let root = pool.root();
    let rd = |o: u64| PAddr(pool.region().load::<u64>(PAddr(root.0 + o)));
    World {
        map: PHashMap::open(pool, rd(0)),
        queue: PQueue::open(pool, rd(8)),
        vec: PVec::open(pool, rd(16)),
        ordered: POrderedMap::open(pool, rd(24)),
    }
}

#[test]
fn four_containers_one_pool_crash_and_recover() {
    let region = Region::new(RegionConfig::sim(64 << 20, SimConfig::with_eviction(4, 77)));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    let w = create_world(&pool);
    {
        let h = pool.register();
        for i in 0..40u64 {
            w.map.insert(&h, i, i + 1);
            w.queue.enqueue(&h, i * 2);
            w.vec.push(&h, i * 3);
            w.ordered.insert(&h, i * 7 % 40, i);
        }
        h.checkpoint_here();
        // Crashed epoch: touch everything.
        for i in 0..40u64 {
            w.map.insert(&h, i, 0);
            w.queue.dequeue(&h);
            w.vec.set(&h, i, 0);
            w.ordered.remove(&h, i * 7 % 40);
        }
    }
    drop(w);
    drop(pool);
    let img = region.crash(CrashMode::PowerFailure);
    region.restore(&img);
    let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
    let audit = pool.verify();
    assert!(audit.is_clean(), "pool integrity after crash: {audit:#?}");
    let w = open_world(&pool);
    let mut map_got = w.map.collect();
    map_got.sort_unstable();
    assert_eq!(map_got, (0..40).map(|i| (i, i + 1)).collect::<Vec<_>>());
    assert_eq!(
        w.queue.collect(),
        (0..40).map(|i| i * 2).collect::<Vec<_>>()
    );
    assert_eq!(w.vec.collect(), (0..40).map(|i| i * 3).collect::<Vec<_>>());
    assert_eq!(w.ordered.len(), 40);
}

#[test]
fn concurrent_mutation_of_all_containers_with_checkpoints() {
    let pool = Pool::create(
        Region::new(RegionConfig::fast(128 << 20)),
        PoolConfig::default(),
    )
    .expect("pool");
    let w = Arc::new(create_world(&pool));
    let ckpt = pool.start_checkpointer(Duration::from_millis(2));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (pool, w) = (Arc::clone(&pool), Arc::clone(&w));
            s.spawn(move || {
                let h = pool.register();
                for i in 0..1500u64 {
                    match (t + i) % 4 {
                        0 => {
                            w.map.insert(&h, t * 10_000 + i, i);
                        }
                        1 => {
                            w.queue.enqueue(&h, i);
                            w.queue.dequeue(&h);
                        }
                        2 => {
                            w.ordered.insert(&h, t * 10_000 + i, i);
                        }
                        _ => {
                            let _ = w.map.get(&h, t * 10_000 + i);
                        }
                    }
                    h.rp(900 + t);
                }
            });
        }
    });
    // `verify` audits the *persistent* state against the runtime's: stop
    // the checkpointer and close the open epoch first, or it sees the
    // epoch counter mid-commit, or a free-list head cell that lags the
    // blocks popped (and overwritten) since the last checkpoint.
    drop(ckpt);
    pool.checkpoint_now();
    let report = pool.verify();
    assert!(report.is_clean(), "{report:?}");
    assert!(!w.map.is_empty());
    assert!(!w.ordered.is_empty());
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    // Five crash/recover cycles with progress in between: each cycle must
    // preserve everything checkpointed so far.
    let region = Region::new(RegionConfig::sim(64 << 20, SimConfig::with_eviction(3, 5)));
    let mut expected: Vec<(u64, u64)> = Vec::new();
    {
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        create_world(&pool);
        pool.checkpoint_now();
    }
    for cycle in 0..5u64 {
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let w = open_world(&pool);
        let mut got = w.map.collect();
        got.sort_unstable();
        let mut want = expected.clone();
        want.sort_unstable();
        assert_eq!(got, want, "cycle {cycle}");
        // Make durable progress plus some doomed work.
        let h = pool.register();
        w.map.insert(&h, cycle, cycle * 11);
        expected.push((cycle, cycle * 11));
        h.checkpoint_here();
        w.map.insert(&h, 1000 + cycle, 1); // lost in the next crash
        drop(h);
    }
}
