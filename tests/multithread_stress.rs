//! Multi-threaded stress tests: workers + the periodic checkpointer +
//! registration churn + condition variables, all running concurrently on
//! the real runtime. These exercise the paper's liveness argument
//! (Proposition 4.3 — checkpoints always complete) and the quiescence
//! protocol under scheduling noise.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use respct_repro::ds::{PHashMap, PQueue};
use respct_repro::pmem::{Region, RegionConfig};
use respct_repro::respct::{Pool, PoolConfig, RCondvar};

fn pool(mb: usize) -> Arc<Pool> {
    Pool::create(
        Region::new(RegionConfig::fast(mb << 20)),
        PoolConfig::default(),
    )
    .expect("pool")
}

#[test]
fn map_and_queue_under_fast_checkpoints() {
    let pool = pool(128);
    let h = pool.register();
    let map = Arc::new(PHashMap::create(&h, 256));
    let queue = Arc::new(PQueue::create(&h));
    drop(h);
    let _ckpt = pool.start_checkpointer(Duration::from_millis(1));

    std::thread::scope(|s| {
        for t in 0..3u64 {
            let (pool, map, queue) = (Arc::clone(&pool), Arc::clone(&map), Arc::clone(&queue));
            s.spawn(move || {
                let h = pool.register();
                for i in 0..4_000u64 {
                    map.insert(&h, t * 100_000 + i % 500, i);
                    h.rp(1);
                    queue.enqueue(&h, t * 100_000 + i);
                    h.rp(2);
                    if i % 3 == 0 {
                        queue.dequeue(&h);
                        h.rp(3);
                    }
                    if i % 7 == 0 {
                        map.remove(&h, t * 100_000 + i % 500);
                        h.rp(4);
                    }
                }
            });
        }
    });
    // Consistency: every remaining map entry belongs to some thread's range.
    for (k, _v) in map.collect() {
        assert!(k % 100_000 < 500);
    }
    // On a 1-CPU container the workload may finish before many timer ticks
    // fire; require at least one periodic checkpoint and force one more.
    pool.checkpoint_now();
    assert!(
        pool.runtime_metrics().ckpt_snapshot().count >= 2,
        "checkpoints must keep completing"
    );
}

#[test]
fn registration_churn_under_checkpoints() {
    let pool = pool(64);
    let _ckpt = pool.start_checkpointer(Duration::from_millis(1));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for round in 0..50 {
                    let h = pool.register();
                    let c = h.alloc_cell(t * 1000 + round);
                    h.update(c, 1 + t * 1000 + round);
                    h.rp(5);
                    assert_eq!(h.get(c), 1 + t * 1000 + round);
                    drop(h); // deregister mid-flight
                }
            });
        }
    });
    pool.checkpoint_now();
    assert!(pool.epoch() > 1);
}

#[test]
fn checkpoint_completes_with_mixed_blocked_and_running_threads() {
    let pool = pool(64);
    let mutex = Arc::new(Mutex::new(0u64));
    let cv = Arc::new(RCondvar::new());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Two waiters blocked on the condvar.
        for _ in 0..2 {
            let (pool, mutex, cv) = (Arc::clone(&pool), Arc::clone(&mutex), Arc::clone(&cv));
            s.spawn(move || {
                let mut h = pool.register();
                h.rp(1);
                let mut guard = mutex.lock();
                while *guard == 0 {
                    guard = cv.wait(&mut h, &mutex, guard);
                }
            });
        }
        // Two busy workers hitting RPs.
        for t in 0..2u64 {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            s.spawn(move || {
                let h = pool.register();
                let c = h.alloc_cell(0u64);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.update(c, i);
                    h.rp(10 + t);
                    i += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        // Checkpoints must complete even with two threads parked in waits.
        let before = pool.epoch();
        pool.checkpoint_now();
        pool.checkpoint_now();
        assert_eq!(pool.epoch(), before + 2);
        // Release everyone.
        *mutex.lock() = 1;
        cv.notify_all();
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn many_threads_each_with_own_cells() {
    let pool = pool(128);
    let _ckpt = pool.start_checkpointer(Duration::from_millis(2));
    let results: Vec<u64> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..8u64 {
            let pool = Arc::clone(&pool);
            joins.push(s.spawn(move || {
                let h = pool.register();
                let acc = h.alloc_cell(0u64);
                for i in 1..=2_000u64 {
                    h.update(acc, h.get(acc) + i);
                    if i % 50 == 0 {
                        h.rp(100 + t);
                    }
                }
                h.get(acc)
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("worker"))
            .collect()
    });
    for r in results {
        assert_eq!(r, 2_000 * 2_001 / 2);
    }
}

#[test]
fn concurrent_checkpoint_now_calls_serialize() {
    let pool = pool(32);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for _ in 0..10 {
                    pool.checkpoint_now();
                }
            });
        }
    });
    assert_eq!(
        pool.epoch(),
        1 + 40,
        "every checkpoint advances exactly one epoch"
    );
}

/// A worker that panics while holding a pool lock — here the allocator's
/// bump lock, on pool exhaustion — must not take checkpoints down with it.
/// The checkpointer locks the same mutex inside its stop-the-world window
/// (`sync_deferred_cells`), so a lock the panic left poisoned would panic
/// there with `timer` raised, and every live worker would park forever.
#[test]
fn panic_under_a_pool_lock_does_not_stop_checkpoints() {
    let pool = pool(8);
    let cell = {
        let h = pool.register();
        let cell = h.alloc_cell(1u64);
        h.checkpoint_here();
        cell
    };
    let ckpt = pool.start_checkpointer(Duration::from_millis(1));
    let filler = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let h = pool.register();
            loop {
                h.alloc(1 << 16, 64);
                h.rp(1);
            }
        })
    };
    assert!(filler.join().is_err(), "the filler must exhaust the pool");

    let start = pool.epoch();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pool.epoch() < start + 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "checkpoints stopped after the panic (epoch {})",
            pool.epoch()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let h = pool.register();
    h.update(cell, 2);
    h.checkpoint_here();
    assert_eq!(h.get(cell), 2);
    drop(h);
    drop(ckpt);
    pool.checkpoint_now();
    let report = pool.verify();
    assert!(report.is_clean(), "{report:#?}");
}
