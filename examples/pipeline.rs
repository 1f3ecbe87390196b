//! Condition variables under ResPCT (paper §3.3.3, Fig. 7): a two-stage
//! producer/consumer pipeline over a bounded buffer, with checkpoints
//! running while threads are blocked in `cond_wait`.
//!
//! The consumer maintains a persistent running sum (InCLL); both sides use
//! [`RCondvar`], which wraps waits in `checkpoint_allow` /
//! `checkpoint_prevent(mutex)` so a blocked thread never deadlocks a
//! checkpoint, and resumes only after any in-flight checkpoint finishes.
//!
//! Run with: `cargo run --release --example pipeline`

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use respct_repro::pmem::{Region, RegionConfig};
use respct_repro::respct::{Pool, PoolConfig, RCondvar};

const ITEMS: u64 = 50_000;
const CAPACITY: usize = 32;

fn main() {
    let region = Region::new(RegionConfig::optane(16 << 20));
    let pool = Pool::create(region, PoolConfig::default()).expect("pool");
    let _ckpt = pool.start_checkpointer(Duration::from_millis(4));

    let buffer: Arc<Mutex<VecDeque<u64>>> = Arc::new(Mutex::new(VecDeque::new()));
    let not_empty = Arc::new(RCondvar::new());
    let not_full = Arc::new(RCondvar::new());

    let consumer = {
        let (pool, buffer) = (Arc::clone(&pool), Arc::clone(&buffer));
        let (not_empty, not_full) = (Arc::clone(&not_empty), Arc::clone(&not_full));
        std::thread::spawn(move || {
            let mut h = pool.register();
            let sum = h.alloc_cell(0u64);
            let mut received = 0u64;
            while received < ITEMS {
                // §3.3.3: RP immediately before the critical section, no
                // stores between lock acquisition and the wait.
                h.rp(10);
                let mut guard = buffer.lock();
                while guard.is_empty() {
                    guard = not_empty.wait(&mut h, &buffer, guard);
                }
                let v = guard.pop_front().expect("non-empty");
                drop(guard);
                not_full.notify_one();
                h.update(sum, h.get(sum) + v);
                received += 1;
            }
            let total = h.get(sum);
            h.checkpoint_here();
            total
        })
    };

    {
        let mut h = pool.register();
        for v in 1..=ITEMS {
            h.rp(20);
            let mut guard = buffer.lock();
            while guard.len() >= CAPACITY {
                guard = not_full.wait(&mut h, &buffer, guard);
            }
            guard.push_back(v);
            drop(guard);
            not_empty.notify_one();
        }
    }

    let total = consumer.join().expect("consumer");
    println!("pipeline moved {ITEMS} items; persistent sum = {total}");
    assert_eq!(total, ITEMS * (ITEMS + 1) / 2);
    let ckpts = pool.runtime_metrics().ckpt_snapshot().count;
    println!("{ckpts} checkpoints completed while the pipeline ran ✓");
    assert!(
        ckpts > 0,
        "checkpoints must complete despite blocked waiters"
    );
}
