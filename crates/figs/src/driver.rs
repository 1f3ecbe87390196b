//! Generic throughput drivers (paper §5.1 methodology).
//!
//! Every system is measured by the same loop: per-thread deterministic RNG,
//! uniform keys over the configured key space, an update/search mix where
//! half the updates are inserts and half deletes (exactly the paper's
//! workloads), and wall-clock-bounded measurement with the deadline checked
//! every few operations.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use respct_ds::traits::{BenchMap, BenchQueue};

/// Simple xorshift per-thread RNG (cheap; identical across systems).
#[derive(Clone)]
pub struct FastRng(u64);

impl FastRng {
    pub fn new(seed: u64) -> FastRng {
        FastRng(seed | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One measured data point.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    pub ops: u64,
    pub duration: Duration,
}

impl Throughput {
    /// Millions of operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.duration.as_secs_f64() / 1e6
    }

    /// Thousands of operations per second.
    pub fn kops(&self) -> f64 {
        self.ops as f64 / self.duration.as_secs_f64() / 1e3
    }
}

/// Pre-fills `map` with `keyspace/2` pairs (the paper pre-fills 1M pairs
/// into a 2M key space).
pub fn prefill_map<M: BenchMap>(map: &M, keyspace: u64) {
    let mut ctx = map.register();
    for k in (0..keyspace).step_by(2) {
        map.insert(&mut ctx, k, k.wrapping_mul(3));
    }
}

/// Runs the update/search mix for `secs` on `threads` threads.
///
/// `update_pct` is the percentage of updates (half inserts, half deletes),
/// the rest are searches — e.g. 10 for the paper's 1:9 workload.
pub fn run_map_mix<M: BenchMap>(
    map: &M,
    threads: usize,
    secs: f64,
    keyspace: u64,
    update_pct: u64,
    seed: u64,
) -> Throughput {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (stop, total) = (&stop, &total);
            let map = &map;
            s.spawn(move || {
                let mut ctx = map.register();
                let mut rng = FastRng::new(seed.wrapping_add(t as u64 * 0x9e37_79b9));
                let mut ops = 0u64;
                'outer: loop {
                    for _ in 0..64 {
                        let r = rng.next_u64();
                        let key = (r >> 8) % keyspace;
                        let roll = r % 100;
                        if roll < update_pct {
                            if roll.is_multiple_of(2) {
                                map.insert(&mut ctx, key, r);
                            } else {
                                map.remove(&mut ctx, key);
                            }
                        } else {
                            let _ = map.get(&mut ctx, key);
                        }
                        ops += 1;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        // Timer thread ends the measurement.
        let stop = &stop;
        s.spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, Ordering::Relaxed);
        });
    });
    Throughput {
        ops: total.load(Ordering::Relaxed),
        duration: t0.elapsed(),
    }
}

/// Pre-fills `queue` with `n` elements (paper: 1k).
pub fn prefill_queue<Q: BenchQueue>(queue: &Q, n: u64) {
    let mut ctx = queue.register();
    for v in 0..n {
        queue.enqueue(&mut ctx, v);
    }
}

/// Runs the 1:1 enqueue/dequeue mix for `secs` on `threads` threads.
pub fn run_queue_mix<Q: BenchQueue>(queue: &Q, threads: usize, secs: f64, seed: u64) -> Throughput {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (stop, total) = (&stop, &total);
            let queue = &queue;
            s.spawn(move || {
                let mut ctx = queue.register();
                let mut rng = FastRng::new(seed.wrapping_add(t as u64 * 0x51ed_270b));
                let mut ops = 0u64;
                'outer: loop {
                    for _ in 0..64 {
                        if rng.next_u64().is_multiple_of(2) {
                            queue.enqueue(&mut ctx, ops);
                        } else {
                            let _ = queue.dequeue(&mut ctx);
                        }
                        ops += 1;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        let stop = &stop;
        s.spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, Ordering::Relaxed);
        });
    });
    Throughput {
        ops: total.load(Ordering::Relaxed),
        duration: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct_ds::{TransientHashMap, TransientQueue};

    #[test]
    fn map_driver_measures_positive_throughput() {
        let map = TransientHashMap::new(1024);
        prefill_map(&map, 1000);
        let t = run_map_mix(&map, 2, 0.05, 1000, 50, 42);
        assert!(t.ops > 1000, "suspiciously low: {}", t.ops);
        assert!(t.mops() > 0.0);
    }

    #[test]
    fn queue_driver_measures_positive_throughput() {
        let q = TransientQueue::new();
        prefill_queue(&q, 100);
        let t = run_queue_mix(&q, 2, 0.05, 42);
        assert!(t.ops > 1000);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = FastRng::new(7);
        let mut b = FastRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
