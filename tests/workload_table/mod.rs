//! The clean-run table shared by `tests/analysis_model.rs` and
//! `tests/race_detector.rs`: the standard workloads (hash map, queue, CoW
//! kv-store, crash/recovery cycles, and a single-thread hot-key loop) × the
//! checkpoint depths (0: the inline drain; 1 and 4: the executor) ×
//! the two ways epochs close (the timer checkpointer, workers'
//! `checkpoint_here()`). Every row runs on an evicting simulator with the
//! [`Checker`] attached. Each test runs its own slice of rows through
//! [`check_rows`]; no row runs twice.

// Each test crate that includes this module uses only part of it.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use respct::{CheckpointerGuard, PAddr, Pool, PoolConfig, ThreadHandle};
use respct_analysis::Checker;
use respct_ds::{rp_ids, PHashMap, PQueue};
use respct_pmem::sim::CrashMode;
use respct_pmem::{Region, RegionConfig, SimConfig, TeeSink, TraceEvent, TraceMarker, TraceSink};

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 1_500;
const CKPT_PERIOD: Duration = Duration::from_millis(5);
/// Worker-driven rows: each worker closes an epoch every this many ops.
const WORKER_CKPT_EVERY: u64 = 250;

/// Checkpoint depths: 0 drains inline, 1 and 4 on the executor.
pub const DEPTHS: [usize; 3] = [0, 1, 4];

/// Both ways epochs close.
pub const DRIVERS: [Driver; 2] = [Driver::Timer, Driver::Worker];

/// Pool config at a depth of [`DEPTHS`] with `flushers` flusher threads.
pub fn depth_cfg(depth: usize, flushers: usize) -> PoolConfig {
    PoolConfig::builder()
        .depth(depth)
        .flusher_threads(flushers)
        .build()
        .expect("config")
}

/// Who closes epochs while a row's workers run.
#[derive(Clone, Copy, Debug)]
pub enum Driver {
    /// The pool's periodic checkpointer thread.
    Timer,
    /// The workers themselves, via `checkpoint_here()`.
    Worker,
}

impl Driver {
    /// The timer checkpointer for a `Timer` row; keep it alive for the run.
    fn start(self, pool: &Arc<Pool>) -> Option<CheckpointerGuard> {
        matches!(self, Driver::Timer).then(|| pool.start_checkpointer(CKPT_PERIOD))
    }

    /// Called by a worker after its `i`-th op: a `Worker` row checkpoints
    /// every [`WORKER_CKPT_EVERY`] ops.
    fn tick(self, h: &ThreadHandle, i: u64) {
        if matches!(self, Driver::Worker) && i % WORKER_CKPT_EVERY == WORKER_CKPT_EVERY - 1 {
            h.checkpoint_here();
        }
    }
}

/// One workload of the table: how to run it, and the region and pool it
/// runs on.
pub struct Workload {
    /// Formats a pool with the given config on the region and runs to the
    /// end, closing epochs through the driver.
    run: fn(&Arc<Region>, PoolConfig, Driver),
    region_bytes: usize,
    /// Simulator eviction seed.
    seed: u64,
    flusher_threads: usize,
}

/// Two dedicated flushers: the sharded parallel flush path (shard claiming +
/// per-worker fences) runs under the checker's shard-fence rule, not just
/// the inline fallback.
pub const HASHMAP: Workload = Workload {
    run: hashmap,
    region_bytes: 64 << 20,
    seed: 11,
    flusher_threads: 2,
};

pub const QUEUE: Workload = Workload {
    run: queue,
    region_bytes: 64 << 20,
    seed: 22,
    flusher_threads: 0,
};

pub const KVSTORE: Workload = Workload {
    run: kvstore,
    region_bytes: 128 << 20,
    seed: 33,
    flusher_threads: 0,
};

pub const RECOVERY: Workload = Workload {
    run: recovery,
    region_bytes: 32 << 20,
    seed: 44,
    flusher_threads: 0,
};

pub const HOT_KEYS: Workload = Workload {
    run: hot_keys,
    region_bytes: 32 << 20,
    seed: 55,
    flusher_threads: 0,
};

/// Counts the completed checkpoints and ring commits a row's trace carries,
/// so no row can pass without having checkpointed.
#[derive(Default)]
struct Tally {
    checkpoints: AtomicU64,
    ring_commits: AtomicU64,
}

impl TraceSink for Tally {
    fn event(&self, ev: &TraceEvent) {
        if let TraceEvent::Marker { marker, .. } = ev {
            match marker {
                TraceMarker::CheckpointEnd { .. } => &self.checkpoints,
                TraceMarker::RingCommit { .. } => &self.ring_commits,
                _ => return,
            }
            .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs the rows `depths` × `drivers` of `w`, each on a fresh evicting sim
/// region with the checker teed onto its trace. Depth-0 rows must be
/// spotless: no finding of any severity. Executor rows may report `RedundantFlush` perf advisories (an
/// on-demand push-out can write back a line the drain flushes again) but no
/// error.
pub fn check_rows(w: &Workload, depths: &[usize], drivers: &[Driver]) {
    for &depth in depths {
        for &driver in drivers {
            let row = format!("depth={depth} driver={driver:?}");
            // Eviction rate 4: roughly one line evicted per 2^4 stores —
            // enough to exercise the eviction paths without swamping the
            // trace.
            let region = Region::new(RegionConfig::sim(
                w.region_bytes,
                SimConfig::with_eviction(4, w.seed),
            ));
            let checker = Arc::new(Checker::new());
            let tally = Arc::new(Tally::default());
            region.set_trace_sink(Arc::new(TeeSink::new(vec![
                Arc::clone(&checker) as Arc<dyn TraceSink>,
                Arc::clone(&tally) as Arc<dyn TraceSink>,
            ])));
            (w.run)(&region, depth_cfg(depth, w.flusher_threads), driver);

            let checkpoints = tally.checkpoints.load(Ordering::Relaxed);
            let commits = tally.ring_commits.load(Ordering::Relaxed);
            assert!(checkpoints > 0, "{row}: no checkpoint completed");
            assert!(commits > 0, "{row}: no ring commit");
            // A depth-0 checkpoint commits its own ring slot before it
            // ends: exactly one commit per checkpoint.
            assert!(
                depth > 0 || commits == checkpoints,
                "{row}: {commits} ring commits for {checkpoints} checkpoints"
            );
            let report = checker.report();
            assert!(report.events > 0, "{row}: the checker saw an empty trace");
            if depth == 0 {
                assert!(
                    report.diagnostics.is_empty() && report.suppressed == 0,
                    "{row}:\n{report}"
                );
            } else {
                assert!(report.is_clean(), "{row}:\n{report}");
            }
        }
    }
}

fn hashmap(region: &Arc<Region>, cfg: PoolConfig, driver: Driver) {
    let pool = Pool::create(Arc::clone(region), cfg).expect("pool");
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 512);
        h.set_root(map.desc());
        map
    };
    let _ckpt = driver.start(&pool);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..OPS_PER_THREAD {
                    let k = t * OPS_PER_THREAD + i;
                    map.insert(&h, k, k * 3);
                    h.rp(rp_ids::MAP_INSERT);
                    if i % 3 == 0 {
                        map.get(&h, k);
                        h.rp(rp_ids::MAP_GET);
                    }
                    if i % 5 == 0 {
                        map.remove(&h, k);
                        h.rp(rp_ids::MAP_REMOVE);
                    }
                    driver.tick(&h, i);
                }
            });
        }
    });
    pool.register().checkpoint_here();
}

fn queue(region: &Arc<Region>, cfg: PoolConfig, driver: Driver) {
    let pool = Pool::create(Arc::clone(region), cfg).expect("pool");
    let queue = {
        let h = pool.register();
        let q = PQueue::create(&h);
        h.set_root(q.desc());
        q
    };
    let _ckpt = driver.start(&pool);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, queue) = (&pool, &queue);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..OPS_PER_THREAD {
                    queue.enqueue(&h, t * OPS_PER_THREAD + i);
                    h.rp(rp_ids::QUEUE_ENQ);
                    if i % 2 == 0 {
                        queue.dequeue(&h);
                        h.rp(rp_ids::QUEUE_DEQ);
                    }
                    driver.tick(&h, i);
                }
            });
        }
    });
    pool.register().checkpoint_here();
}

/// A memcached-style workload: persistent map from key to copy-on-write
/// value blob (the shape of `KvService`'s ResPCT store).
fn kvstore(region: &Arc<Region>, cfg: PoolConfig, driver: Driver) {
    const VALUE: u64 = 128;
    let pool = Pool::create(Arc::clone(region), cfg).expect("pool");
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 512);
        h.set_root(map.desc());
        map
    };
    let _ckpt = driver.start(&pool);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                let mut buf = vec![0u8; VALUE as usize];
                for i in 0..OPS_PER_THREAD {
                    // Keys are partitioned per thread (as in the kvstore
                    // app): the get-old/insert-new/free-old sequence is not
                    // atomic, so racing puts on one key would double-free
                    // the old blob.
                    let k = t * 1_000 + (i % 500);
                    if i % 4 == 0 {
                        // Get: read the blob through the map.
                        if let Some(blob) = map.get(&h, k) {
                            pool.region().load_bytes(PAddr(blob), &mut buf);
                        }
                        h.rp(601);
                    } else {
                        // Put: CoW blob, written + tracked while
                        // unreachable, then the value cell swings to it.
                        buf.fill((i % 251) as u8);
                        let blob = h.alloc(VALUE, 64);
                        pool.region().store_bytes(blob, &buf);
                        h.add_modified(blob, VALUE as usize);
                        let old = map.get(&h, k);
                        map.insert(&h, k, blob.0);
                        if let Some(old) = old {
                            h.free(PAddr(old), VALUE);
                        }
                        h.rp(600);
                    }
                    driver.tick(&h, i);
                }
            });
        }
    });
    pool.register().checkpoint_here();
}

/// Crash in a dirty epoch, recover, re-execute, checkpoint, repeat. The
/// single worker's own `checkpoint_here()` calls close its epochs in every
/// row; a `Timer` row adds the checkpointer on each recovered pool.
fn recovery(region: &Arc<Region>, cfg: PoolConfig, driver: Driver) {
    let mut cells = Vec::new();
    {
        let pool = Pool::create(Arc::clone(region), cfg.clone()).expect("pool");
        let h = pool.register();
        for i in 0..200u64 {
            cells.push(h.alloc_cell(i));
        }
        h.checkpoint_here();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, 1_000 + i as u64); // crashed-epoch updates
        }
    }
    for round in 0..3u64 {
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _report) = Pool::recover(Arc::clone(region), cfg.clone()).expect("recover");
        let _ckpt = driver.start(&pool);
        let h = pool.register();
        for (i, c) in (0u64..).zip(&cells) {
            h.update(*c, (round + 2) * 1_000 + i); // re-execution
            h.rp(700);
        }
        h.checkpoint_here();
        for c in &cells {
            h.update(*c, 7); // dirty the next epoch, then crash again
        }
    }
}

/// One worker overwriting 300 keys round-robin: most puts overwrite a value
/// written in an earlier epoch, so each must log in-line before its store.
fn hot_keys(region: &Arc<Region>, cfg: PoolConfig, driver: Driver) {
    let pool = Pool::create(Arc::clone(region), cfg).expect("pool");
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 64);
        h.set_root(map.desc());
        map
    };
    {
        let _ckpt = driver.start(&pool);
        let h = pool.register();
        for i in 0..2_000u64 {
            map.insert(&h, i % 300, i);
            h.rp(rp_ids::MAP_INSERT);
            driver.tick(&h, i);
        }
    }
    pool.register().checkpoint_here();
}
