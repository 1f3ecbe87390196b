//! Integration tests for the trace-based persistency checker
//! (`respct-analysis`) against the real runtime.
//!
//! Two directions, both required for the checker to be trustworthy:
//!
//! * **Soundness on clean runs** — the standard workloads (hash map, queue,
//!   CoW kv-store, crash/recovery cycles) produce *zero* diagnostics, not
//!   even perf advisories, on a deterministic no-eviction simulator.
//! * **Sensitivity to injected faults** — each `respct::Fault` (one dropped
//!   write-back, one skipped fence, one skipped InCLL log) yields a
//!   non-empty diagnostic list of exactly the matching kind.
//!
//! The root crate's dev-dependencies enable the `fault-inject` feature, so
//! `Pool::inject_fault` is available here without cfg gates.

use std::sync::Arc;
use std::time::Duration;

use respct::{Fault, PAddr, Pool, PoolConfig};
use respct_analysis::{Checker, DiagnosticKind};
use respct_ds::{rp_ids, PHashMap, PQueue};
use respct_pmem::sim::CrashMode;
use respct_pmem::{Region, RegionConfig, SimConfig};

/// Deterministic sim region (no evictions) with the checker attached.
fn checked_pool(bytes: usize, seed: u64) -> (Arc<Checker>, Arc<Pool>) {
    checked_pool_cfg(bytes, seed, PoolConfig::default())
}

/// Same, with an explicit pool configuration (async-checkpoint legs).
fn checked_pool_cfg(bytes: usize, seed: u64, cfg: PoolConfig) -> (Arc<Checker>, Arc<Pool>) {
    let region = Region::new(RegionConfig::sim(bytes, SimConfig::no_eviction(seed)));
    let checker = Checker::attach(&region);
    let pool = Pool::create(region, cfg).expect("pool");
    (checker, pool)
}

// ---------------------------------------------------------------------------
// Clean workloads: zero diagnostics end to end.
// ---------------------------------------------------------------------------

#[test]
fn hashmap_workload_is_clean() {
    let (checker, pool) = checked_pool(32 << 20, 1);
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 64);
        h.set_root(map.desc());
        map
    };
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..400 {
                    let k = t * 1_000 + i;
                    map.insert(&h, k, k + 7);
                    h.rp(rp_ids::MAP_INSERT);
                    if i % 4 == 0 {
                        map.remove(&h, k);
                        h.rp(rp_ids::MAP_REMOVE);
                    }
                    if i % 100 == 0 {
                        h.checkpoint_here();
                    }
                }
            });
        }
    });
    pool.register().checkpoint_here();
    let report = checker.report();
    assert!(
        report.diagnostics.is_empty() && report.suppressed == 0,
        "clean hashmap run produced diagnostics:\n{report}"
    );
}

#[test]
fn queue_workload_is_clean() {
    let (checker, pool) = checked_pool(32 << 20, 2);
    let queue = {
        let h = pool.register();
        let q = PQueue::create(&h);
        h.set_root(q.desc());
        q
    };
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let (pool, queue) = (&pool, &queue);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..400 {
                    queue.enqueue(&h, t * 1_000 + i);
                    h.rp(rp_ids::QUEUE_ENQ);
                    if i % 2 == 0 {
                        queue.dequeue(&h);
                        h.rp(rp_ids::QUEUE_DEQ);
                    }
                    if i % 100 == 0 {
                        h.checkpoint_here();
                    }
                }
            });
        }
    });
    pool.register().checkpoint_here();
    let report = checker.report();
    assert!(
        report.diagnostics.is_empty() && report.suppressed == 0,
        "clean queue run produced diagnostics:\n{report}"
    );
}

#[test]
fn kvstore_workload_is_clean() {
    const VALUE: u64 = 96;
    let (checker, pool) = checked_pool(64 << 20, 3);
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 64);
        h.set_root(map.desc());
        map
    };
    {
        let h = pool.register();
        let mut buf = vec![0u8; VALUE as usize];
        for i in 0..600u64 {
            let k = i % 100;
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
            if i % 150 == 0 {
                h.checkpoint_here();
            }
        }
        h.checkpoint_here();
    }
    let report = checker.report();
    assert!(
        report.diagnostics.is_empty() && report.suppressed == 0,
        "clean kvstore run produced diagnostics:\n{report}"
    );
}

#[test]
fn timer_checkpointer_run_is_clean() {
    let (checker, pool) = checked_pool(32 << 20, 4);
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 64);
        h.set_root(map.desc());
        map
    };
    {
        let _ckpt = pool.start_checkpointer(Duration::from_millis(2));
        let h = pool.register();
        for i in 0..2_000u64 {
            map.insert(&h, i % 300, i);
            h.rp(rp_ids::MAP_INSERT);
        }
    }
    pool.register().checkpoint_here();
    checker.assert_clean();
    assert!(
        checker.report().perf().is_empty(),
        "timer run had perf advisories"
    );
}

#[test]
fn crash_recovery_cycles_are_clean() {
    let region = Region::new(RegionConfig::sim(16 << 20, SimConfig::no_eviction(5)));
    let checker = Checker::attach(&region);
    let mut cells = Vec::new();
    {
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        for i in 0..100u64 {
            cells.push(h.alloc_cell(i));
        }
        h.checkpoint_here();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, 500 + i as u64); // dirty the epoch, then crash
        }
    }
    for round in 0..2u64 {
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _report) =
            Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let h = pool.register();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, (round + 1) * 1_000 + i as u64); // re-execution
        }
        h.checkpoint_here();
        for c in &cells {
            h.update(*c, 9);
        }
    }
    let report = checker.report();
    assert!(
        report.diagnostics.is_empty() && report.suppressed == 0,
        "clean crash/recovery run produced diagnostics:\n{report}"
    );
}

#[test]
fn async_hashmap_workload_is_clean() {
    // Asynchronous drains may double-flush a line the fast path pushed out
    // on demand — a RedundantFlush perf advisory, not an error — so this
    // asserts is_clean(), unlike the sync runs which demand zero output.
    let (checker, pool) = checked_pool_cfg(
        32 << 20,
        10,
        PoolConfig::builder()
            .async_checkpoint(true)
            .build()
            .unwrap(),
    );
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 64);
        h.set_root(map.desc());
        map
    };
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..400 {
                    let k = t * 1_000 + i;
                    map.insert(&h, k, k + 7);
                    h.rp(rp_ids::MAP_INSERT);
                    if i % 4 == 0 {
                        map.remove(&h, k);
                        h.rp(rp_ids::MAP_REMOVE);
                    }
                    if i % 100 == 0 {
                        h.checkpoint_here();
                    }
                }
            });
        }
    });
    pool.register().checkpoint_here();
    checker.assert_clean();
}

#[test]
fn async_timer_checkpointer_run_is_clean() {
    let (checker, pool) = checked_pool_cfg(
        32 << 20,
        11,
        PoolConfig::builder()
            .async_checkpoint(true)
            .build()
            .unwrap(),
    );
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 64);
        h.set_root(map.desc());
        map
    };
    {
        let _ckpt = pool.start_checkpointer(Duration::from_millis(2));
        let h = pool.register();
        for i in 0..2_000u64 {
            map.insert(&h, i % 300, i);
            h.rp(rp_ids::MAP_INSERT);
        }
    }
    pool.register().checkpoint_here();
    checker.assert_clean();
}

// ---------------------------------------------------------------------------
// Injected faults: the checker must catch each one, as the right kind.
// ---------------------------------------------------------------------------

/// A pool with a few dirty cells spread over multiple cache lines, ready to
/// checkpoint — the setup every fault test shares.
fn dirty_pool(seed: u64) -> (Arc<Checker>, Arc<Pool>, Vec<respct::ICell<u64>>) {
    let (checker, pool) = checked_pool(16 << 20, seed);
    let h = pool.register();
    let cells: Vec<_> = (0..32u64).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here();
    for (i, c) in cells.iter().enumerate() {
        h.update(*c, 100 + i as u64);
    }
    assert!(
        checker.report().diagnostics.is_empty(),
        "setup must be clean"
    );
    (checker, pool, cells)
}

#[test]
fn checker_catches_skipped_flush() {
    let (checker, pool, _cells) = dirty_pool(6);
    pool.inject_fault(Fault::SkipOneFlush);
    pool.register().checkpoint_here();
    let report = checker.report();
    let missed = report.of_kind(DiagnosticKind::MissedFlush);
    assert!(
        !missed.is_empty(),
        "dropped write-back not detected:\n{report}"
    );
    assert!(
        report
            .errors()
            .iter()
            .all(|d| d.kind == DiagnosticKind::MissedFlush),
        "dropped write-back misclassified:\n{report}"
    );
}

#[test]
fn checker_catches_skipped_fence() {
    let (checker, pool, _cells) = dirty_pool(7);
    pool.inject_fault(Fault::SkipFence);
    pool.register().checkpoint_here();
    let report = checker.report();
    let ordering = report.of_kind(DiagnosticKind::CrossLineOrdering);
    assert!(
        !ordering.is_empty(),
        "skipped fence not detected:\n{report}"
    );
    assert!(
        report
            .errors()
            .iter()
            .all(|d| d.kind == DiagnosticKind::CrossLineOrdering),
        "skipped fence misclassified:\n{report}"
    );
}

#[test]
fn checker_catches_skipped_incll_log() {
    let (checker, pool, cells) = dirty_pool(8);
    pool.register().checkpoint_here(); // cells now logged for an older epoch
    pool.inject_fault(Fault::SkipLog);
    pool.register().update(cells[0], 777); // first update of the new epoch
    let report = checker.report();
    let logging = report.of_kind(DiagnosticKind::LoggingViolation);
    assert!(
        !logging.is_empty(),
        "skipped InCLL log not detected:\n{report}"
    );
    assert!(
        report
            .errors()
            .iter()
            .all(|d| d.kind == DiagnosticKind::LoggingViolation),
        "skipped InCLL log misclassified:\n{report}"
    );
}

/// Async pool (ring depth 1) with dirty cells — the drain-fault tests'
/// shared setup. `checkpoint_here` returns only once the executor has
/// committed, so the checker has seen the whole drain when this returns.
/// The control asserts the identical fault-free sequence is clean, so a
/// passing fault test cannot be vacuous.
fn dirty_async_pool(seed: u64, fault: Option<Fault>) -> (Arc<Checker>, Arc<Pool>) {
    let (checker, pool) = checked_pool_cfg(
        16 << 20,
        seed,
        PoolConfig::builder()
            .async_checkpoint(true)
            .build()
            .unwrap(),
    );
    let h = pool.register();
    let cells: Vec<_> = (0..32u64).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here();
    for (i, c) in cells.iter().enumerate() {
        h.update(*c, 100 + i as u64);
    }
    assert!(checker.report().is_clean(), "setup must be clean");
    if let Some(f) = fault {
        pool.inject_fault(f);
    }
    drop(h);
    pool.register().checkpoint_here();
    (checker, pool)
}

#[test]
fn pipelined_hashmap_workload_is_clean() {
    // Epoch-ring pipelined drains (K = 4): overlapping drains may
    // double-flush pushed-out lines (perf advisories), but no
    // error-severity diagnostic — in particular no RingCommitOrder.
    let (checker, pool) = checked_pool_cfg(
        32 << 20,
        14,
        PoolConfig::builder()
            .async_checkpoint(true)
            .epoch_pipeline(4)
            .build()
            .unwrap(),
    );
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 64);
        h.set_root(map.desc());
        map
    };
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..400 {
                    let k = t * 1_000 + i;
                    map.insert(&h, k, k + 7);
                    h.rp(rp_ids::MAP_INSERT);
                    if i % 4 == 0 {
                        map.remove(&h, k);
                        h.rp(rp_ids::MAP_REMOVE);
                    }
                    if i % 100 == 0 {
                        h.checkpoint_here();
                    }
                }
            });
        }
    });
    pool.register().checkpoint_here();
    drop(pool); // joins the drain executor: every submitted epoch commits
    checker.assert_clean();
}

/// Pipelined pool (K = 2) driven through a deterministic schedule that
/// pins two drains in flight, with an optional fault armed before the
/// worker is released. The schedule is deadlock-free under `hold_drains`:
/// the held epochs are closed with `Pool::checkpoint_now` (which returns at
/// the release — `checkpoint_here` would wait for the held commit), and
/// they only touch cells whose tags are already committed, so no push-out
/// ever waits on a held drain either.
fn two_inflight_pipelined_run(seed: u64, fault: Option<Fault>) -> Arc<Checker> {
    let (checker, pool) = checked_pool_cfg(
        16 << 20,
        seed,
        PoolConfig::builder()
            .async_checkpoint(true)
            .epoch_pipeline(2)
            .build()
            .unwrap(),
    );
    let mut h = pool.register();
    let cells: Vec<_> = (0..32u64).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here(); // epoch 1 closed and committed: the worker is idle
    pool.hold_drains(true);
    // The worker re-checks the hold flag between 1 ms receive polls; wait
    // out one full poll so the tickets below queue behind a parked worker.
    std::thread::sleep(Duration::from_millis(10));
    if let Some(f) = fault {
        pool.inject_fault(f);
    }
    let close_epoch = |h: &mut respct::ThreadHandle| {
        let _allow = h.allow_checkpoints();
        pool.checkpoint_now();
    };
    // Tags are epoch 1 (< drain_oldest) throughout: plain backup logging,
    // no push-out, so the held worker cannot deadlock us.
    for (i, c) in cells.iter().enumerate().take(16) {
        h.update(*c, 100 + i as u64);
    }
    close_epoch(&mut h); // epoch 2 closed; its ticket is parked
    for (i, c) in cells.iter().enumerate().skip(16) {
        h.update(*c, 100 + i as u64);
    }
    close_epoch(&mut h); // epoch 3 closed: two tickets now outstanding
    pool.hold_drains(false);
    drop(h);
    drop(pool); // joins the executor: both tickets commit before this returns
    checker
}

#[test]
fn pipelined_two_inflight_control_run_is_clean() {
    let checker = two_inflight_pipelined_run(15, None);
    checker.assert_clean();
}

#[test]
fn checker_catches_skipped_ring_order() {
    // `SkipRingOrder` makes the executor commit the two outstanding
    // tickets newest-first: `RingCommit { 3 }` lands while epoch 2 is
    // still draining — exactly the checker's rule-7 violation.
    let checker = two_inflight_pipelined_run(15, Some(Fault::SkipRingOrder));
    let report = checker.report();
    let ring = report.of_kind(DiagnosticKind::RingCommitOrder);
    assert!(
        !ring.is_empty(),
        "out-of-order ring commit not detected:\n{report}"
    );
    assert!(
        ring.iter().any(|d| d.detail.contains("still draining")),
        "ring diagnostics must name the stale epoch:\n{report}"
    );
    assert!(!report.is_clean());
}

#[test]
fn async_drain_control_run_is_clean() {
    let (checker, _pool) = dirty_async_pool(12, None);
    checker.assert_clean();
}

#[test]
fn checker_catches_skipped_drain_commit_order() {
    // The fault fires on the drain executor: it commits ring slot 0
    // without having written the snapshot back.
    let (checker, _pool) = dirty_async_pool(12, Some(Fault::SkipDrainCommitOrder));
    let report = checker.report();
    let drain = report.of_kind(DiagnosticKind::RingCommitOrder);
    assert!(
        !drain.is_empty(),
        "commit-before-durable drain not detected:\n{report}"
    );
    assert!(
        drain.iter().all(|d| d.line.is_some()),
        "drain diagnostics must name the cache line:\n{report}"
    );
    assert!(!report.is_clean());
}

#[test]
fn faulty_run_still_counts_events_and_reports_lines() {
    let (checker, pool, _cells) = dirty_pool(9);
    pool.inject_fault(Fault::SkipOneFlush);
    pool.register().checkpoint_here();
    let report = checker.report();
    assert!(report.events > 0);
    let missed = report.of_kind(DiagnosticKind::MissedFlush);
    assert!(
        missed.iter().all(|d| d.line.is_some()),
        "missed-flush diagnostics must name the cache line:\n{report}"
    );
    assert!(!report.is_clean());
}
