//! Integration tests for the trace-based persistency checker
//! (`respct-analysis`) against the real runtime.
//!
//! Two directions, both required for the analyses to be trustworthy:
//!
//! * **Soundness on clean runs** — the rows of the shared clean-run table
//!   (`tests/workload_table`): the standard workloads × the checkpoint modes
//!   (synchronous, background drain at ring depths 1 and 4) × the two ways
//!   epochs close (the timer checkpointer, workers' `checkpoint_here()`),
//!   each on an evicting simulator with the [`Checker`] attached. The
//!   timer-driven hash-map and queue rows run in `tests/race_detector.rs`.
//! * **Sensitivity to injected faults** — each `respct::Fault` (one dropped
//!   write-back — on the inline drain and on the executor's — one skipped
//!   fence, one skipped InCLL log, a ring ordering bug) yields a non-empty
//!   diagnostic list of exactly the matching kind.
//!
//! The root crate's dev-dependencies enable the `fault-inject` feature, so
//! `Pool::inject_fault` is available here without cfg gates.

mod workload_table;

use std::sync::Arc;

use respct::{Fault, Pool, PoolConfig};
use respct_analysis::{Checker, DiagnosticKind};
use respct_pmem::{Region, RegionConfig, SimConfig};
use workload_table::{
    check_rows, Driver, DEPTHS, DRIVERS, HASHMAP, HOT_KEYS, KVSTORE, QUEUE, RECOVERY,
};

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
// Clean workloads: this file's slice of the clean-run table.
// ---------------------------------------------------------------------------

#[test]
fn hashmap_workload_is_clean() {
    check_rows(&HASHMAP, &[0], &[Driver::Worker]);
}

#[test]
fn async_hashmap_workload_is_clean() {
    check_rows(&HASHMAP, &[1], &[Driver::Worker]);
}

#[test]
fn pipelined_hashmap_workload_is_clean() {
    check_rows(&HASHMAP, &[4], &[Driver::Worker]);
}

#[test]
fn timer_checkpointer_run_is_clean() {
    check_rows(&HOT_KEYS, &[0], &[Driver::Timer]);
}

#[test]
fn async_timer_checkpointer_run_is_clean() {
    check_rows(&HOT_KEYS, &[1, 4], &[Driver::Timer]);
}

#[test]
fn queue_workload_is_clean() {
    check_rows(&QUEUE, &DEPTHS, &[Driver::Worker]);
}

#[test]
fn kvstore_workload_is_clean() {
    check_rows(&KVSTORE, &DEPTHS, &DRIVERS);
}

#[test]
fn crash_recovery_cycles_are_clean() {
    check_rows(&RECOVERY, &DEPTHS, &DRIVERS);
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

/// Depth-1 pool with dirty cells — the drain-fault tests'
/// shared setup. `checkpoint_here` returns only once the executor has
/// committed, so the checker has seen the whole drain when this returns.
/// The control asserts the identical fault-free sequence is clean, so a
/// passing fault test cannot be vacuous.
fn dirty_async_pool(seed: u64, fault: Option<Fault>) -> (Arc<Checker>, Arc<Pool>) {
    let (checker, pool) = checked_pool_cfg(
        16 << 20,
        seed,
        PoolConfig::builder().depth(1).build().unwrap(),
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

/// Depth-2 pool driven through a deterministic schedule that
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
        PoolConfig::builder().depth(2).build().unwrap(),
    );
    let mut h = pool.register();
    let cells: Vec<_> = (0..32u64).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here(); // epoch 1 closed and committed: the worker is idle
    pool.hold_drains(true);
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
    // still draining — exactly the checker's rule-1 ordering violation.
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
    // The fault fires on the drain executor: it commits ring slot 0 with
    // one snapshotted line never written back — the same missed flush, at
    // the same commit, as on a synchronous pool.
    let (checker, _pool) = dirty_async_pool(12, Some(Fault::SkipOneFlush));
    let report = checker.report();
    let missed = report.of_kind(DiagnosticKind::MissedFlush);
    assert!(
        !missed.is_empty(),
        "commit-before-durable drain not detected:\n{report}"
    );
    assert!(
        missed.iter().all(|d| d.line.is_some()),
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
