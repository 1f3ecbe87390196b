//! The flush pipeline: end-to-end parity between inline and parallel
//! flushing, the shape of the shards in the trace, and the checker's
//! classification of a dropped shard fence.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use respct_analysis::{Checker, DiagnosticKind};
use respct_repro::ds::PQueue;
use respct_repro::pmem::{
    sim::CrashMode, PAddr, Region, RegionConfig, SimConfig, TraceEvent, TraceMarker, VecSink,
};
use respct_repro::respct::{Fault, Pool, PoolConfig};

/// Checks one traced checkpoint's flush: every tracked line is written back
/// exactly once between `CheckpointBegin` and `OrderBarrier`, the shard
/// sizes sum to `lines`, and each claimer's shards are ascending and
/// disjoint ranges of lines.
fn check_flush_trace(events: &[TraceEvent], lines: u64) -> Result<(), TestCaseError> {
    let mut tracked = BTreeSet::new();
    let mut pwbs: BTreeMap<u64, u32> = BTreeMap::new();
    let mut shard_lines = 0;
    // Per claimer: the shards it opened, in order, with the lines it wrote
    // back inside each.
    let mut claimed: BTreeMap<u64, Vec<(u64, Vec<u64>)>> = BTreeMap::new();
    let mut in_checkpoint = false;
    for ev in events {
        match ev {
            TraceEvent::Marker { tid, marker } => match *marker {
                TraceMarker::TrackLine { line } => {
                    tracked.insert(line);
                }
                TraceMarker::CheckpointBegin { .. } => in_checkpoint = true,
                TraceMarker::OrderBarrier => break,
                TraceMarker::ShardFlushBegin { shard, lines } => {
                    shard_lines += lines;
                    claimed.entry(*tid).or_default().push((shard, Vec::new()));
                }
                _ => {}
            },
            TraceEvent::Pwb { tid, line } if in_checkpoint => {
                *pwbs.entry(*line).or_default() += 1;
                if let Some((_, written)) = claimed.get_mut(tid).and_then(|c| c.last_mut()) {
                    written.push(*line);
                }
            }
            _ => {}
        }
    }
    for line in &tracked {
        prop_assert_eq!(
            pwbs.get(line).copied(),
            Some(1),
            "line {} write-backs",
            line
        );
    }
    prop_assert_eq!(shard_lines, lines, "shard sizes vs the report");
    for (tid, shards) in &claimed {
        let order: Vec<u64> = shards.iter().map(|(s, _)| *s).collect();
        prop_assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "claimer {} took {:?}",
            tid,
            order
        );
        let written: Vec<u64> = shards.iter().flat_map(|(_, l)| l.iter().copied()).collect();
        prop_assert!(
            written.windows(2).all(|w| w[0] < w[1]),
            "claimer {}: ranges not ascending and disjoint: {:?}",
            tid,
            written
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// End to end on the real runtime: the same tracked-line workload
    /// flushed inline (0 flushers) and by flusher pools of 1 and 3 reports
    /// the same deduped line count and persists byte-identical heap state,
    /// and every run's trace passes [`check_flush_trace`].
    #[test]
    fn inline_and_parallel_flush_agree(offsets in proptest::collection::vec(0u64..256, 1..60)) {
        let mut outcomes = Vec::new();
        for flushers in [0usize, 1, 3] {
            let region = Region::new(RegionConfig::sim(4 << 20, SimConfig::no_eviction(3)));
            let sink = Arc::new(VecSink::new());
            region.set_trace_sink(sink.clone());
            let cfg = PoolConfig::builder()
                .flusher_threads(flushers)
                .build()
                .expect("config");
            let pool = Pool::create(Arc::clone(&region), cfg).expect("pool");
            let h = pool.register();
            let base = respct_repro::respct::layout::heap_start().0 + (4 << 10);
            for (i, &off) in offsets.iter().enumerate() {
                h.store_tracked(PAddr(base + off * 64), (i as u64) << 8 | off);
            }
            let r = h.checkpoint_here();
            drop(h);
            drop(pool);
            check_flush_trace(&sink.drain(), r.lines)?;
            let img = region.crash(CrashMode::PowerFailure);
            let heap: Vec<u8> =
                img.bytes()[base as usize..base as usize + 256 * 64].to_vec();
            outcomes.push((r.lines, heap));
        }
        for other in &outcomes[1..] {
            prop_assert_eq!(outcomes[0].0, other.0, "deduped line counts differ");
            prop_assert_eq!(&outcomes[0].1, &other.1, "persisted heap images differ");
        }
    }
}

/// A pool with dirty tracked lines spread across shards, plus the checker.
fn dirty_checked_pool(flushers: usize, seed: u64) -> (Arc<Checker>, Arc<Region>, Arc<Pool>) {
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(seed)));
    let checker = Checker::attach(&region);
    let cfg = PoolConfig::builder()
        .flusher_threads(flushers)
        .build()
        .expect("config");
    let pool = Pool::create(Arc::clone(&region), cfg).expect("pool");
    let h = pool.register();
    let cells: Vec<_> = (0..48u64).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here();
    for (i, c) in cells.iter().enumerate() {
        h.update(*c, 900 + i as u64);
    }
    drop(h);
    assert!(
        checker.report().diagnostics.is_empty(),
        "setup must be clean"
    );
    (checker, region, pool)
}

#[test]
fn checker_classifies_dropped_shard_fence_inline() {
    let (checker, _region, pool) = dirty_checked_pool(0, 21);
    pool.inject_fault(Fault::SkipShardFence);
    pool.register().checkpoint_here();
    let report = checker.report();
    let shard = report.of_kind(DiagnosticKind::ShardFence);
    assert!(
        !shard.is_empty(),
        "dropped shard fence not detected:\n{report}"
    );
    assert!(
        shard.iter().any(|d| d.detail.contains("still open")),
        "expected an open-at-barrier finding:\n{report}"
    );
    // The marked shard's write-backs are also unfenced at the barrier.
    assert!(
        !report.of_kind(DiagnosticKind::CrossLineOrdering).is_empty(),
        "unfenced write-backs not flagged:\n{report}"
    );
    // Inline, the epoch commit's own fence lands on the same thread before
    // the advance, so the damage is exactly {ShardFence, CrossLineOrdering}.
    assert!(
        report.errors().iter().all(|d| matches!(
            d.kind,
            DiagnosticKind::ShardFence | DiagnosticKind::CrossLineOrdering
        )),
        "dropped shard fence misclassified:\n{report}"
    );
}

#[test]
fn checker_classifies_dropped_shard_fence_parallel() {
    let (checker, _region, pool) = dirty_checked_pool(2, 22);
    pool.inject_fault(Fault::SkipShardFence);
    pool.register().checkpoint_here();
    let report = checker.report();
    assert!(
        !report.of_kind(DiagnosticKind::ShardFence).is_empty(),
        "dropped shard fence not detected on the parallel path:\n{report}"
    );
    // A flusher's skipped fence leaves its write-backs pending on the
    // flusher's own thread, so the commit can also outrun their durability:
    // ordering and missed-flush findings are legitimate companions.
    assert!(
        report.errors().iter().all(|d| matches!(
            d.kind,
            DiagnosticKind::ShardFence
                | DiagnosticKind::CrossLineOrdering
                | DiagnosticKind::MissedFlush
        )),
        "dropped shard fence misclassified:\n{report}"
    );
}

/// `SkipOneFlush` and `SkipFence` ride the same shard job as every other
/// flush, so with a flusher pool they are injected on the flusher threads —
/// and must still be caught.
#[test]
fn checker_catches_dropped_write_back_and_fence_on_the_parallel_path() {
    for (fault, kind) in [
        (Fault::SkipOneFlush, DiagnosticKind::MissedFlush),
        (Fault::SkipFence, DiagnosticKind::CrossLineOrdering),
    ] {
        let (checker, _region, pool) = dirty_checked_pool(2, 23);
        pool.inject_fault(fault);
        pool.register().checkpoint_here();
        let report = checker.report();
        assert!(
            !report.of_kind(kind).is_empty(),
            "{fault:?} not detected on the parallel path:\n{report}"
        );
    }
}

/// Like [`dirty_checked_pool`] but with the queue container dirtying the
/// lines: head/tail cursor cells plus freshly linked nodes, a different
/// line-shape from the flat cell array (cursor lines are re-dirtied every
/// op, node lines once each).
fn dirty_checked_queue(flushers: usize, seed: u64) -> (Arc<Checker>, Arc<Region>, Arc<Pool>) {
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(seed)));
    let checker = Checker::attach(&region);
    let cfg = PoolConfig::builder()
        .flusher_threads(flushers)
        .build()
        .expect("config");
    let pool = Pool::create(Arc::clone(&region), cfg).expect("pool");
    let h = pool.register();
    let queue = PQueue::create(&h);
    h.set_root(queue.desc());
    for v in 0..16u64 {
        queue.enqueue(&h, v);
    }
    h.checkpoint_here();
    for v in 16..48u64 {
        queue.enqueue(&h, v);
        if v % 3 == 0 {
            queue.dequeue(&h);
        }
    }
    drop(h);
    assert!(
        checker.report().diagnostics.is_empty(),
        "setup must be clean"
    );
    (checker, region, pool)
}

/// The shard-fence fault classification must not depend on the container
/// that dirtied the lines: the queue workload (cursor cells + linked
/// nodes) is classified exactly like the flat cell workload above, on both
/// flush paths.
#[test]
fn checker_classifies_dropped_shard_fence_queue() {
    for flushers in [0usize, 2] {
        let (checker, _region, pool) = dirty_checked_queue(flushers, 24 + flushers as u64);
        pool.inject_fault(Fault::SkipShardFence);
        pool.register().checkpoint_here();
        let report = checker.report();
        assert!(
            !report.of_kind(DiagnosticKind::ShardFence).is_empty(),
            "{flushers} flushers: dropped shard fence not detected on queue:\n{report}"
        );
        assert!(
            report.errors().iter().all(|d| matches!(
                d.kind,
                DiagnosticKind::ShardFence
                    | DiagnosticKind::CrossLineOrdering
                    | DiagnosticKind::MissedFlush
            )),
            "{flushers} flushers: dropped shard fence misclassified on queue:\n{report}"
        );
    }
}

/// Queue counterpart of [`recovery_after_dropped_shard_fence_crash`]: the
/// fault costs durability of one shard, not the queue's structural
/// integrity — recovery still lands on a usable checkpointed state.
#[test]
fn recovery_after_dropped_shard_fence_crash_queue() {
    let (checker, region, pool) = dirty_checked_queue(0, 26);
    pool.inject_fault(Fault::SkipShardFence);
    pool.register().checkpoint_here();
    drop(pool);
    assert!(!checker.report().is_clean(), "fault must be flagged");
    let img = region.crash(CrashMode::PowerFailure);
    region.restore(&img);
    let (pool, report) =
        Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
    assert!(report.failed_epoch >= 1);
    // The recovered queue is structurally sound and usable.
    let queue = PQueue::open(&pool, pool.root());
    let before = queue.collect().len();
    let h = pool.register();
    queue.enqueue(&h, 999);
    let r = h.checkpoint_here();
    assert_eq!(queue.collect().len(), before + 1);
    assert!(r.lines > 0);
}

#[test]
fn recovery_after_dropped_shard_fence_crash() {
    // The checker flags the faulty checkpoint; a crash right after it and
    // a recovery must still come back to *a* checkpointed state (the fault
    // loses durability of one shard, not the pool's structural invariants).
    let (checker, region, pool) = dirty_checked_pool(0, 23);
    pool.inject_fault(Fault::SkipShardFence);
    pool.register().checkpoint_here();
    drop(pool);
    assert!(!checker.report().is_clean(), "fault must be flagged");
    let img = region.crash(CrashMode::PowerFailure);
    region.restore(&img);
    let (pool, report) =
        Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
    assert!(report.failed_epoch >= 1);
    // The recovered pool is usable: run and persist another epoch.
    let h = pool.register();
    let c = h.alloc_cell(5u64);
    h.update(c, 6);
    let r = h.checkpoint_here();
    assert_eq!(h.get(c), 6);
    assert!(r.lines > 0);
}
