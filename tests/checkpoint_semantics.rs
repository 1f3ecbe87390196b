//! Semantics of the checkpoint protocol itself: epoch monotonicity,
//! tracking-list hygiene, stats accounting, and the invariant of paper
//! Lemma 4.5 (the flushed state is a consistent cut — observed here via a
//! causally-linked pair of cells that must never be persisted "out of
//! order").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use respct_analysis::Checker;
use respct_repro::pmem::{sim::CrashMode, Region, RegionConfig, SimConfig};
use respct_repro::respct::layout::FIRST_EPOCH;
use respct_repro::respct::{CheckpointMode, Pool, PoolConfig, PoolError, MAX_FLUSHERS};

#[test]
fn epochs_are_monotonic_and_persisted_in_order() {
    let region = Region::new(RegionConfig::sim(4 << 20, SimConfig::no_eviction(3)));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    for expect in 1..20u64 {
        assert_eq!(pool.epoch(), expect);
        let r = pool.checkpoint_now();
        assert_eq!(r.closed_epoch, expect);
        // The persisted epoch always equals the volatile one right after a
        // checkpoint (clwb+fence on the epoch line).
        let img = region.crash(CrashMode::PowerFailure);
        let off = respct_repro::respct::layout::OFF_EPOCH.0 as usize;
        let e = u64::from_ne_bytes(img.bytes()[off..off + 8].try_into().unwrap());
        assert_eq!(e, expect + 1);
    }
}

#[test]
fn tracking_lists_are_drained_each_checkpoint() {
    let pool = Pool::create(
        Region::new(RegionConfig::fast(8 << 20)),
        PoolConfig::default(),
    )
    .expect("pool");
    let h = pool.register();
    let c = h.alloc_cell(0u64);
    for round in 1..10u64 {
        h.update(c, round);
        let r = h.checkpoint_here();
        // Exactly the cell's line (+ cursor-sync lines) per round — not an
        // accumulation of earlier rounds.
        assert!(
            r.lines < 32,
            "round {round}: {} lines (list not drained?)",
            r.lines
        );
    }
}

#[test]
fn noflush_mode_still_quiesces_and_advances() {
    let pool = Pool::create(
        Region::new(RegionConfig::fast(8 << 20)),
        PoolConfig::builder()
            .mode(CheckpointMode::NoFlush)
            .build()
            .expect("config"),
    )
    .expect("pool");
    let h = pool.register();
    let c = h.alloc_cell(1u64);
    h.update(c, 2);
    let before = pool.epoch();
    let r = h.checkpoint_here();
    assert_eq!(r.closed_epoch, before);
    assert_eq!(pool.epoch(), before + 1);
    // Next epoch re-logs normally.
    h.update(c, 3);
    let backup: u64 = pool.region().load(c.backup_addr());
    assert_eq!(backup, 2);
}

#[test]
fn flusher_pool_config_produces_identical_persistence() {
    // Same workload with 0 and 3 flusher threads: identical recovered state.
    let mut images = Vec::new();
    for flushers in [0usize, 3] {
        let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(5)));
        let pool = Pool::create(
            Arc::clone(&region),
            PoolConfig::builder()
                .flusher_threads(flushers)
                .mode(CheckpointMode::Full)
                .build()
                .expect("config"),
        )
        .expect("pool");
        let h = pool.register();
        let cells: Vec<_> = (0..200u64).map(|i| h.alloc_cell(i)).collect();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, 1000 + i as u64);
        }
        h.checkpoint_here();
        drop(h);
        drop(pool);
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let values: Vec<u64> = cells.iter().map(|c| pool.cell_get(*c)).collect();
        images.push(values);
    }
    assert_eq!(images[0], images[1]);
    assert_eq!(images[0], (0..200).map(|i| 1000 + i).collect::<Vec<u64>>());
}

/// Regression test for the `wait_ns` conflation fixed in the async-drain
/// PR: the report used to offer no way to tell how long application threads
/// were actually held parked — `wait_ns` is pure quiescence and `total_ns`
/// includes work threads never see. The split must be honest in both modes:
/// a synchronous checkpoint's stop-the-world window covers the flush, an
/// asynchronous one's must not (the flush is the drain's problem).
#[test]
fn stall_split_is_honest_in_both_modes() {
    for async_on in [false, true] {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(32 << 20)),
            PoolConfig::builder()
                .async_checkpoint(async_on)
                .build()
                .expect("config"),
        )
        .expect("pool");
        let h = pool.register();
        let cells: Vec<_> = (0..4_000u64).map(|i| h.alloc_cell(i)).collect();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, 9_000 + i as u64);
        }
        let r = h.checkpoint_here();
        assert!(r.lines > 100, "workload too small to split phases");
        assert!(
            r.stw_ns <= r.total_ns,
            "async={async_on}: stw {} > total {}",
            r.stw_ns,
            r.total_ns
        );
        if async_on {
            // The returned report ends at the release; the drain's figures
            // are the executor's to measure, recorded into the metrics at
            // the commit `checkpoint_here` waited for.
            assert_eq!((r.flush_ns, r.drain_ns), (0, 0));
            let m = pool.runtime_metrics().ckpt_snapshot();
            assert_eq!(m.count, 1, "the one checkpoint must be recorded");
            assert!(m.drain_ns > 0, "async drain did no work");
            assert!(
                m.drain_ns >= m.flush_ns,
                "drain {} must cover the flush {}",
                m.drain_ns,
                m.flush_ns
            );
            // The STW window ends before the drain starts; if the flush
            // were (wrongly) inside it again, stw + drain would overlap
            // and exceed the total.
            assert!(
                m.stw_ns + m.drain_ns <= m.total_ns,
                "stw {} + drain {} > total {} (flush counted twice?)",
                m.stw_ns,
                m.drain_ns,
                m.total_ns
            );
        } else {
            assert_eq!(r.drain_ns, 0, "sync checkpoint reported a drain");
            assert!(
                r.stw_ns >= r.wait_ns + r.partition_ns + r.flush_ns,
                "sync stw {} must cover wait {} + partition {} + flush {}",
                r.stw_ns,
                r.wait_ns,
                r.partition_ns,
                r.flush_ns
            );
        }
    }
}

/// The asynchronous drain must persist exactly what the synchronous path
/// does — same workload, same recovered state.
#[test]
fn async_checkpoint_produces_identical_persistence() {
    let mut images = Vec::new();
    for async_on in [false, true] {
        let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(6)));
        let pool = Pool::create(
            Arc::clone(&region),
            PoolConfig::builder()
                .async_checkpoint(async_on)
                .build()
                .expect("config"),
        )
        .expect("pool");
        let h = pool.register();
        let cells: Vec<_> = (0..200u64).map(|i| h.alloc_cell(i)).collect();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, 1000 + i as u64);
        }
        h.checkpoint_here();
        // Dirty the next epoch too: a crash now must roll it back in both
        // modes (the drain has committed by the time checkpoint_here
        // returns, so recovery sees a clean two-phase record).
        for c in cells.iter().take(50) {
            h.update(*c, 7);
        }
        drop(h);
        drop(pool);
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let values: Vec<u64> = cells.iter().map(|c| pool.cell_get(*c)).collect();
        images.push(values);
    }
    assert_eq!(images[0], images[1]);
    assert_eq!(images[0], (0..200).map(|i| 1000 + i).collect::<Vec<u64>>());
}

/// Pipelined checkpoints move the flush and commit entirely off the
/// checkpointing thread: the report's stop-the-world figure covers only
/// the window from quiescence to release (the ring-slot claim), and the
/// flush/drain figures are the executor's to record.
#[test]
fn pipelined_stall_split_is_honest() {
    let pool = Pool::create(
        Region::new(RegionConfig::fast(32 << 20)),
        PoolConfig::builder()
            .async_checkpoint(true)
            .epoch_pipeline(4)
            .build()
            .expect("config"),
    )
    .expect("pool");
    let h = pool.register();
    let cells: Vec<_> = (0..4_000u64).map(|i| h.alloc_cell(i)).collect();
    for (i, c) in cells.iter().enumerate() {
        h.update(*c, 9_000 + i as u64);
    }
    let r = h.checkpoint_here();
    assert!(r.lines > 100, "workload too small to split phases");
    assert!(
        r.stw_ns <= r.total_ns,
        "stw {} > total {}",
        r.stw_ns,
        r.total_ns
    );
    assert_eq!(
        r.flush_ns, 0,
        "the pipelined stop-the-world window must not contain a flush"
    );
    assert_eq!(
        r.drain_ns, 0,
        "the drain happens after release, on the executor"
    );
}

/// Regression test for the acked-write loss on pipelined pools:
/// `checkpoint_here` is the durability point `KvService::end_batch` acks
/// `Durability::Sync` writes on, but with `epoch_pipeline(K >= 2)` it used
/// to return at the ring claim — before the drain's commit — so a crash at
/// that instant rolled the acked epoch back. It must return only once the
/// closed epoch has committed, at every ring depth: with the executor held,
/// the call blocks until a helper thread releases it, and the crash image
/// of the instant it returns recovers the new value.
#[test]
fn checkpoint_here_returns_only_after_the_commit() {
    for k in [1usize, 2, 4] {
        let region = Region::new(RegionConfig::sim(4 << 20, SimConfig::no_eviction(9)));
        let pool = Pool::create(
            Arc::clone(&region),
            PoolConfig::builder()
                .async_checkpoint(true)
                .epoch_pipeline(k)
                .build()
                .expect("config"),
        )
        .expect("pool");
        let h = pool.register();
        let c = h.alloc_cell(1u64);
        h.checkpoint_here(); // epoch 1: the cell exists durably
        pool.hold_drains(true);
        h.update(c, 99);
        let img = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                pool.hold_drains(false);
            });
            h.checkpoint_here();
            region.crash(CrashMode::PowerFailure)
        });
        let (recovered, report) =
            Pool::recover(Region::from_image(img.bytes()), PoolConfig::default()).expect("recover");
        assert_eq!(
            (report.failed_epoch, recovered.cell_get(c)),
            (3, 99),
            "K={k}: a write checkpointed by checkpoint_here() was rolled back"
        );
    }
}

/// The epoch-ring pipeline must persist exactly what the synchronous and
/// single-drain asynchronous paths do: over randomized op/checkpoint/RP
/// schedules, all four modes (sync, async, pipelined K = 2 and K = 4)
/// recover to identical state from a crash with a dirty trailing epoch.
#[test]
fn pipelined_checkpoint_produces_identical_persistence() {
    fn next_rand(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }
    let configs: [(&str, bool, usize); 4] = [
        ("sync", false, 1),
        ("async", true, 1),
        ("pipelined-2", true, 2),
        ("pipelined-4", true, 4),
    ];
    for seed in 1..=4u64 {
        let mut images: Vec<(&str, Vec<u64>)> = Vec::new();
        for (name, async_on, k) in configs {
            let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(seed)));
            let pool = Pool::create(
                Arc::clone(&region),
                PoolConfig::builder()
                    .async_checkpoint(async_on)
                    .epoch_pipeline(k)
                    .build()
                    .expect("config"),
            )
            .expect("pool");
            let h = pool.register();
            let cells: Vec<_> = (0..64u64).map(|i| h.alloc_cell(i)).collect();
            h.checkpoint_here();
            // The schedule is a pure function of the seed, so every mode
            // replays the identical op/RP/checkpoint sequence.
            let mut rng = seed.wrapping_mul(0x9e37_79b9) | 1;
            for _ in 0..300 {
                let r = next_rand(&mut rng);
                h.update(cells[(r % 64) as usize], r);
                if r.is_multiple_of(7) {
                    h.rp(1);
                }
                if r.is_multiple_of(13) {
                    h.checkpoint_here();
                }
            }
            h.checkpoint_here();
            // Dirty the trailing epoch: the crash must roll it back the
            // same way in every mode.
            for c in cells.iter().take(16) {
                h.update(*c, 7);
            }
            drop(h);
            // Dropping the pool joins any drain machinery: every submitted
            // epoch commits before the crash image is taken.
            drop(pool);
            let img = region.crash(CrashMode::PowerFailure);
            region.restore(&img);
            let (pool, _) =
                Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
            images.push((name, cells.iter().map(|c| pool.cell_get(*c)).collect()));
        }
        let (base_name, base) = &images[0];
        for (name, values) in &images[1..] {
            assert_eq!(
                base, values,
                "seed {seed}: {name} diverged from {base_name}"
            );
        }
    }
}

/// Regression test for the quiescence race fixed in the flush-pipeline PR:
/// `checkpoint_here` used to lower its per-thread parked flag
/// *unconditionally* after driving a checkpoint. A second thread issuing a
/// back-to-back checkpoint could observe the first thread's flag still
/// raised, treat it as parked, and then race its resumed stores mid-flush —
/// an intermittent `MissedFlush` under load. The flag must instead be
/// lowered through the full prevent protocol, which re-parks while another
/// checkpoint is pending.
#[test]
fn back_to_back_checkpoints_from_two_threads_stay_clean() {
    const ROUNDS: u64 = 25;
    for seed in 0..3u64 {
        let region = Region::new(RegionConfig::sim(
            8 << 20,
            SimConfig::with_eviction(3, seed),
        ));
        let checker = Checker::attach(&region);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            // Two checkpointing threads, each issuing *pairs* of
            // checkpoints with fresh dirty state in between — the exact
            // shape that hit the race: thread A's second checkpoint starts
            // while thread B is lowering its flag after the first.
            for t in 0..2u64 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let h = pool.register();
                    let c = h.alloc_cell(0u64);
                    for round in 0..ROUNDS {
                        h.update(c, t * ROUNDS + round);
                        h.checkpoint_here();
                        h.update(c, t * ROUNDS + round + 1);
                        h.checkpoint_here();
                    }
                });
            }
            // Background load: a worker whose resumed stores after each
            // park are what the racing checkpoint would fail to flush.
            let (pool2, stop2) = (Arc::clone(&pool), Arc::clone(&stop));
            s.spawn(move || {
                let h = pool2.register();
                let cells: Vec<_> = (0..16u64).map(|i| h.alloc_cell(i)).collect();
                let mut i = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    for c in &cells {
                        h.update(*c, i);
                        i += 1;
                    }
                    h.rp(9);
                }
            });
            // Scoped: the checkpointers finish their rounds first.
            std::thread::sleep(Duration::from_millis(30));
            stop.store(true, Ordering::Relaxed);
        });
        let report = checker.report();
        assert!(
            report.errors().is_empty(),
            "seed {seed}: quiescence race resurfaced:\n{report}"
        );
    }
}

/// The builder is the only way to obtain a non-default [`PoolConfig`]; it
/// must reject every inconsistent knob combination with a telling message.
#[test]
fn pool_config_builder_validation() {
    // Valid flusher counts, including the inline (zero-flusher) path.
    for flushers in [0, 3, 64] {
        let cfg = PoolConfig::builder()
            .flusher_threads(flushers)
            .build()
            .unwrap_or_else(|e| panic!("{flushers} flushers must validate: {e}"));
        assert_eq!(cfg.flusher_threads(), flushers);
    }

    let expect_invalid = |b: respct_repro::respct::PoolConfigBuilder, needle: &str| match b.build()
    {
        Err(PoolError::InvalidConfig(why)) => assert!(
            why.contains(needle),
            "error {why:?} does not mention {needle:?}"
        ),
        other => panic!("expected InvalidConfig({needle}), got {other:?}"),
    };
    expect_invalid(
        PoolConfig::builder().flusher_threads(MAX_FLUSHERS + 1),
        "MAX_FLUSHERS",
    );
    // NoFlush mode never flushes, so a flusher pool is a contradiction.
    expect_invalid(
        PoolConfig::builder()
            .mode(CheckpointMode::NoFlush)
            .flusher_threads(1),
        "NoFlush",
    );
    // Epoch pipeline: depth 0 is meaningless, the ring caps the depth,
    // and K > 1 pipelines the *asynchronous* drain specifically.
    expect_invalid(
        PoolConfig::builder()
            .async_checkpoint(true)
            .epoch_pipeline(0),
        "at least 1",
    );
    expect_invalid(
        PoolConfig::builder()
            .async_checkpoint(true)
            .epoch_pipeline(respct_repro::respct::layout::MAX_EPOCH_PIPELINE + 1),
        "MAX_EPOCH_PIPELINE",
    );
    expect_invalid(PoolConfig::builder().epoch_pipeline(2), "async_checkpoint");
    let cfg = PoolConfig::builder()
        .async_checkpoint(true)
        .epoch_pipeline(2)
        .build()
        .expect("pipelined config must validate");
    assert_eq!(cfg.epoch_pipeline(), 2);
    assert_eq!(PoolConfig::default().epoch_pipeline(), 1);
}

/// Lemma 4.5 as a runtime check: with a happens-before edge between two
/// cells (a written before b under a lock), a recovered state must never
/// show b's update without a's.
#[test]
fn consistent_cut_across_causally_ordered_cells() {
    for seed in 0..25u64 {
        let region = Region::new(RegionConfig::sim(
            8 << 20,
            SimConfig::with_eviction(1, seed),
        ));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let lock = Arc::new(Mutex::new(()));
        let stop = Arc::new(AtomicBool::new(false));
        let (a, b) = {
            let h = pool.register();
            let cells = (h.alloc_cell(0u64), h.alloc_cell(0u64));
            // Commit the allocations. If the periodic checkpointer never
            // got to run in the window below, the crash would land in the
            // epoch that allocated `a` and `b`: their registry entries
            // would roll back with it and the stale handles would read
            // un-rolled memory — whatever random eviction persisted.
            h.checkpoint_here();
            cells
        };
        let _ckpt = pool.start_checkpointer(Duration::from_millis(1));
        std::thread::scope(|s| {
            let (pool2, lock2, stop2) = (Arc::clone(&pool), Arc::clone(&lock), Arc::clone(&stop));
            s.spawn(move || {
                let h = pool2.register();
                let mut i = 1u64;
                while !stop2.load(Ordering::Relaxed) {
                    {
                        let _g = lock2.lock();
                        h.update(a, i); // a first…
                        h.update(b, i); // …then b, same critical section
                    }
                    h.rp(1);
                    i += 1;
                }
            });
            std::thread::sleep(Duration::from_millis(40));
            stop.store(true, Ordering::Relaxed);
        });
        drop(_ckpt);
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, report) =
            Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        assert!(
            report.failed_epoch > FIRST_EPOCH,
            "seed {seed}: the cells must outlive the crashed epoch"
        );
        let (va, vb) = (pool.cell_get(a), pool.cell_get(b));
        // Both were updated in lock-step inside one critical section with
        // the RP outside it: any recovered cut has va == vb.
        assert_eq!(va, vb, "seed {seed}: inconsistent cut ({va} vs {vb})");
    }
}
