//! End-to-end tests for the happens-before persistency race detector.
//!
//! Two families:
//!
//! * **Clean runs** — the timer-driven hash-map and queue rows of the shared
//!   clean-run table (`tests/workload_table`, the rest of which runs in
//!   `tests/analysis_model.rs`) in every checkpoint mode, all six evaluation
//!   apps, lock hand-offs, the drain push-out handshake and a parallel
//!   recovery replay through the [`RaceDetector`] with zero diagnostics.
//!   Every synchronization edge the runtime emits is load-bearing here:
//!   quiescence flags, the checkpoint timer, traced bucket locks, flusher
//!   acknowledgements, the drain-ticket hand-off, the drain-commit
//!   handshake, and the free-list class locks.
//! * **Non-vacuity** — each [`Fault::DropSyncEdge`] site suppresses exactly
//!   one of those edges (the execution still synchronizes; only the trace
//!   loses the edge) and the corresponding detector rule must fire.

mod workload_table;

use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::{Fault, Pool, PoolConfig, SyncEdgeSite, TracedMutex};
use respct_analysis::{DiagnosticKind, RaceDetector};
use respct_ds::PHashMap;
use respct_pmem::sim::CrashMode;
use respct_pmem::{
    PAddr, Region, RegionConfig, SimConfig, SyncToken, TeeSink, TraceEvent, TraceMarker, TraceSink,
    VecSink,
};
use workload_table::{check_rows, depth_cfg, Driver, DEPTHS, HASHMAP, QUEUE};

/// A sim region with the race detector attached and a pool on top.
fn raced_pool(seed: u64, depth: usize, flushers: usize) -> (Arc<RaceDetector>, Arc<Pool>) {
    let region = Region::new(RegionConfig::sim(
        48 << 20,
        SimConfig::with_eviction(4, seed),
    ));
    let detector = RaceDetector::attach(&region);
    let cfg = depth_cfg(depth, flushers);
    let pool = Pool::create(region, cfg).expect("pool");
    (detector, pool)
}

#[test]
fn hashmap_clean_all_modes() {
    check_rows(&HASHMAP, &DEPTHS, &[Driver::Timer]);
}

#[test]
fn queue_clean_all_modes() {
    check_rows(&QUEUE, &DEPTHS, &[Driver::Timer]);
}

/// All six evaluation apps run race-clean in ResPCT mode (small configs).
#[test]
fn apps_are_race_clean() {
    use respct_apps::{dedup, kvstore, linreg, matmul, swaptions, wordcount, Mode};
    let period = Duration::from_millis(8);

    type Check = (&'static str, Box<dyn Fn(Arc<dyn TraceSink>)>);
    let checks: Vec<Check> = vec![
        (
            "matmul",
            Box::new(move |s| {
                matmul::run_traced(
                    matmul::MatmulConfig {
                        n: 64,
                        threads: 3,
                        mode: Mode::Respct,
                        ckpt_period: period,
                    },
                    s,
                );
            }),
        ),
        (
            "linreg",
            Box::new(move |s| {
                linreg::run_traced(
                    linreg::LinregConfig {
                        npoints: 20_000,
                        threads: 3,
                        mode: Mode::Respct,
                        ckpt_period: period,
                        ..Default::default()
                    },
                    s,
                );
            }),
        ),
        (
            "swaptions",
            Box::new(move |s| {
                swaptions::run_traced(
                    swaptions::SwaptionsConfig {
                        nswaptions: 6,
                        trials: 2_000,
                        threads: 3,
                        mode: Mode::Respct,
                        ckpt_period: period,
                        ..Default::default()
                    },
                    s,
                );
            }),
        ),
        (
            "dedup",
            Box::new(move |s| {
                dedup::run_traced(
                    dedup::DedupConfig {
                        chunks: 600,
                        unique: 150,
                        mode: Mode::Respct,
                        ckpt_period: period,
                        ..Default::default()
                    },
                    s,
                );
            }),
        ),
        (
            "wordcount",
            Box::new(move |s| {
                wordcount::run_traced(
                    wordcount::WordCountConfig {
                        blocks: 60,
                        words_per_block: 120,
                        vocab: 200,
                        threads: 3,
                        mode: Mode::Respct,
                        ckpt_period: period,
                    },
                    s,
                );
            }),
        ),
        (
            "kvstore",
            Box::new(move |s| {
                let cfg = kvstore::KvConfig {
                    ops_per_client: 800,
                    ..kvstore::KvConfig::small(Mode::Respct)
                };
                kvstore::run_traced(&cfg, s);
            }),
        ),
    ];
    for (name, run) in checks {
        let detector = Arc::new(RaceDetector::new());
        run(Arc::<RaceDetector>::clone(&detector) as Arc<dyn TraceSink>);
        let r = detector.report();
        assert!(r.is_clean(), "{name}:\n{r}");
        assert!(r.events > 0, "{name}: empty trace — sink not attached?");
    }
}

/// Dropping a traced-lock release edge turns a correctly locked cell
/// hand-off into a persist race (rule a non-vacuity).
#[test]
fn dropped_lock_release_edge_is_a_persist_race() {
    // One key: both threads go through the same bucket lock, so the
    // cross-thread cell hand-off deterministically uses the faulted edge.
    let (detector, pool) = raced_pool(303, 0, 0);
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 8);
        h.set_root(map.desc());
        map
    };
    let h_main = pool.register(); // kept alive: no deregistration edge
    map.insert(&h_main, 7, 1);
    // Suppress the release edge of the *next* traced-guard drop — the one
    // ending the insert below. The mutex still unlocks; only the trace
    // loses the edge.
    pool.inject_fault(Fault::DropSyncEdge(SyncEdgeSite::LockRelease));
    map.insert(&h_main, 7, 2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let h = pool.register();
            map.insert(&h, 7, 3); // same cell, same epoch, dropped edge
        });
    });
    let r = detector.report();
    let races = r.of_kind(DiagnosticKind::PersistRace);
    assert!(!races.is_empty(), "dropped lock edge not detected:\n{r}");
}

/// The same workload with the edge intact stays clean (the fault, not the
/// workload shape, is what the detector reacts to).
#[test]
fn locked_handoff_without_fault_is_clean() {
    let (detector, pool) = raced_pool(303, 0, 0);
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 8);
        h.set_root(map.desc());
        map
    };
    let h_main = pool.register();
    map.insert(&h_main, 7, 1);
    map.insert(&h_main, 7, 2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let h = pool.register();
            map.insert(&h, 7, 3);
        });
    });
    detector.assert_clean();
}

/// Dropping a flusher's acknowledgement edge leaves the commit — the epoch
/// counter's on a synchronous pool, the ring slot's on the drain executor —
/// unordered after that worker's fences (rule b non-vacuity).
#[test]
fn dropped_flusher_ack_edge_is_an_unordered_commit() {
    for depth in DEPTHS {
        let (detector, pool) = raced_pool(404, depth, 1);
        let h = pool.register();
        let cells: Vec<_> = (0..64u64).map(|i| h.alloc_cell(i)).collect();
        h.checkpoint_here();
        assert!(detector.report().is_clean(), "depth={depth}: setup");
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, 1_000 + i as u64);
        }
        pool.inject_fault(Fault::DropSyncEdge(SyncEdgeSite::FlusherAck));
        h.checkpoint_here();
        let r = detector.report();
        let bad = r.of_kind(DiagnosticKind::UnorderedCommit);
        assert!(
            !bad.is_empty(),
            "depth={depth}: dropped flusher ack not detected:\n{r}"
        );
    }
}

/// Stretches the background drain: sleeps on the flusher threads at each
/// shard-flush marker so the resumed worker reliably gets to run (and
/// first-touch a draining cell) before the drain commits. Purely a
/// test aid — it makes the push-out window wide instead of scheduler-luck.
struct DrainStretch;

impl TraceSink for DrainStretch {
    fn event(&self, ev: &TraceEvent) {
        if matches!(
            ev,
            TraceEvent::Marker {
                marker: respct_pmem::TraceMarker::ShardFlushBegin { .. },
                ..
            }
        ) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Runs a background-drain round (ring depth `k`) engineered to hit the
/// on-demand push-out: a parked worker resumes at the drain hand-off and
/// immediately re-touches cells still tagged with the draining epoch.
/// Returns the detector and the full recorded trace.
fn pushout_round(seed: u64, k: usize, fault: bool) -> (Arc<RaceDetector>, Vec<TraceEvent>) {
    let region = Region::new(RegionConfig::sim(48 << 20, SimConfig::no_eviction(seed)));
    let detector = Arc::new(RaceDetector::new());
    let events = Arc::new(VecSink::new());
    region.set_trace_sink(Arc::new(TeeSink::new(vec![
        Arc::<RaceDetector>::clone(&detector) as Arc<dyn TraceSink>,
        Arc::<VecSink>::clone(&events) as Arc<dyn TraceSink>,
        Arc::new(DrainStretch) as Arc<dyn TraceSink>,
    ])));
    // Flusher threads carry the stretched shard flushes, so the drain
    // stays active while the committer waits for their acknowledgements.
    let pool = Pool::create(region, depth_cfg(k, 2)).expect("pool");
    {
        // A wide tracked set makes the background drain long enough for
        // the resumed worker to touch a draining cell. The allocating
        // handle must drop before the scope: `checkpoint_here` below
        // runs on a fresh handle and would wait on this one's flag.
        let cells: Vec<_> = {
            let h = pool.register();
            let cells: Vec<_> = (0..1_024u64).map(|i| h.alloc_cell(i)).collect();
            h.checkpoint_here();
            cells
        };
        if fault {
            pool.inject_fault(Fault::DropSyncEdge(SyncEdgeSite::DrainHandshake));
        }
        std::thread::scope(|s| {
            let (pool, cells) = (&pool, &cells);
            let worker = s.spawn(move || {
                let h = pool.register();
                for round in 0..16u64 {
                    for c in cells.iter().take(256) {
                        h.update(*c, round);
                    }
                    h.rp(900); // parks here while the checkpoint quiesces
                }
            });
            // Checkpoint concurrently: closing the epoch starts the drain;
            // the worker resumes mid-drain and first-touches hot cells.
            for _ in 0..4 {
                pool.register().checkpoint_here();
            }
            worker.join().expect("worker");
        });
    }
    (detector, events.drain())
}

fn has_pushout(evs: &[TraceEvent]) -> bool {
    evs.iter().any(|ev| {
        matches!(
            ev,
            TraceEvent::Marker {
                marker: respct_pmem::TraceMarker::DrainPushOut { .. },
                ..
            }
        )
    })
}

/// Regression for the PR-5 push-out ordering: the resumed thread's backup
/// overwrite must acquire the drain commit's release. With the edge intact
/// the trace is clean and carries the `SyncToken::Drain` acquire.
#[test]
fn pushout_handshake_edge_is_emitted_and_clean() {
    // The push-out window is scheduler-dependent; retry fresh seeds until
    // one opens (sub-second normally, deadline-bounded under heavy load).
    'depth: for k in [1, 4] {
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut seed = 500;
        while Instant::now() < deadline {
            seed += 1;
            let (detector, evs) = pushout_round(seed, k, false);
            detector.assert_clean();
            if has_pushout(&evs) {
                assert!(
                    evs.iter().any(|ev| matches!(
                        ev,
                        TraceEvent::SyncAcq {
                            token: SyncToken::Drain,
                            ..
                        }
                    )),
                    "K={k}: push-out occurred but no Drain acquire edge was traced"
                );
                continue 'depth; // exercised the regression path at this depth
            }
        }
        panic!("K={k}: no seed produced a push-out; test needs retuning");
    }
}

/// Dropping the push-out handshake acquire makes the next overwrite of the
/// pushed-out line an unordered commit (rule b, push-out leg).
#[test]
fn dropped_drain_handshake_edge_is_an_unordered_commit() {
    'depth: for k in [1, 4] {
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut seed = 600;
        while Instant::now() < deadline {
            seed += 1;
            let (detector, evs) = pushout_round(seed, k, true);
            if !has_pushout(&evs) {
                continue;
            }
            let r = detector.report();
            let bad = r.of_kind(DiagnosticKind::UnorderedCommit);
            assert!(
                !bad.is_empty(),
                "K={k}: dropped drain handshake not detected:\n{r}"
            );
            continue 'depth;
        }
        panic!("K={k}: no seed produced a push-out; test needs retuning");
    }
}

/// Recovery's parallel scan cuts the registry between chunks, and a cut can
/// fall between two cells of one cache line: two scan threads then roll
/// back disjoint cells of that line with no edge between them. Per-cell
/// backups make that sound, and the detector agrees — through recovery and
/// the checkpoint that persists the rollbacks.
#[test]
fn parallel_recovery_cut_inside_a_line_is_clean() {
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(808)));
    let detector = Arc::new(RaceDetector::new());
    let events = Arc::new(VecSink::new());
    region.set_trace_sink(Arc::new(TeeSink::new(vec![
        Arc::<RaceDetector>::clone(&detector) as Arc<dyn TraceSink>,
        Arc::<VecSink>::clone(&events) as Arc<dyn TraceSink>,
    ])));
    let cells = {
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        // Two full chunks of 511 entries: four scan threads cut between
        // them, i.e. between cells 510 and 511. Cells pack two to a line,
        // and each registry chunk is carved, line-aligned, right after the
        // cell whose entry opens it; one unregistered block after cell 0
        // puts cells 510 and 511 on one line.
        let mut cells = vec![h.alloc_cell(0u64)];
        let _ = h.alloc(32, 32);
        cells.extend((1..1022u64).map(|i| h.alloc_cell(i)));
        h.checkpoint_here();
        for c in &cells {
            h.update(*c, 7); // crashed epoch
        }
        cells
    };
    let (a, b) = (cells[510].addr(), cells[511].addr());
    assert_eq!(a.line(), b.line(), "cells 510 and 511 must share a line");
    let img = region.crash(CrashMode::EvictAll);
    region.restore(&img);
    events.drain();
    let cfg = PoolConfig::builder().recovery_threads(4).build().unwrap();
    let (pool, report) = Pool::recover(Arc::clone(&region), cfg).expect("recover");
    assert_eq!(report.threads, 4);
    // Not vacuous: two different threads rolled back the two cells.
    let trace = events.drain();
    let applied = |cell: PAddr| {
        trace.iter().find_map(|ev| match *ev {
            TraceEvent::Marker {
                tid,
                marker: TraceMarker::RecoveryApply { addr },
            } if addr == cell.0 => Some(tid),
            _ => None,
        })
    };
    let (ta, tb) = (applied(a), applied(b));
    assert!(ta.is_some() && tb.is_some() && ta != tb, "{ta:?} / {tb:?}");
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(pool.cell_get(*c), i as u64);
    }
    pool.register().checkpoint_here();
    let r = detector.report();
    assert!(r.of_kind(DiagnosticKind::PersistRace).is_empty(), "{r}");
    assert!(r.of_kind(DiagnosticKind::UnorderedCommit).is_empty(), "{r}");
}

/// A `TracedMutex` hand-off between plain threads (no data structure in
/// between) is edge-complete: protected cell updates never race.
#[test]
fn traced_mutex_direct_handoff_is_clean() {
    let (detector, pool) = raced_pool(700, 0, 0);
    let cell = {
        let h0 = pool.register();
        h0.alloc_cell(0u64)
        // h0 drops here: deregistration publishes the cell's initial
        // store before the workers register (spawn edges are invisible
        // to the trace — hand-offs go through traced synchronization).
    };
    let lock = TracedMutex::new(());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (pool, lock) = (&pool, &lock);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..200 {
                    let _g = lock.lock(pool);
                    let v = h.get(cell);
                    h.update(cell, v + t + i);
                }
            });
        }
    });
    detector.assert_clean();
}
