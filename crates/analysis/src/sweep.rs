//! Crash-point sweep engine: exhaustive crash/recover checking
//! over a recorded trace.
//!
//! The sweep replays a [`TraceEvent`] stream through a
//! [`Replayer`] and, at every persistency-relevant
//! instant (each store, write-back, fence, eviction — and *always* at
//! checkpoint-protocol boundaries like shard fences and the epoch commit),
//! materializes the crash images reachable under PCSO at that instant. Each
//! image is handed to [`Pool::recover`] on a synthetic region,
//! and the recovered pool is checked against a caller-supplied oracle —
//! typically "the recovered structures equal the model snapshot of the last
//! checkpoint that committed before this instant".
//!
//! Any mismatch becomes a [`DiagnosticKind::RecoveryDivergence`] in the
//! returned [`Report`], carrying enough context (event index, image index,
//! failed epoch, oracle detail) to re-materialize the offending image from
//! the same trace.
//!
//! Points where the base image does not yet hold the pool magic are counted
//! as skipped, not failed: until `Pool::create`'s header flush commits,
//! there is no pool to recover (the paper's durability guarantee starts at
//! the first completed checkpoint).

use std::sync::Arc;

use respct::layout::{MAGIC, OFF_MAGIC};
use respct::{Pool, PoolConfig, RecoveryReport};
use respct_pmem::{is_crash_point, is_protocol_point, Region, Replayer, TraceEvent};

use crate::report::{Diagnostic, DiagnosticKind, Report};

/// Parameters of a crash-point sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Size in bytes of the region the trace was recorded from.
    pub region_size: usize,
    /// Visit every `stride`-th eligible crash point (1 = all of them).
    /// Checkpoint-protocol boundaries are visited regardless.
    pub stride: usize,
    /// Maximum crash images materialized per visited point (the
    /// eviction-subset budget; at least 1, the base image).
    pub eviction_budget: usize,
    /// Seed for the random eviction-subset draws.
    pub seed: u64,
    /// Pool configuration for recovery. Keep flusher-free (the default):
    /// each image spawns a fresh pool, and recovery itself never needs the
    /// flusher pool.
    pub pool: PoolConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            region_size: 0,
            stride: 1,
            eviction_budget: 4,
            seed: 0,
            pool: PoolConfig::default(),
        }
    }
}

impl SweepConfig {
    /// A sweep over every crash point of a trace recorded from a region of
    /// `region_size` bytes, with the default budget.
    pub fn new(region_size: usize) -> SweepConfig {
        SweepConfig {
            region_size,
            ..SweepConfig::default()
        }
    }
}

/// Outcome of a crash-point sweep. `report.is_clean()` is the verdict;
/// the counters prove the sweep was not vacuous.
#[derive(Debug)]
pub struct SweepReport {
    /// Trace events replayed.
    pub events: u64,
    /// Distinct crash points visited (instants at which images were built).
    pub points: u64,
    /// Points skipped because the base image held no pool magic yet.
    pub unformatted_points: u64,
    /// Crash images recovered and checked across all points.
    pub images: u64,
    /// Checker-style report; divergences appear as
    /// [`DiagnosticKind::RecoveryDivergence`] diagnostics.
    pub report: Report,
}

impl SweepReport {
    /// Whether every recovered image matched the oracle.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Replays `events` and checks recovery at every eligible crash point.
///
/// The oracle receives the recovered pool and its [`RecoveryReport`] (whose
/// `failed_epoch` tells it which model snapshot to compare against) and
/// returns `Err(detail)` on divergence.
///
/// # Panics
///
/// Panics if `cfg.region_size` is not a positive cache-line multiple.
pub fn sweep<F>(events: &[TraceEvent], cfg: &SweepConfig, oracle: F) -> SweepReport
where
    F: Fn(&Arc<Pool>, &RecoveryReport) -> Result<(), String>,
{
    let stride = cfg.stride.max(1);
    let mut replayer = Replayer::new(cfg.region_size);
    let mut points = 0u64;
    let mut unformatted = 0u64;
    let mut images = 0u64;
    let mut eligible = 0u64;
    let mut report = Report::default();
    report.events = events.len() as u64;
    let mut diverge = |epoch: Option<u64>, detail: String| {
        report.push(Diagnostic {
            kind: DiagnosticKind::RecoveryDivergence,
            line: None,
            addr: None,
            epoch,
            detail,
        });
    };

    for (idx, ev) in events.iter().enumerate() {
        replayer.apply(ev);
        if replayer.saw_crash() {
            break;
        }
        if !is_crash_point(ev) {
            continue;
        }
        eligible += 1;
        // Stride-sample ordinary points; never skip protocol boundaries.
        if !is_protocol_point(ev) && !(eligible - 1).is_multiple_of(stride as u64) {
            continue;
        }
        if replayer.persisted_u64(OFF_MAGIC.0 as usize) != MAGIC {
            unformatted += 1;
            continue;
        }
        points += 1;
        for (img_idx, image) in replayer
            .crash_images(cfg.eviction_budget, cfg.seed ^ idx as u64)
            .into_iter()
            .enumerate()
        {
            images += 1;
            // Recovery answers every image — including ones no correct
            // execution can produce — with `Ok` or a typed error (e.g.
            // `CorruptRing` for the hole an out-of-order commit leaves); it
            // runs unguarded, so every image of every sweep also proves it
            // panic-free. The oracle, though, follows *application* pointers
            // through bounds-checked region accesses and may legitimately
            // panic on a diverged image; a sweep must survive that and
            // report it as a divergence, not die — it is exactly the
            // broken-protocol evidence the sweep exists to surface.
            let at = || format!("event #{idx} ({ev:?}), image #{img_idx}");
            let (pool, rec) = match Pool::recover(Region::from_image(&image), cfg.pool.clone()) {
                Ok(recovered) => recovered,
                Err(e) => {
                    diverge(None, format!("{}: recovery failed: {e:?}", at()));
                    continue;
                }
            };
            let verdict =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| oracle(&pool, &rec)));
            match verdict {
                Ok(Ok(())) => {}
                Ok(Err(detail)) => diverge(Some(rec.failed_epoch), format!("{}: {detail}", at())),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    diverge(
                        Some(rec.failed_epoch),
                        format!("{}: oracle panicked: {msg}", at()),
                    );
                }
            }
        }
    }

    SweepReport {
        events: replayer.events(),
        points,
        unformatted_points: unformatted,
        images,
        report,
    }
}

/// Ready-made recorded workloads for the crash sweep test suite
/// (`tests/crash_sweep.rs`): deterministic single-threaded runs of the
/// persistent hash map and queue, with a model snapshot taken at every
/// checkpoint.
pub mod workloads {
    use std::collections::{BTreeMap, VecDeque};
    use std::sync::Arc;

    use respct::{Pool, PoolConfig, ThreadHandle};
    use respct_ds::{PHashMap, PQueue};
    use respct_pmem::{Region, RegionConfig, SimConfig, TraceEvent, VecSink};

    use super::{sweep, SweepConfig, SweepReport};

    /// Region size for sweep recordings: small on purpose — every crash
    /// image is a full copy, and a sweep recovers thousands of them.
    pub const SWEEP_REGION: usize = 1 << 20;

    /// Deterministic op mixer (xorshift64): the whole recording must be a
    /// pure function of the seed, with no external RNG dependency.
    fn next_rand(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A recorded single-threaded run plus its per-epoch model snapshots:
    /// `snaps[e]` is the model at the instant the epoch counter became `e`
    /// (`None` for epoch 1 — the structure does not exist before the first
    /// checkpoint commits, so there is nothing to compare against).
    pub struct RecordedRun<M> {
        /// The full trace, from region creation to pool drop.
        pub events: Vec<TraceEvent>,
        /// Model snapshots indexed by epoch-counter value.
        pub snaps: Vec<Option<M>>,
    }

    /// Records `ops` steps of `step(handle, model, rand)` on a fresh pool
    /// (inline flushing, default config), checkpointing every 8 ops. The
    /// structure under test must be created inside the first step and
    /// reachable from the pool root thereafter.
    pub fn record_run<M: Clone>(
        seed: u64,
        ops: u64,
        step: impl FnMut(&ThreadHandle, &mut M, u64),
        init_model: M,
    ) -> RecordedRun<M> {
        record_run_with(seed, ops, PoolConfig::default(), step, init_model)
    }

    /// [`record_run`] with an explicit pool configuration — how the sweep
    /// suite records background-drain traces (crash points inside a drain
    /// window only exist when the recorded pool drained on the executor).
    pub fn record_run_with<M: Clone>(
        seed: u64,
        ops: u64,
        pool_cfg: PoolConfig,
        mut step: impl FnMut(&ThreadHandle, &mut M, u64),
        init_model: M,
    ) -> RecordedRun<M> {
        let region = Region::new(RegionConfig::sim(
            SWEEP_REGION,
            SimConfig::with_eviction(4, seed),
        ));
        let sink = Arc::new(VecSink::new());
        region.set_trace_sink(sink.clone());
        let pool = Pool::create(region, pool_cfg).expect("pool");
        let h = pool.register();
        let mut model = init_model;
        let mut snaps: Vec<Option<M>> = vec![None, None]; // epochs 0 (unused), 1
        let mut rng = seed | 1;
        for i in 0..ops {
            step(&h, &mut model, next_rand(&mut rng));
            // Checkpoint roughly every 8 ops so a sweep crosses many
            // commits (each one changes the expected recovery target).
            if i % 8 == 7 {
                h.checkpoint_here();
                snaps.push(Some(model.clone()));
            }
        }
        h.checkpoint_here();
        snaps.push(Some(model.clone()));
        drop(h);
        drop(pool);
        RecordedRun {
            events: sink.drain(),
            snaps,
        }
    }

    impl<M> RecordedRun<M> {
        /// Sweeps this run's trace: at every crash point, the recovered
        /// pool is compared (via `compare`) against the snapshot selected
        /// by the recovery's failed epoch. Pre-first-checkpoint crashes
        /// only require recovery itself to succeed.
        pub fn sweep_with<C>(&self, cfg: &SweepConfig, compare: C) -> SweepReport
        where
            C: Fn(&Arc<Pool>, &M) -> Result<(), String>,
        {
            sweep(&self.events, cfg, |pool, r| {
                let Some(slot) = self.snaps.get(r.failed_epoch as usize) else {
                    return Err(format!("recovered into unknown epoch {}", r.failed_epoch));
                };
                match slot {
                    None => Ok(()), // pre-first-checkpoint: no structure yet
                    Some(model) => {
                        if pool.root().is_null() {
                            return Err("root pointer lost".into());
                        }
                        compare(pool, model)
                    }
                }
            })
        }
    }

    /// Records a hash-map workload (inserts and removes over a small key
    /// range) and sweeps it, checking the recovered map's full contents.
    pub fn sweep_hashmap(ops: u64, seed: u64, cfg: &SweepConfig) -> (SweepReport, Vec<TraceEvent>) {
        let rec = record_run_with(
            seed,
            ops,
            cfg.pool.clone(),
            |h, model: &mut BTreeMap<u64, u64>, r| {
                let map = if h.pool().root().is_null() {
                    let map = PHashMap::create(h, 32);
                    h.set_root(map.desc());
                    map
                } else {
                    PHashMap::open(h.pool(), h.pool().root())
                };
                let k = r % 24;
                if r % 4 == 3 {
                    map.remove(h, k);
                    model.remove(&k);
                } else {
                    map.insert(h, k, r);
                    model.insert(k, r);
                }
            },
            BTreeMap::new(),
        );
        let report = rec.sweep_with(cfg, |pool, model| {
            let map = PHashMap::open(pool, pool.root());
            let mut got = map.collect();
            got.sort_unstable();
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            if got == want {
                Ok(())
            } else {
                Err(format!("hashmap diverged: got {got:?}, want {want:?}"))
            }
        });
        (report, rec.events)
    }

    /// Records a queue workload (enqueues with interleaved dequeues) and
    /// sweeps it, checking the recovered queue's full contents in order.
    pub fn sweep_queue(ops: u64, seed: u64, cfg: &SweepConfig) -> (SweepReport, Vec<TraceEvent>) {
        let rec = record_run_with(
            seed,
            ops,
            cfg.pool.clone(),
            |h, model: &mut VecDeque<u64>, r| {
                let queue = if h.pool().root().is_null() {
                    let q = PQueue::create(h);
                    h.set_root(q.desc());
                    q
                } else {
                    PQueue::open(h.pool(), h.pool().root())
                };
                if r % 3 == 2 {
                    let got = queue.dequeue(h);
                    assert_eq!(got, model.pop_front(), "live run out of sync");
                } else {
                    queue.enqueue(h, r);
                    model.push_back(r);
                }
            },
            VecDeque::new(),
        );
        let report = rec.sweep_with(cfg, |pool, model| {
            let queue = PQueue::open(pool, pool.root());
            let got = queue.collect();
            let want: Vec<u64> = model.iter().copied().collect();
            if got == want {
                Ok(())
            } else {
                Err(format!("queue diverged: got {got:?}, want {want:?}"))
            }
        });
        (report, rec.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct_pmem::{Region, RegionConfig, SimConfig, VecSink};

    const SIZE: usize = 2 << 20;

    fn recorded_run() -> (Vec<TraceEvent>, Vec<(u64, u64)>) {
        let region = Region::new(RegionConfig::sim(SIZE, SimConfig::no_eviction(3)));
        let sink = Arc::new(VecSink::new());
        region.set_trace_sink(sink.clone());
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let a = h.alloc_cell(1u64);
        let b = h.alloc_cell(2u64);
        h.checkpoint_here(); // closes epoch 1: {a:1, b:2} durable
        h.update(a, 10);
        h.checkpoint_here(); // closes epoch 2: {a:10, b:2} durable
        h.update(b, 20); // epoch 3, never checkpointed
        drop(h);
        drop(pool);
        (sink.drain(), vec![(a.addr().0, 1), (b.addr().0, 2)])
    }

    /// Oracle for `recorded_run`: per failed epoch, the expected values of
    /// cells `a` and `b`. `None` before the first checkpoint committed (the
    /// cells do not exist yet — nothing to assert beyond recovery working).
    fn expected(failed_epoch: u64, cell_idx: usize) -> Option<u64> {
        match (failed_epoch, cell_idx) {
            (1, _) => None,
            // Epoch 2 crashed: only the first checkpoint committed.
            (2, 0) => Some(1),
            (2, 1) => Some(2),
            // Epoch 3 crashed: both checkpoints committed.
            (3, 0) => Some(10),
            (3, 1) => Some(2),
            _ => panic!("unexpected failed epoch {failed_epoch}"),
        }
    }

    #[test]
    fn clean_run_sweeps_clean() {
        let (events, cells) = recorded_run();
        let cfg = SweepConfig::new(SIZE);
        let sweep_report = sweep(&events, &cfg, |pool, rec| {
            for (i, &(addr, _)) in cells.iter().enumerate() {
                let Some(want) = expected(rec.failed_epoch, i) else {
                    continue;
                };
                let got = pool.cell_get(respct::ICell::<u64>::from_addr(respct::PAddr(addr)));
                if got != want {
                    return Err(format!("cell {i}: got {got}, want {want}"));
                }
            }
            Ok(())
        });
        assert!(sweep_report.is_clean(), "{:?}", sweep_report.report);
        assert!(
            sweep_report.points > 50,
            "sweep visited only {} points",
            sweep_report.points
        );
        assert!(sweep_report.images >= sweep_report.points);
        assert!(sweep_report.unformatted_points > 0, "creation prefix skips");
    }

    #[test]
    fn stride_reduces_points_but_keeps_protocol_boundaries() {
        let (events, _) = recorded_run();
        let full = sweep(&events, &SweepConfig::new(SIZE), |_, _| Ok(()));
        let mut cfg = SweepConfig::new(SIZE);
        cfg.stride = 16;
        let sampled = sweep(&events, &cfg, |_, _| Ok(()));
        assert!(sampled.points < full.points);
        assert!(sampled.points > 0);
        assert!(sampled.is_clean() && full.is_clean());
    }

    #[test]
    fn divergence_is_reported_with_context() {
        let (events, _) = recorded_run();
        let mut cfg = SweepConfig::new(SIZE);
        cfg.eviction_budget = 1;
        // An always-failing oracle: every image diverges, the cap holds.
        let r = sweep(&events, &cfg, |_, _| Err("forced".into()));
        assert!(!r.is_clean());
        let d = r.report.of_kind(DiagnosticKind::RecoveryDivergence);
        assert!(!d.is_empty());
        assert!(d[0].detail.contains("forced") && d[0].detail.contains("event #"));
        assert!(d.len() as u64 + r.report.suppressed == r.images);
    }
}
