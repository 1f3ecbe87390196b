//! Crash-point sweep property suite over `respct_analysis::sweep`.
//!
//! The sweep engine replays a recorded trace, materializes every crash
//! image reachable under PCSO at each persistency-relevant instant
//! (bounded by the eviction-subset budget), recovers each image with the
//! real recovery procedure, and compares the result against the model
//! snapshot of the last committed checkpoint.
//!
//! Two directions are exercised here:
//!
//! * **Soundness of the runtime** — on fault-free hash-map and queue
//!   workloads, a sweep over hundreds of distinct crash points finds zero
//!   divergences: the paper's durability claim holds at *every* instant,
//!   not just at the end-of-run crashes the other suites take.
//! * **Non-vacuity of the sweep** — with a known bug injected
//!   ([`Fault::SkipOneFlush`] on the inline and the executor's drain,
//!   [`Fault::SkipShardFence`] on the parallel flusher path), the sweep
//!   finds at least one crash image whose recovery diverges. A checker
//!   that never fires on broken code would prove nothing.

use std::sync::Arc;

use respct::{Fault, ICell, Pool, PoolConfig};
use respct_analysis::sweep::workloads;
use respct_analysis::{sweep, DiagnosticKind, SweepConfig, SweepReport};
use respct_pmem::{
    is_crash_point, Region, RegionConfig, SimConfig, TraceEvent, TraceMarker, VecSink,
};

const SIZE: usize = 1 << 20;

/// Model snapshots indexed by epoch-counter value (None = epoch predates
/// the cells' first checkpoint).
type Snaps = Vec<Option<Vec<u64>>>;

/// A pool configuration at checkpoint depth `depth`.
fn depth_cfg(depth: usize) -> PoolConfig {
    PoolConfig::builder().depth(depth).build().unwrap()
}

/// Crash points that fall while at least `min_open` drains are
/// simultaneously in flight — between their `PipelineBegin` markers and
/// the matching `RingCommit`s. A sweep that visits none of these would not
/// be testing the claim/commit pair at all, and a pipelined one that never
/// crashes with two drains outstanding would not be testing the ring.
fn pipeline_overlap_crash_points(events: &[TraceEvent], min_open: usize) -> u64 {
    let mut open: Vec<u64> = Vec::new();
    let mut n = 0;
    for ev in events {
        if let TraceEvent::Marker { marker, .. } = ev {
            match marker {
                TraceMarker::PipelineBegin { epoch, .. } => open.push(*epoch),
                TraceMarker::RingCommit { epoch } => open.retain(|&e| e != *epoch),
                _ => {}
            }
        }
        if open.len() >= min_open && is_crash_point(ev) {
            n += 1;
        }
    }
    n
}

/// One clean sweep: (workload, ops, seed, eviction budget, stride,
/// checkpoint depth).
type SweepRow = (&'static str, u64, u64, usize, usize, usize);

/// Every clean sweep. Rows at depth ≥ 2 sample at stride 3, not 4: denser
/// sampling keeps the distinct-point floor comfortable on their traces.
const SWEEPS: [SweepRow; 9] = [
    ("hashmap", 48, 7, 3, 4, 0),
    ("queue", 48, 7, 3, 4, 0),
    // A second seed: shorter runs, denser sampling.
    ("hashmap", 32, 23, 2, 2, 0),
    ("queue", 32, 23, 2, 2, 0),
    ("hashmap", 48, 7, 2, 4, 1),
    ("queue", 48, 7, 2, 4, 1),
    ("hashmap", 48, 7, 2, 3, 2),
    ("queue", 48, 7, 2, 3, 2),
    ("queue", 64, 7, 2, 3, 4),
];

/// Sweeps the rows of [`SWEEPS`] for `workload` whose depth is one of
/// `depths`. Each must find no divergence over at least 200 distinct crash
/// points, and must crash inside some drain window — between a claim and
/// its commit, inline or on the executor — or it would not be testing the
/// ring's commit at all.
fn sweep_rows(workload: &str, depths: &[usize]) {
    let rows: Vec<_> = SWEEPS
        .iter()
        .filter(|r| r.0 == workload && depths.contains(&r.5))
        .collect();
    assert!(!rows.is_empty(), "no {workload} rows at depths {depths:?}");
    for &(name, ops, seed, budget, stride, depth) in rows {
        let at =
            format!("{name} ops={ops} seed={seed} budget={budget} stride={stride} depth={depth}");
        let mut cfg = SweepConfig::new(workloads::SWEEP_REGION);
        cfg.eviction_budget = budget;
        cfg.stride = stride;
        cfg.pool = depth_cfg(depth);
        let (report, events) = if name == "hashmap" {
            workloads::sweep_hashmap(ops, seed, &cfg)
        } else {
            workloads::sweep_queue(ops, seed, &cfg)
        };
        assert!(report.is_clean(), "{at}: {:?}", report.report);
        assert!(
            report.points >= 200,
            "{at}: only {} distinct crash points visited",
            report.points
        );
        assert!(report.images >= report.points, "{at}");
        assert!(
            report.unformatted_points > 0,
            "{at}: pre-format prefix skipped"
        );
        assert!(
            pipeline_overlap_crash_points(&events, 1) > 0,
            "{at}: no crash points inside any drain window"
        );
    }
}

#[test]
fn hashmap_sweep_recovers_at_every_point() {
    sweep_rows("hashmap", &[0]);
}

#[test]
fn queue_sweep_recovers_at_every_point() {
    sweep_rows("queue", &[0]);
}

#[test]
fn async_hashmap_sweep_recovers_at_every_point() {
    sweep_rows("hashmap", &[1]);
}

#[test]
fn async_queue_sweep_recovers_at_every_point() {
    sweep_rows("queue", &[1]);
}

#[test]
fn pipelined_hashmap_sweep_recovers_at_every_point() {
    sweep_rows("hashmap", &[2]);
}

#[test]
fn pipelined_queue_sweep_recovers_at_every_point() {
    sweep_rows("queue", &[2, 4]);
}

/// A depth-2 cell workload recorded with `hold_drains` pinning
/// two epochs in flight, so the trace deterministically contains crash
/// points with two uncommitted ring slots. With `Fault::SkipRingOrder`
/// armed the executor commits those two epochs newest-first.
///
/// Snapshots: `snaps[e]` is the expected cell state when recovery lands in
/// epoch `e`. The held epochs are closed with `Pool::checkpoint_now`
/// (`checkpoint_here` would wait for the held commit) and keep away from
/// push-outs (cells touched in epochs 2 and 3 were last tagged before
/// `drain_oldest`), so holding the worker cannot deadlock the recording.
fn recorded_pipelined_cells(fault: Option<Fault>) -> (Vec<TraceEvent>, Vec<ICell<u64>>, Snaps) {
    const N: u64 = 48;
    let region = Region::new(RegionConfig::sim(SIZE, SimConfig::no_eviction(5)));
    let sink = Arc::new(VecSink::new());
    region.set_trace_sink(sink.clone());
    let pool = Pool::create(region, depth_cfg(2)).unwrap();
    let mut h = pool.register();
    let cells: Vec<ICell<u64>> = (0..N).map(|i| h.alloc_cell(i)).collect();
    let mut snaps: Snaps = vec![None, None]; // epochs 0, 1
    let mut model: Vec<u64> = (0..N).collect();
    h.checkpoint_here(); // closes and commits epoch 1: the worker is idle
    snaps.push(Some(model.clone()));
    pool.hold_drains(true);
    if let Some(f) = fault {
        pool.inject_fault(f);
    }
    let close_epoch = |h: &mut respct::ThreadHandle| {
        let _allow = h.allow_checkpoints();
        pool.checkpoint_now();
    };
    // Tags are epoch 1 (< drain_oldest) throughout: plain backup logging,
    // never a push-out wait on the held worker.
    for i in 0..24 {
        h.update(cells[i as usize], 100 + i);
        model[i as usize] = 100 + i;
    }
    close_epoch(&mut h); // closes epoch 2; its ticket is parked
    snaps.push(Some(model.clone()));
    for i in 24..N {
        h.update(cells[i as usize], 100 + i);
        model[i as usize] = 100 + i;
    }
    close_epoch(&mut h); // closes epoch 3: two tickets now outstanding
    snaps.push(Some(model.clone()));
    pool.hold_drains(false);
    drop(h);
    drop(pool); // joins the executor: all tickets commit, trace complete
    (sink.drain(), cells, snaps)
}

#[test]
fn pipelined_two_inflight_sweep_recovers_at_every_point() {
    let (events, cells, snaps) = recorded_pipelined_cells(None);
    let report = sweep_cells(&events, &cells, &snaps);
    assert!(report.is_clean(), "{:?}", report.report);
    assert!(report.points > 0 && report.images > 0);
    assert!(
        pipeline_overlap_crash_points(&events, 2) > 0,
        "no crash points with two drains in flight — the ring never overlapped"
    );
}

#[test]
fn skip_ring_order_is_caught_by_the_sweep() {
    // Control above proves the identical schedule sweeps clean; with the
    // fault, the executor zeroes epoch 3's slot while epoch 2 is still
    // claimed. Every crash image between the two commits decodes to a
    // ring with a hole, which recovery rejects with a typed error (the
    // sweep maps it to a divergence).
    let (events, cells, snaps) = recorded_pipelined_cells(Some(Fault::SkipRingOrder));
    let faulty = sweep_cells(&events, &cells, &snaps);
    assert!(
        !faulty.is_clean(),
        "sweep failed to catch an out-of-order ring commit"
    );
    let d = faulty.report.of_kind(DiagnosticKind::RecoveryDivergence);
    assert!(!d.is_empty());
    assert!(
        d.iter().any(|d| d.detail.contains("CorruptRing")),
        "divergence must come from the ring decode: {d:?}"
    );
}

/// A two-checkpoint cell workload recorded under an optional injected
/// fault: `ncells` cells created and checkpointed (closing epoch 1... 2),
/// then updated and checkpointed again (closing epoch 2 — the faulty one
/// when a fault is armed), then the run ends with epoch 3 open and clean.
fn recorded_cells(
    fault: Option<Fault>,
    flushers: usize,
    depth: usize,
    ncells: u64,
) -> (Vec<TraceEvent>, Vec<ICell<u64>>, Snaps) {
    let region = Region::new(RegionConfig::sim(SIZE, SimConfig::no_eviction(5)));
    let sink = Arc::new(VecSink::new());
    region.set_trace_sink(sink.clone());
    let cfg = PoolConfig::builder()
        .flusher_threads(flushers)
        .depth(depth)
        .build()
        .unwrap();
    let pool = Pool::create(region, cfg).unwrap();
    let h = pool.register();
    let cells: Vec<ICell<u64>> = (0..ncells).map(|i| h.alloc_cell(i)).collect();
    let mut snaps: Snaps = vec![None, None]; // epochs 0, 1
    h.checkpoint_here(); // closes epoch 1: initial values durable
    snaps.push(Some((0..ncells).collect()));
    for (i, c) in cells.iter().enumerate() {
        h.update(*c, 100 + i as u64);
    }
    if let Some(f) = fault {
        pool.inject_fault(f);
    }
    h.checkpoint_here(); // closes epoch 2 — the faulty checkpoint
    snaps.push(Some((0..ncells).map(|i| 100 + i).collect()));
    drop(h);
    drop(pool);
    (sink.drain(), cells, snaps)
}

fn sweep_cells(
    events: &[TraceEvent],
    cells: &[ICell<u64>],
    snaps: &[Option<Vec<u64>>],
) -> SweepReport {
    let mut cfg = SweepConfig::new(SIZE);
    cfg.eviction_budget = 3;
    sweep(events, &cfg, |pool, rec| {
        let Some(slot) = snaps.get(rec.failed_epoch as usize) else {
            return Err(format!("recovered into unknown epoch {}", rec.failed_epoch));
        };
        let Some(want) = slot else {
            return Ok(()); // epoch 1: cells not yet checkpointed
        };
        for (i, c) in cells.iter().enumerate() {
            let got: u64 = pool.cell_get(*c);
            if got != want[i] {
                return Err(format!("cell {i}: got {got}, want {}", want[i]));
            }
        }
        Ok(())
    })
}

/// Sweeps the cell workload with and without [`Fault::SkipOneFlush`] at
/// `depth`: the control must sweep clean and the faulty run must diverge
/// after the faulty commit.
fn assert_skip_one_flush_caught(depth: usize) {
    // Control: the same workload without the fault sweeps clean, so any
    // divergence below is attributable to the injected bug. At depth 1
    // its trace must also crash inside the executor's drain window.
    let (events, cells, snaps) = recorded_cells(None, 0, depth, 48);
    let clean = sweep_cells(&events, &cells, &snaps);
    assert!(clean.is_clean(), "depth {depth}: {:?}", clean.report);
    assert!(clean.points > 0 && clean.images > 0, "depth {depth}");
    if depth == 1 {
        assert!(
            pipeline_overlap_crash_points(&events, 1) > 0,
            "depth-1 control trace has no in-drain crash points"
        );
    }

    // Fault: the second checkpoint skips the pwb of one tracked line —
    // inline at depth 0, on the executor's drain at depth 1 — but still
    // commits its ring slot durably. Every post-commit crash image
    // holds the stale line with the new epoch, and recovery cannot roll
    // it back (its cell is tagged with the *previous* epoch): the
    // recovered value must diverge from the model.
    let (events, cells, snaps) = recorded_cells(Some(Fault::SkipOneFlush), 0, depth, 48);
    let faulty = sweep_cells(&events, &cells, &snaps);
    assert!(
        !faulty.is_clean(),
        "depth {depth}: sweep failed to catch an injected missed flush"
    );
    let d = faulty.report.of_kind(DiagnosticKind::RecoveryDivergence);
    assert!(!d.is_empty(), "depth {depth}");
    assert!(
        d.iter().any(|d| d.epoch == Some(3)),
        "depth {depth}: divergence must surface after the faulty commit: {d:?}"
    );
}

#[test]
fn skip_one_flush_is_caught_by_the_sweep() {
    assert_skip_one_flush_caught(0);
}

#[test]
fn skip_drain_commit_order_is_caught_by_the_sweep() {
    // The executor commits ring slot 0 with one snapshotted line never
    // written back: commit before durability, on the executor's drain.
    assert_skip_one_flush_caught(1);
}

#[test]
fn skip_shard_fence_is_caught_by_the_sweep() {
    // Control: parallel flushers, no fault.
    let (events, cells, snaps) = recorded_cells(None, 2, 0, 48);
    let clean = sweep_cells(&events, &cells, &snaps);
    assert!(clean.is_clean(), "{:?}", clean.report);

    // Fault: the flusher claiming the last non-empty shard skips its
    // fence. Inline this would be masked by the commit's own psync on the
    // same thread; on the parallel path the flusher's write-backs stay
    // un-drained, so the base crash image after the ring commit misses
    // that shard's lines entirely.
    let (events, cells, snaps) = recorded_cells(Some(Fault::SkipShardFence), 2, 0, 48);
    let faulty = sweep_cells(&events, &cells, &snaps);
    assert!(
        !faulty.is_clean(),
        "sweep failed to catch an injected dropped shard fence"
    );
    assert!(!faulty
        .report
        .of_kind(DiagnosticKind::RecoveryDivergence)
        .is_empty());
}
