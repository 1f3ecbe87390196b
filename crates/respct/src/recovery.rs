//! Crash recovery (paper Fig. 5).
//!
//! After a crash, NVMM holds the persisted image of the region: everything
//! flushed by the last completed checkpoint, plus an arbitrary subset of the
//! crashed epoch's updates (lines that happened to be written back). The
//! recovery procedure:
//!
//! 1. decodes the epoch record ([`crate::epoch_record::read`]): the failed
//!    epoch `E` is the oldest epoch whose drain never committed (or the
//!    recorded running epoch when the ring is empty), and every epoch from
//!    `E` through the running one rolls back with it;
//! 2. rolls back every header cell ([`layout::header_cells`]) tagged inside
//!    the rolled-back range;
//! 3. lists every slot's registry chunks ([`crate::registry::list_chunks`];
//!    lengths now rolled back to their checkpointed values) and cuts the
//!    list into one contiguous run per worker thread with near-equal entry
//!    counts (cutting only between chunks, so a registry that one thread
//!    wrote still splits) — the parallel scan is how the paper reconstructs
//!    a 4M-bucket hash map in < 240 ms (Fig. 12). Each worker first *finds*
//!    its run's cells tagged inside the range, reading each one's backup,
//!    and stores nothing; a corrupt registry entry therefore ends recovery
//!    before any registered cell is rewritten. On a pool file the read
//!    mappings are then dropped, and each worker *applies* its own list,
//!    storing every backup over its record without loading from the line
//!    again: a rolled-back page then costs one fresh write fault, not a
//!    read fault plus a read-only→writable upgrade;
//! 4. re-tracks every rolled-back cell in the system tracking list, so the
//!    next checkpoint persists both the rollback writes and any re-executed
//!    updates (which will skip `add_modified` because their `epoch_id`
//!    already equals `E` — the subtle interaction the paper's recovery line
//!    `epoch = failed_epoch` relies on);
//! 5. resumes with the volatile epoch mirror set to `E` (the crashed epoch
//!    is re-executed, not skipped).

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use respct_pmem::arch::thread_cpu_ns;
use respct_pmem::{BackendKind, PAddr, Region, SyncToken, TraceMarker};

use crate::epoch_record::{self, EpochRecord};
use crate::error::PoolError;
use crate::incll::ICell;
use crate::layout::{self, MAGIC, MAX_THREADS, OFF_BUMP, OFF_MAGIC};
use crate::pool::{Pool, PoolConfig};
use crate::registry;

/// Summary of a recovery run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch that crashed (execution resumes inside it).
    pub failed_epoch: u64,
    /// Registered cells examined.
    pub cells_scanned: u64,
    /// Cells whose record was restored from backup.
    pub cells_rolled_back: u64,
    /// Wall-clock duration of the recovery procedure.
    pub duration: Duration,
    /// Critical path of the registry scan: the longest per-worker thread
    /// CPU time, a worker's find pass plus its apply pass. The workers'
    /// runs hold near-equal entry counts, so on an unloaded machine with a
    /// core per worker this is the scan's wall time; with fewer cores than
    /// workers, wall time collapses towards the sum of their work while the
    /// span still shows the per-worker share.
    pub scan_span: Duration,
    /// Worker threads the registry scan was cut for: the configured
    /// [`PoolConfig::recovery_threads`], else the available parallelism.
    pub threads: usize,
}

/// A cell to roll back and the backup it rolls back to.
type Rollback = (PAddr, u64);

/// Cuts `chunks` (in walk order) into `threads` contiguous runs with
/// near-equal entry counts, cutting only between chunks: run `k` ends at
/// the first chunk boundary at or past `⌈(k + 1) · total / threads⌉`
/// entries, so no run holds more than `⌈total / threads⌉ + 510`. Runs past
/// the last chunk are empty.
fn cut_runs(chunks: &[registry::Chunk], threads: usize) -> Vec<Range<usize>> {
    let total: u64 = chunks.iter().map(|c| c.n).sum();
    let (mut start, mut end, mut seen) = (0, 0, 0u64);
    (1..=threads as u64)
        .map(|k| {
            let target = (k * total).div_ceil(threads as u64);
            while end < chunks.len() && seen < target {
                seen += chunks[end].n;
                end += 1;
            }
            let run = start..end;
            start = end;
            run
        })
        .collect()
}

/// Runs `work` on every item, the first on the calling thread and each
/// other on a scoped thread of its own; results come back in item order.
/// The scope join is a real happens-before edge from every worker to the
/// caller: each worker releases [`recovery_join_token`] as it finishes and
/// the caller acquires it once, so what the workers stored is visibly
/// ordered before everything the caller does next.
fn fork_join<T: Send, R: Send>(
    region: &Region,
    items: Vec<T>,
    work: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let results = std::thread::scope(|s| {
        let joins: Vec<_> = items
            .map(|item| {
                let work = &work;
                s.spawn(move || {
                    let r = work(item);
                    region.sync_release(recovery_join_token(region));
                    r
                })
            })
            .collect();
        let first = work(first);
        let rest = joins
            .into_iter()
            .map(|j| j.join().expect("recovery worker"));
        std::iter::once(first).chain(rest).collect()
    });
    region.sync_acquire(recovery_join_token(region));
    results
}

/// Phase 2 of recovery: rolls back every registered cell, on `threads`
/// workers, in two passes over the same runs. The find pass only loads: it
/// lists every cell to roll back with its backup. The apply pass only
/// stores those backups. In between, the prefault's read-only page mappings
/// are dropped ([`Region::drop_page_mappings`]), so each page a rollback
/// writes costs one fresh write fault rather than a read-only→writable
/// upgrade. Appends every worker's re-track lines to `lines`, growing it
/// once, and returns `(scanned, rolled back, span)`, the span being the
/// longest worker's find plus apply time.
///
/// # Errors
///
/// The first [`PoolError::CorruptRegistry`] in walk order — the one a single
/// worker would meet — whichever worker reaches its own first. The find
/// pass meets it, so no registered cell has been rewritten.
fn scan_registry(
    region: &Region,
    record: &EpochRecord,
    threads: usize,
    lines: &mut Vec<u64>,
) -> Result<(u64, u64, u64), PoolError> {
    let mut chunks = Vec::new();
    // A bad length or link word ends the listing; the chunks before it
    // still come first in walk order, so they are scanned before it counts.
    let listed =
        (0..MAX_THREADS).try_for_each(|slot| registry::list_chunks(region, slot, &mut chunks));
    let runs: Vec<&[registry::Chunk]> = cut_runs(&chunks, threads)
        .into_iter()
        .filter(|run| !run.is_empty())
        .map(|run| &chunks[run])
        .collect();
    let found = fork_join(region, runs, |run| {
        let cpu0 = thread_cpu_ns();
        let mut rollbacks = Vec::new();
        for &c in run {
            registry::walk_chunk(region, c, |addr| {
                find_rollback(region, addr, record, &mut rollbacks);
            })?;
        }
        let scanned: u64 = run.iter().map(|c| c.n).sum();
        Ok((scanned, rollbacks, thread_cpu_ns().saturating_sub(cpu0)))
    });
    let found = found.into_iter().collect::<Result<Vec<_>, PoolError>>()?;
    listed?;
    if found.iter().any(|(_, rollbacks, _)| !rollbacks.is_empty()) {
        region.drop_page_mappings();
    }
    let applied = fork_join(region, found, |(scanned, rollbacks, find_ns)| {
        let cpu0 = thread_cpu_ns();
        let rolled = rollbacks.len() as u64;
        let lines = apply_rollbacks(region, rollbacks);
        (
            scanned,
            rolled,
            find_ns + thread_cpu_ns().saturating_sub(cpu0),
            lines,
        )
    });
    lines.reserve_exact(applied.iter().map(|(_, _, _, l)| l.len()).sum());
    let (mut scanned, mut rolled, mut span) = (0, 0, 0);
    for (s, r, cpu, mut l) in applied {
        scanned += s;
        rolled += r;
        span = span.max(cpu);
        lines.append(&mut l);
    }
    Ok((scanned, rolled, span))
}

/// The happens-before token for recovery's fork/joins: every worker
/// releases it before finishing, the coordinating thread acquires it once
/// after each scope join.
fn recovery_join_token(region: &Region) -> SyncToken {
    SyncToken::Chan {
        id: region as *const Region as u64,
    }
}

/// Lists the cell at `addr` in `out`, with its backup, if it was touched in
/// any epoch of the uncommitted range `record.failed ..= record.recorded` —
/// the oldest epoch whose drain never committed through the epoch that was
/// running at the crash (see [`crate::epoch_record`]; with a single drain
/// in flight the range is one or two epochs, matching the original
/// two-phase record). Only loads. Garbage tags in never-initialized cells
/// decode to astronomically large epochs and fall outside the range.
///
/// `#[inline]`: the registry scan calls this once per registered cell and
/// nearly always leaves at the tag test.
#[inline]
fn find_rollback(region: &Region, addr: PAddr, record: &EpochRecord, out: &mut Vec<Rollback>) {
    // The record's type does not matter: a rollback copies 8 bytes.
    let cell = ICell::<u64>::from_addr(addr);
    let tag = crate::incll::tag_epoch(addr, region.load(cell.epoch_addr()));
    if (record.failed..=record.recorded).contains(&tag) {
        out.push((addr, region.load(cell.backup_addr())));
    }
}

/// Restores every listed cell's record from the backup [`find_rollback`]
/// read, and returns the lines to re-track (they must be flushed at the
/// next checkpoint; see module docs), in the list's own allocation. Only
/// stores: a load from a rolled-back line here would map its page
/// read-only again, and the store would pay the upgrade fault that
/// dropping the mappings saved.
fn apply_rollbacks(region: &Region, rollbacks: Vec<Rollback>) -> Vec<u64> {
    let mut lines: Vec<u64> = rollbacks
        .into_iter()
        .map(|(addr, backup)| {
            region.trace_marker(TraceMarker::RecoveryApply { addr: addr.0 });
            region.store(addr, backup);
            addr.line()
        })
        .collect();
    lines.shrink_to_fit();
    lines
}

impl Pool {
    /// Recovers a pool from a region holding a crashed pool's persisted
    /// bytes — a live region restored from a crash image, a freshly mapped
    /// pool file, or [`Region::from_image`] around raw image bytes. The
    /// registry scan runs on [`PoolConfig::recovery_threads`] workers
    /// (default: the available parallelism, resolved here).
    ///
    /// ```
    /// use respct::{Pool, PoolConfig};
    /// # use std::sync::Arc;
    /// # use respct_pmem::{Region, RegionConfig, SimConfig};
    /// # let region = Region::new(RegionConfig::sim(1 << 20, SimConfig::no_eviction(1)));
    /// # let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
    /// # let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
    /// # region.restore(&img);
    /// let cfg = PoolConfig::builder().recovery_threads(4).build().unwrap();
    /// let (pool, report) = Pool::recover(region, cfg).expect("recover");
    /// # assert_eq!(report.threads, 4);
    /// ```
    ///
    /// # Errors
    ///
    /// [`PoolError::NotAPool`] if the region was never formatted,
    /// [`PoolError::SizeMismatch`] if the header size disagrees with the
    /// region, [`PoolError::CorruptRing`] if the epoch-record ring shows a
    /// hole or a stray claim, [`PoolError::CorruptRegistry`] if a slot's
    /// cell registry holds a pointer, length or cell address the region
    /// cannot back. Damaged media never panics recovery. A corrupt registry
    /// is met before any registered cell is rewritten; the header cells
    /// (the allocator's cursors, the registry lengths, the root) may
    /// already be rolled back by then.
    pub fn recover(
        region: Arc<Region>,
        cfg: PoolConfig,
    ) -> Result<(Arc<Pool>, RecoveryReport), PoolError> {
        let threads = cfg.recovery_threads();
        let t0 = Instant::now();
        if region.load::<u64>(OFF_MAGIC) != MAGIC {
            return Err(PoolError::NotAPool);
        }
        let header_size = region.load::<u64>(layout::OFF_SIZE);
        if header_size != region.size() as u64 {
            return Err(PoolError::SizeMismatch {
                header: header_size,
                region: region.size() as u64,
            });
        }
        let record = epoch_record::read(&region)?;
        let failed_epoch = record.failed;
        // Phase 0: prefault an mmap-backed region. A freshly mapped pool
        // file is all unpopulated PTEs, and at GB scale the demand minor
        // faults (one per 4 KiB) would otherwise dominate the registry
        // scan. Touch every page below the heap's high-water mark — the
        // bump cell's record or backup, whichever is higher: nothing past
        // it was ever handed out — one contiguous extent per scan worker,
        // so the fault storm parallelizes and each worker's stream keeps
        // the kernel's readahead sequential. The pages come in read-only:
        // this speeds up the registry scan's find pass, and the scan drops
        // these mappings again before it writes its rollbacks. Runs before
        // load tracing is enabled: warm-up reads carry no recovery
        // semantics.
        if region.backend_kind() == BackendKind::Mmap {
            const PAGE: u64 = 4096;
            let bump: u64 = region.load(OFF_BUMP);
            let bump_backup: u64 = region.load(ICell::<u64>::from_addr(OFF_BUMP).backup_addr());
            let high_water = bump.max(bump_backup).min(region.size() as u64);
            let pages = high_water.div_ceil(PAGE);
            let per = pages.div_ceil(threads as u64);
            std::thread::scope(|s| {
                for w in 0..threads as u64 {
                    let region = &region;
                    s.spawn(move || {
                        let mut acc = 0u8;
                        for p in (per * w)..(per * (w + 1)).min(pages) {
                            acc ^= region.load::<u8>(PAddr(p * PAGE));
                        }
                        std::hint::black_box(acc);
                    });
                }
            });
        }
        region.trace_marker(TraceMarker::RecoveryBegin { failed_epoch });
        // Recovery-time reads are what happens-before rule (c) of the checker
        // audits: surface them as Load events for the recovery window.
        region.set_trace_loads(true);

        // Phase 1: header cells.
        let mut header = Vec::new();
        let mut scanned = 0u64;
        for addr in layout::header_cells() {
            scanned += 1;
            find_rollback(&region, addr, &record, &mut header);
        }
        let mut rolled = header.len() as u64;
        let mut lines = apply_rollbacks(&region, header);
        // Phase 1.5: with the lengths restored, drop chains left empty.
        registry::clear_emptied_heads(&region);

        // Phase 2: registered cells, scanned in parallel. Build the pool
        // now (no application thread exists yet).
        let pool = Pool::attach(Arc::clone(&region), cfg, failed_epoch, true);
        let (s, r, scan_span_ns) = scan_registry(&region, &record, threads, &mut lines)
            .inspect_err(|_| region.set_trace_loads(false))?;
        scanned += s;
        rolled += r;

        // Phase 3: everything recovery rewrote — and every cell already
        // stamped with the failed epoch — must reach NVMM at the next
        // checkpoint. `track_lines` hands the list to the system slot as
        // its tracking list, so the recovered lines flow through the same
        // flush pipeline as live tracking.
        let mut serial = pool.lock_ckpt();
        epoch_record::repair(&region, &record, &lines);
        serial.system_slot().track_lines(lines);
        region.set_trace_loads(false);
        region.trace_marker(TraceMarker::RecoveryEnd {
            epoch: failed_epoch,
        });
        // Dropping the guard re-publishes on the checkpoint-lock token:
        // everything recovery wrote (rollbacks, epoch-record repair)
        // happens-before the first post-recovery `register()`.
        drop(serial);

        let report = RecoveryReport {
            failed_epoch,
            cells_scanned: scanned,
            cells_rolled_back: rolled,
            duration: t0.elapsed(),
            scan_span: Duration::from_nanos(scan_span_ns),
            threads,
        };
        pool.metrics.on_recovery(report);
        Ok((pool, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct_pmem::sim::{CrashImage, CrashMode};
    use respct_pmem::{RegionConfig, SimConfig};

    fn sim_region(seed: u64) -> Arc<Region> {
        Region::new(RegionConfig::sim(
            8 << 20,
            SimConfig::with_eviction(3, seed),
        ))
    }

    /// Crash the pool and come back up on the same region.
    fn crash_and_recover(region: &Arc<Region>) -> (Arc<Pool>, RecoveryReport) {
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        Pool::recover(Arc::clone(region), PoolConfig::default()).unwrap()
    }

    #[test]
    fn uncheckpointed_update_rolls_back() {
        let region = sim_region(1);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let c = h.alloc_cell(10u64);
        h.checkpoint_here(); // value 10 is durable
        h.update(c, 99); // crashed epoch
        drop(h);
        drop(pool);
        let (pool2, report) = crash_and_recover(&region);
        assert_eq!(report.failed_epoch, 2);
        assert_eq!(
            pool2.cell_get(c),
            10,
            "update from the crashed epoch must roll back"
        );
    }

    #[test]
    fn checkpointed_update_survives() {
        let region = sim_region(2);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let c = h.alloc_cell(10u64);
        h.update(c, 20);
        h.checkpoint_here();
        drop(h);
        drop(pool);
        let (pool2, _) = crash_and_recover(&region);
        assert_eq!(pool2.cell_get(c), 20);
    }

    #[test]
    fn rollback_even_when_everything_persisted() {
        // Clean shutdown (EvictAll) still counts as a crash: the epoch did
        // not complete, so its updates must roll back.
        let region = sim_region(3);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let c = h.alloc_cell(10u64);
        h.checkpoint_here();
        h.update(c, 99);
        drop(h);
        drop(pool);
        let img = region.crash(CrashMode::EvictAll);
        region.restore(&img);
        let (pool2, report) = Pool::recover(Arc::clone(&region), PoolConfig::default()).unwrap();
        assert_eq!(pool2.cell_get(c), 10);
        assert!(report.cells_rolled_back >= 1);
    }

    #[test]
    fn allocation_rolls_back_with_epoch() {
        let region = sim_region(4);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let _c1 = h.alloc_cell(1u64);
        h.checkpoint_here();
        let used_before = pool.heap_used();
        for _ in 0..3 {
            // Large blocks bypass the chunk cache and move the global bump.
            let _ = h.alloc(100_000, 64); // crashed-epoch allocations
        }
        for _ in 0..100 {
            let _ = h.alloc_cell(2u64); // crashed-epoch cell allocations
        }
        assert!(pool.heap_used() > used_before);
        drop(h);
        drop(pool);
        let (pool2, _) = crash_and_recover(&region);
        assert_eq!(pool2.heap_used(), used_before, "bump cursor must roll back");
    }

    #[test]
    fn repeated_crash_rounds_reuse_dirty_allocations() {
        // Regression: memory allocated in a crashed epoch keeps valid
        // address-mixed epoch tags while the registry entries describing it
        // roll back with `reg_len`. A later epoch re-allocating that memory
        // as-is fooled `init_InCLL`'s recycled-cell detection into skipping
        // re-registration — the new cell was then invisible to every future
        // recovery, and its dirty updates survived the *next* crash.
        // `EvictAll` persists everything (the mmap-backend shape, where all
        // stores reach the pool file), which maximizes surviving stale tags.
        let region = sim_region(11);
        {
            let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
            let h = pool.register();
            h.checkpoint_here();
            let _dirty = h.alloc_cell(0xdeadu64); // crashed-epoch allocation
        }
        let mut cells: Vec<crate::ICell<u64>> = Vec::new();
        for round in 0..4u64 {
            let img = region.crash(CrashMode::EvictAll);
            region.restore(&img);
            let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).unwrap();
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(
                    pool.cell_get(*c),
                    i as u64,
                    "round {round}: dirty update of round-{i} cell must have rolled back"
                );
            }
            let h = pool.register();
            // Committed work: a fresh cell, re-using the previous round's
            // rolled-back allocation.
            let c = h.alloc_cell(round);
            h.checkpoint_here();
            cells.push(c);
            // Dirty epoch: overwrite the committed cell and allocate again.
            h.update(c, 5555);
            let _dirty = h.alloc_cell(0xdeadu64);
        }
    }

    #[test]
    fn resumed_epoch_then_checkpoint_then_second_crash() {
        // The trickiest schedule: crash in epoch E, recover, re-execute the
        // update (which skips re-logging because epoch_id == E), checkpoint,
        // then crash again in E+1 and verify the value from the E checkpoint
        // survives — this exercises the recovery re-tracking of step 4.
        let region = sim_region(5);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let c = h.alloc_cell(10u64);
        h.checkpoint_here(); // E=2 begins
        h.update(c, 50);
        drop(h);
        drop(pool);
        let (pool2, report) = crash_and_recover(&region);
        assert_eq!(report.failed_epoch, 2);
        assert_eq!(pool2.cell_get(c), 10);
        let h2 = pool2.register();
        h2.update(c, 60); // re-execution in the resumed epoch 2
        h2.checkpoint_here(); // closes epoch 2
        h2.update(c, 70); // epoch 3, will crash
        drop(h2);
        drop(pool2);
        let (pool3, report3) = crash_and_recover(&region);
        assert_eq!(report3.failed_epoch, 3);
        assert_eq!(
            pool3.cell_get(c),
            60,
            "checkpointed re-execution must survive"
        );
    }

    /// The RP id a checkpoint persists is the one the thread last passed
    /// before it parked (`checkpoint_here`) or raised its flag
    /// (`allow_checkpoints`); an `rp()` in the crashed epoch is lost with
    /// it. At depths 0, 1 and 4.
    #[test]
    fn rp_id_recovered() {
        for (seed, depth) in (6..).zip([0, 1, 4]) {
            for inside_allow in [false, true] {
                let case = format!("depth {depth}, allow {inside_allow}");
                let cfg = PoolConfig::builder().depth(depth).build().unwrap();
                let region = sim_region(seed);
                let pool = Pool::create(Arc::clone(&region), cfg).unwrap();
                let mut h = pool.register();
                h.rp(41);
                if inside_allow {
                    let allow = h.allow_checkpoints();
                    pool.checkpoint_now();
                    drop(allow);
                } else {
                    h.checkpoint_here();
                }
                h.rp(42); // crashed epoch: rolls back to 41
                assert_eq!(h.last_rp(), 42, "{case}");
                drop(h);
                drop(pool); // commits every drain in flight
                let (pool2, _) = crash_and_recover(&region);
                let h2 = pool2.register();
                assert_eq!(h2.last_rp(), 41, "{case}");
            }
        }
    }

    /// The scan's run cutter, over chunk lists that are empty, shorter than
    /// the thread count, uniform and ragged: every chunk lands in exactly
    /// one run, runs follow walk order, and none outgrows its share by a
    /// chunk or more.
    #[test]
    fn cut_runs_cover_every_chunk_once_in_order() {
        use crate::layout::REG_CHUNK_ENTRIES;
        let chunk = |n| registry::Chunk {
            slot: 0,
            chunk: 0,
            first: 0,
            n,
        };
        let ragged: Vec<_> = (0..40)
            .map(|i| chunk(if i % 7 == 6 { 13 } else { REG_CHUNK_ENTRIES }))
            .collect();
        for chunks in [
            vec![],
            vec![chunk(1)],
            vec![chunk(REG_CHUNK_ENTRIES); 3],
            ragged,
        ] {
            let total: u64 = chunks.iter().map(|c| c.n).sum();
            for threads in [1, 2, 3, 8, 64] {
                let runs = cut_runs(&chunks, threads);
                assert_eq!(runs.len(), threads);
                let mut next = 0;
                for run in &runs {
                    assert_eq!(run.start, next, "{runs:?}");
                    next = run.end;
                    let entries: u64 = chunks[run.clone()].iter().map(|c| c.n).sum();
                    assert!(
                        entries < total.div_ceil(threads as u64) + REG_CHUNK_ENTRIES,
                        "{threads} threads, {total} entries: {runs:?}"
                    );
                }
                assert_eq!(next, chunks.len(), "{runs:?}");
            }
        }
    }

    /// A crash image whose `per_slot[i]` cells were registered by the
    /// `i`-th of as many live handles (so in as many slots), every third
    /// cell dirtied in the crashed epoch 2. Cell `i` holds `i` at the
    /// checkpoint.
    fn registry_crash(
        seed: u64,
        per_slot: &[u64],
    ) -> (Arc<Region>, CrashImage, Vec<crate::ICell<u64>>) {
        let region = sim_region(seed);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let mut handles: Vec<_> = per_slot.iter().map(|_| pool.register()).collect();
        let mut cells = Vec::new();
        for (h, &n) in handles.iter().zip(per_slot) {
            for _ in 0..n {
                let i = cells.len() as u64;
                cells.push(h.alloc_cell(i));
            }
        }
        let h = handles.remove(0);
        drop(handles); // an idle live handle would hold the checkpoint up
        h.checkpoint_here();
        for (i, c) in cells.iter().enumerate().step_by(3) {
            h.update(*c, 10_000 + i as u64); // crashed epoch
        }
        drop(h);
        drop(pool);
        let img = region.crash(CrashMode::PowerFailure);
        (region, img, cells)
    }

    /// Crash images recovered from a restored live region and from
    /// `Region::from_image`, on 1, 2, 3 and 8 scan threads: every
    /// combination reports the thread count it was given and recovers the
    /// same cells with the same counts. One image has a single slot; in the
    /// other one slot holds 1000 of 1080 cells — neither count a multiple
    /// of a chunk's 511 entries.
    #[test]
    fn recovery_agrees_across_sources_and_thread_counts() {
        for (seed, per_slot) in [(7, &[500][..]), (9, &[1000, 40, 40][..])] {
            let (region, img, cells) = registry_crash(seed, per_slot);
            let mut counts = Vec::new();
            for threads in [1, 2, 3, 8] {
                for from_image in [false, true] {
                    let source = if from_image {
                        // A synthetic region around the raw bytes; the
                        // original is not touched.
                        Region::from_image(img.bytes())
                    } else {
                        region.restore(&img);
                        Arc::clone(&region)
                    };
                    let cfg = PoolConfig::builder()
                        .recovery_threads(threads)
                        .build()
                        .unwrap();
                    let (pool2, report) = Pool::recover(source, cfg).unwrap();
                    let case = format!("{per_slot:?}: threads {threads}, image {from_image}");
                    assert_eq!(report.threads, threads, "{case}");
                    assert_eq!(report.failed_epoch, 2, "{case}");
                    for (i, c) in cells.iter().enumerate() {
                        assert_eq!(pool2.cell_get(*c), i as u64, "{case}");
                    }
                    counts.push((report.cells_scanned, report.cells_rolled_back));
                }
            }
            assert!(counts.iter().all(|c| *c == counts[0]), "{counts:?}");
            let registered: u64 = per_slot.iter().sum();
            assert_eq!(counts[0].0, registered + 523, "{per_slot:?}");
        }
    }

    #[test]
    fn root_pointer_recovers() {
        let region = sim_region(8);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let obj = h.alloc(64, 64);
        h.set_root(obj);
        h.checkpoint_here();
        drop(h);
        drop(pool);
        let (pool2, _) = crash_and_recover(&region);
        assert_eq!(pool2.root(), obj);
    }

    #[test]
    fn recovery_from_image_rejects_garbage() {
        let err =
            Pool::recover(Region::from_image(&[0u8; 1 << 20]), PoolConfig::default()).unwrap_err();
        assert_eq!(err, PoolError::NotAPool);
    }

    /// A checkpointed image (`c = 20`, epoch counter 3) whose epoch header
    /// is then overwritten by hand: `ring` words first, epoch counter last.
    fn image_with_ring(ring: &[(usize, u64)], epoch: u64) -> (Vec<u8>, crate::ICell<u64>) {
        let region = sim_region(12);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let c = h.alloc_cell(10u64);
        h.checkpoint_here(); // closes epoch 1
        h.update(c, 20); // tagged epoch 2, backup = 10
        h.checkpoint_here(); // closes epoch 2: c = 20 durable, counter = 3
        drop(h);
        drop(pool);
        let mut bytes = region.crash(CrashMode::PowerFailure).bytes().to_vec();
        let mut put = |at: PAddr, v: u64| {
            bytes[at.0 as usize..][..8].copy_from_slice(&v.to_ne_bytes());
        };
        for &(slot, e) in ring {
            put(layout::epoch_ring_slot(slot), e);
        }
        put(layout::OFF_EPOCH, epoch);
        (bytes, c)
    }

    /// The on-media format of a single in-flight drain is pinned: the
    /// record a depth-1 pool of any earlier build left behind
    /// mid-drain — state word (ring slot 0) `= N`, epoch counter `= N + 1`
    /// — and its torn prefix (state word durable, counter not yet) both
    /// recover by rolling epoch `N` back, exactly as before the drain moved
    /// onto the executor.
    #[test]
    fn mid_drain_record_of_depth_one_rolls_back_the_draining_epoch() {
        for (ring, epoch, failed, value) in [
            (&[][..], 3, 3, 20),       // control: drain committed
            (&[(0, 2)][..], 3, 2, 10), // mid-drain: ring[0] = N, epoch = N + 1
            (&[(0, 2)][..], 2, 2, 10), // torn prefix: ring[0] = N, epoch = N
        ] {
            let (bytes, c) = image_with_ring(ring, epoch);
            let (pool, report) =
                Pool::recover(Region::from_image(&bytes), PoolConfig::default()).unwrap();
            assert_eq!(report.failed_epoch, failed, "ring {ring:?} epoch {epoch}");
            assert_eq!(pool.cell_get(c), value, "ring {ring:?} epoch {epoch}");
        }
    }

    #[test]
    fn ring_hole_or_stray_claim_is_a_typed_error() {
        for ring in [
            &[(1, 1)][..],         // stray: claim two epochs behind the counter
            &[(0, 2), (2, 4)][..], // hole: 2 and 4 claimed, 3 committed
        ] {
            let (bytes, _) = image_with_ring(ring, 3);
            let err = Pool::recover(Region::from_image(&bytes), PoolConfig::default()).unwrap_err();
            assert!(
                matches!(
                    err,
                    PoolError::CorruptRing {
                        recorded_epoch: 3,
                        ..
                    }
                ),
                "ring {ring:?}: {err:?}"
            );
        }
    }

    #[test]
    fn recover_unformatted_region_fails() {
        let region = Region::new(RegionConfig::fast(1 << 20));
        let err = Pool::recover(region, PoolConfig::default()).unwrap_err();
        assert_eq!(err, PoolError::NotAPool);
    }
}
