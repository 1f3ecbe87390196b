//! The persistent pool: region + epoch state + checkpoint machinery.
//!
//! A [`Pool`] owns an emulated-NVMM [`Region`] formatted with the layout of
//! [`crate::layout`] and holds the shared state of the ResPCT algorithm
//! (paper Fig. 3): the epoch, `timer`, the per-thread flags and slots. The
//! primitive operations (`init_InCLL`, `update_InCLL`, `add_modified`, the
//! allocator, the cell registry) are methods of whoever holds a thread slot
//! ([`crate::slot`]); application threads reach them through
//! [`ThreadHandle`](crate::thread::ThreadHandle)s.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use respct_pmem::{PAddr, Pod, Region, SyncToken, TraceMarker};

use crate::incll::ICell;
use crate::layout::{
    self, FIRST_EPOCH, MAGIC, MAX_THREADS, NUM_CLASSES, OFF_BUMP, OFF_MAGIC, OFF_ROOT, OFF_SIZE,
};
use crate::sync::{TracedGuard, TracedMutex};

/// What the checkpoint procedure actually does — the knobs behind the
/// paper's Fig. 10 overhead decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointMode {
    /// The full algorithm: quiesce, flush modified lines, advance the epoch.
    #[default]
    Full,
    /// Everything except flushing the modified lines ("ResPCT-noFlush").
    NoFlush,
}

/// A persistency fault to inject into the runtime (test-only; behind the
/// `fault-inject` feature). Each injected fault fires exactly once, at the
/// next opportunity, and exists so tests can prove the trace checker
/// actually detects the corresponding violation (non-vacuity).
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next full checkpoint skips the `pwb` of one tracked line (the
    /// middle line of the epoch's sorted unique lines): a missed-flush bug.
    SkipOneFlush,
    /// The next first-update-in-epoch of an InCLL cell skips writing the
    /// in-line backup + epoch tag: a logging-rule bug.
    SkipLog,
    /// The next full checkpoint omits the `psync` between the data flushes
    /// and the ring commit: a cross-line ordering bug.
    SkipFence,
    /// The flusher claiming the last shard (the highest range of sorted
    /// lines) of the next full checkpoint skips its fence: one shard's
    /// write-backs race the ring commit while every other shard is properly
    /// fenced — the parallel pipeline's characteristic failure mode.
    SkipShardFence,
    /// The drain executor commits the next two queued epochs in
    /// the *wrong* order: it holds the older epoch's ticket, flushes and
    /// commits the newer epoch first, then commits the older one — the
    /// ordered-commit invariant's characteristic bug. A crash between the
    /// two commits leaves a ring with a hole (a committed epoch sandwiched
    /// between uncommitted ones), which recovery rejects as corrupt.
    SkipRingOrder,
    /// The next happens-before edge at the given site is *not* reported to
    /// the trace sink (the runtime still synchronizes — only the edge the
    /// trace checker relies on disappears). Proves each happens-before
    /// rule non-vacuous without actually corrupting the execution.
    DropSyncEdge(SyncEdgeSite),
}

/// Which synchronization edge [`Fault::DropSyncEdge`] suppresses.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEdgeSite {
    /// The release edge of the next [`TracedMutex`](crate::TracedMutex)
    /// guard drop — an application lock's, the checkpoint lock's or a
    /// free-list class lock's: the next thread through that lock appears
    /// unsynchronized with this one's stores — a persist race (rule a).
    LockRelease,
    /// The release edge a flusher worker publishes with its shard
    /// acknowledgement: the epoch commit appears not HB-after that worker's
    /// fences — an un-ordered commit (rule b).
    FlusherAck,
    /// The acquire edge a thread takes when its push-out wait observes the
    /// drain commit: the thread's backup overwrite appears unordered with
    /// the ring commit (rule b, push-out leg).
    DrainHandshake,
}

/// Pool construction parameters.
///
/// Construct via [`PoolConfig::default`] or, for anything non-default,
/// [`PoolConfig::builder`] — the builder validates knob combinations so an
/// invalid config is unrepresentable as a live `PoolConfig`.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of dedicated flusher threads; 0 flushes inline on the
    /// checkpointing thread. The paper uses a pool of flusher threads
    /// pinned one-to-one with program threads (§5).
    pub(crate) flusher_threads: usize,
    pub(crate) mode: CheckpointMode,
    /// Hot-path metrics instrumentation (per-update counters, RP-stall
    /// timing). Checkpoint-phase metrics are recorded regardless — they are
    /// per checkpoint, not per operation.
    pub(crate) metrics: bool,
    /// Checkpoint depth: how many closed epochs may be claimed in the
    /// header's epoch-record ring but not yet committed. 0 (the default)
    /// drains every epoch inline before the threads are released; `d ≥ 1`
    /// drains on the executor, with up to `d` epochs in flight.
    pub(crate) depth: usize,
    /// Region size [`Pool::open`] uses when it must create a fresh pool
    /// (an existing pool file keeps its own size). Default 64 MiB.
    pub(crate) pool_size: usize,
    /// Worker threads for the registry scan of [`Pool::recover`] (and so of
    /// [`Pool::open`] on an existing pool); `None` = the available
    /// parallelism, resolved when recovery runs. Paper Fig. 12 uses 32.
    pub(crate) recovery_threads: Option<usize>,
}

/// Default region size for pools created by [`Pool::open`] (64 MiB).
pub const DEFAULT_POOL_SIZE: usize = 64 << 20;

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            flusher_threads: 0,
            mode: CheckpointMode::Full,
            metrics: true,
            depth: 0,
            pool_size: DEFAULT_POOL_SIZE,
            recovery_threads: None,
        }
    }
}

impl PoolConfig {
    /// Starts building a validated config.
    pub fn builder() -> PoolConfigBuilder {
        PoolConfigBuilder {
            cfg: PoolConfig::default(),
        }
    }

    /// Number of dedicated flusher threads (0 = inline flushing).
    pub fn flusher_threads(&self) -> usize {
        self.flusher_threads
    }

    /// The checkpoint mode.
    pub fn mode(&self) -> CheckpointMode {
        self.mode
    }

    /// Whether hot-path metrics instrumentation is on.
    pub fn metrics(&self) -> bool {
        self.metrics
    }

    /// The checkpoint depth (0 = every epoch drains before the release).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Region size [`Pool::open`] uses when creating a fresh pool.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Worker threads for the recovery registry scan: the builder's value,
    /// else [`std::thread::available_parallelism`] (1 if that is unknown),
    /// asked at each call.
    pub fn recovery_threads(&self) -> usize {
        self.recovery_threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }
}

/// Maximum dedicated flusher threads.
pub const MAX_FLUSHERS: usize = 64;

/// Builder for [`PoolConfig`]. Terminate with [`build`](Self::build), which
/// validates the combination of knobs.
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the validated PoolConfig"]
pub struct PoolConfigBuilder {
    cfg: PoolConfig,
}

impl PoolConfigBuilder {
    /// Sets the number of dedicated flusher threads (0 = flush inline on
    /// the checkpointing thread).
    pub fn flusher_threads(mut self, n: usize) -> Self {
        self.cfg.flusher_threads = n;
        self
    }

    /// Sets the checkpoint mode.
    pub fn mode(mut self, mode: CheckpointMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Enables or disables hot-path metrics instrumentation (default: on).
    /// Checkpoint-phase metrics stay on either way.
    pub fn metrics(mut self, on: bool) -> Self {
        self.cfg.metrics = on;
        self
    }

    /// Sets the checkpoint depth `d` (default 0). At 0 a checkpoint flushes
    /// and commits the closing epoch before it releases the quiesced
    /// threads. At `d` in `1..=`[`MAX_EPOCH_PIPELINE`] it releases them once
    /// the tracking lists are moved out and the epoch's ring-slot claim is
    /// durable; the drain executor flushes and commits strictly in epoch
    /// order, and a checkpoint that finds `d` epochs still uncommitted waits
    /// for the oldest commit before it quiesces the threads.
    ///
    /// [`MAX_EPOCH_PIPELINE`]: crate::layout::MAX_EPOCH_PIPELINE
    pub fn depth(mut self, d: usize) -> Self {
        self.cfg.depth = d;
        self
    }

    /// `depth(max(depth, 1))` when `on`, else `depth(0)` — the spelling
    /// the benchmark's `async` arm (depth 1) is written in.
    pub fn async_checkpoint(self, on: bool) -> Self {
        let d = if on { self.cfg.depth.max(1) } else { 0 };
        self.depth(d)
    }

    /// [`depth(k)`](Self::depth) — the spelling the benchmark's
    /// `pipelined` arm (depth 4) is written in.
    pub fn epoch_pipeline(self, k: usize) -> Self {
        self.depth(k)
    }

    /// Sets the region size [`Pool::open`] uses when it creates a fresh
    /// pool (default 64 MiB). An existing pool file keeps its own size.
    pub fn size(mut self, bytes: usize) -> Self {
        self.cfg.pool_size = bytes;
        self
    }

    /// Sets the worker-thread count for the registry scan of
    /// [`Pool::recover`] and of [`Pool::open`] on an existing pool
    /// (default: the available parallelism).
    pub fn recovery_threads(mut self, n: usize) -> Self {
        self.cfg.recovery_threads = Some(n);
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<PoolConfig, crate::error::PoolError> {
        use crate::error::PoolError::InvalidConfig;
        let c = &self.cfg;
        if c.flusher_threads > MAX_FLUSHERS {
            return Err(InvalidConfig("flusher_threads exceeds MAX_FLUSHERS (64)"));
        }
        if c.mode == CheckpointMode::NoFlush && c.flusher_threads > 0 {
            return Err(InvalidConfig(
                "NoFlush mode never flushes; flusher_threads must be 0",
            ));
        }
        if c.mode == CheckpointMode::NoFlush && c.depth > 0 {
            return Err(InvalidConfig(
                "NoFlush mode never writes lines back; depth must be 0 (an executor's push-out does)",
            ));
        }
        if c.depth > layout::MAX_EPOCH_PIPELINE {
            return Err(InvalidConfig(
                "depth exceeds MAX_EPOCH_PIPELINE (the header's epoch-record ring capacity)",
            ));
        }
        if c.pool_size == 0 {
            return Err(InvalidConfig("pool size must be positive"));
        }
        if c.recovery_threads == Some(0) {
            return Err(InvalidConfig(
                "recovery_threads must be at least 1 (the scan needs a worker)",
            ));
        }
        Ok(self.cfg)
    }
}

/// The persistent pool. See the module docs.
pub struct Pool {
    pub(crate) region: Arc<Region>,
    pub(crate) cfg: PoolConfig,
    /// Volatile mirror of the NVMM epoch counter. Written only by the
    /// checkpointer while every worker is parked.
    pub(crate) epoch_mirror: AtomicU64,
    /// "A checkpoint wants to run" (paper Fig. 3 `timer`).
    pub(crate) timer: AtomicBool,
    /// Per-thread "I am parked / checkpoint may proceed" flags
    /// (`perThread_flag`), cache-padded against false sharing.
    pub(crate) flags: Box<[CachePadded<AtomicBool>]>,
    /// Which slots belong to live handles.
    pub(crate) active: Box<[AtomicBool]>,
    pub(crate) slots: crate::slot::SlotTable,
    /// Free slot ids for registration (slot 0 is the system slot).
    pub(crate) free_slots: Mutex<Vec<usize>>,
    /// Volatile mirror of the global bump offset (the mutex is also the
    /// chunk-grab lock); synced into the bump cell at checkpoints.
    pub(crate) bump_vol: Mutex<u64>,
    /// Volatile mirrors of the free-list heads, one lock per size class;
    /// synced into the head cells at checkpoints. Traced: a pop's payload
    /// stores must be ordered after the push's link-word store.
    pub(crate) class_heads: Box<[TracedMutex<u64>]>,
    /// Serializes checkpoints and registration/deregistration.
    pub(crate) ckpt_lock: TracedMutex<()>,
    /// Background drain executor (pools of depth ≥ 1 only): owns the
    /// worker thread that drains queued epoch tickets and commits their
    /// ring slots in order. Immutable after construction, so the hot path's
    /// `is_some()` test costs no shared cache line.
    pub(crate) pipeline: Option<crate::checkpoint::DrainExec>,
    pub(crate) metrics: Arc<crate::metrics::RuntimeMetrics>,
    /// The drain side (flush phase, `drain_oldest`, committed frees),
    /// shared with the executor's worker.
    pub(crate) drain: Arc<crate::checkpoint::DrainCtx>,
    /// Whether bump-fresh allocations must be zeroed before hand-out. Set
    /// on recovered pools: memory the crashed epoch allocated and wrote
    /// sits above the restored cursors with live-looking InCLL epoch tags,
    /// while the registry entries describing it rolled back with
    /// `reg_len`. Handing such a block out as-is would fool `init_InCLL`'s
    /// recycled-cell detection into skipping re-registration, leaving the
    /// new cell invisible to every future recovery. Zeroing on hand-out
    /// restores the fresh-memory invariant exactly where it is consumed
    /// (the crashed epoch's high-water mark is not recorded anywhere, so
    /// recovery itself cannot bound a scrub). Fresh pools skip the cost:
    /// their bump memory is virgin-zero by construction.
    pub(crate) scrub_fresh: bool,
}

/// The reserved slot used by the checkpointer and recovery.
pub(crate) const SYSTEM_SLOT: usize = 0;

impl Pool {
    /// Formats `region` as a fresh pool and returns it.
    ///
    /// # Errors
    ///
    /// [`PoolError::RegionTooSmall`](crate::PoolError::RegionTooSmall) if
    /// the region cannot hold the header plus a minimal heap.
    pub fn create(
        region: Arc<Region>,
        cfg: PoolConfig,
    ) -> Result<Arc<Pool>, crate::error::PoolError> {
        let heap = layout::heap_start();
        if (region.size() as u64) <= heap.0 + 4096 {
            return Err(crate::error::PoolError::RegionTooSmall {
                need: heap.0 + 4096,
                got: region.size() as u64,
            });
        }
        region.store(OFF_SIZE, region.size() as u64);
        crate::epoch_record::format(&region);
        // Header cells: record = backup = initial value, epoch_id = 0 so the
        // first update in epoch FIRST_EPOCH logs them normally. Everything
        // starts at 0 but the bump cursor, which starts at the heap.
        for addr in layout::header_cells() {
            Self::format_cell_u64(&region, addr, if addr == OFF_BUMP { heap.0 } else { 0 });
        }
        crate::registry::format(&region);
        // Persist the formatted header, then set the magic *last* and
        // persist it separately: the magic's durability implies the whole
        // header's (it is fenced after everything else, and shares its
        // cache line with the size field written above, so PCSO's same-line
        // prefix order covers an eviction of that line too). A crash at any
        // instant of format therefore reads as "not a pool" or as a valid
        // empty pool — never as a valid magic over a partial header.
        region.flush_range(PAddr(0), heap.0 as usize);
        region.store(OFF_MAGIC, MAGIC);
        region.flush_range(OFF_MAGIC, 8);
        Ok(Self::attach(region, cfg, FIRST_EPOCH, false))
    }

    /// Opens the pool file at `path` on the mmap backend, resolving to
    /// create-or-recover:
    ///
    /// * no file, an empty one, or one whose magic word is still 0 (a
    ///   format that never completed: [`Pool::create`] writes and fences
    ///   the magic last, so this is what a kill during the first start
    ///   leaves) → format a fresh pool — of [`PoolConfig::pool_size`] bytes
    ///   when this call creates the file; the returned report is `None`;
    /// * an existing formatted pool → map it at its own size and run
    ///   [`Pool::recover`]; the returned report is `Some` (its
    ///   `failed_epoch` is the epoch execution resumes in — recovery after
    ///   a clean shutdown simply rolls back the empty open epoch);
    /// * an existing file with any other magic →
    ///   [`PoolError::NotAPool`](crate::PoolError::NotAPool) — never a
    ///   silent reformat.
    ///
    /// A zero magic word is taken as permission to format *any* file the
    /// mmap backend can map (a cache-line multiple, large enough), pool or
    /// not: a sparse file or a zero-filled image at `path` is formatted
    /// over. Point `path` only at files meant to hold a pool.
    ///
    /// # Errors
    ///
    /// [`PoolError::Backend`](crate::PoolError::Backend) for pool-file I/O
    /// failures, plus every error [`Pool::create`] and [`Pool::recover`]
    /// can return. When formatting fails, a file this call created — or
    /// found empty, which the backend treats as absent — is removed again;
    /// a file that already held bytes is left as it was.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        cfg: PoolConfig,
    ) -> Result<(Arc<Pool>, Option<crate::recovery::RecoveryReport>), crate::error::PoolError> {
        let path = path.as_ref();
        let region = Region::try_new(respct_pmem::RegionConfig::mmap(cfg.pool_size, path))?;
        let created = region.was_created();
        if !created && region.load::<u64>(OFF_MAGIC) != 0 {
            let (pool, report) = Self::recover(region, cfg)?;
            return Ok((pool, Some(report)));
        }
        match Self::create(region, cfg) {
            Ok(pool) => Ok((pool, None)),
            Err(e) => {
                if created {
                    // Best effort: the error worth reporting is `e`.
                    let _ = std::fs::remove_file(path);
                }
                Err(e)
            }
        }
    }

    /// Flushes the region to its backing store (`msync` on the mmap
    /// backend; no-op on heap backends). Call after a checkpoint when the
    /// pool file must survive a *machine* crash on a non-DAX filesystem —
    /// process-crash durability needs no msync (the kernel owns the mapped
    /// pages).
    ///
    /// # Errors
    ///
    /// [`PoolError::Backend`](crate::PoolError::Backend) with the `msync`
    /// failure.
    pub fn sync_data(&self) -> Result<(), crate::error::PoolError> {
        self.region
            .sync_data()
            .map_err(crate::error::PoolError::from)
    }

    fn format_cell_u64(region: &Region, addr: PAddr, val: u64) {
        let cell = ICell::<u64>::from_addr(addr);
        region.store(addr, val);
        region.store(cell.backup_addr(), val);
        region.store(cell.epoch_addr(), 0u64);
        region.trace_marker(TraceMarker::CellDeclare { addr: addr.0 });
    }

    /// Builds the volatile side of a pool over an already-valid region.
    /// `scrub_fresh` is set for recovered pools (see [`Pool::scrub_fresh`]).
    pub(crate) fn attach(
        region: Arc<Region>,
        cfg: PoolConfig,
        epoch: u64,
        scrub_fresh: bool,
    ) -> Arc<Pool> {
        let flags = (0..MAX_THREADS)
            .map(|i| CachePadded::new(AtomicBool::new(i == SYSTEM_SLOT)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let active = (0..MAX_THREADS)
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>();
        let u64_cell = |addr: PAddr| -> u64 { region.load(addr) };
        let slots = crate::slot::SlotTable::new(&region);
        let class_heads = (0..NUM_CLASSES)
            .map(|c| TracedMutex::new(u64_cell(layout::freelist_cell(c))))
            .collect::<Vec<_>>();
        let bump_vol = Mutex::new(u64_cell(OFF_BUMP));
        // Slots 1.. are free; 0 is the system slot.
        let free: Vec<usize> = (1..MAX_THREADS).rev().collect();
        let metrics = Arc::new(crate::metrics::RuntimeMetrics::new(cfg.metrics));
        metrics.register_pmem(region.stats());
        let drain = Arc::new(crate::checkpoint::DrainCtx::new(
            Arc::clone(&region),
            &cfg,
            epoch,
            Arc::clone(&metrics),
        ));
        let pipeline =
            (cfg.depth > 0).then(|| crate::checkpoint::DrainExec::new(Arc::clone(&drain)));
        let pool = Arc::new(Pool {
            region,
            cfg,
            epoch_mirror: AtomicU64::new(epoch),
            timer: AtomicBool::new(false),
            flags,
            active: active.into_boxed_slice(),
            slots,
            free_slots: Mutex::new(free),
            bump_vol,
            class_heads: class_heads.into_boxed_slice(),
            ckpt_lock: TracedMutex::new(()),
            pipeline,
            metrics,
            drain,
            scrub_fresh,
        });
        // Publish the constructing thread's work (header format, recovery
        // phase-1 rollbacks) through the checkpoint lock: the first
        // `register()` takes it, so pool construction happens-before every
        // handle's stores in the trace — matching the real `Arc` hand-off
        // that publishes the pool to other threads.
        drop(pool.ckpt_lock.lock(&pool));
        pool
    }

    /// Arms a one-shot persistency fault. Test-only: lets the analysis
    /// crate prove its checker catches real protocol violations.
    #[cfg(feature = "fault-inject")]
    pub fn inject_fault(&self, fault: Fault) {
        *self.drain.flusher.fault.lock() = Some(fault);
    }

    /// Pauses (`true`) or resumes (`false`) the drain executor *before* it
    /// drains its next ticket. Test-only: lets tests park several claimed
    /// epochs in the ring deterministically (e.g. to record a trace window
    /// with two drains genuinely outstanding). No-op at depth 0: an inline
    /// drain never parks.
    #[cfg(feature = "fault-inject")]
    pub fn hold_drains(&self, on: bool) {
        self.drain.hold.store(on, Ordering::Release);
    }

    /// Consumes the armed fault if it matches `want`.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn take_fault(&self, want: Fault) -> bool {
        self.drain.flusher.take_fault(want)
    }

    /// The underlying region.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Takes the checkpoint-serialization lock. It is traced, so
    /// registration, deregistration, and checkpoints are visibly ordered in
    /// the trace.
    pub(crate) fn lock_ckpt(&self) -> CkptLockGuard<'_> {
        CkptLockGuard {
            pool: self,
            _lock: self.ckpt_lock.lock(self),
        }
    }

    /// The current epoch number.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch_mirror.load(Ordering::Relaxed)
    }

    /// The pool's runtime metrics (registry access, enabled flag, checkpoint
    /// counters via [`ckpt_snapshot`](crate::RuntimeMetrics::ckpt_snapshot)).
    pub fn runtime_metrics(&self) -> &Arc<crate::metrics::RuntimeMetrics> {
        &self.metrics
    }

    /// The pool's metrics registry — render with
    /// [`to_prometheus`](respct_obs::MetricsRegistry::to_prometheus) or
    /// [`to_json`](respct_obs::MetricsRegistry::to_json).
    pub fn metrics(&self) -> &Arc<respct_obs::MetricsRegistry> {
        self.metrics.registry()
    }

    /// Serves the pool's metrics over HTTP on `addr` (`GET /metrics` for
    /// Prometheus text, `GET /json` for the JSON snapshot) until the
    /// returned guard is dropped. Bind port 0 to let the OS choose; the
    /// guard reports the effective address.
    ///
    /// # Errors
    ///
    /// Whatever binding the listener returns (address in use, permission).
    pub fn serve_metrics(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<respct_obs::MetricsServerGuard> {
        respct_obs::MetricsServer::serve(Arc::clone(self.metrics.registry()), addr)
    }

    /// Reads the pool's root pointer (0 if unset).
    pub fn root(&self) -> PAddr {
        PAddr(self.region.load::<u64>(OFF_ROOT))
    }

    /// On-demand push-out: a first touch in the current epoch hit a cell
    /// whose in-line log is still owed to an uncommitted epoch `t`. Eagerly
    /// write the line back and fence it (the line's epoch-`t` state —
    /// record, backup, tag — becomes durable ahead of the background drain
    /// reaching it), then wait for `t`'s commit (`drain_oldest > t`; with a
    /// ring deeper than 1 this may wait out several ordered commits) before the
    /// caller overwrites the backup: until the commit lands, recovery may
    /// roll epoch `t` back and must still find the start-of-`t` value in
    /// the single backup slot. The wait is bounded by the drain itself,
    /// whose progress never depends on application locks.
    #[cold]
    pub(crate) fn push_out_pending_line(&self, addr: PAddr, t: u64) {
        self.region.trace_marker(TraceMarker::DrainPushOut {
            addr: addr.0,
            epoch: t,
        });
        self.region.pwb_line(addr.line());
        self.region.psync();
        self.metrics.on_drain_pushout();
        spin_until(|| self.drain.drain_oldest.load(Ordering::Acquire) > t);
        // The wait observed the drain commit's release store: the backup
        // overwrite that follows is HB-after the ring commit.
        #[cfg(feature = "fault-inject")]
        if self.take_fault(Fault::DropSyncEdge(SyncEdgeSite::DrainHandshake)) {
            return;
        }
        self.region.sync_acquire(SyncToken::Drain);
    }

    /// Waits until the drain of `epoch` has committed (`drain_oldest >
    /// epoch`), then joins the drain's release edge: what follows is
    /// HB-after `epoch`'s ring commit. Bounded by the drain itself, which
    /// never takes application locks and never waits for a restart point;
    /// on a synchronous pool every closed epoch has already committed.
    pub(crate) fn await_commit(&self, epoch: u64) {
        spin_until(|| self.drain.drain_oldest.load(Ordering::Acquire) > epoch);
        self.region.sync_acquire(SyncToken::Drain);
    }

    /// Reads the current value of a cell. Needs no slot: reads are
    /// unrestricted (the paper's model makes readers hold the same lock as
    /// writers, which is the data structure's business, not the pool's).
    #[inline]
    pub fn cell_get<T: Pod>(&self, cell: ICell<T>) -> T {
        self.region.load(cell.addr())
    }

    /// Header cell handle: the root pointer.
    pub(crate) fn root_cell(&self) -> ICell<u64> {
        ICell::from_addr(OFF_ROOT)
    }

    /// Header cell handle: the global bump offset.
    pub(crate) fn bump_cell(&self) -> ICell<u64> {
        ICell::from_addr(OFF_BUMP)
    }

    /// Header cell handle: free-list head of size class `c`.
    pub(crate) fn freelist_cell(&self, c: usize) -> ICell<u64> {
        debug_assert!(c < NUM_CLASSES);
        ICell::from_addr(layout::freelist_cell(c))
    }

    /// Per-slot header cell handles.
    pub(crate) fn slot_cell(&self, slot: usize, field: u64) -> ICell<u64> {
        ICell::from_addr(layout::slot_field(slot, field))
    }
}

/// Waits for `done()`: spins briefly, then yields — the hosts this runs on
/// have as few as one core, so pure spinning would starve the very thread
/// being waited for.
pub(crate) fn spin_until(mut done: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !done() {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Guard for [`Pool::lock_ckpt`]: the checkpoint lock's [`TracedGuard`],
/// and the token [`CkptLockGuard::system_slot`] and
/// [`Quiesced::new`](crate::slot::Quiesced::new) borrow as proof the lock
/// is held.
pub(crate) struct CkptLockGuard<'a> {
    pub(crate) pool: &'a Pool,
    _lock: TracedGuard<'a, ()>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("epoch", &self.epoch())
            .field("size", &self.region.size())
            .field("mode", &self.cfg.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respct_pmem::RegionConfig;

    fn small_pool() -> Arc<Pool> {
        let region = Region::new(RegionConfig::fast(1 << 20));
        Pool::create(region, PoolConfig::default()).unwrap()
    }

    /// The system slot's tracking list, in append order.
    fn tracked(pool: &Pool) -> Vec<u64> {
        pool.lock_ckpt().system_slot().state().to_flush.clone()
    }

    #[test]
    fn create_formats_header() {
        let pool = small_pool();
        assert_eq!(pool.region.load::<u64>(OFF_MAGIC), MAGIC);
        assert_eq!(pool.epoch(), FIRST_EPOCH);
        assert_eq!(pool.root(), PAddr(0));
        assert_eq!(pool.cell_get(pool.bump_cell()), layout::heap_start().0);
    }

    #[test]
    fn cell_update_logs_once_per_epoch() {
        let pool = small_pool();
        let cell = pool.bump_cell();
        let before = pool.cell_get(cell);
        {
            let mut serial = pool.lock_ckpt();
            let mut sys = serial.system_slot();
            sys.cell_update(cell, before + 64);
            sys.cell_update(cell, before + 128);
        }
        assert_eq!(pool.cell_get(cell), before + 128);
        // Backup holds the value from the start of the epoch, not the
        // intermediate one.
        let backup: u64 = pool.region.load(cell.backup_addr());
        assert_eq!(backup, before);
        let eid: u64 = pool.region.load(cell.epoch_addr());
        assert_eq!(crate::incll::tag_epoch(cell.addr(), eid), FIRST_EPOCH);
        // Only one tracking entry despite two updates.
        assert_eq!(
            tracked(&pool)
                .iter()
                .filter(|&&l| l == cell.addr().line())
                .count(),
            1
        );
    }

    #[test]
    fn add_modified_covers_all_lines() {
        let pool = small_pool();
        pool.lock_ckpt().system_slot().add_modified(PAddr(100), 200);
        assert_eq!(tracked(&pool), vec![1, 2, 3, 4]);
    }

    #[test]
    fn tiny_region_rejected() {
        let region = Region::new(RegionConfig::fast(4096));
        let err = Pool::create(region, PoolConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::PoolError::RegionTooSmall { got: 4096, .. }
        ));
    }

    #[test]
    fn builder_validates() {
        use crate::error::PoolError;
        let ok = PoolConfig::builder().flusher_threads(4).build().unwrap();
        assert_eq!(ok.flusher_threads(), 4);
        assert!(matches!(
            PoolConfig::builder().flusher_threads(65).build(),
            Err(PoolError::InvalidConfig(_))
        ));
        assert!(matches!(
            PoolConfig::builder()
                .mode(CheckpointMode::NoFlush)
                .flusher_threads(2)
                .build(),
            Err(PoolError::InvalidConfig(_))
        ));
        assert!(matches!(
            PoolConfig::builder()
                .mode(CheckpointMode::NoFlush)
                .depth(1)
                .build(),
            Err(PoolError::InvalidConfig(_))
        ));
        assert_eq!(PoolConfig::default().depth(), 0);
        // The benchmark's spellings: its `async` arm is depth 1, its
        // `pipelined` arm depth 4, and `async_checkpoint(false)` is depth 0.
        let depth = |b: PoolConfigBuilder| b.build().unwrap().depth();
        assert_eq!(depth(PoolConfig::builder().async_checkpoint(true)), 1);
        let pipelined = PoolConfig::builder()
            .async_checkpoint(true)
            .epoch_pipeline(4);
        assert_eq!(depth(pipelined.clone()), 4);
        assert_eq!(depth(pipelined.async_checkpoint(false)), 0);
    }

    #[test]
    fn track_line_skips_adjacent_duplicates() {
        let pool = small_pool();
        {
            let mut serial = pool.lock_ckpt();
            let mut sys = serial.system_slot();
            // A same-line repeat, a fresh cell's node/registry alternation
            // (7, 9, 7, 9, 7), then lines that end the pattern.
            for line in [5, 5, 7, 9, 7, 9, 7, 4, 2, 7] {
                sys.track_line(line);
            }
        }
        // Repeats of either of the last two entries are dropped; a line
        // from further back is appended again (the checkpoint dedups it).
        assert_eq!(tracked(&pool), vec![5, 7, 9, 4, 2, 7]);
    }
}
