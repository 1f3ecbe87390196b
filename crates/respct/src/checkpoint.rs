//! The checkpoint procedure (paper Fig. 4, lines 46–59), the parallel
//! flush pipeline (§5 "a pool of flusher threads flushes data to NVMM in
//! parallel during checkpoints"), and the workspace's one timer loop,
//! [`CheckpointerGuard::every`], which runs ResPCT's 64 ms checkpointer and
//! the epoch-based baselines' epoch advances alike.
//!
//! # The flush pipeline
//!
//! Tracking a cache line is a push onto the thread's own `to_be_flushed`
//! list (adjacent duplicates skipped). The stop-the-world section merely
//! *moves* the non-empty per-slot lists out (one pointer move per slot, no
//! per-line work); whoever drains the epoch concatenates them and sorts +
//! dedups the result once ([`sort_dedup`]: an LSD radix sort once the epoch
//! has a few hundred lines). The sorted unique lines are then cut into
//! contiguous, near-equal ranges — the flush **shards** — which claimers
//! (the flusher threads, or the draining thread itself when the pool has
//! none) take from a shared counter. Each claimer writes its ranges back in
//! one batch per range ([`Region::pwb_lines`]) and issues **one** fence
//! after its last range ([`ShardJob::work`], the only shard loop). The
//! drainer sends each flusher exactly one message on that flusher's own
//! channel and waits for one ack per flusher. Both executors (the flusher
//! threads and the [`DrainExec`] worker) receive on `std::sync::mpsc`
//! channels.
//!
//! # One commit protocol
//!
//! [`Pool::checkpoint_now`] quiesces the threads, syncs the deferred
//! cursors, takes the epoch's frees, gathers the tracking lists and claims
//! the closing epoch's ring slot ([`epoch_record::claim`]; slot 0 at depth
//! 0, whose ring has one slot). One drain routine, [`DrainCtx::drain`],
//! then flushes the epoch, commits the slot, records the final report,
//! parks the epoch's frees as committed and advances `drain_oldest`. At
//! [`depth`](crate::PoolConfigBuilder::depth) 0 the
//! checkpointer runs it inline, before it releases the threads: Fig. 4's
//! flush-then-commit, with the claim as the commit's durable first half. At
//! depth `d ≥ 1` the [`DrainExec`] worker runs it after the release,
//! strictly in epoch order, on a ring of `d` slots. Either way the
//! checkpointer then recycles the frees whose epoch has committed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use respct_pmem::{PAddr, Region, SyncToken, TraceMarker};

use crate::epoch_record;
use crate::layout::MAX_THREADS;
use crate::metrics::RuntimeMetrics;
use crate::pool::{spin_until, CheckpointMode, Pool, SYSTEM_SLOT};
use crate::slot::Quiesced;

/// What one shard's claimer (a flusher, or the draining thread) did for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index: the shard's position among the epoch's contiguous
    /// ranges of sorted unique lines.
    pub shard: usize,
    /// Unique lines written back.
    pub lines: u64,
    /// Nanoseconds issuing the shard's write-backs.
    pub flush_ns: u64,
}

/// Outcome of one checkpoint, with the per-phase breakdown the paper's
/// Fig. 10 decomposes overhead into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptReport {
    /// Epoch that was just closed (the new epoch is `closed_epoch + 1`).
    pub closed_epoch: u64,
    /// Unique cache lines flushed (counted even in `NoFlush` mode, where
    /// they are deliberately not written back).
    pub lines: u64,
    /// Nanoseconds waiting for every thread to park (quiescence).
    pub wait_ns: u64,
    /// Nanoseconds moving the per-slot tracking lists out of the slots —
    /// the gather's whole cost in the parked window: one pointer move per
    /// non-empty list, no per-line work.
    pub partition_ns: u64,
    /// Nanoseconds in the flush phase, wall-clock across all flushers
    /// (concatenation + the one sort + dedup + write-backs + fences).
    pub flush_ns: u64,
    /// Nanoseconds application threads were held parked: the stop-the-world
    /// window from raising `timer` to releasing it, in every mode (so it
    /// always contains `wait_ns`, which is reported separately because it
    /// is pure quiescence). Synchronous checkpoints hold threads through
    /// the inline drain (flush and ring commit); pools of depth ≥ 1 release
    /// after the gather and the ring-slot claim.
    pub stw_ns: u64,
    /// Nanoseconds of background drain after the threads were released
    /// (flush + ring commit), measured by the drain executor. Zero for
    /// synchronous checkpoints, and zero — like `flush_ns` — in the report
    /// a pool of depth ≥ 1 *returns*: the executor records the final
    /// figures into the metrics when the drain commits.
    pub drain_ns: u64,
    /// Nanoseconds for the whole checkpoint, up to the release of the
    /// threads (plus `drain_ns`); the recycling of committed frees that
    /// follows the release is not counted in any mode.
    pub total_ns: u64,
    /// Per-shard breakdown, one entry per shard written back (none under
    /// `NoFlush`).
    pub shards: Vec<ShardReport>,
}

/// Epochs below this many tracked lines are deduplicated by a comparison
/// sort: the radix sort's two passes over a 256-entry count table only pay
/// off above it.
const RADIX_MIN_LINES: usize = 512;

/// Epochs above this many tracked lines (a bulk load's) are deduplicated
/// by the in-place comparison sort too: at a few million lines the radix
/// sort's scatter passes miss cache as often as pdqsort compares, so it no
/// longer wins, and its line-sized scratch buffer would double the flush's
/// peak memory.
const RADIX_MAX_LINES: usize = 1 << 21;

/// Sorts an epoch's tracked lines ascending and drops duplicates — the
/// result of `sort_unstable()` + `dedup()`, computed by an LSD radix sort
/// (8-bit digits, only as many as the highest set bit of the largest line
/// needs) in the size range where that wins.
pub(crate) fn sort_dedup(lines: &mut Vec<u64>) {
    if !(RADIX_MIN_LINES..=RADIX_MAX_LINES).contains(&lines.len()) {
        lines.sort_unstable();
        lines.dedup();
        return;
    }
    let max = lines.iter().copied().max().unwrap_or(0);
    let digits = (u64::BITS - max.leading_zeros()).div_ceil(8) as usize;
    let mut counts = vec![[0usize; 256]; digits];
    for &line in lines.iter() {
        for (d, count) in counts.iter_mut().enumerate() {
            count[(line >> (8 * d)) as usize & 0xff] += 1;
        }
    }
    let mut scratch = vec![0u64; lines.len()];
    for (d, count) in counts.iter_mut().enumerate() {
        if count.contains(&lines.len()) {
            continue; // every line has the same digit: the pass is a copy
        }
        let mut next = 0;
        for c in count.iter_mut() {
            (*c, next) = (next, next + *c);
        }
        for &line in lines.iter() {
            let slot = &mut count[(line >> (8 * d)) as usize & 0xff];
            scratch[*slot] = line;
            *slot += 1;
        }
        std::mem::swap(lines, &mut scratch);
    }
    lines.dedup();
}

impl Pool {
    /// Runs one checkpoint: to completion at depth 0, to the release of the
    /// quiesced threads at depth ≥ 1 (the flush and the commit then finish
    /// on the drain executor).
    ///
    /// Must be called from a thread that is **not** blocked on its own
    /// per-thread flag — i.e. the periodic checkpointer, the main thread in
    /// tests, or via [`ThreadHandle::checkpoint_here`]
    /// (which parks the calling handle first and also waits for the commit).
    ///
    /// [`ThreadHandle::checkpoint_here`]: crate::thread::ThreadHandle::checkpoint_here
    pub fn checkpoint_now(&self) -> CkptReport {
        let mut serial = self.lock_ckpt();
        // Backpressure: epoch N's ring slot is `N mod K` (`K = max(depth,
        // 1)`), free only once the drain of epoch `N − K` has committed
        // (always so at depth 0, which drains before it releases). Wait
        // that out *before* raising `timer` — application threads keep
        // running while a full ring holds the checkpoint back — and join the
        // drain's release so the claim below is HB-after the commit that
        // freed the slot.
        let ring = self.cfg.depth.max(1);
        let closing = self.epoch_mirror.load(Ordering::Relaxed);
        if let Some(reused) = closing.checked_sub(ring as u64) {
            self.await_commit(reused);
        }
        let t0 = Instant::now();
        self.timer.store(true, Ordering::SeqCst);
        // Wait until every active thread is parked at a restart point
        // (Fig. 4 lines 49–54).
        for slot in 0..MAX_THREADS {
            if slot == SYSTEM_SLOT || !self.active[slot].load(Ordering::SeqCst) {
                continue;
            }
            spin_until(|| self.flags[slot].load(Ordering::SeqCst));
            // We observed the slot's raised flag: everything its owner did
            // before parking (stores, tracking-list pushes) happens-before
            // the checkpoint work below.
            self.region
                .sync_acquire(SyncToken::Flag { slot: slot as u64 });
        }
        let waited = t0.elapsed();
        self.region.trace_marker(TraceMarker::CheckpointBegin {
            epoch: closing,
            full: self.cfg.mode == CheckpointMode::Full,
        });

        // SAFETY: `timer` is set and every active owner's flag was observed
        // raised with SeqCst above, so owners are parked; inactive slots
        // have no owner. `quiesced` is last used before `timer` is lowered.
        let mut quiesced = unsafe { Quiesced::new(&mut serial) };
        // First sync the deferred allocator and registry cursors into their
        // InCLL cells (so the flush persists end-of-epoch metadata), then
        // take the epoch's frees and gather the tracking lists.
        quiesced.sync_deferred_cells();
        let frees = quiesced.take_frees();
        let tp = Instant::now();
        let lists = quiesced.gather();
        let report = CkptReport {
            closed_epoch: closing,
            // Pre-dedup; the drain replaces it with the exact count.
            lines: lists.iter().map(|l| l.len() as u64).sum(),
            wait_ns: waited.as_nanos() as u64,
            partition_ns: tp.elapsed().as_nanos() as u64,
            flush_ns: 0,
            stw_ns: 0,
            drain_ns: 0,
            total_ns: 0,
            shards: Vec::new(),
        };

        // The claim: `ring[closing mod K] ← closing; epoch ← closing + 1`,
        // durable. Until the drain commits the slot, a crash rolls `closing`
        // (and every later epoch) back — which is why the fast path's
        // on-demand push-out must not let an epoch-`closing` backup be
        // overwritten before that commit lands. The epoch's frees park in
        // the ticket until then too: pushing them earlier would let a
        // pre-commit crash roll blocks back to live under clobbered links.
        let slot = epoch_record::claim(&self.region, closing, ring);
        self.epoch_mirror.store(closing + 1, Ordering::SeqCst);
        self.region.trace_marker(TraceMarker::PipelineBegin {
            epoch: closing,
            slot: slot as u64,
        });
        self.metrics.on_ring_claim();
        let mut ticket = DrainTicket {
            slot,
            lists,
            frees,
            report,
        };
        let report = match &self.pipeline {
            // Drain inline, inside the parked window: the flush and the
            // commit are stop-the-world time.
            None => self.drain.drain(ticket, Some(t0)),
            // Hand the epoch to the executor: the returned report ends at
            // the release; the executor records the completed one.
            Some(exec) => {
                ticket.report.stw_ns = t0.elapsed().as_nanos() as u64;
                ticket.report.total_ns = ticket.report.stw_ns;
                let report = ticket.report.clone();
                exec.submit(ticket);
                report
            }
        };
        // Release before the timer store: parked threads resume only after
        // observing `timer == false`, so their acquire follows this edge.
        self.region.sync_release(SyncToken::Timer);
        self.timer.store(false, Ordering::SeqCst);
        // Recycle the frees whose epoch has committed, still under
        // `ckpt_lock`.
        serial
            .system_slot()
            .push_frees(self.drain.take_committed_frees());
        self.region
            .trace_marker(TraceMarker::CheckpointEnd { epoch: closing });
        report
    }

    /// Spawns a background thread that checkpoints every `period`.
    ///
    /// Dropping the returned guard stops and joins the thread.
    pub fn start_checkpointer(self: &Arc<Self>, period: Duration) -> CheckpointerGuard {
        let pool = Arc::clone(self);
        CheckpointerGuard::every("respct-ckpt", period, move || {
            pool.checkpoint_now();
        })
    }
}

impl Quiesced<'_> {
    /// Gather: moves every non-empty per-slot tracking list out. One
    /// pointer move per slot, no per-line work — the concatenation and the
    /// dedup happen inside the flush phase.
    fn gather(&mut self) -> Vec<Vec<u64>> {
        (0..MAX_THREADS)
            .map(|idx| std::mem::take(&mut self.slot(idx).state().to_flush))
            .filter(|list| !list.is_empty())
            .collect()
    }
}

/// A periodic timer: a named thread that sleeps one period, then ticks,
/// until the guard is dropped. Every timer-driven epoch advance in the
/// workspace runs on one — ResPCT's checkpointer and the epoch-based
/// baselines' alike.
///
/// Dropping the guard stops and joins the thread, waking it if it is
/// asleep: no tick follows the drop, and the drop does not wait out the
/// period.
pub struct CheckpointerGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CheckpointerGuard {
    /// Spawns thread `name`, which runs `tick` once per `period` (the first
    /// time one period after the spawn) until the guard is dropped.
    pub fn every(
        name: &str,
        period: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> CheckpointerGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || loop {
                // Park until the deadline: a spurious wake-up parks again,
                // and the guard's drop unparks the thread to stop it.
                let mut now = Instant::now();
                let deadline = now + period;
                while now < deadline && !stopped.load(Ordering::Relaxed) {
                    std::thread::park_timeout(deadline - now);
                    now = Instant::now();
                }
                if stopped.load(Ordering::Relaxed) {
                    return;
                }
                tick();
            })
            .expect("spawn timer thread");
        CheckpointerGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for CheckpointerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            // `unpark` happens-after the store: a parked timer thread wakes to
            // find the flag set.
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

// ---- Flush phase -----------------------------------------------------------

/// How many contiguous ranges (shards) an epoch's sorted unique lines are
/// cut into: four per claimer, which keeps the claim race balanced when one
/// claimer is descheduled, and never more than there are lines.
fn shard_count(flusher_threads: usize, lines: usize) -> usize {
    (4 * flusher_threads.max(1)).min(lines)
}

/// Everything the flush phase needs: the flusher threads and the injected
/// faults. Owned by the pool's [`DrainCtx`], so the drain routine flushes
/// through it on either caller's thread.
pub(crate) struct Flusher {
    region: Arc<Region>,
    /// Whether to actually write lines back (false under `NoFlush`).
    full: bool,
    workers: Option<FlusherPool>,
    /// One-shot injected fault (test-only), pool-wide. See [`Fault`].
    ///
    /// [`Fault`]: crate::pool::Fault
    #[cfg(feature = "fault-inject")]
    pub(crate) fault: Mutex<Option<crate::pool::Fault>>,
}

impl Flusher {
    pub(crate) fn new(region: Arc<Region>, cfg: &crate::pool::PoolConfig) -> Flusher {
        Flusher {
            full: cfg.mode == CheckpointMode::Full,
            workers: (cfg.flusher_threads > 0)
                .then(|| FlusherPool::new(cfg.flusher_threads, Arc::clone(&region))),
            region,
            #[cfg(feature = "fault-inject")]
            fault: Mutex::new(None),
        }
    }

    /// Consumes the armed fault if it matches `want`.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn take_fault(&self, want: crate::pool::Fault) -> bool {
        let mut f = self.fault.lock();
        if *f == Some(want) {
            *f = None;
            true
        } else {
            false
        }
    }

    /// The flush phase of a checkpoint: concatenates the epoch's lists (the
    /// longest is moved, the rest appended to it, so the bulk of the lines
    /// is never copied), sorts + dedups them once, and writes the unique
    /// lines back as one [`ShardJob`] of contiguous ranges, fenced by
    /// [`ShardJob::work`] — on the flusher threads when a pool exists, on
    /// the draining thread (the sole claimer) otherwise. Returns the unique
    /// line count and the per-shard breakdown.
    fn flush_phase(&self, mut lists: Vec<Vec<u64>>) -> (u64, Vec<ShardReport>) {
        let Some(longest) = (0..lists.len()).max_by_key(|&i| lists[i].len()) else {
            return (0, Vec::new());
        };
        let mut lines = lists.swap_remove(longest);
        for mut list in lists {
            lines.append(&mut list);
        }
        sort_dedup(&mut lines);
        let total = lines.len() as u64;
        if !self.full {
            // NoFlush: report what a full checkpoint would have written
            // back, and write nothing.
            return (total, Vec::new());
        }
        let claimers = self.workers.as_ref().map_or(1, |pool| pool.flushers.len());
        let shards = shard_count(claimers, lines.len());
        // Test-only injected faults: drop one write-back (the middle line
        // of the epoch), every fence, one shard's fence (the last shard, so
        // no claim follows it), or one ack's HB edge.
        #[cfg(feature = "fault-inject")]
        let (skip_line, skip_fence, skip_fence_shard, drop_ack_edge) = {
            use crate::pool::{Fault, SyncEdgeSite};
            (
                self.take_fault(Fault::SkipOneFlush)
                    .then_some(lines.len() / 2),
                self.take_fault(Fault::SkipFence),
                self.take_fault(Fault::SkipShardFence).then_some(shards - 1),
                self.take_fault(Fault::DropSyncEdge(SyncEdgeSite::FlusherAck)),
            )
        };
        #[cfg(not(feature = "fault-inject"))]
        let (skip_line, skip_fence, skip_fence_shard, drop_ack_edge) = (None, false, None, false);
        let job = Arc::new(ShardJob {
            lines,
            flush_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
            skip_line,
            skip_fence,
            skip_fence_shard,
            drop_ack_edge: AtomicBool::new(drop_ack_edge),
        });
        match &self.workers {
            Some(pool) => pool.run(&job),
            None => job.work(&self.region),
        }
        let reports = (0..shards)
            .map(|shard| ShardReport {
                shard,
                lines: job.range(shard).len() as u64,
                flush_ns: job.flush_ns[shard].load(Ordering::Relaxed),
            })
            .collect();
        (total, reports)
    }
}

// ---- Flusher pool ----------------------------------------------------------

/// One checkpoint's flush job, shared by every claimer: the epoch's sorted
/// unique lines, cut into contiguous, near-equal ranges (one per
/// `flush_ns` slot). Claimers take whole ranges by bumping `next`; a range
/// is written back entirely by its claimer, which fences once after its
/// last range.
struct ShardJob {
    lines: Vec<u64>,
    /// The per-shard report slot: nanoseconds the shard's claimer spent on
    /// its write-backs.
    flush_ns: Box<[AtomicU64]>,
    next: AtomicUsize,
    /// Fault injection: the line at this index is not written back.
    skip_line: Option<usize>,
    /// Fault injection: no claimer fences (each still end-marks its shards —
    /// the buggy runtime *claims* they are done, and the checker catches the
    /// unfenced write-backs at the order barrier).
    skip_fence: bool,
    /// Fault injection: this shard's write-backs are neither fenced nor
    /// end-marked.
    skip_fence_shard: Option<usize>,
    /// Fault injection: the first worker to finish this job does not report
    /// the release edge its acknowledgement carries (one-shot).
    drop_ack_edge: AtomicBool,
}

impl ShardJob {
    /// The happens-before token of this job's acknowledgement channel.
    fn chan_token(self: &Arc<Self>) -> SyncToken {
        SyncToken::Chan {
            id: Arc::as_ptr(self) as u64,
        }
    }

    /// Shard `shard`'s range of `lines`.
    fn range(&self, shard: usize) -> std::ops::Range<usize> {
        let (n, shards) = (self.lines.len(), self.flush_ns.len());
        shard * n / shards..(shard + 1) * n / shards
    }

    /// One claimer's share of a job — the only shard loop: claim shards
    /// until none remain, then fence once and close the claimed shards.
    fn work(&self, region: &Region) {
        // Shards written back by this claimer and not yet fenced.
        let mut unfenced: Vec<usize> = Vec::new();
        let fence = |unfenced: &mut Vec<usize>| {
            // A claimer with nothing unfenced issues no fence — after the
            // racing shard, one would fence what must stay unfenced.
            if unfenced.is_empty() {
                return;
            }
            if !self.skip_fence {
                region.psync();
            }
            for shard in unfenced.drain(..) {
                region.trace_marker(TraceMarker::ShardFlushEnd {
                    shard: shard as u64,
                });
            }
        };
        loop {
            let shard = self.next.fetch_add(1, Ordering::Relaxed);
            if shard >= self.flush_ns.len() {
                break;
            }
            let racing = self.skip_fence_shard == Some(shard);
            if racing {
                // Fence what this claimer already wrote, so exactly the
                // marked shard's write-backs race the commit. (It is the
                // last shard, so no claim follows it.)
                fence(&mut unfenced);
            }
            let range = self.range(shard);
            region.trace_marker(TraceMarker::ShardFlushBegin {
                shard: shard as u64,
                lines: range.len() as u64,
            });
            let tw = Instant::now();
            match self.skip_line {
                Some(skip) if range.contains(&skip) => {
                    region.pwb_lines(&self.lines[range.start..skip]);
                    region.pwb_lines(&self.lines[skip + 1..range.end]);
                }
                _ => region.pwb_lines(&self.lines[range]),
            }
            self.flush_ns[shard].store(tw.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if !racing {
                unfenced.push(shard);
            }
        }
        fence(&mut unfenced);
    }
}

/// One flush's message to one flusher: the job, and where to ack it.
type FlushMsg = (Arc<ShardJob>, Sender<()>);

/// A fixed pool of threads that write back flush shards in parallel. Each
/// flusher has its own job channel and receives exactly one message per
/// flush: the job and the sender of that flush's ack channel.
pub(crate) struct FlusherPool {
    flushers: Vec<(Sender<FlushMsg>, std::thread::JoinHandle<()>)>,
    region: Arc<Region>,
}

impl FlusherPool {
    pub(crate) fn new(n: usize, region: Arc<Region>) -> FlusherPool {
        let flushers = (0..n)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<FlushMsg>();
                let region = Arc::clone(&region);
                let worker = std::thread::Builder::new()
                    .name(format!("respct-flusher-{i}"))
                    .spawn(move || {
                        while let Ok((job, ack)) = rx.recv() {
                            job.work(&region);
                            // The ack publishes this flusher's fences to the
                            // drainer: release before sending (unless a
                            // DropSyncEdge(FlusherAck) fault ate the edge).
                            if !job.drop_ack_edge.swap(false, Ordering::Relaxed) {
                                region.sync_release(job.chan_token());
                            }
                            let _ = ack.send(());
                        }
                    })
                    .expect("spawn flusher");
                (tx, worker)
            })
            .collect();
        FlusherPool { flushers, region }
    }

    /// Runs `job` across the pool; returns when every shard is written back
    /// and fenced (one ack per flusher, sent after that flusher's fence).
    fn run(&self, job: &Arc<ShardJob>) {
        let (ack_tx, ack_rx) = mpsc::channel();
        for (tx, _) in &self.flushers {
            tx.send((Arc::clone(job), ack_tx.clone()))
                .expect("flusher pool alive");
        }
        // Only the flushers hold ack senders now: a flusher that died
        // mid-job fails the receive below instead of hanging it.
        drop(ack_tx);
        for _ in &self.flushers {
            ack_rx.recv().expect("flusher pool alive");
            // Each ack received joins that flusher's fences into the
            // drainer's clock: the epoch commit that follows is provably
            // HB-after every shard write-back.
            self.region.sync_acquire(job.chan_token());
        }
    }
}

impl Drop for FlusherPool {
    fn drop(&mut self) {
        // Closing a flusher's channel terminates it.
        for (tx, worker) in self.flushers.drain(..) {
            drop(tx);
            let _ = worker.join();
        }
    }
}

// ---- Drain -----------------------------------------------------------------

/// One closed epoch's drain obligation, snapshotted during the
/// stop-the-world window, after its ring-slot claim.
pub(crate) struct DrainTicket {
    /// The ring slot the epoch (`report.closed_epoch`) claimed.
    slot: usize,
    /// The epoch's non-empty per-slot tracking lists, moved out as they
    /// were: not concatenated, not deduplicated.
    lists: Vec<Vec<u64>>,
    /// Blocks freed during `epoch`, recyclable only after its commit.
    frees: Vec<(PAddr, usize)>,
    /// The stop-the-world report; the drain fills in the flush figures
    /// and records it into the metrics when the commit lands.
    report: CkptReport,
}

/// The drain side of every pool: what the drain routine needs, shared with
/// the executor's worker thread at depth ≥ 1. The worker deliberately
/// holds this — not the `Pool` — so dropping the pool drops the executor
/// (joining the worker) without an `Arc` cycle.
pub(crate) struct DrainCtx {
    pub(crate) flusher: Flusher,
    /// Oldest epoch whose drain has not yet committed; equals the running
    /// epoch when the ring is empty. Commits advance it in strict order, so
    /// an epoch `e` is fully durable iff `e < drain_oldest`.
    pub(crate) drain_oldest: AtomicU64,
    metrics: Arc<RuntimeMetrics>,
    /// Frees whose epochs have committed, parked until the next
    /// checkpoint recycles them.
    committed_frees: Mutex<Vec<(PAddr, usize)>>,
    /// Test hook (`Pool::hold_drains`): park the executor's worker before
    /// it drains another ticket, pinning multiple epochs in flight.
    pub(crate) hold: AtomicBool,
}

impl DrainCtx {
    pub(crate) fn new(
        region: Arc<Region>,
        cfg: &crate::pool::PoolConfig,
        epoch: u64,
        metrics: Arc<RuntimeMetrics>,
    ) -> DrainCtx {
        DrainCtx {
            flusher: Flusher::new(region, cfg),
            drain_oldest: AtomicU64::new(epoch),
            metrics,
            committed_frees: Mutex::new(Vec::new()),
            hold: AtomicBool::new(false),
        }
    }

    /// The happens-before token of the ticket queue: released by the
    /// checkpointer before each submit, acquired by the worker after each
    /// receive — the worker's flush and commit are ordered after the
    /// quiescence (and the ring-slot claim) of the epoch they drain.
    fn ticket_token(&self) -> SyncToken {
        SyncToken::Chan {
            id: std::ptr::from_ref(self) as u64,
        }
    }

    /// Takes the frees parked by committed drains (checkpointer only).
    fn take_committed_frees(&self) -> Vec<(PAddr, usize)> {
        std::mem::take(&mut *self.committed_frees.lock())
    }

    /// The drain routine: flushes one closed epoch, commits its ring slot,
    /// records the final report, parks the epoch's frees as committed and
    /// advances `drain_oldest`. The checkpointer runs it inline at depth 0,
    /// with `parked_since` the instant it raised `timer`: the whole drain
    /// is then stop-the-world time. The executor's worker
    /// runs it after the release (`None`): the drain is then `drain_ns`.
    fn drain(&self, ticket: DrainTicket, parked_since: Option<Instant>) -> CkptReport {
        let DrainTicket {
            slot,
            lists,
            frees,
            mut report,
        } = ticket;
        let epoch = report.closed_epoch;
        let region = &self.flusher.region;
        let td = Instant::now();
        // On the executor, application threads are running the next
        // epoch(s) now. The flushers (or this thread, as sole claimer)
        // never take data-structure locks, so a thread blocked in the
        // push-out wait cannot deadlock the drain.
        (report.lines, report.shards) = self.flusher.flush_phase(lists);
        report.flush_ns = td.elapsed().as_nanos() as u64;

        // The ordered commit: `ring[epoch mod K] ← 0` claims "this epoch
        // and every predecessor are durable", which the inline drain and
        // the FIFO worker make true by construction (the injected reorder
        // fault is the deliberate exception — the checker and crash sweep
        // catch it). Until this fence lands, recovery discards `epoch`. The
        // barrier marker asserts that every write-back above is fenced.
        region.trace_marker(TraceMarker::OrderBarrier);
        epoch_record::commit(region, slot);
        region.trace_marker(TraceMarker::RingCommit { epoch });
        if let Some(t0) = parked_since {
            report.stw_ns = t0.elapsed().as_nanos() as u64;
            report.total_ns = report.stw_ns;
        } else {
            report.drain_ns = td.elapsed().as_nanos() as u64;
            report.total_ns += report.drain_ns;
        }
        self.metrics.on_checkpoint(&report);
        self.metrics.on_ring_commit();
        if !frees.is_empty() {
            self.committed_frees.lock().extend(frees);
        }
        // Advancing `drain_oldest` is what publishes the commit — last, so
        // whoever waited it out (a push-out, `checkpoint_here`, the next
        // claim of this slot) also finds the metrics and the frees in
        // place. Release first: the waiter acquires this edge, ordering
        // its backup overwrite after the commit fence. `fetch_max` keeps
        // the counter monotone even under the reorder fault.
        region.sync_release(SyncToken::Drain);
        self.drain_oldest.fetch_max(epoch + 1, Ordering::AcqRel);
        report
    }
}

/// The background drain executor of a pool of depth ≥ 1: a single
/// FIFO worker that runs the drain routine on each ticket. One worker
/// draining a FIFO queue is the whole ordered-commit argument — epoch
/// `e`'s commit cannot be issued before `e − 1`'s has retired.
pub(crate) struct DrainExec {
    ctx: Arc<DrainCtx>,
    tx: Sender<DrainTicket>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl DrainExec {
    pub(crate) fn new(ctx: Arc<DrainCtx>) -> DrainExec {
        let (tx, rx) = mpsc::channel::<DrainTicket>();
        let worker = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("respct-drain".into())
                .spawn(move || Self::run(&ctx, &rx))
                .expect("spawn drain executor")
        };
        DrainExec {
            ctx,
            tx,
            worker: Some(worker),
        }
    }

    /// Hands one closed epoch to the worker. Called from the checkpointer
    /// during the stop-the-world window, after the ring-slot claim.
    fn submit(&self, ticket: DrainTicket) {
        self.ctx
            .flusher
            .region
            .sync_release(self.ctx.ticket_token());
        self.tx.send(ticket).expect("drain executor alive");
    }

    fn run(ctx: &DrainCtx, rx: &Receiver<DrainTicket>) {
        let next = || {
            let ticket = rx.recv().ok()?;
            ctx.flusher.region.sync_acquire(ctx.ticket_token());
            Some(ticket)
        };
        while let Some(ticket) = next() {
            // `hold_drains` parks the worker here, the ticket in hand: its
            // epoch stays uncommitted in the ring until the hold is released.
            while ctx.hold.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // Injected bug (`Fault::SkipRingOrder`): hold this ticket,
            // fully drain and commit its *successor* first, then commit
            // this one — `RingCommit` markers appear out of epoch order,
            // and a crash between the two commits leaves a hole in the
            // ring. (Shutdown before a successor arrives falls back to a
            // clean commit: the fault needs two outstanding drains.)
            #[cfg(feature = "fault-inject")]
            if ctx.flusher.take_fault(crate::pool::Fault::SkipRingOrder) {
                if let Some(successor) = next() {
                    ctx.drain(successor, None);
                }
            }
            ctx.drain(ticket, None);
        }
    }
}

impl Drop for DrainExec {
    fn drop(&mut self) {
        // Un-park a held worker so queued tickets still drain, then close
        // the channel and join: every submitted epoch commits before the
        // pool's executor goes away, which is what lets tests (and apps)
        // crash the region right after dropping the pool.
        self.ctx.hold.store(false, Ordering::Release);
        let (tx, _rx) = mpsc::channel();
        drop(std::mem::replace(&mut self.tx, tx));
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use respct_pmem::{PAddr, Region, RegionConfig, SimConfig};

    #[test]
    fn checkpoint_advances_and_persists_epoch() {
        let region = Region::new(RegionConfig::sim(1 << 20, SimConfig::no_eviction(7)));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        assert_eq!(pool.epoch(), 1);
        let r = pool.checkpoint_now();
        assert_eq!(r.closed_epoch, 1);
        assert_eq!(pool.epoch(), 2);
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        let off = crate::layout::OFF_EPOCH.0 as usize;
        let e = u64::from_ne_bytes(img.bytes()[off..][..8].try_into().unwrap());
        assert_eq!(e, 2, "epoch counter must be persistent");
    }

    /// A synchronous checkpoint is the ring protocol drained inline: it
    /// claims slot 0, flushes, commits the slot, and only then ends — with
    /// the slot durably zero again and one ring commit per checkpoint.
    #[test]
    fn sync_checkpoint_claims_and_commits_ring_slot_zero() {
        use respct_pmem::{is_protocol_point, TraceEvent, VecSink};
        let region = Region::new(RegionConfig::sim(1 << 20, SimConfig::no_eviction(3)));
        let sink = Arc::new(VecSink::new());
        region.set_trace_sink(sink.clone());
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let addr = PAddr(crate::layout::heap_start().0);
        region.store(addr, 0xabcdu64);
        pool.lock_ckpt().system_slot().add_modified(addr, 8);
        sink.drain();
        pool.checkpoint_now();
        let protocol: Vec<TraceMarker> = sink
            .drain()
            .into_iter()
            .filter(is_protocol_point)
            .filter_map(|ev| match ev {
                TraceEvent::Marker { marker, .. } => Some(marker),
                _ => None,
            })
            .collect();
        let n = protocol.len();
        assert_eq!(
            protocol[..2],
            [
                TraceMarker::CheckpointBegin {
                    epoch: 1,
                    full: true
                },
                TraceMarker::PipelineBegin { epoch: 1, slot: 0 },
            ],
            "{protocol:?}"
        );
        assert_eq!(
            protocol[n - 3..],
            [
                TraceMarker::OrderBarrier,
                TraceMarker::RingCommit { epoch: 1 },
                TraceMarker::CheckpointEnd { epoch: 1 },
            ],
            "{protocol:?}"
        );
        assert!(
            n > 5
                && protocol[2..n - 3].iter().all(|m| matches!(
                    m,
                    TraceMarker::ShardFlushBegin { .. } | TraceMarker::ShardFlushEnd { .. }
                )),
            "the flush runs between the claim and the commit: {protocol:?}"
        );
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        let word =
            |at: PAddr| u64::from_ne_bytes(img.bytes()[at.0 as usize..][..8].try_into().unwrap());
        assert_eq!(
            word(crate::layout::epoch_ring_slot(0)),
            0,
            "slot 0 committed"
        );
        assert_eq!(word(crate::layout::OFF_EPOCH), 2);
        let commits: u64 = pool
            .metrics()
            .to_prometheus()
            .lines()
            .find_map(|l| l.strip_prefix("respct_ring_commits_total ")?.parse().ok())
            .expect("ring commit counter");
        assert_eq!(commits, pool.runtime_metrics().ckpt_snapshot().count);
        assert_eq!(commits, 1);
    }

    #[test]
    fn checkpoint_flushes_tracked_lines() {
        let region = Region::new(RegionConfig::sim(1 << 20, SimConfig::no_eviction(7)));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let addr = PAddr(crate::layout::heap_start().0);
        region.store(addr, 0xabcdu64);
        pool.lock_ckpt().system_slot().add_modified(addr, 8);
        let r = pool.checkpoint_now();
        assert_eq!(r.lines, 1);
        assert_eq!(r.shards.len(), 1);
        assert_eq!(r.shards[0].lines, 1);
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        let v = u64::from_ne_bytes(img.bytes()[addr.0 as usize..][..8].try_into().unwrap());
        assert_eq!(v, 0xabcd);
    }

    #[test]
    fn noflush_mode_advances_epoch_without_flushing_data() {
        let region = Region::new(RegionConfig::sim(1 << 20, SimConfig::no_eviction(7)));
        let cfg = PoolConfig::builder()
            .mode(CheckpointMode::NoFlush)
            .build()
            .unwrap();
        let pool = Pool::create(Arc::clone(&region), cfg).unwrap();
        let addr = PAddr(crate::layout::heap_start().0);
        region.store(addr, 0xabcdu64);
        pool.lock_ckpt().system_slot().add_modified(addr, 8);
        let r = pool.checkpoint_now();
        assert_eq!(r.lines, 1, "NoFlush still counts tracked lines");
        assert_eq!(pool.epoch(), 2);
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        let v = u64::from_ne_bytes(img.bytes()[addr.0 as usize..][..8].try_into().unwrap());
        assert_eq!(v, 0, "NoFlush must not write data back");
    }

    #[test]
    fn flusher_pool_flushes_everything() {
        let region = Region::new(RegionConfig::sim(1 << 20, SimConfig::no_eviction(9)));
        let heap = crate::layout::heap_start().0;
        let cfg = PoolConfig::builder().flusher_threads(4).build().unwrap();
        let lines: Vec<u64> = (0..100u64)
            .map(|i| {
                let a = PAddr(heap + i * 64);
                region.store(a, i + 1);
                a.line()
            })
            .collect();
        // Three per-slot lists over the same lines, in different orders and
        // with repeats: every duplicate, within a list or across lists, must
        // dedup away.
        let lists = vec![
            lines.clone(),
            lines.iter().rev().copied().collect(),
            lines.iter().flat_map(|&l| [l, l]).collect(),
        ];
        let flusher = Flusher::new(Arc::clone(&region), &cfg);
        let (total, reports) = flusher.flush_phase(lists);
        drop(flusher);
        assert_eq!(total, 100);
        // 4 shards per flusher, cut near-equal.
        assert_eq!(reports.len(), 16);
        assert!(reports.iter().all(|r| r.lines == 6 || r.lines == 7));
        assert_eq!(reports.iter().map(|r| r.lines).sum::<u64>(), 100);
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        for i in 0..100u64 {
            let off = (heap + i * 64) as usize;
            let v = u64::from_ne_bytes(img.bytes()[off..off + 8].try_into().unwrap());
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn parallel_checkpoint_flushes_tracked_lines() {
        let region = Region::new(RegionConfig::sim(1 << 20, SimConfig::no_eviction(5)));
        let cfg = PoolConfig::builder().flusher_threads(2).build().unwrap();
        let pool = Pool::create(Arc::clone(&region), cfg).unwrap();
        let heap = crate::layout::heap_start().0;
        for i in 0..64u64 {
            let a = PAddr(heap + i * 64);
            region.store(a, i + 7);
            pool.lock_ckpt().system_slot().add_modified(a, 8);
        }
        let r = pool.checkpoint_now();
        assert_eq!(r.lines, 64);
        assert!(r.shards.len() > 1, "expected several non-empty shards");
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        for i in 0..64u64 {
            let off = (heap + i * 64) as usize;
            let v = u64::from_ne_bytes(img.bytes()[off..off + 8].try_into().unwrap());
            assert_eq!(v, i + 7);
        }
    }

    #[test]
    fn periodic_checkpointer_runs_and_stops() {
        let region = Region::new(RegionConfig::fast(1 << 20));
        let pool = Pool::create(region, PoolConfig::default()).unwrap();
        let guard = pool.start_checkpointer(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(60));
        drop(guard);
        let done = pool.runtime_metrics().ckpt_snapshot().count;
        assert!(done >= 2, "expected several checkpoints, got {done}");
        let epoch = pool.epoch();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.epoch(), epoch, "checkpointer must stop after drop");
    }

    /// A stop request wakes the sleeping timer thread: the drop does not wait out
    /// the period, and no checkpoint follows it.
    #[test]
    fn dropping_the_checkpointer_does_not_wait_out_the_period() {
        let region = Region::new(RegionConfig::fast(1 << 20));
        let pool = Pool::create(region, PoolConfig::default()).unwrap();
        let guard = pool.start_checkpointer(Duration::from_secs(10));
        // Let the timer thread reach its sleep.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(guard);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "drop took {took:?}");
        assert_eq!(pool.runtime_metrics().ckpt_snapshot().count, 0);
        assert_eq!(pool.epoch(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The radix dedup is a drop-in for `sort_unstable` + `dedup`:
        /// empty, single-line and all-equal shards, shards on both sides of
        /// the radix cutoff, dense duplicates, and lines up to the largest a
        /// region offset can name (`u64::MAX >> 6`).
        #[test]
        fn sort_dedup_matches_sort_then_dedup(
            lines in {
                use proptest::prelude::*;
                use proptest::collection::vec;
                let top = u64::MAX >> 6;
                let size = 0..4 * RADIX_MIN_LINES;
                prop_oneof![
                    Just(Vec::new()),
                    Just(vec![top]),
                    (any::<u64>(), 1..4 * RADIX_MIN_LINES).prop_map(|(l, n)| vec![l >> 6; n]),
                    vec(0u64..64, size.clone()),
                    vec(0u64..1 << 22, size.clone()),
                    vec(any::<u64>().prop_map(|l| l >> 6), size.clone()),
                    vec(top - 300..=top, size),
                ]
            },
        ) {
            let mut want = lines.clone();
            want.sort_unstable();
            want.dedup();
            let mut got = lines;
            sort_dedup(&mut got);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn stats_mean_lines() {
        let region = Region::new(RegionConfig::fast(1 << 20));
        let pool = Pool::create(region, PoolConfig::default()).unwrap();
        let addr = PAddr(crate::layout::heap_start().0);
        pool.lock_ckpt().system_slot().add_modified(addr, 128);
        pool.checkpoint_now();
        assert_eq!(pool.runtime_metrics().ckpt_snapshot().lines_flushed, 2);
    }
}
