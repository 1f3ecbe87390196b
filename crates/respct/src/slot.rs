//! Thread slots: the volatile per-thread state of the epoch protocol, and
//! the three tokens through which it may be touched.
//!
//! The paper's concurrency argument (Fig. 3/4) is one ownership rule: a
//! thread's `to_be_flushed` list and cursors are *its own* while its
//! `perThread_flag` is down, and *the checkpointer's* once every flag is up
//! under `timer`. This module states that rule once, as types. A [`Slot`]
//! is something you hold, not an index you vouch for: whoever holds one has
//! exclusive use of that slot's [`SlotState`] for as long as the borrow
//! lasts, and every operation that touches the state is a safe `&mut self`
//! method on it.
//!
//! # Who may touch a slot
//!
//! | token | constructed by | what proves exclusivity | what it may call |
//! |---|---|---|---|
//! | [`Slot`] of a registered thread | `ThreadHandle::access(&self)` (private; every use is a temporary) | the handle is `!Sync`, so one thread runs it; its flag is down — a flag raised through `allow_checkpoints` mutably borrows the handle, and `rp()` / `checkpoint_here()` raise it only while that thread is inside them | the InCLL operations, `alloc` / `free`, the registry append |
//! | [`Quiesced`] | [`Pool::checkpoint_now`](crate::Pool::checkpoint_now), from its `CkptLockGuard`, right after the flag-wait loop | `timer` is up and every active owner's flag was observed raised (SeqCst); unowned slots have no owner; `ckpt_lock` keeps registration out | `sync_deferred_cells`, `gather`, `take_frees`; hands out one [`Slot`] at a time |
//! | [`Slot`] of the system slot | [`CkptLockGuard::system_slot`] | slot 0 is never registered, and every user of it holds `ckpt_lock` — which the `&mut` guard borrow proves | recovery's re-tracking, `push_frees`, unit tests |
//!
//! `&mut SlotState` is produced in exactly one place, [`Slot::state`];
//! `cargo run -p xtask -- lint` (rule `slot-owner`) keeps the cell type and
//! its `UnsafeCell` out of every other module.

use std::cell::UnsafeCell;
use std::sync::atomic::Ordering;

use crossbeam::utils::CachePadded;
use respct_pmem::{PAddr, Pod, Region, TraceMarker};

use crate::incll::{epoch_tag, is_live, tag_epoch, ICell};
use crate::layout::{self, cell_fits, MAX_THREADS};
use crate::pool::{CkptLockGuard, Pool, SYSTEM_SLOT};

/// Volatile per-slot state, owned by whoever holds the slot's [`Slot`].
pub(crate) struct SlotState {
    /// Cache lines modified this epoch (`to_be_flushed`, paper Fig. 3), in
    /// append order, adjacent duplicates skipped. The checkpoint moves the
    /// list out and deduplicates every slot's lines together.
    pub to_flush: Vec<u64>,
    /// Tail chunk of the slot's registry chain (0 = none). Volatile cache;
    /// reconstructed from persistent state on registration.
    pub reg_tail: u64,
    /// Entries already used in the tail chunk.
    pub reg_tail_used: u64,
    /// Blocks freed this epoch (deferred to the next checkpoint).
    pub frees: Vec<(PAddr, usize)>,
    /// Volatile mirrors of the slot's persistent cursors and restart-point
    /// id. The InCLL cells are only synced from these at checkpoint time
    /// (while every thread is parked): mid-epoch persistent values are
    /// irrelevant because a crash rolls the entire epoch back, so the hot
    /// paths run on plain memory.
    pub alloc_cur: u64,
    pub alloc_end: u64,
    pub reg_len: u64,
    pub rp_id: u64,
}

/// The pool's slot array, shared between the owners and the checkpointer.
/// Cache-padded: every `rp()` writes its slot's `rp_id`, so neighbouring
/// slots must not share a line.
pub(crate) struct SlotTable(Box<[CachePadded<UnsafeCell<SlotState>>]>);

// SAFETY: the inner `SlotState`s are reached only through `Slot::state`,
// and a `Slot` exists only while one of the three exclusivity proofs of the
// module table holds: the owning thread touches its slot only while its
// per-thread flag is down, the checkpointer only while the flag is up *and*
// `timer` is set (the owner is parked inside `rp()` / a blocking call, or
// has deregistered). The flag's SeqCst store/load pair provides the
// happens-before edge between the two.
unsafe impl Sync for SlotTable {}

impl SlotTable {
    /// One slot per possible thread, cursors loaded from the (valid) header.
    pub(crate) fn new(region: &Region) -> SlotTable {
        let cursor = |slot, field| region.load::<u64>(layout::slot_field(slot, field));
        SlotTable(
            (0..MAX_THREADS)
                .map(|i| {
                    CachePadded::new(UnsafeCell::new(SlotState {
                        to_flush: Vec::new(),
                        reg_tail: 0,
                        reg_tail_used: 0,
                        frees: Vec::new(),
                        alloc_cur: cursor(i, layout::SLOT_ALLOC_CUR),
                        alloc_end: cursor(i, layout::SLOT_ALLOC_END),
                        reg_len: cursor(i, layout::SLOT_REG_LEN),
                        rp_id: cursor(i, layout::SLOT_RP_ID),
                    }))
                })
                .collect(),
        )
    }
}

/// Exclusive use of one thread slot (see the module table). The InCLL
/// operations live here; the allocator and the registry add theirs in
/// `alloc.rs` and `registry.rs`.
pub(crate) struct Slot<'a> {
    pool: &'a Pool,
    idx: usize,
}

impl<'a> Slot<'a> {
    /// The one constructor: the three token constructors of the module
    /// table all end here.
    ///
    /// # Safety
    ///
    /// One of the table's exclusivity proofs holds for `idx` for all of
    /// `'a`, and no other `Slot` of `idx` is alive meanwhile.
    #[inline]
    pub(crate) unsafe fn owned(pool: &'a Pool, idx: usize) -> Slot<'a> {
        Slot { pool, idx }
    }

    /// The pool the slot belongs to.
    #[inline]
    pub(crate) fn pool(&self) -> &'a Pool {
        self.pool
    }

    /// The slot's index.
    #[inline]
    pub(crate) fn idx(&self) -> usize {
        self.idx
    }

    /// The slot's volatile state.
    #[inline]
    pub(crate) fn state(&mut self) -> &mut SlotState {
        // SAFETY: a `Slot` is only ever built under one of the module
        // table's exclusivity proofs, which holds for its whole lifetime;
        // `&mut self` makes this the only borrow through it.
        unsafe { &mut *self.pool.slots.0[self.idx].get() }
    }

    /// Appends `line` to the slot's tracking list unless it repeats one of
    /// the last two entries. Adjacent writes to the same line are common
    /// (node payload plus embedded cell), and initializing a fresh cell
    /// alternates its own line with the registry line its entry lands on
    /// (node, registry, node, registry, node); skipping both shapes of
    /// repeat roughly halves the list a bulk load makes the checkpoint sort.
    #[inline]
    pub(crate) fn track_line(&mut self, line: u64) {
        let pool = self.pool;
        let list = &mut self.state().to_flush;
        if !list[list.len().saturating_sub(2)..].contains(&line) {
            list.push(line);
        }
        pool.region.trace_marker(TraceMarker::TrackLine { line });
    }

    /// `update_InCLL` (paper Fig. 4, lines 24–29). Per the paper's model,
    /// the caller holds the lock protecting the variable in `cell` if it is
    /// shared.
    #[inline]
    pub(crate) fn cell_update<T: Pod>(&mut self, cell: ICell<T>, val: T) {
        let pool = self.pool;
        let plain_epoch = pool.epoch_mirror.load(Ordering::Relaxed);
        let epoch = epoch_tag(cell.addr(), plain_epoch);
        let eid: u64 = pool.region.load(cell.epoch_addr());
        #[cfg(feature = "fault-inject")]
        let eid = if pool.take_fault(crate::pool::Fault::SkipLog) {
            epoch
        } else {
            eid
        };
        let first_touch = eid != epoch;
        if first_touch {
            // On-demand push-out (`async_checkpoint` pools only — one
            // branch on an immutable field otherwise, where every closed
            // epoch has committed before its threads resume): the cell's single
            // backup slot may still be owed to an epoch whose drain has
            // not committed. The guard is generation-aware: any valid tag
            // in `[drain_oldest, current)` names an uncommitted epoch
            // (commits advance `drain_oldest` in strict order). The upper
            // bound keeps garbage tags (which decode to huge epochs) off
            // the wait path.
            if pool.pipeline.is_some() {
                let t = tag_epoch(cell.addr(), eid);
                if t < plain_epoch && t >= pool.drain.drain_oldest.load(Ordering::Relaxed) {
                    pool.push_out_pending_line(cell.addr(), t);
                }
            }
            let old: T = pool.region.load(cell.addr());
            pool.region.store(cell.backup_addr(), old);
            // The backup must be written (in program order) before the
            // epoch id, and both before the record: PCSO then guarantees
            // the log reaches NVMM no later than the data. The stores are
            // relaxed atomics; the compiler fence pins their program order
            // (x86-TSO pins the hardware order).
            std::sync::atomic::compiler_fence(Ordering::Release);
            pool.region.store(cell.epoch_addr(), epoch);
            pool.region.trace_marker(TraceMarker::CellLogged {
                addr: cell.addr().0,
                epoch: plain_epoch,
            });
            self.track_line(cell.addr().line());
        }
        std::sync::atomic::compiler_fence(Ordering::Release);
        pool.region.store(cell.addr(), val);
        pool.metrics
            .on_update(self.idx, std::mem::size_of::<T>() as u64, first_touch);
    }

    /// `init_InCLL` (paper Fig. 4, lines 19–23): writes all three fields,
    /// registers the cell for recovery, and tracks its line. `addr` must be
    /// a fresh allocation that fits the cell (checked).
    pub(crate) fn cell_init<T: Pod>(&mut self, addr: PAddr, val: T) -> ICell<T> {
        let pool = self.pool;
        assert!(
            cell_fits(addr),
            "ICell at {addr:?} would straddle a cache line"
        );
        let cell = ICell::<T>::from_addr(addr);
        let epoch = pool.epoch_mirror.load(Ordering::Relaxed);
        // A recycled cell still has its registry entry: skip the
        // re-registration.
        let already_registered = is_live(&pool.region, cell, epoch);
        pool.region.store(cell.addr(), val);
        pool.region.store(cell.backup_addr(), val);
        pool.region
            .store(cell.epoch_addr(), epoch_tag(cell.addr(), epoch));
        pool.region
            .trace_marker(TraceMarker::CellDeclare { addr: addr.0 });
        pool.region.trace_marker(TraceMarker::CellLogged {
            addr: addr.0,
            epoch,
        });
        if !already_registered {
            self.register_cell(addr);
        }
        self.track_line(addr.line());
        pool.metrics
            .on_bytes_stored(self.idx, std::mem::size_of::<T>() as u64);
        cell
    }

    /// `init_InCLL` *or* `update_InCLL`, depending on whether `addr`
    /// already carries a live cell. Used by containers that
    /// recycle element slots: overwriting a slot that was live at the last
    /// checkpoint must log its old value, while a genuinely fresh slot must
    /// not.
    pub(crate) fn cell_upsert<T: Pod>(&mut self, addr: PAddr, val: T) -> ICell<T> {
        let cell = ICell::<T>::from_addr(addr);
        if is_live(&self.pool.region, cell, self.pool.epoch()) {
            self.cell_update(cell, val);
            cell
        } else {
            self.cell_init(addr, val)
        }
    }

    /// `add_modified` (paper Fig. 4, lines 12–13) for a byte range: records
    /// every cache line covered by `[addr, addr+len)`.
    #[inline]
    pub(crate) fn add_modified(&mut self, addr: PAddr, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr.line();
        let last = PAddr(addr.0 + len as u64 - 1).line();
        for line in first..=last {
            self.track_line(line);
        }
        self.pool.metrics.on_bytes_stored(self.idx, len as u64);
    }
}

/// Every slot at once: the checkpointer's token between the flag-wait loop
/// and the `Timer` release (row 2 of the module table).
pub(crate) struct Quiesced<'a> {
    pool: &'a Pool,
}

impl<'a> Quiesced<'a> {
    /// # Safety
    ///
    /// `timer` is raised and every active owner's flag has been observed
    /// raised (SeqCst) since; the token is dropped before `timer` is
    /// lowered. The guard borrow proves `ckpt_lock` is held and keeps
    /// [`CkptLockGuard::system_slot`] from aliasing slot 0 meanwhile.
    pub(crate) unsafe fn new(serial: &'a mut CkptLockGuard<'_>) -> Quiesced<'a> {
        Quiesced { pool: serial.pool }
    }

    /// The quiesced pool.
    pub(crate) fn pool(&self) -> &'a Pool {
        self.pool
    }

    /// One slot at a time: the borrow of `self` ends before the next.
    pub(crate) fn slot(&mut self, idx: usize) -> Slot<'_> {
        // SAFETY: every owner is parked for as long as `self` exists (row 2
        // of the module table), and `&mut self` keeps this the only `Slot`
        // handed out.
        unsafe { Slot::owned(self.pool, idx) }
    }
}

impl CkptLockGuard<'_> {
    /// The system slot (row 3 of the module table): never registered, so
    /// `ckpt_lock` — held for as long as this guard lives — is what
    /// serializes its users (recovery, the post-release free push, a
    /// checkpoint's [`Quiesced`], unit tests).
    pub(crate) fn system_slot(&mut self) -> Slot<'_> {
        // SAFETY: slot 0 has no owner, and `&mut self` proves `ckpt_lock`
        // is held and no other token built from this guard is alive.
        unsafe { Slot::owned(self.pool, SYSTEM_SLOT) }
    }
}
