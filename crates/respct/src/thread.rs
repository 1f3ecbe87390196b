//! Per-thread handles: the application-facing ResPCT API (paper Table 1).
//!
//! Every program thread registers with the pool and receives a
//! [`ThreadHandle`]. The handle implements `update_InCLL`, `add_modified`,
//! `RP(id)`, the blocking-call protocol ([`ThreadHandle::allow_checkpoints`]
//! returning an [`AllowGuard`]), and persistent allocation. Handles are
//! `Send` (a thread may be handed its handle) but not `Sync`: a handle
//! belongs to exactly one thread at a time, which is what makes the
//! unsynchronized tracking list sound. `allow_checkpoints(&mut self)`
//! borrows the handle mutably for the guard's lifetime, so none of the
//! `&self` operations can run while the checkpointer may own the slot.

use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use respct_pmem::{PAddr, Pod, SyncToken};

use crate::incll::ICell;
use crate::layout::{CELL_SIZE, MAX_THREADS, U64_CELL_SLOT};
use crate::pool::{spin_until, Pool, SYSTEM_SLOT};
use crate::slot::Slot;

/// A restart-point identifier (paper §3.3: RP ids name the static program
/// locations recovery can resume from). A dedicated type keeps RP ids from
/// being confused with the other bare `u64`s of the API (epochs, addresses,
/// slot indexes); `From<u64>` keeps literal call sites (`h.rp(7)`) working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RpId(pub u64);

impl RpId {
    /// `self + d`: derives a per-worker id from a per-call-site base (the
    /// common "base + thread index" pattern of the app kernels).
    pub const fn offset(self, d: u64) -> RpId {
        RpId(self.0 + d)
    }
}

impl From<u64> for RpId {
    fn from(id: u64) -> RpId {
        RpId(id)
    }
}

impl std::fmt::Display for RpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A registered program thread's capability to mutate persistent state.
pub struct ThreadHandle {
    pool: Arc<Pool>,
    slot: usize,
    /// `!Sync` marker: the tracking-list protocol requires single ownership.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl Pool {
    /// Registers the calling context as a program thread.
    ///
    /// Blocks while a checkpoint is in progress (a thread may not join an
    /// epoch halfway through its checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if all thread slots are taken.
    pub fn register(self: &Arc<Self>) -> ThreadHandle {
        let _serial = self.lock_ckpt();
        let slot = self
            .free_slots
            .lock()
            .pop()
            .unwrap_or_else(|| panic!("all {MAX_THREADS} thread slots in use"));
        self.flags[slot].store(false, Ordering::SeqCst);
        self.active[slot].store(true, Ordering::SeqCst);
        let handle = ThreadHandle {
            pool: Arc::clone(self),
            slot,
            _not_sync: PhantomData,
        };
        handle.access().rebuild_registry_cache();
        handle
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        // Mark ourselves quiescent *before* taking the checkpoint lock:
        // a checkpoint already in progress is waiting for this flag, and
        // we will make no further persistent writes. The SeqCst store also
        // publishes our tracking-list pushes to the checkpointer.
        self.allow_raw();
        let _serial = self.pool.lock_ckpt();
        self.pool.active[self.slot].store(false, Ordering::SeqCst);
        self.pool.free_slots.lock().push(self.slot);
        // The flag stays true: an unowned slot never blocks checkpoints.
    }
}

impl ThreadHandle {
    /// The pool this handle belongs to.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The thread slot index backing this handle (diagnostics).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// This thread's slot, held for one operation.
    #[inline]
    fn access(&self) -> Slot<'_> {
        // SAFETY: this handle is the registered owner of `slot` and is
        // `!Sync`, so only the thread running this code reaches it. Its
        // flag is down: a flag raised through `allow_checkpoints` borrows
        // the handle mutably for as long as it is up, and `rp()` /
        // `checkpoint_here()` raise it only while this thread is inside
        // them, not here. Every caller uses the token as a temporary, so no
        // two are alive at once.
        unsafe { Slot::owned(&self.pool, self.slot) }
    }

    /// The happens-before token of this slot's quiescence flag. Raising
    /// the flag is a release (the checkpointer acquires it when it observes
    /// the raise); resuming after a checkpoint acquires [`SyncToken::Timer`]
    /// (released by the checkpointer when it un-quiesces the threads).
    fn flag_token(&self) -> SyncToken {
        SyncToken::Flag {
            slot: self.slot as u64,
        }
    }

    // ---- InCLL API (paper Table 1) -----------------------------------

    /// Allocates an InCLL variable initialized to `val` (`alloc_in_nvmm` +
    /// `init_InCLL`). `T` is an 8-byte [`Pod`]: every cell has one shape,
    /// so a narrower value does not compile.
    ///
    /// ```compile_fail
    /// # use respct::{Pool, PoolConfig, Region, RegionConfig};
    /// # let pool = Pool::create(Region::new(RegionConfig::fast(1 << 20)), PoolConfig::default()).unwrap();
    /// let h = pool.register();
    /// let cell = h.alloc_cell(1u32); // error: an ICell value is an 8-byte, 8-aligned Pod
    /// ```
    pub fn alloc_cell<T: Pod>(&self, val: T) -> ICell<T> {
        let mut slot = self.access();
        let addr = slot.alloc(CELL_SIZE, U64_CELL_SLOT);
        slot.cell_init(addr, val)
    }

    /// Initializes an InCLL variable at a caller-chosen address inside a
    /// larger allocation (for cells embedded in structs). The placement
    /// must keep the whole cell within one cache line (checked).
    pub fn init_cell_at<T: Pod>(&self, addr: PAddr, val: T) -> ICell<T> {
        self.access().cell_init(addr, val)
    }

    /// Initializes *or* updates an InCLL variable at `addr`, depending on
    /// whether the address already carries a live cell —
    /// the right primitive for containers that recycle element slots.
    pub fn upsert_cell<T: Pod>(&self, addr: PAddr, val: T) -> ICell<T> {
        self.access().cell_upsert(addr, val)
    }

    /// `update_InCLL`: logs the old value on the first update of the epoch,
    /// then stores `val`.
    ///
    /// Per the paper's model (§2.1), if the variable is shared the caller
    /// must hold the lock that protects it; two concurrent `update`s of the
    /// same cell yield an unspecified (but memory-safe) value.
    #[inline]
    pub fn update<T: Pod>(&self, cell: ICell<T>, val: T) {
        self.access().cell_update(cell, val);
    }

    /// Reads a cell's current value.
    #[inline]
    pub fn get<T: Pod>(&self, cell: ICell<T>) -> T {
        self.pool.cell_get(cell)
    }

    /// Registers `[addr, addr+len)` as modified this epoch (`add_modified`).
    /// Used for persistent data that needs no undo log (no WAR dependency
    /// after the preceding restart point, §3.3.2).
    #[inline]
    pub fn add_modified(&self, addr: PAddr, len: usize) {
        self.access().add_modified(addr, len);
    }

    /// Plain persistent store + `add_modified` in one call.
    #[inline]
    pub fn store_tracked<T: Pod>(&self, addr: PAddr, val: T) {
        self.pool.region.store(addr, val);
        self.add_modified(addr, std::mem::size_of::<T>());
    }

    // ---- Allocation ----------------------------------------------------

    /// Allocates `size` bytes aligned to `align` in persistent memory.
    ///
    /// # Panics
    ///
    /// Panics when the pool is exhausted.
    pub fn alloc(&self, size: u64, align: u64) -> PAddr {
        self.access().alloc(size, align)
    }

    /// Frees a block (deferred to the next checkpoint; see `alloc.rs`).
    pub fn free(&self, addr: PAddr, size: u64) {
        self.access().free(addr, size);
    }

    /// Sets the pool's root pointer (how an application finds its data
    /// after recovery).
    pub fn set_root(&self, addr: PAddr) {
        let cell = self.pool.root_cell();
        self.update(cell, addr.0);
    }

    // ---- Restart points (paper Fig. 4, lines 40–45) ---------------------

    /// Declares a restart point with identifier `id` (a [`RpId`] or a bare
    /// `u64` via `From`).
    ///
    /// Records the RP id in the slot's volatile mirror, then parks if a
    /// checkpoint is pending. The checkpoint persists the mirror while the
    /// thread is parked (so recovery can report where to resume): the id
    /// that becomes durable is the one the thread last passed before it
    /// parked or raised its flag, and a crash rolls the RP cell back to it
    /// — without an InCLL update per RP.
    #[inline]
    pub fn rp(&self, id: impl Into<RpId>) {
        let RpId(id) = id.into();
        self.pool
            .region
            .trace_marker(respct_pmem::TraceMarker::RestartPoint {
                slot: self.slot as u64,
                id,
            });
        self.access().state().rp_id = id;
        if self.pool.timer.load(Ordering::Acquire) {
            self.park_for_checkpoint();
        }
    }

    /// The last restart-point id this thread slot passed. It becomes
    /// durable at the next checkpoint; until then a crash recovers the id
    /// the previous checkpoint persisted.
    pub fn last_rp(&self) -> u64 {
        self.access().state().rp_id
    }

    /// Parks until no checkpoint is pending, with the flag raised while
    /// parked. Hardened against back-to-back checkpoints: after lowering
    /// the flag we re-check `timer` and re-park if a new checkpoint began
    /// in the window (the paper's pseudocode has the same benign race;
    /// SeqCst + the re-check loop closes it).
    ///
    /// Timing the stall here is off the failure-free hot path: the function
    /// only runs when a checkpoint is already pending.
    fn park_for_checkpoint(&self) {
        let metrics = self.pool.runtime_metrics();
        let t0 = metrics.enabled().then(std::time::Instant::now);
        loop {
            self.allow_raw();
            spin_until(|| !self.pool.timer.load(Ordering::SeqCst));
            self.pool.flags[self.slot].store(false, Ordering::SeqCst);
            if !self.pool.timer.load(Ordering::SeqCst) {
                break;
            }
        }
        // We observed the checkpointer clearing `timer`: everything the
        // checkpoint did while we were parked (deferred-cell sync, epoch
        // advance or ring claim) happens-before our next persistent write.
        // The free push that follows the release publishes each block
        // through its class lock instead.
        self.pool.region.sync_acquire(SyncToken::Timer);
        if let Some(t0) = t0 {
            metrics.on_rp_stall(self.slot, t0.elapsed().as_nanos() as u64);
        }
    }

    // ---- Blocking-call protocol (paper Fig. 4 lines 30–39, §3.3.3) ------

    /// Permits checkpoints to complete while this thread is about to block
    /// (the paper's `checkpoint_allow`). The returned [`AllowGuard`]
    /// re-arms prevention when dropped, so the window in which this thread
    /// does not gate checkpoints is exactly the guard's lifetime — there is
    /// no way to forget the matching `checkpoint_prevent` or to write
    /// persistent state while the flag is still up without keeping the
    /// guard alive (which is the bug made visible).
    ///
    /// For the condvar pattern of §3.3.3 — re-arming while holding a mutex
    /// guard — consume the guard with [`AllowGuard::rearm_locked`].
    ///
    /// The guard borrows the handle mutably: while the flag is up the
    /// checkpointer may own this thread's slot, so nothing that touches it
    /// compiles.
    ///
    /// ```compile_fail,E0502
    /// # use respct::{Pool, PoolConfig};
    /// # use respct_pmem::{Region, RegionConfig};
    /// # let region = Region::new(RegionConfig::fast(8 << 20));
    /// # let pool = Pool::create(region, PoolConfig::default()).expect("pool");
    /// let mut h = pool.register();
    /// let c = h.alloc_cell(0u64);
    /// let allow = h.allow_checkpoints();
    /// h.update(c, 1); // error: `h` is mutably borrowed by `allow`
    /// drop(allow);
    /// ```
    pub fn allow_checkpoints(&mut self) -> AllowGuard<'_> {
        self.allow_raw();
        AllowGuard {
            handle: self,
            armed: true,
        }
    }

    /// Raises the per-thread flag: from here until it is lowered again the
    /// checkpointer may own this thread's slot. The release publishes the
    /// thread's stores and tracking-list pushes to whoever observes the flag.
    fn allow_raw(&self) {
        self.pool.region.sync_release(self.flag_token());
        self.pool.flags[self.slot].store(true, Ordering::SeqCst);
    }

    fn prevent_raw(&self) {
        loop {
            self.pool.flags[self.slot].store(false, Ordering::SeqCst);
            if !self.pool.timer.load(Ordering::SeqCst) {
                // No checkpoint pending (or one just finished): acquire the
                // checkpointer's timer release before touching pool state.
                self.pool.region.sync_acquire(SyncToken::Timer);
                return;
            }
            self.park_for_checkpoint();
        }
    }

    fn prevent_locked_raw<'a, T>(
        &self,
        mutex: &'a parking_lot::Mutex<T>,
        mut guard: parking_lot::MutexGuard<'a, T>,
    ) -> parking_lot::MutexGuard<'a, T> {
        loop {
            self.pool.flags[self.slot].store(false, Ordering::SeqCst);
            if !self.pool.timer.load(Ordering::SeqCst) {
                self.pool.region.sync_acquire(SyncToken::Timer);
                return guard;
            }
            // A checkpoint started while we were blocked: let it finish.
            self.allow_raw();
            drop(guard);
            spin_until(|| !self.pool.timer.load(Ordering::SeqCst));
            guard = mutex.lock();
        }
    }

    /// Runs a checkpoint from this thread and returns once it is durable:
    /// parks the calling handle as if at an RP, drives the checkpoint, and
    /// waits for the closed epoch's drain to commit (at once on a
    /// synchronous pool, which drains before it releases; on an
    /// `async_checkpoint` pool, at every ring depth, once the executor
    /// commits). Everything this thread wrote before the call survives a
    /// crash at any instant after it returns, which is what lets
    /// `KvService` use it as the `Durability::Sync` point.
    /// ([`Pool::checkpoint_now`] returns at the release instead.)
    pub fn checkpoint_here(&self) -> crate::checkpoint::CkptReport {
        self.allow_raw();
        let report = self.pool.checkpoint_now();
        // Wait with the flag still raised: this thread gates no checkpoint
        // while the executor finishes the drain.
        self.pool.await_commit(report.closed_epoch);
        // Lower the flag with the full prevent protocol: another thread's
        // checkpoint may have started while our flag was still up (it saw
        // us as parked), so an unconditional lower here would let this
        // thread write persistent state mid-flush. Re-park until no
        // checkpoint is pending.
        self.prevent_raw();
        report
    }
}

/// Proof that the owning thread currently permits checkpoints to complete
/// without it (obtained from [`ThreadHandle::allow_checkpoints`]).
///
/// While the guard is alive the thread's per-thread flag is raised and the
/// thread **must not** touch persistent state. Dropping the guard re-arms
/// prevention, waiting out any in-flight checkpoint first — the misuse the
/// old `checkpoint_allow`/`checkpoint_prevent` pair allowed (forgetting the
/// second call, or returning early between the two) is unrepresentable.
#[must_use = "dropping the guard immediately re-arms checkpoint prevention"]
pub struct AllowGuard<'h> {
    handle: &'h mut ThreadHandle,
    armed: bool,
}

impl AllowGuard<'_> {
    /// Re-arms prevention after a `cond_wait` returned, while holding
    /// `mutex`'s guard (the §3.3.3 pattern). If a checkpoint is in flight,
    /// the mutex guard is released while waiting for it — avoiding the
    /// deadlock of a parked checkpointer needing the lock — and
    /// re-acquired afterwards; the returned guard is valid either way.
    ///
    /// Consumes the `AllowGuard`: prevention is re-armed exactly once.
    pub fn rearm_locked<'a, T>(
        mut self,
        mutex: &'a parking_lot::Mutex<T>,
        guard: parking_lot::MutexGuard<'a, T>,
    ) -> parking_lot::MutexGuard<'a, T> {
        self.armed = false;
        self.handle.prevent_locked_raw(mutex, guard)
    }
}

impl Drop for AllowGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.handle.prevent_raw();
        }
    }
}

impl std::fmt::Debug for AllowGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllowGuard")
            .field("slot", &self.handle.slot)
            .finish()
    }
}

impl std::fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("slot", &self.slot)
            .finish()
    }
}

/// Compile-time guarantee that handles can move across threads but not be
/// shared.
#[allow(dead_code)]
fn _assert_send(h: ThreadHandle) -> impl Send {
    h
}

// The system slot must never be handed to `register`.
const _: () = assert!(SYSTEM_SLOT == 0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use respct_pmem::{Region, RegionConfig};
    use std::time::Duration;

    fn pool() -> Arc<Pool> {
        Pool::create(
            Region::new(RegionConfig::fast(8 << 20)),
            PoolConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn register_reuses_slots() {
        let p = pool();
        let h1 = p.register();
        let s1 = h1.slot();
        drop(h1);
        let h2 = p.register();
        assert_eq!(h2.slot(), s1);
    }

    #[test]
    fn cell_roundtrip_through_handle() {
        let p = pool();
        let h = p.register();
        let c = h.alloc_cell(41u64);
        assert_eq!(h.get(c), 41);
        h.update(c, 42);
        assert_eq!(h.get(c), 42);
    }

    /// `last_rp()` is the volatile id: it follows every `rp()` at once,
    /// while the slot's persistent RP cell only moves at a checkpoint.
    #[test]
    fn rp_updates_persistent_rp_id() {
        let p = pool();
        let h = p.register();
        let cell = p.slot_cell(h.slot(), crate::layout::SLOT_RP_ID);
        h.rp(7);
        assert_eq!(h.last_rp(), 7);
        h.rp(9);
        assert_eq!(h.last_rp(), 9);
        assert_eq!(p.cell_get(cell), 0, "no checkpoint yet");
        h.checkpoint_here();
        assert_eq!(p.cell_get(cell), 9);
    }

    /// Restart points cost no persistent write: a thousand `rp()` calls
    /// cycling through three ids within one epoch neither store to the
    /// slot's RP cell nor log it; the next checkpoint persists the last id.
    #[test]
    fn rp_writes_nothing_between_checkpoints() {
        use respct_pmem::{TraceEvent, TraceMarker, VecSink};
        let region = Region::new(RegionConfig::fast(8 << 20));
        let sink = Arc::new(VecSink::new());
        region.set_trace_sink(sink.clone());
        let p = Pool::create(region, PoolConfig::default()).unwrap();
        let h = p.register();
        let cell = p.slot_cell(h.slot(), crate::layout::SLOT_RP_ID);
        h.checkpoint_here();
        sink.drain();
        for i in 0..1000u64 {
            h.rp(i % 3);
        }
        let cell_bytes = cell.addr().0..cell.epoch_addr().0 + 8;
        let touches_cell = |ev: &TraceEvent| match *ev {
            TraceEvent::Store { addr, .. } => cell_bytes.contains(&addr),
            TraceEvent::Marker {
                marker: TraceMarker::CellLogged { addr, .. },
                ..
            } => addr == cell.addr().0,
            _ => false,
        };
        let events = sink.drain();
        assert_eq!(events.iter().filter(|ev| touches_cell(ev)).count(), 0);
        assert_eq!(events.len(), 1000, "one RestartPoint marker per rp()");
        h.checkpoint_here();
        assert_eq!(p.cell_get(cell), 999 % 3);
    }

    #[test]
    fn checkpoint_waits_for_worker_rp() {
        let p = pool();
        let h = p.register();
        let p2 = Arc::clone(&p);
        let ck = std::thread::spawn(move || p2.checkpoint_now());
        // Give the checkpointer time to raise `timer`.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(p.epoch(), 1, "checkpoint must not complete before the RP");
        h.rp(1);
        ck.join().unwrap();
        assert_eq!(p.epoch(), 2);
    }

    #[test]
    fn dropping_handle_unblocks_checkpoint() {
        let p = pool();
        let h = p.register();
        let p2 = Arc::clone(&p);
        let ck = std::thread::spawn(move || p2.checkpoint_now());
        std::thread::sleep(Duration::from_millis(10));
        drop(h);
        ck.join().unwrap();
        assert_eq!(p.epoch(), 2);
    }

    #[test]
    fn allow_guard_roundtrip() {
        let p = pool();
        let mut h = p.register();
        let allow = h.allow_checkpoints();
        let r = p.checkpoint_now(); // completes because the flag is up
        assert_eq!(r.closed_epoch, 1);
        drop(allow); // re-arms prevention
                     // After the guard drops, a checkpoint blocks on this thread again.
        let p2 = Arc::clone(&p);
        let ck = std::thread::spawn(move || p2.checkpoint_now());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(p.epoch(), 2);
        h.rp(1);
        ck.join().unwrap();
        assert_eq!(p.epoch(), 3);
    }

    #[test]
    fn allow_guard_rearm_locked() {
        let p = pool();
        let mut h = p.register();
        let mutex = parking_lot::Mutex::new(0u32);
        let allow = h.allow_checkpoints();
        let guard = mutex.lock();
        // A checkpoint completes while we "block" holding the lock.
        let p2 = Arc::clone(&p);
        let ck = std::thread::spawn(move || p2.checkpoint_now());
        ck.join().unwrap();
        let guard = allow.rearm_locked(&mutex, guard);
        assert_eq!(*guard, 0);
        drop(guard);
        assert_eq!(p.epoch(), 2);
        // Prevention is re-armed: the next checkpoint waits for our RP.
        let p2 = Arc::clone(&p);
        let ck = std::thread::spawn(move || p2.checkpoint_now());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(p.epoch(), 2);
        h.rp(1);
        ck.join().unwrap();
        assert_eq!(p.epoch(), 3);
    }

    #[test]
    fn allow_guard_spans_checkpoint() {
        let p = pool();
        let mut h = p.register();
        let allow = h.allow_checkpoints();
        let r = p.checkpoint_now();
        assert_eq!(r.closed_epoch, 1);
        drop(allow);
        assert_eq!(p.epoch(), 2);
    }

    #[test]
    fn checkpoint_here_from_worker() {
        let p = pool();
        let h = p.register();
        let c = h.alloc_cell(5u64);
        h.update(c, 6);
        let r = h.checkpoint_here();
        assert_eq!(r.closed_epoch, 1);
        assert!(r.lines >= 1);
        // Next epoch: another update logs again.
        h.update(c, 7);
        let backup: u64 = p.region().load(c.backup_addr());
        assert_eq!(backup, 6, "new epoch must re-log the pre-epoch value");
    }

    #[test]
    fn multi_threaded_updates_with_periodic_checkpoints() {
        let p = pool();
        let guard = p.start_checkpointer(Duration::from_millis(2));
        let mut cells = Vec::new();
        {
            let h = p.register();
            for _ in 0..8 {
                cells.push(h.alloc_cell(0u64));
            }
        }
        std::thread::scope(|s| {
            for (t, &cell) in cells.iter().enumerate() {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    let h = p.register();
                    for i in 0..20_000u64 {
                        h.update(cell, t as u64 * 1_000_000 + i);
                        if i % 64 == 0 {
                            h.rp(t as u64);
                        }
                    }
                });
            }
        });
        drop(guard);
        for (t, &cell) in cells.iter().enumerate() {
            assert_eq!(p.cell_get(cell), t as u64 * 1_000_000 + 19_999);
        }
        // In release on one core the workload may outrun the 2 ms timer;
        // ensure the machinery completes at least one checkpoint either way.
        p.checkpoint_now();
        assert!(p.runtime_metrics().ckpt_snapshot().count > 0);
    }
}
