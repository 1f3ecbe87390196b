//! Crash-consistent persistent allocator.
//!
//! The paper assumes an `alloc_in_nvmm()` facility; this module provides one
//! whose metadata is protected by InCLL so that allocations performed in a
//! crashed epoch are rolled back together with the data:
//!
//! * A **global bump cell** hands out 64 KiB chunks (and large blocks
//!   directly).
//! * Each thread slot owns a **chunk cache** it bumps without
//!   synchronization.
//! * **Segregated free lists** (16 B … 4 KiB classes) with InCLL heads.
//!
//! All three cursors follow the same *deferred-persistence* discipline as
//! the rest of ResPCT: the hot paths operate on **volatile mirrors**
//! (`SlotState::alloc_cur`/`alloc_end`, `Pool::bump_vol`,
//! `Pool::class_heads`), and the checkpoint procedure syncs the mirrors
//! into their InCLL cells while every thread is parked
//! ([`Quiesced::sync_deferred_cells`]) — together with the slot's registry
//! length and restart-point id, which follow the same discipline. Mid-epoch
//! persistent values are irrelevant: a crash rolls the whole epoch back, so
//! the cells only need to be correct (and logged) at epoch boundaries. This
//! keeps allocation off the persistence hot path entirely — one
//! emulated-NVMM load per free-list pop, zero for a chunk bump.
//!
//! A free-list pop reads the popped block's link word, and the block that
//! link names is the one the next pop of the class hands out: the pop
//! prefetches it ([`Region::prefetch`](respct_pmem::Region::prefetch)), so
//! the insert that receives it finds its line in cache, as it would a
//! recently freed block of a volatile allocator. [`Slot::push_frees`]
//! prefetches one block ahead for the link word it is about to store.
//!
//! `free()` is *deferred*, with one lifecycle in every checkpoint mode:
//! blocks freed during an epoch are parked in a volatile per-slot list,
//! *taken* by the checkpoint that closes the epoch while the threads are
//! quiesced ([`Quiesced::take_frees`]), and *pushed* onto the free lists
//! after the `Timer` release, once that epoch's commit has landed
//! ([`Slot::push_frees`]: at once at depth 0, by the first checkpoint
//! after the drain's ring commit at depth ≥ 1).
//! Within-epoch reuse is impossible, which closes the classic
//! rollback/reuse hazard. The park list is lost in a crash — those blocks
//! leak, which is safe (documented trade-off; Montage's epoch retirement
//! makes the same compromise).

use respct_pmem::{align_up, PAddr};

use crate::incll::ICell;
use crate::layout::{self, class_of, class_size};
use crate::pool::{Pool, SYSTEM_SLOT};
use crate::slot::{Quiesced, Slot};

/// Granularity of per-thread chunk grabs from the global bump.
pub const CHUNK_SIZE: u64 = 64 * 1024;

impl Slot<'_> {
    /// Allocates `size` bytes aligned to `align`.
    ///
    /// Small sizes (≤ 4 KiB) are rounded up to a size class and served from
    /// the class free list or the slot's chunk cache; larger sizes bump the
    /// global cursor directly at 64-byte (or stronger) alignment.
    ///
    /// # Panics
    ///
    /// Panics when the region is exhausted.
    pub(crate) fn alloc(&mut self, size: u64, align: u64) -> PAddr {
        assert!(size > 0, "zero-size allocation");
        assert!(align.is_power_of_two());
        match class_of(size) {
            Some(c) => {
                let block = class_size(c);
                assert!(
                    align <= block.min(64),
                    "alignment {align} stronger than class alignment {}",
                    block.min(64)
                );
                self.alloc_class(c)
            }
            None => {
                let align = align.max(64);
                let addr = self.pool().bump_global(size, align);
                self.pool().scrub_fresh_block(addr, size);
                addr
            }
        }
    }

    /// Serves one block of class `c`: free list first, then the slot chunk.
    fn alloc_class(&mut self, c: usize) -> PAddr {
        let pool = self.pool();
        // Free-list pop: volatile head under the class lock; the persistent
        // head cell is synced at the next checkpoint. The checkpointer
        // stored this block's link word under the same traced lock
        // ([`Slot::push_frees`]), so our upcoming payload stores are ordered
        // after that write for the trace checker's happens-before rules.
        {
            let mut head = pool.class_heads[c].lock(pool);
            if *head != 0 {
                let block = *head;
                *head = pool.region.load(PAddr(block));
                pool.region.prefetch(PAddr(*head));
                return PAddr(block);
            }
        }
        let block = class_size(c);
        let st = self.state();
        let aligned = align_up(st.alloc_cur, block.min(64));
        if st.alloc_cur != 0 && aligned + block <= st.alloc_end {
            st.alloc_cur = aligned + block;
            pool.scrub_fresh_block(PAddr(aligned), block);
            return PAddr(aligned);
        }
        // Grab a fresh chunk. The remainder of the old chunk (< one block)
        // is abandoned — bounded internal fragmentation.
        let chunk = pool.bump_global(CHUNK_SIZE, 64);
        st.alloc_cur = chunk.0 + block;
        st.alloc_end = chunk.0 + CHUNK_SIZE;
        pool.scrub_fresh_block(chunk, block);
        PAddr(chunk.0)
    }

    /// Frees a block previously returned by [`Slot::alloc`] for `size`
    /// bytes. Deferred: the block becomes reusable only once the epoch it
    /// was freed in has committed. Blocks above the largest class are not
    /// recycled.
    pub(crate) fn free(&mut self, addr: PAddr, size: u64) {
        if let Some(c) = class_of(size) {
            self.pool()
                .region
                .trace_marker(respct_pmem::TraceMarker::CellRetire {
                    addr: addr.0,
                    len: class_size(c),
                });
            self.state().frees.push((addr, c));
        }
    }

    /// Brings `cell` up to its volatile mirror `v`, logging it if it moved.
    fn sync_cell(&mut self, cell: ICell<u64>, v: u64) {
        if self.pool().cell_get(cell) != v {
            self.cell_update(cell, v);
        }
    }

    /// Pushes taken free blocks onto the volatile free-list heads (the head
    /// cells are synced at the *next* checkpoint), tracking the link-word
    /// stores against this slot. Runs on the checkpointer, *after* the
    /// `Timer` release and only once the epoch the blocks were freed in has
    /// committed: the link word overwrites the block's first 8 bytes, and
    /// until that commit lands a crash still rolls back to a state in which
    /// the block was live. The application threads are running again, so
    /// the traced class lock is the only ordering between a link-word store
    /// and the payload stores of whichever thread pops that block.
    pub(crate) fn push_frees(&mut self, drained: Vec<(PAddr, usize)>) {
        let pool = self.pool();
        for (i, &(addr, c)) in drained.iter().enumerate() {
            if let Some(&(next, _)) = drained.get(i + 1) {
                pool.region.prefetch(next);
            }
            let mut head = pool.class_heads[c].lock(pool);
            // Link word lives in the block's first 8 bytes. If the epoch
            // that persists this push crashes, the head cell rolls back and
            // the stale link word is unreachable garbage.
            pool.region.store(addr, *head);
            self.add_modified(addr, 8);
            *head = addr.0;
        }
    }
}

impl Quiesced<'_> {
    /// Syncs every volatile mirror into its InCLL cell so the imminent
    /// flush persists end-of-epoch allocator and registry state and each
    /// slot's restart-point id — the id its thread last passed before it
    /// parked or raised its flag. Runs before the tracking lists are
    /// gathered.
    pub(crate) fn sync_deferred_cells(&mut self) {
        let pool = self.pool();
        for idx in 0..layout::MAX_THREADS {
            let mut slot = self.slot(idx);
            let st = slot.state();
            for (field, v) in [
                (layout::SLOT_ALLOC_CUR, st.alloc_cur),
                (layout::SLOT_ALLOC_END, st.alloc_end),
                (layout::SLOT_REG_LEN, st.reg_len),
                (layout::SLOT_RP_ID, st.rp_id),
            ] {
                slot.sync_cell(pool.slot_cell(idx, field), v);
            }
        }
        let mut sys = self.slot(SYSTEM_SLOT);
        let bump = *pool.bump_vol.lock();
        sys.sync_cell(pool.bump_cell(), bump);
        for c in 0..layout::NUM_CLASSES {
            let head = *pool.class_heads[c].lock(pool);
            sys.sync_cell(pool.freelist_cell(c), head);
        }
    }

    /// Collects every slot's deferred-free list. Taken while quiesced (the
    /// lists are owned by the parked threads, who may touch them again the
    /// instant they are released); pushed with [`Slot::push_frees`] only
    /// after the release, once the closing epoch's commit has landed.
    pub(crate) fn take_frees(&mut self) -> Vec<(PAddr, usize)> {
        let mut drained: Vec<(PAddr, usize)> = Vec::new();
        for idx in 0..layout::MAX_THREADS {
            drained.append(&mut self.slot(idx).state().frees);
        }
        drained
    }
}

impl Pool {
    /// Zeroes a bump-fresh block before hand-out on recovered pools (see
    /// [`Pool::scrub_fresh`]): the crashed epoch may have left live-looking
    /// InCLL epoch tags in un-allocated memory, which would fool
    /// `init_InCLL`'s recycled-cell detection. Free-list blocks are *not*
    /// scrubbed — their tags and registry entries are exactly what the
    /// recycled-cell path relies on.
    #[inline]
    fn scrub_fresh_block(&self, addr: PAddr, size: u64) {
        if !self.scrub_fresh {
            return;
        }
        const ZEROS: [u8; 4096] = [0u8; 4096];
        let mut off = 0u64;
        while off < size {
            let n = ((size - off) as usize).min(ZEROS.len());
            self.region.store_bytes(PAddr(addr.0 + off), &ZEROS[..n]);
            off += n as u64;
        }
    }

    /// Takes `size` bytes straight from the global bump mirror.
    fn bump_global(&self, size: u64, align: u64) -> PAddr {
        let mut bump = self.bump_vol.lock();
        let start = align_up(*bump, align);
        let new = start + size;
        assert!(
            new <= self.region.size() as u64,
            "persistent pool exhausted: need {size} bytes, {} of {} used",
            *bump,
            self.region.size()
        );
        *bump = new;
        PAddr(start)
    }

    /// Bytes handed out so far (volatile view; diagnostics).
    pub fn heap_used(&self) -> u64 {
        *self.bump_vol.lock() - layout::heap_start().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use respct_pmem::{Region, RegionConfig};
    use std::sync::Arc;

    fn pool() -> Arc<Pool> {
        Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap()
    }

    /// Allocates on the system slot (no thread is registered).
    fn sys_alloc(p: &Pool, size: u64, align: u64) -> PAddr {
        p.lock_ckpt().system_slot().alloc(size, align)
    }

    fn sys_free(p: &Pool, addr: PAddr, size: u64) {
        p.lock_ckpt().system_slot().free(addr, size);
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let p = pool();
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for (size, align) in [
            (8u64, 8u64),
            (24, 8),
            (64, 64),
            (100, 8),
            (4096, 64),
            (40, 8),
        ] {
            let a = sys_alloc(&p, size, align);
            assert_eq!(a.0 % align, 0, "misaligned block for ({size},{align})");
            let block = class_of(size).map_or(size, class_size);
            for &(s, e) in &seen {
                assert!(a.0 + block <= s || a.0 >= e, "overlap");
            }
            seen.push((a.0, a.0 + block));
        }
    }

    #[test]
    fn class_blocks_do_not_straddle_lines() {
        let p = pool();
        for _ in 0..100 {
            let a = sys_alloc(&p, 24, 8); // class 32
            let off = a.0 % 64;
            assert!(off + 32 <= 64, "class-32 block straddles a line at {a:?}");
        }
    }

    #[test]
    fn large_alloc_bumps_globally() {
        let p = pool();
        let a = sys_alloc(&p, 100_000, 64);
        assert_eq!(a.0 % 64, 0);
        assert!(p.heap_used() >= 100_000);
    }

    #[test]
    fn free_is_deferred_until_checkpoint() {
        let p = pool();
        let a = sys_alloc(&p, 64, 8);
        sys_free(&p, a, 64);
        // Not yet reusable.
        let b = sys_alloc(&p, 64, 8);
        assert_ne!(a, b);
        p.checkpoint_now();
        let c = sys_alloc(&p, 64, 8);
        assert_eq!(a, c, "block freed in a committed epoch is recycled first");
    }

    #[test]
    fn huge_blocks_not_recycled() {
        let p = pool();
        let a = sys_alloc(&p, 8192, 64);
        sys_free(&p, a, 8192);
        p.checkpoint_now();
        let b = sys_alloc(&p, 8192, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn sync_persists_cursors_at_checkpoint() {
        let p = pool();
        sys_alloc(&p, 64, 8);
        let used = p.heap_used();
        // Before a checkpoint, the persistent bump cell is stale.
        assert_ne!(p.cell_get(p.bump_cell()), used + layout::heap_start().0);
        p.checkpoint_now();
        assert_eq!(p.cell_get(p.bump_cell()), used + layout::heap_start().0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn oom_panics() {
        let p = pool();
        loop {
            sys_alloc(&p, 1 << 20, 64);
        }
    }
}
