//! Persistent registry of InCLL cells.
//!
//! The paper's recovery procedure iterates over "every variable in NVMM
//! with InCLL" (Fig. 5). A real general-purpose runtime therefore needs a
//! crash-consistent index of those variables; this module provides it as a
//! per-thread-slot chain of append-only chunks:
//!
//! * Each entry is 8 bytes: the cell address. Every cell has the one shape
//!   of [`crate::incll`], so the address is all recovery needs.
//! * The number of valid entries per slot is an `ICell<u64>` (`reg_len`),
//!   so a crashed epoch's appends are rolled back together with the cells
//!   they describe (whose memory the allocator rollback reclaims anyway).
//! * Chunks come from the ordinary allocator; the chain head lives in the
//!   slot descriptor, link pointers in the chunks themselves. All plain
//!   (non-logged) writes here are registered with `add_modified` — they are
//!   written once per entry/chunk, so the idempotence rule of §3.3.2 says
//!   they need no undo log.
//!
//! The chain's bytes — head field, link words, entries — are read and
//! written only here. Appends trust them (the running process wrote them);
//! the readers — [`list_chunks`] for the links, [`walk_chunk`] for the
//! entries, [`walk`] for both — do not: after a crash they are media the
//! process does not control.

use respct_pmem::{PAddr, Region, CACHE_LINE};

use crate::error::PoolError;
use crate::layout::{
    self, cell_fits, CELL_SIZE, MAX_THREADS, REG_CHUNK_ENTRIES, REG_CHUNK_NEXT, REG_CHUNK_SIZE,
    SLOT_REG_HEAD, SLOT_REG_LEN,
};
use crate::pool::Pool;
use crate::slot::Slot;

/// [`PoolError::CorruptRegistry`] reason: a registered cell lies outside the
/// region, is misaligned or straddles a cache line (`verify` files it under
/// cell placement).
pub(crate) const BAD_CELL: &str =
    "cell address out of bounds, misaligned or straddling a cache line";

/// Formats every slot's chain as empty.
pub(crate) fn format(region: &Region) {
    for slot in 0..MAX_THREADS {
        region.store(layout::slot_field(slot, SLOT_REG_HEAD), 0u64);
    }
}

/// Clears the chain heads of slots whose every entry rolled back (recovery,
/// after the header cells — `reg_len` among them — are restored). Such a
/// head chunk was allocated in the failed epoch, so the allocator rollback
/// reclaims its memory and the pointer dangles into re-allocatable space.
/// An empty chain contributes nothing to recovery, so clearing is always
/// safe; the next `register_cell` starts a fresh chain.
pub(crate) fn clear_emptied_heads(region: &Region) {
    let mut cleared = false;
    for slot in 0..MAX_THREADS {
        let len: u64 = region.load(layout::slot_field(slot, SLOT_REG_LEN));
        let head_field = layout::slot_field(slot, SLOT_REG_HEAD);
        let head: u64 = region.load(head_field);
        if len == 0 && head != 0 {
            region.store(head_field, 0u64);
            region.pwb(head_field);
            cleared = true;
        }
    }
    if cleared {
        region.psync();
    }
}

/// One chunk's share of a slot's registry: the `n` live entries of the
/// chunk at `chunk`, the first of them entry number `first` of the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chunk {
    pub(crate) slot: usize,
    pub(crate) chunk: u64,
    pub(crate) first: u64,
    pub(crate) n: u64,
}

// `#[cold]`: the failure exits otherwise make the loops look short-lived to
// the optimizer, which then leaves every `Region::load` in them out of line
// (measured: 31 instead of 23 ns per cell).
#[cold]
fn corrupt(slot: usize, entry: u64, word: u64, why: &'static str) -> PoolError {
    PoolError::CorruptRegistry {
        slot,
        entry,
        word,
        why,
    }
}

/// Appends `slot`'s chunks — as many as its persistent `reg_len` needs — to
/// `out`, head first. Reads only the length and the link words, each checked
/// against the region before it is followed; the entries are
/// [`walk_chunk`]'s.
///
/// # Errors
///
/// [`PoolError::CorruptRegistry`] at the first length or link word that
/// fails a check. The chunks listed before it stay in `out`: in walk order
/// their entries come first.
pub(crate) fn list_chunks(
    region: &Region,
    slot: usize,
    out: &mut Vec<Chunk>,
) -> Result<(), PoolError> {
    let size = region.size() as u64;
    let len: u64 = region.load(layout::slot_field(slot, SLOT_REG_LEN));
    // An entry is 8 bytes: no region holds more than `size / 8` of them.
    // This bound is what ends the walk of a chain that links to itself.
    if len > size / 8 {
        return Err(corrupt(slot, 0, len, "length beyond the region's capacity"));
    }
    let (mut link, mut first) = (layout::slot_field(slot, SLOT_REG_HEAD), 0u64);
    while first < len {
        let chunk: u64 = region.load(link);
        // Chunks are cache-line-aligned allocations, never the null address.
        if chunk == 0
            || !chunk.is_multiple_of(CACHE_LINE as u64)
            || chunk.saturating_add(REG_CHUNK_SIZE) > size
        {
            let why = "chunk pointer null, misaligned or out of bounds";
            return Err(corrupt(slot, first, chunk, why));
        }
        let n = (len - first).min(REG_CHUNK_ENTRIES);
        out.push(Chunk {
            slot,
            chunk,
            first,
            n,
        });
        first += n;
        link = PAddr(chunk + REG_CHUNK_NEXT);
    }
    Ok(())
}

/// Calls `f(addr)` for each entry of a chunk [`list_chunks`] listed. Every
/// cell address is checked against the region before it is used, so `f`
/// only sees cells it can load and store in bounds, within one cache line.
///
/// `#[inline]`: recovery's scan runs `f` once per registered cell; the walk
/// has to fuse with it into one monomorphic loop.
///
/// # Errors
///
/// [`PoolError::CorruptRegistry`] at the first entry that fails a check;
/// `f` has seen every entry before it.
#[inline]
pub(crate) fn walk_chunk(
    region: &Region,
    c: Chunk,
    mut f: impl FnMut(PAddr),
) -> Result<(), PoolError> {
    let size = region.size() as u64;
    for i in 0..c.n {
        let addr: u64 = region.load(PAddr(c.chunk + layout::reg_entry_off(i)));
        if addr.saturating_add(CELL_SIZE) > size || !cell_fits(PAddr(addr)) {
            return Err(corrupt(c.slot, c.first + i, addr, BAD_CELL));
        }
        f(PAddr(addr));
    }
    Ok(())
}

/// Walks `slot`'s registered cells in order — [`list_chunks`], then
/// [`walk_chunk`] over each — and returns the number of chunks visited.
///
/// `#[inline]`, like [`walk_chunk`]: `verify` runs `f` once per registered
/// cell (measured: 31 ms out of line, 24 ms inline over 2.6 M cells).
///
/// # Errors
///
/// [`PoolError::CorruptRegistry`] at the first word that fails a check, in
/// walk order: an entry of a listed chunk before a link word that ended the
/// listing.
#[inline]
pub(crate) fn walk(
    region: &Region,
    slot: usize,
    mut f: impl FnMut(PAddr),
) -> Result<u64, PoolError> {
    let mut chunks = Vec::new();
    let listed = list_chunks(region, slot, &mut chunks);
    for &c in &chunks {
        walk_chunk(region, c, &mut f)?;
    }
    listed.map(|()| chunks.len() as u64)
}

impl Slot<'_> {
    /// Appends the cell at `addr` to the slot's registry.
    pub(crate) fn register_cell(&mut self, addr: PAddr) {
        let region = &self.pool().region;
        let (mut tail, mut used) = (self.state().reg_tail, self.state().reg_tail_used);
        if tail == 0 || used == REG_CHUNK_ENTRIES {
            let chunk = self.alloc(REG_CHUNK_SIZE, 64);
            region.store(PAddr(chunk.0 + REG_CHUNK_NEXT), 0u64);
            self.add_modified(chunk, 8);
            let link = if tail == 0 {
                layout::slot_field(self.idx(), SLOT_REG_HEAD)
            } else {
                PAddr(tail + REG_CHUNK_NEXT)
            };
            region.store(link, chunk.0);
            self.add_modified(link, 8);
            (tail, used) = (chunk.0, 0);
        }
        let entry = PAddr(tail + layout::reg_entry_off(used));
        region.store(entry, addr.0);
        self.add_modified(entry, 8);
        // The length cursor is a volatile mirror, synced into its InCLL
        // cell at checkpoint time.
        let st = self.state();
        st.reg_len += 1;
        st.reg_tail = tail;
        st.reg_tail_used = used + 1;
    }

    /// Recomputes the slot's volatile tail cache from persistent state
    /// (registration after a hand-off or recovery).
    pub(crate) fn rebuild_registry_cache(&mut self) {
        let region = &self.pool().region;
        let len = self.state().reg_len;
        let head: u64 = region.load(layout::slot_field(self.idx(), SLOT_REG_HEAD));
        let (tail, used) = if len == 0 {
            // An earlier incarnation may have linked chunks whose entries
            // all rolled back; reuse the first chunk if present.
            (head, 0)
        } else {
            let hops = (len - 1) / REG_CHUNK_ENTRIES;
            let mut cur = head;
            for _ in 0..hops {
                cur = region.load(PAddr(cur + REG_CHUNK_NEXT));
                debug_assert!(cur != 0, "registry chain shorter than reg_len implies");
            }
            (cur, len - hops * REG_CHUNK_ENTRIES)
        };
        let st = self.state();
        st.reg_tail = tail;
        st.reg_tail_used = used;
    }
}

impl Pool {
    /// Total registered cells across all slots, as of the last checkpoint
    /// (the volatile cursors are synced to their cells at each checkpoint).
    pub fn registered_cells(&self) -> u64 {
        (0..MAX_THREADS)
            .map(|s| self.cell_get(self.slot_cell(s, SLOT_REG_LEN)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::pool::{Pool, PoolConfig, SYSTEM_SLOT};
    use respct_pmem::{PAddr, Region, RegionConfig};

    #[test]
    fn register_and_iterate() {
        let p = Pool::create(
            Region::new(RegionConfig::fast(8 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let mut expect = Vec::new();
        {
            let mut serial = p.lock_ckpt();
            let mut sys = serial.system_slot();
            for _ in 0..1200 {
                // More than two chunks' worth (511 per chunk).
                let a = sys.alloc(32, 32);
                sys.register_cell(a);
                expect.push(a);
            }
        }
        p.checkpoint_now(); // sync the volatile length cursor
        let mut got = Vec::new();
        let chunks = super::walk(p.region(), SYSTEM_SLOT, |a| got.push(a));
        assert_eq!(chunks, Ok(3));
        assert_eq!(got, expect);
        assert_eq!(p.registered_cells(), 1200);
    }

    #[test]
    fn rebuild_cache_matches_append_state() {
        let p = Pool::create(
            Region::new(RegionConfig::fast(8 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        {
            let mut serial = p.lock_ckpt();
            let mut sys = serial.system_slot();
            for _ in 0..600 {
                let a = sys.alloc(32, 32);
                sys.register_cell(a);
            }
            let before = (sys.state().reg_tail, sys.state().reg_tail_used);
            sys.rebuild_registry_cache();
            assert_eq!((sys.state().reg_tail, sys.state().reg_tail_used), before);
            // Appending after a rebuild still works.
            let a = sys.alloc(32, 32);
            sys.register_cell(a);
        }
        p.checkpoint_now();
        assert_eq!(p.registered_cells(), 601);
    }

    #[test]
    fn empty_registry_iterates_nothing() {
        let p = Pool::create(
            Region::new(RegionConfig::fast(1 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let mut n = 0;
        assert_eq!(super::walk(p.region(), 3, |_a: PAddr| n += 1), Ok(0));
        assert_eq!(n, 0);
    }
}
