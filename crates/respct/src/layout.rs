//! Persistent region layout and the InCLL cell shape.
//!
//! The region begins with a fixed header holding everything recovery must be
//! able to find without any volatile state; everything after it is heap,
//! carved out by the bump allocator. This module names the offsets; each
//! structure's bytes are read and written in exactly one module (the
//! "On-media format" table of DESIGN.md §3.2 has every field's owner and
//! when it is durable; `cargo run -p xtask -- lint` enforces it).
//!
//! ```text
//! line 0    | magic | size |
//! line 1    | epoch | ring[0] ring[1] ring[2] ring[3] |    epoch_record.rs
//! line 2..  | root cell | bump cell | free-list cells x NUM_CLASSES |
//! slot i    | rp_id | alloc_cur | alloc_end | reg_len | reg_head |
//!  (x MAX_THREADS; four InCLL cells, then the plain chain head)
//! heap      | ... registry chunk: next | (cell addr) x 511 ...
//! ```
//!
//! Every cell above is in [`header_cells`], the list `Pool::create`
//! formats, recovery rolls back and `Pool::verify` audits; `reg_head` and
//! the chunks belong to `registry.rs`.

use respct_pmem::{align_up, PAddr, CACHE_LINE};

/// Identifies a formatted ResPCT pool ("RESPCT02").
pub const MAGIC: u64 = 0x5245_5350_4354_3032;

/// First epoch of a fresh pool. Starting above zero means the all-zero
/// content of never-initialized memory can never masquerade as "modified in
/// the current epoch".
pub const FIRST_EPOCH: u64 = 1;

/// Offset of an InCLL cell's backup field. Every cell has one shape (paper
/// Fig. 2): the 8-byte record at +0 — so the cell address doubles as the
/// value address — the 8-byte backup at +8, the 8-byte epoch tag at +16.
pub const CELL_BACKUP: u64 = 8;
/// Offset of an InCLL cell's epoch-tag field.
pub const CELL_EPOCH: u64 = 16;
/// Footprint of an InCLL cell in bytes.
pub const CELL_SIZE: u64 = 24;

/// Whether a cell at `addr` is 8-aligned and lies within one cache line —
/// the containment that makes the PCSO same-line guarantee cover value and
/// log. The one placement predicate: `cell_init`, `ICell::from_addr` and
/// the registry walk all ask it.
#[inline]
pub const fn cell_fits(addr: PAddr) -> bool {
    addr.0.is_multiple_of(8) && addr.0 % CACHE_LINE as u64 <= CACHE_LINE as u64 - CELL_SIZE
}

/// Maximum number of concurrently registered threads (slots are recycled
/// when a handle is dropped).
pub const MAX_THREADS: usize = 128;

/// Number of allocator size classes: 16, 32, 64, ..., 4096 bytes.
pub const NUM_CLASSES: usize = 9;

/// Block size of size class `c`.
pub const fn class_size(c: usize) -> u64 {
    16u64 << c
}

/// Smallest class that fits `size` bytes, or `None` for bump-only sizes.
pub fn class_of(size: u64) -> Option<usize> {
    let mut c = 0;
    while c < NUM_CLASSES {
        if class_size(c) >= size {
            return Some(c);
        }
        c += 1;
    }
    None
}

/// A 32-byte aligned slot for an InCLL cell ([`CELL_SIZE`] bytes, padded to
/// 32 so two fit per line): the header's stride and `alloc_cell`'s block.
pub const U64_CELL_SLOT: u64 = 32;

// ---- Header field offsets -------------------------------------------------

/// Magic number (u64).
pub const OFF_MAGIC: PAddr = PAddr(0);
/// Formatted size (u64).
pub const OFF_SIZE: PAddr = PAddr(8);
/// The global epoch counter (paper Fig. 4 line 56): a plain u64 that shares
/// its cache line only with the epoch-record ring ([`OFF_EPOCH_STATE`]).
pub const OFF_EPOCH: PAddr = PAddr(64);
/// First slot of the epoch-record **ring**: [`MAX_EPOCH_PIPELINE`]
/// consecutive plain u64 words (see [`epoch_ring_slot`]), each the number
/// of an epoch whose drain has not committed, or zero.
pub const OFF_EPOCH_STATE: PAddr = PAddr(72);

/// Capacity of the epoch-record ring: the maximum number of epochs that
/// may be in flight (claimed but not yet drain-committed) at once, and the
/// upper bound of `PoolConfig::builder().epoch_pipeline(K)`. Fixed by the
/// header format — recovery always decodes all slots, independent of the
/// K the crashed process ran with.
pub const MAX_EPOCH_PIPELINE: usize = 4;

/// Address of ring slot `i` (`i < MAX_EPOCH_PIPELINE`). The slot for epoch
/// `N` under a pipeline depth of `K` is `N % K`.
pub const fn epoch_ring_slot(i: usize) -> PAddr {
    PAddr(OFF_EPOCH_STATE.0 + 8 * i as u64)
}
/// Root object pointer: an `ICell<u64>` holding a `PAddr`.
pub const OFF_ROOT: PAddr = PAddr(128);
/// Global bump offset: an `ICell<u64>`.
pub const OFF_BUMP: PAddr = PAddr(160);
/// Free-list heads: `NUM_CLASSES` consecutive `ICell<u64>` slots.
pub const OFF_FREELISTS: PAddr = PAddr(192);

/// Address of the free-list head cell of size class `c`.
pub(crate) const fn freelist_cell(c: usize) -> PAddr {
    PAddr(OFF_FREELISTS.0 + c as u64 * U64_CELL_SLOT)
}

/// Start of the thread-slot array.
pub const OFF_SLOTS: PAddr = PAddr(OFF_FREELISTS.0 + (NUM_CLASSES as u64) * U64_CELL_SLOT + 32);

// ---- Per-thread slot ------------------------------------------------------

/// Byte size of one thread slot (multiple of a cache line so slots don't
/// share lines — the paper pays the same attention to false sharing).
pub const SLOT_SIZE: u64 = 192;

/// Offset of slot `i`.
pub fn slot_base(i: usize) -> PAddr {
    PAddr(align_up(OFF_SLOTS.0, CACHE_LINE as u64) + (i as u64) * SLOT_SIZE)
}

/// `ICell<u64>`: restart-point id last persisted by this thread.
pub const SLOT_RP_ID: u64 = 0;
/// `ICell<u64>`: current bump cursor of the thread's allocation chunk.
pub const SLOT_ALLOC_CUR: u64 = 32;
/// `ICell<u64>`: end of the thread's allocation chunk.
pub const SLOT_ALLOC_END: u64 = 64;
/// `ICell<u64>`: number of valid registry entries of this slot.
pub const SLOT_REG_LEN: u64 = 96;
/// Plain u64: head chunk of the slot's registry chain (PAddr, 0 = none).
pub const SLOT_REG_HEAD: u64 = 128;

/// Address of the field at offset `field` of slot `slot`.
pub(crate) fn slot_field(slot: usize, field: u64) -> PAddr {
    PAddr(slot_base(slot).0 + field)
}

/// Every InCLL cell of the header (all `ICell<u64>`): root, bump, the
/// free-list heads and the four cells of every slot. The one enumeration
/// behind format, recovery roll-back and the `verify` tag audit — a cell
/// added here is formatted, recovered and audited; one added anywhere else
/// is none of the three.
pub fn header_cells() -> impl Iterator<Item = PAddr> {
    const SLOT_CELLS: [u64; 4] = [SLOT_RP_ID, SLOT_ALLOC_CUR, SLOT_ALLOC_END, SLOT_REG_LEN];
    [OFF_ROOT, OFF_BUMP]
        .into_iter()
        .chain((0..NUM_CLASSES).map(freelist_cell))
        .chain((0..MAX_THREADS).flat_map(|s| SLOT_CELLS.map(|f| slot_field(s, f))))
}

/// First heap byte.
pub fn heap_start() -> PAddr {
    PAddr(align_up(slot_base(MAX_THREADS).0, CACHE_LINE as u64))
}

// ---- Registry chunks ------------------------------------------------------

/// Registry chunk size in bytes (one bump allocation).
pub const REG_CHUNK_SIZE: u64 = 4096;
/// Entries per chunk: 8-byte next pointer, then 8-byte entries (a cell
/// address each).
pub const REG_CHUNK_ENTRIES: u64 = (REG_CHUNK_SIZE - 8) / 8;
/// Offset of the next-chunk pointer within a chunk.
pub const REG_CHUNK_NEXT: u64 = 0;
/// Offset of entry `i` within a chunk.
pub const fn reg_entry_off(i: u64) -> u64 {
    8 + i * 8
}

const _HEADER_FIELDS_DISJOINT: () = {
    assert!(OFF_EPOCH_STATE.0 == OFF_EPOCH.0 + 8);
    // Epoch + the whole epoch-record ring must share a cache line (the
    // ring-slot claim and the two-phase commit rely on PCSO same-line
    // prefix order between the epoch counter and every slot).
    assert!(OFF_EPOCH_STATE.0 / 64 == OFF_EPOCH.0 / 64);
    assert!(epoch_ring_slot(MAX_EPOCH_PIPELINE - 1).0 / 64 == OFF_EPOCH.0 / 64);
    assert!(OFF_ROOT.0 >= OFF_EPOCH_STATE.0 + 8 * MAX_EPOCH_PIPELINE as u64);
    assert!(OFF_BUMP.0 >= OFF_ROOT.0 + CELL_SIZE);
    assert!(OFF_FREELISTS.0 >= OFF_BUMP.0 + CELL_SIZE);
    assert!(CELL_SIZE <= U64_CELL_SLOT);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_fits_checks_alignment_and_line_containment() {
        assert!(cell_fits(PAddr(0)));
        assert!(cell_fits(PAddr(104))); // 40 into its line: 40 + 24 = 64
        assert!(!cell_fits(PAddr(48))); // 48 + 24 = 72, straddles
        assert!(!cell_fits(PAddr(44))); // misaligned
        assert!(!cell_fits(PAddr(4))); // misaligned even though it fits
    }

    #[test]
    fn classes() {
        assert_eq!(class_size(0), 16);
        assert_eq!(class_size(8), 4096);
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(4096), Some(8));
        assert_eq!(class_of(4097), None);
    }

    // The purely-constant field bounds are checked at compile time below
    // (`_HEADER_FIELDS_DISJOINT`); this test covers the computed ones.
    #[test]
    fn header_fields_do_not_overlap() {
        // Ring slots are consecutive, disjoint from the root cell, and all
        // share the epoch counter's cache line.
        for i in 0..MAX_EPOCH_PIPELINE {
            assert_eq!(epoch_ring_slot(i).0, OFF_EPOCH_STATE.0 + 8 * i as u64);
            assert!(epoch_ring_slot(i).0 + 8 <= OFF_ROOT.0);
            assert_eq!(
                epoch_ring_slot(i).0 / CACHE_LINE as u64,
                OFF_EPOCH.0 / CACHE_LINE as u64
            );
        }
        assert!(OFF_SLOTS.0 >= OFF_FREELISTS.0 + NUM_CLASSES as u64 * U64_CELL_SLOT);
        assert!(heap_start().0 >= slot_base(MAX_THREADS).0);
        // Every cell slot in the header must fit its line.
        assert!(cell_fits(OFF_ROOT));
        assert!(cell_fits(OFF_BUMP));
        for i in [0, 1, MAX_THREADS - 1] {
            assert_eq!(slot_base(i).0 % CACHE_LINE as u64, 0);
        }
        let cells: Vec<PAddr> = header_cells().collect();
        assert_eq!(cells.len(), 2 + NUM_CLASSES + 4 * MAX_THREADS);
        for w in cells.windows(2) {
            assert!(cell_fits(w[0]));
            assert!(w[0].0 + CELL_SIZE <= w[1].0, "{w:?} overlap");
        }
        let last = *cells.last().unwrap();
        assert!(cell_fits(last) && last.0 + CELL_SIZE <= heap_start().0);
    }

    #[test]
    fn registry_chunk_geometry() {
        assert_eq!(reg_entry_off(REG_CHUNK_ENTRIES - 1) + 8, REG_CHUNK_SIZE);
        assert_eq!(REG_CHUNK_ENTRIES, 511);
    }
}
