//! The backends a [`Region`](crate::Region) runs on, and the heap arena two
//! of them share.
//!
//! * **Fast** — a zeroed heap arena; `pwb` only *accounts* for the
//!   write-back (issue cost now, bandwidth-bound drain at `psync`) because
//!   flushing emulated-NVMM DRAM buys no durability and the real `clwb`
//!   costs ~150 ns of host overhead per line. The calibrated
//!   [`LatencyModel`](crate::latency::LatencyModel) charges NVMM costs
//!   instead.
//! * **Sim** — the same heap arena plus the PCSO
//!   [`CacheSim`](crate::sim::CacheSim): every store is interposed, crash
//!   injection and recovery are available.
//! * **Mmap** — a file-backed mapping; `pwb` issues the real `clwb` on the
//!   mapped line and the pool survives the process (see the `mmap` module
//!   docs for exactly what is and is not guaranteed).
//!
//! All three live in this crate, so `Region` dispatches over them with one
//! `match` in `try_new` and one in each of `pwb`, `psync` and `sync_data`.

use std::alloc::{alloc_zeroed, dealloc, Layout};

use crate::error::RegionError;
use crate::CACHE_LINE;

/// Which backend a region runs on (for reporting and test gating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Heap arena, accounting-only write-backs.
    Fast,
    /// Heap arena with the PCSO simulator.
    Sim,
    /// File-backed mapping with real flushes.
    Mmap,
}

/// A zeroed, page-aligned heap allocation sized in whole cache lines.
pub(crate) struct HeapArena {
    pub(crate) ptr: *mut u8,
    layout: Layout,
}

// SAFETY: the allocation is owned for the arena's whole lifetime and only
// accessed through atomic operations by the region.
unsafe impl Send for HeapArena {}
// SAFETY: as above.
unsafe impl Sync for HeapArena {}

impl HeapArena {
    /// Allocates `size` zeroed bytes, rounded up to whole cache lines.
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidConfig`] for a zero size.
    ///
    /// # Panics
    ///
    /// Panics if the allocation fails (allocation failure is not a
    /// recoverable configuration error).
    pub(crate) fn new(size: usize) -> Result<HeapArena, RegionError> {
        if size == 0 {
            return Err(RegionError::InvalidConfig("region size must be positive"));
        }
        let size = crate::align_up(size as u64, CACHE_LINE as u64) as usize;
        let layout = Layout::from_size_align(size, 4096).expect("valid region layout");
        // SAFETY: `layout` has non-zero size.
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "region allocation of {size} bytes failed");
        Ok(HeapArena { ptr, layout })
    }

    /// Arena size in bytes (whole number of cache lines).
    pub(crate) fn size(&self) -> usize {
        self.layout.size()
    }
}

impl Drop for HeapArena {
    fn drop(&mut self) {
        // SAFETY: `ptr` was allocated with exactly `layout` in `new`.
        unsafe { dealloc(self.ptr, self.layout) };
    }
}
