//! Emulated persistent main memory (NVMM) for the ResPCT reproduction.
//!
//! The paper runs on real Intel Optane DC Persistent Memory in *App Direct*
//! mode: NVMM DIMMs on the memory bus, volatile caches in between, and the
//! *Persistent Cache Store Order* (PCSO) model governing when stores become
//! persistent. This crate reproduces that substrate in software:
//!
//! * [`Region`] — a cache-line-aligned arena of emulated NVMM, addressed by
//!   [`PAddr`] offsets. All persistent loads and stores go through it.
//! * [`arch`] — the `pwb` (cache-line write-back, `clwb`/`clflushopt`) and
//!   `psync` (`sfence`) primitives of the paper's system model (§2.1).
//! * [`replay`] — the one PCSO state machine, at cache-line granularity:
//!   stores dirty lines, lines are written back to a persisted image on
//!   `pwb`+`psync` or at arbitrary moments (eviction), and a *crash* keeps
//!   the persisted image plus any choice of in-flight persists. Writes to
//!   the same cache line reach the persisted image in program order
//!   because a write-back snapshots the whole line. The [`Replayer`] drives
//!   it from a recorded trace and enumerates the crash images reachable at
//!   every instant (the `respct-crashsim` sweep engine).
//! * [`sim`] — the live driver of that machine under a sim-mode region:
//!   seeded random eviction on stores and seeded crash coin flips.
//! * [`latency`] — a calibrated spin-wait latency model so that fast-mode
//!   benchmarks can charge NVMM's extra write-back/read cost without a real
//!   Optane DIMM.
//!
//! A [`Region`] runs on one of three [`backend`]s, named by its
//! [`RegionMode`]:
//!
//! * **Fast** — stores compile to plain volatile writes; write-backs are
//!   accounted against the modeled latency. Used by the benchmark harness.
//! * **Sim** — every store, `pwb` and `psync` additionally drives the PCSO
//!   state machine of [`replay`] so tests can crash the "machine" at any
//!   instant and recover from exactly the state a real PCSO machine would
//!   have persisted.
//! * **Mmap** — a `MAP_SHARED` pool-file mapping ([`mmap`]): `pwb` issues
//!   the real `clwb` on the mapped line and the pool survives the process,
//!   so a fresh process can reopen and recover it.

pub mod arch;
pub mod backend;
pub mod error;
pub mod latency;
pub mod mmap;
pub mod region;
pub mod replay;
pub mod sim;
pub mod stats;
#[cfg(unix)]
mod sys;
pub mod trace;

pub use backend::BackendKind;
pub use error::RegionError;
pub use region::{Region, RegionConfig, RegionMode};
pub use replay::{is_crash_point, is_protocol_point, Replayer};
pub use sim::{CrashImage, SimConfig};
pub use stats::PmemStats;
pub use trace::{
    StoreData, SyncToken, TeeSink, TraceEvent, TraceMarker, TraceSink, VecSink, MAX_STORE_DATA,
};

/// Size of a cache line in bytes on every platform we model (x86-64).
pub const CACHE_LINE: usize = 64;

/// An offset into a persistent [`Region`].
///
/// `PAddr` is the reproduction's equivalent of a pointer into an NVMM
/// mapping: stable across "reboots" (crash + recovery of the same region),
/// which is why persistent data structures link to each other with `PAddr`s
/// rather than raw pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PAddr(pub u64);

impl PAddr {
    /// The null address. Offset 0 is occupied by the region header magic, so
    /// no valid allocation ever starts there.
    pub const NULL: PAddr = PAddr(0);

    /// Returns `true` for the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address advanced by `delta` bytes.
    #[inline]
    pub fn offset(self, delta: u64) -> PAddr {
        PAddr(self.0 + delta)
    }

    /// Index of the cache line containing this address.
    #[inline]
    pub fn line(self) -> u64 {
        self.0 / CACHE_LINE as u64
    }
}

/// Marker for plain-old-data types that may live in emulated NVMM.
///
/// # Safety
///
/// Implementors must be `Copy` types with no padding requirements beyond
/// their alignment, valid for any bit pattern they are stored back with
/// (recovery re-reads raw bytes), and free of pointers/references into
/// volatile memory.
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: primitive integers are valid for all bit patterns and contain no
// volatile pointers.
unsafe impl Pod for u8 {}
// SAFETY: as above.
unsafe impl Pod for u16 {}
// SAFETY: as above.
unsafe impl Pod for u32 {}
// SAFETY: as above.
unsafe impl Pod for u64 {}
// SAFETY: as above.
unsafe impl Pod for i8 {}
// SAFETY: as above.
unsafe impl Pod for i16 {}
// SAFETY: as above.
unsafe impl Pod for i32 {}
// SAFETY: as above.
unsafe impl Pod for i64 {}
// SAFETY: as above.
unsafe impl Pod for usize {}
// SAFETY: f64 is valid for all bit patterns (NaNs included).
unsafe impl Pod for f64 {}
// SAFETY: f32 is valid for all bit patterns.
unsafe impl Pod for f32 {}
// SAFETY: a pair of u64 is plain data (a 16-byte value, which may cross a
// cache line).
unsafe impl Pod for (u64, u64) {}

/// Rounds `v` up to the next multiple of `align` (a power of two).
#[inline]
pub const fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paddr_line_arithmetic() {
        assert_eq!(PAddr(0).line(), 0);
        assert_eq!(PAddr(63).line(), 0);
        assert_eq!(PAddr(64).line(), 1);
        assert_eq!(PAddr(130).line(), 2);
        assert_eq!(PAddr(64).offset(64).line(), 2);
    }

    #[test]
    fn null_is_null() {
        assert!(PAddr::NULL.is_null());
        assert!(!PAddr(8).is_null());
    }

    #[test]
    fn align_up_powers() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 8), 16);
        assert_eq!(align_up(65, 64), 128);
    }
}
