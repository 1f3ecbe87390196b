//! The backends a [`Region`](crate::Region) runs on.
//!
//! * **Fast** — an anonymous arena ([`crate::mmap`]: zero-filled on first
//!   touch); `pwb` only *accounts* for the write-back (issue cost now,
//!   bandwidth-bound drain at `psync`) because flushing emulated-NVMM DRAM
//!   buys no durability and the real `clwb` costs ~150 ns of host overhead
//!   per line. The calibrated [`LatencyModel`](crate::latency::LatencyModel)
//!   charges NVMM costs instead.
//! * **Sim** — the same anonymous arena plus the PCSO state machine of
//!   [`crate::replay`], driven live by [`crate::sim`] under one lock: every
//!   store is interposed, crash injection and recovery are available.
//! * **Mmap** — a file-backed mapping; `pwb` issues the real `clwb` on the
//!   mapped line and the pool survives the process (see the `mmap` module
//!   docs for exactly what is and is not guaranteed).
//!
//! All three live in this crate and own their bytes through one mapping
//! type, so `Region` dispatches over them with one `match` in `try_new`
//! and one on [`BackendKind`] in each of `pwb` and `psync`.

/// Which backend a region runs on (for reporting and test gating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Anonymous arena, accounting-only write-backs.
    Fast,
    /// Anonymous arena with the PCSO simulator.
    Sim,
    /// File-backed mapping with real flushes.
    Mmap,
}
