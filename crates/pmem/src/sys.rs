//! The raw libc calls this crate makes, in one place: `mmap`, `munmap`,
//! `msync` and (Linux only) `madvise` for region arenas ([`crate::mmap`]:
//! `MADV_HUGEPAGE` on every fresh anonymous arena, `MADV_DONTNEED` on a
//! recovering pool file) and `clock_gettime` for thread CPU time
//! ([`crate::arch::thread_cpu_ns`]). std already links libc; the container
//! has no `libc`/`memmap2` crate to lean on, so the handful of constants
//! below are spelled out per `target_os`.
//!
//! `cargo run -p xtask -- lint` (rule `ffi-owner`) keeps every `extern "C"`
//! block of the workspace in this file.

// Under Miri anonymous arenas come from the allocator instead.
#![cfg_attr(miri, allow(dead_code))]

use std::ffi::{c_int, c_void};

pub(crate) const PROT_READ: c_int = 0x1;
pub(crate) const PROT_WRITE: c_int = 0x2;
pub(crate) const MAP_SHARED: c_int = 0x01;
pub(crate) const MAP_PRIVATE: c_int = 0x02;
#[cfg(target_os = "linux")]
pub(crate) const MAP_ANONYMOUS: c_int = 0x20;
#[cfg(not(target_os = "linux"))]
pub(crate) const MAP_ANONYMOUS: c_int = 0x1000; // macOS and the BSDs
#[cfg(target_os = "linux")]
pub(crate) const MS_SYNC: c_int = 4;
#[cfg(not(target_os = "linux"))]
pub(crate) const MS_SYNC: c_int = 0x0010;
#[cfg(target_os = "linux")]
pub(crate) const MADV_DONTNEED: c_int = 4;
#[cfg(target_os = "linux")]
pub(crate) const MADV_HUGEPAGE: c_int = 14;
#[cfg(target_os = "linux")]
pub(crate) const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
#[cfg(not(target_os = "linux"))]
pub(crate) const CLOCK_THREAD_CPUTIME_ID: c_int = 16; // macOS

/// `struct timespec` on the 64-bit targets we build for.
#[repr(C)]
pub(crate) struct Timespec {
    pub(crate) tv_sec: i64,
    pub(crate) tv_nsec: i64,
}

extern "C" {
    pub(crate) fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    pub(crate) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    pub(crate) fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
    #[cfg(target_os = "linux")]
    pub(crate) fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    pub(crate) fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}
