//! `pwb` / `psync` primitives of the paper's system model (§2.1).
//!
//! The paper abstracts persistence control behind two instructions:
//!
//! * `pwb` — initiate an asynchronous cache-line write-back. On modern x86
//!   this is `clwb` (or `clflushopt` when `clwb` is absent).
//! * `psync` — wait until every preceding `pwb` issued by the current thread
//!   has completed. On x86 this is `sfence`.
//!
//! Mmap-backed [`Region`](crate::Region)s issue both on their mapped lines;
//! fast-mode regions issue the `sfence` and only account for write-backs
//! (see [`crate::backend`]); sim-mode regions instead drive the PCSO state
//! machine of [`crate::replay`].

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNKNOWN: u8 = 0;
    const CLWB: u8 = 1;
    const CLFLUSHOPT: u8 = 2;
    const FALLBACK: u8 = 3;

    static FLUSH_KIND: AtomicU8 = AtomicU8::new(UNKNOWN);

    fn flush_kind() -> u8 {
        let k = FLUSH_KIND.load(Ordering::Relaxed);
        if k != UNKNOWN {
            return k;
        }
        // `std::is_x86_feature_detected!` does not know these flush
        // features; query CPUID leaf 7 directly (EBX bit 24 = CLWB,
        // bit 23 = CLFLUSHOPT).
        let leaf7 = core::arch::x86_64::__cpuid_count(7, 0);
        let detected = if leaf7.ebx & (1 << 24) != 0 {
            CLWB
        } else if leaf7.ebx & (1 << 23) != 0 {
            CLFLUSHOPT
        } else {
            FALLBACK
        };
        FLUSH_KIND.store(detected, Ordering::Relaxed);
        detected
    }

    /// Issues a cache-line write-back for the line containing `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must point into a live allocation; the flush instruction
    /// requires a mapped address.
    #[inline]
    pub unsafe fn pwb(ptr: *const u8) {
        match flush_kind() {
            CLWB => {
                // SAFETY: caller guarantees `ptr` is mapped; feature presence
                // was verified by `flush_kind`.
                unsafe { clwb(ptr) }
            }
            CLFLUSHOPT => {
                // SAFETY: as above for `clflushopt`.
                unsafe { clflushopt(ptr) }
            }
            _ => {
                // No usable flush instruction: fall back to a full fence so
                // at least the ordering side effects are preserved.
                std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
            }
        }
    }

    /// # Safety
    ///
    /// `ptr` must be mapped and `clwb` support verified (see `flush_kind`).
    unsafe fn clwb(ptr: *const u8) {
        // SAFETY: caller guarantees `ptr` is mapped; `clwb` support was
        // verified at runtime by `flush_kind`.
        unsafe {
            std::arch::asm!(
                "clwb [{0}]",
                in(reg) ptr,
                options(nostack, preserves_flags)
            );
        }
    }

    /// # Safety
    ///
    /// `ptr` must be mapped and `clflushopt` support verified (see
    /// `flush_kind`).
    unsafe fn clflushopt(ptr: *const u8) {
        // SAFETY: caller guarantees `ptr` is mapped; `clflushopt` support
        // was verified at runtime by `flush_kind`.
        unsafe {
            std::arch::asm!(
                "clflushopt [{0}]",
                in(reg) ptr,
                options(nostack, preserves_flags)
            );
        }
    }

    /// Drains all preceding `pwb`s issued by this thread (`sfence`).
    #[inline]
    pub fn psync() {
        // SAFETY: `sfence` has no operands and is always available on x86-64.
        unsafe { core::arch::x86_64::_mm_sfence() }
    }

    /// Asks for the line containing `ptr` to be pulled into L1
    /// (`prefetcht0`). Miri does not model prefetches: a no-op there.
    #[inline]
    pub fn prefetch(ptr: *const u8) {
        #[cfg(not(miri))]
        // SAFETY: a prefetch is a hint that never faults, whatever the
        // address, and SSE is part of the x86-64 baseline.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(ptr.cast());
        };
        #[cfg(miri)]
        let _ = ptr;
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    /// Portable fallback: ordering fence only (no real write-back control).
    ///
    /// # Safety
    ///
    /// `_ptr` must point into a live allocation (kept for parity with the
    /// x86-64 signature).
    #[inline]
    pub unsafe fn pwb(_ptr: *const u8) {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }

    /// Portable fallback fence.
    #[inline]
    pub fn psync() {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }

    /// Portable fallback: no prefetch hint.
    #[inline]
    pub fn prefetch(_ptr: *const u8) {}
}

pub(crate) use imp::prefetch;
pub use imp::psync;

/// Issues a cache-line write-back for the line containing `ptr`.
///
/// # Safety
///
/// `ptr` must point into a live, mapped allocation.
#[inline]
pub unsafe fn pwb(ptr: *const u8) {
    // SAFETY: forwarded contract.
    unsafe { imp::pwb(ptr) }
}

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// Used by the parallel recovery scan to report its critical path (the
/// longest per-worker busy time): on a core-limited machine the workers
/// timeshare and wall-clock collapses to the sum, but the span still
/// reflects what an unconstrained machine would observe.
#[cfg(unix)]
pub fn thread_cpu_ns() -> u64 {
    use crate::sys;
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is constant.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback for platforms without thread CPU clocks: no measurement.
#[cfg(not(unix))]
pub fn thread_cpu_ns() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn pwb_psync_do_not_fault() {
        let data = vec![0u8; 256];
        // SAFETY: `data` is a live allocation.
        unsafe { super::pwb(data.as_ptr()) };
        super::psync();
        // SAFETY: flushing an interior line of a live allocation.
        unsafe { super::pwb(data.as_ptr().wrapping_add(128)) };
        super::psync();
    }
}
