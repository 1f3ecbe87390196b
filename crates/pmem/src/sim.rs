//! Cache-line persistence simulator implementing the PCSO model (paper §2.1).
//!
//! The simulator models the split between the volatile cache hierarchy and
//! persistent NVMM on a real machine:
//!
//! * The *volatile image* is the region's actual memory — it always holds the
//!   latest stored values (what loads observe).
//! * The *persisted image* (kept here) holds what NVMM would contain after a
//!   power failure.
//! * A line moves volatile → persisted when it is explicitly written back
//!   (`pwb` followed by `psync`) or when the simulated replacement policy
//!   evicts it at an arbitrary moment (a seeded coin flip on every store).
//!
//! Because a write-back copies the *entire current line*, two writes to the
//! same cache line can never reach the persisted image out of program order
//! — exactly the PCSO guarantee In-Cache-Line Logging relies on. `pwb` is
//! modeled as asynchronous: it snapshots the line into a per-thread pending
//! set, and only `psync` commits the snapshots, so a crash between `pwb` and
//! `psync` may or may not persist the line (decided by a seeded coin flip),
//! as on real hardware.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::PmemStats;
use crate::CACHE_LINE;

const NSHARDS: usize = 64;

/// Configuration of the persistence simulator.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// On every store, evict one random dirty line of the same shard with
    /// probability `1 / 2^evict_one_in_log2`. `u32::MAX` disables random
    /// eviction (only explicit `pwb`/`psync` persists data).
    pub evict_one_in_log2: u32,
    /// Seed for all randomness (eviction choice, unfenced-`pwb` coin flips),
    /// so property tests are reproducible.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        // Evict roughly one line per 32 stores: aggressive enough that
        // crash tests exercise partially-persisted epochs.
        SimConfig {
            evict_one_in_log2: 5,
            seed: 0x5e5_0c75,
        }
    }
}

impl SimConfig {
    /// No random eviction: persistence only via `pwb`+`psync`.
    pub fn no_eviction(seed: u64) -> Self {
        SimConfig {
            evict_one_in_log2: u32::MAX,
            seed,
        }
    }

    /// Evict one line in `2^log2` stores.
    pub fn with_eviction(log2: u32, seed: u64) -> Self {
        SimConfig {
            evict_one_in_log2: log2,
            seed,
        }
    }
}

/// How a simulated crash treats lines that were written back in-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Power-failure semantics: dirty lines are lost; `pwb`-but-unfenced
    /// snapshots persist or not per coin flip.
    PowerFailure,
    /// Clean shutdown: every dirty line is written back first. Useful to
    /// test that recovery still rolls the crashed epoch back even when all
    /// of it persisted.
    EvictAll,
}

pub(crate) struct Shard {
    /// Lines of this shard that have volatile content newer than the
    /// persisted image (eviction candidates).
    dirty: Vec<u64>,
    /// Persisted snapshots, overriding `baseline`.
    persisted: HashMap<u64, [u8; CACHE_LINE]>,
    rng: SmallRng,
}

/// Per-thread `pwb` snapshots awaiting a fence: (line index, line image).
type PendingWrites = HashMap<ThreadId, Vec<(u64, [u8; CACHE_LINE])>>;

/// The persistence simulator. One per sim-mode [`Region`](crate::Region).
pub struct CacheSim {
    cfg: SimConfig,
    /// Base pointer of the attached region's buffer (as usize so the type
    /// stays `Send + Sync`; only read under shard locks).
    base: AtomicUsize,
    size: usize,
    shards: Box<[Mutex<Shard>]>,
    /// Snapshots taken by `pwb` but not yet committed by `psync`, per thread.
    pending: Mutex<PendingWrites>,
    /// Content of lines with no entry in any shard's `persisted` map.
    baseline: Mutex<Vec<u8>>,
    stats: Arc<PmemStats>,
}

/// What survives a simulated crash: the persisted image of the region.
#[derive(Clone)]
pub struct CrashImage {
    pub(crate) bytes: Vec<u8>,
}

impl CrashImage {
    /// The persisted bytes (entire region).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps raw bytes as a synthetic crash image — the entry point for
    /// trace-replay tools that reconstruct PCSO-reachable NVMM states and
    /// hand them to recovery via [`Region::restore`](crate::Region::restore).
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a positive whole number of cache lines
    /// (every region's size is).
    pub fn from_bytes(bytes: Vec<u8>) -> CrashImage {
        assert!(
            !bytes.is_empty() && bytes.len().is_multiple_of(CACHE_LINE),
            "crash image must be a positive line multiple, got {} bytes",
            bytes.len()
        );
        CrashImage { bytes }
    }
}

impl CacheSim {
    pub(crate) fn new(cfg: SimConfig, size: usize, stats: Arc<PmemStats>) -> Self {
        let shards = (0..NSHARDS)
            .map(|i| {
                Mutex::new(Shard {
                    dirty: Vec::new(),
                    persisted: HashMap::new(),
                    rng: SmallRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9)),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        CacheSim {
            cfg,
            base: AtomicUsize::new(0),
            size,
            shards,
            pending: Mutex::new(HashMap::new()),
            baseline: Mutex::new(vec![0u8; size]),
            stats,
        }
    }

    pub(crate) fn attach(&self, base: *const u8) {
        self.base.store(base as usize, Ordering::Release);
    }

    #[inline]
    fn shard_of(&self, line: u64) -> &Mutex<Shard> {
        &self.shards[(line as usize) % NSHARDS]
    }

    /// Locks the shard guarding `line`. The region performs the volatile
    /// write while holding this guard so that eviction snapshots never race
    /// with stores to the same shard.
    #[inline]
    pub(crate) fn lock_line(&self, line: u64) -> MutexGuard<'_, Shard> {
        self.shard_of(line).lock()
    }

    /// Reads the current volatile content of `line` from the attached region.
    ///
    /// Must be called with the shard lock of `line` held (enforced by taking
    /// the guard); lines in other shards may be written concurrently, but we
    /// only read `line` itself.
    fn read_line(&self, line: u64) -> [u8; CACHE_LINE] {
        let base = self.base.load(Ordering::Acquire);
        assert!(base != 0, "CacheSim not attached to a region");
        let off = line as usize * CACHE_LINE;
        debug_assert!(off + CACHE_LINE <= self.size);
        let mut out = [0u8; CACHE_LINE];
        // SAFETY: `base + off .. base + off + 64` lies inside the attached
        // region's live buffer (checked by the debug assert against the
        // region size recorded at construction). The shard lock serializes
        // this read against all sim-mode stores to the same line.
        unsafe {
            std::ptr::copy_nonoverlapping((base + off) as *const u8, out.as_mut_ptr(), CACHE_LINE);
        }
        out
    }

    /// Marks `line` dirty after a store and rolls the eviction dice.
    /// Returns the evicted line, if the dice chose a victim (reported to the
    /// region's trace sink by the caller).
    ///
    /// Consumes the shard guard that was held across the volatile write.
    pub(crate) fn note_store(&self, mut guard: MutexGuard<'_, Shard>, line: u64) -> Option<u64> {
        self.stats.count_store();
        if !guard.dirty.contains(&line) {
            guard.dirty.push(line);
        }
        let log2 = self.cfg.evict_one_in_log2;
        if log2 != u32::MAX {
            let roll: u64 = guard.rng.gen();
            let ndirty = guard.dirty.len();
            if roll & ((1u64 << log2) - 1) == 0 && ndirty > 0 {
                let idx = guard.rng.gen_range(0..ndirty);
                let victim = guard.dirty.swap_remove(idx);
                let bytes = self.read_line(victim);
                guard.persisted.insert(victim, bytes);
                self.stats.count_eviction();
                return Some(victim);
            }
        }
        None
    }

    /// Simulates `pwb`: snapshot the line now; it persists at `psync`.
    pub(crate) fn pwb(&self, line: u64) {
        self.stats.count_pwbs(1);
        let bytes = {
            let _guard = self.lock_line(line);
            self.read_line(line)
        };
        let tid = std::thread::current().id();
        self.pending
            .lock()
            .entry(tid)
            .or_default()
            .push((line, bytes));
    }

    /// Simulates `psync`: commit this thread's pending `pwb` snapshots.
    pub(crate) fn psync(&self) {
        self.stats.count_psync();
        let tid = std::thread::current().id();
        let drained = self.pending.lock().remove(&tid);
        if let Some(entries) = drained {
            for (line, bytes) in entries {
                let mut guard = self.lock_line(line);
                guard.persisted.insert(line, bytes);
                // The snapshot may be stale relative to newer volatile
                // stores; the line stays in the dirty set in that case
                // (it was re-added by the newer store).
            }
        }
    }

    /// Builds the crash image: what NVMM holds if power fails right now.
    pub(crate) fn crash(&self, mode: CrashMode) -> CrashImage {
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0xdead_beef);
        // Resolve in-flight (unfenced) pwbs first: each one independently
        // completed or not.
        let pending: Vec<(u64, [u8; CACHE_LINE])> = {
            let mut p = self.pending.lock();
            p.drain().flat_map(|(_, v)| v).collect()
        };
        for (line, bytes) in pending {
            let survive = match mode {
                CrashMode::PowerFailure => rng.gen::<bool>(),
                CrashMode::EvictAll => true,
            };
            if survive {
                self.lock_line(line).persisted.insert(line, bytes);
            }
        }
        if mode == CrashMode::EvictAll {
            for shard in &self.shards {
                let mut guard = shard.lock();
                let dirty = std::mem::take(&mut guard.dirty);
                for line in dirty {
                    let bytes = self.read_line(line);
                    guard.persisted.insert(line, bytes);
                }
            }
        }
        let mut bytes = self.baseline.lock().clone();
        for shard in &self.shards {
            let guard = shard.lock();
            for (&line, content) in &guard.persisted {
                let off = line as usize * CACHE_LINE;
                bytes[off..off + CACHE_LINE].copy_from_slice(content);
            }
        }
        CrashImage { bytes }
    }

    /// Resets the simulator after the region restored from `image`: the
    /// persisted and volatile images are now identical.
    pub(crate) fn reset_to(&self, image: &CrashImage) {
        for shard in &self.shards {
            let mut guard = shard.lock();
            guard.dirty.clear();
            guard.persisted.clear();
        }
        self.pending.lock().clear();
        self.baseline.lock().copy_from_slice(&image.bytes);
    }

    /// Forces every dirty line to the persisted image (clean shutdown).
    pub(crate) fn persist_all(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock();
            let dirty = std::mem::take(&mut guard.dirty);
            for line in dirty {
                let bytes = self.read_line(line);
                guard.persisted.insert(line, bytes);
            }
        }
    }
}

// Manual impl: `Shard` contains no pointers; `base` is a plain integer and
// the referenced buffer is owned by the `Region` that also owns this sim.
// SAFETY: all interior mutability is behind `Mutex`es.
unsafe impl Send for CacheSim {}
// SAFETY: as above.
unsafe impl Sync for CacheSim {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_with_buf(size: usize, cfg: SimConfig) -> (CacheSim, Vec<u8>) {
        let stats = Arc::new(PmemStats::default());
        let sim = CacheSim::new(cfg, size, stats);
        let buf = vec![0u8; size];
        sim.attach(buf.as_ptr());
        (sim, buf)
    }

    fn store(sim: &CacheSim, buf: &mut [u8], off: usize, val: u8) {
        let line = (off / CACHE_LINE) as u64;
        let guard = sim.lock_line(line);
        buf[off] = val;
        sim.note_store(guard, line);
    }

    #[test]
    fn unflushed_store_lost_on_crash() {
        let (sim, mut buf) = sim_with_buf(256, SimConfig::no_eviction(1));
        store(&sim, &mut buf, 10, 7);
        let img = sim.crash(CrashMode::PowerFailure);
        assert_eq!(img.bytes()[10], 0, "dirty line must not persist");
    }

    #[test]
    fn pwb_psync_persists() {
        let (sim, mut buf) = sim_with_buf(256, SimConfig::no_eviction(1));
        store(&sim, &mut buf, 10, 7);
        sim.pwb(0);
        sim.psync();
        let img = sim.crash(CrashMode::PowerFailure);
        assert_eq!(img.bytes()[10], 7);
    }

    #[test]
    fn pwb_snapshot_taken_at_pwb_time() {
        let (sim, mut buf) = sim_with_buf(256, SimConfig::no_eviction(1));
        store(&sim, &mut buf, 10, 7);
        sim.pwb(0);
        store(&sim, &mut buf, 10, 9); // after the pwb snapshot
        sim.psync();
        let img = sim.crash(CrashMode::PowerFailure);
        // The snapshot at pwb time had 7; the 9 was never written back.
        assert_eq!(img.bytes()[10], 7);
    }

    #[test]
    fn evict_all_persists_everything() {
        let (sim, mut buf) = sim_with_buf(512, SimConfig::no_eviction(1));
        for i in 0..8 {
            store(&sim, &mut buf, i * CACHE_LINE, (i + 1) as u8);
        }
        let img = sim.crash(CrashMode::EvictAll);
        for i in 0..8 {
            assert_eq!(img.bytes()[i * CACHE_LINE], (i + 1) as u8);
        }
    }

    #[test]
    fn same_line_prefix_order() {
        // Two stores to one line: if the second persisted, the first did too
        // (they are snapshot together). With heavy eviction, verify over many
        // iterations that we never see the second without the first.
        for seed in 0..50u64 {
            let (sim, mut buf) = sim_with_buf(128, SimConfig::with_eviction(0, seed));
            store(&sim, &mut buf, 0, 1); // "log" write
            store(&sim, &mut buf, 8, 2); // "data" write, same line
            let img = sim.crash(CrashMode::PowerFailure);
            if img.bytes()[8] == 2 {
                assert_eq!(img.bytes()[0], 1, "data persisted before log (seed {seed})");
            }
        }
    }

    #[test]
    fn reset_after_restore() {
        let (sim, mut buf) = sim_with_buf(256, SimConfig::no_eviction(1));
        store(&sim, &mut buf, 0, 5);
        sim.pwb(0);
        sim.psync();
        let img = sim.crash(CrashMode::PowerFailure);
        sim.reset_to(&img);
        // After reset, a crash with no further stores returns the image.
        let img2 = sim.crash(CrashMode::PowerFailure);
        assert_eq!(img.bytes(), img2.bytes());
    }

    #[test]
    fn persist_all_flushes_dirty() {
        let (sim, mut buf) = sim_with_buf(256, SimConfig::no_eviction(1));
        store(&sim, &mut buf, 100, 42);
        sim.persist_all();
        let img = sim.crash(CrashMode::PowerFailure);
        assert_eq!(img.bytes()[100], 42);
    }

    #[test]
    fn stats_counted() {
        let stats = Arc::new(PmemStats::default());
        let sim = CacheSim::new(SimConfig::no_eviction(1), 256, Arc::clone(&stats));
        let buf = vec![0u8; 256];
        sim.attach(buf.as_ptr());
        let guard = sim.lock_line(0);
        sim.note_store(guard, 0);
        sim.pwb(0);
        sim.psync();
        let snap = stats.snapshot();
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.pwb, 1);
        assert_eq!(snap.psync, 1);
    }
}
