//! The live side of the PCSO model (paper §2.1): what a sim-mode
//! [`Region`](crate::Region) adds to its arena.
//!
//! * The *volatile image* is the region's actual memory — it always holds the
//!   latest stored values (what loads observe).
//! * The *persisted image*, dirty set and pending write-backs are the one
//!   PCSO state machine, [`replay::Pcso`](crate::replay) — the same one the
//!   trace [`Replayer`](crate::Replayer) drives offline.
//! * A line moves volatile → persisted when it is explicitly written back
//!   (`pwb` followed by `psync`) or when the simulated replacement policy
//!   evicts it at an arbitrary moment (a seeded coin flip on every store).
//!
//! `pwb` is asynchronous: it snapshots the line into a per-thread pending
//! set, and only `psync` commits the snapshots, so a crash between `pwb`
//! and `psync` may or may not persist the line (a seeded coin flip), as on
//! real hardware. The region holds one lock over the machine and the
//! eviction RNG, across each access to its arena and the trace event that
//! records it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::replay::{Line, Pcso};
use crate::CACHE_LINE;

/// Configuration of the persistence simulator.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// On every store, evict one random dirty line of the region with
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

/// The persistence simulator of a sim-mode region: the PCSO machine plus
/// the seeded eviction RNG. The region keeps it behind one lock and hands
/// every transition the current content of a line from its arena.
pub(crate) struct LiveSim {
    cfg: SimConfig,
    pub(crate) pcso: Pcso,
    rng: SmallRng,
}

impl LiveSim {
    pub(crate) fn new(cfg: SimConfig, size: usize) -> LiveSim {
        LiveSim {
            cfg,
            pcso: Pcso::new(size),
            rng: SmallRng::seed_from_u64(cfg.seed),
        }
    }

    /// A store touched `line`: mark it dirty and roll the eviction dice.
    /// Returns the evicted line, if the dice chose a victim.
    pub(crate) fn store(&mut self, line: u64, content: &dyn Fn(u64) -> Line) -> Option<u64> {
        self.pcso.store(line);
        let mask = 1u64.checked_shl(self.cfg.evict_one_in_log2)? - 1;
        if self.rng.gen::<u64>() & mask != 0 {
            return None;
        }
        let victim = self.pcso.pick_dirty(&mut self.rng)?;
        self.pcso.evict(victim, &content(victim));
        Some(victim)
    }

    /// What NVMM holds if power fails now: under
    /// [`PowerFailure`](CrashMode::PowerFailure) each in-flight `pwb`
    /// completes on a seeded coin flip and no dirty line is evicted; under
    /// [`EvictAll`](CrashMode::EvictAll) every optional persist happens.
    pub(crate) fn crash(&self, mode: CrashMode, content: &dyn Fn(u64) -> Line) -> CrashImage {
        let opts = self.pcso.optional_persists(content);
        let mut coin = SmallRng::seed_from_u64(self.cfg.seed ^ 0xdead_beef);
        let bytes = self.pcso.crash_image(&opts, |i| match mode {
            CrashMode::PowerFailure => i < opts.pwbs && coin.gen(),
            CrashMode::EvictAll => true,
        });
        CrashImage { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PAddr, Region, RegionConfig};

    fn sim(size: usize, cfg: SimConfig) -> std::sync::Arc<Region> {
        Region::new(RegionConfig::sim(size, cfg))
    }

    #[test]
    fn evict_all_persists_everything() {
        let r = sim(512, SimConfig::no_eviction(1));
        for i in 0..8u64 {
            r.store(PAddr(i * 64), i + 1);
        }
        // In flight at the crash: a snapshot older than its line, and one
        // whose line was stored back to the persisted content since.
        r.pwb_line(0);
        r.store(PAddr(0), 100u64);
        r.pwb_line(1);
        r.store(PAddr(64), 0u64);
        let img = r.crash(CrashMode::EvictAll);
        let word = |i: usize| u64::from_ne_bytes(img.bytes()[i * 64..][..8].try_into().unwrap());
        assert_eq!((word(0), word(1)), (100, 0), "the newest content wins");
        for i in 2..8 {
            assert_eq!(word(i), i as u64 + 1);
        }
    }

    #[test]
    fn same_line_stores_persist_in_program_order() {
        // Two stores to one line: if the second persisted, the first did
        // too (a write-back copies the whole line). Heavy eviction, many
        // seeds: never the second without the first.
        for seed in 0..50u64 {
            let r = sim(128, SimConfig::with_eviction(0, seed));
            r.store(PAddr(0), 1u8); // "log" write
            r.store(PAddr(8), 2u8); // "data" write, same line
            let img = r.crash(CrashMode::PowerFailure);
            if img.bytes()[8] == 2 {
                assert_eq!(img.bytes()[0], 1, "data persisted before log (seed {seed})");
            }
        }
    }

    #[test]
    fn persist_all_writes_back_dirty_lines() {
        let r = sim(256, SimConfig::no_eviction(1));
        r.store(PAddr(100), 42u8);
        r.persist_all();
        assert_eq!(r.crash(CrashMode::PowerFailure).bytes()[100], 42);
    }

    #[test]
    fn stats_count_every_sim_access() {
        let r = sim(256, SimConfig::no_eviction(1));
        r.store(PAddr(0), 1u64);
        r.store_bytes(PAddr(60), &[7u8; 8]); // two lines, two stores
        r.pwb_line(0);
        r.psync();
        let snap = r.stats().snapshot();
        assert_eq!((snap.stores, snap.pwb, snap.psync), (3, 1, 1));
        assert_eq!(snap.evictions, 0);
        let r = sim(256, SimConfig::with_eviction(0, 1));
        r.store(PAddr(0), 1u64);
        assert_eq!(r.stats().snapshot().evictions, 1, "one roll, always a hit");
    }

    #[test]
    fn crash_image_is_a_function_of_seed_and_history() {
        let run = |seed| {
            let r = sim(4096, SimConfig::with_eviction(2, seed));
            for i in 0..200u64 {
                r.store(PAddr(i * 24 % 4096), i);
                if i % 7 == 0 {
                    r.pwb_line(i % 64); // some never fenced
                }
                if i % 50 == 0 {
                    r.psync();
                }
            }
            r.crash(CrashMode::PowerFailure).bytes().to_vec()
        };
        for seed in 0..8 {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
    }
}
