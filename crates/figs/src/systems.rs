//! Construction and measurement of every compared system by name.
//!
//! The figure binaries sweep `&str` system names through
//! [`measure_map_system`] / [`measure_queue_system`]; this module knows how
//! to build each system (region sizing, pre-fill, periodic checkpointer)
//! and runs the shared driver on it. ResPCT variants used by the Fig. 10
//! overhead decomposition (`respct-incll`, `respct-noflush`) are included.

use std::sync::Arc;
use std::time::Duration;

use respct::{CheckpointMode, CkptSnapshot, Pool, PoolConfig};
use respct_baselines::dali::DaliHashMap;
use respct_baselines::friedman::FriedmanQueue;
use respct_baselines::montage::{MontageHashMap, MontageQueue, MontageRuntime};
use respct_baselines::pmthreads::PmThreadsPolicy;
use respct_baselines::quadra::QuadraPolicy;
use respct_baselines::soft::SoftHashMap;
use respct_baselines::transient_nvmm::{NvmmHashMap, NvmmQueue};
use respct_baselines::undo::UndoPolicy;
use respct_baselines::{PolicyHashMap, PolicyQueue};
use respct_ds::{PHashMap, PQueue, TransientHashMap, TransientQueue};
use respct_pmem::{Region, RegionConfig};

use crate::driver::{prefill_map, prefill_queue, run_map_mix, run_queue_mix, Throughput};

/// Systems compared on the hash map (paper Fig. 8).
pub const MAP_SYSTEMS: &[&str] = &[
    "transient-dram",
    "transient-nvmm",
    "respct",
    "pmthreads",
    "montage",
    "dali",
    "clobber",
    "undo",
    "trinity",
    "soft",
];

/// Systems compared on the queue (paper Fig. 9).
pub const QUEUE_SYSTEMS: &[&str] = &[
    "transient-dram",
    "transient-nvmm",
    "respct",
    "pmthreads",
    "montage",
    "clobber",
    "undo",
    "quadra",
    "friedman",
];

/// Parameters of one measurement.
#[derive(Debug, Clone, Copy)]
pub struct MapBenchSpec {
    pub threads: usize,
    pub secs: f64,
    pub keyspace: u64,
    pub nbuckets: u64,
    pub update_pct: u64,
    pub period: Duration,
    pub region_bytes: usize,
    pub seed: u64,
}

/// Builds + pre-fills + measures the named map system.
///
/// # Panics
///
/// Panics on an unknown system name.
pub fn measure_map_system(name: &str, s: MapBenchSpec) -> Throughput {
    match name {
        "transient-dram" => {
            let m = TransientHashMap::new(s.nbuckets as usize);
            prefill_map(&m, s.keyspace);
            run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        "transient-nvmm" => {
            let m = NvmmHashMap::new(
                Region::new(RegionConfig::optane(s.region_bytes)),
                s.nbuckets,
            );
            prefill_map(&m, s.keyspace);
            run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        "respct" | "respct-incll" | "respct-noflush" => measure_respct_map(name, s, 0).0,
        "pmthreads" => {
            let p = Arc::new(PmThreadsPolicy::new(
                Region::new(RegionConfig::fast(s.region_bytes)),
                Region::new(RegionConfig::optane(s.region_bytes)),
            ));
            let m = PolicyHashMap::new(Arc::clone(&p), s.nbuckets);
            prefill_map(&m, s.keyspace);
            let _ckpt = p.start_checkpointer(s.period);
            run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        "montage" => {
            let rt = MontageRuntime::new(Region::new(RegionConfig::optane(s.region_bytes)));
            let m = MontageHashMap::new(Arc::clone(&rt), s.nbuckets as usize);
            prefill_map(&m, s.keyspace);
            let _ckpt = rt.start_checkpointer(s.period);
            run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        "dali" => {
            let m = DaliHashMap::new(
                Region::new(RegionConfig::optane(s.region_bytes)),
                s.nbuckets,
            );
            prefill_map(&*m, s.keyspace);
            let _ckpt = m.start_checkpointer(s.period);
            run_map_mix(&*m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        "undo" | "clobber" => {
            let m = PolicyHashMap::new(Arc::new(undo_policy(name, s.region_bytes)), s.nbuckets);
            prefill_map(&m, s.keyspace);
            run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        "trinity" | "quadra" => {
            let p = Arc::new(QuadraPolicy::new(Region::new(RegionConfig::optane(
                s.region_bytes * 2, // 32-byte field stride needs more room
            ))));
            let m = PolicyHashMap::new(p, s.nbuckets);
            prefill_map(&m, s.keyspace);
            run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        "soft" => {
            let m = SoftHashMap::new(
                Region::new(RegionConfig::optane(s.region_bytes)),
                Region::new(RegionConfig::fast(s.region_bytes)),
                s.nbuckets,
            );
            prefill_map(&m, s.keyspace);
            run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
        }
        other => panic!("unknown map system {other}"),
    }
}

/// The undo-log policy of `"undo"` (every store logged) or `"clobber"`
/// (Clobber-NVM: write-after-read stores only) over a fresh Optane region.
fn undo_policy(name: &str, region_bytes: usize) -> UndoPolicy {
    let region = Region::new(RegionConfig::optane(region_bytes));
    if name == "clobber" {
        UndoPolicy::clobber(region)
    } else {
        UndoPolicy::new(region)
    }
}

/// Builds + pre-fills + measures a ResPCT map variant, returning the pool's
/// checkpoint statistics alongside the throughput (feeds the flusher-pool
/// ablation). `flushers` sizes the dedicated flusher pool; the flush shard
/// count follows from it.
///
/// # Panics
///
/// Panics on an unknown variant name or an invalid flusher count.
pub fn measure_respct_map(
    name: &str,
    s: MapBenchSpec,
    flushers: usize,
) -> (Throughput, CkptSnapshot) {
    let mode = match name {
        "respct-noflush" => CheckpointMode::NoFlush,
        "respct" | "respct-incll" => CheckpointMode::Full,
        other => panic!("unknown respct variant {other}"),
    };
    let region = Region::new(RegionConfig::optane(s.region_bytes));
    let cfg = PoolConfig::builder()
        .mode(mode)
        .flusher_threads(flushers)
        .build()
        .expect("pool config");
    let pool = Pool::create(region, cfg).expect("pool");
    let h = pool.register();
    let m = PHashMap::create(&h, s.nbuckets);
    drop(h);
    prefill_map(&m, s.keyspace);
    let t = {
        // "respct-incll" = logging + tracking but no checkpoints.
        let _ckpt = (name != "respct-incll").then(|| pool.start_checkpointer(s.period));
        run_map_mix(&m, s.threads, s.secs, s.keyspace, s.update_pct, s.seed)
    };
    let snap = pool.runtime_metrics().ckpt_snapshot();
    (t, snap)
}

/// Parameters of one queue measurement.
#[derive(Debug, Clone, Copy)]
pub struct QueueBenchSpec {
    pub threads: usize,
    pub secs: f64,
    pub prefill: u64,
    pub period: Duration,
    pub region_bytes: usize,
    pub seed: u64,
}

/// Builds + pre-fills + measures the named queue system.
///
/// # Panics
///
/// Panics on an unknown system name.
pub fn measure_queue_system(name: &str, s: QueueBenchSpec) -> Throughput {
    match name {
        "transient-dram" => {
            let q = TransientQueue::new();
            prefill_queue(&q, s.prefill);
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        "transient-nvmm" => {
            let q = NvmmQueue::new(Region::new(RegionConfig::optane(s.region_bytes)));
            prefill_queue(&q, s.prefill);
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        "respct" | "respct-incll" | "respct-noflush" => {
            let mode = if name == "respct-noflush" {
                CheckpointMode::NoFlush
            } else {
                CheckpointMode::Full
            };
            let region = Region::new(RegionConfig::optane(s.region_bytes));
            let cfg = PoolConfig::builder().mode(mode).build().expect("config");
            let pool = Pool::create(region, cfg).expect("pool");
            let h = pool.register();
            let q = PQueue::create(&h);
            drop(h);
            prefill_queue(&q, s.prefill);
            let _ckpt = (name != "respct-incll").then(|| pool.start_checkpointer(s.period));
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        "pmthreads" => {
            let p = Arc::new(PmThreadsPolicy::new(
                Region::new(RegionConfig::fast(s.region_bytes)),
                Region::new(RegionConfig::optane(s.region_bytes)),
            ));
            let q = PolicyQueue::new(Arc::clone(&p));
            prefill_queue(&q, s.prefill);
            let _ckpt = p.start_checkpointer(s.period);
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        "montage" => {
            let rt = MontageRuntime::new(Region::new(RegionConfig::optane(s.region_bytes)));
            let q = MontageQueue::new(Arc::clone(&rt));
            prefill_queue(&q, s.prefill);
            let _ckpt = rt.start_checkpointer(s.period);
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        "undo" | "clobber" => {
            let q = PolicyQueue::new(Arc::new(undo_policy(name, s.region_bytes)));
            prefill_queue(&q, s.prefill);
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        "quadra" => {
            let p = Arc::new(QuadraPolicy::new(Region::new(RegionConfig::optane(
                s.region_bytes,
            ))));
            let q = PolicyQueue::new(p);
            prefill_queue(&q, s.prefill);
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        "friedman" => {
            let q = FriedmanQueue::new(Region::new(RegionConfig::optane(s.region_bytes)));
            prefill_queue(&q, s.prefill);
            run_queue_mix(&q, s.threads, s.secs, s.seed)
        }
        other => panic!("unknown queue system {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_map_spec() -> MapBenchSpec {
        MapBenchSpec {
            threads: 2,
            secs: 0.03,
            keyspace: 2_000,
            nbuckets: 1_000,
            update_pct: 50,
            period: Duration::from_millis(8),
            region_bytes: 64 << 20,
            seed: 1,
        }
    }

    #[test]
    fn every_map_system_runs() {
        for name in MAP_SYSTEMS {
            let t = measure_map_system(name, tiny_map_spec());
            assert!(t.ops > 0, "{name} produced no ops");
        }
    }

    #[test]
    fn every_queue_system_runs() {
        let spec = QueueBenchSpec {
            threads: 2,
            secs: 0.03,
            prefill: 100,
            period: Duration::from_millis(8),
            region_bytes: 128 << 20,
            seed: 1,
        };
        for name in QUEUE_SYSTEMS {
            let t = measure_queue_system(name, spec);
            assert!(t.ops > 0, "{name} produced no ops");
        }
    }

    #[test]
    fn fig10_variants_run() {
        for name in ["respct-incll", "respct-noflush"] {
            let t = measure_map_system(name, tiny_map_spec());
            assert!(t.ops > 0, "{name}");
        }
    }
}
