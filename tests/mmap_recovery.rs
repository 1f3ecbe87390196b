//! Recovering a pool file writes exactly what recovering the same bytes on
//! the simulator writes. On the mmap backend recovery first faults the heap
//! in read-only, then drops those mappings before it stores its rollbacks;
//! that changes how recovery reaches the bytes, never which bytes it
//! writes.
#![cfg(unix)]

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use respct_repro::ds::{hash_u64, PHashMap};
use respct_repro::pmem::Region;
use respct_repro::respct::layout::heap_start;
use respct_repro::respct::{Pool, PoolConfig, RecoveryReport, ThreadHandle};

const POOL_SIZE: usize = 16 << 20;
const KEYS: u64 = 40_000;
const WRITERS: u64 = 2;

fn config(recovery_threads: usize) -> PoolConfig {
    PoolConfig::builder()
        .size(POOL_SIZE)
        .recovery_threads(recovery_threads)
        .build()
        .unwrap()
}

/// Whether the crashed epoch overwrites `k`: one key in eight.
fn overwritten(k: u64) -> bool {
    hash_u64(k).is_multiple_of(8)
}

/// Runs `body` on `WRITERS` registered threads, each over its share of the
/// keys.
fn each_writer(pool: &Arc<Pool>, body: impl Fn(&ThreadHandle, Range<u64>) + Sync) {
    let per = KEYS.div_ceil(WRITERS);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let body = &body;
            s.spawn(move || body(&pool.register(), t * per..((t + 1) * per).min(KEYS)));
        }
    });
}

/// The `crash_recover` shape at a small size: a `PHashMap` of k→k,
/// checkpointed, then an epoch that overwrites one key in eight and is
/// dropped without a checkpoint. Returns the pool file's bytes.
fn crashed_file(path: &Path) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (pool, recovered) = Pool::open(path, config(1)).unwrap();
    assert!(recovered.is_none(), "a fresh file must be created");
    let h = pool.register();
    let map = PHashMap::create(&h, KEYS / 2);
    h.set_root(map.desc());
    each_writer(&pool, |w, keys| {
        for k in keys {
            map.insert(w, k, k);
        }
    });
    h.checkpoint_here();
    each_writer(&pool, |w, keys| {
        for k in keys.filter(|&k| overwritten(k)) {
            map.insert(w, k, !k);
        }
    });
    drop(h);
    drop(pool);
    std::fs::read(path).unwrap()
}

fn heap(region: &Region) -> Vec<u8> {
    let mut bytes = vec![0u8; region.size() - heap_start().0 as usize];
    region.load_bytes(heap_start(), &mut bytes);
    bytes
}

/// The recovered map's content, sorted by key.
fn content(pool: &Arc<Pool>) -> Vec<(u64, u64)> {
    let mut pairs = PHashMap::open(pool, pool.root()).collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn mmap_recovery_writes_what_sim_recovery_writes() {
    let path =
        std::env::temp_dir().join(format!("respct_mmap_recovery_{}.pool", std::process::id()));
    let image = crashed_file(&path);
    let keys: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k)).collect();
    let dirty = (0..KEYS).filter(|&k| overwritten(k)).count() as u64;
    for threads in [1, 2, 4] {
        let case = format!("{threads} recovery threads");
        std::fs::write(&path, &image).unwrap();
        let (file, report) = Pool::open(&path, config(threads)).unwrap();
        let file_report = report.expect("an existing pool file recovers");
        let (sim, sim_report) = Pool::recover(Region::from_image(&image), config(threads)).unwrap();
        let counts = |r: &RecoveryReport| (r.failed_epoch, r.cells_scanned, r.cells_rolled_back);
        assert_eq!(counts(&file_report), counts(&sim_report), "{case}");
        assert!(file_report.cells_rolled_back >= dirty, "{case}");
        assert!(
            heap(file.region()) == heap(sim.region()),
            "{case}: the recovered heaps differ"
        );
        assert!(file.verify().is_clean(), "{case}: pool file");
        assert!(sim.verify().is_clean(), "{case}: sim image");
        assert_eq!(content(&file), keys, "{case}: pool file");
        assert_eq!(content(&sim), keys, "{case}: sim image");
    }
    std::fs::remove_file(&path).unwrap();
}
