//! A region costs what it touches: the resident memory of a Fast or Sim
//! region is the pages its program has written, in 2 MiB extents where the
//! kernel grants them, not the capacity it reserved — the way a DAX-mapped
//! NVMM file behaves. And the one volatile structure that grows with a
//! map's capacity, its bucket locks, is no larger than the plain mutexes
//! of the transient twin.
//!
//! One `#[test]`, so this binary runs it alone in its process and nothing
//! else moves `VmRSS` between two readings.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use respct_repro::ds::PHashMap;
use respct_repro::pmem::{PAddr, Region, RegionConfig, SimConfig};
use respct_repro::respct::{Pool, PoolConfig, TracedMutex};

const PAGE: u64 = 4096;
const MIB: u64 = 1 << 20;

/// Resident set size of this process in bytes (`VmRSS`).
fn rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmRSS line");
    kib * 1024
}

#[test]
fn a_region_costs_the_pages_it_touches() {
    // A 1 GiB Optane-emulating region, a pool on it and a small map: what
    // the pool format and the map write, not the gigabyte.
    let before = rss();
    let region = Region::new(RegionConfig::optane(1 << 30));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    let h = pool.register();
    let map = PHashMap::create(&h, 1024);
    for k in 0..1000 {
        map.insert(&h, k, k);
    }
    let grown = rss().saturating_sub(before);
    assert!(
        grown < 64 * MIB,
        "1 GiB region + pool + map: +{} MiB",
        grown / MIB
    );

    // Touching N fresh pages (the region's untouched tail) costs about N.
    let pages = 8192;
    let tail = region.size() as u64 - pages * PAGE;
    let before = rss();
    for p in 0..pages {
        region.store(PAddr(tail + p * PAGE), p);
    }
    let grown = rss().saturating_sub(before);
    let want = pages * PAGE;
    assert!(
        grown >= want * 9 / 10 && grown <= want * 5 / 4,
        "touching {pages} pages: +{} KiB, want about {} KiB",
        grown / 1024,
        want / 1024
    );
    assert_eq!(region.load::<u64>(PAddr(tail + 7 * PAGE)), 7);
    drop((map, h, pool, region));

    // A sparse touch costs at most a huge page per extent: one word in
    // each of 32 separate 2 MiB extents of a fresh 1 GiB region.
    let before = rss();
    let region = Region::new(RegionConfig::optane(1 << 30));
    let stride = region.size() as u64 / 32;
    for e in 0..32 {
        region.store(PAddr(e * stride), e);
    }
    let grown = rss().saturating_sub(before);
    assert!(
        grown <= 68 * MIB,
        "one word in 32 extents of 1 GiB: +{} MiB",
        grown / MIB
    );
    drop(region);

    // The simulator's arena and its persisted baseline are just as lazy.
    let before = rss();
    let sim = Region::new(RegionConfig::sim(256 << 20, SimConfig::no_eviction(0)));
    sim.store(PAddr(64), 1u64);
    sim.flush_range(PAddr(64), 8);
    let grown = rss().saturating_sub(before);
    assert!(grown < 64 * MIB, "256 MiB sim region: +{} MiB", grown / MIB);
    drop(sim);

    // A bucket lock is the mutex it wraps, nothing more.
    assert_eq!(
        std::mem::size_of::<TracedMutex<()>>(),
        std::mem::size_of::<parking_lot::Mutex<()>>()
    );
}
