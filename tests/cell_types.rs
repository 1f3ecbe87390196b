//! InCLL cells of every value type the one cell shape holds — `u64`,
//! `i64`, `f64` — exercised through the full crash → recovery cycle: a
//! registry entry is the bare cell address, and recovery copies the backup
//! word back whatever type it holds.

use std::sync::Arc;

use respct_repro::pmem::{sim::CrashMode, Region, RegionConfig, SimConfig};
use respct_repro::respct::{Pool, PoolConfig};

fn crash_recover(region: &Arc<Region>) -> Arc<Pool> {
    let img = region.crash(CrashMode::PowerFailure);
    region.restore(&img);
    Pool::recover(Arc::clone(region), PoolConfig::default())
        .expect("recover")
        .0
}

#[test]
fn every_value_width_rolls_back() {
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::with_eviction(2, 42)));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    let h = pool.register();

    let c_u64 = h.alloc_cell(0x4444_4444_4444_4444u64);
    let c_i64 = h.alloc_cell(-5i64);
    let c_f64 = h.alloc_cell(2.5f64);
    h.checkpoint_here();

    // Crashed epoch: overwrite everything.
    h.update(c_u64, u64::MAX);
    h.update(c_i64, 99);
    h.update(c_f64, -1.0);
    drop(h);
    drop(pool);

    let pool = crash_recover(&region);
    assert_eq!(pool.cell_get(c_u64), 0x4444_4444_4444_4444);
    assert_eq!(pool.cell_get(c_i64), -5);
    assert_eq!(pool.cell_get(c_f64), 2.5);
    assert!(pool.verify().is_clean());
}

#[test]
fn committed_values_of_every_width_survive() {
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::with_eviction(3, 43)));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    let h = pool.register();
    let c_u64 = h.alloc_cell(1u64);
    let c_i64 = h.alloc_cell(2i64);
    let c_f64 = h.alloc_cell(0.0f64);
    h.update(c_u64, 10);
    h.update(c_i64, -20);
    h.update(c_f64, 1.25);
    h.checkpoint_here();
    drop(h);
    drop(pool);
    let pool = crash_recover(&region);
    assert_eq!(pool.cell_get(c_u64), 10);
    assert_eq!(pool.cell_get(c_i64), -20);
    assert_eq!(pool.cell_get(c_f64), 1.25);
}

#[test]
fn two_cells_per_line_roll_back_independently() {
    // `alloc_cell` packs two 24-byte cells into each cache line; rolling
    // back one must not disturb the other, in either half of the line.
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::with_eviction(1, 44)));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    let h = pool.register();
    let cells: Vec<_> = (0..64u64).map(|i| h.alloc_cell(i)).collect();
    let shared = cells
        .windows(2)
        .filter(|w| w[0].addr().line() == w[1].addr().line())
        .count();
    assert!(shared >= 16, "only {shared} line-sharing neighbours");
    h.checkpoint_here();
    // Crashed epoch: the first cell of every even line, the second of every
    // odd one — each half of a line is crashed with its neighbour clean.
    for (i, c) in cells.iter().enumerate() {
        let first_half = c.addr().0 % 64 < 32;
        if first_half == (c.addr().line() % 2 == 0) {
            h.update(*c, 200 + i as u64);
        }
    }
    drop(h);
    drop(pool);
    let pool = crash_recover(&region);
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(pool.cell_get(*c), i as u64, "cell {i}");
    }
}

#[test]
fn thread_slot_exhaustion_panics_cleanly() {
    let pool = Pool::create(
        Region::new(RegionConfig::fast(32 << 20)),
        PoolConfig::default(),
    )
    .expect("pool");
    let mut handles = Vec::new();
    // Slot 0 is reserved for the system; 127 remain.
    for _ in 0..127 {
        handles.push(pool.register());
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.register()));
    assert!(result.is_err(), "129th registration must fail");
    drop(handles);
    // After dropping, registration works again.
    let _h = pool.register();
}

#[test]
fn upsert_on_fresh_vs_recycled_memory() {
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(45)));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    let h = pool.register();
    let a = h.alloc(32, 32);
    // Fresh: initializes (registers).
    let cell = h.upsert_cell::<u64>(a, 5);
    h.checkpoint_here();
    // Recycled-as-same-layout: updates (logs the old value).
    h.upsert_cell::<u64>(a, 6);
    assert_eq!(pool.cell_get(cell), 6);
    drop(h);
    drop(pool);
    let pool = crash_recover(&region);
    assert_eq!(
        pool.cell_get(cell),
        5,
        "upsert on live cell must log for rollback"
    );
}
