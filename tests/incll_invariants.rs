//! Property tests for the InCLL mechanism itself (paper Lemmas 4.8/4.9):
//! whatever subset of an epoch's stores reaches NVMM, if a cell's *record*
//! update persisted then its *epoch tag* persisted, and if the tag
//! persisted then *backup* holds the pre-epoch value — the invariants the
//! recovery proof rests on. Exercised directly against the PCSO simulator
//! with random eviction schedules.

use std::sync::Arc;

use proptest::prelude::*;
use respct_repro::pmem::{sim::CrashMode, Region, RegionConfig, SimConfig};
use respct_repro::respct::{ICell, PAddr, Pool, PoolConfig};

fn read_cell_fields(bytes: &[u8], cell: ICell<u64>) -> (u64, u64, u64) {
    let rd = |at: PAddr| u64::from_ne_bytes(bytes[at.0 as usize..][..8].try_into().unwrap());
    (
        rd(cell.addr()),
        rd(cell.backup_addr()),
        rd(cell.epoch_addr()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn persisted_record_implies_persisted_log(
        updates in proptest::collection::vec((0usize..8, 1_000u64..2_000), 1..80),
        seed in 0u64..10_000,
        evict_log2 in 0u32..5,
    ) {
        let region = Region::new(RegionConfig::sim(
            4 << 20,
            SimConfig::with_eviction(evict_log2, seed),
        ));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        // Eight cells, each initialized to a sentinel and checkpointed.
        let cells: Vec<ICell<u64>> = (0..8).map(|i| h.alloc_cell(i as u64)).collect();
        h.checkpoint_here();
        let failed_epoch = pool.epoch();

        // Random updates in the crashed epoch; remember the last value per
        // cell and the checkpointed value.
        let mut last = [0u64, 1, 2, 3, 4, 5, 6, 7];
        for (i, v) in &updates {
            h.update(cells[*i], *v);
            last[*i] = *v;
        }

        let image = region.crash(CrashMode::PowerFailure);
        let bytes = image.bytes();

        for (i, &cell) in cells.iter().enumerate() {
            let (record, backup, tag) = read_cell_fields(bytes, cell);
            let decoded = respct_decode(cell, tag);
            let was_updated = updates.iter().any(|(j, _)| *j == i);
            if record != i as u64 {
                // The record differs from the checkpointed value → some
                // update of the crashed epoch persisted → the tag must
                // decode to the failed epoch…
                prop_assert!(was_updated);
                prop_assert_eq!(decoded, failed_epoch,
                    "cell {}: record persisted without its epoch tag", i);
            }
            if decoded == failed_epoch {
                // …and the backup must hold the pre-epoch value.
                prop_assert_eq!(backup, i as u64,
                    "cell {}: tag persisted without the pre-epoch backup", i);
            }
            let _ = last;
        }
    }
}

fn respct_decode(cell: ICell<u64>, stored: u64) -> u64 {
    respct_repro::respct::tag_epoch(cell.addr(), stored)
}

/// After any crash, running recovery yields records equal to either the
/// checkpointed value (always, for the crashed epoch) — fuzz over eviction
/// schedules with multiple updates per cell.
#[test]
fn rollback_restores_checkpointed_values_under_all_schedules() {
    for seed in 0..60u64 {
        let region = Region::new(RegionConfig::sim(
            4 << 20,
            SimConfig::with_eviction(1, seed),
        ));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        let cells: Vec<ICell<u64>> = (0..16).map(|i| h.alloc_cell(100 + i as u64)).collect();
        h.checkpoint_here();
        for round in 0..5u64 {
            for (i, &c) in cells.iter().enumerate() {
                h.update(c, 1_000_000 + round * 100 + i as u64);
            }
        }
        drop(h);
        drop(pool);
        let image = region.crash(CrashMode::PowerFailure);
        region.restore(&image);
        let (pool, _r) =
            Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(pool.cell_get(c), 100 + i as u64, "seed {seed}, cell {i}");
        }
    }
}
