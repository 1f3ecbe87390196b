//! A multi-threaded "bank": concurrent transfers between persistent
//! accounts under ResPCT, with an invariant check across a simulated crash.
//!
//! Each account balance is an InCLL cell; transfers lock two accounts
//! (ordered to avoid deadlock), move money, and declare a restart point.
//! Because a checkpoint can only run when *all* threads are at RPs — never
//! inside a critical section — every checkpoint (and therefore every
//! recovered state) sees a consistent total balance.
//!
//! Run with: `cargo run --release --example bank`

use std::sync::Arc;

use parking_lot::Mutex;
use respct_repro::pmem::{sim::CrashMode, Region, RegionConfig, SimConfig};
use respct_repro::respct::{ICell, Pool, PoolConfig};

const ACCOUNTS: usize = 64;
const INITIAL: u64 = 1_000;
const THREADS: usize = 4;
const TRANSFERS: usize = 3_000;

fn main() {
    let region = Region::new(RegionConfig::sim(32 << 20, SimConfig::with_eviction(4, 7)));
    let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");

    // Create the accounts and persist their descriptor table at the root.
    let cells: Vec<ICell<u64>> = {
        let h = pool.register();
        let table = h.alloc((ACCOUNTS * 8) as u64, 64);
        let cells: Vec<ICell<u64>> = (0..ACCOUNTS)
            .map(|i| {
                let c = h.alloc_cell(INITIAL);
                h.store_tracked(table.offset(i as u64 * 8), c.addr().0);
                c
            })
            .collect();
        h.set_root(table);
        h.checkpoint_here();
        cells
    };
    let locks: Arc<Vec<Mutex<()>>> = Arc::new((0..ACCOUNTS).map(|_| Mutex::new(())).collect());
    let cells = Arc::new(cells);

    // Run concurrent transfers with periodic checkpoints.
    let ckpt = pool.start_checkpointer(std::time::Duration::from_millis(5));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, cells, locks) = (Arc::clone(&pool), Arc::clone(&cells), Arc::clone(&locks));
            s.spawn(move || {
                let h = pool.register();
                let mut rng = 0x1234_5678_9abc_def0u64 ^ (t as u64) << 32;
                for _ in 0..TRANSFERS {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let a = (rng % ACCOUNTS as u64) as usize;
                    let b = ((rng >> 16) % ACCOUNTS as u64) as usize;
                    if a == b {
                        continue;
                    }
                    let amount = rng % 50;
                    // Lock ordering prevents deadlock; no RP inside the CS.
                    let (lo, hi) = (a.min(b), a.max(b));
                    {
                        let _g1 = locks[lo].lock();
                        let _g2 = locks[hi].lock();
                        let from = h.get(cells[a]);
                        if from >= amount {
                            h.update(cells[a], from - amount);
                            h.update(cells[b], h.get(cells[b]) + amount);
                        }
                    }
                    h.rp(1); // a checkpoint may run between transfers
                }
            });
        }
    });

    let live_total: u64 = cells.iter().map(|&c| pool.cell_get(c)).sum();
    println!(
        "after {} transfers: live total = {live_total}",
        THREADS * TRANSFERS
    );
    assert_eq!(live_total, (ACCOUNTS as u64) * INITIAL);

    // Crash mid-flight (whatever epoch is open is lost), then recover. The
    // checkpointer goes first: it holds the pool, and a checkpoint still
    // writing the region after `restore` would corrupt the recovered image.
    drop(ckpt);
    drop(pool);
    let image = region.crash(CrashMode::PowerFailure);
    region.restore(&image);
    let (pool, report) =
        Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
    println!(
        "recovered from crash in epoch {} ({} cells rolled back)",
        report.failed_epoch, report.cells_rolled_back
    );

    // Re-materialize the accounts from the persistent root table.
    let table = pool.root();
    let recovered_total: u64 = (0..ACCOUNTS)
        .map(|i| {
            let cell_addr: u64 = pool.region().load(table.offset(i as u64 * 8));
            pool.cell_get(ICell::<u64>::from_addr(respct_repro::pmem::PAddr(
                cell_addr,
            )))
        })
        .sum();
    println!("recovered total = {recovered_total}");
    assert_eq!(
        recovered_total,
        (ACCOUNTS as u64) * INITIAL,
        "money must be conserved across crash + recovery"
    );
    println!("invariant holds: no money created or destroyed ✓");
}
