//! Paper Fig. 12: recovery time as a function of hash-map size (number of
//! buckets, ~2 elements per bucket), with a parallel recovery scan
//! (the paper uses 32 recovery threads; `--threads` sets ours).
//!
//! Methodology: build the map, run a write burst so the final epoch is full
//! of modifications, "crash" without a final checkpoint, and time
//! `Pool::recover` — the registry scan plus rollback of every
//! cell stamped with the failed epoch. Quick mode scales bucket counts down
//! 10×; `--full` uses the paper's 0.5M–4M.

use respct::{Pool, PoolConfig};
use respct_ds::PHashMap;
use respct_figs::args::BenchArgs;
use respct_figs::driver::FastRng;
use respct_figs::table::{f3, json_line, Table};
use respct_pmem::{Region, RegionConfig};

fn main() {
    let args = BenchArgs::parse();
    let threads = *args.threads.iter().max().unwrap_or(&4);
    let scale: u64 = if args.full { 1 } else { 10 };
    let bucket_counts: Vec<u64> = [500_000u64, 1_000_000, 2_000_000, 4_000_000]
        .iter()
        .map(|b| b / scale)
        .collect();
    println!(
        "# Fig. 12 — recovery time vs buckets (~2 elements/bucket), {threads} recovery threads"
    );
    let mut table = Table::new(&[
        "buckets",
        "elements",
        "cells_scanned",
        "cells_rolled_back",
        "recovery_ms",
    ]);
    for &nbuckets in &bucket_counts {
        let elements = nbuckets * 2;
        // Size: buckets (32 B) + nodes (64 B) + registry (~48 B/node).
        let bytes = (nbuckets * 32 + elements * 64 + elements * 3 * 16 + (256 << 20)) as usize;
        let region = Region::new(RegionConfig::fast(bytes));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        let map = PHashMap::create(&h, nbuckets);
        h.set_root(map.desc());
        for k in 0..elements {
            map.insert(&h, k, k);
        }
        h.checkpoint_here();
        // The epoch that will crash: touch a spread of values.
        let mut rng = FastRng::new(12);
        for _ in 0..elements / 4 {
            let k = rng.next_u64() % elements;
            map.insert(&h, k, 999);
        }
        drop(h);
        drop(map);
        drop(pool);
        // "Reboot": recover on the same region (the volatile image stands in
        // for the persisted one — identical scan + rollback work).
        let cfg = PoolConfig::builder()
            .recovery_threads(threads)
            .build()
            .expect("--threads");
        let (pool2, report) = Pool::recover(Arc::clone(&region), cfg).expect("recover");
        let ms = report.duration.as_secs_f64() * 1e3;
        table.row(vec![
            nbuckets.to_string(),
            elements.to_string(),
            report.cells_scanned.to_string(),
            report.cells_rolled_back.to_string(),
            f3(ms),
        ]);
        if args.json {
            json_line(
                "fig12",
                &[
                    ("buckets", nbuckets.to_string()),
                    ("recovery_ms", f3(ms)),
                    ("rolled_back", report.cells_rolled_back.to_string()),
                ],
            );
        }
        drop(pool2);
    }
    table.print();
}

use std::sync::Arc;
