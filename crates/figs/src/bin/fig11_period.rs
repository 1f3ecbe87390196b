//! Paper Fig. 11: ResPCT throughput as a function of the checkpoint period
//! (1 ms … 64 ms), write-intensive hash-map workload at the largest thread
//! count, normalized to `Transient<DRAM>`.
//!
//! Also reports the *effective* epoch duration (wall time between completed
//! checkpoints) versus the configured one — the paper measures 5 ms for a
//! 4 ms period — and the mean number of cache lines flushed per checkpoint.

use std::time::Duration;

use respct::{CkptSnapshot, Pool, PoolConfig};
use respct_ds::PHashMap;
use respct_figs::args::BenchArgs;
use respct_figs::driver::{prefill_map, run_map_mix};
use respct_figs::systems::{measure_map_system, MapBenchSpec};
use respct_figs::table::{f3, json_line, Table};
use respct_pmem::{Region, RegionConfig};

fn main() {
    let args = BenchArgs::parse();
    let threads = *args.threads.iter().max().unwrap_or(&4);
    let keyspace = args.scaled(100_000, 2_000_000);
    let nbuckets = args.scaled(50_000, 1_000_000);
    let region_bytes = if args.full { 1536 << 20 } else { 256 << 20 };
    let update_pct = 90;
    println!("# Fig. 11 — checkpoint period sweep, write-intensive map, {threads} threads");

    // Baseline for normalization.
    let base = measure_map_system(
        "transient-dram",
        MapBenchSpec {
            threads,
            secs: args.secs,
            keyspace,
            nbuckets,
            update_pct,
            period: Duration::from_millis(64),
            region_bytes,
            seed: 0xf11,
        },
    )
    .mops();

    let mut table = Table::new(&[
        "period_ms",
        "mops",
        "normalized",
        "effective_period_ms",
        "mean_lines/ckpt",
    ]);
    for period_ms in [1u64, 2, 4, 8, 16, 32, 64] {
        let region = Region::new(RegionConfig::optane(region_bytes));
        let pool = Pool::create(region, PoolConfig::default()).expect("pool");
        let h = pool.register();
        let map = PHashMap::create(&h, nbuckets);
        drop(h);
        prefill_map(&map, keyspace);
        let before = pool.runtime_metrics().ckpt_snapshot();
        let t = {
            let _ckpt = pool.start_checkpointer(Duration::from_millis(period_ms));
            run_map_mix(&map, threads, args.secs, keyspace, update_pct, 0xf11)
        };
        let after = pool.runtime_metrics().ckpt_snapshot();
        let snap = CkptSnapshot {
            count: after.count - before.count,
            lines_flushed: after.lines_flushed - before.lines_flushed,
            ..CkptSnapshot::default()
        };
        let effective_ms = if snap.count > 0 {
            t.duration.as_secs_f64() * 1e3 / snap.count as f64
        } else {
            f64::INFINITY
        };
        table.row(vec![
            period_ms.to_string(),
            f3(t.mops()),
            f3(t.mops() / base),
            f3(effective_ms),
            f3(snap.mean_lines()),
        ]);
        if args.json {
            json_line(
                "fig11",
                &[
                    ("period_ms", period_ms.to_string()),
                    ("mops", f3(t.mops())),
                    ("normalized", f3(t.mops() / base)),
                    ("effective_period_ms", f3(effective_ms)),
                    ("lines_per_ckpt", f3(snap.mean_lines())),
                ],
            );
        }
    }
    println!("(Transient<DRAM> baseline: {} Mops)", f3(base));
    table.print();
}
