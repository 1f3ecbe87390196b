//! Ablation: the sharded parallel flusher pool (paper §5 "a pool of flusher
//! threads flushes data to NVMM in parallel during checkpoints", with a
//! one-to-one thread pinning).
//!
//! Sweeps the number of dedicated flusher threads for the write-intensive
//! hash-map workload and reports throughput plus the checkpoint phase
//! decomposition: the serial gather/partition time and the (parallelized)
//! sort+flush+fence time, per checkpoint. On this 1-CPU container extra
//! flushers cannot help (they time-slice) — the interesting output is that
//! the machinery works and how the phases split; on a multicore host the
//! sweep shows the paper's scaling of the flush phase.

use std::time::Duration;

use respct::PoolConfig;
use respct_figs::args::BenchArgs;
use respct_figs::systems::{measure_respct_map, MapBenchSpec};
use respct_figs::table::{f3, Table};

fn main() {
    let args = BenchArgs::parse();
    let threads = *args.threads.iter().max().unwrap_or(&4);
    let keyspace = args.scaled(100_000, 2_000_000);
    let nbuckets = args.scaled(50_000, 1_000_000);
    let region_bytes = if args.full { 1536 << 20 } else { 256 << 20 };
    println!("# Flusher-pool ablation: write-intensive map, {threads} worker threads");
    let mut table = Table::new(&[
        "flushers",
        "shards",
        "mops",
        "ckpts",
        "mean_lines/ckpt",
        "partition_us",
        "flush_us",
        "mean_ckpt_ms",
    ]);
    for flushers in [0usize, 1, 2, 4] {
        let shards = PoolConfig::builder()
            .flusher_threads(flushers)
            .build()
            .expect("config")
            .resolved_shards();
        let (t, snap) = measure_respct_map(
            "respct",
            MapBenchSpec {
                threads,
                secs: args.secs,
                keyspace,
                nbuckets,
                update_pct: 90,
                // A short period (vs the paper's 64 ms default elsewhere)
                // so even brief sweeps record many checkpoints — this
                // ablation is about the per-checkpoint flush phases, not
                // the failure-free window.
                period: Duration::from_millis(10),
                region_bytes,
                seed: 0xab1a,
            },
            flushers,
        );
        table.row(vec![
            flushers.to_string(),
            shards.to_string(),
            f3(t.mops()),
            snap.count.to_string(),
            f3(snap.mean_lines()),
            f3(snap.mean_partition().as_secs_f64() * 1e6),
            f3(snap.mean_flush().as_secs_f64() * 1e6),
            f3(snap.mean_duration().as_secs_f64() * 1e3),
        ]);
    }
    table.print();
}
