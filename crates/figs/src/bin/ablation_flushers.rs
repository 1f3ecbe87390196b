//! Ablation: the parallel flusher pool (paper §5 "a pool of flusher threads
//! flushes data to NVMM in parallel during checkpoints", with a one-to-one
//! thread pinning).
//!
//! Sweeps the number of dedicated flusher threads for the write-intensive
//! hash-map workload and reports throughput plus the checkpoint phase
//! decomposition per checkpoint: the gather time in the parked window, and
//! the flush phase — the one sort + dedup on the draining thread, then the
//! write-backs and fences spread over the flushers. With as many worker
//! threads as CPUs the flushers time-slice with the workers, so extra
//! flushers cannot help much; the output shows that the machinery works and
//! how the phases split. On a host with spare cores the sweep shows how far
//! the write-back half of the flush phase scales.

use std::time::Duration;

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
        "mops",
        "ckpts",
        "mean_lines/ckpt",
        "partition_us",
        "flush_us",
        "mean_ckpt_ms",
    ]);
    for flushers in [0usize, 1, 2, 4] {
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
