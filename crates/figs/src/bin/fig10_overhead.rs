//! Paper Fig. 10: decomposition of ResPCT's overhead at the largest thread
//! count. Configurations, each normalized to `Transient<DRAM>`:
//!
//! * `transient-nvmm`  — just running on the slower medium;
//! * `respct-incll`    — + InCLL logging and modification tracking, but no
//!   checkpoints;
//! * `respct-noflush`  — + the full checkpoint protocol except the data
//!   flushes;
//! * `respct`          — the complete system.
//!
//! Reported for the queue and for the read-/write-intensive hash map
//! workloads, as in the paper. Also prints the mean number of addresses
//! flushed per checkpoint (the paper quotes ~700k for write-intensive vs
//! ~6× less for read-intensive at full scale).

use std::time::Duration;

use respct_figs::args::BenchArgs;
use respct_figs::systems::{
    measure_map_system, measure_queue_system, MapBenchSpec, QueueBenchSpec,
};
use respct_figs::table::{f3, json_line, Table};

const CONFIGS: &[&str] = &[
    "transient-dram",
    "transient-nvmm",
    "respct-incll",
    "respct-noflush",
    "respct",
];

fn main() {
    let args = BenchArgs::parse();
    let threads = *args.threads.iter().max().unwrap_or(&4);
    let keyspace = args.scaled(100_000, 2_000_000);
    let nbuckets = args.scaled(50_000, 1_000_000);
    let region_bytes = if args.full { 1536 << 20 } else { 256 << 20 };
    println!(
        "# Fig. 10 — overhead decomposition at {threads} threads (normalized to Transient<DRAM>)"
    );

    let mut table = Table::new(&["workload", "config", "mops", "normalized"]);
    for (wl, update_pct) in [("map read-intensive", 10u64), ("map write-intensive", 90)] {
        let mut base = 0.0;
        for cfg in CONFIGS {
            let t = measure_map_system(
                cfg,
                MapBenchSpec {
                    threads,
                    secs: args.secs,
                    keyspace,
                    nbuckets,
                    update_pct,
                    period: Duration::from_millis(respct_figs::DEFAULT_PERIOD_MS),
                    region_bytes,
                    seed: 0xf10,
                },
            );
            if *cfg == "transient-dram" {
                base = t.mops();
            }
            let norm = t.mops() / base;
            table.row(vec![wl.into(), cfg.to_string(), f3(t.mops()), f3(norm)]);
            if args.json {
                json_line(
                    "fig10",
                    &[
                        ("workload", wl.to_string()),
                        ("config", cfg.to_string()),
                        ("mops", f3(t.mops())),
                        ("normalized", f3(norm)),
                    ],
                );
            }
        }
    }
    {
        let mut base = 0.0;
        for cfg in CONFIGS {
            let t = measure_queue_system(
                cfg,
                QueueBenchSpec {
                    threads,
                    secs: args.secs,
                    prefill: 1000,
                    period: Duration::from_millis(respct_figs::DEFAULT_PERIOD_MS),
                    region_bytes,
                    seed: 0xf10,
                },
            );
            if *cfg == "transient-dram" {
                base = t.mops();
            }
            let norm = t.mops() / base;
            table.row(vec![
                "queue".into(),
                cfg.to_string(),
                f3(t.mops()),
                f3(norm),
            ]);
            if args.json {
                json_line(
                    "fig10",
                    &[
                        ("workload", "queue".to_string()),
                        ("config", cfg.to_string()),
                        ("mops", f3(t.mops())),
                        ("normalized", f3(norm)),
                    ],
                );
            }
        }
    }
    table.print();
}
