//! Paper Fig. 8: HashMap throughput (Mops/s) vs thread count, for three
//! update/search mixes (1:9, 1:1, 9:1), across all compared systems.
//!
//! Quick mode uses a scaled-down key space; `--full` approaches the paper's
//! 10^6 buckets / 2·10^6 keys. Note: this container exposes a single CPU,
//! so the thread sweep shows scheduling overlap, not hardware scaling —
//! the meaningful output is the *relative* ordering of systems per column.

use std::time::Duration;

use respct_figs::args::BenchArgs;
use respct_figs::systems::{measure_map_system, MapBenchSpec, MAP_SYSTEMS};
use respct_figs::table::{f3, json_line, Table};

fn main() {
    let args = BenchArgs::parse();
    let keyspace = args.scaled(100_000, 2_000_000);
    let nbuckets = args.scaled(50_000, 1_000_000);
    let region_bytes = if args.full { 1536 << 20 } else { 256 << 20 };
    println!(
        "# Fig. 8 — HashMap: keyspace={keyspace} buckets={nbuckets} secs/point={} period=64ms",
        args.secs
    );
    for (label, update_pct) in [
        ("1:9 (read-intensive)", 10u64),
        ("1:1 (balanced)", 50),
        ("9:1 (write-intensive)", 90),
    ] {
        println!("\n## update:search = {label}");
        let mut header = vec!["threads"];
        header.extend_from_slice(MAP_SYSTEMS);
        let mut table = Table::new(&header);
        for &threads in &args.threads {
            let mut row = vec![threads.to_string()];
            for name in MAP_SYSTEMS {
                let spec = MapBenchSpec {
                    threads,
                    secs: args.secs,
                    keyspace,
                    nbuckets,
                    update_pct,
                    period: Duration::from_millis(respct_figs::DEFAULT_PERIOD_MS),
                    region_bytes,
                    seed: 0xf18,
                };
                let t = measure_map_system(name, spec);
                row.push(f3(t.mops()));
                if args.json {
                    json_line(
                        "fig8",
                        &[
                            ("mix", label.to_string()),
                            ("threads", threads.to_string()),
                            ("system", name.to_string()),
                            ("mops", f3(t.mops())),
                        ],
                    );
                }
            }
            table.row(row);
        }
        table.print();
    }
}
