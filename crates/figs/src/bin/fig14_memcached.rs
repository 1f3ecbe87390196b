//! Paper Fig. 14: memcached-like KV store throughput (kops/s) under
//! YCSB-style read-intensive / balanced / write-intensive mixes, for
//! `Transient<DRAM>`, `Transient<NVMM>`, and ResPCT (asynchronous writes —
//! responses do not wait for durability).
//!
//! The paper uses 10^6 keys, 100-byte values, 32 clients, 4 workers; quick
//! mode scales keys and ops down while keeping the client/worker shape.

use std::time::Duration;

use respct_apps::kvstore::{run, KvConfig};
use respct_apps::ycsb::Workload;
use respct_apps::Mode;
use respct_figs::args::BenchArgs;
use respct_figs::table::{f3, json_line, Table};

fn main() {
    let args = BenchArgs::parse();
    let nkeys = args.scaled(20_000, 1_000_000);
    let ops_per_client = args.scaled(5_000, 31_250) as usize; // ≈1M total at 32 clients
    let (clients, workers) = if args.full { (32, 4) } else { (8, 2) };
    println!(
        "# Fig. 14 — KV store: keys={nkeys} value=100B clients={clients} workers={workers} ops/client={ops_per_client}"
    );
    let mut table = Table::new(&[
        "workload",
        "mode",
        "kops/s",
        "normalized",
        "p50_us",
        "p99_us",
    ]);
    for (label, wl) in [
        ("read-intensive (90/10)", Workload::read_intensive(nkeys)),
        ("balanced (50/50)", Workload::balanced(nkeys)),
        ("write-intensive (10/90)", Workload::write_intensive(nkeys)),
    ] {
        let mut base = 0.0;
        for mode in Mode::ALL {
            let cfg = KvConfig {
                nkeys,
                value_size: 100,
                workers,
                clients,
                ops_per_client,
                workload: wl.clone(),
                mode,
                ckpt_period: Duration::from_millis(respct_figs::DEFAULT_PERIOD_MS),
            };
            let out = run(&cfg);
            if mode == Mode::TransientDram {
                base = out.kops_per_sec;
            }
            let norm = out.kops_per_sec / base;
            table.row(vec![
                label.into(),
                mode.label().into(),
                f3(out.kops_per_sec),
                f3(norm),
                f3(out.p50_ns as f64 / 1e3),
                f3(out.p99_ns as f64 / 1e3),
            ]);
            if args.json {
                json_line(
                    "fig14",
                    &[
                        ("workload", label.to_string()),
                        ("mode", mode.label().to_string()),
                        ("kops", f3(out.kops_per_sec)),
                        ("normalized", f3(norm)),
                    ],
                );
            }
        }
    }
    table.print();
}
