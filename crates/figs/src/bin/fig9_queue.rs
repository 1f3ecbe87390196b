//! Paper Fig. 9: Queue throughput (Mops/s) vs thread count, 1:1
//! enqueue/dequeue mix, across all compared systems (queue pre-filled with
//! 1k elements as in the paper).

use std::time::Duration;

use respct_figs::args::BenchArgs;
use respct_figs::systems::{measure_queue_system, QueueBenchSpec, QUEUE_SYSTEMS};
use respct_figs::table::{f3, json_line, Table};

fn main() {
    let args = BenchArgs::parse();
    let region_bytes = if args.full { 1536 << 20 } else { 512 << 20 };
    println!(
        "# Fig. 9 — Queue: prefill=1000 enq:deq=1:1 secs/point={} period=64ms",
        args.secs
    );
    let mut header = vec!["threads"];
    header.extend_from_slice(QUEUE_SYSTEMS);
    let mut table = Table::new(&header);
    for &threads in &args.threads {
        let mut row = vec![threads.to_string()];
        for name in QUEUE_SYSTEMS {
            let t = measure_queue_system(
                name,
                QueueBenchSpec {
                    threads,
                    secs: args.secs,
                    prefill: 1000,
                    period: Duration::from_millis(respct_figs::DEFAULT_PERIOD_MS),
                    region_bytes,
                    seed: 0xf19,
                },
            );
            row.push(f3(t.mops()));
            if args.json {
                json_line(
                    "fig9",
                    &[
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
