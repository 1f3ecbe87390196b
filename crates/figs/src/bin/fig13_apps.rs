//! Paper Fig. 13: execution time of the compute-intensive applications
//! (Dedup, Swaptions, MatMul, LR) normalized to `Transient<DRAM>`, with
//! 64 ms checkpoints. The paper reports ResPCT between 1.17× and 1.21×.

use std::time::Duration;

use respct_apps::{dedup, linreg, matmul, swaptions, wordcount, Mode};
use respct_figs::args::BenchArgs;
use respct_figs::table::{f3, json_line, Table};

fn main() {
    let args = BenchArgs::parse();
    let threads = *args.threads.iter().max().unwrap_or(&4);
    let period = Duration::from_millis(respct_figs::DEFAULT_PERIOD_MS);
    println!("# Fig. 13 — compute applications, {threads} threads, normalized exec time");
    let mut table = Table::new(&["app", "mode", "time_ms", "normalized"]);

    type AppRun = Box<dyn Fn(Mode) -> f64>;
    let apps: Vec<(&str, AppRun)> = vec![
        (
            "dedup",
            Box::new(move |mode| {
                let out = dedup::run(dedup::DedupConfig {
                    chunks: if args.full { 60_000 } else { 6_000 },
                    unique: if args.full { 15_000 } else { 1_500 },
                    chunk_size: 2048,
                    hashers: (threads / 2).max(1),
                    compressors: (threads / 2).max(1),
                    mode,
                    ckpt_period: period,
                });
                out.duration_us as f64 / 1e3
            }),
        ),
        (
            "swaptions",
            Box::new(move |mode| {
                let out = swaptions::run(swaptions::SwaptionsConfig {
                    nswaptions: 4 * threads.max(4),
                    trials: if args.full { 20_000 } else { 4_000 },
                    threads,
                    mode,
                    batch: 500,
                    ckpt_period: period,
                });
                out.duration.as_secs_f64() * 1e3
            }),
        ),
        (
            "matmul",
            Box::new(move |mode| {
                let out = matmul::run(matmul::MatmulConfig {
                    n: if args.full { 512 } else { 160 },
                    threads,
                    mode,
                    ckpt_period: period,
                });
                out.duration.as_secs_f64() * 1e3
            }),
        ),
        (
            "linreg",
            Box::new(move |mode| {
                let out = linreg::run(linreg::LinregConfig {
                    npoints: if args.full { 20_000_000 } else { 2_000_000 },
                    threads,
                    mode,
                    batch: 1000,
                    ckpt_period: period,
                });
                out.duration.as_secs_f64() * 1e3
            }),
        ),
        (
            // Bonus beyond the paper's four: Phoenix's flagship kernel.
            "wordcount",
            Box::new(move |mode| {
                let out = wordcount::run(wordcount::WordCountConfig {
                    blocks: if args.full { 4_000 } else { 800 },
                    words_per_block: 1_000,
                    vocab: 10_000,
                    threads,
                    mode,
                    ckpt_period: period,
                });
                out.duration.as_secs_f64() * 1e3
            }),
        ),
    ];

    for (name, runner) in &apps {
        let mut base = 0.0;
        for mode in Mode::ALL {
            let ms = runner(mode);
            if mode == Mode::TransientDram {
                base = ms;
            }
            let norm = ms / base;
            table.row(vec![
                name.to_string(),
                mode.label().into(),
                f3(ms),
                f3(norm),
            ]);
            if args.json {
                json_line(
                    "fig13",
                    &[
                        ("app", name.to_string()),
                        ("mode", mode.label().to_string()),
                        ("time_ms", f3(ms)),
                        ("normalized", f3(norm)),
                    ],
                );
            }
        }
    }
    table.print();
}
