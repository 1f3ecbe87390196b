//! Paper §5.3 "Positioning RPs": the ablation showing that naive RP
//! placement (an RP and the associated `update_InCLL` calls after *every*
//! data point / trial) slows Linear Regression ~9× and Swaptions ~4×,
//! while batched placement brings the overhead down to ~20 %.

use std::time::Duration;

use respct_apps::{linreg, swaptions, Mode};
use respct_figs::args::BenchArgs;
use respct_figs::table::{f3, json_line, Table};

fn main() {
    let args = BenchArgs::parse();
    let threads = *args.threads.iter().max().unwrap_or(&4);
    let period = Duration::from_millis(respct_figs::DEFAULT_PERIOD_MS);
    println!("# RP-placement ablation ({threads} threads): per-item RPs vs batched RPs");
    let mut table = Table::new(&["app", "placement", "time_ms", "vs transient"]);

    // Linear regression.
    let npoints = args.scaled(500_000, 20_000_000) as usize;
    let lr_base = linreg::run(linreg::LinregConfig {
        npoints,
        threads,
        mode: Mode::TransientDram,
        batch: 1000,
        ckpt_period: period,
    })
    .duration
    .as_secs_f64()
        * 1e3;
    table.row(vec![
        "linreg".into(),
        "transient".into(),
        f3(lr_base),
        f3(1.0),
    ]);
    for (label, batch) in [("per-point (naive)", 1usize), ("per-1000 (tuned)", 1000)] {
        let ms = linreg::run(linreg::LinregConfig {
            npoints,
            threads,
            mode: Mode::Respct,
            batch,
            ckpt_period: period,
        })
        .duration
        .as_secs_f64()
            * 1e3;
        table.row(vec![
            "linreg".into(),
            label.into(),
            f3(ms),
            f3(ms / lr_base),
        ]);
        if args.json {
            json_line(
                "ablation_rp",
                &[
                    ("app", "linreg".to_string()),
                    ("placement", label.to_string()),
                    ("slowdown", f3(ms / lr_base)),
                ],
            );
        }
    }

    // Swaptions.
    let trials = args.scaled(8_000, 40_000) as usize;
    let sw_cfg = |mode, batch| swaptions::SwaptionsConfig {
        nswaptions: 2 * threads.max(4),
        trials,
        threads,
        mode,
        batch,
        ckpt_period: period,
    };
    let sw_base = swaptions::run(sw_cfg(Mode::TransientDram, 500))
        .duration
        .as_secs_f64()
        * 1e3;
    table.row(vec![
        "swaptions".into(),
        "transient".into(),
        f3(sw_base),
        f3(1.0),
    ]);
    for (label, batch) in [("per-trial (naive)", 1usize), ("per-500 (tuned)", 500)] {
        let ms = swaptions::run(sw_cfg(Mode::Respct, batch))
            .duration
            .as_secs_f64()
            * 1e3;
        table.row(vec![
            "swaptions".into(),
            label.into(),
            f3(ms),
            f3(ms / sw_base),
        ]);
        if args.json {
            json_line(
                "ablation_rp",
                &[
                    ("app", "swaptions".to_string()),
                    ("placement", label.to_string()),
                    ("slowdown", f3(ms / sw_base)),
                ],
            );
        }
    }
    table.print();
}
