//! `respct-bench` — the repo's benchmark: four workloads, every layer.
//!
//! ```text
//! respct-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out FILE]
//! respct-bench compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! A run measures one workload. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it records spans around the calls into each
//! layer, writes them to `trace-<workload>.json`, and reports the
//! per-layer metrics. Either way the outputs of the program under test are
//! checked, the metrics are printed by name and unit, one line is appended
//! to the results file, and the last line of standard output is the result
//! as one JSON object. See `README.md` beside this crate for the glossary.

mod compare;
mod guard;
mod json;
mod kv;
mod loadgen;
mod map;
mod metrics;
mod micro;
mod plan;
mod recover;
mod stats;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use json::Json;
use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use plan::Plan;
use trace::Tracer;

/// A run that is still going after this long is stuck (the driver allows
/// 180 s for one).
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: respct-bench --workload <map_write|map_read|kv_serve|crash_recover> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n       \
                     respct-bench compare A.jsonl B.jsonl [--spec BENCHMARK.json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{USAGE}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// Runs one workload under `plan`; traced when a tracer is given.
fn run_workload(
    workload: &str,
    plan: &Plan,
    root: &Path,
    tracer: Option<&Tracer>,
) -> Result<Outcome, String> {
    match (workload, tracer) {
        ("map_write", None) => Ok(map::run(plan, map::Mix::Write)),
        ("map_write", Some(t)) => Ok(map::run_traced(plan, map::Mix::Write, t)),
        ("map_read", None) => Ok(map::run(plan, map::Mix::Read)),
        ("map_read", Some(t)) => Ok(map::run_traced(plan, map::Mix::Read, t)),
        ("kv_serve", None) => kv::run(plan, root),
        ("kv_serve", Some(t)) => kv::run_traced(plan, root, t),
        ("crash_recover", t) => recover::run(plan, t),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// The backend the workload's persistent memory runs on.
fn backend_of(workload: &str) -> &'static str {
    if workload == "crash_recover" {
        "mmap (page cache)"
    } else {
        "fast + optane latency model"
    }
}

/// Everything one run produced, ready to print and to file.
struct Report {
    /// The driver's result object: `correct`, `attempted`, `failed`, `metrics`.
    result: Json,
    /// The same plus workload, seed, environment and notes.
    record: Json,
    table: String,
}

/// Runs `workload` and assembles its report. `root` is the repository
/// (`respct-kvd` is built there); the trace file of a traced run goes
/// into `out_dir`.
fn measure(
    workload: &str,
    plan: &Plan,
    traced: bool,
    root: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let tracer = traced.then(Tracer::new);
    let mut outcome = run_workload(workload, plan, root, tracer.as_ref())?;
    let mut broken_spans = 0;
    if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        let violations = trace::nesting_violations(&spans);
        for v in violations.iter().take(10) {
            eprintln!("respct-bench: trace: {v}");
        }
        broken_spans = violations.len();
        let path = out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, tracer.to_json(workload).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.note("trace_file", Json::str(path.display().to_string()));
        outcome.note("spans_kept", Json::Num(spans.len() as f64));
    }
    let table_of = if traced { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics_json(table_of, traced)?;
    let correct = outcome.failed == 0 && broken_spans == 0 && outcome.attempted > 0;
    let mut table = format!(
        "# {workload} seed={} trace={}\n",
        plan.seed,
        u8::from(traced)
    );
    for (name, m) in metrics.as_obj().expect("metrics object") {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        table += &format!("{name:<40} {value:>18.4} {unit}\n");
    }
    // Scalar notes: the absolute numbers of an untraced run among them.
    for (name, note) in &outcome.notes {
        if let Some(value) = note.as_f64() {
            table += &format!("{name:<40} {value:>18.4} (note, not bounded)\n");
        }
    }
    table += &format!(
        "{:<40} {:>18.6} ratio ({} of {})\n",
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let head = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ];
    let mut record = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(plan.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
    ];
    record.extend(head.iter().cloned());
    record.push((
        "notes",
        Json::Obj(
            outcome
                .notes
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        ),
    ));
    record.push(("env", plan::environment(plan, backend_of(workload))));
    Ok(Report {
        result: Json::obj(head),
        record: Json::obj(record),
        table,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let plan = if args.smoke {
        Plan::smoke(args.seed)
    } else {
        Plan::full(args.seed, args.seconds)
    };
    if let Some(why) = plan::unresolved_reason() {
        eprintln!("respct-bench: every metric of this run is unresolved: {why}");
    }
    guard::start_watchdog(HARD_LIMIT);
    let out_dir = plan::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let report = measure(&args.workload, &plan, args.trace, Path::new("."), &out_dir)?;
    let results = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.jsonl"));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| writeln!(f, "{}", report.record))
        .map_err(|e| format!("{}: {e}", results.display()))?;
    guard::run_finished();
    print!("{}", report.table);
    println!("{}", report.result);
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("compare") {
        compare::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| run(&args)).map(|()| 0)
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("respct-bench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "kv_serve",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv_serve", 7, 12.0, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "map_read", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "map_read", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    /// The `--smoke` plan (5 × 0.2 s windows, small structures) runs every
    /// workload end to end, untraced and traced: outputs are checked, every
    /// metric of the contract is present, spans nest.
    #[test]
    fn smoke_plan_runs_all_four_workloads_end_to_end() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
        let out_dir = plan::out_dir();
        std::fs::create_dir_all(&out_dir).unwrap();
        for workload in WORKLOADS {
            for traced in [false, true] {
                let report = measure(workload, &Plan::smoke(1), traced, root, &out_dir)
                    .unwrap_or_else(|e| panic!("{workload} traced={traced}: {e}"));
                let r = &report.result;
                assert_eq!(
                    r.get("correct"),
                    Some(&Json::Bool(true)),
                    "{workload} traced={traced}: {}",
                    report.table
                );
                assert!(r.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
                let want = if traced { PER_LAYER } else { END_TO_END };
                let got = r.get("metrics").unwrap().as_obj().unwrap();
                assert_eq!(got.len(), want.len());
                if !traced {
                    for (name, m) in got {
                        let v = m.get("value").unwrap().as_f64().unwrap();
                        assert!(v > 0.0, "{workload}: {name} = {v}");
                    }
                }
                assert!(Json::parse(&report.record.to_string()).is_ok());
            }
            let text =
                std::fs::read_to_string(out_dir.join(format!("trace-{workload}.json"))).unwrap();
            let doc = Json::parse(&text).unwrap();
            assert!(!doc.get("spans").unwrap().as_arr().unwrap().is_empty());
        }
    }
}
