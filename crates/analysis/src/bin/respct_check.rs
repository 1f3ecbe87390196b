//! `respct-check` — run the standard ResPCT workloads under the trace
//! checker and report persistency-discipline findings.
//!
//! ```text
//! respct-check [hashmap|queue|kvstore|recovery|all] [--races]
//!              [--pipeline K] [--format text|json]
//! respct-check --sweep [hashmap|queue|both] [--ops N] [--seed S]
//!              [--budget B] [--stride K] [--trace-out PATH]
//!              [--pipeline K]
//! ```
//!
//! In the default (checker) mode each workload runs on a sim-mode region
//! (PCSO simulator with random evictions) with the
//! [`respct_analysis::Checker`] attached as the trace sink, concurrent
//! worker threads, and a timer-driven checkpointer. `--races`
//! additionally tees the trace into the
//! [`respct_analysis::RaceDetector`] — the vector-clock happens-before
//! engine — and reports persist races and un-ordered commit points next
//! to the checker's durability findings.
//!
//! Exit codes are per-severity so CI can distinguish outcomes:
//!
//! * `0` — every selected workload came back clean;
//! * `1` — usage error (unknown workload or flag);
//! * `2` — at least one error-severity diagnostic (discipline violation,
//!   persist race, recovery divergence);
//! * `3` — perf-severity advisories only (e.g. redundant flushes).
//!
//! `--format json` prints one machine-readable JSON document on stdout
//! (shape: `{"mode","races","exit","workloads":[{"name","checker",`
//! `"races"}]}` with each report in [`Report::to_json`] form) instead of
//! the human text; the exit-code contract is identical.
//!
//! `--sweep` switches to the crash-point sweep (`respct-crashsim`): a
//! deterministic single-threaded run of the workload is recorded, then
//! every persistency-relevant instant of the trace is crashed — with the
//! reachable eviction/write-back subsets enumerated up to `--budget`
//! images per instant — recovered via [`Pool::recover`], and
//! compared against the model snapshot of the last committed checkpoint.
//! Any divergence fails the run; with `--trace-out PATH` the offending
//! trace (one event per line) is written there for offline replay.
//!
//! `--pipeline K` (K = 1..=4) runs the selected workloads (or sweeps) with
//! [`PoolConfig::async_checkpoint`] enabled and
//! [`PoolConfig::epoch_pipeline`] set to `K`, exercising the background
//! drain — ring-slot claim, executor flush, ordered ring commit — under
//! the checker's ring-commit-order rule, and under the race detector's
//! commit and push-out rules when combined with `--races`. Without the
//! flag the pool checkpoints synchronously. Background-drain runs tolerate
//! redundant-flush advisories (on-demand push-outs can legitimately
//! double-flush a line) but still fail on any error-severity diagnostic.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use respct::{PAddr, Pool, PoolConfig};
use respct_analysis::sweep::workloads;
use respct_analysis::{Checker, RaceDetector, Report, SweepConfig};
use respct_ds::{rp_ids, PHashMap, PQueue};
use respct_pmem::sim::CrashMode;
use respct_pmem::{Region, RegionConfig, SimConfig, TeeSink, TraceSink};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 3_000;
const CKPT_PERIOD: Duration = Duration::from_millis(5);

/// How a workload should run: race detection on/off, and the ring depth of
/// the background drain (`None` = synchronous checkpoints).
#[derive(Clone, Copy)]
struct RunOpts {
    races: bool,
    pipeline: Option<usize>,
}

/// Pool config for a run: synchronous checkpoints without a ring depth,
/// the background drain at depth `k` with `Some(k)`.
fn pool_config(pipeline: Option<usize>, flushers: usize) -> PoolConfig {
    PoolConfig::builder()
        .flusher_threads(flushers)
        .async_checkpoint(pipeline.is_some())
        .epoch_pipeline(pipeline.unwrap_or(1))
        .build()
        .expect("config")
}

/// The sinks attached to a run's region.
struct Sinks {
    checker: Arc<Checker>,
    races: Option<Arc<RaceDetector>>,
}

/// What a workload produced: one report per attached sink.
struct RunOut {
    checker: Report,
    races: Option<Report>,
}

impl Sinks {
    /// Attaches the checker (always) and, with `races`, the happens-before
    /// detector behind a tee, so both replay the same event stream.
    fn attach(region: &Region, races: bool) -> Sinks {
        let checker = Arc::new(Checker::new());
        if races {
            let detector = Arc::new(RaceDetector::new());
            let tee: Vec<Arc<dyn TraceSink>> = vec![
                Arc::clone(&checker) as Arc<dyn TraceSink>,
                Arc::clone(&detector) as Arc<dyn TraceSink>,
            ];
            region.set_trace_sink(Arc::new(TeeSink::new(tee)));
            Sinks {
                checker,
                races: Some(detector),
            }
        } else {
            region.set_trace_sink(Arc::<Checker>::clone(&checker));
            Sinks {
                checker,
                races: None,
            }
        }
    }

    fn reports(&self) -> RunOut {
        RunOut {
            checker: self.checker.report(),
            races: self.races.as_ref().map(|d| d.report()),
        }
    }
}

impl RunOut {
    fn each(&self) -> impl Iterator<Item = &Report> {
        std::iter::once(&self.checker).chain(self.races.as_ref())
    }
}

/// A sim region with the selected sinks attached, and a pool formatted on
/// it.
fn checked_pool(bytes: usize, seed: u64, flushers: usize, opts: RunOpts) -> (Sinks, Arc<Pool>) {
    // Eviction rate 4: roughly one line evicted per 2^4 stores — enough to
    // exercise the eviction paths without swamping the trace.
    let region = Region::new(RegionConfig::sim(bytes, SimConfig::with_eviction(4, seed)));
    let sinks = Sinks::attach(&region, opts.races);
    let pool = Pool::create(region, pool_config(opts.pipeline, flushers)).expect("pool");
    (sinks, pool)
}

fn run_hashmap(opts: RunOpts) -> RunOut {
    // Two dedicated flushers: the hashmap workload exercises the sharded
    // parallel flush path (shard claiming + per-worker fences) under the
    // checker's shard-fence rule, not just the inline fallback.
    let (sinks, pool) = checked_pool(64 << 20, 11, 2, opts);
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 512);
        h.set_root(map.desc());
        map
    };
    let _ckpt = pool.start_checkpointer(CKPT_PERIOD);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..OPS_PER_THREAD {
                    let k = t * OPS_PER_THREAD + i;
                    map.insert(&h, k, k * 3);
                    h.rp(rp_ids::MAP_INSERT);
                    if i % 3 == 0 {
                        map.get(&h, k);
                        h.rp(rp_ids::MAP_GET);
                    }
                    if i % 5 == 0 {
                        map.remove(&h, k);
                        h.rp(rp_ids::MAP_REMOVE);
                    }
                }
            });
        }
    });
    pool.register().checkpoint_here();
    sinks.reports()
}

fn run_queue(opts: RunOpts) -> RunOut {
    let (sinks, pool) = checked_pool(64 << 20, 22, 0, opts);
    let queue = {
        let h = pool.register();
        let q = PQueue::create(&h);
        h.set_root(q.desc());
        q
    };
    let _ckpt = pool.start_checkpointer(CKPT_PERIOD);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (pool, queue) = (&pool, &queue);
            s.spawn(move || {
                let h = pool.register();
                for i in 0..OPS_PER_THREAD {
                    queue.enqueue(&h, t * OPS_PER_THREAD + i);
                    h.rp(rp_ids::QUEUE_ENQ);
                    if i % 2 == 0 {
                        queue.dequeue(&h);
                        h.rp(rp_ids::QUEUE_DEQ);
                    }
                }
            });
        }
    });
    pool.register().checkpoint_here();
    sinks.reports()
}

/// A memcached-style workload: persistent map from key to copy-on-write
/// value blob (the shape of `respct_apps::kvstore`'s ResPCT store).
fn run_kvstore(opts: RunOpts) -> RunOut {
    const VALUE: u64 = 128;
    let (sinks, pool) = checked_pool(128 << 20, 33, 0, opts);
    let map = {
        let h = pool.register();
        let map = PHashMap::create(&h, 512);
        h.set_root(map.desc());
        map
    };
    let _ckpt = pool.start_checkpointer(CKPT_PERIOD);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (pool, map) = (&pool, &map);
            s.spawn(move || {
                let h = pool.register();
                let mut buf = vec![0u8; VALUE as usize];
                for i in 0..OPS_PER_THREAD {
                    // Keys are partitioned per thread (as in the kvstore
                    // app): the get-old/insert-new/free-old sequence is not
                    // atomic, so racing puts on one key would double-free
                    // the old blob.
                    let k = t * 1_000 + (i % 500);
                    if i % 4 == 0 {
                        // Get: read the blob through the map.
                        if let Some(blob) = map.get(&h, k) {
                            pool.region().load_bytes(PAddr(blob), &mut buf);
                        }
                        h.rp(601);
                    } else {
                        // Put: CoW blob, written + tracked while
                        // unreachable, then the value cell swings to it.
                        buf.fill((i % 251) as u8);
                        let blob = h.alloc(VALUE, 64);
                        pool.region().store_bytes(blob, &buf);
                        h.add_modified(blob, VALUE as usize);
                        let old = map.get(&h, k);
                        map.insert(&h, k, blob.0);
                        if let Some(old) = old {
                            h.free(PAddr(old), VALUE);
                        }
                        h.rp(600);
                    }
                }
            });
        }
    });
    pool.register().checkpoint_here();
    sinks.reports()
}

/// Crash in a dirty epoch, recover, re-execute, checkpoint, repeat.
fn run_recovery(opts: RunOpts) -> RunOut {
    let cfg = pool_config(opts.pipeline, 0);
    let region = Region::new(RegionConfig::sim(32 << 20, SimConfig::with_eviction(4, 44)));
    let sinks = Sinks::attach(&region, opts.races);
    let mut cells = Vec::new();
    {
        let pool = Pool::create(Arc::clone(&region), cfg.clone()).expect("pool");
        let h = pool.register();
        for i in 0..200u64 {
            cells.push(h.alloc_cell(i));
        }
        h.checkpoint_here();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, 1_000 + i as u64); // crashed-epoch updates
        }
    }
    for round in 0..3u64 {
        let img = region.crash(CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _report) = Pool::recover(Arc::clone(&region), cfg.clone()).expect("recover");
        let h = pool.register();
        for (i, c) in cells.iter().enumerate() {
            h.update(*c, (round + 2) * 1_000 + i as u64); // re-execution
        }
        h.checkpoint_here();
        for c in &cells {
            h.update(*c, 7); // dirty the next epoch, then crash again
        }
    }
    sinks.reports()
}

fn sweep_main(args: &[String]) -> ExitCode {
    let mut workloads: Vec<&str> = vec!["hashmap", "queue"];
    let mut ops = 48u64;
    let mut seed = 7u64;
    let mut cfg = SweepConfig::new(workloads::SWEEP_REGION);
    cfg.eviction_budget = 3;
    cfg.stride = 4;
    let mut trace_out: Option<String> = None;
    let mut pipeline: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
                .clone()
        };
        match a.as_str() {
            "hashmap" => workloads = vec!["hashmap"],
            "queue" => workloads = vec!["queue"],
            "both" => workloads = vec!["hashmap", "queue"],
            "--ops" => ops = value("--ops").parse().expect("--ops"),
            "--seed" => seed = value("--seed").parse().expect("--seed"),
            "--budget" => cfg.eviction_budget = value("--budget").parse().expect("--budget"),
            "--stride" => cfg.stride = value("--stride").parse().expect("--stride"),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--pipeline" => pipeline = Some(value("--pipeline").parse().expect("--pipeline")),
            other => {
                eprintln!("unknown sweep argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    cfg.pool = pool_config(pipeline, 0);
    cfg.seed = seed;
    let mut failed = false;
    for w in workloads {
        println!("== sweep:{w} ==");
        let (sweep_report, events) = match w {
            "hashmap" => workloads::sweep_hashmap(ops, seed, &cfg),
            _ => workloads::sweep_queue(ops, seed, &cfg),
        };
        println!(
            "{} events, {} crash points ({} pre-format skipped), {} images recovered",
            sweep_report.events,
            sweep_report.points,
            sweep_report.unformatted_points,
            sweep_report.images
        );
        if !sweep_report.is_clean() {
            failed = true;
            print!("{}", sweep_report.report);
            if let Some(dir) = &trace_out {
                let path = std::path::Path::new(dir).join(format!("sweep-{w}-seed{seed}.trace"));
                let mut dump = String::new();
                for (i, ev) in events.iter().enumerate() {
                    dump.push_str(&format!("{i:08} {ev:?}\n"));
                }
                dump.push_str(&format!("{}", sweep_report.report));
                match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, dump)) {
                    Ok(()) => eprintln!("offending trace written to {}", path.display()),
                    Err(e) => eprintln!("failed to write trace artifact: {e}"),
                }
            }
        }
    }
    if failed {
        eprintln!("recovery divergence found");
        ExitCode::from(EXIT_ERROR)
    } else {
        ExitCode::SUCCESS
    }
}

/// Exit code for usage errors (bad workload, bad flag).
const EXIT_USAGE: u8 = 1;
/// Exit code when any error-severity diagnostic was produced.
const EXIT_ERROR: u8 = 2;
/// Exit code when only perf-severity advisories were produced.
const EXIT_PERF: u8 = 3;

/// Maps a batch of workload outputs to the exit-code contract.
fn exit_for(outs: &[(&str, RunOut)]) -> u8 {
    let mut any_error = false;
    let mut any_perf = false;
    for (_, out) in outs {
        for r in out.each() {
            any_error |= !r.errors().is_empty();
            any_perf |= !r.perf().is_empty();
        }
    }
    if any_error {
        EXIT_ERROR
    } else if any_perf {
        EXIT_PERF
    } else {
        0
    }
}

fn json_doc(outs: &[(&str, RunOut)], opts: RunOpts, exit: u8) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\"mode\":\"");
    s.push_str(if opts.pipeline.is_some() {
        "async"
    } else {
        "sync"
    });
    s.push_str("\",\"races\":");
    s.push_str(if opts.races { "true" } else { "false" });
    s.push_str(&format!(",\"exit\":{exit},\"workloads\":["));
    for (i, (name, out)) in outs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"name\":\"{name}\",\"checker\":"));
        s.push_str(&out.checker.to_json());
        s.push_str(",\"races\":");
        match &out.races {
            Some(r) => s.push_str(&r.to_json()),
            None => s.push_str("null"),
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--sweep") {
        return sweep_main(&argv[1..]);
    }
    let mut pipeline = None;
    if let Some(pos) = argv.iter().position(|a| a == "--pipeline") {
        let parsed = argv.get(pos + 1).and_then(|k| k.parse().ok());
        let Some(k) = parsed.filter(|&k: &usize| k >= 1) else {
            eprintln!("--pipeline requires a positive integer depth");
            return ExitCode::from(EXIT_USAGE);
        };
        pipeline = Some(k);
        argv.drain(pos..=pos + 1);
    }
    let opts = RunOpts {
        races: argv.iter().any(|a| a == "--races"),
        pipeline,
    };
    argv.retain(|a| a != "--races");
    let mut json = false;
    if let Some(pos) = argv.iter().position(|a| a == "--format") {
        let Some(fmt) = argv.get(pos + 1) else {
            eprintln!("--format requires a value (text|json)");
            return ExitCode::from(EXIT_USAGE);
        };
        match fmt.as_str() {
            "json" => json = true,
            "text" => {}
            other => {
                eprintln!("unknown format {other:?}; expected text|json");
                return ExitCode::from(EXIT_USAGE);
            }
        }
        argv.drain(pos..=pos + 1);
    }
    if let Some(flag) = argv.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag {flag:?}");
        return ExitCode::from(EXIT_USAGE);
    }
    let arg = argv.first().cloned().unwrap_or_else(|| "all".into());
    type Workload = (&'static str, fn(RunOpts) -> RunOut);
    let all: [Workload; 4] = [
        ("hashmap", run_hashmap),
        ("queue", run_queue),
        ("kvstore", run_kvstore),
        ("recovery", run_recovery),
    ];
    let selected: Vec<_> = match arg.as_str() {
        "all" => all.to_vec(),
        name => {
            let Some(w) = all.iter().find(|(n, _)| *n == name) else {
                eprintln!("unknown workload {name:?}; expected hashmap|queue|kvstore|recovery|all");
                return ExitCode::from(EXIT_USAGE);
            };
            vec![*w]
        }
    };
    let mut outs: Vec<(&str, RunOut)> = Vec::new();
    for (name, run) in selected {
        if !json {
            let mode = opts
                .pipeline
                .map_or(String::new(), |k| format!(" (background drain, K={k})"));
            println!("== {name}{mode} ==");
        }
        let out = run(opts);
        if !json {
            print!("{}", out.checker);
            if let Some(races) = &out.races {
                println!("-- races --");
                print!("{races}");
            }
        }
        outs.push((name, out));
    }
    let exit = exit_for(&outs);
    if json {
        println!("{}", json_doc(&outs, opts, exit));
    } else if exit == EXIT_ERROR {
        eprintln!("persistency violations found");
    } else if exit == EXIT_PERF {
        eprintln!("perf advisories only");
    }
    ExitCode::from(exit)
}
