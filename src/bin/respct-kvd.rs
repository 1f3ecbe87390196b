//! `respct-kvd` — the network-facing ResPCT key-value server.
//!
//! A thin shell over `respct_apps::kv`: parses flags, opens (or recovers)
//! the [`KvService`], starts the TCP front end and the metrics endpoint,
//! then parks until killed. All serving behavior lives in the library; see
//! `DESIGN.md` §3.10 for the protocol and the batch/backpressure policy.
//!
//! The persistence substrate comes from `RESPCT_BACKEND`; with
//! `RESPCT_BACKEND=mmap:/path/to/kv.pool` the server survives SIGKILL —
//! restarting it against the same file recovers the last checkpoint. Pair
//! with `RESPCT_PIPELINE=K` for the epoch-ring pipelined drain.
//!
//! ```text
//! RESPCT_BACKEND=mmap:/tmp/kv.pool respct-kvd --addr 127.0.0.1:7878 \
//!     --metrics-addr 127.0.0.1:7879 --workers 4 --sync
//! ```
//!
//! Readiness is announced on stdout (`kv listening <addr>` /
//! `metrics listening <addr>`), which is how `tests/kv_crash.rs` and the
//! benchmark find ephemeral ports.

use std::time::Duration;

use respct_repro::apps::kv::server::KvServer;
use respct_repro::apps::kv::service::KvService;
use respct_repro::apps::kv::{Durability, KvServerConfig, KvServerConfigBuilder};
use respct_repro::apps::Mode;
use respct_repro::obs::MetricsServer;

/// `--mode` values, each with the store engine it selects.
const MODES: [(&str, Mode); 3] = [
    ("respct", Mode::Respct),
    ("dram", Mode::TransientDram),
    ("nvmm", Mode::TransientNvmm),
];

/// The flags: the serve address, the metrics endpoint if any, and the
/// store configuration (validated by `build`, so a bad combination exits
/// with its message).
fn parse_flags() -> (String, Option<String>, KvServerConfigBuilder) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut metrics_addr = None;
    let mut cfg = KvServerConfig::builder();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| exit_with(format_args!("{arg} needs a value")))
        };
        cfg = match arg.as_str() {
            "--addr" => {
                addr = val();
                cfg
            }
            "--metrics-addr" => {
                metrics_addr = Some(val());
                cfg
            }
            "--mode" => {
                let v = val();
                let Some(&(_, mode)) = MODES.iter().find(|(name, _)| *name == v) else {
                    exit_with(format_args!("unknown --mode {v} (respct|dram|nvmm)"))
                };
                cfg.mode(mode)
            }
            "--workers" => cfg.workers(int(&arg, &val())),
            "--queue" => cfg.queue_capacity(int(&arg, &val())),
            "--batch" => cfg.max_batch(int(&arg, &val())),
            "--value-max" => cfg.max_value_len(int(&arg, &val())),
            "--buckets" => cfg.nbuckets(int(&arg, &val())),
            "--pool-bytes" => cfg.pool_bytes(int(&arg, &val())),
            "--sync" => cfg.durability(Durability::Sync),
            "--period-ms" => {
                let ms: u64 = int(&arg, &val());
                cfg.ckpt_period((ms > 0).then(|| Duration::from_millis(ms)))
            }
            "--help" | "-h" => {
                eprintln!("{}", help());
                std::process::exit(0);
            }
            other => exit_with(format_args!("unknown flag {other} (try --help)")),
        };
    }
    (addr, metrics_addr, cfg)
}

/// The `--help` text, its defaults read from [`KvServerConfig::default`].
fn help() -> String {
    let d = KvServerConfig::default();
    let mode = MODES
        .iter()
        .find(|(_, m)| *m == d.mode())
        .map_or("?", |(name, _)| name);
    let durability = match d.durability() {
        Durability::Sync => "sync",
        Durability::Async => "async",
    };
    let period = d.ckpt_period().map_or(0, |p| p.as_millis());
    format!(
        "flags: --addr A:P          serve address (default 127.0.0.1:7878; port 0 = ephemeral)\n       \
         --metrics-addr A:P  metrics HTTP endpoint (off unless given)\n       \
         --mode M            respct|dram|nvmm store engine (default {mode})\n       \
         --workers N         worker threads (default {})\n       \
         --queue N           per-worker bounded queue depth (default {})\n       \
         --batch N           max requests per RP batch (default {})\n       \
         --value-max N       largest PUT value in bytes (default {})\n       \
         --buckets N         hash buckets (default {})\n       \
         --pool-bytes N      pool/arena size (default {} MiB)\n       \
         --sync              acknowledge writes only after checkpoint (default {durability})\n       \
         --period-ms N       periodic checkpoint interval, 0 = off (default {period})\n\n       \
         env: RESPCT_BACKEND=optane|dram|sim|mmap:<path>, RESPCT_PIPELINE=K",
        d.workers(),
        d.queue_capacity(),
        d.max_batch(),
        d.max_value_len(),
        d.nbuckets(),
        d.pool_bytes() >> 20,
    )
}

/// The integer value `v` of `flag`, or exit.
fn int<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| exit_with(format_args!("{flag}: expected an integer, got {v:?}")))
}

/// Exits with status 1 and `msg` on stderr — what an operator gets for bad
/// flags and for a server that cannot be configured, opened or bound (an
/// unmappable `--pool-bytes`, a bad `RESPCT_BACKEND`, a port in use),
/// instead of a panic.
fn exit_with(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("respct-kvd: {msg}");
    std::process::exit(1)
}

fn main() {
    let (addr, metrics_addr, cfg) = parse_flags();
    let cfg = cfg
        .build()
        .unwrap_or_else(|e| exit_with(format_args!("invalid configuration: {e}")));

    let (service, recovered) =
        KvService::open(cfg).unwrap_or_else(|e| exit_with(format_args!("open store: {e}")));
    if let Some(report) = recovered {
        println!(
            "recovered pool: epoch {} rolled back, {} cells scanned, {} restored",
            report.failed_epoch, report.cells_scanned, report.cells_rolled_back
        );
    }

    let _metrics = metrics_addr.as_deref().map(|endpoint| {
        let guard = MetricsServer::serve(std::sync::Arc::clone(service.registry()), endpoint)
            .unwrap_or_else(|e| exit_with(format_args!("bind metrics endpoint {endpoint}: {e}")));
        println!("metrics listening {}", guard.local_addr());
        guard
    });

    let server = KvServer::start(std::sync::Arc::clone(&service), addr.as_str())
        .unwrap_or_else(|e| exit_with(format_args!("bind {addr}: {e}")));
    println!("kv listening {}", server.local_addr());
    // Readiness lines must not sit in libc's pipe buffer when the parent
    // is a test harness.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Serve until killed. SIGKILL is the expected exit: on the mmap
    // backend the next start recovers from the last checkpoint.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
