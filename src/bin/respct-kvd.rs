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
use respct_repro::apps::kv::{Durability, KvServerConfig};
use respct_repro::apps::Mode;
use respct_repro::obs::MetricsServer;

struct Opts {
    addr: String,
    metrics_addr: Option<String>,
    mode: Mode,
    workers: usize,
    queue: usize,
    batch: usize,
    value_max: usize,
    buckets: u64,
    pool_bytes: usize,
    sync: bool,
    period_ms: u64,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        addr: "127.0.0.1:7878".to_string(),
        metrics_addr: None,
        mode: Mode::Respct,
        workers: 2,
        queue: 1024,
        batch: 16,
        value_max: 4096,
        buckets: 16_384,
        pool_bytes: 256 << 20,
        sync: false,
        period_ms: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| exit_with(format_args!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--addr" => o.addr = val(),
            "--metrics-addr" => o.metrics_addr = Some(val()),
            "--mode" => {
                o.mode = match val().as_str() {
                    "respct" => Mode::Respct,
                    "dram" => Mode::TransientDram,
                    "nvmm" => Mode::TransientNvmm,
                    other => exit_with(format_args!("unknown --mode {other} (respct|dram|nvmm)")),
                };
            }
            "--workers" => o.workers = int(&arg, &val()),
            "--queue" => o.queue = int(&arg, &val()),
            "--batch" => o.batch = int(&arg, &val()),
            "--value-max" => o.value_max = int(&arg, &val()),
            "--buckets" => o.buckets = int(&arg, &val()),
            "--pool-bytes" => o.pool_bytes = int(&arg, &val()),
            "--sync" => o.sync = true,
            "--period-ms" => o.period_ms = int(&arg, &val()),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --addr A:P          serve address (default 127.0.0.1:7878; port 0 = ephemeral)\n       \
                     --metrics-addr A:P  metrics HTTP endpoint (off unless given)\n       \
                     --mode M            respct|dram|nvmm store engine (default respct)\n       \
                     --workers N         worker threads (default 2)\n       \
                     --queue N           per-worker bounded queue depth (default 1024)\n       \
                     --batch N           max requests per RP batch (default 16)\n       \
                     --value-max N       largest PUT value in bytes (default 4096)\n       \
                     --buckets N         hash buckets (default 16384)\n       \
                     --pool-bytes N      pool/arena size (default 256 MiB)\n       \
                     --sync              acknowledge writes only after checkpoint\n       \
                     --period-ms N       periodic checkpoint interval, 0 = off (default 8)\n\n       \
                     env: RESPCT_BACKEND=optane|dram|sim|mmap:<path>, RESPCT_PIPELINE=K"
                );
                std::process::exit(0);
            }
            other => exit_with(format_args!("unknown flag {other} (try --help)")),
        }
    }
    o
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
    let o = parse_opts();
    let cfg = KvServerConfig::builder()
        .mode(o.mode)
        .workers(o.workers)
        .queue_capacity(o.queue)
        .max_batch(o.batch)
        .max_value_len(o.value_max)
        .nbuckets(o.buckets)
        .pool_bytes(o.pool_bytes)
        .durability(if o.sync {
            Durability::Sync
        } else {
            Durability::Async
        })
        .ckpt_period((o.period_ms > 0).then(|| Duration::from_millis(o.period_ms)))
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

    let _metrics = o.metrics_addr.as_deref().map(|addr| {
        let guard = MetricsServer::serve(std::sync::Arc::clone(service.registry()), addr)
            .unwrap_or_else(|e| exit_with(format_args!("bind metrics endpoint {addr}: {e}")));
        println!("metrics listening {}", guard.local_addr());
        guard
    });

    let server = KvServer::start(std::sync::Arc::clone(&service), o.addr.as_str())
        .unwrap_or_else(|e| exit_with(format_args!("bind {}: {e}", o.addr)));
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
