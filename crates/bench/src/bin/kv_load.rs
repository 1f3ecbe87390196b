//! Open-loop zipfian load against the TCP KV server.
//!
//! Four in-process arms, each a full `KvService` + `KvServer` on an
//! ephemeral loopback port: checkpoints **off** (no periodic checkpointer),
//! and a periodic checkpointer draining **sync**, **async**, and
//! **pipelined** (`PoolConfig::epoch_pipeline(K)`). Clients are open-loop:
//! each request has a scheduled arrival time on a fixed-rate clock and its
//! latency is measured from that *schedule*, not from the actual send — so
//! a checkpoint stall that backs up the queue shows up in the tail instead
//! of silently slowing the arrival process (the coordinated-omission trap a
//! closed-loop client falls into). The paper's claim, in server clothes:
//! RPs sit at request-batch boundaries, so the off→async/pipelined p99 gap
//! stays small while sync drains eat the tail.
//!
//! Emits `BENCH_kv.json` (schema checked by `scripts/validate_bench_kv.py`).
//! With `--addr HOST:PORT` it instead drives an already-running `respct-kvd`
//! (the CI smoke path) and writes no file.
//!
//! This binary takes its own flags (not `respct_bench::args::BenchArgs`).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::PoolConfig;
use respct_apps::kv::server::{KvClient, KvServer};
use respct_apps::kv::service::KvService;
use respct_apps::kv::{fill_value, KvRequest, KvResponse, KvServerConfig};
use respct_apps::ycsb::{Op, Workload};
use respct_apps::Mode;
use respct_bench::table::{f3, Table};

struct Opts {
    addr: Option<String>,
    rate: u64,
    secs: f64,
    conns: usize,
    workers: usize,
    keys: u64,
    value: usize,
    read_pct: u8,
    period_ms: u64,
    pipeline: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        addr: None,
        rate: 20_000,
        secs: 1.0,
        conns: 2,
        workers: 2,
        keys: 10_000,
        value: 64,
        read_pct: 50,
        period_ms: 8,
        pipeline: 4,
        out: std::env::var("BENCH_KV_JSON").unwrap_or_else(|_| "BENCH_kv.json".to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => o.addr = Some(val("--addr")),
            "--rate" => o.rate = val("--rate").parse().expect("--rate: integer"),
            "--secs" => o.secs = val("--secs").parse().expect("--secs: float"),
            "--conns" => o.conns = val("--conns").parse().expect("--conns: integer"),
            "--workers" => o.workers = val("--workers").parse().expect("--workers: integer"),
            "--keys" => o.keys = val("--keys").parse().expect("--keys: integer"),
            "--value" => o.value = val("--value").parse().expect("--value: integer"),
            "--read-pct" => o.read_pct = val("--read-pct").parse().expect("--read-pct: 0..=100"),
            "--period-ms" => {
                o.period_ms = val("--period-ms").parse().expect("--period-ms: integer");
            }
            "--pipeline" => {
                o.pipeline = val("--pipeline").parse().expect("--pipeline: integer");
                assert!(
                    o.pipeline >= 2,
                    "--pipeline needs a ring depth of at least 2"
                );
            }
            "--out" => o.out = val("--out"),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --addr HOST:PORT  drive an external respct-kvd (no JSON output)\n       \
                     --rate N          total arrival rate, requests/s (default 20000)\n       \
                     --secs F          seconds of load per arm (default 1.0)\n       \
                     --conns N         client connections (default 2)\n       \
                     --workers N       server worker threads, in-process arms (default 2)\n       \
                     --keys N          zipfian key-space size (default 10000)\n       \
                     --value N         value bytes (default 64)\n       \
                     --read-pct N      GET percentage of the mix (default 50)\n       \
                     --period-ms N     checkpoint period for the on arms (default 8)\n       \
                     --pipeline K      epoch-ring depth for the pipelined arm (default 4)\n       \
                     --out PATH        output file (default $BENCH_KV_JSON or BENCH_kv.json)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    o
}

/// One measured arm: open-loop latency percentiles and response counts.
#[derive(Debug, Clone)]
struct ArmStats {
    throughput: f64,
    ok: u64,
    busy: u64,
    errors: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    mean_us: f64,
    ckpts: u64,
}

impl ArmStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"throughput\":{:.1},\"ok\":{},\"busy\":{},\"errors\":{},\
             \"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1},\
             \"mean_us\":{:.1},\"ckpts\":{}}}",
            self.throughput,
            self.ok,
            self.busy,
            self.errors,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.mean_us,
            self.ckpts,
        )
    }
}

fn pct(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx] as f64 / 1e3
}

/// Preloads `keys` values so GETs hit: windows of pipelined PUTs over one
/// connection, re-sending anything the server answered BUSY.
fn preload(addr: SocketAddr, keys: u64, value: usize) {
    let mut client = KvClient::connect(addr).expect("preload connect");
    let mut buf = vec![0u8; value];
    let mut pending: Vec<u64> = (0..keys).collect();
    while !pending.is_empty() {
        let mut retry = Vec::new();
        for window in pending.chunks(64) {
            for (i, &k) in window.iter().enumerate() {
                fill_value(&mut buf, k, 0);
                client.send(
                    i as u32,
                    &KvRequest::Put {
                        key: k,
                        value: buf.clone(),
                    },
                );
            }
            client.flush().expect("preload flush");
            for _ in window {
                let (id, resp) = client
                    .recv()
                    .expect("preload recv")
                    .expect("server closed during preload");
                match resp {
                    KvResponse::Ok => {}
                    KvResponse::Busy => retry.push(window[id as usize]),
                    other => panic!("preload put answered {other:?}"),
                }
            }
        }
        pending = retry;
    }
}

/// Drives `per_conn` open-loop requests over `conns` connections and folds
/// the per-request latencies (measured from scheduled arrival) into one
/// distribution.
fn drive(o: &Opts, addr: SocketAddr) -> (Vec<u64>, u64, u64, u64, f64) {
    let per_conn = ((o.rate as f64 * o.secs) as usize / o.conns).max(1);
    let interval_ns = 1_000_000_000u64 * o.conns as u64 / o.rate.max(1);
    let mut joins = Vec::new();
    for conn in 0..o.conns {
        let wl = Workload {
            zipf: respct_apps::ycsb::Zipfian::new(o.keys, 0.99),
            read_pct: o.read_pct,
        };
        let value = o.value;
        let client = KvClient::connect(addr).expect("load connect");
        let (mut wh, mut rh) = client.split().expect("split");
        // Scheduled arrival offsets, indexed by request id; written by the
        // sender just before the wire write, read by the receiver.
        let sched: Arc<Vec<AtomicU64>> =
            Arc::new((0..per_conn).map(|_| AtomicU64::new(0)).collect());
        let sched_w = Arc::clone(&sched);
        let t0 = Instant::now();
        let writer = std::thread::spawn(move || {
            let mut rng = Workload::rng(0x10ad + conn as u64);
            let mut buf = vec![0u8; value];
            for i in 0..per_conn {
                let due = Duration::from_nanos(i as u64 * interval_ns);
                loop {
                    let now = t0.elapsed();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep((due - now).min(Duration::from_micros(200)));
                }
                sched_w[i].store(t0.elapsed().as_nanos() as u64, Ordering::Release);
                let req = match wl.next(&mut rng) {
                    Op::Get(k) => KvRequest::Get { key: k },
                    Op::Put(k) => {
                        fill_value(&mut buf, k, 1 + i as u64);
                        KvRequest::Put {
                            key: k,
                            value: buf.clone(),
                        }
                    }
                };
                wh.send(i as u32, &req);
                if wh.flush().is_err() {
                    break;
                }
            }
        });
        let reader = std::thread::spawn(move || {
            let (mut lat, mut ok, mut busy, mut errors) =
                (Vec::with_capacity(per_conn), 0u64, 0u64, 0u64);
            for _ in 0..per_conn {
                match rh.recv() {
                    Ok(Some((id, resp))) => {
                        let sent = sched[id as usize].load(Ordering::Acquire);
                        let now = t0.elapsed().as_nanos() as u64;
                        match resp {
                            KvResponse::Ok | KvResponse::Value(_) | KvResponse::NotFound => {
                                ok += 1;
                                lat.push(now.saturating_sub(sent));
                            }
                            KvResponse::Busy => busy += 1,
                            KvResponse::Pong | KvResponse::Error(_) => errors += 1,
                        }
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            (lat, ok, busy, errors, t0.elapsed().as_secs_f64())
        });
        joins.push((writer, reader));
    }
    let (mut lat, mut ok, mut busy, mut errors, mut wall) = (Vec::new(), 0, 0, 0, 0.0f64);
    for (w, r) in joins {
        w.join().expect("writer");
        let (l, o_, b, e, t) = r.join().expect("reader");
        lat.extend(l);
        ok += o_;
        busy += b;
        errors += e;
        wall = wall.max(t);
    }
    (lat, ok, busy, errors, wall)
}

fn measure(o: &Opts, addr: SocketAddr, ckpts: u64) -> ArmStats {
    preload(addr, o.keys, o.value);
    let (mut lat, ok, busy, errors, wall) = drive(o, addr);
    lat.sort_unstable();
    ArmStats {
        throughput: ok as f64 / wall.max(1e-9),
        ok,
        busy,
        errors,
        p50_us: pct(&lat, 0.50),
        p99_us: pct(&lat, 0.99),
        p999_us: pct(&lat, 0.999),
        mean_us: lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 / 1e3,
        ckpts,
    }
}

/// Spins up a full server for one arm, loads it, and tears it down.
fn run_arm(o: &Opts, name: &str) -> ArmStats {
    let pool_bytes = 256 << 20;
    let pool = |async_on: bool, k: usize| {
        PoolConfig::builder()
            .size(pool_bytes)
            .async_checkpoint(async_on)
            .epoch_pipeline(k)
            .build()
            .expect("pool config")
    };
    let mut b = KvServerConfig::builder()
        .mode(Mode::Respct)
        .workers(o.workers)
        .queue_capacity(4096)
        .max_batch(16)
        .max_value_len(o.value.max(1))
        .nbuckets(o.keys / 2 + 1)
        .pool_bytes(pool_bytes)
        .metrics(false);
    b = match name {
        "off" => b.ckpt_period(None),
        "sync" => b
            .ckpt_period(Some(Duration::from_millis(o.period_ms)))
            .pool_config(pool(false, 1)),
        "async" => b
            .ckpt_period(Some(Duration::from_millis(o.period_ms)))
            .pool_config(pool(true, 1)),
        "pipelined" => b
            .ckpt_period(Some(Duration::from_millis(o.period_ms)))
            .pool_config(pool(true, o.pipeline)),
        other => panic!("unknown arm {other}"),
    };
    let cfg = b.build().expect("server config");
    let (service, _) = KvService::open(cfg).expect("open service");
    let server = KvServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let stats = measure(o, server.local_addr(), 0);
    let ckpts = service
        .pool()
        .map_or(0, |p| p.runtime_metrics().ckpt_snapshot().count);
    drop(server);
    ArmStats { ckpts, ..stats }
}

fn main() {
    let o = parse_opts();

    // External-server mode: one measured pass, human-readable output only.
    if let Some(addr) = &o.addr {
        let addr: SocketAddr = addr.parse().expect("--addr HOST:PORT");
        println!(
            "# kv_load -> {addr}: rate={}req/s secs={} conns={} keys={} value={}B read={}%",
            o.rate, o.secs, o.conns, o.keys, o.value, o.read_pct
        );
        let s = measure(&o, addr, 0);
        println!(
            "throughput {} req/s; ok {} busy {} errors {}; p50 {}us p99 {}us p999 {}us",
            f3(s.throughput),
            s.ok,
            s.busy,
            s.errors,
            f3(s.p50_us),
            f3(s.p99_us),
            f3(s.p999_us),
        );
        assert_eq!(s.errors, 0, "external server answered with errors");
        assert!(s.ok > 0, "no successful responses");
        return;
    }

    println!(
        "# kv_load — open-loop zipfian TCP load, checkpoints off vs sync vs \
         async vs pipelined(K={}): rate={}req/s secs/arm={} conns={} \
         workers={} keys={} value={}B read={}% period={}ms",
        o.pipeline, o.rate, o.secs, o.conns, o.workers, o.keys, o.value, o.read_pct, o.period_ms
    );

    let arms = ["off", "sync", "async", "pipelined"];
    let run: Vec<ArmStats> = arms.iter().map(|a| run_arm(&o, a)).collect();
    let off_p99 = run[0].p99_us.max(1e-3);

    let mut table = Table::new(&[
        "arm", "req/s", "p50_us", "p99_us", "p999_us", "busy", "ckpts",
    ]);
    for (name, s) in arms.iter().zip(&run) {
        table.row(vec![
            (*name).to_string(),
            f3(s.throughput),
            f3(s.p50_us),
            f3(s.p99_us),
            f3(s.p999_us),
            s.busy.to_string(),
            s.ckpts.to_string(),
        ]);
    }
    table.print();
    println!(
        "p99 vs off: sync {}x, async {}x, pipelined {}x",
        f3(run[1].p99_us / off_p99),
        f3(run[2].p99_us / off_p99),
        f3(run[3].p99_us / off_p99),
    );

    let out = format!(
        "{{\"bench\":\"kv_load\",\"rate\":{},\"secs\":{},\"conns\":{},\
         \"workers\":{},\"keys\":{},\"value\":{},\"read_pct\":{},\
         \"period_ms\":{},\"pipeline\":{},\
         \"off\":{},\"sync\":{},\"async\":{},\"pipelined\":{},\
         \"sync_p99_factor\":{:.3},\"async_p99_factor\":{:.3},\
         \"pipelined_p99_factor\":{:.3}}}\n",
        o.rate,
        o.secs,
        o.conns,
        o.workers,
        o.keys,
        o.value,
        o.read_pct,
        o.period_ms,
        o.pipeline,
        run[0].to_json(),
        run[1].to_json(),
        run[2].to_json(),
        run[3].to_json(),
        run[1].p99_us / off_p99,
        run[2].p99_us / off_p99,
        run[3].p99_us / off_p99,
    );
    match std::fs::write(&o.out, &out) {
        Ok(()) => println!("(written to {})", o.out),
        Err(e) => {
            eprintln!("failed to write {}: {e}", o.out);
            std::process::exit(1);
        }
    }
}
