//! `kv_serve`: the real `respct-kvd` binary as a child process, loaded
//! over TCP by this process — the operator's view of the system.
//!
//! Phase `sat` is a closed loop that keeps a fixed number of requests
//! outstanding, run in alternating windows against the ResPCT server and
//! a second `respct-kvd` started with `--mode nvmm` (the transient twin of
//! the service). The traced run adds phase `rate`, an open loop at a fixed
//! rate, and the layers underneath a request, measured in process on the
//! same request stream: the wire codec and `KvService`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use respct_apps::kv::service::KvService;
use respct_apps::kv::{wire, Durability, KvRequest, KvResponse, KvServerConfig};

use crate::guard::ChildGuard;
use crate::json::Json;
use crate::loadgen::{drive, make_value, Conn, Pace, Source, WindowStats};
use crate::metrics::Outcome;
use crate::plan::{peak_rss_mib, target_dir, Plan, LOAD_THREADS, WINDOW};
use crate::stats::{capped_percentile, median, percentile, undisturbed_rate};
use crate::trace::{ThreadTrace, Tracer};

/// Requests per `end_batch` in the in-process service section: the
/// server's default `max_batch`.
const BATCH: usize = 16;
/// How long a freshly spawned server may take to announce its address.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Builds `respct-kvd` from the repository at `root` and returns the path
/// of the binary. The build is a no-op after the first run.
pub fn build_kvd(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").exists() || !root.join("src/bin/respct-kvd.rs").exists() {
        return Err(format!(
            "{} is not the root of the repository: respct-kvd is built from there",
            root.display()
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "respct-kvd",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building respct-kvd failed: {status}"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its own working
    // directory, which was `root`.
    let bin = root.join(target_dir()).join("release").join("respct-kvd");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "cargo built respct-kvd but {} is missing",
            bin.display()
        ))
    }
}

/// A running `respct-kvd`. Dropping it kills and reaps the process.
struct Kvd {
    child: Option<ChildGuard>,
    stdout: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Kvd {
    /// Spawns the server with its defaults; `mode` adds `--mode <mode>`.
    fn spawn(bin: &Path, mode: Option<&str>) -> Result<Kvd, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if let Some(mode) = mode {
            cmd.args(["--mode", mode]);
        }
        // The defaults under test: emulated-Optane backend, sync drain.
        cmd.env_remove("RESPCT_BACKEND")
            .env_remove("RESPCT_PIPELINE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let out = child.stdout.take().expect("piped stdout");
        let child = ChildGuard::new(child);
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            // Keeps reading after the address line so the server never
            // blocks on a full pipe.
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("kv listening ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let addr = rx
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| "respct-kvd did not announce its address".to_string())
            .and_then(|a| a.parse().map_err(|e| format!("bad address {a:?}: {e}")));
        match addr {
            Ok(addr) => Ok(Kvd {
                child: Some(child),
                stdout: Some(stdout),
                addr,
            }),
            Err(e) => {
                drop(child);
                let _ = stdout.join();
                Err(e)
            }
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// PUTs every key once over one connection, 64 outstanding.
    fn preload(&self, plan: &Plan) -> Result<WindowStats, String> {
        let mut conn = self.connect()?;
        let mut source = Source::Preload {
            next: 0,
            end: plan.kv_keys,
        };
        let w = drive(
            &mut conn,
            &mut source,
            &Pace::Closed { window: 64 },
            Duration::from_secs(10),
            plan.kv_value_len,
            None,
        );
        if w.ok == plan.kv_keys {
            Ok(w)
        } else {
            Err(format!("pre-load stored {} of {} keys", w.ok, plan.kv_keys))
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("live child").pid()
    }

    fn is_alive(&self) -> bool {
        self.child.as_ref().is_some_and(ChildGuard::is_alive)
    }
}

impl Drop for Kvd {
    fn drop(&mut self) {
        // Kill and reap first: that closes the pipe the reader thread is
        // blocked on, so the join below returns.
        drop(self.child.take());
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// The load side of one server: a connection and a request stream per
/// load thread.
struct Client {
    conns: Vec<Conn>,
    sources: Vec<Source>,
    value_len: usize,
}

impl Client {
    fn connect(server: &Kvd, plan: &Plan, stream: u64) -> Result<Client, String> {
        let conns = (0..LOAD_THREADS)
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let sources = (0..LOAD_THREADS as u64)
            .map(|c| {
                let seed = plan.seed ^ (stream << 40) ^ (c << 32);
                Source::mix(plan.kv_keys, seed, LOAD_THREADS as u64, c)
            })
            .collect();
        Ok(Client {
            conns,
            sources,
            value_len: plan.kv_value_len,
        })
    }

    /// One window on every connection at once; the per-connection results
    /// are merged. `span` names the window in a traced run.
    fn window(
        &mut self,
        pace: Pace,
        length: Duration,
        trace: Option<(&Tracer, &'static str)>,
    ) -> WindowStats {
        let start = Barrier::new(self.conns.len());
        let value_len = self.value_len;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.sources.iter_mut())
                .map(|(conn, source)| {
                    let start = &start;
                    s.spawn(move || {
                        let mut tt = trace.map(|(tracer, span)| {
                            let mut tt = tracer.thread();
                            tt.enter(span);
                            tt
                        });
                        start.wait();
                        let w = drive(conn, source, &pace, length, value_len, tt.as_mut());
                        if let Some(tt) = tt.as_mut() {
                            tt.exit();
                        }
                        w
                    })
                })
                .collect();
            let mut merged = WindowStats::default();
            for h in handles {
                merged.absorb(h.join().expect("load thread"));
            }
            merged
        })
    }
}

fn open_pace(plan: &Plan) -> Pace {
    Pace::Open {
        interval_ns: 1_000_000_000 * LOAD_THREADS as u64 / plan.kv_rate,
    }
}

fn closed_pace(plan: &Plan) -> Pace {
    Pace::Closed {
        window: plan.kv_sat_window,
    }
}

/// Spawns and pre-loads the server(s) `plan.setup_reps` times; returns the
/// last set and the median time one set-up took.
fn set_up(
    bin: &Path,
    plan: &Plan,
    with_twin: bool,
    out: &mut Outcome,
) -> Result<(Kvd, Option<Kvd>, f64), String> {
    let mut times = Vec::new();
    let mut servers = None;
    for _ in 0..plan.setup_reps {
        drop(servers.take());
        let t0 = Instant::now();
        let respct = Kvd::spawn(bin, None)?;
        let mut loaded = respct.preload(plan)?;
        let twin = if with_twin {
            let twin = Kvd::spawn(bin, Some("nvmm"))?;
            loaded.absorb(twin.preload(plan)?);
            Some(twin)
        } else {
            None
        };
        times.push(t0.elapsed().as_secs_f64());
        out.attempted += loaded.sent;
        out.failed += loaded.failed();
        servers = Some((respct, twin));
    }
    let (respct, twin) = servers.expect("setup_reps >= 1");
    Ok((respct, twin, median(&times)))
}

fn rate_of(w: &WindowStats) -> f64 {
    w.ok as f64 / w.secs
}

fn tally(out: &mut Outcome, w: &WindowStats) {
    out.attempted += w.sent;
    out.failed += w.failed();
}

/// Failures by kind, so a non-zero `failed` says what went wrong.
#[derive(Default)]
struct Failures {
    busy: u64,
    wrong: u64,
    unanswered: u64,
}

impl Failures {
    fn add(&mut self, w: &WindowStats) {
        self.busy += w.busy;
        self.wrong += w.wrong;
        self.unanswered += w.unanswered;
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("busy", Json::Num(self.busy as f64)),
            ("wrong", Json::Num(self.wrong as f64)),
            ("unanswered", Json::Num(self.unanswered as f64)),
        ])
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(plan: &Plan, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bin = build_kvd(root)?;
    let (respct, twin, setup_s) = set_up(&bin, plan, true, &mut out)?;
    let twin = twin.expect("asked for the twin");
    let mut to_respct = Client::connect(&respct, plan, 0)?;
    let mut to_twin = Client::connect(&twin, plan, 1)?;

    let (mut respct_failures, mut twin_failures) = (Failures::default(), Failures::default());
    // Phase `sat`: the same closed loop against each server in turn.
    let (mut sat, mut twin_sat) = (Vec::new(), Vec::new());
    for _ in 0..plan.windows(2) {
        let r = to_respct.window(closed_pace(plan), WINDOW, None);
        let t = to_twin.window(closed_pace(plan), WINDOW, None);
        tally(&mut out, &r);
        tally(&mut out, &t);
        respct_failures.add(&r);
        twin_failures.add(&t);
        sat.push(rate_of(&r));
        twin_sat.push(rate_of(&t));
    }
    if !respct.is_alive() || !twin.is_alive() {
        return Err("a respct-kvd under test died during the run".into());
    }
    out.set("setup_s", setup_s);
    out.set(
        "slowdown_vs_transient",
        undisturbed_rate(&twin_sat) / undisturbed_rate(&sat),
    );
    out.set(
        "peak_rss_mib",
        peak_rss_mib(respct.pid()).unwrap_or(f64::NAN),
    );
    out.note("ops_per_s", Json::Num(median(&sat)));
    let windows_json = |v: &[f64]| Json::Arr(v.iter().map(|&v| Json::Num(v)).collect());
    out.note("window_ops_per_s", windows_json(&sat));
    out.note("window_transient_ops_per_s", windows_json(&twin_sat));
    out.note("failures_respct", respct_failures.to_json());
    out.note("failures_twin", twin_failures.to_json());
    Ok(out)
}

/// Pushes the request stream through the codec in process.
fn wire_section(plan: &Plan, out: &mut Outcome) {
    use crate::micro::ns_per_call;
    use std::hint::black_box;
    let n = (plan.micro_calls / 5).max(1_000);
    let len = plan.kv_value_len;
    let mut source = Source::mix(plan.kv_keys, plan.seed, 1, 0);
    let reqs: Vec<KvRequest> = (0..n)
        .map(|_| source.next_request(len).expect("the mix never runs dry"))
        .collect();
    let resps: Vec<KvResponse> = reqs
        .iter()
        .map(|r| match r {
            KvRequest::Get { key } => KvResponse::Value(make_value(*key, 1, len)),
            _ => KvResponse::Ok,
        })
        .collect();
    let encode_req = |buf: &mut Vec<u8>, i: usize| wire::encode_request(buf, i as u32, &reqs[i]);
    let encode_resp = |buf: &mut Vec<u8>, i: usize| wire::encode_response(buf, i as u32, &resps[i]);
    let time_encode = |encode: &dyn Fn(&mut Vec<u8>, usize)| {
        let mut buf = Vec::with_capacity(2 * len);
        ns_per_call(n, |_| {
            let t0 = Instant::now();
            for i in 0..n as usize {
                buf.clear();
                encode(&mut buf, i);
                black_box(&buf);
            }
            t0.elapsed()
        })
    };
    out.set("kv_wire.encode_req_ns", time_encode(&encode_req));
    out.set("kv_wire.encode_resp_ns", time_encode(&encode_resp));
    // Payloads as the decoders see them: frames without the length prefix.
    let payloads = |encode: &dyn Fn(&mut Vec<u8>, usize)| -> Vec<Vec<u8>> {
        (0..n as usize)
            .map(|i| {
                let mut frame = Vec::new();
                encode(&mut frame, i);
                frame.split_off(wire::LEN_PREFIX)
            })
            .collect()
    };
    let req_payloads = payloads(&encode_req);
    let resp_payloads = payloads(&encode_resp);
    out.set(
        "kv_wire.decode_req_ns",
        ns_per_call(n, |_| {
            let t0 = Instant::now();
            for p in &req_payloads {
                black_box(wire::decode_request(p, 4096).expect("own frame decodes"));
            }
            t0.elapsed()
        }),
    );
    out.set(
        "kv_wire.decode_resp_ns",
        ns_per_call(n, |_| {
            let t0 = Instant::now();
            for p in &resp_payloads {
                black_box(wire::decode_response(p).expect("own frame decodes"));
            }
            t0.elapsed()
        }),
    );
}

/// What the in-process service loop measured.
struct ServiceRun {
    puts: u64,
    pwb: u64,
}

/// Opens a `KvService`, pre-loads it and runs the request stream through
/// one `WorkerCtx` in batches of [`BATCH`], timing `apply` and `end_batch`.
fn service_loop(
    plan: &Plan,
    durability: Durability,
    out: &mut Outcome,
    tt: &mut ThreadTrace<'_>,
    spans: [&'static str; 3],
) -> Result<ServiceRun, String> {
    let cfg = KvServerConfig::builder()
        .pool_bytes(plan.kv_pool_bytes)
        .durability(durability)
        .ckpt_period(None)
        .build()
        .map_err(|e| e.to_string())?;
    let (service, _) = KvService::open(cfg).map_err(|e| e.to_string())?;
    let mut ctx = service.worker_ctx();
    let len = plan.kv_value_len;
    let mut preload = Source::Preload {
        next: 0,
        end: plan.kv_keys,
    };
    let mut n = 0;
    while let Some(req) = preload.next_request(len) {
        out.attempted += 1;
        out.failed += u64::from(service.apply(&mut ctx, &req) != KvResponse::Ok);
        n += 1;
        if n % BATCH == 0 {
            service.end_batch(&mut ctx, durability == Durability::Async, BATCH);
        }
    }
    // Async durability leaves flushing to a checkpointer; none runs here,
    // so the loop below checkpoints itself every 64 batches, untimed —
    // about what the server's 8 ms period sees at saturation.
    let checkpoint = |ctx: &respct_apps::kv::service::WorkerCtx| {
        ctx.handle().expect("respct engine").checkpoint_here();
    };
    checkpoint(&ctx);
    let stats = service.pool().expect("respct engine").region().stats();
    let before = stats.snapshot();
    let mut source = Source::mix(plan.kv_keys, plan.seed, 1, 0);
    let requests = (plan.micro_calls / 10).max(BATCH as u64 * 64);
    let mut puts = 0;
    for batch in 0..requests / BATCH as u64 {
        let mut wrote = false;
        for _ in 0..BATCH {
            let req = source.next_request(len).expect("the mix never runs dry");
            let t0 = tt.now();
            let resp = service.apply(&mut ctx, &req);
            let ns = tt.now() - t0;
            out.attempted += 1;
            let good = match (&req, &resp) {
                (KvRequest::Get { key }, KvResponse::Value(v)) => {
                    tt.fold(spans[0], ns);
                    crate::loadgen::value_is_intact(*key, v, len)
                }
                (KvRequest::Put { .. }, KvResponse::Ok) => {
                    tt.fold(spans[1], ns);
                    puts += 1;
                    wrote = true;
                    true
                }
                _ => false,
            };
            out.failed += u64::from(!good);
        }
        let t0 = tt.now();
        service.end_batch(&mut ctx, wrote, BATCH);
        let t1 = tt.now();
        tt.leaf(spans[2], t0, t1);
        if durability == Durability::Async && batch % 64 == 63 {
            checkpoint(&ctx);
        }
    }
    checkpoint(&ctx);
    let pwb = stats.snapshot().since(&before).pwb;
    drop(ctx);
    Ok(ServiceRun { puts, pwb })
}

/// `KvService` under the server's request stream, without the server.
fn service_section(plan: &Plan, out: &mut Outcome, tt: &mut ThreadTrace<'_>) -> Result<(), String> {
    let spans = [
        "kv_service.apply_get",
        "kv_service.apply_put",
        "kv_service.end_batch",
    ];
    tt.enter("kv_service.async");
    let run = service_loop(plan, Durability::Async, out, tt, spans)?;
    tt.exit();
    out.set("kv_service.apply_get_ns", tt.mean_ns(spans[0]));
    out.set("kv_service.apply_put_ns", tt.mean_ns(spans[1]));
    out.set("kv_service.end_batch_ns", tt.mean_ns(spans[2]));
    out.set(
        "kv_service.flushed_bytes_per_put_byte",
        (run.pwb * respct_pmem::CACHE_LINE as u64) as f64
            / (run.puts * plan.kv_value_len as u64).max(1) as f64,
    );
    let sync_spans = [
        "kv_service.sync.apply_get",
        "kv_service.sync.apply_put",
        "kv_service.sync.end_batch",
    ];
    tt.enter("kv_service.sync");
    service_loop(plan, Durability::Sync, out, tt, sync_spans)?;
    tt.exit();
    out.set(
        "kv_service.end_batch_sync_us",
        tt.mean_ns(sync_spans[2]) / 1e3,
    );
    Ok(())
}

/// The traced run: every per-layer metric this workload exercises.
pub fn run_traced(plan: &Plan, root: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bin = build_kvd(root)?;
    let once = Plan {
        setup_reps: 1,
        ..plan.clone()
    };
    let (respct, _, _) = set_up(&bin, &once, false, &mut out)?;
    let extra_windows = plan.extra_windows();

    // Transport and thread-hop floor: one PING outstanding.
    let mut pinger = Client {
        conns: vec![respct.connect()?],
        sources: vec![Source::Ping],
        value_len: plan.kv_value_len,
    };
    let mut ping = pinger.window(
        Pace::Closed { window: 1 },
        WINDOW * extra_windows as u32,
        Some((tracer, "kv.ping")),
    );
    tally(&mut out, &ping);
    ping.latency_ns.sort_unstable();
    out.set(
        "kv_server.ping_rtt_us",
        percentile(&ping.latency_ns, 0.5) as f64 / 1e3,
    );
    drop(pinger);

    let mut client = Client::connect(&respct, plan, 0)?;
    let mut rate = WindowStats::default();
    let (mut tails, mut p50s) = (Vec::new(), Vec::new());
    for _ in 0..plan.windows(2) {
        let mut w = client.window(open_pace(plan), WINDOW, Some((tracer, "kv.rate.window")));
        tally(&mut out, &w);
        w.latency_ns.sort_unstable();
        let q = capped_percentile(w.latency_ns.len(), 0.99);
        tails.push((q, percentile(&w.latency_ns, q) as f64 / 1e3));
        p50s.push(percentile(&w.latency_ns, 0.5) as f64 / 1e3);
        rate.absorb(w);
    }
    // The generator's own spans are one histogram update per response:
    // this is the untraced number to within its noise.
    out.set("e2e.op_p50_us", median(&p50s));
    out.set(
        "kv_server.req_p99_us",
        median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()),
    );
    out.note(
        "req_tail_percentile",
        Json::Num(tails.iter().map(|t| t.0).fold(1.0, f64::min)),
    );
    out.note("req_tail_samples", Json::Num(rate.latency_ns.len() as f64));
    out.set(
        "kv_server.req_mean_us",
        rate.latency_ns.iter().sum::<u64>() as f64 / rate.latency_ns.len().max(1) as f64 / 1e3,
    );
    out.set(
        "kv_server.busy_ratio",
        rate.busy as f64 / rate.sent.max(1) as f64,
    );
    rate.late_ns.sort_unstable();
    let q = capped_percentile(rate.late_ns.len(), 0.99);
    out.set(
        "loadgen.late_p99_us",
        percentile(&rate.late_ns, q) as f64 / 1e3,
    );
    out.set("loadgen.sent", rate.sent as f64);
    out.set("loadgen.answered", rate.answered as f64);

    // Saturation with and without the client-side spans.
    let mut sat = |trace| -> f64 {
        let rates: Vec<f64> = (0..extra_windows)
            .map(|_| {
                let w = client.window(closed_pace(plan), WINDOW, trace);
                tally(&mut out, &w);
                rate_of(&w)
            })
            .collect();
        median(&rates)
    };
    let plain = sat(None);
    let traced = sat(Some((tracer, "kv.sat.window")));
    out.set("e2e.ops_per_s", plain);
    out.set("trace.overhead_ratio", plain / traced);
    if !respct.is_alive() {
        return Err("the respct-kvd under test died during the run".into());
    }
    drop(client);
    drop(respct);

    let mut tt = tracer.thread();
    tt.enter("kv_wire");
    wire_section(plan, &mut out);
    tt.exit();
    service_section(plan, &mut out, &mut tt)?;
    Ok(out)
}
