//! SIGKILL-under-load for the TCP KV server (ISSUE 9, satellite 3).
//!
//! Starts `respct-kvd` on the mmap backend in sync-durability mode with the
//! periodic checkpointer off — the only checkpoints are the ones write
//! batches force before acknowledging. Two connections pipeline PUTs at it;
//! once a few hundred are acknowledged the server is SIGKILLed mid-load.
//! The pool file is then recovered in *this* process: `Pool::verify` must
//! come back clean (the dirty epoch rolled back), and **every acknowledged
//! write must be present with intact bytes** — that is the sync-mode
//! contract (`end_batch` checkpoints before any response is released).
//! Unacknowledged writes may or may not survive; BUSY rejections must not
//! be counted as acknowledgements. The same run is repeated with
//! `RESPCT_PIPELINE=2`, where the contract additionally needs the sync
//! acknowledgement to wait for the background drain's ring commit.
//!
//! A second test drives the binary's serving + live-metrics path the way an
//! operator does: ephemeral ports from the readiness lines, a few requests,
//! then a scrape of both HTTP routes.
#![cfg(unix)]

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use respct_repro::apps::kv::server::KvClient;
use respct_repro::apps::kv::{fill_value, KvRequest, KvResponse};
use respct_repro::ds::PHashMap;
use respct_repro::pmem::PAddr;
use respct_repro::respct::{Pool, PoolConfig};

const VALUE_LEN: usize = 64;
const ACK_TARGET: usize = 300;
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);

/// Spawns `respct-kvd` on ephemeral ports with a 64 MiB pool plus `extra`
/// flags, `RESPCT_PIPELINE` set to `pipeline` (`None` = unset); returns the
/// child and the addresses its readiness lines announce (the metrics line,
/// printed first, only under `--metrics-addr`).
fn spawn_kvd(
    backend: &str,
    pipeline: Option<&str>,
    extra: &[&str],
) -> (Child, std::net::SocketAddr, Option<std::net::SocketAddr>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_respct-kvd"));
    match pipeline {
        Some(k) => cmd.env("RESPCT_PIPELINE", k),
        None => cmd.env_remove("RESPCT_PIPELINE"),
    };
    let mut child = cmd
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .args(["--pool-bytes", &(64 << 20).to_string()])
        .args(extra)
        .env("RESPCT_BACKEND", backend)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn respct-kvd");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut metrics = None;
    let addr = loop {
        let line = rx
            .recv_timeout(SETUP_TIMEOUT)
            .expect("kvd readiness line before timeout");
        if let Some(addr) = line.strip_prefix("metrics listening ") {
            metrics = Some(addr.parse().expect("kvd printed a metrics address"));
        }
        if let Some(addr) = line.strip_prefix("kv listening ") {
            break addr.parse().expect("kvd printed a socket address");
        }
    };
    (child, addr, metrics)
}

#[test]
fn sigkill_under_load_keeps_every_acked_sync_write() {
    for pipeline in [None, Some("2")] {
        sigkill_under_load(pipeline);
    }
}

fn sigkill_under_load(pipeline: Option<&str>) {
    let path = std::env::temp_dir().join(format!("respct_kv_crash_{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut child, addr, _) = spawn_kvd(
        &format!("mmap:{}", path.display()),
        pipeline,
        &["--batch", "8", "--sync", "--period-ms", "0"],
    );

    // Acked keys, collected by the reader threads. The put for key k
    // carried the deterministic fill for (k, seed 1).
    let acked: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for conn in 0..2u64 {
        let client = KvClient::connect(addr).expect("connect to kvd");
        let (mut wh, mut rh) = client.split();
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        let stop_w = Arc::clone(&stop);
        // Writer: pipeline PUTs until the server dies or the test stops us.
        threads.push(std::thread::spawn(move || {
            let mut value = vec![0u8; VALUE_LEN];
            for j in 0..200_000u32 {
                if stop_w.load(Ordering::Relaxed) {
                    break;
                }
                let key = (conn << 32) | u64::from(j);
                fill_value(&mut value, key, 1);
                wh.send(
                    j,
                    &KvRequest::Put {
                        key,
                        value: value.clone(),
                    },
                );
                if j % 16 == 15 && wh.flush().is_err() {
                    break;
                }
            }
            let _ = wh.flush();
        }));
        // Reader: every Ok is a durable-write acknowledgement.
        threads.push(std::thread::spawn(move || {
            loop {
                match rh.recv() {
                    Ok(Some((id, KvResponse::Ok))) => {
                        let key = (conn << 32) | u64::from(id);
                        acked.lock().unwrap().insert(key);
                    }
                    // BUSY = not executed; anything else unexpected here.
                    Ok(Some((_, KvResponse::Busy))) => {}
                    Ok(Some((id, other))) => {
                        if !stop.load(Ordering::Relaxed) {
                            panic!("unexpected response to put {id}: {other:?}");
                        }
                        break;
                    }
                    Ok(None) | Err(_) => break,
                }
            }
        }));
    }

    // Let acknowledgements accumulate, then SIGKILL mid-load — no signal
    // handler, no flush, no unmap.
    let t0 = Instant::now();
    loop {
        let n = acked.lock().unwrap().len();
        if n >= ACK_TARGET {
            break;
        }
        assert!(
            t0.elapsed() < SETUP_TIMEOUT,
            "pipeline {pipeline:?}: only {n} acks after {:?}",
            t0.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("deliver SIGKILL");
    child.wait().expect("reap kvd");
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    let acked = Arc::try_unwrap(acked)
        .expect("all holders joined")
        .into_inner()
        .unwrap();
    assert!(acked.len() >= ACK_TARGET);

    // Recover in this process. The kill landed mid-epoch under load, so
    // the recovery path must run and the pool must verify clean.
    let cfg = PoolConfig::builder()
        .size(64 << 20)
        .recovery_threads(2)
        .build()
        .expect("config");
    let (pool, recovered) = Pool::open(&path, cfg).expect("reopen pool");
    recovered.expect("existing pool file must take the recovery path");
    let report = pool.verify();
    assert!(
        report.is_clean(),
        "pipeline {pipeline:?}: pool integrity after SIGKILL: {report:#?}"
    );

    // Every acknowledged sync write survived with intact bytes.
    let map = PHashMap::open(&pool, pool.root());
    let h = pool.register();
    let mut expect = vec![0u8; VALUE_LEN];
    let mut got = vec![0u8; VALUE_LEN];
    for &key in &acked {
        let blob = map
            .get(&h, key)
            .unwrap_or_else(|| panic!("pipeline {pipeline:?}: acked key {key:#x} lost"));
        let len: u64 = pool.region().load(PAddr(blob));
        assert_eq!(len as usize, VALUE_LEN, "length header of key {key:#x}");
        pool.region().load_bytes(PAddr(blob + 8), &mut got);
        fill_value(&mut expect, key, 1);
        assert_eq!(got, expect, "value bytes of key {key:#x}");
    }
    drop(h);

    drop(pool);
    let _ = std::fs::remove_file(&path);
}

/// Consumes one JSON value from the front of `s`; `None` if malformed.
fn json_value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let close = match s.chars().next()? {
        '{' => '}',
        '[' => ']',
        '"' => {
            let mut escaped = false;
            for (i, c) in s.char_indices().skip(1) {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => return Some(&s[i + 1..]),
                    _ => {}
                }
            }
            return None;
        }
        _ => {
            let end = s.find([',', '}', ']']).unwrap_or(s.len());
            let atom = s[..end].trim_end();
            let ok = matches!(atom, "true" | "false" | "null") || atom.parse::<f64>().is_ok();
            return ok.then(|| &s[end..]);
        }
    };
    let mut rest = s[1..].trim_start();
    if let Some(r) = rest.strip_prefix(close) {
        return Some(r);
    }
    loop {
        if close == '}' {
            rest = json_value(rest)?.trim_start().strip_prefix(':')?;
        }
        rest = json_value(rest)?.trim_start();
        if let Some(r) = rest.strip_prefix(close) {
            return Some(r);
        }
        rest = rest.strip_prefix(',')?;
    }
}

/// The serving + live-metrics path of the binary: both readiness lines, a
/// few requests over the wire, then `/metrics` and `/json` on the endpoint
/// `--metrics-addr` opened — runtime and KV families present, JSON valid.
#[test]
fn kvd_serves_requests_and_live_metrics() {
    let (mut child, addr, metrics) = spawn_kvd("optane", None, &["--metrics-addr", "127.0.0.1:0"]);
    let metrics = metrics.expect("--metrics-addr announces `metrics listening <addr>`");

    let mut client = KvClient::connect(addr).expect("connect to kvd");
    let mut value = vec![0u8; VALUE_LEN];
    for key in 0..8u64 {
        fill_value(&mut value, key, 1);
        let put = KvRequest::Put {
            key,
            value: value.clone(),
        };
        let (_, resp) = client.call(key as u32, &put).expect("put");
        assert_eq!(resp, KvResponse::Ok, "put {key}");
        let (_, resp) = client
            .call(key as u32, &KvRequest::Get { key })
            .expect("get");
        assert_eq!(resp, KvResponse::Value(value.clone()), "get {key}");
    }

    let get = |path: &str| {
        let mut conn = std::net::TcpStream::connect(metrics).expect("connect to metrics");
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        conn.write_all(req.as_bytes()).expect("send request");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).expect("read response");
        assert!(buf.starts_with("HTTP/1.1 200"), "GET {path}: {buf}");
        buf
    };
    let prom = get("/metrics");
    for family in [
        "respct_kv_requests_total",
        "respct_kv_queue_depth",
        "respct_checkpoint_total_ns",
    ] {
        assert!(prom.contains(family), "{family} missing from /metrics");
    }
    let json = get("/json");
    assert_eq!(json_value(r#"{"a":[1,"x\"y",{}],"b":null}"#), Some(""));
    assert!(json_value(r#"{"a":}"#).is_none() && json_value(r#"{"a":1"#).is_none());
    let body = json.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("respct_kv_requests_total"));
    assert_eq!(
        json_value(body).map(str::trim),
        Some(""),
        "/json is not one JSON value: {body}"
    );

    child.kill().expect("stop kvd");
    child.wait().expect("reap kvd");
}

/// Operator input the server cannot use ends the binary with a
/// `respct-kvd: …` message and a plain failure status — not a panic: an
/// unknown flag, a flag without its value, a malformed integer, a pool the
/// OS will not map (the message names the size), and a serve or metrics
/// address already in use.
#[test]
fn kvd_exits_with_a_message_on_an_unmappable_pool() {
    let huge = (1u64 << 62).to_string();
    let small = (16u64 << 20).to_string();
    let held = std::net::TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let taken = held.local_addr().expect("held port").to_string();
    let bind_taken = format!("bind {taken}");
    let bind_metrics_taken = format!("bind metrics endpoint {taken}");
    let huge_bytes = format!("{huge}-byte");
    let rows: [(&[&str], &[&str]); 6] = [
        (&["--bogus"], &["unknown flag --bogus"]),
        (&["--period-ms"], &["--period-ms needs a value"]),
        (&["--workers", "x"], &["--workers: expected an integer"]),
        (
            &["--addr", "127.0.0.1:0", "--pool-bytes", &huge],
            &["open store", &huge_bytes],
        ),
        (&["--addr", &taken, "--pool-bytes", &small], &[&bind_taken]),
        (
            &["--metrics-addr", &taken, "--pool-bytes", &small],
            &[&bind_metrics_taken],
        ),
    ];
    for (args, wants) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_respct-kvd"))
            .args(args)
            .env("RESPCT_BACKEND", "optane")
            .output()
            .expect("run respct-kvd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("respct-kvd: "), "{args:?}: {stderr}");
        for want in wants {
            assert!(stderr.contains(want), "{args:?}: want {want:?} in {stderr}");
        }
    }
    drop(held);
}
