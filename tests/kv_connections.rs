//! Connection lifecycle of the in-process KV server: what the server holds
//! on behalf of a client is released when the client goes away.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use respct_repro::apps::kv::server::{KvClient, KvServer};
use respct_repro::apps::kv::service::KvService;
use respct_repro::apps::kv::{KvRequest, KvResponse, KvServerConfig};
use respct_repro::apps::Mode;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

fn active_connections(svc: &KvService) -> f64 {
    let text = svc.registry().to_prometheus();
    text.lines()
        .find_map(|l| l.strip_prefix("respct_kv_active_connections "))
        .expect("gauge exported")
        .parse()
        .expect("gauge value")
}

/// 300 connect → PING → close cycles leave no descriptor behind: the
/// server's handle on a connection (kept so shutdown can close it) goes
/// when the connection's reader exits, not when the server does.
#[test]
fn closed_connections_release_their_descriptors() {
    let cfg = KvServerConfig::builder()
        .mode(Mode::TransientDram)
        .ckpt_period(None)
        .build()
        .expect("config");
    let (svc, _) = KvService::open(cfg).expect("open");
    let guard = KvServer::start(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    // One warm-up cycle, so lazily opened descriptors are in the baseline.
    let cycle = |id: u32| {
        let mut c = KvClient::connect(guard.local_addr()).expect("connect");
        assert_eq!(
            c.call(id, &KvRequest::Ping).unwrap(),
            (id, KvResponse::Pong)
        );
    };
    let drained = || {
        let deadline = Instant::now() + Duration::from_secs(10);
        while active_connections(&svc) != 0.0 {
            assert!(Instant::now() < deadline, "connections never drained");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    cycle(0);
    drained();
    let before = open_fds();
    for id in 1..=300 {
        cycle(id);
    }
    drained();
    let after = open_fds();
    assert!(
        after <= before + 4,
        "descriptors leaked across 300 closed connections: {before} -> {after}"
    );
}
