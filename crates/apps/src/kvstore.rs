//! Memcached-like key-value store benchmark harness (paper §5.3, Fig. 14).
//!
//! The paper modifies Memcached to keep its hash table of key-value objects
//! in NVMM and drives it with YCSB through 32 clients and 4 server worker
//! threads, measuring the *asynchronous writes* configuration (a response
//! returns before the object is durable — RocksDB's default consistency).
//! The network stack is not what that experiment measures, so this harness
//! keeps the store and the workload and replaces TCP with in-process
//! clients: each client thread enqueues its requests straight onto the
//! worker pool of the real TCP server ([`crate::kv::server`]), sharded by
//! key as Memcached shards its hash table, and asks for no answer.
//!
//! The store and its metrics are [`KvService`]'s and the workers the
//! server's: this file generates the workload and reads the service's own
//! `respct_kv_*` metrics over the timed phase.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::kv::server::{WorkItem, WorkerPool};
use crate::kv::service::KvService;
use crate::kv::{fill_value, Durability, KvRequest, KvServerConfig};
use crate::ycsb::{Op, Workload};
use crate::Mode;

/// Configuration for one KV benchmark run — a thin view over
/// [`KvServerConfig`] (see [`KvConfig::server`]) plus the workload shape.
#[derive(Debug, Clone)]
pub struct KvConfig {
    pub nkeys: u64,
    pub value_size: usize,
    /// Server worker threads (paper: 4).
    pub workers: usize,
    /// Client threads (paper: 32).
    pub clients: usize,
    /// Requests per client in the run phase.
    pub ops_per_client: usize,
    pub workload: Workload,
    pub mode: Mode,
    pub ckpt_period: Duration,
}

impl KvConfig {
    /// A small default suitable for tests.
    pub fn small(mode: Mode) -> KvConfig {
        KvConfig {
            nkeys: 2_000,
            value_size: 100,
            workers: 2,
            clients: 4,
            ops_per_client: 2_000,
            workload: Workload::balanced(2_000),
            mode,
            ckpt_period: Duration::from_millis(16),
        }
    }

    /// The [`KvServerConfig`] this run maps to: the paper's asynchronous
    /// writes, and a heap budgeted for CoW churn (puts between checkpoints
    /// hold blobs until the deferred free drains).
    pub fn server(&self) -> KvServerConfig {
        let blob = (8 + self.value_size).next_multiple_of(64);
        KvServerConfig::builder()
            .mode(self.mode)
            .workers(self.workers)
            .max_value_len(self.value_size.max(1))
            .nbuckets(self.nkeys / 2 + 1)
            .pool_bytes(self.nkeys as usize * blob * 8 + (64 << 20))
            .durability(Durability::Async)
            .ckpt_period(Some(self.ckpt_period))
            .build()
            .expect("KvConfig maps to a valid server config")
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy)]
pub struct KvOutput {
    pub duration: Duration,
    pub ops: u64,
    pub gets: u64,
    pub puts: u64,
    pub kops_per_sec: f64,
    /// Median per-request service time of the timed phase (the service's
    /// `respct_kv_op_ns` histogram), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-request service time of the timed phase,
    /// nanoseconds.
    pub p99_ns: u64,
}

/// A request no one waits for an answer to.
fn unanswered(req: KvRequest) -> WorkItem {
    WorkItem {
        id: 0,
        req,
        resp: None,
    }
}

/// A PUT of `key`'s fill for `seed`.
fn put(cfg: &KvConfig, key: u64, seed: u64) -> KvRequest {
    let mut value = vec![0u8; cfg.value_size];
    fill_value(&mut value, key, seed);
    KvRequest::Put { key, value }
}

fn serve(cfg: &KvConfig, svc: &Arc<KvService>) -> KvOutput {
    // Load phase: every key once, through the pool. Joining the pool
    // drains it, so no preload request runs into the timed phase.
    let pool = WorkerPool::start(svc);
    for key in 0..cfg.nkeys {
        pool.send(key, unanswered(put(cfg, key, 0)));
    }
    pool.join();

    let m = svc.kv_metrics();
    let (gets0, puts0, op_ns0) = (m.gets.get(), m.puts.get(), m.op_ns.snapshot());
    let pool = WorkerPool::start(svc);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..cfg.clients {
            let pool = &pool;
            s.spawn(move || {
                let mut rng = Workload::rng(0xc11e47 + c as u64);
                for seed in 1..=cfg.ops_per_client as u64 {
                    let (key, req) = match cfg.workload.next(&mut rng) {
                        Op::Get(key) => (key, KvRequest::Get { key }),
                        Op::Put(key) => (key, put(cfg, key, seed)),
                    };
                    // Asynchronous writes: clients do not wait for
                    // durability (or even execution) of their requests.
                    pool.send(key, unanswered(req));
                }
            });
        }
    });
    pool.join();
    let duration = t0.elapsed();
    let (gets, puts) = (m.gets.get() - gets0, m.puts.get() - puts0);
    let op_ns = m.op_ns.snapshot().since(&op_ns0);
    KvOutput {
        duration,
        ops: gets + puts,
        gets,
        puts,
        kops_per_sec: (gets + puts) as f64 / duration.as_secs_f64() / 1e3,
        p50_ns: op_ns.p50(),
        p99_ns: op_ns.p99(),
    }
}

/// Runs the KV benchmark in the configured mode.
pub fn run(cfg: &KvConfig) -> KvOutput {
    let (svc, _) = KvService::open(cfg.server()).expect("kv service");
    serve(cfg, &svc)
}

/// Runs the ResPCT mode with `sink` attached to the region before any pool
/// traffic — the analysis hook for the trace checker.
pub fn run_traced(cfg: &KvConfig, sink: Arc<dyn respct_pmem::TraceSink>) -> KvOutput {
    let (svc, _) = KvService::open_with_sink(cfg.server(), Some(sink)).expect("kv service");
    serve(cfg, &svc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_complete_all_ops() {
        for mode in Mode::ALL {
            let cfg = KvConfig {
                ops_per_client: 500,
                ..KvConfig::small(mode)
            };
            let out = run(&cfg);
            assert_eq!(
                out.ops,
                (cfg.clients * cfg.ops_per_client) as u64,
                "{mode:?}"
            );
            assert!(out.gets > 0 && out.puts > 0, "{mode:?}");
        }
    }

    #[test]
    fn config_maps_to_valid_server_view() {
        let cfg = KvConfig::small(Mode::Respct);
        let server = cfg.server();
        assert_eq!(server.mode(), Mode::Respct);
        assert_eq!(server.workers(), cfg.workers);
        assert_eq!(server.durability(), Durability::Async);
        assert_eq!(server.ckpt_period(), Some(cfg.ckpt_period));
        assert!(server.pool_bytes() > 64 << 20);
    }
}
