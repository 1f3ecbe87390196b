//! Memcached-like key-value store benchmark harness (paper §5.3, Fig. 14).
//!
//! The paper modifies Memcached to keep its hash table of key-value objects
//! in NVMM and drives it with YCSB through 32 clients and 4 server worker
//! threads, measuring the *asynchronous writes* configuration (a response
//! returns before the object is durable — RocksDB's default consistency).
//! The network stack is not what that experiment measures, so this harness
//! keeps the store and the workload and replaces TCP with in-process
//! request queues: client threads push requests into per-worker channels
//! (sharded by key, as Memcached shards its hash table), workers execute
//! them against the store.
//!
//! The store itself is [`crate::kv::service::KvService`] — the same
//! transport-agnostic service the real TCP server (`respct-kvd`,
//! [`crate::kv::server`]) runs on; this file owns only threads and
//! channels. Workers follow the service's batch discipline: up to
//! `BATCH` queued requests per [`KvService::apply`] run, one restart
//! point per batch via [`KvService::end_batch`], and the §3.3.3
//! blocking-call protocol around the queue receive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use respct_ds::hash_u64;

use crate::kv::service::KvService;
use crate::kv::{fill_value, Durability, KvRequest, KvServerConfig};
use crate::ycsb::{Op, Workload};
use crate::Mode;

/// Requests per worker batch (one RP per batch, as on the TCP path).
const BATCH: usize = 16;

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
    /// writes, a heap budgeted for CoW churn (puts between checkpoints
    /// hold blobs until the deferred free drains), and the hot-path
    /// histograms off — the harness samples its own latencies.
    pub fn server(&self) -> KvServerConfig {
        let blob = (8 + self.value_size).next_multiple_of(64);
        KvServerConfig::builder()
            .mode(self.mode)
            .workers(self.workers)
            .max_batch(BATCH)
            .max_value_len(self.value_size.max(1))
            .nbuckets(self.nkeys / 2 + 1)
            .pool_bytes(self.nkeys as usize * blob * 8 + (64 << 20))
            .durability(Durability::Async)
            .ckpt_period(Some(self.ckpt_period))
            .metrics(false)
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
    /// Median per-request service time (sampled), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-request service time (sampled), nanoseconds.
    pub p99_ns: u64,
}

// ---- The server harness ---------------------------------------------------------

fn serve(cfg: &KvConfig, svc: &Arc<KvService>) -> KvOutput {
    // Load phase: one batch discipline even here.
    {
        let mut ctx = svc.worker_ctx();
        let mut value = vec![0u8; cfg.value_size];
        for k in 0..cfg.nkeys {
            fill_value(&mut value, k, 0);
            svc.apply(
                &mut ctx,
                &KvRequest::Put {
                    key: k,
                    value: value.clone(),
                },
            );
            if k % BATCH as u64 == BATCH as u64 - 1 {
                svc.end_batch(&mut ctx, true, BATCH);
            }
        }
        svc.end_batch(&mut ctx, true, (cfg.nkeys as usize) % BATCH);
    }
    let gets = AtomicU64::new(0);
    let puts = AtomicU64::new(0);
    // Sampled per-request service times (the paper also reports latency:
    // ResPCT's overhead stays within ~10 %).
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    // Per-worker request channels (key-sharded like Memcached).
    let mut senders: Vec<Sender<Op>> = Vec::new();
    let mut receivers = Vec::new();
    for _ in 0..cfg.workers {
        let (tx, rx) = bounded::<Op>(1024);
        senders.push(tx);
        receivers.push(rx);
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for rx in receivers {
            let svc = Arc::clone(svc);
            let (gets, puts) = (&gets, &puts);
            let latencies = &latencies;
            let value_size = cfg.value_size;
            s.spawn(move || {
                let mut ctx = svc.worker_ctx();
                let mut seed = 1u64;
                let mut local_lat = Vec::new();
                let mut n = 0u64;
                let mut batch: Vec<Op> = Vec::with_capacity(BATCH);
                loop {
                    // Blocking-call protocol around the blocking receive
                    // (§3.3.3): with the flag raised, a checkpoint can
                    // complete while this worker waits for requests.
                    let msg = svc.blocked(&mut ctx, || rx.recv());
                    let Ok(op) = msg else { break };
                    batch.push(op);
                    while batch.len() < BATCH {
                        let Ok(op) = rx.try_recv() else { break };
                        batch.push(op);
                    }
                    let len = batch.len();
                    let mut wrote = false;
                    for op in batch.drain(..) {
                        // Sample every 32nd request's service time.
                        let t = n.is_multiple_of(32).then(Instant::now);
                        n += 1;
                        match op {
                            Op::Get(k) => {
                                let _ = svc.apply(&mut ctx, &KvRequest::Get { key: k });
                                gets.fetch_add(1, Ordering::Relaxed);
                            }
                            Op::Put(k) => {
                                seed += 1;
                                let mut value = vec![0u8; value_size];
                                fill_value(&mut value, k, seed);
                                svc.apply(&mut ctx, &KvRequest::Put { key: k, value });
                                puts.fetch_add(1, Ordering::Relaxed);
                                wrote = true;
                            }
                        }
                        if let Some(t) = t {
                            local_lat.push(t.elapsed().as_nanos() as u64);
                        }
                    }
                    svc.end_batch(&mut ctx, wrote, len);
                }
                latencies.lock().append(&mut local_lat);
            });
        }
        // Clients generate the YCSB run phase.
        let workload = &cfg.workload;
        for c in 0..cfg.clients {
            let nworkers = cfg.workers;
            let ops = cfg.ops_per_client;
            let senders = senders.clone();
            s.spawn(move || {
                let mut rng = Workload::rng(0xc11e47 + c as u64);
                for _ in 0..ops {
                    let op = workload.next(&mut rng);
                    let key = match op {
                        Op::Get(k) | Op::Put(k) => k,
                    };
                    let w = (hash_u64(key) % nworkers as u64) as usize;
                    // Asynchronous writes: clients do not wait for
                    // durability (or even execution) of their requests.
                    if senders[w].send(op).is_err() {
                        break;
                    }
                }
            });
        }
        // Workers exit when the last client drops its sender clones.
        drop(senders);
    });
    let duration = t0.elapsed();
    let g = gets.load(Ordering::Relaxed);
    let p = puts.load(Ordering::Relaxed);
    let ops = g + p;
    let mut lat = latencies.into_inner();
    lat.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lat.is_empty() {
            0
        } else {
            lat[((lat.len() - 1) as f64 * q) as usize]
        }
    };
    KvOutput {
        duration,
        ops,
        gets: g,
        puts: p,
        kops_per_sec: ops as f64 / duration.as_secs_f64() / 1e3,
        p50_ns: pct(0.5),
        p99_ns: pct(0.99),
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
