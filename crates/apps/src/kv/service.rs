//! The transport-agnostic KV service: engines, batch policy, metrics.
//!
//! [`KvService`] owns the store and the persistence policy; transports
//! (the in-process harness in [`crate::kvstore`], the TCP front end in
//! [`super::server`]) own threads and sockets. A transport worker calls
//! [`KvService::worker_ctx`] once, then loops: [`KvService::blocked`]
//! around its queue receive (the paper's §3.3.3 blocking-call protocol),
//! [`KvService::apply`] per request, [`KvService::end_batch`] after each
//! batch. **Restart points live only in `end_batch`** — never inside
//! `apply` — so a checkpoint stall can only park a worker between
//! batches, and the per-request persistence cost stays a handful of
//! InCLL stores.
//!
//! Engines mirror the paper's Fig. 14 comparison: transient DRAM,
//! transient emulated-NVMM, and ResPCT. The ResPCT engine stores values
//! as copy-on-write blobs (`[u64 len][bytes]`, 64-byte aligned): a PUT
//! writes a fresh blob while unreachable (no logging), atomically swings
//! the map's value cell with [`PHashMap::replace`], and defer-frees the
//! displaced blob. Replace/remove are single-bucket-lock atomic, so two
//! workers racing on one key cannot both free the same old blob.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use respct::{CheckpointerGuard, Pool, RecoveryReport, ThreadHandle};
use respct_ds::{hash_u64, PHashMap};
use respct_obs::{Counter, Histogram, MetricsRegistry, Unit};
use respct_pmem::{align_up, PAddr, Region};

use super::{Durability, KvError, KvRequest, KvResponse, KvServerConfig, RP_BATCH};
use crate::Mode;

/// Per-worker state: the registered [`ThreadHandle`] in ResPCT mode.
/// Create one per worker thread with [`KvService::worker_ctx`]; handles
/// must not be shared across threads.
pub struct WorkerCtx {
    handle: Option<ThreadHandle>,
}

impl WorkerCtx {
    /// The worker's thread handle (ResPCT engine only).
    pub fn handle(&self) -> Option<&ThreadHandle> {
        self.handle.as_ref()
    }
}

/// `respct_kv_*` counters shared with transports. Service-side ops are
/// counted by [`KvService::apply`]; the queue/connection counters are
/// public because only the transport sees those events.
pub struct KvMetrics {
    /// Requests executed (all opcodes, both transports).
    pub requests: Arc<Counter>,
    /// GETs executed.
    pub gets: Arc<Counter>,
    /// PUTs executed.
    pub puts: Arc<Counter>,
    /// DELETEs executed.
    pub deletes: Arc<Counter>,
    /// Requests rejected with BUSY (bounded-queue backpressure).
    pub busy: Arc<Counter>,
    /// Malformed frames rejected by the codec.
    pub wire_errors: Arc<Counter>,
    /// Connections accepted since start.
    pub connections: Arc<Counter>,
    /// Responses dropped because the connection's peer was gone when the
    /// worker finished (connection torn down mid-batch). A live peer never
    /// loses one: its reader reserves each answer's slot up front.
    pub dropped_responses: Arc<Counter>,
    /// Synchronous-durability checkpoints forced by write batches.
    pub sync_checkpoints: Arc<Counter>,
    /// Per-op service time.
    pub op_ns: Arc<Histogram>,
    /// Requests per batch (between two restart points).
    pub batch_size: Arc<Histogram>,
    /// Live connection count (backs the `respct_kv_active_connections`
    /// gauge).
    pub active_connections: Arc<AtomicU64>,
    /// Per-worker queue depth (backs `respct_kv_queue_depth{worker=...}`).
    pub queue_depth: Arc<Vec<AtomicU64>>,
}

impl KvMetrics {
    fn register(registry: &MetricsRegistry, workers: usize) -> KvMetrics {
        let active_connections = Arc::new(AtomicU64::new(0));
        let ac = Arc::clone(&active_connections);
        registry.gauge_fn(
            "respct_kv_active_connections",
            "KV connections currently open",
            Unit::None,
            move || ac.load(Ordering::Relaxed) as f64,
        );
        let queue_depth: Arc<Vec<AtomicU64>> =
            Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
        let qd = Arc::clone(&queue_depth);
        registry.gauge_vec_fn(
            "respct_kv_queue_depth",
            "requests waiting in each worker's bounded queue",
            Unit::None,
            "worker",
            move || {
                qd.iter()
                    .enumerate()
                    .map(|(i, d)| (i.to_string(), d.load(Ordering::Relaxed) as f64))
                    .collect()
            },
        );
        KvMetrics {
            requests: registry.counter(
                "respct_kv_requests_total",
                "KV requests executed",
                Unit::None,
            ),
            gets: registry.counter("respct_kv_gets_total", "KV GETs executed", Unit::None),
            puts: registry.counter("respct_kv_puts_total", "KV PUTs executed", Unit::None),
            deletes: registry.counter("respct_kv_deletes_total", "KV DELETEs executed", Unit::None),
            busy: registry.counter(
                "respct_kv_busy_total",
                "KV requests rejected with BUSY backpressure",
                Unit::None,
            ),
            wire_errors: registry.counter(
                "respct_kv_wire_errors_total",
                "malformed KV frames rejected",
                Unit::None,
            ),
            connections: registry.counter(
                "respct_kv_connections_total",
                "KV connections accepted",
                Unit::None,
            ),
            dropped_responses: registry.counter(
                "respct_kv_dropped_responses_total",
                "KV responses dropped on torn-down connections",
                Unit::None,
            ),
            sync_checkpoints: registry.counter(
                "respct_kv_sync_checkpoints_total",
                "checkpoints forced by sync-durability write batches",
                Unit::None,
            ),
            op_ns: registry.histogram("respct_kv_op_ns", "per-request service time", Unit::Nanos),
            batch_size: registry.histogram(
                "respct_kv_batch_size",
                "requests executed between two restart points",
                Unit::None,
            ),
            active_connections,
            queue_depth,
        }
    }
}

// ---- Store engines ------------------------------------------------------------

type DramShard = Mutex<std::collections::HashMap<u64, Vec<u8>>>;

/// Transient-NVMM blob header: `[u32 cap][u32 len]`, data at +8. Blobs are
/// rewritten in place when the new value fits `cap`, else re-bumped.
const NVMM_HDR: u64 = 8;

enum Engine {
    Dram {
        shards: Box<[DramShard]>,
    },
    Nvmm {
        region: Arc<Region>,
        shards: Box<[Mutex<std::collections::HashMap<u64, u64>>]>,
        bump: AtomicU64,
    },
    Respct {
        pool: Arc<Pool>,
        map: PHashMap,
    },
}

/// The KV store behind both transports. Construct with
/// [`KvService::open`]; share via `Arc`.
pub struct KvService {
    cfg: KvServerConfig,
    // Held for its drop only; declared before `engine` so the periodic
    // checkpointer stops before the pool it drives goes away.
    _ckpt: Option<CheckpointerGuard>,
    engine: Engine,
    registry: Arc<MetricsRegistry>,
    metrics: KvMetrics,
}

impl KvService {
    /// Opens (or recovers) the store described by `cfg`.
    ///
    /// In [`Mode::Respct`] the persistence substrate comes from
    /// `RESPCT_BACKEND`; on `mmap:<path>` this is create-or-recover via
    /// [`Pool::open`] and the returned [`RecoveryReport`] is `Some` when
    /// an existing pool was recovered. Other modes (and other backends)
    /// always start empty.
    ///
    /// # Errors
    ///
    /// [`KvError::Pool`] on pool create/open failure, [`KvError::Config`]
    /// on an unusable `RESPCT_BACKEND` or `RESPCT_PIPELINE` value, or an
    /// arena the OS will not map.
    pub fn open(cfg: KvServerConfig) -> Result<(Arc<KvService>, Option<RecoveryReport>), KvError> {
        KvService::open_with_sink(cfg, None)
    }

    /// [`KvService::open`] with a trace sink attached to the region before
    /// any pool traffic — the hook the trace checker uses.
    pub fn open_with_sink(
        cfg: KvServerConfig,
        sink: Option<Arc<dyn respct_pmem::TraceSink>>,
    ) -> Result<(Arc<KvService>, Option<RecoveryReport>), KvError> {
        let (engine, report) = match cfg.mode() {
            Mode::TransientDram => (
                Engine::Dram {
                    shards: (0..64).map(|_| Mutex::new(Default::default())).collect(),
                },
                None,
            ),
            Mode::TransientNvmm => {
                let region = Region::try_new(crate::backend::nvmm_config(cfg.pool_bytes()))
                    .map_err(|e| KvError::Config(e.to_string()))?;
                (
                    Engine::Nvmm {
                        region,
                        shards: (0..64).map(|_| Mutex::new(Default::default())).collect(),
                        bump: AtomicU64::new(64),
                    },
                    None,
                )
            }
            Mode::Respct => {
                let pool_cfg =
                    crate::backend::pool_config_sized(cfg.pool_bytes()).map_err(KvError::Config)?;
                let (pool, report) = match crate::backend::env_backend().map_err(KvError::Config)? {
                    // Create-or-recover: a pool file left by a previous
                    // (possibly SIGKILLed) server resumes from its last
                    // checkpoint.
                    respct::RegionMode::Mmap(path) => Pool::open(path, pool_cfg)?,
                    mode => {
                        let region =
                            Region::try_new(respct::RegionConfig::new(cfg.pool_bytes(), mode))
                                .map_err(|e| KvError::Config(e.to_string()))?;
                        if let Some(sink) = sink {
                            region.set_trace_sink(sink);
                        }
                        (Pool::create(region, pool_cfg)?, None)
                    }
                };
                let map = if pool.root() != PAddr(0) {
                    PHashMap::open(&pool, pool.root())
                } else {
                    let h = pool.register();
                    let map = PHashMap::create(&h, cfg.nbuckets());
                    h.set_root(map.desc());
                    if pool.region().backend_kind() == respct::BackendKind::Mmap {
                        // Durable backend: checkpoint the empty skeleton so
                        // a crash before the first periodic checkpoint
                        // recovers to a valid (empty) map, not a zero root.
                        h.checkpoint_here();
                    }
                    drop(h);
                    map
                };
                (Engine::Respct { pool, map }, report)
            }
        };
        let registry = match &engine {
            Engine::Respct { pool, .. } => Arc::clone(pool.metrics()),
            _ => Arc::new(MetricsRegistry::new()),
        };
        let metrics = KvMetrics::register(&registry, cfg.workers());
        let ckpt = match (&engine, cfg.ckpt_period()) {
            (Engine::Respct { pool, .. }, Some(period)) => Some(pool.start_checkpointer(period)),
            _ => None,
        };
        Ok((
            Arc::new(KvService {
                cfg,
                _ckpt: ckpt,
                engine,
                registry,
                metrics,
            }),
            report,
        ))
    }

    /// The service's configuration.
    pub fn config(&self) -> &KvServerConfig {
        &self.cfg
    }

    /// The metrics registry (the pool's own in ResPCT mode, so one
    /// endpoint serves `respct_*` and `respct_kv_*` together).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The `respct_kv_*` counters (transports bump the queue/connection
    /// ones).
    pub fn kv_metrics(&self) -> &KvMetrics {
        &self.metrics
    }

    /// The underlying pool (ResPCT engine only).
    pub fn pool(&self) -> Option<&Arc<Pool>> {
        match &self.engine {
            Engine::Respct { pool, .. } => Some(pool),
            _ => None,
        }
    }

    /// Registers a worker thread with the store. Call once per worker, on
    /// the worker's own thread.
    pub fn worker_ctx(&self) -> WorkerCtx {
        WorkerCtx {
            handle: match &self.engine {
                Engine::Respct { pool, .. } => Some(pool.register()),
                _ => None,
            },
        }
    }

    /// Runs `block` — a wait on something outside the store, like a queue
    /// receive — under the blocking-call protocol (§3.3.3): in ResPCT mode
    /// the worker's checkpoint-prevention flag is dropped for the wait so
    /// a checkpoint can complete while the worker is idle.
    pub fn blocked<R>(&self, ctx: &mut WorkerCtx, block: impl FnOnce() -> R) -> R {
        match ctx.handle.as_mut() {
            Some(h) => {
                let _allow = h.allow_checkpoints();
                block()
            }
            None => block(),
        }
    }

    /// Executes one request. Never places a restart point — that happens
    /// in [`KvService::end_batch`].
    pub fn apply(&self, ctx: &mut WorkerCtx, req: &KvRequest) -> KvResponse {
        let t0 = Instant::now();
        let resp = self.apply_inner(ctx, req);
        self.metrics.requests.inc();
        if self.cfg.metrics() {
            self.metrics.op_ns.record(t0.elapsed().as_nanos() as u64);
        }
        resp
    }

    fn apply_inner(&self, ctx: &mut WorkerCtx, req: &KvRequest) -> KvResponse {
        match req {
            KvRequest::Ping => KvResponse::Pong,
            KvRequest::Get { key } => {
                self.metrics.gets.inc();
                match self.get(ctx, *key) {
                    Some(v) => KvResponse::Value(v),
                    None => KvResponse::NotFound,
                }
            }
            KvRequest::Put { key, value } => {
                self.metrics.puts.inc();
                if value.len() > self.cfg.max_value_len() {
                    return KvResponse::Error(KvError::ValueTooLarge {
                        len: value.len(),
                        max: self.cfg.max_value_len(),
                    });
                }
                match self.put(ctx, *key, value) {
                    Ok(()) => KvResponse::Ok,
                    Err(e) => KvResponse::Error(e),
                }
            }
            KvRequest::Delete { key } => {
                self.metrics.deletes.inc();
                if self.delete(ctx, *key) {
                    KvResponse::Ok
                } else {
                    KvResponse::NotFound
                }
            }
        }
    }

    /// Marks the end of a request batch: records the batch size and places
    /// the batch-boundary restart point. Under [`Durability::Sync`], a
    /// batch containing writes checkpoints before returning — callers must
    /// only then release the batch's responses, so an acknowledged sync
    /// write is durable.
    pub fn end_batch(&self, ctx: &mut WorkerCtx, wrote: bool, batch_len: usize) {
        if self.cfg.metrics() && batch_len > 0 {
            self.metrics.batch_size.record(batch_len as u64);
        }
        if let Some(h) = ctx.handle.as_ref() {
            if wrote && self.cfg.durability() == Durability::Sync {
                h.checkpoint_here();
                self.metrics.sync_checkpoints.inc();
            } else {
                h.rp(RP_BATCH);
            }
        }
    }

    fn get(&self, ctx: &mut WorkerCtx, key: u64) -> Option<Vec<u8>> {
        match &self.engine {
            Engine::Dram { shards } => shards[(hash_u64(key) % 64) as usize]
                .lock()
                .get(&key)
                .cloned(),
            Engine::Nvmm { region, shards, .. } => {
                let addr = *shards[(hash_u64(key) % 64) as usize].lock().get(&key)?;
                let len: u32 = region.load(PAddr(addr + 4));
                let mut v = vec![0u8; len as usize];
                region.load_bytes(PAddr(addr + NVMM_HDR), &mut v);
                Some(v)
            }
            Engine::Respct { pool, map } => {
                let h = ctx.handle.as_ref().expect("respct worker has a handle");
                let blob = map.get(h, key)?;
                let region = pool.region();
                let len: u64 = region.load(PAddr(blob));
                let mut v = vec![0u8; len as usize];
                region.load_bytes(PAddr(blob + 8), &mut v);
                Some(v)
            }
        }
    }

    fn put(&self, ctx: &mut WorkerCtx, key: u64, value: &[u8]) -> Result<(), KvError> {
        match &self.engine {
            Engine::Dram { shards } => {
                shards[(hash_u64(key) % 64) as usize]
                    .lock()
                    .insert(key, value.to_vec());
                Ok(())
            }
            Engine::Nvmm {
                region,
                shards,
                bump,
            } => {
                let mut shard = shards[(hash_u64(key) % 64) as usize].lock();
                let addr = match shard.get(&key) {
                    Some(&a) if region.load::<u32>(PAddr(a)) as usize >= value.len() => a,
                    _ => {
                        let size = align_up(NVMM_HDR + value.len() as u64, 64);
                        let a = bump.fetch_add(size, Ordering::Relaxed);
                        if a + size > region.size() as u64 {
                            return Err(KvError::StoreFull);
                        }
                        region.store(PAddr(a), value.len() as u32);
                        shard.insert(key, a);
                        a
                    }
                };
                region.store(PAddr(addr + 4), value.len() as u32);
                region.store_bytes(PAddr(addr + NVMM_HDR), value);
                Ok(())
            }
            Engine::Respct { pool, map } => {
                let h = ctx.handle.as_ref().expect("respct worker has a handle");
                let region = pool.region();
                // Copy-on-write: the fresh blob is written + tracked while
                // unreachable (idempotent, no logging), then the map's
                // value cell swings to it in one InCLL store. `replace` is
                // atomic under the bucket lock, so the displaced blob comes
                // back to exactly one worker for the deferred free.
                let blob = h.alloc(Self::blob_size(value.len()), 64);
                region.store(blob, value.len() as u64);
                region.store_bytes(PAddr(blob.0 + 8), value);
                h.add_modified(blob, 8 + value.len());
                if let Some(old) = map.replace(h, key, blob.0) {
                    let old_len: u64 = region.load(PAddr(old));
                    h.free(PAddr(old), Self::blob_size(old_len as usize));
                }
                Ok(())
            }
        }
    }

    fn delete(&self, ctx: &mut WorkerCtx, key: u64) -> bool {
        match &self.engine {
            Engine::Dram { shards } => shards[(hash_u64(key) % 64) as usize]
                .lock()
                .remove(&key)
                .is_some(),
            // Transient store: the blob leaks (arena is bump-only), the
            // mapping goes away.
            Engine::Nvmm { shards, .. } => shards[(hash_u64(key) % 64) as usize]
                .lock()
                .remove(&key)
                .is_some(),
            Engine::Respct { pool, map } => {
                let h = ctx.handle.as_ref().expect("respct worker has a handle");
                match map.remove_entry(h, key) {
                    Some(old) => {
                        let old_len: u64 = pool.region().load(PAddr(old));
                        h.free(PAddr(old), Self::blob_size(old_len as usize));
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// 64-byte-aligned size of a `[u64 len][bytes]` value blob.
    fn blob_size(len: usize) -> u64 {
        align_up(8 + len as u64, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::fill_value;

    fn service(mode: Mode) -> Arc<KvService> {
        let cfg = KvServerConfig::builder()
            .mode(mode)
            .pool_bytes(64 << 20)
            .ckpt_period(None)
            .build()
            .expect("config");
        KvService::open(cfg).expect("open").0
    }

    #[test]
    fn unmappable_pool_is_a_config_error() {
        // The test environment leaves `RESPCT_BACKEND` at its default
        // (an anonymous arena), which is what this row is about.
        if std::env::var_os(crate::backend::BACKEND_ENV).is_some() {
            return;
        }
        for mode in [Mode::TransientNvmm, Mode::Respct] {
            let cfg = KvServerConfig::builder()
                .mode(mode)
                .pool_bytes(1 << 62)
                .build()
                .expect("config");
            match KvService::open(cfg) {
                Err(KvError::Config(msg)) => {
                    assert!(msg.contains("-byte region"), "{mode:?}: {msg}");
                }
                Err(e) => panic!("{mode:?}: wanted KvError::Config, got {e}"),
                Ok(_) => panic!("{mode:?}: a 4 EiB pool opened"),
            }
        }
    }

    #[test]
    fn all_engines_roundtrip_and_delete() {
        for mode in Mode::ALL {
            let svc = service(mode);
            let mut ctx = svc.worker_ctx();
            let mut v = vec![0u8; 100];
            fill_value(&mut v, 7, 1);
            assert_eq!(
                svc.apply(
                    &mut ctx,
                    &KvRequest::Put {
                        key: 7,
                        value: v.clone()
                    }
                ),
                KvResponse::Ok,
                "{mode:?}"
            );
            assert_eq!(
                svc.apply(&mut ctx, &KvRequest::Get { key: 7 }),
                KvResponse::Value(v.clone()),
                "{mode:?}"
            );
            // Overwrite with a different length exercises blob reuse/CoW.
            let mut w = vec![0u8; 40];
            fill_value(&mut w, 7, 2);
            svc.apply(
                &mut ctx,
                &KvRequest::Put {
                    key: 7,
                    value: w.clone(),
                },
            );
            assert_eq!(
                svc.apply(&mut ctx, &KvRequest::Get { key: 7 }),
                KvResponse::Value(w),
                "{mode:?}"
            );
            assert_eq!(
                svc.apply(&mut ctx, &KvRequest::Get { key: 99 }),
                KvResponse::NotFound,
                "{mode:?}"
            );
            assert_eq!(
                svc.apply(&mut ctx, &KvRequest::Delete { key: 7 }),
                KvResponse::Ok,
                "{mode:?}"
            );
            assert_eq!(
                svc.apply(&mut ctx, &KvRequest::Delete { key: 7 }),
                KvResponse::NotFound,
                "{mode:?}"
            );
            assert_eq!(svc.apply(&mut ctx, &KvRequest::Ping), KvResponse::Pong);
            svc.end_batch(&mut ctx, true, 7);
        }
    }

    #[test]
    fn oversize_put_rejected_with_typed_error() {
        let svc = service(Mode::TransientDram);
        let mut ctx = svc.worker_ctx();
        let max = svc.config().max_value_len();
        let resp = svc.apply(
            &mut ctx,
            &KvRequest::Put {
                key: 1,
                value: vec![0; max + 1],
            },
        );
        assert_eq!(
            resp,
            KvResponse::Error(KvError::ValueTooLarge { len: max + 1, max })
        );
    }

    #[test]
    fn respct_engine_counts_ops() {
        let svc = service(Mode::Respct);
        let mut ctx = svc.worker_ctx();
        for k in 0..10 {
            svc.apply(
                &mut ctx,
                &KvRequest::Put {
                    key: k,
                    value: vec![1; 16],
                },
            );
        }
        for k in 0..10 {
            svc.apply(&mut ctx, &KvRequest::Get { key: k });
        }
        svc.end_batch(&mut ctx, true, 20);
        let m = svc.kv_metrics();
        assert_eq!(m.requests.get(), 20);
        assert_eq!(m.gets.get(), 10);
        assert_eq!(m.puts.get(), 10);
        // The kv metrics live on the pool's registry: the Prometheus text
        // carries both respct_* and respct_kv_* families.
        let text = svc.registry().to_prometheus();
        assert!(text.contains("respct_kv_requests_total"));
        assert!(text.contains("respct_kv_queue_depth"));
    }
}
