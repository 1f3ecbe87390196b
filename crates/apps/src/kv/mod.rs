//! The public KV API: one service layer, two transports.
//!
//! The paper's headline application (§5.3, Fig. 14) is a memcached-style
//! store whose checkpoint stalls must never surface in request latency.
//! This module promotes the old in-process benchmark store into a real
//! subsystem with a unified public API:
//!
//! * [`KvRequest`] / [`KvResponse`] / [`KvError`] — the typed operation
//!   vocabulary shared by every front end;
//! * [`KvServerConfig`] — a validated builder (mirroring
//!   `PoolConfig::builder()`) for the service: engine mode, worker count,
//!   queue bounds, batch limits, durability;
//! * [`service::KvService`] — the transport-agnostic core: a store engine
//!   (DRAM / emulated-NVMM / ResPCT copy-on-write blobs) plus the restart
//!   point policy (**RPs only at request-batch boundaries**) and the
//!   `respct_kv_*` metrics;
//! * [`wire`] — the versioned, length-prefixed binary protocol
//!   (GET/PUT/DELETE/PING) with typed decode errors;
//! * [`server::KvServer`] — the TCP front end (`respct-kvd`): blocking
//!   sockets, accept-sharded worker pools each owning a `ThreadHandle`,
//!   bounded per-worker queues with explicit BUSY backpressure.
//!
//! The in-process fig14/YCSB harness ([`crate::kvstore`]) and the TCP
//! server consume the same [`service::KvService`]; nothing in the store is
//! transport-specific. On the mmap backend (`RESPCT_BACKEND=mmap:<path>`)
//! the service resolves to create-or-recover via `Pool::open`, so a
//! SIGKILLed server restarts from its last checkpoint.

pub mod server;
pub mod service;
pub mod wire;

use std::time::Duration;

use crate::Mode;

/// Restart-point id for the per-batch RP every worker places after a
/// request batch (the only RP on the serving path).
pub const RP_BATCH: respct::RpId = respct::RpId(610);

/// One KV operation, as carried by both transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvRequest {
    /// Read the value stored under `key`.
    Get { key: u64 },
    /// Store `value` under `key` (copy-on-write in the ResPCT engine).
    Put { key: u64, value: Vec<u8> },
    /// Remove `key`.
    Delete { key: u64 },
    /// Liveness / latency probe; answered in-order by the worker.
    Ping,
}

impl KvRequest {
    /// Whether the request mutates the store (PUT/DELETE).
    pub fn is_write(&self) -> bool {
        matches!(self, KvRequest::Put { .. } | KvRequest::Delete { .. })
    }
}

/// The answer to one [`KvRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// Write acknowledged. Under [`Durability::Sync`] the write is durable
    /// (checkpointed) before this is sent; under [`Durability::Async`] it
    /// is the paper's asynchronous-writes configuration.
    Ok,
    /// GET hit.
    Value(Vec<u8>),
    /// GET/DELETE on an absent key.
    NotFound,
    /// PING answer.
    Pong,
    /// Explicit backpressure: the assigned worker's queue was full and the
    /// server rejected the request instead of buffering it unboundedly.
    /// Retry later; nothing was executed.
    Busy,
    /// Request-level failure (the connection stays usable unless the error
    /// was a framing error).
    Error(KvError),
}

/// Typed KV failures. The wire-encodable subset round-trips through
/// [`wire::encode_response`]; transport/setup variants ([`KvError::Io`],
/// [`KvError::Pool`], [`KvError::Config`]) never travel and are mapped to
/// [`KvError::Internal`] if a server ever needs to send one.
#[derive(Debug)]
pub enum KvError {
    /// PUT value exceeds [`KvServerConfig::max_value_len`].
    ValueTooLarge { len: usize, max: usize },
    /// The store's arena is exhausted (transient-NVMM engine).
    StoreFull,
    /// Malformed frame or protocol-version mismatch.
    Wire(wire::WireError),
    /// Unspecified server-side failure.
    Internal,
    /// Invalid [`KvServerConfig`] (builder validation).
    Config(String),
    /// Pool create/open/recovery failure (ResPCT engine).
    Pool(respct::PoolError),
    /// Socket-level failure (client helpers).
    Io(std::io::Error),
}

impl PartialEq for KvError {
    fn eq(&self, other: &KvError) -> bool {
        use KvError::*;
        match (self, other) {
            (ValueTooLarge { len: a, max: b }, ValueTooLarge { len: c, max: d }) => {
                a == c && b == d
            }
            (StoreFull, StoreFull) | (Internal, Internal) => true,
            (Wire(a), Wire(b)) => a == b,
            (Config(a), Config(b)) => a == b,
            // Pool and Io errors compare by display (good enough for tests;
            // they are not wire-encodable anyway).
            (Pool(a), Pool(b)) => format!("{a:?}") == format!("{b:?}"),
            (Io(a), Io(b)) => a.kind() == b.kind(),
            _ => false,
        }
    }
}

impl Eq for KvError {}

impl Clone for KvError {
    fn clone(&self) -> KvError {
        use KvError::*;
        match self {
            ValueTooLarge { len, max } => ValueTooLarge {
                len: *len,
                max: *max,
            },
            StoreFull => StoreFull,
            Wire(e) => Wire(e.clone()),
            Internal => Internal,
            Config(s) => Config(s.clone()),
            Pool(e) => Config(format!("pool error: {e:?}")),
            Io(e) => Config(format!("io error: {e}")),
        }
    }
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds the {max}-byte limit")
            }
            KvError::StoreFull => write!(f, "store arena exhausted"),
            KvError::Wire(e) => write!(f, "protocol error: {e}"),
            KvError::Internal => write!(f, "internal server error"),
            KvError::Config(s) => write!(f, "invalid KV config: {s}"),
            KvError::Pool(e) => write!(f, "pool error: {e:?}"),
            KvError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<wire::WireError> for KvError {
    fn from(e: wire::WireError) -> KvError {
        KvError::Wire(e)
    }
}

impl From<respct::PoolError> for KvError {
    fn from(e: respct::PoolError) -> KvError {
        KvError::Pool(e)
    }
}

impl From<std::io::Error> for KvError {
    fn from(e: std::io::Error) -> KvError {
        KvError::Io(e)
    }
}

/// When a write is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Acknowledge after execution; durability comes from the periodic
    /// checkpointer (the paper's asynchronous-writes Memcached setup —
    /// RocksDB's default consistency).
    Async,
    /// Acknowledge only after the batch's epoch has checkpointed: an
    /// acked write survives SIGKILL on the mmap backend.
    Sync,
}

/// Configuration for a [`service::KvService`] (and therefore for both the
/// TCP server and the in-process harness). Build via
/// [`KvServerConfig::builder`]; every knob is validated at `build()`.
#[derive(Debug, Clone)]
pub struct KvServerConfig {
    mode: Mode,
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    max_value_len: usize,
    nbuckets: u64,
    pool_bytes: usize,
    durability: Durability,
    ckpt_period: Option<Duration>,
    metrics: bool,
}

impl KvServerConfig {
    /// A builder with serving defaults: ResPCT engine, 2 workers, 1024-deep
    /// queues, 16-request batches, 4 KiB value cap, async durability,
    /// 8 ms checkpoints.
    pub fn builder() -> KvServerConfigBuilder {
        KvServerConfigBuilder::default()
    }

    /// Store engine mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Worker-pool size (each worker owns one `ThreadHandle`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-worker request-queue bound; beyond it the server answers BUSY.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Most requests a worker executes between two restart points.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Largest accepted PUT value.
    pub fn max_value_len(&self) -> usize {
        self.max_value_len
    }

    /// Hash-bucket count of the store's map.
    pub fn nbuckets(&self) -> u64 {
        self.nbuckets
    }

    /// Arena/pool size in bytes.
    pub fn pool_bytes(&self) -> usize {
        self.pool_bytes
    }

    /// Write-acknowledgement policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Periodic checkpoint interval; `None` disables the checkpointer
    /// (the checkpoints-off benchmark arm).
    pub fn ckpt_period(&self) -> Option<Duration> {
        self.ckpt_period
    }

    /// Whether `respct_kv_*` metrics are recorded.
    pub fn metrics(&self) -> bool {
        self.metrics
    }
}

impl Default for KvServerConfig {
    fn default() -> KvServerConfig {
        KvServerConfig::builder().build().expect("default is valid")
    }
}

/// Builder for [`KvServerConfig`]; `build()` validates every knob.
#[derive(Debug, Clone)]
pub struct KvServerConfigBuilder {
    cfg: KvServerConfig,
}

impl Default for KvServerConfigBuilder {
    fn default() -> KvServerConfigBuilder {
        KvServerConfigBuilder {
            cfg: KvServerConfig {
                mode: Mode::Respct,
                workers: 2,
                queue_capacity: 1024,
                max_batch: 16,
                max_value_len: 4096,
                nbuckets: 16_384,
                pool_bytes: 256 << 20,
                durability: Durability::Async,
                ckpt_period: Some(Duration::from_millis(8)),
                metrics: true,
            },
        }
    }
}

impl KvServerConfigBuilder {
    /// Store engine mode (default [`Mode::Respct`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Worker-pool size (default 2; must be ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Per-worker bounded queue depth (default 1024; must be ≥ 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.cfg.queue_capacity = n;
        self
    }

    /// Batch limit between restart points (default 16; `1..=queue_capacity`).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// Largest accepted PUT value in bytes (default 4096; ≥ 1, ≤ 1 MiB).
    pub fn max_value_len(mut self, n: usize) -> Self {
        self.cfg.max_value_len = n;
        self
    }

    /// Hash-bucket count (default 16384; must be ≥ 1).
    pub fn nbuckets(mut self, n: u64) -> Self {
        self.cfg.nbuckets = n;
        self
    }

    /// Arena/pool size in bytes (default 256 MiB; must be ≥ 1 MiB).
    pub fn pool_bytes(mut self, n: usize) -> Self {
        self.cfg.pool_bytes = n;
        self
    }

    /// Write-acknowledgement policy (default [`Durability::Async`]).
    pub fn durability(mut self, d: Durability) -> Self {
        self.cfg.durability = d;
        self
    }

    /// Periodic checkpoint interval, `None` = checkpoints off (default 8 ms).
    pub fn ckpt_period(mut self, p: Option<Duration>) -> Self {
        self.cfg.ckpt_period = p;
        self
    }

    /// Record `respct_kv_*` metrics (default on).
    pub fn metrics(mut self, on: bool) -> Self {
        self.cfg.metrics = on;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`KvError::Config`] naming the offending knob.
    pub fn build(self) -> Result<KvServerConfig, KvError> {
        let c = &self.cfg;
        if c.workers == 0 {
            return Err(KvError::Config("workers must be >= 1".into()));
        }
        if c.workers > 64 {
            return Err(KvError::Config(format!(
                "workers = {} exceeds the 64-thread serving cap",
                c.workers
            )));
        }
        if c.queue_capacity == 0 {
            return Err(KvError::Config("queue_capacity must be >= 1".into()));
        }
        if c.max_batch == 0 || c.max_batch > c.queue_capacity {
            return Err(KvError::Config(format!(
                "max_batch = {} must be in 1..=queue_capacity ({})",
                c.max_batch, c.queue_capacity
            )));
        }
        if c.max_value_len == 0 || c.max_value_len > (1 << 20) {
            return Err(KvError::Config(format!(
                "max_value_len = {} must be in 1..=1MiB",
                c.max_value_len
            )));
        }
        if c.nbuckets == 0 {
            return Err(KvError::Config("nbuckets must be >= 1".into()));
        }
        if c.pool_bytes < (1 << 20) {
            return Err(KvError::Config(format!(
                "pool_bytes = {} must be >= 1 MiB",
                c.pool_bytes
            )));
        }
        Ok(self.cfg)
    }
}

/// Deterministic value bytes for `(key, seed)` — the fill pattern shared by
/// the harness, the load generator, and the crash test (so any of them can
/// verify a value read back from a recovered pool).
pub fn fill_value(buf: &mut [u8], k: u64, seed: u64) {
    let mut x = k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bytes = x.to_ne_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

/// Order-31 polynomial checksum over a value (forces a full read).
pub fn checksum(buf: &[u8]) -> u64 {
    buf.iter()
        .fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_every_knob() {
        assert!(KvServerConfig::builder().build().is_ok());
        for bad in [
            KvServerConfig::builder().workers(0),
            KvServerConfig::builder().workers(65),
            KvServerConfig::builder().queue_capacity(0),
            KvServerConfig::builder().max_batch(0),
            KvServerConfig::builder().queue_capacity(8).max_batch(9),
            KvServerConfig::builder().max_value_len(0),
            KvServerConfig::builder().max_value_len((1 << 20) + 1),
            KvServerConfig::builder().nbuckets(0),
            KvServerConfig::builder().pool_bytes(4096),
        ] {
            assert!(matches!(bad.build(), Err(KvError::Config(_))));
        }
    }

    #[test]
    fn fill_value_is_deterministic_and_seed_sensitive() {
        let mut a = vec![0u8; 100];
        let mut b = vec![0u8; 100];
        fill_value(&mut a, 7, 1);
        fill_value(&mut b, 7, 1);
        assert_eq!(a, b);
        fill_value(&mut b, 7, 2);
        assert_ne!(a, b);
        assert_ne!(checksum(&a), checksum(&b));
    }
}
