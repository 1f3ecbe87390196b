//! # ResPCT — fast checkpointing in (emulated) NVMM for multi-threaded programs
//!
//! This crate reproduces the runtime of *"ResPCT: Fast Checkpointing in
//! Non-volatile Memory for Multi-threaded Applications"* (Khorguani, Ropars,
//! De Palma — EuroSys 2022). ResPCT makes lock-based multi-threaded programs
//! fault tolerant by dividing execution into **epochs**: during an epoch no
//! flush or fence instructions run at all; at the end of each epoch a
//! **checkpoint** flushes exactly the modified cache lines to NVMM. After a
//! crash, the program restarts from the last completed checkpoint
//! (*buffered durable linearizability*).
//!
//! Two mechanisms make this cheap:
//!
//! * **In-Cache-Line Logging** ([`ICell`]): the undo log of a variable lives
//!   in the same cache line as the variable, so the PCSO persistency model
//!   of x86 guarantees the log reaches NVMM no later than the data — without
//!   a single `clwb`/`sfence` on the failure-free path.
//! * **Restart Points** ([`ThreadHandle::rp`]): programmer-positioned states
//!   where checkpoints may run. RP placement determines the persistent
//!   state and which variables need logging (the WAR/idempotence rule of
//!   paper §3.3.2).
//!
//! ## Quick start
//!
//! ```
//! use respct::{Pool, PoolConfig};
//! use respct_pmem::{Region, RegionConfig};
//!
//! // An emulated-NVMM region + a formatted pool. `create` is fallible —
//! // a too-small region is an error, not a panic.
//! let region = Region::new(RegionConfig::fast(8 << 20));
//! let pool = Pool::create(region, PoolConfig::default()).expect("pool");
//!
//! // Register the thread, allocate a logged variable, update it.
//! let h = pool.register();
//! let counter = h.alloc_cell(0u64);
//! for i in 1..=10 {
//!     h.update(counter, i);
//!     h.rp(1); // a checkpoint may run here
//! }
//! assert_eq!(h.get(counter), 10);
//!
//! // Make it durable.
//! h.checkpoint_here();
//! ```
//!
//! Non-default knobs go through the validated config builder — e.g. a pool
//! with two dedicated flusher threads and 16 flush shards:
//!
//! ```
//! use respct::{Pool, PoolConfig};
//! use respct_pmem::{Region, RegionConfig};
//!
//! let cfg = PoolConfig::builder()
//!     .flusher_threads(2)
//!     .flush_shards(16)
//!     .build()
//!     .expect("valid config");
//! let pool = Pool::create(Region::new(RegionConfig::fast(8 << 20)), cfg).expect("pool");
//! # drop(pool);
//! ```
//!
//! Crash testing uses a sim-mode region; see `Pool::recover` and the
//! integration tests for the full crash → restore → recover cycle.

mod alloc;
mod checkpoint;
mod condvar;
mod error;
mod incll;
pub mod layout;
pub mod metrics;
mod pool;
mod recovery;
mod registry;
mod stats;
mod sync;
mod thread;
mod verify;

pub use alloc::CHUNK_SIZE;
pub use checkpoint::{shard_of_line, CheckpointerGuard, CkptReport, ShardReport};
pub use condvar::RCondvar;
pub use error::PoolError;
pub use incll::{cell_layout, epoch_tag, tag_epoch, ICell};
pub use metrics::RuntimeMetrics;
pub use pool::{
    Backend, CheckpointMode, Pool, PoolConfig, PoolConfigBuilder, DEFAULT_POOL_SIZE, MAX_FLUSHERS,
    MAX_FLUSH_SHARDS,
};
#[cfg(feature = "fault-inject")]
pub use pool::{Fault, SyncEdgeSite};
pub use recovery::{RecoveryOptions, RecoveryReport};
pub use stats::CkptSnapshot;
pub use sync::{TracedGuard, TracedMutex};
pub use thread::{AllowGuard, RpId, ThreadHandle};
pub use verify::{VerifyReport, Violation, ViolationKind};

// Re-export the substrate types users need alongside the pool API.
pub use respct_pmem::{
    BackendKind, PAddr, Pod, Region, RegionConfig, RegionConfigBuilder, RegionError, RegionMode,
};

// Re-export the observability types surfaced through `Pool::metrics`,
// `Pool::serve_metrics`, and `Pool::start_metrics_reporter`.
pub use respct_obs::{HistSnapshot, MetricsRegistry, MetricsServerGuard, ReporterGuard};
