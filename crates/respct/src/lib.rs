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
//! Non-default knobs go through the validated config builder, and a pool
//! comes from exactly one of three constructors: [`Pool::create`] formats a
//! region, [`Pool::recover`] rolls a crashed one back to its last
//! checkpoint, and [`Pool::open`] does whichever of the two a pool file
//! needs — e.g. a crash and a recovery on two scan threads:
//!
//! ```
//! use respct::{Pool, PoolConfig};
//! use respct_pmem::{sim::CrashMode, Region, RegionConfig, SimConfig};
//!
//! let cfg = PoolConfig::builder()
//!     .flusher_threads(2)
//!     .recovery_threads(2)
//!     .build()
//!     .expect("valid config");
//! let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(1)));
//! let pool = Pool::create(region.clone(), cfg.clone()).expect("pool");
//! drop(pool);
//! let image = region.crash(CrashMode::PowerFailure);
//! let (pool, report) = Pool::recover(Region::from_image(image.bytes()), cfg).expect("recover");
//! assert_eq!((pool.epoch(), report.threads), (report.failed_epoch, 2));
//! ```
//!
//! See the integration tests for the full crash → restore → recover cycle,
//! and `examples/durable_restart.rs` for [`Pool::open`] across processes.

mod alloc;
mod checkpoint;
mod condvar;
mod epoch_record;
mod error;
mod incll;
pub mod layout;
pub mod metrics;
mod pool;
mod recovery;
mod registry;
mod slot;
mod stats;
mod sync;
mod thread;
mod verify;

pub use alloc::CHUNK_SIZE;
pub use checkpoint::{CheckpointerGuard, CkptReport, ShardReport};
pub use condvar::RCondvar;
pub use error::PoolError;
pub use incll::{epoch_tag, tag_epoch, ICell};
pub use metrics::RuntimeMetrics;
pub use pool::{
    CheckpointMode, Pool, PoolConfig, PoolConfigBuilder, DEFAULT_POOL_SIZE, MAX_FLUSHERS,
};
#[cfg(feature = "fault-inject")]
pub use pool::{Fault, SyncEdgeSite};
pub use recovery::RecoveryReport;
pub use stats::CkptSnapshot;
pub use sync::{TracedGuard, TracedMutex};
pub use thread::{AllowGuard, RpId, ThreadHandle};
pub use verify::{VerifyReport, Violation, ViolationKind};

// Re-export the substrate types users need alongside the pool API.
pub use respct_pmem::{BackendKind, PAddr, Pod, Region, RegionConfig, RegionError, RegionMode};

// Re-export the observability types surfaced through `Pool::metrics` and
// `Pool::serve_metrics`.
pub use respct_obs::{HistSnapshot, MetricsRegistry, MetricsServerGuard};
