//! # respct-analysis — trace-based persistency checking for ResPCT
//!
//! Dynamic analysis in the pmemcheck/PMTest tradition, specialized to the
//! ResPCT algorithm. The `respct-pmem` region emits a typed event stream
//! (stores, `pwb`/`psync`, simulator evictions, crash/restore) interleaved
//! with semantic markers from the runtime (InCLL cell declarations and log
//! records, tracking-list appends, checkpoint and recovery phases). The
//! [`Checker`] replays that stream online against a cache-line state
//! machine and a happens-before (vector-clock) model of the runtime's
//! synchronization edges, and reports violations of the paper's persistency
//! discipline as structured [`Diagnostic`]s in one [`Report`]:
//!
//! * **missed flush** — a tracked line not durable when its epoch committed;
//! * **logging violation** — an InCLL record overwritten before its
//!   in-line backup + epoch tag for the running epoch (Fig. 4 lines 24–29);
//! * **cross-line ordering** — the epoch-counter commit racing an unfenced
//!   data write-back (a missing `psync`);
//! * **redundant flush** — a `pwb` of already-durable content (perf
//!   advisory, [`Severity::Perf`]);
//! * **epoch discipline** — non-+1 epoch advances, wrong-epoch checkpoint /
//!   log / recovery markers;
//! * **persist race** — unordered same-epoch stores to one InCLL cell, or a
//!   recovery read racing an in-flight write-back;
//! * **unordered commit** — a commit not ordered after the fences it
//!   relies on.
//!
//! ## Usage
//!
//! ```
//! use respct::{Pool, PoolConfig};
//! use respct_analysis::Checker;
//! use respct_pmem::{Region, RegionConfig, SimConfig};
//!
//! let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(1)));
//! let checker = Checker::attach(&region);       // before any pool traffic
//! let pool = Pool::create(region, PoolConfig::default()).expect("pool");
//! let h = pool.register();
//! let c = h.alloc_cell(1u64);
//! h.update(c, 2);
//! h.checkpoint_here();
//! checker.assert_clean();                        // no discipline violations
//! ```
//!
//! The [`mod@sweep`] module goes further than the online rules: it replays a
//! recorded trace, materializes the crash images reachable under PCSO at
//! every persistency-relevant instant, runs real recovery on each, and
//! compares the result against a model oracle.
//!
//! The root package's integration tests run both: `tests/analysis_model.rs`
//! and `tests/race_detector.rs` drive the standard workloads (hash map,
//! queue, KV store, crash/recovery cycles) at every checkpoint depth under
//! the checker, and `tests/crash_sweep.rs` sweeps the recorded hash-map and
//! queue runs.

pub mod checker;
mod race;
pub mod report;
pub mod sweep;

pub use checker::Checker;
pub use report::{Diagnostic, DiagnosticKind, Report, Severity};
pub use sweep::{sweep, SweepConfig, SweepReport};
