//! Figure harness for the ResPCT reproduction (the repository's benchmark
//! is the standalone `respct-bench/` package, not this crate).
//!
//! One binary per paper exhibit (see `src/bin/`): each prints the same rows
//! or series the paper's table/figure reports, plus the parameters used.
//! The harness library provides the shared machinery:
//!
//! * [`driver`] — generic throughput drivers over the
//!   [`BenchMap`]/[`BenchQueue`] adapter traits (all systems measured by
//!   identical code).
//! * [`args`] — a tiny flag parser (`--threads`, `--secs`, `--full`) so the
//!   default run finishes quickly on a small container while `--full`
//!   approaches the paper's parameters.
//! * [`table`] — aligned text tables and machine-readable JSON lines.
//!
//! [`BenchMap`]: respct_ds::traits::BenchMap
//! [`BenchQueue`]: respct_ds::traits::BenchQueue

pub mod args;
pub mod driver;
pub mod systems;
pub mod table;

/// Default checkpoint period used across figures (paper: 64 ms).
pub const DEFAULT_PERIOD_MS: u64 = 64;
