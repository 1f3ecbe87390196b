//! Real-world-style workloads for the ResPCT evaluation (paper §5.3).
//!
//! Four compute-intensive mini-applications retaining the computational and
//! synchronization structure of the paper's Parsec/Phoenix selections, plus
//! a memcached-like key-value store driven by a YCSB-style generator:
//!
//! * [`matmul`] — blocked matrix multiplication (Phoenix MatMul):
//!   data-parallel, write-once output cells (no WAR → `add_modified` only).
//! * [`linreg`] — linear regression over points (Phoenix LR): per-thread
//!   running sums are WAR variables → InCLL; demonstrates the paper's
//!   RP-placement ablation (per-point RPs are ~an order of magnitude slower
//!   than per-batch RPs).
//! * [`swaptions`] — Monte-Carlo swaption pricing (Parsec Swaptions):
//!   lock-free data-parallel trials with batched RPs.
//! * [`dedup`] — a 4-stage pipeline (chunk → hash → compress → store) with
//!   bounded queues and condition variables (Parsec Dedup): exercises the
//!   `checkpoint_allow`/`checkpoint_prevent` protocol of §3.3.3.
//! * [`wordcount`] — MapReduce word count (Phoenix's flagship kernel):
//!   a shared persistent hash map updated by all mappers under bucket
//!   locks, with per-thread persistent progress cursors.
//! * [`kv`] — the KV subsystem behind [`kvstore`] and `respct-kvd`: typed
//!   request/response/error API, validated server config, versioned wire
//!   protocol, transport-agnostic service core, and the TCP front end.
//! * [`kvstore`] — memcached-like store benchmark harness: in-process
//!   clients enqueue onto the [`kv`] server's worker pool (paper Fig. 14).
//! * [`ycsb`] — YCSB-style workload generator (zipfian keys, configurable
//!   read/update mix).
//!
//! Every app runs in three modes (paper Fig. 13/14):
//! [`Mode::TransientDram`], [`Mode::TransientNvmm`], and [`Mode::Respct`].

pub mod backend;
pub mod dedup;
pub mod kv;
pub mod kvstore;
pub mod linreg;
pub mod matmul;
pub mod swaptions;
pub mod wordcount;
pub mod ycsb;

/// Execution mode of an application (paper Fig. 13 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unmodified program on DRAM.
    TransientDram,
    /// Unmodified program with its data in (emulated, slower) NVMM.
    TransientNvmm,
    /// Fault tolerant with ResPCT (periodic checkpoints).
    Respct,
}

impl Mode {
    /// All three modes, in the paper's presentation order.
    pub const ALL: [Mode; 3] = [Mode::TransientDram, Mode::TransientNvmm, Mode::Respct];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::TransientDram => "Transient<DRAM>",
            Mode::TransientNvmm => "Transient<NVMM>",
            Mode::Respct => "ResPCT",
        }
    }
}
