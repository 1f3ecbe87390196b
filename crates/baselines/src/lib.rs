//! Competing persistence systems, re-implemented over the same emulated-NVMM
//! substrate so the paper's comparative evaluation (Figs. 8–9) can be
//! regenerated.
//!
//! Each module reproduces the *algorithmic cost profile* of one system — the
//! number and placement of log writes, flushes, fences, allocations, and
//! tracking work per operation — rather than its full artifact:
//!
//! | module        | system            | consistency                     | mechanism |
//! |---------------|-------------------|----------------------------------|-----------|
//! | [`transient_nvmm`] | Transient\<NVMM\> | none                        | unmodified code on NVMM |
//! | [`undo`]      | NV-Heaps/PMDK-style | durable linearizability        | per-op undo log, flush per log entry + commit |
//! | [`undo`] (`UndoPolicy::clobber`) | Clobber-NVM | durable linearizability | WAR-only undo log, re-execution for the rest |
//! | [`quadra`]    | Quadra/Trinity     | durable linearizability         | in-cache-line logging, one fence per op |
//! | [`pmthreads`] | PMThreads          | buffered durable linearizability | DRAM shadow copy + dirty-page tracking, epoch copy |
//! | [`montage`]   | Montage            | buffered durable linearizability | copy-on-write payloads, DRAM index, epoch flush |
//! | [`friedman`]  | FriedmanQueue      | durable linearizability         | persistent lock-free MS queue |
//! | [`soft`]      | SOFT               | durable linearizability         | validity-bit nodes, flush on update only |
//! | [`dali`]      | Dalí               | buffered durable linearizability | versioned bucket records, no flushes in epoch |
//!
//! Simplifications versus the original artifacts are documented per module
//! and summarized in `DESIGN.md` §2.

pub mod barrier;
pub mod dali;
pub mod friedman;
pub mod montage;
pub mod nvheap;
pub mod pmthreads;
pub mod policy;
pub mod quadra;
pub mod soft;
pub mod transient_nvmm;
pub mod undo;

pub use dali::DaliHashMap;
pub use friedman::FriedmanQueue;
pub use montage::{MontageHashMap, MontageQueue};
pub use policy::{PolicyHashMap, PolicyQueue};
pub use soft::SoftHashMap;
pub use transient_nvmm::{NvmmHashMap, NvmmQueue};
