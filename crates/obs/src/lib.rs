//! # respct-obs — runtime observability for the ResPCT reproduction
//!
//! ResPCT's value proposition is quantitative: near-zero failure-free
//! overhead from in-cache-line logging, and checkpoint cost proportional to
//! the modified line set (paper §3.2, §5). Arguing about those numbers needs
//! more than coarse means — it needs RP-stall tails, per-shard flush skew,
//! and write-amplification ratios. This crate provides the primitives the
//! runtime threads those quantities through:
//!
//! * [`Counter`] — a cache-line-striped, lock-free monotonic counter. Hot
//!   paths pay one relaxed `fetch_add` on a stripe chosen per thread, so
//!   concurrent writers do not bounce a shared line.
//! * [`Histogram`] — a log-bucketed (HDR-style) value recorder: fixed
//!   memory, lock-free `record`, ≤ 1/16 relative error on quantiles, and a
//!   consistent-enough [`HistSnapshot`] readable while writers run.
//! * [`MetricsRegistry`] — a named collection of counters, histograms, and
//!   read-on-demand gauge callbacks, aggregated into two sinks: Prometheus
//!   text exposition ([`MetricsRegistry::to_prometheus`]) and a JSON
//!   snapshot ([`MetricsRegistry::to_json`]).
//! * [`MetricsServer`] — a tiny built-in TCP listener serving the
//!   Prometheus text format (`GET /metrics`) and the JSON snapshot
//!   (`GET /json`).
//!
//! Everything is std plus two workspace crates: `crossbeam::CachePadded`
//! for the counter stripes, and the poison-free `parking_lot::Mutex` for
//! the (cold) registration path. No allocation on any record path.

mod counter;
mod hist;
mod registry;
mod server;

pub use counter::Counter;
pub use hist::{HistSnapshot, Histogram};
pub use registry::{MetricsRegistry, Unit};
pub use server::{MetricsServer, MetricsServerGuard};
