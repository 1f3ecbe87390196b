//! Runtime observability: the pool-side wiring of the `respct-obs` layer.
//!
//! One [`RuntimeMetrics`] lives in every [`Pool`](crate::Pool) and threads
//! the quantities the paper's evaluation reasons about into a
//! [`MetricsRegistry`]:
//!
//! * checkpoint phase latencies (wait / gather, named `partition` / flush
//!   / total) as histograms, not just means — the tails are where
//!   quiescence problems show up;
//! * epoch length (time between consecutive checkpoints);
//! * lines flushed per checkpoint and per flush shard (a contiguous range
//!   of the epoch's sorted lines), plus per-shard write-back time (skew
//!   across flushers);
//! * RP quiescence stall time, both as a global histogram and as a
//!   per-slot total (one slow thread stalls every checkpoint);
//! * InCLL traffic: updates, first-touches (= backup writes), bytes
//!   logically stored, bytes flushed, and the derived first-touch rate and
//!   write-amplification gauges;
//! * the pmem substrate's `pwb`/`psync`/store/eviction counters, surfaced
//!   as read-on-demand gauges over [`respct_pmem::PmemStats`].
//!
//! Hot-path instrumentation (per InCLL update / tracked byte) is gated on
//! the pool's `metrics` config flag — one relaxed bool load when disabled.
//! When enabled it adds into the calling slot's own tally: the slot token
//! guarantees a single writer, so an add is a relaxed load and store, not a
//! locked read-modify-write, and a scrape sums the slots. Checkpoint-path
//! recording always runs: it is per *checkpoint*, not per operation, and
//! the [`CkptSnapshot`] aggregate is derived from it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use respct_obs::{Counter, Histogram, MetricsRegistry, Unit};

use crate::checkpoint::CkptReport;
use crate::layout::MAX_THREADS;
use crate::stats::CkptSnapshot;

/// One thread slot's hot-path totals. Only whoever holds the slot's token
/// writes them, so [`SlotTally::add`] needs no atomic read-modify-write;
/// the registry reads each total as the sum over the slots, live.
#[derive(Default)]
struct SlotTally {
    updates: AtomicU64,
    first_touch: AtomicU64,
    bytes_stored: AtomicU64,
}

impl SlotTally {
    /// `total += n` by the slot's single writer: a relaxed load and store.
    /// Ownership of a slot changes hands only across the quiescence
    /// protocol's happens-before edges (flag raise → checkpointer, timer
    /// release → owner), so the load always sees the previous writer's last
    /// store and no add is lost.
    #[inline]
    fn add(total: &AtomicU64, n: u64) {
        total.store(total.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// A tally total, summed over every slot.
fn sum_tallies(tallies: &[CachePadded<SlotTally>], total: fn(&SlotTally) -> &AtomicU64) -> u64 {
    tallies
        .iter()
        .map(|t| total(t).load(Ordering::Relaxed))
        .sum()
}

/// All metric handles for one pool, pre-registered against a shared
/// [`MetricsRegistry`]. Recording never touches the registry.
pub struct RuntimeMetrics {
    registry: Arc<MetricsRegistry>,
    /// Hot-path gate (pool config `metrics`); checked with one relaxed load.
    enabled: AtomicBool,

    // Hot path (per update / tracked range), one tally per thread slot.
    tallies: Arc<[CachePadded<SlotTally>]>,

    // Checkpoint path (per checkpoint / per shard).
    bytes_flushed: Arc<Counter>,
    ckpt_wait_ns: Arc<Histogram>,
    ckpt_partition_ns: Arc<Histogram>,
    ckpt_flush_ns: Arc<Histogram>,
    ckpt_stw_ns: Arc<Histogram>,
    ckpt_drain_ns: Arc<Histogram>,
    ckpt_total_ns: Arc<Histogram>,
    epoch_len_ns: Arc<Histogram>,
    ckpt_lines: Arc<Histogram>,
    shard_lines: Arc<Histogram>,
    shard_flush_ns: Arc<Histogram>,
    /// Instant of the previous checkpoint's completion (epoch length).
    last_ckpt: Mutex<Option<Instant>>,

    // Quiescence (recorded while parking — off the failure-free hot path).
    rp_stall_ns: Arc<Histogram>,
    rp_stall_by_slot: Arc<Vec<CachePadded<AtomicU64>>>,
    /// On-demand push-outs: first touches that had to flush a line still
    /// owed to an epoch whose drain had not committed.
    drain_pushouts: Arc<Counter>,

    // The epoch-record ring (per checkpoint).
    /// Closed epochs whose ring slot is claimed but not yet committed.
    epochs_in_flight: Arc<AtomicU64>,
    ring_commits: Arc<Counter>,
}

impl RuntimeMetrics {
    /// Builds the metric set on a fresh registry.
    pub(crate) fn new(enabled: bool) -> RuntimeMetrics {
        let r = Arc::new(MetricsRegistry::new());

        let tallies: Arc<[CachePadded<SlotTally>]> =
            (0..MAX_THREADS).map(|_| CachePadded::default()).collect();
        type Total = fn(&SlotTally) -> &AtomicU64;
        let updates: Total = |t| &t.updates;
        let first_touch: Total = |t| &t.first_touch;
        let bytes_stored: Total = |t| &t.bytes_stored;
        for (name, help, unit, total) in [
            (
                "respct_incll_updates_total",
                "InCLL cell updates",
                Unit::None,
                updates,
            ),
            (
                "respct_incll_first_touch_total",
                "InCLL updates that logged a backup (first touch in epoch)",
                Unit::None,
                first_touch,
            ),
            (
                "respct_bytes_stored_total",
                "Bytes logically stored through the pool API",
                Unit::Bytes,
                bytes_stored,
            ),
        ] {
            let tallies = Arc::clone(&tallies);
            r.counter_fn(name, help, unit, move || sum_tallies(&tallies, total));
        }
        {
            let tallies = Arc::clone(&tallies);
            r.gauge_fn(
                "respct_incll_first_touch_rate",
                "Fraction of InCLL updates that were first touches",
                Unit::None,
                move || {
                    let u = sum_tallies(&tallies, updates);
                    if u == 0 {
                        0.0
                    } else {
                        sum_tallies(&tallies, first_touch) as f64 / u as f64
                    }
                },
            );
        }
        let bytes_flushed = r.counter(
            "respct_bytes_flushed_total",
            "Bytes written back by checkpoints (unique lines x 64)",
            Unit::Bytes,
        );
        {
            let tallies = Arc::clone(&tallies);
            let flushed = Arc::clone(&bytes_flushed);
            r.gauge_fn(
                "respct_write_amplification",
                "Bytes flushed per byte logically stored",
                Unit::None,
                move || {
                    let s = sum_tallies(&tallies, bytes_stored);
                    if s == 0 {
                        0.0
                    } else {
                        flushed.get() as f64 / s as f64
                    }
                },
            );
        }

        let ckpt_wait_ns = r.histogram(
            "respct_checkpoint_wait_ns",
            "Checkpoint quiescence wait",
            Unit::Nanos,
        );
        let ckpt_partition_ns = r.histogram(
            "respct_checkpoint_partition_ns",
            "Checkpoint gather: moving the per-thread tracking lists out",
            Unit::Nanos,
        );
        let ckpt_flush_ns = r.histogram(
            "respct_checkpoint_flush_ns",
            "Checkpoint flush phase (wall clock across flushers)",
            Unit::Nanos,
        );
        let ckpt_stw_ns = r.histogram(
            "respct_checkpoint_stw_ns",
            "Stop-the-world window (threads held parked)",
            Unit::Nanos,
        );
        let ckpt_drain_ns = r.histogram(
            "respct_checkpoint_drain_ns",
            "Background drain after thread release (pools of depth >= 1)",
            Unit::Nanos,
        );
        let ckpt_total_ns = r.histogram(
            "respct_checkpoint_total_ns",
            "Whole checkpoint duration",
            Unit::Nanos,
        );
        let epoch_len_ns = r.histogram(
            "respct_epoch_length_ns",
            "Time between consecutive checkpoint completions",
            Unit::Nanos,
        );
        let ckpt_lines = r.histogram(
            "respct_checkpoint_lines",
            "Unique cache lines flushed per checkpoint",
            Unit::Lines,
        );
        let shard_lines = r.histogram(
            "respct_shard_flush_lines",
            "Unique cache lines flushed per shard per checkpoint",
            Unit::Lines,
        );
        let shard_flush_ns = r.histogram(
            "respct_shard_flush_ns",
            "Write-back time per shard per checkpoint",
            Unit::Nanos,
        );

        let drain_pushouts = r.counter(
            "respct_drain_pushouts_total",
            "On-demand line push-outs during asynchronous drains",
            Unit::None,
        );
        let epochs_in_flight = Arc::new(AtomicU64::new(0));
        {
            let in_flight = Arc::clone(&epochs_in_flight);
            r.gauge_fn(
                "respct_epochs_in_flight",
                "Closed epochs whose drains have not yet ring-committed",
                Unit::None,
                move || in_flight.load(Ordering::Relaxed) as f64,
            );
        }
        let ring_commits = r.counter(
            "respct_ring_commits_total",
            "Drain commits published in ring order",
            Unit::None,
        );

        let rp_stall_ns = r.histogram(
            "respct_rp_stall_ns",
            "Time a thread spent parked at a restart point for a checkpoint",
            Unit::Nanos,
        );
        let rp_stall_by_slot: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
            (0..MAX_THREADS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        );
        {
            let per_slot = Arc::clone(&rp_stall_by_slot);
            r.gauge_vec_fn(
                "respct_rp_stall_total_ns",
                "Cumulative RP stall per thread slot (non-zero slots only)",
                Unit::Nanos,
                "slot",
                move || {
                    per_slot
                        .iter()
                        .enumerate()
                        .filter_map(|(slot, v)| {
                            let ns = v.load(Ordering::Relaxed);
                            (ns > 0).then(|| (slot.to_string(), ns as f64))
                        })
                        .collect()
                },
            );
        }

        RuntimeMetrics {
            registry: r,
            enabled: AtomicBool::new(enabled),
            tallies,
            bytes_flushed,
            ckpt_wait_ns,
            ckpt_partition_ns,
            ckpt_flush_ns,
            ckpt_stw_ns,
            ckpt_drain_ns,
            ckpt_total_ns,
            epoch_len_ns,
            ckpt_lines,
            shard_lines,
            shard_flush_ns,
            last_ckpt: Mutex::new(None),
            rp_stall_ns,
            rp_stall_by_slot,
            drain_pushouts,
            epochs_in_flight,
            ring_commits,
        }
    }

    /// Surfaces the pmem substrate's counters as read-on-demand gauges.
    pub(crate) fn register_pmem(&self, stats: &Arc<respct_pmem::PmemStats>) {
        type ReadFn = fn(&respct_pmem::PmemStats) -> u64;
        let entries: [(&'static str, &'static str, ReadFn); 4] = [
            (
                "respct_pmem_pwb_total",
                "Cache-line write-backs (clwb)",
                |s| s.pwb.load(Ordering::Relaxed),
            ),
            ("respct_pmem_psync_total", "Persist fences (sfence)", |s| {
                s.psync.load(Ordering::Relaxed)
            }),
            (
                "respct_pmem_stores_total",
                "Persistent stores (sim mode only)",
                |s| s.stores.load(Ordering::Relaxed),
            ),
            (
                "respct_pmem_evictions_total",
                "Simulator cache-line evictions",
                |s| s.evictions.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, read) in entries {
            let stats = Arc::clone(stats);
            self.registry
                .gauge_fn(name, help, Unit::None, move || read(&stats) as f64);
        }
    }

    /// Whether hot-path instrumentation is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The underlying registry (for export or serving).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// One InCLL update of `bytes` payload by the holder of `slot`;
    /// `first_touch` when it logged a backup. Gated on
    /// [`enabled`](Self::enabled).
    #[inline]
    pub(crate) fn on_update(&self, slot: usize, bytes: u64, first_touch: bool) {
        if !self.enabled() {
            return;
        }
        let t = &self.tallies[slot];
        SlotTally::add(&t.updates, 1);
        if first_touch {
            SlotTally::add(&t.first_touch, 1);
        }
        SlotTally::add(&t.bytes_stored, bytes);
    }

    /// `add_modified` over `bytes` of plain persistent data by the holder
    /// of `slot`. Gated.
    #[inline]
    pub(crate) fn on_bytes_stored(&self, slot: usize, bytes: u64) {
        if self.enabled() {
            SlotTally::add(&self.tallies[slot].bytes_stored, bytes);
        }
    }

    /// A thread parked `ns` at a restart point waiting out a checkpoint.
    #[inline]
    pub(crate) fn on_rp_stall(&self, slot: usize, ns: u64) {
        self.rp_stall_ns.record(ns);
        self.rp_stall_by_slot[slot].fetch_add(ns, Ordering::Relaxed);
    }

    /// A first touch in the new epoch pushed out a line still pending in
    /// the draining checkpoint. Ungated: cold and rare by construction.
    #[inline]
    pub(crate) fn on_drain_pushout(&self) {
        self.drain_pushouts.inc();
    }

    /// Total on-demand push-outs across all drains.
    pub fn drain_pushouts(&self) -> u64 {
        self.drain_pushouts.get()
    }

    /// A checkpoint claimed its ring slot: one more epoch in flight.
    pub(crate) fn on_ring_claim(&self) {
        self.epochs_in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// A drain committed its ring slot: one epoch fewer in flight.
    pub(crate) fn on_ring_commit(&self) {
        self.epochs_in_flight.fetch_sub(1, Ordering::Relaxed);
        self.ring_commits.inc();
    }

    /// Records one finished checkpoint — called by the drain routine at
    /// commit, inline on a synchronous pool and on the executor otherwise.
    /// Always on (per-checkpoint cost); this is also the source of truth
    /// for [`ckpt_snapshot`](Self::ckpt_snapshot).
    pub(crate) fn on_checkpoint(&self, report: &CkptReport) {
        self.ckpt_wait_ns.record(report.wait_ns);
        self.ckpt_partition_ns.record(report.partition_ns);
        self.ckpt_flush_ns.record(report.flush_ns);
        self.ckpt_stw_ns.record(report.stw_ns);
        self.ckpt_drain_ns.record(report.drain_ns);
        self.ckpt_total_ns.record(report.total_ns);
        self.ckpt_lines.record(report.lines);
        self.bytes_flushed
            .add(report.lines * respct_pmem::CACHE_LINE as u64);
        for s in &report.shards {
            self.shard_lines.record(s.lines);
            self.shard_flush_ns.record(s.flush_ns);
        }
        let now = Instant::now();
        let mut last = self.last_ckpt.lock();
        if let Some(prev) = last.replace(now) {
            self.epoch_len_ns.record((now - prev).as_nanos() as u64);
        }
    }

    /// The aggregate checkpoint counters, reconstructed from the phase
    /// histograms (exact: histogram counts and sums are exact; only the
    /// bucket boundaries are approximate).
    pub fn ckpt_snapshot(&self) -> CkptSnapshot {
        CkptSnapshot {
            count: self.ckpt_total_ns.count(),
            lines_flushed: self.ckpt_lines.sum(),
            wait_ns: self.ckpt_wait_ns.sum(),
            partition_ns: self.ckpt_partition_ns.sum(),
            flush_ns: self.ckpt_flush_ns.sum(),
            stw_ns: self.ckpt_stw_ns.sum(),
            drain_ns: self.ckpt_drain_ns.sum(),
            total_ns: self.ckpt_total_ns.sum(),
        }
    }
}

impl std::fmt::Debug for RuntimeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeMetrics")
            .field("enabled", &self.enabled())
            .field("checkpoints", &self.ckpt_total_ns.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ShardReport;

    fn report(lines: u64) -> CkptReport {
        CkptReport {
            closed_epoch: 1,
            lines,
            wait_ns: 1000,
            partition_ns: 200,
            flush_ns: 3000,
            stw_ns: 4200,
            drain_ns: 0,
            total_ns: 5000,
            shards: vec![ShardReport {
                shard: 0,
                lines,
                flush_ns: 2000,
            }],
        }
    }

    #[test]
    fn checkpoint_snapshot_matches_reports() {
        let m = RuntimeMetrics::new(true);
        m.on_checkpoint(&report(10));
        m.on_checkpoint(&report(30));
        let s = m.ckpt_snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.lines_flushed, 40);
        assert_eq!(s.wait_ns, 2000);
        assert_eq!(s.total_ns, 10_000);
    }

    #[test]
    fn disabled_gate_skips_hot_path_counters() {
        let m = RuntimeMetrics::new(false);
        m.on_update(1, 8, true);
        m.on_bytes_stored(1, 64);
        assert!(!m
            .registry()
            .to_json()
            .contains("\"respct_incll_updates_total\":1"));
        assert!(m
            .registry()
            .to_json()
            .contains("\"respct_incll_updates_total\":0"));
    }

    #[test]
    fn hot_path_counters_sum_the_slots() {
        let m = RuntimeMetrics::new(true);
        m.on_update(1, 8, true);
        m.on_update(5, 16, false);
        m.on_bytes_stored(5, 64);
        let text = m.registry().to_prometheus();
        for want in [
            "# TYPE respct_incll_updates_total counter\nrespct_incll_updates_total 2\n",
            "# TYPE respct_incll_first_touch_total counter\nrespct_incll_first_touch_total 1\n",
            "# TYPE respct_bytes_stored_total counter\nrespct_bytes_stored_total 88\n",
            "respct_incll_first_touch_rate 0.5\n",
        ] {
            assert!(text.contains(want), "{want:?} missing from:\n{text}");
        }
    }

    #[test]
    fn write_amplification_gauge() {
        let m = RuntimeMetrics::new(true);
        m.on_bytes_stored(2, 64);
        m.on_checkpoint(&report(2)); // 128 bytes flushed
        let json = m.registry().to_json();
        assert!(
            json.contains("\"respct_write_amplification\":2"),
            "json: {json}"
        );
    }

    #[test]
    fn rp_stall_surfaces_per_slot() {
        let m = RuntimeMetrics::new(true);
        m.on_rp_stall(3, 500);
        m.on_rp_stall(3, 700);
        let text = m.registry().to_prometheus();
        assert!(text.contains("respct_rp_stall_total_ns{slot=\"3\"} 1200"));
        assert_eq!(m.rp_stall_ns.count(), 2);
    }
}
