//! The trace checker: a cache-line state machine replaying the persistency
//! event stream.
//!
//! The checker implements the [`TraceSink`] trait and consumes events
//! *online* as the traced run emits them (same spirit as pmemcheck's
//! store-tracking and PMTest's ordering rules, but specialized to ResPCT's
//! epoch discipline). Per cache line it keeps two counters:
//!
//! * `gen` — bumped on every store to the line (volatile content version);
//! * `persisted_gen` — the newest version known durable, advanced by
//!   `pwb`+`psync` pairs, simulator evictions, and crash/persist events.
//!
//! On top of that it tracks the runtime's own claims, delivered as
//! [`TraceMarker`]s: which byte spans are InCLL cells (and for which epoch
//! each was last logged), which lines the epoch's tracking lists promise to
//! flush, and where the checkpoint/recovery phase boundaries lie. The rules:
//!
//! 1. **Ring commit** — every checkpoint claims ring slot `epoch mod K` at
//!    `PipelineBegin` (slot 0 on a synchronous pool), which snapshots the
//!    tracked lines with their content generations as the drain's debt,
//!    and commits at `RingCommit` (the slot goes durable-zero). At each
//!    commit of a *full* checkpoint, every line the epoch owes must be
//!    durable *at least at its snapshot generation* — else `MissedFlush`;
//!    later stores to the same line belong to the next checkpoint. Up to K
//!    drains may be open at once, but a claim of a slot whose previous
//!    epoch is still open, a commit without a claim, and a commit while an
//!    older epoch is still open are `RingCommitOrder` violations: zeroing
//!    slot `e` durably claims every predecessor committed (and releases
//!    epoch-`e` frees for reclamation).
//! 2. **Logging rule** — a store overlapping a live cell's record span is
//!    only legal when the cell has been logged (`CellLogged`) for the
//!    current epoch, except while recovery rewrites records wholesale.
//! 3. **Cross-line ordering** — at `OrderBarrier` (just before the ring
//!    commit) no thread may hold an unfenced `pwb` of a line an open drain
//!    owes: the commit's durability must not race its data.
//! 4. **Redundant flush** — a `pwb` of a line that is already durable (and
//!    not merely because the simulator happened to evict it) wastes
//!    write-back bandwidth. Perf severity.
//! 5. **Epoch discipline** — each claim advances the epoch by exactly 1;
//!    checkpoint, claim, log, and recovery markers must carry the epoch the
//!    checker believes is current.
//! 6. **Shard fence protocol** — the flush pipeline brackets each shard's
//!    write-backs (a shard is a contiguous range of the epoch's sorted
//!    lines) with `ShardFlushBegin`/`ShardFlushEnd`, and `End` asserts the
//!    shard's pwbs are covered by a fence. Every opened shard
//!    must be closed before the `OrderBarrier`; double-opens and closes
//!    without a begin are protocol violations too.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use respct_pmem::{Region, TraceEvent, TraceMarker, TraceSink};

use crate::report::{Diagnostic, DiagnosticKind, Report};

#[derive(Default, Clone, Copy)]
struct LineState {
    /// Volatile content version (bumped per store).
    gen: u64,
    /// Newest version known durable.
    persisted_gen: u64,
    /// The last durability transition was simulator-initiated (eviction /
    /// `persist_all`), which the runtime cannot observe — suppresses the
    /// redundant-flush advisory for the next `pwb`.
    evicted: bool,
}

/// One drain between its `PipelineBegin` and its `RingCommit`.
struct OpenDrain {
    /// The ring slot the epoch claimed.
    slot: u64,
    /// Snapshot taken at `PipelineBegin`: line -> content generation the
    /// drain promised to persist before `RingCommit`.
    owed: HashMap<u64, u64>,
}

#[derive(Default)]
struct CheckerState {
    lines: HashMap<u64, LineState>,
    /// Unfenced write-backs per thread: `(line, gen snapshot at pwb)`.
    pending: HashMap<u64, Vec<(u64, u64)>>,
    /// Live InCLL cells by record address (BTreeMap for overlap queries):
    /// the plain (unmixed) epoch each was last logged for, if known.
    cells: BTreeMap<u64, Option<u64>>,
    /// Lines the current epoch's tracking lists promise to flush.
    tracked: HashSet<u64>,
    /// Open drains, keyed by epoch so rule 1 can both check commits in
    /// order and settle each epoch's own debt.
    ring_open: BTreeMap<u64, OpenDrain>,
    /// `(tid, line)` of on-demand push-outs (`DrainPushOut`) whose fence has
    /// not been seen yet. A push-out is an application thread's own,
    /// voluntary flush; no commit relies on it, so rule 3 ignores it.
    pushing_out: HashSet<(u64, u64)>,
    /// Flush shards opened (`ShardFlushBegin`) but not yet fenced-and-closed
    /// (`ShardFlushEnd`) in the current checkpoint.
    open_shards: HashSet<u64>,
    /// Current plain epoch, adopted from the first marker that names one
    /// (the checker may attach to an already-running pool).
    epoch: Option<u64>,
    /// The in-progress checkpoint flushes its tracked lines (`Full` mode).
    ckpt_full: bool,
    in_checkpoint: bool,
    in_recovery: bool,
    report: Report,
}

impl CheckerState {
    fn diag(&mut self, kind: DiagnosticKind, line: Option<u64>, addr: Option<u64>, detail: String) {
        self.report.push(Diagnostic {
            kind,
            line,
            addr,
            epoch: self.epoch,
            detail,
        });
    }

    fn line_mut(&mut self, line: u64) -> &mut LineState {
        self.lines.entry(line).or_default()
    }

    fn apply(&mut self, ev: &TraceEvent) {
        self.report.events += 1;
        match *ev {
            TraceEvent::Store { addr, len, .. } => self.on_store(addr, len),
            TraceEvent::Pwb { tid, line } => self.on_pwb(tid, line),
            TraceEvent::Psync { tid } => {
                self.pushing_out.retain(|&(t, _)| t != tid);
                for (line, g) in self.pending.remove(&tid).unwrap_or_default() {
                    let l = self.line_mut(line);
                    l.persisted_gen = l.persisted_gen.max(g);
                    l.evicted = false;
                }
            }
            TraceEvent::Eviction { line } => {
                let l = self.line_mut(line);
                l.persisted_gen = l.gen;
                l.evicted = true;
            }
            TraceEvent::PersistAll => {
                for l in self.lines.values_mut() {
                    l.persisted_gen = l.gen;
                    l.evicted = true;
                }
                self.pending.clear();
            }
            TraceEvent::Crash { all_persisted } => {
                // PowerFailure: in-flight write-backs are lost with the
                // volatile domain (the conservative PCSO reading). EvictAll:
                // every dirty line reached NVMM on the way down.
                self.pending.clear();
                if all_persisted {
                    for l in self.lines.values_mut() {
                        l.persisted_gen = l.gen;
                    }
                }
            }
            TraceEvent::Restore => {
                // Volatile image := persisted image; all volatile context
                // (tracking lists, logging knowledge) is gone.
                for l in self.lines.values_mut() {
                    l.gen = l.persisted_gen;
                    l.evicted = false;
                }
                self.pending.clear();
                self.pushing_out.clear();
                self.tracked.clear();
                self.ring_open.clear();
                self.open_shards.clear();
                for logged in self.cells.values_mut() {
                    *logged = None;
                }
                self.in_checkpoint = false;
                self.in_recovery = false;
            }
            TraceEvent::Marker { tid, marker } => self.on_marker(tid, marker),
            // Happens-before bookkeeping belongs to the race detector; the
            // cache-line state machine ignores it.
            TraceEvent::SyncRel { .. } | TraceEvent::SyncAcq { .. } | TraceEvent::Load { .. } => {}
        }
    }

    fn on_store(&mut self, addr: u64, len: u64) {
        let first = addr / 64;
        let last = (addr + len.max(1) - 1) / 64;
        for line in first..=last {
            self.line_mut(line).gen += 1;
        }
        if self.in_recovery {
            return; // recovery rewrites records from their backups wholesale
        }
        // Logging rule: does this store overlap a live cell's record that
        // has not been logged for the current epoch? A record is the cell's
        // first 8 bytes, so exactly the cells starting in
        // `(addr - 8, addr + len)` overlap.
        let epoch = self.epoch;
        let mut hits: Vec<(u64, String)> = Vec::new();
        for (&cell_addr, &logged) in self.cells.range(addr.saturating_sub(7)..addr + len) {
            match (logged, epoch) {
                (Some(le), Some(e)) if le == e => {}
                _ => hits.push((
                    cell_addr,
                    format!(
                        "store [{addr:#x}, {:#x}) hits record of cell {cell_addr:#x} logged \
                         for epoch {:?}, current {epoch:?}",
                        addr + len,
                        logged,
                    ),
                )),
            }
        }
        for (cell_addr, detail) in hits {
            self.diag(
                DiagnosticKind::LoggingViolation,
                None,
                Some(cell_addr),
                detail,
            );
        }
    }

    fn on_pwb(&mut self, tid: u64, line: u64) {
        let (gen, durable, evicted) = {
            let l = self.line_mut(line);
            (l.gen, l.persisted_gen >= l.gen, l.evicted)
        };
        let dup_pending = self
            .pending
            .get(&tid)
            .is_some_and(|v| v.iter().any(|&(pl, pg)| pl == line && pg == gen));
        if (durable && !evicted) || dup_pending {
            self.diag(
                DiagnosticKind::RedundantFlush,
                Some(line),
                None,
                format!("pwb of line {line} whose content is already durable"),
            );
        }
        self.pending.entry(tid).or_default().push((line, gen));
    }

    fn on_marker(&mut self, tid: u64, marker: TraceMarker) {
        match marker {
            TraceMarker::CellDeclare { addr } => {
                self.cells.insert(addr, self.epoch);
            }
            TraceMarker::CellLogged { addr, epoch } => {
                if self.epoch.is_none() {
                    self.epoch = Some(epoch);
                } else if self.epoch != Some(epoch) {
                    self.diag(
                        DiagnosticKind::EpochDiscipline,
                        None,
                        Some(addr),
                        format!(
                            "cell {addr:#x} logged for epoch {epoch}, current {:?}",
                            self.epoch
                        ),
                    );
                }
                // Cells declared before the sink attached are adopted on
                // their first log record.
                self.cells.insert(addr, Some(epoch));
            }
            TraceMarker::CellRetire { addr, len } => {
                let doomed: Vec<u64> = self
                    .cells
                    .range(addr..addr + len)
                    .map(|(&a, _)| a)
                    .collect();
                for a in doomed {
                    self.cells.remove(&a);
                }
            }
            TraceMarker::TrackLine { line } => {
                self.tracked.insert(line);
            }
            TraceMarker::CheckpointBegin { epoch, full } => {
                match self.epoch {
                    None => self.epoch = Some(epoch),
                    Some(e) if e != epoch => self.diag(
                        DiagnosticKind::EpochDiscipline,
                        None,
                        None,
                        format!("checkpoint begins for epoch {epoch}, current {e}"),
                    ),
                    _ => {}
                }
                self.ckpt_full = full;
                self.in_checkpoint = true;
            }
            TraceMarker::ShardFlushBegin { shard, lines: _ } => {
                if !self.open_shards.insert(shard) {
                    self.diag(
                        DiagnosticKind::ShardFence,
                        None,
                        None,
                        format!("flush shard {shard} opened twice without an intervening end"),
                    );
                }
            }
            TraceMarker::ShardFlushEnd { shard } => {
                if !self.open_shards.remove(&shard) {
                    self.diag(
                        DiagnosticKind::ShardFence,
                        None,
                        None,
                        format!("flush shard {shard} closed without a begin"),
                    );
                }
            }
            TraceMarker::OrderBarrier => {
                // Rule 6: every shard the flush pipeline opened must have
                // been fenced and closed before the commit barrier; an open
                // shard means its write-backs may still be in flight when
                // the ring commit becomes durable.
                let mut open: Vec<u64> = self.open_shards.drain().collect();
                open.sort_unstable();
                for shard in open {
                    self.diag(
                        DiagnosticKind::ShardFence,
                        None,
                        None,
                        format!(
                            "flush shard {shard} still open at the ring commit barrier \
                             (missing shard fence)"
                        ),
                    );
                }
                // Rule 3: the ring commit that follows assumes every data
                // write-back is durable. An unfenced pwb of an owed line at
                // this point can reach NVMM *after* the commit.
                let mut unfenced: Vec<u64> = Vec::new();
                for (&pwb_tid, pends) in &self.pending {
                    for &(line, _) in pends {
                        if !self.pushing_out.contains(&(pwb_tid, line))
                            && self.ring_open.values().any(|d| d.owed.contains_key(&line))
                        {
                            unfenced.push(line);
                        }
                    }
                }
                unfenced.sort_unstable();
                unfenced.dedup();
                for line in unfenced {
                    self.diag(
                        DiagnosticKind::CrossLineOrdering,
                        Some(line),
                        None,
                        format!(
                            "owed line {line} has an unfenced pwb at the ring commit \
                             barrier (missing psync)"
                        ),
                    );
                }
            }
            TraceMarker::CheckpointEnd { epoch } => {
                if let Some(e) = self.epoch {
                    if epoch + 1 != e {
                        self.diag(
                            DiagnosticKind::EpochDiscipline,
                            None,
                            None,
                            format!("checkpoint end for epoch {epoch}, current {e}"),
                        );
                    }
                }
                self.in_checkpoint = false;
            }
            TraceMarker::RecoveryBegin { failed_epoch } => {
                self.epoch = Some(failed_epoch);
                self.in_recovery = true;
            }
            TraceMarker::RecoveryApply { addr } => {
                // The rolled-back cell keeps its failed-epoch tag: the
                // runtime will (correctly) skip re-logging it when the
                // resumed epoch re-executes.
                self.cells.insert(addr, self.epoch);
            }
            TraceMarker::RecoveryEnd { epoch } => {
                if self.epoch != Some(epoch) {
                    self.diag(
                        DiagnosticKind::EpochDiscipline,
                        None,
                        None,
                        format!("recovery ends in epoch {epoch}, began in {:?}", self.epoch),
                    );
                }
                self.in_recovery = false;
            }
            TraceMarker::PipelineBegin { epoch, slot } => {
                // The ring-slot claim, which advances the epoch. Snapshot
                // what the drain owes — the tracked lines at their current
                // content generation. Later stores to the same lines belong
                // to epoch `epoch + 1` and are NOT this drain's problem.
                // Several drains may legally be open at once, but never two
                // on one slot: the claim overwrites the record recovery
                // needs to roll the previous holder back.
                if let Some((&held, _)) = self.ring_open.iter().find(|(_, d)| d.slot == slot) {
                    self.diag(
                        DiagnosticKind::RingCommitOrder,
                        None,
                        None,
                        format!(
                            "ring slot {slot} claimed for epoch {epoch} while epoch {held} \
                             still holds it uncommitted"
                        ),
                    );
                }
                if !self.in_checkpoint {
                    self.diag(
                        DiagnosticKind::EpochDiscipline,
                        None,
                        None,
                        format!("drain begins for epoch {epoch} outside a checkpoint"),
                    );
                }
                match self.epoch {
                    None => self.epoch = Some(epoch),
                    Some(e) if e != epoch => self.diag(
                        DiagnosticKind::EpochDiscipline,
                        None,
                        None,
                        format!("drain begins for epoch {epoch}, current {e}"),
                    ),
                    _ => {}
                }
                let owed: HashMap<u64, u64> = self
                    .tracked
                    .drain()
                    .map(|line| {
                        let gen = self.lines.get(&line).map_or(0, |s| s.gen);
                        (line, gen)
                    })
                    .collect();
                self.ring_open.insert(epoch, OpenDrain { slot, owed });
                self.epoch = Some(epoch + 1);
            }
            TraceMarker::RingCommit { epoch } => {
                // Rule 1: ring slot `epoch % K` is durably zero. Commits
                // must retire oldest-first — zeroing this slot claims every
                // predecessor already committed, so an older epoch still
                // open here means a crash now would leave a ring hole.
                let stale: Vec<u64> = self.ring_open.range(..epoch).map(|(&e, _)| e).collect();
                if !stale.is_empty() {
                    self.diag(
                        DiagnosticKind::RingCommitOrder,
                        None,
                        None,
                        format!(
                            "ring commit for epoch {epoch} while older epoch(s) {stale:?} \
                             are still draining"
                        ),
                    );
                }
                let Some(drain) = self.ring_open.remove(&epoch) else {
                    self.diag(
                        DiagnosticKind::RingCommitOrder,
                        None,
                        None,
                        format!("ring commit for epoch {epoch} without a matching PipelineBegin"),
                    );
                    return;
                };
                if !self.ckpt_full {
                    return; // NoFlush: the data is deliberately not written back
                }
                // Every line the drain snapshotted must be durable at (or
                // past) its snapshot generation, or a crash right now
                // recovers past `epoch` with its data missing.
                let mut missed: Vec<(u64, u64, u64)> = drain
                    .owed
                    .iter()
                    .filter_map(|(&line, &snap_gen)| {
                        let durable = self.lines.get(&line).map_or(0, |s| s.persisted_gen);
                        (durable < snap_gen).then_some((line, snap_gen, durable))
                    })
                    .collect();
                missed.sort_unstable();
                for (line, snap_gen, durable) in missed {
                    self.diag(
                        DiagnosticKind::MissedFlush,
                        Some(line),
                        None,
                        format!(
                            "ring commit for epoch {epoch} but line {line} is durable only \
                             at gen {durable} < snapshot gen {snap_gen}"
                        ),
                    );
                }
            }
            TraceMarker::RestartPoint { .. } => {}
            // Push-out ordering is a happens-before rule (race detector);
            // here the marker only exempts the push-out's own write-back
            // from rule 3 until its fence lands.
            TraceMarker::DrainPushOut { addr, .. } => {
                self.pushing_out.insert((tid, addr / 64));
            }
        }
    }
}

/// The online persistency checker. Attach to a region before running a
/// workload; ask for a [`Report`] afterwards.
#[derive(Default)]
pub struct Checker {
    state: Mutex<CheckerState>,
}

impl Checker {
    /// A detached checker (feed it events manually, or via
    /// [`Region::set_trace_sink`]).
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Creates a checker and attaches it to `region` as its trace sink.
    ///
    /// # Panics
    ///
    /// Panics if the region already has a sink.
    pub fn attach(region: &Region) -> Arc<Checker> {
        let checker = Arc::new(Checker::new());
        region.set_trace_sink(Arc::<Checker>::clone(&checker));
        checker
    }

    /// Snapshot of everything found so far.
    pub fn report(&self) -> Report {
        self.state.lock().report.clone()
    }

    /// Panics with the full report if any error-severity diagnostic was
    /// recorded. Perf advisories do not fail the assertion.
    ///
    /// # Panics
    ///
    /// See above — that is the point.
    pub fn assert_clean(&self) {
        let report = self.report();
        assert!(
            report.is_clean(),
            "trace checker found violations:\n{report}"
        );
    }
}

impl TraceSink for Checker {
    fn event(&self, ev: &TraceEvent) {
        self.state.lock().apply(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DiagnosticKind, MAX_PER_KIND};

    fn marker(m: TraceMarker) -> TraceEvent {
        TraceEvent::Marker { tid: 1, marker: m }
    }

    /// Feeds a synthetic event stream and returns the report.
    fn replay(events: &[TraceEvent]) -> Report {
        let c = Checker::new();
        for ev in events {
            c.event(ev);
        }
        c.report()
    }

    #[test]
    fn clean_epoch_cycle() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::Pwb { tid: 1, line: 10 },
            TraceEvent::Psync { tid: 1 },
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
        ]);
        assert!(r.is_clean(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn missed_flush_detected() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            // no pwb/psync of line 10
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::MissedFlush).len(), 1, "{r}");
    }

    #[test]
    fn noflush_checkpoint_suspends_missed_flush() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: false,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn eviction_satisfies_flush_promise() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            TraceEvent::Eviction { line: 10 },
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unfenced_pwb_at_barrier_is_ordering_violation() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::Pwb { tid: 1, line: 10 },
            // missing Psync
            marker(TraceMarker::OrderBarrier),
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::CrossLineOrdering).len(), 1, "{r}");
    }

    #[test]
    fn pushout_in_flight_at_the_barrier_is_not_the_commits_problem() {
        // An application thread's push-out of line 10 sits between its pwb
        // and its psync when the drain executor reaches its order barrier.
        // The commit relies on the executor's own (fenced) flush of the
        // line, not on the push-out.
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
            TraceEvent::Pwb { tid: 3, line: 10 },
            TraceEvent::Psync { tid: 3 },
            TraceEvent::Marker {
                tid: 5,
                marker: TraceMarker::DrainPushOut {
                    addr: 640,
                    epoch: 1,
                },
            },
            TraceEvent::Pwb { tid: 5, line: 10 },
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
            TraceEvent::Psync { tid: 5 },
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn logging_rule_enforced() {
        let cell = 1024u64;
        let r = replay(&[
            marker(TraceMarker::CellDeclare { addr: cell }),
            marker(TraceMarker::CellLogged {
                addr: cell,
                epoch: 1,
            }),
            TraceEvent::store_meta(1, cell, 8), // logged: fine
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::store_meta(1, cell, 8), // new epoch, no log
        ]);
        let v = r.of_kind(DiagnosticKind::LoggingViolation);
        assert_eq!(v.len(), 1, "{r}");
        assert_eq!(v[0].addr, Some(cell));
    }

    #[test]
    fn retired_cell_may_be_overwritten() {
        let cell = 1024u64;
        let r = replay(&[
            marker(TraceMarker::CellDeclare { addr: cell }),
            marker(TraceMarker::CellLogged {
                addr: cell,
                epoch: 1,
            }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::CellRetire {
                addr: cell,
                len: 32,
            }),
            TraceEvent::store_meta(1, cell, 8), // free-list link
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn recovery_stores_are_exempt_and_reapply_marks_logged() {
        let cell = 1024u64;
        let r = replay(&[
            marker(TraceMarker::CellDeclare { addr: cell }),
            marker(TraceMarker::CellLogged {
                addr: cell,
                epoch: 1,
            }),
            TraceEvent::Crash {
                all_persisted: false,
            },
            TraceEvent::Restore,
            marker(TraceMarker::RecoveryBegin { failed_epoch: 1 }),
            marker(TraceMarker::RecoveryApply { addr: cell }),
            TraceEvent::store_meta(1, cell, 8), // rollback write
            marker(TraceMarker::RecoveryEnd { epoch: 1 }),
            // Resumed epoch re-executes; tag == failed epoch, no re-log.
            TraceEvent::store_meta(1, cell, 8),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn redundant_flush_is_perf_advisory() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            TraceEvent::Pwb { tid: 1, line: 10 },
            TraceEvent::Psync { tid: 1 },
            TraceEvent::Pwb { tid: 1, line: 10 }, // already durable
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::RedundantFlush).len(), 1, "{r}");
        assert!(r.is_clean(), "perf advisories don't dirty the run: {r}");
    }

    #[test]
    fn skipping_epoch_advance_flagged() {
        // Epoch 1's claim advances to epoch 2; a checkpoint of epoch 3 skips
        // one.
        let r = replay(&[
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 3,
                full: true,
            }),
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::EpochDiscipline).len(), 1, "{r}");
    }

    #[test]
    fn sharded_flush_cycle_is_clean() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::ShardFlushBegin { shard: 3, lines: 1 }),
            TraceEvent::Pwb { tid: 1, line: 10 },
            TraceEvent::Psync { tid: 1 },
            marker(TraceMarker::ShardFlushEnd { shard: 3 }),
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
        ]);
        assert!(r.is_clean(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn open_shard_at_barrier_flagged() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::ShardFlushBegin { shard: 3, lines: 1 }),
            TraceEvent::Pwb { tid: 1, line: 10 },
            // no psync, no ShardFlushEnd: the shard's fence was skipped
            marker(TraceMarker::OrderBarrier),
        ]);
        let v = r.of_kind(DiagnosticKind::ShardFence);
        assert_eq!(v.len(), 1, "{r}");
        assert!(v[0].detail.contains("still open"), "{r}");
        // The unfenced pwb is also an ordering violation in its own right.
        assert_eq!(r.of_kind(DiagnosticKind::CrossLineOrdering).len(), 1, "{r}");
    }

    #[test]
    fn unbalanced_shard_markers_flagged() {
        let r = replay(&[
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::ShardFlushBegin { shard: 1, lines: 2 }),
            marker(TraceMarker::ShardFlushBegin { shard: 1, lines: 2 }), // double open
            marker(TraceMarker::ShardFlushEnd { shard: 1 }),
            marker(TraceMarker::ShardFlushEnd { shard: 2 }), // end without begin
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::ShardFence).len(), 2, "{r}");
    }

    #[test]
    fn ring_cycle_is_clean() {
        // K = 2: epoch 2 opens while epoch 1's drain is still flushing
        // (legal under rule 1), and the commits retire in order, each
        // behind its own order barrier.
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            // Threads released before the flush; line 10 still dirty here.
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 1 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
            // Released threads run epoch 2 while epoch 1 still drains.
            TraceEvent::store_meta(2, 704, 8),
            marker(TraceMarker::TrackLine { line: 11 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 2,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 2, slot: 0 }),
            marker(TraceMarker::CheckpointEnd { epoch: 2 }),
            // Drain worker settles both epochs oldest-first.
            TraceEvent::Pwb { tid: 3, line: 10 },
            TraceEvent::Psync { tid: 3 },
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
            TraceEvent::Pwb { tid: 3, line: 11 },
            TraceEvent::Psync { tid: 3 },
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 2 }),
        ]);
        assert!(r.is_clean(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn post_release_stores_do_not_charge_the_drain() {
        // K = 1. A thread re-dirties line 10 after PipelineBegin (epoch 2
        // work). The drain only owes the snapshot generation, which the
        // pwb+psync below covers — the newer store is the *next*
        // checkpoint's debt.
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
            TraceEvent::Pwb { tid: 3, line: 10 },
            TraceEvent::Psync { tid: 3 },
            // Released thread writes the same line for epoch 2.
            TraceEvent::store_meta(2, 648, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::OrderBarrier),
            marker(TraceMarker::RingCommit { epoch: 1 }),
        ]);
        assert!(r.is_clean(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn drain_epoch_mismatch_flagged() {
        let r = replay(&[
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 2, slot: 0 }), // current is 1
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::EpochDiscipline).len(), 1, "{r}");
    }

    #[test]
    fn claim_of_a_still_open_slot_flagged() {
        // K = 1: epoch 2 claims slot 0 while epoch 1 — still uncommitted —
        // holds it. The claim overwrites the only durable record that
        // epoch 1 must roll back. (At K = 2 the same two claims land on
        // different slots and are legal: `ring_cycle_is_clean`.)
        let r = replay(&[
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 2,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 2, slot: 0 }),
            marker(TraceMarker::CheckpointEnd { epoch: 2 }),
            marker(TraceMarker::RingCommit { epoch: 1 }),
            marker(TraceMarker::RingCommit { epoch: 2 }),
        ]);
        let v = r.of_kind(DiagnosticKind::RingCommitOrder);
        assert_eq!(v.len(), 1, "{r}");
        assert!(v[0].detail.contains("still holds it"), "{r}");
        assert!(!r.is_clean(), "{r}");
    }

    #[test]
    fn ring_commit_out_of_order_flagged() {
        // Epoch 2's slot is zeroed while epoch 1 is still draining — a
        // crash here leaves a ring hole recovery rejects.
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 1 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
            TraceEvent::store_meta(2, 704, 8),
            marker(TraceMarker::TrackLine { line: 11 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 2,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 2, slot: 0 }),
            marker(TraceMarker::CheckpointEnd { epoch: 2 }),
            TraceEvent::Pwb { tid: 3, line: 10 },
            TraceEvent::Pwb { tid: 3, line: 11 },
            TraceEvent::Psync { tid: 3 },
            marker(TraceMarker::RingCommit { epoch: 2 }), // epoch 1 still open
            marker(TraceMarker::RingCommit { epoch: 1 }),
        ]);
        let v = r.of_kind(DiagnosticKind::RingCommitOrder);
        assert_eq!(v.len(), 1, "{r}");
        assert!(v[0].detail.contains("still draining"), "{r}");
        assert!(!r.is_clean(), "{r}");
    }

    /// A commit before the epoch's lines are durable is a missed flush,
    /// whichever thread drains — the same finding on a ring slot of any
    /// depth as at a synchronous pool's slot 0.
    #[test]
    fn ring_commit_before_durable_flagged() {
        let r = replay(&[
            TraceEvent::store_meta(1, 640, 8),
            marker(TraceMarker::TrackLine { line: 10 }),
            marker(TraceMarker::CheckpointBegin {
                epoch: 1,
                full: true,
            }),
            marker(TraceMarker::PipelineBegin { epoch: 1, slot: 1 }),
            // no pwb/psync of line 10: the worker skipped its write-backs
            marker(TraceMarker::RingCommit { epoch: 1 }),
            marker(TraceMarker::CheckpointEnd { epoch: 1 }),
        ]);
        let v = r.of_kind(DiagnosticKind::MissedFlush);
        assert_eq!(v.len(), 1, "{r}");
        assert_eq!(v[0].line, Some(10));
        assert!(r.of_kind(DiagnosticKind::RingCommitOrder).is_empty(), "{r}");
    }

    #[test]
    fn diagnostics_are_capped_per_kind() {
        let c = Checker::new();
        for i in 0..(MAX_PER_KIND as u64 + 40) {
            c.event(&marker(TraceMarker::CellDeclare { addr: i * 64 }));
            // A whole checkpoint of epoch `i + 1`: its claim advances the
            // epoch past the one the cell was declared in.
            let epoch = i + 1;
            for m in [
                TraceMarker::CheckpointBegin { epoch, full: true },
                TraceMarker::PipelineBegin { epoch, slot: 0 },
                TraceMarker::OrderBarrier,
                TraceMarker::RingCommit { epoch },
                TraceMarker::CheckpointEnd { epoch },
            ] {
                c.event(&marker(m));
            }
            c.event(&TraceEvent::store_meta(1, i * 64, 8));
        }
        let r = c.report();
        assert_eq!(
            r.of_kind(DiagnosticKind::LoggingViolation).len(),
            MAX_PER_KIND
        );
        assert!(r.suppressed > 0);
    }
}
