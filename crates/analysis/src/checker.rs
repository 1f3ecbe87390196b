//! The trace checker: one reading of the ResPCT protocol, two rule sets.
//!
//! The [`Checker`] implements the [`TraceSink`] trait and consumes events
//! *online* as the traced run emits them. Each event is read once into the
//! protocol state the trace tells: the current epoch and checkpoint phase,
//! the live InCLL cells with the epoch each was last logged for, the lines
//! the tracking lists promise to flush, the open drains of the epoch ring
//! with the lines (and content generations) each owes, every thread's
//! unfenced `pwb`s, and each line's store generation. Two rule sets read
//! that state as it stood *before* the event, and file into one [`Report`]:
//!
//! * the **durability rules** below (pmemcheck/PMTest-style), which add
//!   each line's newest durable generation;
//! * the **happens-before rules** of `race.rs` (FastTrack-style vector
//!   clocks over the runtime's `SyncRel`/`SyncAcq` edges): persist races
//!   on InCLL cells, commits not ordered after their fences, racy recovery
//!   reads.
//!
//! The durability rules:
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
//!
//! A `Restore` is the one reset: the volatile image becomes the persisted
//! one, so tracking lists, open drains, in-flight write-backs and logging
//! knowledge go, and every line is durable at its current content. (A pool
//! dropped between a crash and the restore still commits its drains.)

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use respct_pmem::{Region, TraceEvent, TraceMarker, TraceSink};

use crate::race::HappensBefore;
use crate::report::{Diagnostic, DiagnosticKind, Report};

/// One drain between its `PipelineBegin` and its `RingCommit`.
pub(crate) struct OpenDrain {
    /// The ring slot the epoch claimed.
    slot: u64,
    /// The checkpoint cycle that claimed it.
    pub(crate) cycle: u64,
    /// Snapshot taken at `PipelineBegin`: line -> content generation the
    /// drain promised to persist before `RingCommit`.
    pub(crate) owed: HashMap<u64, u64>,
}

/// The protocol as the trace tells it, advanced once per event.
#[derive(Default)]
pub(crate) struct Protocol {
    /// Current plain epoch, adopted from the first marker that names one
    /// (the checker may attach to an already-running pool).
    pub(crate) epoch: Option<u64>,
    /// The in-progress checkpoint flushes its tracked lines (`Full` mode).
    pub(crate) ckpt_full: bool,
    in_checkpoint: bool,
    in_recovery: bool,
    /// Checkpoint cycles begun (`CheckpointBegin`s seen).
    pub(crate) cycle: u64,
    /// Live InCLL cells by address (BTreeMap for overlap queries): the
    /// plain epoch each was last logged for, if known.
    pub(crate) cells: BTreeMap<u64, Option<u64>>,
    /// Lines the current epoch's tracking lists promise to flush.
    tracked: HashSet<u64>,
    /// Open drains by epoch; several may be open on a ring deeper than 1.
    pub(crate) ring_open: BTreeMap<u64, OpenDrain>,
    /// Unfenced write-backs per thread: `(line, gen snapshot at pwb)`.
    pub(crate) pending: HashMap<u64, Vec<(u64, u64)>>,
    /// Volatile content version per line (bumped per store).
    gens: HashMap<u64, u64>,
}

impl Protocol {
    fn gen(&self, line: u64) -> u64 {
        self.gens.get(&line).copied().unwrap_or(0)
    }

    /// Adopts `epoch` if no marker has named one yet.
    fn adopt(&mut self, epoch: u64) {
        self.epoch.get_or_insert(epoch);
    }

    fn apply(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Store { addr, len, .. } => {
                for line in addr / 64..=(addr + len.max(1) - 1) / 64 {
                    *self.gens.entry(line).or_default() += 1;
                }
            }
            TraceEvent::Pwb { tid, line } => {
                let gen = self.gen(line);
                self.pending.entry(tid).or_default().push((line, gen));
            }
            TraceEvent::Psync { tid } => {
                self.pending.remove(&tid);
            }
            // A power failure loses in-flight write-backs with the volatile
            // domain (the conservative PCSO reading).
            TraceEvent::PersistAll | TraceEvent::Crash { .. } => self.pending.clear(),
            TraceEvent::Restore => {
                self.pending.clear();
                self.tracked.clear();
                self.ring_open.clear();
                for logged in self.cells.values_mut() {
                    *logged = None;
                }
                self.in_checkpoint = false;
                self.in_recovery = false;
            }
            TraceEvent::Marker { marker, .. } => self.on_marker(marker),
            TraceEvent::Eviction { .. }
            | TraceEvent::SyncRel { .. }
            | TraceEvent::SyncAcq { .. }
            | TraceEvent::Load { .. } => {}
        }
    }

    fn on_marker(&mut self, marker: TraceMarker) {
        match marker {
            TraceMarker::CellDeclare { addr } => {
                self.cells.insert(addr, self.epoch);
            }
            // Cells declared before the sink attached are adopted on their
            // first log record.
            TraceMarker::CellLogged { addr, epoch } => {
                self.adopt(epoch);
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
                self.adopt(epoch);
                self.ckpt_full = full;
                self.in_checkpoint = true;
                self.cycle += 1;
            }
            TraceMarker::CheckpointEnd { .. } => self.in_checkpoint = false,
            TraceMarker::RecoveryBegin { failed_epoch } => {
                self.epoch = Some(failed_epoch);
                self.in_recovery = true;
            }
            // The rolled-back cell keeps its failed-epoch tag: the runtime
            // will (correctly) skip re-logging it when the resumed epoch
            // re-executes.
            TraceMarker::RecoveryApply { addr } => {
                self.cells.insert(addr, self.epoch);
            }
            TraceMarker::RecoveryEnd { .. } => self.in_recovery = false,
            // The ring-slot claim, which advances the epoch. The drain owes
            // the tracked lines at their current content generation; later
            // stores to the same lines belong to epoch `epoch + 1`.
            TraceMarker::PipelineBegin { epoch, slot } => {
                let owed = self
                    .tracked
                    .drain()
                    .map(|line| (line, self.gens.get(&line).copied().unwrap_or(0)))
                    .collect();
                let cycle = self.cycle;
                self.ring_open
                    .insert(epoch, OpenDrain { slot, cycle, owed });
                self.epoch = Some(epoch + 1);
            }
            TraceMarker::RingCommit { epoch } => {
                self.ring_open.remove(&epoch);
            }
            TraceMarker::ShardFlushBegin { .. }
            | TraceMarker::ShardFlushEnd { .. }
            | TraceMarker::OrderBarrier
            | TraceMarker::RestartPoint { .. }
            | TraceMarker::DrainPushOut { .. } => {}
        }
    }
}

/// Where a rule set files a finding: the run's report, stamped with the
/// epoch current when the event arrived.
pub(crate) struct Findings<'a> {
    report: &'a mut Report,
    epoch: Option<u64>,
}

impl Findings<'_> {
    pub(crate) fn diag(
        &mut self,
        kind: DiagnosticKind,
        line: Option<u64>,
        addr: Option<u64>,
        detail: String,
    ) {
        self.report.push(Diagnostic {
            kind,
            line,
            addr,
            epoch: self.epoch,
            detail,
        });
    }
}

/// A rule set: reads each event against the [`Protocol`] as it stood before
/// the event, keeping whatever state of its own its rules need.
pub(crate) trait Rules {
    fn event(&mut self, p: &Protocol, ev: &TraceEvent, out: &mut Findings<'_>);
}

impl<A: Rules, B: Rules> Rules for (A, B) {
    fn event(&mut self, p: &Protocol, ev: &TraceEvent, out: &mut Findings<'_>) {
        self.0.event(p, ev, out);
        self.1.event(p, ev, out);
    }
}

/// The protocol state, the rules reading it, and what they found.
#[derive(Default)]
pub(crate) struct Replay<R> {
    protocol: Protocol,
    rules: R,
    pub(crate) report: Report,
}

impl<R: Rules> Replay<R> {
    pub(crate) fn apply(&mut self, ev: &TraceEvent) {
        self.report.events += 1;
        let mut out = Findings {
            report: &mut self.report,
            epoch: self.protocol.epoch,
        };
        self.rules.event(&self.protocol, ev, &mut out);
        self.protocol.apply(ev);
    }
}

#[derive(Default, Clone, Copy)]
struct Persisted {
    /// Newest content version known durable.
    gen: u64,
    /// The last durability transition was simulator-initiated (eviction,
    /// `persist_all`, an evict-all crash), which the runtime cannot observe
    /// — suppresses the redundant-flush advisory for the next `pwb`.
    evicted: bool,
}

/// Rules 1–6.
#[derive(Default)]
pub(crate) struct Durability {
    persisted: HashMap<u64, Persisted>,
    /// `(tid, line)` of on-demand push-outs (`DrainPushOut`) whose fence has
    /// not been seen yet. A push-out is an application thread's own,
    /// voluntary flush; no commit relies on it, so rule 3 ignores it.
    pushing_out: HashSet<(u64, u64)>,
    /// Flush shards opened (`ShardFlushBegin`) but not yet fenced-and-closed
    /// (`ShardFlushEnd`) in the current checkpoint.
    open_shards: HashSet<u64>,
}

impl Rules for Durability {
    fn event(&mut self, p: &Protocol, ev: &TraceEvent, out: &mut Findings<'_>) {
        match *ev {
            TraceEvent::Store { addr, len, .. } if !p.in_recovery => {
                logging_rule(p, addr, len, out);
            }
            TraceEvent::Pwb { tid, line } => {
                let gen = p.gen(line);
                let l = *self.persisted.entry(line).or_default();
                let dup_pending = p
                    .pending
                    .get(&tid)
                    .is_some_and(|v| v.contains(&(line, gen)));
                if (l.gen >= gen && !l.evicted) || dup_pending {
                    out.diag(
                        DiagnosticKind::RedundantFlush,
                        Some(line),
                        None,
                        format!("pwb of line {line} whose content is already durable"),
                    );
                }
            }
            TraceEvent::Psync { tid } => {
                self.pushing_out.retain(|&(t, _)| t != tid);
                for &(line, g) in p.pending.get(&tid).into_iter().flatten() {
                    let l = self.persisted.entry(line).or_default();
                    *l = Persisted {
                        gen: l.gen.max(g),
                        evicted: false,
                    };
                }
            }
            TraceEvent::Eviction { line } => {
                let gen = p.gen(line);
                self.persisted
                    .insert(line, Persisted { gen, evicted: true });
            }
            TraceEvent::PersistAll
            | TraceEvent::Crash {
                all_persisted: true,
            } => self.settle(p, true),
            TraceEvent::Restore => {
                self.settle(p, false);
                self.pushing_out.clear();
                self.open_shards.clear();
            }
            TraceEvent::Marker { tid, marker } => self.on_marker(p, tid, marker, out),
            _ => {}
        }
    }
}

/// Rule 2: does a store of `[addr, addr + len)` overlap a live cell's
/// record that has not been logged for the current epoch? A record is the
/// cell's first 8 bytes, so exactly the cells starting in
/// `(addr - 8, addr + len)` overlap.
fn logging_rule(p: &Protocol, addr: u64, len: u64, out: &mut Findings<'_>) {
    for (&cell, &logged) in p.cells.range(addr.saturating_sub(7)..addr + len) {
        if logged.is_none() || logged != p.epoch {
            out.diag(
                DiagnosticKind::LoggingViolation,
                None,
                Some(cell),
                format!(
                    "store [{addr:#x}, {:#x}) hits record of cell {cell:#x} logged for epoch \
                     {logged:?}, current {:?}",
                    addr + len,
                    p.epoch,
                ),
            );
        }
    }
}

/// Rule 5 for a marker naming `epoch`: it must be the current one.
fn expect_epoch(p: &Protocol, epoch: u64, addr: Option<u64>, what: &str, out: &mut Findings<'_>) {
    if let Some(e) = p.epoch.filter(|&e| e != epoch) {
        out.diag(
            DiagnosticKind::EpochDiscipline,
            None,
            addr,
            format!("{what} for epoch {epoch}, current {e}"),
        );
    }
}

impl Durability {
    /// Every line becomes durable at its current content.
    fn settle(&mut self, p: &Protocol, evicted: bool) {
        for &line in p.gens.keys() {
            self.persisted.entry(line).or_default();
        }
        for (line, l) in &mut self.persisted {
            *l = Persisted {
                gen: p.gen(*line),
                evicted,
            };
        }
    }

    fn on_marker(&mut self, p: &Protocol, tid: u64, marker: TraceMarker, out: &mut Findings<'_>) {
        let shard_fence = |out: &mut Findings<'_>, detail| {
            out.diag(DiagnosticKind::ShardFence, None, None, detail);
        };
        let ring_order = |out: &mut Findings<'_>, detail| {
            out.diag(DiagnosticKind::RingCommitOrder, None, None, detail);
        };
        match marker {
            TraceMarker::CellLogged { addr, epoch } => {
                expect_epoch(p, epoch, Some(addr), &format!("cell {addr:#x} logged"), out);
            }
            TraceMarker::CheckpointBegin { epoch, .. } => {
                expect_epoch(p, epoch, None, "checkpoint begins", out);
            }
            TraceMarker::ShardFlushBegin { shard, .. } => {
                let reopened = !self.open_shards.insert(shard);
                if reopened {
                    shard_fence(
                        out,
                        format!("flush shard {shard} opened twice without an intervening end"),
                    );
                }
            }
            TraceMarker::ShardFlushEnd { shard } => {
                let unopened = !self.open_shards.remove(&shard);
                if unopened {
                    shard_fence(out, format!("flush shard {shard} closed without a begin"));
                }
            }
            TraceMarker::OrderBarrier => {
                // Rule 6: an open shard's write-backs may still be in flight
                // when the ring commit becomes durable.
                let mut open: Vec<u64> = self.open_shards.drain().collect();
                open.sort_unstable();
                for shard in open {
                    shard_fence(
                        out,
                        format!(
                            "flush shard {shard} still open at the ring commit barrier \
                             (missing shard fence)"
                        ),
                    );
                }
                // Rule 3: the ring commit that follows assumes every data
                // write-back is durable. An unfenced pwb of an owed line at
                // this point can reach NVMM *after* the commit.
                let mut unfenced: Vec<u64> = p
                    .pending
                    .iter()
                    .flat_map(|(&t, pends)| pends.iter().map(move |&(line, _)| (t, line)))
                    .filter(|pwb| !self.pushing_out.contains(pwb))
                    .map(|(_, line)| line)
                    .filter(|line| p.ring_open.values().any(|d| d.owed.contains_key(line)))
                    .collect();
                unfenced.sort_unstable();
                unfenced.dedup();
                for line in unfenced {
                    out.diag(
                        DiagnosticKind::CrossLineOrdering,
                        Some(line),
                        None,
                        format!(
                            "owed line {line} has an unfenced pwb at the ring commit barrier \
                             (missing psync)"
                        ),
                    );
                }
            }
            TraceMarker::CheckpointEnd { epoch } => {
                if let Some(e) = p.epoch.filter(|&e| e != epoch + 1) {
                    out.diag(
                        DiagnosticKind::EpochDiscipline,
                        None,
                        None,
                        format!("checkpoint end for epoch {epoch}, current {e}"),
                    );
                }
            }
            TraceMarker::RecoveryEnd { epoch } if p.epoch != Some(epoch) => out.diag(
                DiagnosticKind::EpochDiscipline,
                None,
                None,
                format!("recovery ends in epoch {epoch}, began in {:?}", p.epoch),
            ),
            TraceMarker::PipelineBegin { epoch, slot } => {
                // Several drains may legally be open at once, but never two
                // on one slot: the claim overwrites the record recovery
                // needs to roll the previous holder back.
                if let Some((held, _)) = p.ring_open.iter().find(|(_, d)| d.slot == slot) {
                    ring_order(
                        out,
                        format!(
                            "ring slot {slot} claimed for epoch {epoch} while epoch {held} \
                             still holds it uncommitted"
                        ),
                    );
                }
                if !p.in_checkpoint {
                    out.diag(
                        DiagnosticKind::EpochDiscipline,
                        None,
                        None,
                        format!("drain begins for epoch {epoch} outside a checkpoint"),
                    );
                }
                expect_epoch(p, epoch, None, "drain begins", out);
            }
            TraceMarker::RingCommit { epoch } => {
                // Rule 1: commits must retire oldest-first — zeroing this
                // slot claims every predecessor already committed, so an
                // older epoch still open here means a crash now would leave
                // a ring hole.
                let stale: Vec<u64> = p.ring_open.range(..epoch).map(|(&e, _)| e).collect();
                if !stale.is_empty() {
                    ring_order(
                        out,
                        format!(
                            "ring commit for epoch {epoch} while older epoch(s) {stale:?} are \
                             still draining"
                        ),
                    );
                }
                let Some(drain) = p.ring_open.get(&epoch) else {
                    ring_order(
                        out,
                        format!("ring commit for epoch {epoch} without a matching PipelineBegin"),
                    );
                    return;
                };
                if !p.ckpt_full {
                    return; // NoFlush: the data is deliberately not written back
                }
                // Every owed line must be durable at (or past) its snapshot
                // generation, or a crash right now recovers past `epoch`
                // with its data missing.
                let mut missed: Vec<(u64, u64, u64)> = drain
                    .owed
                    .iter()
                    .filter_map(|(&line, &snap)| {
                        let durable = self.persisted.get(&line).map_or(0, |l| l.gen);
                        (durable < snap).then_some((line, snap, durable))
                    })
                    .collect();
                missed.sort_unstable();
                for (line, snap, durable) in missed {
                    out.diag(
                        DiagnosticKind::MissedFlush,
                        Some(line),
                        None,
                        format!(
                            "ring commit for epoch {epoch} but line {line} is durable only at \
                             gen {durable} < snapshot gen {snap}"
                        ),
                    );
                }
            }
            // Only exempts the push-out's own write-back from rule 3 until
            // its fence lands; its ordering is a happens-before rule.
            TraceMarker::DrainPushOut { addr, .. } => {
                self.pushing_out.insert((tid, addr / 64));
            }
            _ => {}
        }
    }
}

/// The online persistency checker: the durability and happens-before rules
/// over one reading of the protocol. Attach to a region before running a
/// workload; ask for a [`Report`] afterwards.
#[derive(Default)]
pub struct Checker {
    state: Mutex<Replay<(Durability, HappensBefore)>>,
}

impl Checker {
    /// A detached checker (feed it events manually, or via
    /// [`Region::set_trace_sink`], alone or in a
    /// [`TeeSink`](respct_pmem::TeeSink)).
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
    use respct_pmem::SyncToken;

    fn marker(m: TraceMarker) -> TraceEvent {
        TraceEvent::Marker { tid: 1, marker: m }
    }

    /// Feeds a synthetic event stream through the protocol state and the
    /// durability rules alone, and returns the report.
    fn replay(events: &[TraceEvent]) -> Report {
        let mut r = Replay::<Durability>::default();
        for ev in events {
            r.apply(ev);
        }
        r.report
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

    /// One protocol-complete epoch through the public sink trips one rule
    /// of each set: the drain committer (thread 9) never acquires flusher
    /// 3's acknowledgement of line 10 (an unordered commit), and nobody
    /// writes back line 11 (a missed flush). Both land in one report.
    #[test]
    fn one_report_carries_both_rule_sets() {
        let (quiesce, timer) = (SyncToken::Flag { slot: 0 }, SyncToken::Timer);
        let at = |tid, marker| TraceEvent::Marker { tid, marker };
        let checker = Checker::new();
        for ev in [
            TraceEvent::store_meta(2, 640, 8),
            at(2, TraceMarker::TrackLine { line: 10 }),
            TraceEvent::store_meta(2, 704, 8),
            at(2, TraceMarker::TrackLine { line: 11 }),
            TraceEvent::SyncRel {
                tid: 2,
                token: quiesce,
            },
            TraceEvent::SyncAcq {
                tid: 9,
                token: quiesce,
            },
            at(
                9,
                TraceMarker::CheckpointBegin {
                    epoch: 1,
                    full: true,
                },
            ),
            at(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            at(3, TraceMarker::ShardFlushBegin { shard: 0, lines: 1 }),
            TraceEvent::Pwb { tid: 3, line: 10 },
            TraceEvent::Psync { tid: 3 },
            at(3, TraceMarker::ShardFlushEnd { shard: 0 }),
            at(9, TraceMarker::OrderBarrier),
            at(9, TraceMarker::RingCommit { epoch: 1 }),
            at(9, TraceMarker::CheckpointEnd { epoch: 1 }),
            TraceEvent::SyncRel {
                tid: 9,
                token: timer,
            },
            TraceEvent::SyncAcq {
                tid: 2,
                token: timer,
            },
        ] {
            checker.event(&ev);
        }
        let r = checker.report();
        let missed = r.of_kind(DiagnosticKind::MissedFlush);
        let unordered = r.of_kind(DiagnosticKind::UnorderedCommit);
        assert_eq!((missed.len(), unordered.len()), (1, 1), "{r}");
        assert_eq!((missed[0].line, unordered[0].line), (Some(11), Some(10)));
        assert_eq!(r.diagnostics.len(), 2, "{r}");
    }
}
