//! Happens-before persistency race detection over the trace.
//!
//! The [`RaceDetector`] is the second analysis sink next to the
//! [`Checker`](crate::Checker): where the checker replays a cache-line
//! *durability* state machine, this module replays a *synchronization*
//! state machine — per-thread vector clocks driven by the
//! [`TraceEvent::SyncRel`]/[`TraceEvent::SyncAcq`] edges the runtime emits
//! at every protocol synchronization point (quiescence flags, the
//! checkpoint timer, the checkpoint-serialization lock, [`TracedMutex`]
//! locks, flusher acknowledgements, the drain-ticket hand-off, and the
//! drain-commit handshake).
//!
//! The vector-clock discipline is FastTrack-style, applied to the trace:
//!
//! * `SyncRel { t, token }` — the token's clock joins `t`'s clock, then
//!   `t`'s own component increments. Emitted *before* the releasing store.
//! * `SyncAcq { t, token }` — `t`'s clock joins the token's clock. Emitted
//!   *after* the acquiring observation.
//!
//! Because each release precedes its store and each acquire follows its
//! observation, any serialization of the event stream a sink can observe
//! orders a release before every acquire that reads from it — so clock
//! propagation over the stream is sound.
//!
//! Three rules are checked, all surfaced as
//! [`DiagnosticKind::PersistRace`] / [`DiagnosticKind::UnorderedCommit`]:
//!
//! * **(a) Persist race** — two threads store to the same cache line within
//!   one epoch with no happens-before edge between the stores, and the
//!   stores either overlap or hit the same InCLL cell's span. An InCLL
//!   cell's record, backup slot, and epoch tag share the line: an unordered
//!   concurrent update can tear the backup, so rollback of a crashed epoch
//!   may restore a mixed value. Unordered *disjoint* stores to different
//!   cells on one line are allowed — each cell's backup is self-contained
//!   (that is the InCLL design), and data-parallel apps legitimately share
//!   boundary lines.
//! * **(b) Un-ordered protocol point** — each ring commit (`RingCommit`,
//!   inline on a synchronous pool or on the drain executor, any ring depth)
//!   must be happens-before-after a fence of every line *its own* epoch
//!   charges; likewise a thread that pushed out a line owed to epoch `e`
//!   ([`TraceMarker::DrainPushOut`]) must acquire the release of `e`'s own
//!   commit before its next store to that line.
//! * **(c) Racy recovery read** — a recovery-time load (the region traces
//!   loads only inside the recovery window) of a line on which another
//!   thread has an in-flight (unfenced) write-back.
//!
//! Per-line write histories reset at every epoch boundary
//! (`PipelineBegin`, crash/restore, `RecoveryBegin`/`End`): ResPCT's
//! epoch rollback makes cross-epoch write pairs harmless by construction.
//!
//! [`TracedMutex`]: https://docs.rs/respct

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use respct::layout::CELL_SIZE;
use respct_pmem::{Region, SyncToken, TraceEvent, TraceMarker, TraceSink};

use crate::report::{Diagnostic, DiagnosticKind, Report};

/// Per-line cap on retained write records; a pathological single-epoch
/// write storm drops oldest-first rather than growing without bound
/// (same-thread covered rewrites are compacted first, so the cap is only
/// reachable with hundreds of distinct unordered writers on one line).
const MAX_LINE_WRITES: usize = 256;

/// A vector clock: thread id → latest known component. Sparse — only
/// threads that synchronized are present; absent means 0.
#[derive(Debug, Default, Clone)]
struct Vc(HashMap<u64, u64>);

impl Vc {
    fn join(&mut self, other: &Vc) {
        for (&t, &c) in &other.0 {
            let e = self.0.entry(t).or_insert(0);
            if *e < c {
                *e = c;
            }
        }
    }

    fn get(&self, t: u64) -> u64 {
        self.0.get(&t).copied().unwrap_or(0)
    }

    fn bump(&mut self, t: u64) {
        *self.0.entry(t).or_insert(0) += 1;
    }
}

/// One store retained for rule (a): who wrote, at which clock component,
/// over which bytes.
#[derive(Debug, Clone, Copy)]
struct WriteRec {
    tid: u64,
    /// The writer's own clock component at the store (its "write epoch" in
    /// FastTrack terms): the store happens-before an event of thread `u`
    /// iff `u`'s clock component for `tid` has reached `clock`.
    clock: u64,
    addr: u64,
    len: u64,
}

#[derive(Default)]
struct RaceState {
    /// Per-thread vector clocks. A thread's own component starts at 1 so a
    /// fresh thread's writes are never mistaken for already-synchronized.
    clocks: HashMap<u64, Vc>,
    /// Per-token published clocks (the release side of each edge).
    tokens: HashMap<SyncToken, Vc>,
    /// Per-line writes of the current epoch.
    line_writes: HashMap<u64, Vec<WriteRec>>,
    /// Live InCLL cells by address; each spans [`CELL_SIZE`] bytes (record,
    /// backup, epoch tag). Rule (a)'s "same cell" test.
    cells: BTreeSet<u64>,
    /// Fences covering each line: per fencing thread, the `(gen, clock)` of
    /// its latest `Psync` that retired a write-back of the line. A commit
    /// point must be happens-before-after *some* current-generation fence
    /// of each charged line — not every fence: an application thread's
    /// voluntary push-out flush is a fence the drain committer legitimately
    /// never synchronizes with.
    line_fence: HashMap<u64, HashMap<u64, (u64, u64)>>,
    /// Checkpoint-cycle generation (bumped at `CheckpointBegin`): commits
    /// only accept fences issued since their own cycle began, so a fence
    /// from an earlier checkpoint cannot vouch for a line that was
    /// re-dirtied and re-flushed since.
    gen: u64,
    /// Unfenced write-backs per thread.
    pending_pwbs: HashMap<u64, Vec<u64>>,
    /// Lines the current epoch's tracking lists charge to the next commit.
    tracked: HashSet<u64>,
    /// Open drains: epoch → (cycle generation at its
    /// `PipelineBegin`, the `tracked` snapshot its `RingCommit` is charged
    /// with). Several may be open at once on a ring deeper than 1.
    ring_open: HashMap<u64, (u64, Vec<u64>)>,
    /// `(committer, clock)` of each epoch's `RingCommit`: the committer's
    /// own clock component *before* the release it is about to emit.
    ring_commits: HashMap<u64, (u64, u64)>,
    /// Push-out obligations: `(tid, line)` → the epoch whose commit the
    /// thread's next store to `line` must be ordered after.
    pushouts: HashMap<(u64, u64), u64>,
    ckpt_full: bool,
    epoch: Option<u64>,
    report: Report,
}

impl RaceState {
    fn diag(&mut self, kind: DiagnosticKind, line: Option<u64>, addr: Option<u64>, detail: String) {
        self.report.push(Diagnostic {
            kind,
            line,
            addr,
            epoch: self.epoch,
            detail,
        });
    }

    fn clock(&mut self, tid: u64) -> &mut Vc {
        self.clocks.entry(tid).or_insert_with(|| {
            let mut vc = Vc::default();
            vc.0.insert(tid, 1);
            vc
        })
    }

    /// Forgets the per-line write history — called at every epoch
    /// boundary, where ResPCT's rollback semantics make earlier write
    /// pairs unobservable.
    fn reset_epoch_writes(&mut self) {
        self.line_writes.clear();
    }

    fn apply(&mut self, ev: &TraceEvent) {
        self.report.events += 1;
        match *ev {
            TraceEvent::SyncRel { tid, token } => {
                let vc = self.clock(tid).clone();
                self.tokens.entry(token).or_default().join(&vc);
                self.clock(tid).bump(tid);
            }
            TraceEvent::SyncAcq { tid, token } => {
                if let Some(tok) = self.tokens.get(&token) {
                    let tok = tok.clone();
                    self.clock(tid).join(&tok);
                }
            }
            TraceEvent::Store { tid, addr, len, .. } => self.on_store(tid, addr, len),
            TraceEvent::Load { tid, line } => self.on_load(tid, line),
            TraceEvent::Pwb { tid, line } => {
                self.pending_pwbs.entry(tid).or_default().push(line);
            }
            TraceEvent::Psync { tid } => self.on_psync(tid),
            TraceEvent::Eviction { .. } => {}
            TraceEvent::PersistAll => {
                // Test-setup persist: treat as a fence on every thread's
                // in-flight write-backs.
                let tids: Vec<u64> = self.pending_pwbs.keys().copied().collect();
                for tid in tids {
                    self.on_psync(tid);
                }
            }
            TraceEvent::Crash { .. } | TraceEvent::Restore => {
                self.reset_epoch_writes();
                self.pending_pwbs.clear();
                self.line_fence.clear();
                self.tracked.clear();
                self.ring_open.clear();
                self.ring_commits.clear();
                self.pushouts.clear();
            }
            TraceEvent::Marker { tid, marker } => self.on_marker(tid, marker),
        }
    }

    fn on_psync(&mut self, tid: u64) {
        let fenced = self.pending_pwbs.remove(&tid).unwrap_or_default();
        if fenced.is_empty() {
            return;
        }
        let c = self.clock(tid).get(tid);
        let gen = self.gen;
        for line in fenced {
            self.line_fence
                .entry(line)
                .or_default()
                .insert(tid, (gen, c));
        }
    }

    /// Does any live cell's span intersect both byte ranges? Only cells
    /// starting less than a span before the ranges can qualify.
    fn same_cell(&self, a1: u64, e1: u64, a2: u64, e2: u64) -> bool {
        let lo = a1.min(a2).saturating_sub(CELL_SIZE - 1);
        let hi = e1.max(e2);
        self.cells.range(lo..hi).any(|&ca| {
            let ce = ca + CELL_SIZE;
            ca < e1 && a1 < ce && ca < e2 && a2 < ce
        })
    }

    fn on_store(&mut self, tid: u64, addr: u64, len: u64) {
        let len = len.max(1);
        let first = addr / 64;
        let last = (addr + len - 1) / 64;
        let clock = self.clock(tid).clone();
        let my_component = clock.get(tid);
        let mut hits: Vec<(u64, WriteRec)> = Vec::new();
        for line in first..=last {
            // Push-out obligation: the first store to a pushed-out line
            // must be ordered after the commit release of the epoch the
            // line was owed to.
            if let Some(owed_to) = self.pushouts.remove(&(tid, line)) {
                match self.ring_commits.get(&owed_to).copied() {
                    Some((d, c)) if clock.get(d) >= c => {}
                    Some((d, c)) => self.diag(
                        DiagnosticKind::UnorderedCommit,
                        Some(line),
                        Some(addr),
                        format!(
                            "thread {tid} overwrote pushed-out line {line} without \
                             acquiring epoch {owed_to}'s commit by thread {d} (needs \
                             clock {c}, has {})",
                            clock.get(d)
                        ),
                    ),
                    None => self.diag(
                        DiagnosticKind::UnorderedCommit,
                        Some(line),
                        Some(addr),
                        format!(
                            "thread {tid} overwrote pushed-out line {line} before the \
                             drain of epoch {owed_to} committed"
                        ),
                    ),
                }
            }
            let recs = self.line_writes.entry(line).or_default();
            for rec in recs.iter() {
                if rec.tid == tid || clock.get(rec.tid) >= rec.clock {
                    continue; // same thread, or ordered by happens-before
                }
                hits.push((line, *rec));
            }
            // Compact: earlier writes of this thread fully covered by the
            // new range are HB-dominated for every future reader.
            recs.retain(|r| !(r.tid == tid && addr <= r.addr && r.addr + r.len <= addr + len));
            if recs.len() >= MAX_LINE_WRITES {
                recs.remove(0);
            }
            recs.push(WriteRec {
                tid,
                clock: my_component,
                addr,
                len,
            });
        }
        for (line, rec) in hits {
            let overlap = rec.addr < addr + len && addr < rec.addr + rec.len;
            if !overlap && !self.same_cell(addr, addr + len, rec.addr, rec.addr + rec.len) {
                // Unordered but disjoint and cell-disjoint: per-cell
                // backups keep rollback sound, so this is allowed.
                continue;
            }
            self.diag(
                DiagnosticKind::PersistRace,
                Some(line),
                Some(addr),
                format!(
                    "unordered same-epoch stores to line {line}: thread {} wrote \
                     [{:#x}, {:#x}) and thread {tid} wrote [{addr:#x}, {:#x}) with no \
                     happens-before edge{}",
                    rec.tid,
                    rec.addr,
                    rec.addr + rec.len,
                    addr + len,
                    if overlap {
                        " (overlapping)"
                    } else {
                        " (same cell)"
                    },
                ),
            );
        }
    }

    fn on_load(&mut self, tid: u64, line: u64) {
        // Rule (c): loads are only traced inside the recovery window; a
        // load of a line another thread is still writing back reads bytes
        // whose durability is undecided.
        let racer = self
            .pending_pwbs
            .iter()
            .find(|(&u, pends)| u != tid && pends.contains(&line))
            .map(|(&u, _)| u);
        if let Some(u) = racer {
            self.diag(
                DiagnosticKind::PersistRace,
                Some(line),
                None,
                format!(
                    "recovery-time load of line {line} by thread {tid} races thread \
                     {u}'s in-flight write-back"
                ),
            );
        }
    }

    /// Rule (b) at a commit point: every charged line must have *some*
    /// fence issued since cycle `since` — the cycle that closed the
    /// committing epoch — that the committing thread is
    /// happens-before-after (its own, or one whose `Psync` it acquired —
    /// e.g. a flusher ack). Lines with no such fence at all are skipped:
    /// that is the checker's missed-flush/ordering domain, not an HB
    /// question.
    fn check_commit(&mut self, what: &str, committer: u64, lines: &[u64], since: u64) {
        let clock = self.clock(committer).clone();
        let mut bad: Vec<(u64, u64, u64, u64)> = Vec::new();
        for &line in lines {
            let Some(fences) = self.line_fence.get(&line) else {
                continue;
            };
            let mut nearest: Option<(u64, u64, u64)> = None;
            let mut covered = false;
            for (&u, &(g, c)) in fences {
                if g < since {
                    continue;
                }
                if u == committer || clock.get(u) >= c {
                    covered = true;
                    break;
                }
                let miss = c - clock.get(u);
                if nearest.is_none_or(|(_, pc, pk)| miss < pc - pk) {
                    nearest = Some((u, c, clock.get(u)));
                }
            }
            if !covered {
                if let Some((u, c, have)) = nearest {
                    bad.push((line, u, c, have));
                }
            }
        }
        bad.sort_unstable();
        for (line, u, c, have) in bad {
            self.diag(
                DiagnosticKind::UnorderedCommit,
                Some(line),
                None,
                format!(
                    "{what} by thread {committer} is not ordered after any fence of \
                     line {line} this cycle (thread {u} fenced at clock {c}, committer \
                     knows {have})"
                ),
            );
        }
    }

    fn on_marker(&mut self, tid: u64, marker: TraceMarker) {
        match marker {
            // Cells declared before the sink attached are adopted on their
            // first log record.
            TraceMarker::CellDeclare { addr } | TraceMarker::CellLogged { addr, .. } => {
                self.cells.insert(addr);
            }
            TraceMarker::CellRetire { addr, len } => {
                let doomed: Vec<u64> = self.cells.range(addr..addr + len).copied().collect();
                for a in doomed {
                    self.cells.remove(&a);
                }
            }
            TraceMarker::TrackLine { line } => {
                self.tracked.insert(line);
            }
            TraceMarker::CheckpointBegin { epoch, full } => {
                self.ckpt_full = full;
                self.gen += 1;
                if self.epoch.is_none() {
                    self.epoch = Some(epoch);
                }
            }
            TraceMarker::PipelineBegin { epoch, .. } => {
                let lines = self.tracked.drain().collect();
                self.ring_open.insert(epoch, (self.gen, lines));
                self.reset_epoch_writes();
                self.epoch = Some(epoch + 1);
            }
            TraceMarker::RingCommit { epoch } => {
                if let Some((since, lines)) = self.ring_open.remove(&epoch) {
                    if self.ckpt_full {
                        self.check_commit("ring commit", tid, &lines, since);
                    }
                }
                let c = self.clock(tid).get(tid);
                self.ring_commits.insert(epoch, (tid, c));
            }
            TraceMarker::DrainPushOut { addr, epoch } => {
                // Keyed by the tag's own epoch, so the benign trace-order
                // race (the commit marker reaching the sink before this
                // one) needs no special case: the obligation resolves
                // against that epoch's commit whenever the store arrives.
                self.pushouts.insert((tid, addr / 64), epoch);
            }
            TraceMarker::RecoveryBegin { failed_epoch } => {
                self.epoch = Some(failed_epoch);
                self.reset_epoch_writes();
            }
            TraceMarker::RecoveryEnd { .. } => self.reset_epoch_writes(),
            TraceMarker::CheckpointEnd { .. }
            | TraceMarker::OrderBarrier
            | TraceMarker::ShardFlushBegin { .. }
            | TraceMarker::ShardFlushEnd { .. }
            | TraceMarker::RecoveryApply { .. }
            | TraceMarker::RestartPoint { .. } => {}
        }
    }
}

/// The online happens-before race detector. Attach to a region (alone or
/// in a [`TeeSink`](respct_pmem::TeeSink) next to the checker) before
/// running a workload; ask for a [`Report`] afterwards.
#[derive(Default)]
pub struct RaceDetector {
    state: Mutex<RaceState>,
}

impl RaceDetector {
    /// A detached detector (feed it events manually, or via
    /// [`Region::set_trace_sink`]).
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Creates a detector and attaches it to `region` as its trace sink.
    ///
    /// # Panics
    ///
    /// Panics if the region already has a sink.
    pub fn attach(region: &Region) -> Arc<RaceDetector> {
        let detector = Arc::new(RaceDetector::new());
        region.set_trace_sink(Arc::<RaceDetector>::clone(&detector));
        detector
    }

    /// Snapshot of everything found so far.
    pub fn report(&self) -> Report {
        self.state.lock().report.clone()
    }

    /// Panics with the full report if any race diagnostic was recorded.
    ///
    /// # Panics
    ///
    /// See above — that is the point.
    pub fn assert_clean(&self) {
        let report = self.report();
        assert!(
            report.is_clean(),
            "race detector found violations:\n{report}"
        );
    }
}

impl TraceSink for RaceDetector {
    fn event(&self, ev: &TraceEvent) {
        self.state.lock().apply(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MAX_PER_KIND;

    fn marker(tid: u64, m: TraceMarker) -> TraceEvent {
        TraceEvent::Marker { tid, marker: m }
    }

    fn rel(tid: u64, token: SyncToken) -> TraceEvent {
        TraceEvent::SyncRel { tid, token }
    }

    fn acq(tid: u64, token: SyncToken) -> TraceEvent {
        TraceEvent::SyncAcq { tid, token }
    }

    fn replay(events: &[TraceEvent]) -> Report {
        let d = RaceDetector::new();
        for ev in events {
            d.event(ev);
        }
        d.report()
    }

    const LOCK: SyncToken = SyncToken::Lock { id: 0x1000 };

    fn cell_at(addr: u64) -> TraceEvent {
        marker(1, TraceMarker::CellDeclare { addr })
    }

    #[test]
    fn ordered_same_cell_stores_are_clean() {
        let cell = 1024u64;
        let r = replay(&[
            cell_at(cell),
            TraceEvent::store_meta(1, cell, 8),
            rel(1, LOCK),
            acq(2, LOCK),
            TraceEvent::store_meta(2, cell, 8),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unordered_same_cell_stores_race() {
        let cell = 1024u64;
        let r = replay(&[
            cell_at(cell),
            TraceEvent::store_meta(1, cell, 8),
            TraceEvent::store_meta(2, cell, 8),
        ]);
        let v = r.of_kind(DiagnosticKind::PersistRace);
        assert_eq!(v.len(), 1, "{r}");
        assert_eq!(v[0].line, Some(16));
    }

    #[test]
    fn unordered_overlap_races_even_without_a_cell() {
        let r = replay(&[
            TraceEvent::store_meta(1, 2048, 8),
            TraceEvent::store_meta(2, 2052, 8),
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::PersistRace).len(), 1, "{r}");
    }

    #[test]
    fn unordered_disjoint_cells_on_one_line_are_allowed() {
        // Two self-contained InCLL cells share line 16; per-cell backups
        // make unordered disjoint updates safe.
        let r = replay(&[
            cell_at(1024),
            cell_at(1056),
            TraceEvent::store_meta(1, 1024, 8),
            TraceEvent::store_meta(2, 1056, 8),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn release_without_acquire_still_races() {
        let cell = 1024u64;
        let r = replay(&[
            cell_at(cell),
            TraceEvent::store_meta(1, cell, 8),
            rel(1, LOCK),
            // No acquire on thread 2 — the LockRelease fault shape.
            TraceEvent::store_meta(2, cell, 8),
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::PersistRace).len(), 1, "{r}");
    }

    #[test]
    fn transitive_edges_compose() {
        let cell = 1024u64;
        let hop = SyncToken::Chan { id: 0x2000 };
        let r = replay(&[
            cell_at(cell),
            TraceEvent::store_meta(1, cell, 8),
            rel(1, LOCK),
            acq(2, LOCK),
            rel(2, hop),
            acq(3, hop),
            TraceEvent::store_meta(3, cell, 8),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn epoch_boundary_forgets_writes() {
        let cell = 1024u64;
        let r = replay(&[
            cell_at(cell),
            TraceEvent::store_meta(1, cell, 8),
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            // Same cell, other thread, next epoch: rollback discipline
            // makes the pair harmless.
            TraceEvent::store_meta(2, cell, 8),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn commit_unordered_after_foreign_fence_flagged() {
        // Thread 2 fences line 10, but the committer (thread 9) never
        // acquires thread 2's release — the FlusherAck fault shape.
        let r = replay(&[
            TraceEvent::store_meta(2, 640, 8),
            marker(2, TraceMarker::TrackLine { line: 10 }),
            marker(
                9,
                TraceMarker::CheckpointBegin {
                    epoch: 1,
                    full: true,
                },
            ),
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::Pwb { tid: 2, line: 10 },
            TraceEvent::Psync { tid: 2 },
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
        ]);
        let v = r.of_kind(DiagnosticKind::UnorderedCommit);
        assert_eq!(v.len(), 1, "{r}");
        assert_eq!(v[0].line, Some(10));
    }

    #[test]
    fn commit_ordered_after_acked_fence_is_clean() {
        let ack = SyncToken::Chan { id: 0x3000 };
        let r = replay(&[
            TraceEvent::store_meta(2, 640, 8),
            marker(2, TraceMarker::TrackLine { line: 10 }),
            marker(
                9,
                TraceMarker::CheckpointBegin {
                    epoch: 1,
                    full: true,
                },
            ),
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::Pwb { tid: 2, line: 10 },
            TraceEvent::Psync { tid: 2 },
            rel(2, ack),
            acq(9, ack),
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unacquired_pushout_fence_tolerated_when_committer_fenced() {
        // An app thread's voluntary push-out flush fences line 10 without
        // the committer ever synchronizing with it; the committer's own
        // fence of the line still satisfies the commit rule.
        let r = replay(&[
            TraceEvent::store_meta(9, 640, 8),
            marker(9, TraceMarker::TrackLine { line: 10 }),
            marker(
                9,
                TraceMarker::CheckpointBegin {
                    epoch: 1,
                    full: true,
                },
            ),
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::Pwb { tid: 5, line: 10 }, // push-out by app thread 5
            TraceEvent::Psync { tid: 5 },
            TraceEvent::Pwb { tid: 9, line: 10 }, // committer's own flush
            TraceEvent::Psync { tid: 9 },
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn stale_previous_cycle_fence_is_ignored() {
        // Line 10 was fenced (and acked) in checkpoint 1; in checkpoint 2
        // it is re-tracked but never fenced. No current-cycle fence exists,
        // so the HB rule stays silent (missed flushes are the checker's
        // job) — the stale fence neither vouches for nor indicts cycle 2.
        let ack = SyncToken::Chan { id: 0x4000 };
        let r = replay(&[
            marker(2, TraceMarker::TrackLine { line: 10 }),
            marker(
                9,
                TraceMarker::CheckpointBegin {
                    epoch: 1,
                    full: true,
                },
            ),
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::Pwb { tid: 2, line: 10 },
            TraceEvent::Psync { tid: 2 },
            rel(2, ack),
            acq(9, ack),
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
            marker(2, TraceMarker::TrackLine { line: 10 }),
            marker(
                9,
                TraceMarker::CheckpointBegin {
                    epoch: 2,
                    full: true,
                },
            ),
            marker(9, TraceMarker::PipelineBegin { epoch: 2, slot: 0 }),
            marker(9, TraceMarker::RingCommit { epoch: 2 }),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn ring_commit_checks_its_own_epochs_snapshot() {
        let r = replay(&[
            TraceEvent::store_meta(2, 640, 8),
            marker(2, TraceMarker::TrackLine { line: 10 }),
            marker(
                9,
                TraceMarker::CheckpointBegin {
                    epoch: 1,
                    full: true,
                },
            ),
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            TraceEvent::Pwb { tid: 3, line: 10 },
            TraceEvent::Psync { tid: 3 },
            // Committer 7 never acquires flusher 3's release.
            marker(7, TraceMarker::RingCommit { epoch: 1 }),
        ]);
        assert_eq!(r.of_kind(DiagnosticKind::UnorderedCommit).len(), 1, "{r}");
    }

    /// On a ring deeper than 1 the next checkpoint cycle may begin before
    /// an older epoch's lines are fenced: the commit accepts fences issued
    /// since *its own* cycle began, so the overlap is clean — and still
    /// flagged when the only such fence is one the committer never joined.
    #[test]
    fn ring_commit_accepts_fences_from_overlapping_cycles() {
        let ack = SyncToken::Chan { id: 0x5000 };
        let run = |acked: bool| {
            let mut evs = vec![
                TraceEvent::store_meta(2, 640, 8),
                marker(2, TraceMarker::TrackLine { line: 10 }),
                marker(
                    9,
                    TraceMarker::CheckpointBegin {
                        epoch: 1,
                        full: true,
                    },
                ),
                marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 1 }),
                // Epoch 2's checkpoint starts while epoch 1 still drains.
                marker(
                    9,
                    TraceMarker::CheckpointBegin {
                        epoch: 2,
                        full: true,
                    },
                ),
                marker(9, TraceMarker::PipelineBegin { epoch: 2, slot: 0 }),
                TraceEvent::Pwb { tid: 3, line: 10 },
                TraceEvent::Psync { tid: 3 },
                rel(3, ack),
            ];
            if acked {
                evs.push(acq(7, ack));
            }
            evs.push(marker(7, TraceMarker::RingCommit { epoch: 1 }));
            replay(&evs)
        };
        let clean = run(true);
        assert!(clean.is_clean(), "{clean}");
        let dirty = run(false);
        assert_eq!(
            dirty.of_kind(DiagnosticKind::UnorderedCommit).len(),
            1,
            "{dirty}"
        );
    }

    #[test]
    fn pushout_store_needs_the_drain_commit_edge() {
        let drain = SyncToken::Drain;
        let clean = replay(&[
            marker(
                2,
                TraceMarker::DrainPushOut {
                    addr: 640,
                    epoch: 1,
                },
            ),
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
            rel(9, drain),
            acq(2, drain),
            TraceEvent::store_meta(2, 640, 8),
        ]);
        assert!(clean.is_clean(), "{clean}");
        let dirty = replay(&[
            marker(
                2,
                TraceMarker::DrainPushOut {
                    addr: 640,
                    epoch: 1,
                },
            ),
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
            rel(9, drain),
            // Missing acquire — the DrainHandshake fault shape.
            TraceEvent::store_meta(2, 640, 8),
        ]);
        assert_eq!(
            dirty.of_kind(DiagnosticKind::UnorderedCommit).len(),
            1,
            "{dirty}"
        );
    }

    /// A push-out obligation resolves against the commit of the tag's *own*
    /// epoch: acquiring an older epoch's commit release does not license
    /// the overwrite, and a store before that commit is flagged outright.
    #[test]
    fn pushout_binds_to_its_own_epochs_commit() {
        let drain = SyncToken::Drain;
        let r = replay(&[
            marker(
                2,
                TraceMarker::DrainPushOut {
                    addr: 640,
                    epoch: 2,
                },
            ),
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
            rel(9, drain),
            acq(2, drain),
            TraceEvent::store_meta(2, 640, 8), // epoch 2 has not committed
        ]);
        let v = r.of_kind(DiagnosticKind::UnorderedCommit);
        assert_eq!(v.len(), 1, "{r}");
        assert!(v[0].detail.contains("before the drain of epoch 2"), "{r}");
    }

    /// A push-out marker that loses the trace-order race with its own
    /// epoch's commit (the commit marker reached the sink first) still
    /// binds to that commit — provided the worker has the edge.
    #[test]
    fn pushout_marker_after_commit_binds_to_that_commit() {
        let drain = SyncToken::Drain;
        let pushout = marker(
            2,
            TraceMarker::DrainPushOut {
                addr: 640,
                epoch: 1,
            },
        );
        let clean = replay(&[
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
            rel(9, drain),
            pushout,
            acq(2, drain),
            TraceEvent::store_meta(2, 640, 8),
        ]);
        assert!(clean.is_clean(), "{clean}");
        // Without the acquire the late-bound obligation still fires.
        let dirty = replay(&[
            marker(9, TraceMarker::PipelineBegin { epoch: 1, slot: 0 }),
            marker(9, TraceMarker::RingCommit { epoch: 1 }),
            rel(9, drain),
            pushout,
            TraceEvent::store_meta(2, 640, 8),
        ]);
        assert_eq!(
            dirty.of_kind(DiagnosticKind::UnorderedCommit).len(),
            1,
            "{dirty}"
        );
    }

    #[test]
    fn recovery_load_races_inflight_writeback() {
        let r = replay(&[
            marker(9, TraceMarker::RecoveryBegin { failed_epoch: 2 }),
            TraceEvent::Pwb { tid: 1, line: 10 },
            TraceEvent::Load { tid: 2, line: 10 },
            TraceEvent::Psync { tid: 1 },
            TraceEvent::Load { tid: 2, line: 10 }, // fenced now: clean
            marker(9, TraceMarker::RecoveryEnd { epoch: 2 }),
        ]);
        let v = r.of_kind(DiagnosticKind::PersistRace);
        assert_eq!(v.len(), 1, "{r}");
        assert!(v[0].detail.contains("in-flight write-back"), "{r}");
    }

    #[test]
    fn own_pending_writeback_does_not_race_own_load() {
        let r = replay(&[
            marker(9, TraceMarker::RecoveryBegin { failed_epoch: 2 }),
            TraceEvent::Pwb { tid: 1, line: 10 },
            TraceEvent::Load { tid: 1, line: 10 },
            marker(9, TraceMarker::RecoveryEnd { epoch: 2 }),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn retired_cell_no_longer_binds_disjoint_stores() {
        let cell = 1024u64;
        let r = replay(&[
            cell_at(cell),
            marker(
                1,
                TraceMarker::CellRetire {
                    addr: cell,
                    len: 32,
                },
            ),
            TraceEvent::store_meta(1, cell, 8),
            TraceEvent::store_meta(2, cell + 16, 8),
        ]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn diagnostics_are_capped() {
        let d = RaceDetector::new();
        for i in 0..(MAX_PER_KIND as u64 + 20) {
            d.event(&TraceEvent::store_meta(1, i * 64, 8));
            d.event(&TraceEvent::store_meta(2, i * 64 + 4, 8));
            d.event(&marker(
                9,
                TraceMarker::PipelineBegin {
                    epoch: i + 1,
                    slot: 0,
                },
            ));
        }
        let r = d.report();
        assert_eq!(r.of_kind(DiagnosticKind::PersistRace).len(), MAX_PER_KIND);
        assert!(r.suppressed > 0);
    }
}
