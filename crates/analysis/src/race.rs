//! The happens-before rules of the [`Checker`](crate::Checker).
//!
//! Where the durability rules replay a cache-line *durability* state
//! machine, these replay a *synchronization* state machine — per-thread
//! vector clocks driven by the [`TraceEvent::SyncRel`]/[`TraceEvent::SyncAcq`]
//! edges the runtime emits at every protocol synchronization point
//! (quiescence flags, the checkpoint timer, the checkpoint-serialization
//! lock, `TracedMutex` locks, flusher acknowledgements, the drain-ticket
//! hand-off, and the drain-commit handshake).
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
//! (`PipelineBegin`, restore, `RecoveryBegin`/`End`): ResPCT's epoch
//! rollback makes cross-epoch write pairs harmless by construction.

use std::collections::HashMap;

use respct::layout::CELL_SIZE;
use respct_pmem::{SyncToken, TraceEvent, TraceMarker};

use crate::checker::{Findings, OpenDrain, Protocol, Rules};
use crate::report::DiagnosticKind;

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

/// Rules (a)–(c).
#[derive(Default)]
pub(crate) struct HappensBefore {
    /// Per-thread vector clocks. A thread's own component starts at 1 so a
    /// fresh thread's writes are never mistaken for already-synchronized.
    clocks: HashMap<u64, Vc>,
    /// Per-token published clocks (the release side of each edge).
    tokens: HashMap<SyncToken, Vc>,
    /// Per-line writes of the current epoch.
    line_writes: HashMap<u64, Vec<WriteRec>>,
    /// Fences covering each line: per fencing thread, the `(cycle, clock)`
    /// of its latest `Psync` that retired a write-back of the line. A commit
    /// point must be happens-before-after *some* fence of each charged line
    /// issued since its own checkpoint cycle began — not every fence: an
    /// application thread's voluntary push-out flush is a fence the drain
    /// committer legitimately never synchronizes with; and a fence from an
    /// earlier cycle cannot vouch for a line re-dirtied and re-flushed since.
    line_fence: HashMap<u64, HashMap<u64, (u64, u64)>>,
    /// `(committer, clock)` of each epoch's `RingCommit`: the committer's
    /// own clock component *before* the release it is about to emit.
    ring_commits: HashMap<u64, (u64, u64)>,
    /// Push-out obligations: `(tid, line)` → the epoch whose commit the
    /// thread's next store to `line` must be ordered after.
    pushouts: HashMap<(u64, u64), u64>,
}

impl Rules for HappensBefore {
    fn event(&mut self, p: &Protocol, ev: &TraceEvent, out: &mut Findings<'_>) {
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
            TraceEvent::Store { tid, addr, len, .. } => self.on_store(p, tid, addr, len, out),
            TraceEvent::Load { tid, line } => on_load(p, tid, line, out),
            TraceEvent::Psync { tid } => self.fence(p, tid),
            // Test-setup persist: a fence on every thread's in-flight
            // write-backs.
            TraceEvent::PersistAll => {
                for &tid in p.pending.keys() {
                    self.fence(p, tid);
                }
            }
            TraceEvent::Restore => {
                self.line_writes.clear();
                self.line_fence.clear();
                self.ring_commits.clear();
                self.pushouts.clear();
            }
            TraceEvent::Marker { tid, marker } => match marker {
                TraceMarker::PipelineBegin { .. }
                | TraceMarker::RecoveryBegin { .. }
                | TraceMarker::RecoveryEnd { .. } => self.line_writes.clear(),
                TraceMarker::RingCommit { epoch } => {
                    if let Some(drain) = p.ring_open.get(&epoch).filter(|_| p.ckpt_full) {
                        self.check_commit(tid, drain, out);
                    }
                    let c = self.clock(tid).get(tid);
                    self.ring_commits.insert(epoch, (tid, c));
                }
                // Keyed by the tag's own epoch, so the benign trace-order
                // race (the commit marker reaching the sink before this
                // one) needs no special case: the obligation resolves
                // against that epoch's commit whenever the store arrives.
                TraceMarker::DrainPushOut { addr, epoch } => {
                    self.pushouts.insert((tid, addr / 64), epoch);
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// Does any live cell's span intersect both byte ranges? Only cells
/// starting less than a span before the ranges can qualify.
fn same_cell(p: &Protocol, a1: u64, e1: u64, a2: u64, e2: u64) -> bool {
    let lo = a1.min(a2).saturating_sub(CELL_SIZE - 1);
    p.cells.range(lo..e1.max(e2)).any(|(&ca, _)| {
        let ce = ca + CELL_SIZE;
        ca < e1 && a1 < ce && ca < e2 && a2 < ce
    })
}

/// Rule (c): loads are only traced inside the recovery window; a load of a
/// line another thread is still writing back reads bytes whose durability
/// is undecided.
fn on_load(p: &Protocol, tid: u64, line: u64, out: &mut Findings<'_>) {
    let racer = p
        .pending
        .iter()
        .find(|(&u, pends)| u != tid && pends.iter().any(|&(l, _)| l == line));
    if let Some((u, _)) = racer {
        out.diag(
            DiagnosticKind::PersistRace,
            Some(line),
            None,
            format!(
                "recovery-time load of line {line} by thread {tid} races thread {u}'s \
                 in-flight write-back"
            ),
        );
    }
}

impl HappensBefore {
    fn clock(&mut self, tid: u64) -> &mut Vc {
        self.clocks.entry(tid).or_insert_with(|| {
            let mut vc = Vc::default();
            vc.0.insert(tid, 1);
            vc
        })
    }

    fn fence(&mut self, p: &Protocol, tid: u64) {
        let Some(fenced) = p.pending.get(&tid) else {
            return;
        };
        let c = self.clock(tid).get(tid);
        for &(line, _) in fenced {
            self.line_fence
                .entry(line)
                .or_default()
                .insert(tid, (p.cycle, c));
        }
    }

    fn on_store(&mut self, p: &Protocol, tid: u64, addr: u64, len: u64, out: &mut Findings<'_>) {
        let len = len.max(1);
        let clock = self.clock(tid).clone();
        let my_component = clock.get(tid);
        let mut hits: Vec<(u64, WriteRec)> = Vec::new();
        for line in addr / 64..=(addr + len - 1) / 64 {
            // Push-out obligation: the first store to a pushed-out line
            // must be ordered after the commit release of the epoch the
            // line was owed to.
            if let Some(owed_to) = self.pushouts.remove(&(tid, line)) {
                match self.ring_commits.get(&owed_to).copied() {
                    Some((d, c)) if clock.get(d) >= c => {}
                    Some((d, c)) => out.diag(
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
                    None => out.diag(
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
            if !overlap && !same_cell(p, addr, addr + len, rec.addr, rec.addr + rec.len) {
                // Unordered but disjoint and cell-disjoint: per-cell
                // backups keep rollback sound, so this is allowed.
                continue;
            }
            out.diag(
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

    /// Rule (b) at a commit point: every line the drain owes must have
    /// *some* fence, issued since the cycle that closed its epoch, that the
    /// committing thread is happens-before-after (its own, or one whose
    /// `Psync` it acquired — e.g. a flusher ack). Lines with no such fence at all are skipped:
    /// that is the durability rules' missed-flush/ordering domain, not an
    /// HB question.
    fn check_commit(&mut self, committer: u64, drain: &OpenDrain, out: &mut Findings<'_>) {
        let clock = self.clock(committer).clone();
        let mut bad: Vec<(u64, u64, u64, u64)> = Vec::new();
        for &line in drain.owed.keys() {
            let Some(fences) = self.line_fence.get(&line) else {
                continue;
            };
            let mut nearest: Option<(u64, u64, u64)> = None;
            let mut covered = false;
            for (&u, &(g, c)) in fences {
                if g < drain.cycle {
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
            out.diag(
                DiagnosticKind::UnorderedCommit,
                Some(line),
                None,
                format!(
                    "ring commit by thread {committer} is not ordered after any fence of \
                     line {line} this cycle (thread {u} fenced at clock {c}, committer \
                     knows {have})"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Replay;
    use crate::report::{Report, MAX_PER_KIND};

    fn marker(tid: u64, m: TraceMarker) -> TraceEvent {
        TraceEvent::Marker { tid, marker: m }
    }

    fn rel(tid: u64, token: SyncToken) -> TraceEvent {
        TraceEvent::SyncRel { tid, token }
    }

    fn acq(tid: u64, token: SyncToken) -> TraceEvent {
        TraceEvent::SyncAcq { tid, token }
    }

    /// Feeds a synthetic event stream through the protocol state and the
    /// happens-before rules alone, and returns the report.
    fn replay(events: &[TraceEvent]) -> Report {
        let mut r = Replay::<HappensBefore>::default();
        for ev in events {
            r.apply(ev);
        }
        r.report
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
        let mut d = Replay::<HappensBefore>::default();
        for i in 0..(MAX_PER_KIND as u64 + 20) {
            d.apply(&TraceEvent::store_meta(1, i * 64, 8));
            d.apply(&TraceEvent::store_meta(2, i * 64 + 4, 8));
            d.apply(&marker(
                9,
                TraceMarker::PipelineBegin {
                    epoch: i + 1,
                    slot: 0,
                },
            ));
        }
        let r = d.report;
        assert_eq!(r.of_kind(DiagnosticKind::PersistRace).len(), MAX_PER_KIND);
        assert!(r.suppressed > 0);
    }
}
