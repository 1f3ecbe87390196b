//! Structured diagnostics produced by the trace checker.
//!
//! Mirrors the shape of `respct::verify` (`Violation` / `VerifyReport`):
//! typed kinds, human-readable detail, and a report object tests can assert
//! on. The extra dimension here is [`Severity`]: persistency *bugs* are
//! `Error`s, while redundant flushes are `Perf` advisories — correct code
//! that wastes write-back bandwidth (paper Fig. 10 shows flushing is the
//! dominant checkpoint cost, so spotting double flushes matters even though
//! they can never lose data).

use std::collections::HashMap;
use std::fmt;

/// Per-kind cap on recorded diagnostics: a systematically broken run would
/// otherwise record one per store (or, in a sweep, one per crash image).
pub(crate) const MAX_PER_KIND: usize = 64;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A persistency-discipline violation: a crash at the wrong moment can
    /// lose or corrupt committed state.
    Error,
    /// A performance diagnostic: correctness is unaffected.
    Perf,
}

/// Category of a trace-checker diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    /// A cache line the closed epoch owes was not durable at its snapshot
    /// generation when the epoch's ring slot committed: a crash right after
    /// the commit would recover state missing that line's updates.
    MissedFlush,
    /// An InCLL cell's record was overwritten in an epoch that had not yet
    /// written the in-line backup + epoch tag (paper Fig. 4 lines 24–29):
    /// rollback of a crashed epoch would restore a stale or torn value.
    LoggingViolation,
    /// The ring commit relies on earlier cross-line writes being durable,
    /// but a write-back of an owed line was still unfenced at the ordering
    /// barrier (missing `psync` between data flush and commit).
    CrossLineOrdering,
    /// A `pwb` of a line whose content was already durable (nothing dirty
    /// to write back). Wasted write-back bandwidth.
    RedundantFlush,
    /// Epoch bookkeeping broke its own rules: a checkpoint, ring claim, log
    /// record or recovery stamped with an epoch other than the current one
    /// (so a skipping epoch advance), or a claim outside a checkpoint.
    EpochDiscipline,
    /// The flush pipeline broke its fence protocol: a shard was
    /// opened twice, closed without a begin, or was still open (write-backs
    /// issued but not yet covered by a fence) when the ring commit barrier
    /// ran. A crash between the barrier and the missing fence would commit
    /// an epoch whose shard data may not be durable.
    ShardFence,
    /// The epoch-record ring (depth K = 1..=4; 1 on a synchronous pool)
    /// broke its ordered-commit invariant: a slot was claimed while its
    /// previous epoch was still uncommitted, a `RingCommit` had no matching
    /// claim, or it was published while an *older* epoch's drain was still
    /// uncommitted. A crash between an out-of-order pair leaves a hole in
    /// the ring, which recovery rejects as corruption — and the frees the
    /// early commit released may already have clobbered rollback state.
    RingCommitOrder,
    /// A crash-point sweep found a reachable crash image whose recovered
    /// state differs from the model snapshot of the last committed
    /// checkpoint: the durability invariant the paper proves (recovery to a
    /// consistent cut) is violated at that instant.
    RecoveryDivergence,
    /// Two threads wrote the same cache line within one epoch with no
    /// happens-before edge between the stores, and the writes either
    /// overlap or hit the same InCLL cell — the cell's in-line backup slot
    /// can tear, so rollback of a crashed epoch may restore a mixed value.
    /// Also raised for a recovery-time load racing another thread's
    /// in-flight write-back.
    PersistRace,
    /// A protocol commit point (a ring commit) is not
    /// happens-before-ordered after a fence it charges —
    /// or a pushed-out line was overwritten without acquiring the drain's
    /// commit release. The commit's durability can race the data it
    /// promises is durable.
    UnorderedCommit,
}

impl DiagnosticKind {
    /// The severity class of this kind.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::RedundantFlush => Severity::Perf,
            _ => Severity::Error,
        }
    }
}

/// One finding from a checked run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub kind: DiagnosticKind,
    /// Cache line involved, if the finding is line-granular.
    pub line: Option<u64>,
    /// Region offset involved, if the finding is address-granular.
    pub addr: Option<u64>,
    /// Epoch in effect when the finding was made.
    pub epoch: Option<u64>,
    /// Human-readable details.
    pub detail: String,
}

impl Diagnostic {
    /// The severity class (derived from the kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity() {
            Severity::Error => "error",
            Severity::Perf => "perf",
        };
        write!(f, "[{sev}] {:?}: {}", self.kind, self.detail)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        if let Some(addr) = self.addr {
            write!(f, " (addr {addr:#x})")?;
        }
        if let Some(epoch) = self.epoch {
            write!(f, " (epoch {epoch})")?;
        }
        Ok(())
    }
}

/// Everything the checker found over one traced run.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// All findings, in observation order.
    pub diagnostics: Vec<Diagnostic>,
    /// Total events replayed.
    pub events: u64,
    /// Findings dropped after the per-kind reporting cap was hit (a broken
    /// run can otherwise produce one diagnostic per store).
    pub suppressed: u64,
    /// Recorded findings per kind, for the cap in [`Report::push`].
    per_kind: HashMap<DiagnosticKind, usize>,
}

impl Report {
    /// Error-severity findings only.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .collect()
    }

    /// Perf-severity findings only.
    pub fn perf(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Perf)
            .collect()
    }

    /// Findings of one kind.
    pub fn of_kind(&self, kind: DiagnosticKind) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.kind == kind).collect()
    }

    /// True when the run had no error-severity findings (perf advisories
    /// are allowed — they depend on eviction timing, which the runtime
    /// cannot observe).
    pub fn is_clean(&self) -> bool {
        self.errors().is_empty()
    }

    /// Records `d` unless [`MAX_PER_KIND`] findings of its kind are already
    /// recorded, in which case it only counts toward `suppressed`.
    pub(crate) fn push(&mut self, d: Diagnostic) {
        let n = self.per_kind.entry(d.kind).or_insert(0);
        if *n >= MAX_PER_KIND {
            self.suppressed += 1;
            return;
        }
        *n += 1;
        self.diagnostics.push(d);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.errors().len();
        let perf = self.perf().len();
        writeln!(
            f,
            "trace check: {} events, {errors} error(s), {perf} perf advisor{}{}",
            self.events,
            if perf == 1 { "y" } else { "ies" },
            if self.suppressed > 0 {
                format!(", {} suppressed", self.suppressed)
            } else {
                String::new()
            }
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(kind: DiagnosticKind) -> Diagnostic {
        Diagnostic {
            kind,
            line: Some(3),
            addr: None,
            epoch: Some(2),
            detail: "t".into(),
        }
    }

    #[test]
    fn severity_split() {
        let mut r = Report::default();
        r.push(diag(DiagnosticKind::MissedFlush));
        r.push(diag(DiagnosticKind::RedundantFlush));
        assert_eq!(r.errors().len(), 1);
        assert_eq!(r.perf().len(), 1);
        assert!(!r.is_clean());
        let mut clean = Report::default();
        clean.push(diag(DiagnosticKind::RedundantFlush));
        assert!(clean.is_clean(), "perf advisories do not dirty a run");
    }

    #[test]
    fn display_mentions_kind_and_line() {
        let s = diag(DiagnosticKind::MissedFlush).to_string();
        assert!(s.contains("MissedFlush") && s.contains("line 3"), "{s}");
    }

    #[test]
    fn race_kinds_are_errors() {
        assert_eq!(DiagnosticKind::PersistRace.severity(), Severity::Error);
        assert_eq!(DiagnosticKind::UnorderedCommit.severity(), Severity::Error);
    }
}
