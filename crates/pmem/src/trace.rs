//! Typed persistency-event tracing.
//!
//! A [`TraceSink`] attached to a [`Region`](crate::Region) observes every
//! persistence-relevant action as a typed [`TraceEvent`]: raw stores, write
//! backs (`pwb`), fences (`psync`), simulator evictions, crash/restore
//! lifecycle, and semantic [`TraceMarker`]s emitted by the ResPCT runtime
//! (ring claims and commits, checkpoint phases, InCLL logging, recovery). The event
//! stream is what the `respct-analysis` crate replays against a cache-line
//! state machine to check the algorithm's persistency discipline — the same
//! division of labor as pmemcheck/PMTest, but with ResPCT-specific rules.
//!
//! Emission is zero-cost when no sink is attached (a single atomic load per
//! operation) and the sink is deliberately `&self`-only so it can be shared
//! across all application, checkpointer, and flusher threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically assigned per-thread token. Stable for the thread's
/// lifetime; used instead of `std::thread::ThreadId` so events carry a small
/// integer that is meaningful in diagnostics.
pub fn trace_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Semantic markers emitted by the ResPCT runtime (not by the region
/// itself). They give the trace checker the algorithm-level context that raw
/// stores cannot convey: which bytes form an InCLL cell, when an epoch
/// closes, what recovery rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMarker {
    /// An InCLL cell now lives at `addr`: an 8-byte record, then an 8-byte
    /// backup and an 8-byte epoch tag — 24 bytes within one cache line.
    CellDeclare { addr: u64 },
    /// The runtime wrote the in-line backup + epoch tag of the cell at
    /// `addr` for `epoch`. Must precede the first record overwrite of that
    /// epoch (the logging rule of paper Fig. 4, lines 24–29).
    CellLogged { addr: u64, epoch: u64 },
    /// `[addr, addr + len)` was freed: any cells inside are retired and the
    /// memory may be rewritten as raw bytes (free-list links, new payload).
    CellRetire { addr: u64, len: u64 },
    /// `line` joined an epoch's tracking list (`add_modified` / cell
    /// tracking): the next full checkpoint promises to flush it.
    TrackLine { line: u64 },
    /// Checkpoint started for the current `epoch` after quiescence. `full`
    /// is false in `NoFlush` mode (tracked lines intentionally not written
    /// back, so the missed-flush rule is suspended).
    CheckpointBegin { epoch: u64, full: bool },
    /// All of a drain's data flushes are claimed complete; the ring commit
    /// follows. At this point no thread may have an unfenced `pwb` of a
    /// line an open drain owes (the cross-line ordering rule).
    OrderBarrier,
    /// A flusher (or the checkpointer, inline) started writing back flush
    /// shard `shard` of the current checkpoint: `lines` unique cache lines,
    /// already sorted + deduplicated. A shard is a contiguous range of the
    /// epoch's sorted unique lines, so shards never overlap.
    ShardFlushBegin { shard: u64, lines: u64 },
    /// Every write-back of flush shard `shard` is covered by a fence. All
    /// shards opened since `CheckpointBegin` must be closed before the
    /// `OrderBarrier` that precedes the ring commit.
    ShardFlushEnd { shard: u64 },
    /// A checkpoint claimed ring slot `slot` (`epoch % K`, K = 1..=4; slot 0
    /// on a synchronous pool) for `epoch`: the claim (`ring[slot] = epoch`,
    /// `epoch = epoch + 1`) is durable and the epoch's tracking lists are
    /// snapshotted under the epoch's generation. The drain of `epoch`
    /// follows — inline before the threads are released on a synchronous
    /// pool, on the drain executor after it otherwise, while up to `K - 1`
    /// older drains may still be committing. Claiming a slot whose previous
    /// epoch has not committed is a discipline violation (checker rule 1).
    PipelineBegin { epoch: u64, slot: u64 },
    /// The drain of `epoch` is complete: every snapshotted line is written
    /// back and fenced, and ring slot `epoch % K` is committed back to zero.
    /// Commits must appear in epoch order — a `RingCommit` for `epoch`
    /// while an older claimed epoch is still uncommitted is a discipline
    /// violation (checker rule 1).
    RingCommit { epoch: u64 },
    /// Checkpoint finished; `epoch` is the epoch it closed.
    CheckpointEnd { epoch: u64 },
    /// Recovery started; `failed_epoch` is the epoch being rolled back and
    /// then re-executed.
    RecoveryBegin { failed_epoch: u64 },
    /// Recovery restored the cell at `addr` from its in-line backup.
    RecoveryApply { addr: u64 },
    /// Recovery finished; execution resumes in `epoch` (== the failed
    /// epoch: ResPCT re-executes, it does not skip).
    RecoveryEnd { epoch: u64 },
    /// A thread passed the restart point `id` (diagnostic context only).
    RestartPoint { slot: u64, id: u64 },
    /// A thread hit the on-demand push-out guard: the cell at `addr` still
    /// carries the tag of `epoch`, whose drain has not committed, so the
    /// thread must flush the line and wait for that commit before
    /// overwriting the backup slot. The trace checker requires the thread's
    /// next store to that line to be HB-after `epoch`'s commit release.
    DrainPushOut { addr: u64, epoch: u64 },
}

/// Identity of a synchronization object for happens-before edges. A
/// [`TraceEvent::SyncRel`] on a token publishes the releasing thread's
/// vector clock into the token; a [`TraceEvent::SyncAcq`] joins the token's
/// clock into the acquiring thread — the standard release/acquire
/// vector-clock discipline (FastTrack-style, over the trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncToken {
    /// A region-level atomic word (`cas_u64` / `load_acquire_u64` /
    /// `store_release_u64`), identified by its region offset.
    Atomic { addr: u64 },
    /// A per-thread quiescence flag (`flags[slot]`): released when the
    /// owner parks or deregisters, acquired by the checkpointer when it
    /// observes the flag raised.
    Flag { slot: u64 },
    /// The global checkpoint timer: released by the checkpointer when it
    /// un-quiesces the threads, acquired by each thread that observes the
    /// timer cleared and resumes.
    Timer,
    /// The drain-commit handshake (`drain_oldest`): released by every ring
    /// commit, acquired by whoever waited one out — a thread leaving the
    /// push-out wait, `checkpoint_here`, a checkpoint re-claiming the slot.
    Drain,
    /// A `TracedMutex` (data-structure bucket locks, the checkpoint lock,
    /// the free-list class locks), identified by the lock's address:
    /// released by each guard drop, acquired by each `lock`.
    Lock { id: u64 },
    /// A channel hand-off (flusher job acknowledgements, drain tickets),
    /// identified by the shared object's address: released by the sender,
    /// acquired by the receiver.
    Chan { id: u64 },
}

/// Maximum payload bytes carried inline by one [`TraceEvent::Store`].
/// Larger stores are emitted as a sequence of chunk events (program order is
/// preserved, so a replayer reassembles them byte-exactly).
pub const MAX_STORE_DATA: usize = 16;

/// The payload of a store event: up to [`MAX_STORE_DATA`] bytes, inline so
/// `TraceEvent` stays `Copy`. Carrying the data (not just `addr`/`len`)
/// is what lets `replay::Replayer` reconstruct the volatile and persisted
/// images of a region from the trace alone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct StoreData {
    len: u8,
    bytes: [u8; MAX_STORE_DATA],
}

impl StoreData {
    /// A store event with no recorded payload (synthetic traces; the
    /// checker's rules only use `addr`/`len`, so hand-built test events
    /// don't need data). A replayer treats it as storing zeroes.
    pub const EMPTY: StoreData = StoreData {
        len: 0,
        bytes: [0u8; MAX_STORE_DATA],
    };

    /// Wraps up to [`MAX_STORE_DATA`] payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than [`MAX_STORE_DATA`].
    pub fn new(src: &[u8]) -> StoreData {
        assert!(src.len() <= MAX_STORE_DATA, "store payload too large");
        let mut bytes = [0u8; MAX_STORE_DATA];
        bytes[..src.len()].copy_from_slice(src);
        StoreData {
            len: src.len() as u8,
            bytes,
        }
    }

    /// The recorded payload (empty for synthetic events).
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Whether any payload was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for StoreData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        for b in self.as_slice() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// One persistence-relevant event, in global observation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `len` bytes were stored at region offset `addr` by thread `tid`;
    /// `data` carries the stored bytes (empty in synthetic traces). Stores
    /// wider than [`MAX_STORE_DATA`] appear as multiple chunk events in
    /// program order.
    Store {
        tid: u64,
        addr: u64,
        len: u64,
        data: StoreData,
    },
    /// Thread `tid` initiated a write-back of cache line `line`
    /// (asynchronous: durable only after that thread's next `Psync`).
    Pwb { tid: u64, line: u64 },
    /// Thread `tid` drained its outstanding write-backs.
    Psync { tid: u64 },
    /// The simulator evicted `line`: its current content became durable at
    /// an arbitrary moment, as PCSO allows.
    Eviction { line: u64 },
    /// A simulated crash. `all_persisted` is true for `EvictAll` (clean
    /// shutdown: every dirty line and pending write-back reached NVMM).
    Crash { all_persisted: bool },
    /// The region's volatile image was restored from a crash image; the
    /// persisted and volatile images are identical again.
    Restore,
    /// Every dirty line was forced to the persisted image (test setup).
    PersistAll,
    /// A semantic runtime marker. See [`TraceMarker`].
    Marker { tid: u64, marker: TraceMarker },
    /// Thread `tid` released `token`: everything `tid` did before this
    /// event happens-before whatever follows a later `SyncAcq` of the same
    /// token. Emitted *before* the releasing store, so observation order
    /// can never show the matching acquire first.
    SyncRel { tid: u64, token: SyncToken },
    /// Thread `tid` acquired `token` (observed a released value). Emitted
    /// *after* the acquiring observation.
    SyncAcq { tid: u64, token: SyncToken },
    /// Thread `tid` loaded from cache line `line`. Only emitted while the
    /// region's load tracing is enabled (recovery turns it on) — loads are
    /// otherwise not persistence-relevant and stay untraced.
    Load { tid: u64, line: u64 },
}

impl TraceEvent {
    /// A store event carrying its payload (what the region emits).
    pub fn store(tid: u64, addr: u64, data: &[u8]) -> TraceEvent {
        TraceEvent::Store {
            tid,
            addr,
            len: data.len() as u64,
            data: StoreData::new(data),
        }
    }

    /// A store event with metadata only (synthetic traces in tests).
    pub fn store_meta(tid: u64, addr: u64, len: u64) -> TraceEvent {
        TraceEvent::Store {
            tid,
            addr,
            len,
            data: StoreData::EMPTY,
        }
    }
}

/// Observer of a region's event stream.
///
/// Implementations must be cheap and re-entrant-safe: events arrive from
/// every thread that touches the region, including the checkpointer and
/// flusher pool, and may be emitted while region-internal locks are *not*
/// held (event order across threads is observation order, which matches
/// program order wherever the ResPCT quiescence protocol serializes the
/// threads — exactly the windows the checker's rules care about).
pub trait TraceSink: Send + Sync {
    /// Called once per event.
    fn event(&self, ev: &TraceEvent);
}

/// A sink that appends every event to a vector (tests, trace dumps).
#[derive(Default)]
pub struct VecSink {
    events: parking_lot::Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the events recorded so far.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock())
    }
}

impl TraceSink for VecSink {
    fn event(&self, ev: &TraceEvent) {
        self.events.lock().push(*ev);
    }
}

/// Fans one region's event stream out to several sinks, in order. A region
/// accepts exactly one sink for its lifetime; `TeeSink` is how a run attaches
/// both the online checker and a recording sink (e.g. for a crash sweep).
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Builds a tee over `sinks`; each event is delivered to every sink in
    /// the given order, from the emitting thread.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn event(&self, ev: &TraceEvent) {
        for sink in &self.sinks {
            sink.event(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_stable_and_distinct() {
        let a = trace_tid();
        let b = trace_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(trace_tid).join().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn vec_sink_records() {
        let sink = VecSink::new();
        sink.event(&TraceEvent::Psync { tid: 1 });
        sink.event(&TraceEvent::Marker {
            tid: 1,
            marker: TraceMarker::OrderBarrier,
        });
        let evs = sink.drain();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], TraceEvent::Psync { tid: 1 }));
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn store_data_roundtrip() {
        let d = StoreData::new(&[1, 2, 3]);
        assert_eq!(d.as_slice(), &[1, 2, 3]);
        assert!(!d.is_empty());
        assert!(StoreData::EMPTY.is_empty());
        let ev = TraceEvent::store(1, 100, &[9, 8]);
        match ev {
            TraceEvent::Store {
                addr, len, data, ..
            } => {
                assert_eq!((addr, len), (100, 2));
                assert_eq!(data.as_slice(), &[9, 8]);
            }
            _ => panic!("not a store"),
        }
        assert!(
            matches!(TraceEvent::store_meta(1, 0, 8), TraceEvent::Store { data, .. } if data.is_empty())
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn store_data_rejects_oversize() {
        let _ = StoreData::new(&[0u8; MAX_STORE_DATA + 1]);
    }

    #[test]
    fn tee_delivers_to_all_sinks_in_order() {
        let a = Arc::new(VecSink::new());
        let b = Arc::new(VecSink::new());
        let tee = TeeSink::new(vec![a.clone(), b.clone()]);
        tee.event(&TraceEvent::Psync { tid: 7 });
        tee.event(&TraceEvent::Eviction { line: 3 });
        for sink in [a, b] {
            let evs = sink.drain();
            assert_eq!(evs.len(), 2);
            assert!(matches!(evs[0], TraceEvent::Psync { tid: 7 }));
            assert!(matches!(evs[1], TraceEvent::Eviction { line: 3 }));
        }
    }
}
