//! Trace replay and PCSO crash-image reconstruction (`respct-crashsim`).
//!
//! A recorded [`TraceEvent`] stream (a [`VecSink`](crate::trace::VecSink)
//! attached to a sim-mode region) carries everything needed to rebuild the
//! machine's persistence state at *every* instant of the run: stores carry
//! their payload bytes, `pwb` events mark line snapshots entering a thread's
//! write-back queue, `psync` commits them, and eviction events record the
//! moments the simulated replacement policy persisted a line spontaneously.
//!
//! The [`Replayer`] consumes that stream and maintains, deterministically:
//!
//! * the **volatile image** — what loads would observe (all stores applied);
//! * the **persisted image** — what NVMM is *known* to hold (committed
//!   write-backs and observed evictions applied);
//! * the **pending set** — per-thread `pwb` snapshots not yet fenced;
//! * the **dirty set** — lines whose volatile content is newer than the
//!   persisted image.
//!
//! At any instant, the NVMM states reachable under PCSO if power failed
//! *right now* are: the persisted image, plus any subset of the pending
//! snapshots (each in-flight write-back independently completed or not),
//! plus any subset of the dirty lines evicted at the last moment (PCSO lets
//! the cache write a line back at any time). [`Replayer::crash_images`]
//! materializes the base image and a bounded selection of those subsets —
//! the "eviction-subset budget" — always including the none/all corners and
//! the singletons. Intermediate same-line prefixes need no extra choices: a
//! sweep that stops at *every* event already sees each line's intermediate
//! content as the evicted-now choice of some earlier instant.
//!
//! The replayer treats the trace's observation order as the ground truth
//! inter-thread order. For byte-disjoint racing stores (the only races the
//! runtime's data-race-freedom assumption permits, e.g. false sharing of a
//! line) any observation order yields a PCSO-reachable image, so the sweep
//! never fabricates an unreachable state.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::{TraceEvent, TraceMarker};
use crate::CACHE_LINE;

/// Whether a crash is worth materializing right after `ev`: every instant at
/// which the reachable-image set (or the recovery obligation) can change.
pub fn is_crash_point(ev: &TraceEvent) -> bool {
    match ev {
        TraceEvent::Store { .. }
        | TraceEvent::Pwb { .. }
        | TraceEvent::Psync { .. }
        | TraceEvent::Eviction { .. }
        | TraceEvent::PersistAll => true,
        TraceEvent::Crash { .. } | TraceEvent::Restore => false,
        TraceEvent::Marker { .. } => is_protocol_point(ev),
        // Sync edges and loads never change the reachable-image set.
        TraceEvent::SyncRel { .. } | TraceEvent::SyncAcq { .. } | TraceEvent::Load { .. } => false,
    }
}

/// Whether `ev` is a checkpoint-protocol boundary (shard fences, the order
/// barrier, the ring claim and commit). Sweeps visit these regardless of any
/// stride sampling — commit-ordering bugs are only observable here.
pub fn is_protocol_point(ev: &TraceEvent) -> bool {
    matches!(
        ev,
        TraceEvent::Marker {
            marker: TraceMarker::CheckpointBegin { .. }
                | TraceMarker::ShardFlushBegin { .. }
                | TraceMarker::ShardFlushEnd { .. }
                | TraceMarker::OrderBarrier
                | TraceMarker::PipelineBegin { .. }
                | TraceMarker::RingCommit { .. }
                | TraceMarker::CheckpointEnd { .. },
            ..
        }
    )
}

/// Deterministic reconstruction of a region's persistence state from a
/// recorded trace. See the module docs.
pub struct Replayer {
    size: usize,
    volatile: Vec<u8>,
    persisted: Vec<u8>,
    /// Lines whose volatile content may be newer than the persisted image.
    dirty: BTreeSet<u64>,
    /// Unfenced `pwb` snapshots per trace tid, in program order.
    pending: BTreeMap<u64, Vec<(u64, [u8; CACHE_LINE])>>,
    events: u64,
    saw_crash: bool,
}

impl Replayer {
    /// A replayer for a region of `size` bytes whose trace was recorded from
    /// creation (both images start all-zero, like a fresh region).
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a positive line multiple (region sizes are).
    pub fn new(size: usize) -> Replayer {
        assert!(
            size > 0 && size.is_multiple_of(CACHE_LINE),
            "replayer size must be a positive line multiple"
        );
        Replayer {
            size,
            volatile: vec![0u8; size],
            persisted: vec![0u8; size],
            dirty: BTreeSet::new(),
            pending: BTreeMap::new(),
            events: 0,
            saw_crash: false,
        }
    }

    /// A replayer for a trace recorded *mid-run*: `image` is the region's
    /// content at attach time, which must have been fully persisted (e.g.
    /// via [`Region::persist_all`](crate::Region::persist_all) with no
    /// unfenced write-backs in flight).
    pub fn with_baseline(image: &[u8]) -> Replayer {
        let mut r = Replayer::new(image.len());
        r.volatile.copy_from_slice(image);
        r.persisted.copy_from_slice(image);
        r
    }

    /// Region size being replayed.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Events applied so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether a [`TraceEvent::Crash`] was encountered. Replay fidelity ends
    /// there (the original run's post-crash coin flips are not in the
    /// trace); all later events are ignored.
    pub fn saw_crash(&self) -> bool {
        self.saw_crash
    }

    /// Unfenced `pwb` snapshots currently in flight.
    pub fn pending_len(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Lines currently dirty (volatile newer than persisted).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    fn line_slice(buf: &[u8], line: u64) -> &[u8] {
        let off = line as usize * CACHE_LINE;
        &buf[off..off + CACHE_LINE]
    }

    fn copy_line(dst: &mut [u8], src: &[u8], line: u64) {
        let off = line as usize * CACHE_LINE;
        dst[off..off + CACHE_LINE].copy_from_slice(&src[off..off + CACHE_LINE]);
    }

    fn line_clean(&self, line: u64) -> bool {
        Self::line_slice(&self.volatile, line) == Self::line_slice(&self.persisted, line)
    }

    /// Advances the replayed state by one event.
    pub fn apply(&mut self, ev: &TraceEvent) {
        if self.saw_crash {
            return;
        }
        self.events += 1;
        match *ev {
            TraceEvent::Store {
                addr, len, data, ..
            } => {
                let bytes = data.as_slice();
                let end = (addr as usize + bytes.len()).min(self.size);
                if !bytes.is_empty() {
                    let n = end.saturating_sub(addr as usize);
                    self.volatile[addr as usize..end].copy_from_slice(&bytes[..n]);
                }
                let first = addr / CACHE_LINE as u64;
                let last = (addr + len.max(1) - 1) / CACHE_LINE as u64;
                for line in first..=last {
                    self.dirty.insert(line);
                }
            }
            TraceEvent::Pwb { tid, line } => {
                let mut snap = [0u8; CACHE_LINE];
                snap.copy_from_slice(Self::line_slice(&self.volatile, line));
                self.pending.entry(tid).or_default().push((line, snap));
            }
            TraceEvent::Psync { tid } => {
                for (line, snap) in self.pending.remove(&tid).unwrap_or_default() {
                    let off = line as usize * CACHE_LINE;
                    self.persisted[off..off + CACHE_LINE].copy_from_slice(&snap);
                    if self.line_clean(line) {
                        self.dirty.remove(&line);
                    }
                }
            }
            TraceEvent::Eviction { line } => {
                Self::copy_line(&mut self.persisted, &self.volatile, line);
                self.dirty.remove(&line);
            }
            TraceEvent::PersistAll => {
                for line in std::mem::take(&mut self.dirty) {
                    Self::copy_line(&mut self.persisted, &self.volatile, line);
                }
            }
            TraceEvent::Crash { .. } => {
                self.saw_crash = true;
            }
            TraceEvent::Restore => {
                // Only reachable in traces that restore without a recorded
                // crash (tests); volatile := persisted, caches drained.
                self.volatile.copy_from_slice(&self.persisted);
                self.dirty.clear();
                self.pending.clear();
            }
            TraceEvent::Marker { .. } => {}
            // Happens-before edges and traced loads carry no bytes: the
            // replayed images are unaffected.
            TraceEvent::SyncRel { .. } | TraceEvent::SyncAcq { .. } | TraceEvent::Load { .. } => {}
        }
    }

    /// The bytes loads would currently observe.
    pub fn volatile_image(&self) -> &[u8] {
        &self.volatile
    }

    /// The image NVMM is known to hold right now — what a crash yields if no
    /// in-flight write-back completes and nothing more is evicted.
    pub fn persisted_image(&self) -> Vec<u8> {
        self.persisted.clone()
    }

    /// A u64 from the known-persisted image (header probes, e.g. the magic
    /// and epoch fields, without materializing a full image).
    pub fn persisted_u64(&self, offset: usize) -> u64 {
        u64::from_ne_bytes(self.persisted[offset..offset + 8].try_into().unwrap())
    }

    /// Materializes the crash images reachable under PCSO at this instant,
    /// at most `max_images` of them (≥ 1; the budget of the sweep).
    ///
    /// The first image is always the base (no optional persist happened).
    /// With optional persists available (unfenced `pwb` snapshots that may
    /// have completed, dirty lines that may have been evicted) and budget to
    /// spare, the all-persists corner, each singleton, and then seeded
    /// random subsets follow. Images are not guaranteed pairwise distinct.
    pub fn crash_images(&self, max_images: usize, seed: u64) -> Vec<Vec<u8>> {
        let max_images = max_images.max(1);
        let mut images = vec![self.persisted.clone()];
        // Optional persists, no-ops filtered out. Pwb snapshots first (in
        // tid then program order — the order the simulator commits them),
        // then last-moment evictions, which carry the newest content.
        let pwbs: Vec<(u64, [u8; CACHE_LINE])> = self
            .pending
            .values()
            .flatten()
            .filter(|(line, snap)| Self::line_slice(&self.persisted, *line) != snap)
            .copied()
            .collect();
        let evicts: Vec<u64> = self
            .dirty
            .iter()
            .copied()
            .filter(|&line| !self.line_clean(line))
            .collect();
        let n = pwbs.len() + evicts.len();
        if n == 0 {
            return images;
        }
        let materialize = |mask: &dyn Fn(usize) -> bool| -> Vec<u8> {
            let mut img = self.persisted.clone();
            for (i, (line, snap)) in pwbs.iter().enumerate() {
                if mask(i) {
                    let off = *line as usize * CACHE_LINE;
                    img[off..off + CACHE_LINE].copy_from_slice(snap);
                }
            }
            for (j, &line) in evicts.iter().enumerate() {
                if mask(pwbs.len() + j) {
                    Self::copy_line(&mut img, &self.volatile, line);
                }
            }
            img
        };
        if n < usize::BITS as usize && (1usize << n) <= max_images {
            // Small choice set: enumerate every subset (distinct, complete).
            for bits in 1..(1u64 << n) {
                images.push(materialize(&|i| (bits >> i) & 1 == 1));
            }
            return images;
        }
        if images.len() < max_images {
            images.push(materialize(&|_| true));
        }
        for k in 0..n {
            if images.len() >= max_images {
                break;
            }
            images.push(materialize(&|i| i == k));
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        while images.len() < max_images {
            let subset: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            if subset.iter().all(|&b| !b) || subset.iter().all(|&b| b) {
                continue; // corners already covered
            }
            images.push(materialize(&|i| subset[i]));
        }
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CrashMode;
    use crate::trace::VecSink;
    use crate::{PAddr, Region, RegionConfig, SimConfig};
    use std::sync::Arc;

    fn recorded_region(size: usize, cfg: SimConfig) -> (Arc<Region>, Arc<VecSink>) {
        let region = Region::new(RegionConfig::sim(size, cfg));
        let sink = Arc::new(VecSink::new());
        region.set_trace_sink(sink.clone());
        (region, sink)
    }

    fn replay_all(size: usize, events: &[TraceEvent]) -> Replayer {
        let mut r = Replayer::new(size);
        for ev in events {
            r.apply(ev);
        }
        r
    }

    #[test]
    fn replay_matches_simulator_when_quiescent() {
        // Stores + full flush: no pending pwbs, no dirty lines left behind,
        // so the replayed persisted image must equal the real crash image.
        let (region, sink) = recorded_region(4096, SimConfig::no_eviction(7));
        region.store(PAddr(64), 0xabcd_ef01_u64);
        region.store(PAddr(200), 0x55u8);
        region.store_bytes(PAddr(300), &[9u8; 100]);
        region.flush_range(PAddr(64), 8);
        region.flush_range(PAddr(200), 1);
        region.flush_range(PAddr(300), 100);
        let r = replay_all(4096, &sink.drain());
        assert_eq!(r.dirty_len(), 0);
        assert_eq!(r.pending_len(), 0);
        let img = region.crash(CrashMode::PowerFailure);
        assert_eq!(r.persisted_image(), img.bytes());
        assert_eq!(r.volatile_image(), img.bytes());
    }

    #[test]
    fn unfenced_pwb_is_an_optional_persist() {
        let (region, sink) = recorded_region(4096, SimConfig::no_eviction(7));
        region.store(PAddr(128), 7u64);
        region.pwb(PAddr(128));
        // No psync: the write-back is in flight.
        let r = replay_all(4096, &sink.drain());
        assert_eq!(r.pending_len(), 1);
        // Two optional persists: the in-flight pwb snapshot, and the (still
        // dirty) line being evicted at the last moment — same content here.
        let images = r.crash_images(8, 1);
        assert_eq!(images.len(), 4, "base, all, two singletons");
        let word = |img: &Vec<u8>| u64::from_ne_bytes(img[128..136].try_into().unwrap());
        assert_eq!(word(&images[0]), 0, "base: pwb did not complete");
        for img in &images[1..] {
            assert_eq!(word(img), 7, "pwb completed and/or line evicted");
        }
    }

    #[test]
    fn dirty_line_offers_evicted_now_choice() {
        let (region, sink) = recorded_region(4096, SimConfig::no_eviction(7));
        region.store(PAddr(256), 11u64);
        let r = replay_all(4096, &sink.drain());
        assert_eq!(r.dirty_len(), 1);
        let images = r.crash_images(8, 2);
        assert_eq!(images.len(), 2);
        let word = |img: &Vec<u8>| u64::from_ne_bytes(img[256..264].try_into().unwrap());
        assert_eq!(word(&images[0]), 0);
        assert_eq!(word(&images[1]), 11);
    }

    #[test]
    fn budget_bounds_image_count() {
        let (region, sink) = recorded_region(8192, SimConfig::no_eviction(7));
        for i in 0..20u64 {
            region.store(PAddr(i * 64), i + 1);
        }
        let r = replay_all(8192, &sink.drain());
        assert_eq!(r.dirty_len(), 20);
        assert_eq!(r.crash_images(6, 3).len(), 6);
        assert_eq!(r.crash_images(1, 3).len(), 1);
        // Enumerating more than the corners + singletons draws random
        // subsets and still terminates at the budget.
        assert_eq!(r.crash_images(40, 3).len(), 40);
    }

    #[test]
    fn psync_commits_snapshot_not_later_stores() {
        let (region, sink) = recorded_region(4096, SimConfig::no_eviction(7));
        region.store(PAddr(512), 1u64);
        region.pwb(PAddr(512));
        region.store(PAddr(512), 2u64); // after the snapshot
        region.psync();
        let r = replay_all(4096, &sink.drain());
        let word = |img: &Vec<u8>| u64::from_ne_bytes(img[512..520].try_into().unwrap());
        assert_eq!(word(&r.persisted_image()), 1, "snapshot semantics");
        assert_eq!(r.dirty_len(), 1, "newer volatile content keeps line dirty");
        // And the real simulator agrees.
        let img = region.crash(CrashMode::PowerFailure);
        assert_eq!(img.bytes()[512], 1);
    }

    #[test]
    fn evictions_replay_to_the_same_image() {
        // With random eviction on, the trace records each eviction; the
        // replayed persisted image must match the simulator's crash image
        // exactly once pending write-backs are fenced.
        for seed in 0..10u64 {
            let (region, sink) = recorded_region(16384, SimConfig::with_eviction(1, seed));
            for i in 0..100u64 {
                region.store(PAddr((i % 40) * 64), i);
            }
            region.flush_range(PAddr(0), 40 * 64);
            let r = replay_all(16384, &sink.drain());
            let img = region.crash(CrashMode::PowerFailure);
            assert_eq!(r.persisted_image(), img.bytes(), "seed {seed}");
        }
    }

    #[test]
    fn replay_stops_at_crash() {
        let (region, sink) = recorded_region(4096, SimConfig::no_eviction(7));
        region.store(PAddr(64), 1u64);
        let _ = region.crash(CrashMode::PowerFailure);
        region.store(PAddr(64), 2u64); // after the crash: not replayed
        let mut r = Replayer::new(4096);
        for ev in sink.drain() {
            r.apply(&ev);
        }
        assert!(r.saw_crash());
        let word = u64::from_ne_bytes(r.volatile_image()[64..72].try_into().unwrap());
        assert_eq!(word, 1);
    }

    #[test]
    fn with_baseline_starts_clean() {
        let mut base = vec![0u8; 4096];
        base[100] = 42;
        let r = Replayer::with_baseline(&base);
        assert_eq!(r.dirty_len(), 0);
        assert_eq!(r.persisted_image(), base);
        assert_eq!(r.volatile_image(), &base[..]);
    }

    #[test]
    fn crash_point_classification() {
        assert!(is_crash_point(&TraceEvent::store_meta(1, 0, 8)));
        assert!(is_crash_point(&TraceEvent::Psync { tid: 1 }));
        assert!(!is_crash_point(&TraceEvent::Restore));
        let commit = TraceEvent::Marker {
            tid: 1,
            marker: TraceMarker::RingCommit { epoch: 3 },
        };
        assert!(is_crash_point(&commit) && is_protocol_point(&commit));
        let rp = TraceEvent::Marker {
            tid: 1,
            marker: TraceMarker::RestartPoint { slot: 1, id: 2 },
        };
        assert!(!is_crash_point(&rp) && !is_protocol_point(&rp));
    }
}
