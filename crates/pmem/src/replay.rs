//! The PCSO persistence state machine (paper §2.1), and trace replay over
//! it (`respct-crashsim`).
//!
//! `Pcso` is the one model of what NVMM holds: the **persisted image**,
//! the **dirty set** (lines whose volatile content may be newer than the
//! persisted image) and the **pending set** (per-thread `pwb` snapshots not
//! yet fenced). Its transitions — store, `pwb`, `psync`, evict, persist-all
//! and build-crash-image — take each line's current (volatile) content from
//! the caller, so the model owns no volatile image. Two callers drive it:
//!
//! * a sim-mode [`Region`](crate::Region) keeps one behind its simulator
//!   lock and reads line content from its arena (see [`crate::sim`]);
//! * the [`Replayer`] keeps one plus its own volatile image, rebuilt from a
//!   recorded [`TraceEvent`] stream (a [`VecSink`](crate::trace::VecSink)
//!   attached to a sim-mode region): stores carry their payload bytes, `pwb`
//!   events mark line snapshots entering a thread's write-back queue,
//!   `psync` commits them, and eviction events record the moments the
//!   region's replacement policy persisted a line spontaneously.
//!
//! Because a write-back copies the *entire current line*, two writes to the
//! same cache line never reach the persisted image out of program order —
//! exactly the PCSO guarantee In-Cache-Line Logging relies on.
//!
//! At any instant, the NVMM states reachable under PCSO if power failed
//! *right now* are: the persisted image, plus any subset of the pending
//! snapshots (each in-flight write-back independently completed or not),
//! plus any subset of the dirty lines evicted at the last moment (PCSO lets
//! the cache write a line back at any time). [`Replayer::crash_images`]
//! materializes the base image and a bounded selection of those subsets —
//! the "eviction-subset budget" — always including the none/all corners and
//! the singletons; a sim region's crash takes one of them. Intermediate
//! same-line prefixes need no extra choices: a sweep that stops at *every*
//! event already sees each line's intermediate content as the evicted-now
//! choice of some earlier instant.
//!
//! The replayer treats the trace's observation order as the ground truth
//! inter-thread order. A sim region emits each event under the same lock
//! as the transition it records, so that order is the live model's. For
//! byte-disjoint racing stores (the only races the runtime's
//! data-race-freedom assumption permits, e.g. false sharing of a line) any
//! observation order yields a PCSO-reachable image, so the sweep never
//! fabricates an unreachable state.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::{TraceEvent, TraceMarker};
use crate::CACHE_LINE;

/// One cache line's bytes.
pub(crate) type Line = [u8; CACHE_LINE];

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

/// Writes `content` over `line` of `image`: the one way a line reaches a
/// persisted image — a fenced or crash-completed `pwb` snapshot, an
/// eviction, a persist-all.
fn put_line(image: &mut [u8], line: u64, content: &Line) {
    let off = line as usize * CACHE_LINE;
    image[off..off + CACHE_LINE].copy_from_slice(content);
}

/// `line` of `image`.
fn line_of(image: &[u8], line: u64) -> Line {
    let off = line as usize * CACHE_LINE;
    image[off..off + CACHE_LINE].try_into().unwrap()
}

/// The dirty lines: O(1) insert, remove and random pick, iterated in a
/// deterministic order (insertion order, reshuffled only by removals).
struct DirtySet {
    lines: Vec<u64>,
    /// `slot[line]`: the line's index in `lines` plus one, 0 if absent.
    /// Allocated zeroed, so only the pages of lines ever dirtied cost.
    slot: Vec<u32>,
}

impl DirtySet {
    fn new(nlines: usize) -> DirtySet {
        DirtySet {
            lines: Vec::new(),
            slot: vec![0; nlines],
        }
    }

    fn insert(&mut self, line: u64) {
        if self.slot[line as usize] == 0 {
            self.lines.push(line);
            self.slot[line as usize] = self.lines.len() as u32;
        }
    }

    fn remove(&mut self, line: u64) {
        let slot = std::mem::take(&mut self.slot[line as usize]);
        if slot != 0 {
            self.lines.swap_remove(slot as usize - 1);
            if let Some(&moved) = self.lines.get(slot as usize - 1) {
                self.slot[moved as usize] = slot;
            }
        }
    }

    fn take(&mut self) -> Vec<u64> {
        for &line in &self.lines {
            self.slot[line as usize] = 0;
        }
        std::mem::take(&mut self.lines)
    }
}

/// The PCSO persistence state machine. See the module docs.
pub(crate) struct Pcso {
    /// What NVMM holds: every committed write-back and eviction applied.
    persisted: Vec<u8>,
    dirty: DirtySet,
    /// Unfenced `pwb` snapshots per trace tid, in program order.
    pending: BTreeMap<u64, Vec<(u64, Line)>>,
}

/// A choice of persists a crash may complete: pending `pwb` snapshots (in
/// tid, then program order — the order a `psync` commits each thread's),
/// then last-moment evictions carrying each dirty line's newest content.
/// No-ops are left out.
pub(crate) struct OptionalPersists {
    persists: Vec<(u64, Line)>,
    /// How many of `persists` are `pwb` snapshots (they come first).
    pub(crate) pwbs: usize,
}

impl Pcso {
    /// A machine whose NVMM holds `size` zero bytes and whose caches are
    /// clean. The image is allocated zeroed, so its pages cost nothing
    /// until written.
    pub(crate) fn new(size: usize) -> Pcso {
        Pcso {
            persisted: vec![0u8; size],
            dirty: DirtySet::new(size / CACHE_LINE),
            pending: BTreeMap::new(),
        }
    }

    /// A store touched `line`.
    pub(crate) fn store(&mut self, line: u64) {
        self.dirty.insert(line);
    }

    /// Thread `tid` issued a `pwb` of `line`, whose content is `content`
    /// now; it persists at the thread's next `psync`.
    pub(crate) fn pwb(&mut self, tid: u64, line: u64, content: Line) {
        self.pending.entry(tid).or_default().push((line, content));
    }

    /// Thread `tid` fenced: its pending snapshots persist. A snapshot older
    /// than the line's content leaves the line dirty.
    pub(crate) fn psync(&mut self, tid: u64, content: &dyn Fn(u64) -> Line) {
        for (line, snap) in self.pending.remove(&tid).unwrap_or_default() {
            put_line(&mut self.persisted, line, &snap);
            if content(line) == snap {
                self.dirty.remove(line);
            }
        }
    }

    /// The cache wrote `line` back with its current `content`.
    pub(crate) fn evict(&mut self, line: u64, content: &Line) {
        put_line(&mut self.persisted, line, content);
        self.dirty.remove(line);
    }

    /// A dirty line picked uniformly at random, if any.
    pub(crate) fn pick_dirty(&self, rng: &mut SmallRng) -> Option<u64> {
        let n = self.dirty.lines.len();
        (n > 0).then(|| self.dirty.lines[rng.gen_range(0..n)])
    }

    /// Every dirty line is written back (clean shutdown, test setup).
    /// In-flight `pwb` snapshots stay pending.
    pub(crate) fn persist_all(&mut self, content: &dyn Fn(u64) -> Line) {
        for line in self.dirty.take() {
            put_line(&mut self.persisted, line, &content(line));
        }
    }

    /// NVMM now holds `image`, and the caches hold nothing newer (reboot).
    pub(crate) fn restore(&mut self, image: &[u8]) {
        self.persisted.copy_from_slice(image);
        self.dirty.take();
        self.pending.clear();
    }

    /// The persists a crash right now may or may not complete.
    pub(crate) fn optional_persists(&self, content: &dyn Fn(u64) -> Line) -> OptionalPersists {
        let mut persists: Vec<(u64, Line)> = self
            .pending
            .values()
            .flatten()
            .filter(|(line, snap)| line_of(&self.persisted, *line) != *snap)
            .copied()
            .collect();
        let pwbs = persists.len();
        // An eviction is a no-op when the line still holds its persisted
        // content and no snapshot above can change that first. Ascending
        // line order keeps the choice indices independent of how the set
        // was built.
        let mut snapped: Vec<u64> = persists.iter().map(|&(line, _)| line).collect();
        snapped.sort_unstable();
        let mut evicts: Vec<(u64, Line)> = self
            .dirty
            .lines
            .iter()
            .map(|&line| (line, content(line)))
            .filter(|(line, now)| {
                line_of(&self.persisted, *line) != *now || snapped.binary_search(line).is_ok()
            })
            .collect();
        evicts.sort_unstable_by_key(|&(line, _)| line);
        persists.extend(evicts);
        OptionalPersists { persists, pwbs }
    }

    /// The crash image in which exactly the optional persists `chosen`
    /// picks (by index) completed, applied in order.
    pub(crate) fn crash_image(
        &self,
        opts: &OptionalPersists,
        mut chosen: impl FnMut(usize) -> bool,
    ) -> Vec<u8> {
        let mut image = self.persisted.clone();
        for (i, (line, content)) in opts.persists.iter().enumerate() {
            if chosen(i) {
                put_line(&mut image, *line, content);
            }
        }
        image
    }
}

/// Deterministic reconstruction of a region's persistence state from a
/// recorded trace: the `Pcso` machine plus the volatile image the stores
/// build. See the module docs.
pub struct Replayer {
    pcso: Pcso,
    volatile: Vec<u8>,
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
            pcso: Pcso::new(size),
            volatile: vec![0u8; size],
            events: 0,
            saw_crash: false,
        }
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

    /// Advances the replayed state by one event.
    pub fn apply(&mut self, ev: &TraceEvent) {
        if self.saw_crash {
            return;
        }
        self.events += 1;
        let volatile = &self.volatile;
        let content = |line| line_of(volatile, line);
        match *ev {
            TraceEvent::Store {
                addr, len, data, ..
            } => {
                let bytes = data.as_slice();
                let end = (addr as usize + bytes.len()).min(self.volatile.len());
                if !bytes.is_empty() {
                    let n = end.saturating_sub(addr as usize);
                    self.volatile[addr as usize..end].copy_from_slice(&bytes[..n]);
                }
                let first = addr / CACHE_LINE as u64;
                let last = (addr + len.max(1) - 1) / CACHE_LINE as u64;
                for line in first..=last {
                    self.pcso.store(line);
                }
            }
            TraceEvent::Pwb { tid, line } => self.pcso.pwb(tid, line, content(line)),
            TraceEvent::Psync { tid } => self.pcso.psync(tid, &content),
            TraceEvent::Eviction { line } => self.pcso.evict(line, &content(line)),
            TraceEvent::PersistAll => self.pcso.persist_all(&content),
            TraceEvent::Crash { .. } => self.saw_crash = true,
            TraceEvent::Restore => {
                // Only reachable in traces that restore without a recorded
                // crash (tests); volatile := persisted, caches drained.
                self.volatile.copy_from_slice(&self.pcso.persisted);
                self.pcso.restore(&self.volatile);
            }
            TraceEvent::Marker { .. } => {}
            // Happens-before edges and traced loads carry no bytes: the
            // replayed images are unaffected.
            TraceEvent::SyncRel { .. } | TraceEvent::SyncAcq { .. } | TraceEvent::Load { .. } => {}
        }
    }

    /// A u64 from the known-persisted image (header probes, e.g. the magic
    /// and epoch fields, without materializing a full image).
    pub fn persisted_u64(&self, offset: usize) -> u64 {
        u64::from_ne_bytes(self.pcso.persisted[offset..offset + 8].try_into().unwrap())
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
        let mut images = vec![self.pcso.persisted.clone()];
        let opts = self
            .pcso
            .optional_persists(&|line| line_of(&self.volatile, line));
        let n = opts.persists.len();
        if n == 0 {
            return images;
        }
        let materialize = |chosen: &dyn Fn(usize) -> bool| self.pcso.crash_image(&opts, chosen);
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

    impl Replayer {
        /// Unfenced `pwb` snapshots currently in flight.
        fn pending_len(&self) -> usize {
            self.pcso.pending.values().map(Vec::len).sum()
        }

        /// Lines currently dirty (volatile maybe newer than persisted).
        fn dirty_len(&self) -> usize {
            self.pcso.dirty.lines.len()
        }

        fn volatile_image(&self) -> &[u8] {
            &self.volatile
        }

        fn persisted_image(&self) -> &[u8] {
            &self.pcso.persisted
        }
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
        // so a trace complete enough to rebuild the live machine replays to
        // its crash image.
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
        let word = |img: &[u8]| u64::from_ne_bytes(img[512..520].try_into().unwrap());
        assert_eq!(word(r.persisted_image()), 1, "snapshot semantics");
        assert_eq!(r.dirty_len(), 1, "newer volatile content keeps line dirty");
        // And the real simulator agrees.
        let img = region.crash(CrashMode::PowerFailure);
        assert_eq!(img.bytes()[512], 1);
    }

    #[test]
    fn evictions_replay_to_the_same_image() {
        // With random eviction on, the trace records each eviction: it is
        // complete enough that the replayed persisted image matches the
        // live crash image once pending write-backs are fenced.
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
