//! Property tests for the PCSO persistence simulator itself — the substrate
//! all crash tests stand on. The paper's §2.1 model guarantees:
//!
//! 1. a write to a cache line never reaches NVMM before any preceding write
//!    (by any thread) to the same line — modeled as whole-line snapshots;
//! 2. a `pwb` followed by `psync` makes the line's content (as of the
//!    `pwb`) durable;
//! 3. a crash preserves an arbitrary *per-line-consistent* subset of the
//!    volatile state.
//!
//! For single-writer store sequences this means: each line's persisted
//! image after a crash equals the image after some *prefix* of that line's
//! store history.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use respct_repro::pmem::{
    sim::CrashMode, PAddr, Region, RegionConfig, Replayer, SimConfig, TraceEvent, VecSink,
};

const LINES: u64 = 8;

/// Applies the first `k` stores of `ops` that touch `line` to a 64-byte
/// model and returns the resulting image.
fn line_image_after_prefix(ops: &[(u64, u8, u8)], line: u64, k: usize) -> [u8; 64] {
    let mut img = [0u8; 64];
    let mut applied = 0;
    for &(l, off, val) in ops {
        if l != line {
            continue;
        }
        if applied == k {
            break;
        }
        img[off as usize] = val;
        applied += 1;
    }
    img
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Crash images are per-line prefixes of the store history.
    #[test]
    fn crash_image_is_per_line_prefix(
        ops in proptest::collection::vec((0u64..LINES, 0u8..64, any::<u8>()), 1..120),
        seed in 0u64..10_000,
        evict_log2 in 0u32..4,
        flush_every in proptest::option::of(1usize..20),
    ) {
        let region = Region::new(RegionConfig::sim(
            (LINES * 64) as usize,
            SimConfig::with_eviction(evict_log2, seed),
        ));
        for (n, &(line, off, val)) in ops.iter().enumerate() {
            region.store(PAddr(line * 64 + off as u64), val);
            if let Some(every) = flush_every {
                if n % every == 0 {
                    region.pwb_line(line);
                    region.psync();
                }
            }
        }
        let image = region.crash(CrashMode::PowerFailure);
        for line in 0..LINES {
            let got: [u8; 64] =
                image.bytes()[(line * 64) as usize..][..64].try_into().unwrap();
            let nstores = ops.iter().filter(|&&(l, _, _)| l == line).count();
            let matches_some_prefix = (0..=nstores)
                .any(|k| line_image_after_prefix(&ops, line, k) == got);
            prop_assert!(
                matches_some_prefix,
                "line {line}: persisted image is not a prefix of its store history"
            );
        }
    }

    /// pwb + psync guarantees durability of the line as of the pwb.
    #[test]
    fn flushed_lines_are_durable(
        stores in proptest::collection::vec((0u64..LINES, 0u8..64, any::<u8>()), 1..60),
        seed in 0u64..1_000,
    ) {
        let region = Region::new(RegionConfig::sim(
            (LINES * 64) as usize,
            SimConfig::no_eviction(seed),
        ));
        for &(line, off, val) in &stores {
            region.store(PAddr(line * 64 + off as u64), val);
        }
        // Flush everything, fence, crash: full state must survive.
        for line in 0..LINES {
            region.pwb_line(line);
        }
        region.psync();
        let image = region.crash(CrashMode::PowerFailure);
        for line in 0..LINES {
            let nstores = stores.iter().filter(|&&(l, _, _)| l == line).count();
            let want = line_image_after_prefix(&stores, line, nstores);
            let got: [u8; 64] =
                image.bytes()[(line * 64) as usize..][..64].try_into().unwrap();
            prop_assert_eq!(want, got, "line {} lost flushed data", line);
        }
    }

    /// Without any flush and without eviction, nothing persists.
    #[test]
    fn unflushed_state_is_lost_without_eviction(
        stores in proptest::collection::vec((0u64..LINES, 0u8..64, 1u8..=255), 1..60),
        seed in 0u64..1_000,
    ) {
        let region = Region::new(RegionConfig::sim(
            (LINES * 64) as usize,
            SimConfig::no_eviction(seed),
        ));
        for &(line, off, val) in &stores {
            region.store(PAddr(line * 64 + off as u64), val);
        }
        let image = region.crash(CrashMode::PowerFailure);
        prop_assert!(image.bytes().iter().all(|&b| b == 0), "dirty data leaked to NVMM");
    }

    /// restore() + continue + crash again behaves like a fresh machine
    /// whose initial NVMM content is the first crash image.
    #[test]
    fn restore_then_recrash_composes(
        first in proptest::collection::vec((0u64..LINES, 0u8..64, any::<u8>()), 1..40),
        second in proptest::collection::vec((0u64..LINES, 0u8..64, any::<u8>()), 1..40),
        seed in 0u64..1_000,
    ) {
        let region = Region::new(RegionConfig::sim(
            (LINES * 64) as usize,
            SimConfig::no_eviction(seed),
        ));
        for &(line, off, val) in &first {
            region.store(PAddr(line * 64 + off as u64), val);
        }
        for line in 0..LINES {
            region.pwb_line(line);
        }
        region.psync();
        let img1 = region.crash(CrashMode::PowerFailure);
        region.restore(&img1);
        // Second run: stores without flush → second crash must return img1.
        for &(line, off, val) in &second {
            region.store(PAddr(line * 64 + off as u64), val);
        }
        let img2 = region.crash(CrashMode::PowerFailure);
        prop_assert_eq!(img1.bytes(), img2.bytes());
    }
}

/// One lock serializes a sim region's model: four threads store to
/// byte-disjoint words of shared lines on an evicting region, interleaving
/// `pwb`/`psync`, while the main thread takes crash images. The trace
/// records every transition in the order the model took it, so an offline
/// replay of it reaches each live crash image at that crash's event; and
/// once the writers are joined, persisting everything yields exactly the
/// bytes they wrote.
#[test]
fn concurrent_writers_drive_one_model() {
    const LINES: u64 = 4;
    const SIZE: usize = LINES as usize * 64;
    const STORES: u64 = 5_000;
    let region = Region::new(RegionConfig::sim(SIZE, SimConfig::with_eviction(1, 0x5eed)));
    let sink = Arc::new(VecSink::new());
    region.set_trace_sink(sink.clone());
    let start = Barrier::new(5);
    let running = AtomicUsize::new(4);
    let mut live = Vec::new();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (region, start, running) = (&region, &start, &running);
            s.spawn(move || {
                start.wait();
                // Thread `t` owns word `t` of every line. At most two
                // `pwb`s per thread are ever in flight.
                for i in 0..STORES {
                    let line = (i * 7 + t) % LINES;
                    region.store(PAddr(line * 64 + t * 8), t << 32 | i);
                    if i % 3 == t % 3 {
                        region.pwb_line(line);
                    }
                    if i % 5 == 0 {
                        region.psync();
                    }
                }
                region.psync();
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        start.wait();
        while running.load(Ordering::SeqCst) > 0 && live.len() < 100 {
            live.push(region.crash(CrashMode::PowerFailure));
            std::thread::yield_now();
        }
    });
    assert!(region.stats().snapshot().evictions > 0);
    live.push(region.crash(CrashMode::PowerFailure));
    region.persist_all();
    let mut bytes = vec![0u8; SIZE];
    region.load_bytes(PAddr(0), &mut bytes);
    let all = region.crash(CrashMode::EvictAll);
    assert_eq!(all.bytes(), &bytes[..]);
    live.push(all);

    // A crash does not change the model, so the replay steps over each
    // one. With at most 8 snapshots in flight and 4 dirty lines, 2^12
    // images enumerate every choice: the live one must be among them.
    let mut replayer = Replayer::new(SIZE);
    let mut live = live.iter();
    for ev in sink.drain() {
        if let TraceEvent::Crash { .. } = ev {
            let want = live.next().expect("one live image per crash event").bytes();
            let images = replayer.crash_images(1 << 12, 0);
            assert!(
                images.iter().any(|img| img == want),
                "at event {}",
                replayer.events()
            );
        } else {
            replayer.apply(&ev);
        }
    }
    assert!(live.next().is_none());
    for t in 0..4u64 {
        let last = |line: u64| (0..STORES).rev().find(|i| (i * 7 + t) % LINES == line);
        for line in 0..LINES {
            let word = &bytes[(line * 64 + t * 8) as usize..][..8];
            let want = last(line).map_or(0, |i| t << 32 | i);
            assert_eq!(word, want.to_ne_bytes(), "thread {t} line {line}");
        }
    }
}
