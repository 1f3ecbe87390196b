//! Property tests for the crash-consistent allocator: live blocks never
//! overlap, deferred frees only recycle after a checkpoint, and the heap
//! cursors roll back exactly with the crashed epoch.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use respct_repro::pmem::{sim::CrashMode, Region, RegionConfig, SimConfig};
use respct_repro::respct::{Pool, PoolConfig};

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u64),
    FreeNth(usize),
    Checkpoint,
}

fn ops() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            5 => (1u64..300).prop_map(AllocOp::Alloc),
            2 => (0usize..64).prop_map(AllocOp::FreeNth),
            1 => Just(AllocOp::Checkpoint),
        ],
        1..100,
    )
}

fn block_extent(size: u64) -> u64 {
    // The allocator rounds small sizes to their class.
    let mut c = 16u64;
    while c < size {
        c *= 2;
    }
    c.min(4096).max(size)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn live_blocks_never_overlap(ops in ops()) {
        let region = Region::new(RegionConfig::fast(8 << 20));
        let pool = Pool::create(region, PoolConfig::default()).expect("pool");
        let h = pool.register();
        // live: addr -> extent
        let mut live: HashMap<u64, u64> = HashMap::new();
        let mut order: Vec<(u64, u64)> = Vec::new();
        for op in &ops {
            match op {
                AllocOp::Alloc(size) => {
                    let a = h.alloc(*size, 8);
                    let ext = block_extent(*size);
                    for (&addr, &e) in &live {
                        prop_assert!(
                            a.0 + ext <= addr || a.0 >= addr + e,
                            "block {a:?}+{ext} overlaps live {addr}+{e}"
                        );
                    }
                    live.insert(a.0, ext);
                    order.push((a.0, *size));
                }
                AllocOp::FreeNth(n) => {
                    if !order.is_empty() {
                        let (addr, size) = order.remove(n % order.len());
                        h.free(respct_repro::pmem::PAddr(addr), size);
                        live.remove(&addr);
                    }
                }
                AllocOp::Checkpoint => {
                    h.checkpoint_here();
                }
            }
        }
    }

    #[test]
    fn heap_cursor_rolls_back_to_checkpoint(
        pre in 1usize..20,
        post in 1usize..20,
        seed in 0u64..500,
    ) {
        let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::with_eviction(3, seed)));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        for _ in 0..pre {
            h.alloc(100_000, 64); // large: moves the global bump
        }
        h.checkpoint_here();
        let durable_used = pool.heap_used();
        for _ in 0..post {
            h.alloc(100_000, 64);
        }
        prop_assert!(pool.heap_used() > durable_used);
        drop(h);
        drop(pool);
        let image = region.crash(CrashMode::PowerFailure);
        region.restore(&image);
        let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        prop_assert_eq!(pool.heap_used(), durable_used);
    }

    #[test]
    fn recycling_preserves_disjointness_across_epochs(rounds in 1usize..12) {
        // Alternate alloc-heavy and free-heavy epochs; recycled blocks must
        // still never overlap within an epoch's live set.
        let region = Region::new(RegionConfig::fast(8 << 20));
        let pool = Pool::create(region, PoolConfig::default()).expect("pool");
        let h = pool.register();
        let mut live: Vec<u64> = Vec::new();
        for r in 0..rounds {
            for i in 0..20u64 {
                let a = h.alloc(48, 8); // class 64
                prop_assert!(!live.contains(&a.0), "round {r} alloc {i}: block reused while live");
                live.push(a.0);
            }
            // Free half, checkpoint (making them recyclable), keep half.
            let freed: Vec<u64> = live.drain(..10).collect();
            for a in freed {
                h.free(respct_repro::pmem::PAddr(a), 48);
            }
            h.checkpoint_here();
        }
    }
}

/// Freed blocks must not be handed out again before a checkpoint even under
/// heavy churn (the rollback/reuse hazard the deferred free closes).
#[test]
fn no_within_epoch_reuse() {
    let region = Region::new(RegionConfig::fast(8 << 20));
    let pool = Pool::create(region, PoolConfig::default()).expect("pool");
    let h = pool.register();
    for round in 0..50 {
        let a = h.alloc(64, 8);
        h.free(a, 64);
        let b = h.alloc(64, 8);
        assert_ne!(a, b, "round {round}: freed block recycled within the epoch");
        h.free(b, 64);
        h.checkpoint_here();
    }
}

/// The one deferred-free lifecycle, at every depth: a block freed in epoch
/// N is never handed out before N's commit, and is the next block of its
/// class once the checkpoint that closes N — plus, at depth ≥ 1, a
/// checkpoint after N's ring commit — has returned.
#[test]
fn freed_block_is_recycled_only_after_its_epoch_commits() {
    for depth in [0, 1, 4] {
        let case = format!("depth {depth}");
        let cfg = PoolConfig::builder().depth(depth).build().expect("config");
        let pool = Pool::create(Region::new(RegionConfig::fast(8 << 20)), cfg).expect("pool");
        let mut h = pool.register();
        let checkpoint = |h: &mut respct_repro::respct::ThreadHandle| {
            let _allow = h.allow_checkpoints();
            pool.checkpoint_now().closed_epoch
        };
        let a = h.alloc(64, 8);
        h.free(a, 64);
        assert_ne!(h.alloc(64, 8), a, "{case}: reused within its epoch");
        // Close epoch N with its drain held: at depth ≥ 1 the commit cannot
        // land, so the block must stay parked.
        pool.hold_drains(true);
        let closed = checkpoint(&mut h);
        if depth > 0 {
            assert_ne!(h.alloc(64, 8), a, "{case}: reused before N's commit");
            pool.hold_drains(false);
            // `checkpoint_here` returns once its own epoch has committed —
            // so N has; the checkpoint after that recycles N's frees if
            // the first one ran too early to see them.
            assert!(h.checkpoint_here().closed_epoch > closed);
            checkpoint(&mut h);
        }
        assert_eq!(h.alloc(64, 8), a, "{case}: not the next block of its class");
    }
}
