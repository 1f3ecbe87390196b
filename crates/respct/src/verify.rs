//! Pool integrity verification (an fsck for ResPCT pools).
//!
//! Walks every persistent structure the runtime maintains — header, thread
//! slots, registry chains, free lists, cell placements — and checks the
//! invariants the algorithm relies on. Intended for tests, post-recovery
//! sanity checks, and debugging of data-structure code built on the pool.

use respct_pmem::PAddr;

use crate::error::PoolError;
use crate::incll::{tag_epoch, ICell};
use crate::layout::{self, MAGIC, MAX_THREADS, NUM_CLASSES, OFF_MAGIC, OFF_SIZE};
use crate::pool::Pool;
use crate::{epoch_record, registry};

/// One integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check failed.
    pub kind: ViolationKind,
    /// Human-readable details.
    pub detail: String,
}

/// Category of an integrity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Bad magic or size header.
    Header,
    /// A registered cell straddles a cache line or lies out of bounds.
    CellPlacement,
    /// A registry chain is shorter than its recorded length, or a chunk
    /// pointer is invalid.
    Registry,
    /// A free-list is cyclic or points out of bounds.
    FreeList,
    /// An allocator cursor is out of bounds or inconsistent.
    Allocator,
    /// Epoch-tag indiscipline: the persistent epoch counter disagrees with
    /// the volatile mirror, or a cell's tag decodes to an epoch the pool has
    /// not reached yet (a tag from the future can silently suppress logging
    /// when that epoch arrives, destroying the undo chain).
    Epoch,
}

/// Result of [`Pool::verify`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    pub cells_checked: u64,
    pub registry_chunks: u64,
    pub free_blocks: u64,
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl Pool {
    /// Verifies the pool's persistent invariants.
    ///
    /// Must run while no application thread is mutating the pool
    /// (single-threaded test context or post-recovery).
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        let mut violations: Vec<Violation> = Vec::new();
        let region = self.region();
        let size = region.size() as u64;
        // Collect, don't abort: report everything found.
        let mut fail = |kind, detail: String| violations.push(Violation { kind, detail });

        // Header.
        if region.load::<u64>(OFF_MAGIC) != MAGIC {
            fail(ViolationKind::Header, "bad magic".into());
        }
        if region.load::<u64>(OFF_SIZE) != size {
            fail(ViolationKind::Header, "recorded size != region size".into());
        }

        // Epoch-tag discipline. In any quiescent state the persistent epoch
        // counter matches the volatile mirror, and no cell carries a tag
        // from an epoch the pool has not reached (a "future" tag would make
        // `update_InCLL` skip logging when that epoch arrives). Tags that
        // decode far beyond the horizon are uninitialized noise (the
        // address mixing spreads garbage over the full u64 range), so only
        // the plausible window is flagged.
        let epoch = self.epoch();
        match epoch_record::read(region).map(|record| record.recorded) {
            Ok(recorded) if recorded != epoch => fail(
                ViolationKind::Epoch,
                format!("persistent epoch {recorded} != volatile mirror {epoch}"),
            ),
            Ok(_) => {}
            Err(e) => fail(ViolationKind::Epoch, e.to_string()),
        }
        const EPOCH_HORIZON: u64 = 1 << 20;
        let bad_tag = |addr: PAddr| -> Option<u64> {
            let stored: u64 = region.load(ICell::<u64>::from_addr(addr).epoch_addr());
            let e = tag_epoch(addr, stored);
            (e > epoch && e <= epoch.saturating_add(EPOCH_HORIZON)).then_some(e)
        };
        for addr in layout::header_cells() {
            if let Some(e) = bad_tag(addr) {
                fail(
                    ViolationKind::Epoch,
                    format!("header cell at {addr:?}: tag epoch {e} > pool epoch {epoch}"),
                );
            }
        }

        // Allocator cursors.
        let heap = layout::heap_start().0;
        let bump = self.cell_get(self.bump_cell());
        if !(heap..=size).contains(&bump) {
            fail(
                ViolationKind::Allocator,
                format!("bump cell {bump} outside [{heap}, {size}]"),
            );
        }

        // Registries + registered cells: the checks recovery's scan runs, in
        // walk order. It stops a slot's chain at the first word it cannot
        // trust.
        for slot in 0..MAX_THREADS {
            let walked = registry::walk(region, slot, |addr| {
                report.cells_checked += 1;
                if let Some(e) = bad_tag(addr) {
                    fail(
                        ViolationKind::Epoch,
                        format!("slot {slot}: cell {addr:?} tag epoch {e} > pool epoch {epoch}"),
                    );
                }
            });
            match walked {
                Ok(chunks) => report.registry_chunks += chunks,
                Err(e) => {
                    let kind = match e {
                        PoolError::CorruptRegistry {
                            why: registry::BAD_CELL,
                            ..
                        } => ViolationKind::CellPlacement,
                        _ => ViolationKind::Registry,
                    };
                    fail(kind, e.to_string());
                }
            }
        }

        // Free lists: bounded walk detects cycles / wild pointers.
        for c in 0..NUM_CLASSES {
            let mut cur = self.cell_get(self.freelist_cell(c));
            let mut steps = 0u64;
            let limit = size / 16 + 1;
            while cur != 0 {
                if !cur.is_multiple_of(8) || cur >= size {
                    fail(
                        ViolationKind::FreeList,
                        format!("class {c}: wild pointer {cur:#x}"),
                    );
                    break;
                }
                report.free_blocks += 1;
                steps += 1;
                if steps > limit {
                    fail(
                        ViolationKind::FreeList,
                        format!("class {c}: cycle detected"),
                    );
                    break;
                }
                cur = region.load(PAddr(cur));
            }
        }
        report.violations = violations;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use respct_pmem::{Region, RegionConfig};
    use std::sync::Arc;

    #[test]
    fn fresh_pool_is_clean() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let r = pool.verify();
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn pool_with_cells_and_frees_is_clean() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(16 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let h = pool.register();
        let mut blocks = Vec::new();
        for i in 0..500u64 {
            h.alloc_cell(i);
            blocks.push(h.alloc(48, 8));
        }
        for b in blocks {
            h.free(b, 48);
        }
        h.checkpoint_here(); // drain frees, sync cursors
        h.checkpoint_here(); // persist the drained free list heads
        let r = pool.verify();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.cells_checked, 500);
        assert!(r.free_blocks >= 500);
    }

    #[test]
    fn recovered_pool_is_clean() {
        let region = Region::new(RegionConfig::sim(
            8 << 20,
            respct_pmem::SimConfig::with_eviction(3, 5),
        ));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).unwrap();
        let h = pool.register();
        let cells: Vec<_> = (0..100u64).map(|i| h.alloc_cell(i)).collect();
        h.checkpoint_here();
        for c in &cells {
            h.update(*c, 1);
        }
        drop(h);
        drop(pool);
        let img = region.crash(respct_pmem::sim::CrashMode::PowerFailure);
        region.restore(&img);
        let (pool, _) = Pool::recover(Arc::clone(&region), PoolConfig::default()).unwrap();
        let r = pool.verify();
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn corrupted_magic_detected() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        pool.region().store(OFF_MAGIC, 0xbad_c0de_u64);
        let r = pool.verify();
        assert!(!r.is_clean());
        assert_eq!(r.violations[0].kind, ViolationKind::Header);
    }

    #[test]
    fn corrupted_registry_detected() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let h = pool.register();
        for i in 0..10u64 {
            h.alloc_cell(i);
        }
        h.checkpoint_here();
        // Smash the slot's registry head.
        let slot_base = layout::slot_base(h.slot()).0;
        pool.region()
            .store(PAddr(slot_base + layout::SLOT_REG_HEAD), u64::MAX);
        let r = pool.verify();
        assert!(
            r.violations
                .iter()
                .any(|v| v.kind == ViolationKind::Registry),
            "{r:?}"
        );
    }

    #[test]
    fn epoch_counter_mismatch_detected() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        pool.region().store(layout::OFF_EPOCH, 99u64); // persistent counter diverges
        let r = pool.verify();
        assert!(
            r.violations.iter().any(|v| v.kind == ViolationKind::Epoch),
            "{r:?}"
        );
    }

    #[test]
    fn future_epoch_tag_detected() {
        let pool = Pool::create(
            Region::new(RegionConfig::fast(4 << 20)),
            PoolConfig::default(),
        )
        .unwrap();
        let h = pool.register();
        let c = h.alloc_cell(7u64);
        h.checkpoint_here();
        // Stamp the cell with a tag from an epoch the pool hasn't reached:
        // update_InCLL would skip logging when that epoch arrives.
        let tag = crate::incll::epoch_tag(c.addr(), pool.epoch() + 5);
        pool.region().store(c.epoch_addr(), tag);
        let r = pool.verify();
        assert!(
            r.violations.iter().any(|v| v.kind == ViolationKind::Epoch),
            "{r:?}"
        );
    }
}
