//! Per-operation undo logging, durable linearizability: classic undo
//! logging (NV-Heaps / PMDK `libpmemobj` style) and Clobber-NVM (ASPLOS '21).
//!
//! A logged store first appends `(addr, old)` to a per-thread undo log in
//! NVMM and *persists the log entry before the store* (`pwb` + `psync` —
//! this ordering write is the technique's signature cost). At commit, all
//! modified lines are flushed, fenced, and the log is truncated with another
//! persisted write. The paper's related work (§2.2) identifies exactly this
//! extra synchronization as the reason checkpointing approaches exist.
//!
//! [`UndoPolicy::new`] logs every in-place store. Clobber-NVM
//! ([`UndoPolicy::clobber`]) is undo logging restricted to write-after-read
//! stores: only variables that are *both read and written* by a
//! failure-atomic section ("clobbered" inputs) need an undo log — everything
//! else is reconstructed by re-executing the section from its persisted
//! inputs — so a blind write skips the log append and its ordering fence.
//! The paper compares against Clobber-NVM directly (§5.1) and finds ResPCT
//! up to 2.7× faster because even one log fence per op on the critical path
//! is costly.

use std::sync::Arc;

use respct_pmem::{PAddr, Region};

use crate::nvheap::{NvCtx, NvHeap};
use crate::policy::{persist_lines, PersistPolicy, WriteKind};

const LOG_BYTES: u64 = 256 * 1024;

/// The undo-logging policy.
pub struct UndoPolicy {
    heap: Arc<NvHeap>,
    /// Clobber-NVM: log only [`WriteKind::War`] stores.
    war_only: bool,
}

/// Per-thread state: NVMM log area + tracked lines.
pub struct UndoCtx {
    alloc: NvCtx,
    /// Log layout: `len` at +0, entries (addr, old) from +64.
    log: PAddr,
    log_len: u64,
    modified: Vec<u64>,
}

impl UndoPolicy {
    /// Creates the policy over `region`; it logs every in-place store.
    pub fn new(region: Arc<Region>) -> UndoPolicy {
        UndoPolicy {
            heap: Arc::new(NvHeap::new(region)),
            war_only: false,
        }
    }

    /// Creates Clobber-NVM over `region`: it logs only write-after-read
    /// stores.
    pub fn clobber(region: Arc<Region>) -> UndoPolicy {
        UndoPolicy {
            war_only: true,
            ..UndoPolicy::new(region)
        }
    }

    fn region(&self) -> &Arc<Region> {
        self.heap.region()
    }

    fn log_append(&self, ctx: &mut UndoCtx, addr: PAddr, old: u64) {
        let region = self.region();
        let slot = PAddr(ctx.log.0 + 64 + ctx.log_len * 16);
        debug_assert!(ctx.log_len * 16 + 64 + 16 <= LOG_BYTES, "undo log overflow");
        region.store(slot, addr.0);
        region.store(slot.offset(8), old);
        // Persist the log entry before the in-place store may reach NVMM.
        region.pwb(slot);
        region.psync();
        ctx.log_len += 1;
    }
}

impl PersistPolicy for UndoPolicy {
    type Ctx = UndoCtx;

    fn register(&self) -> UndoCtx {
        let mut alloc = self.heap.ctx();
        let log = self.heap.alloc(&mut alloc, LOG_BYTES);
        self.region().store(log, 0u64);
        UndoCtx {
            alloc,
            log,
            log_len: 0,
            modified: Vec::new(),
        }
    }

    fn stride(&self) -> u64 {
        8
    }

    fn alloc(&self, ctx: &mut UndoCtx, size: u64) -> PAddr {
        self.heap.alloc(&mut ctx.alloc, size)
    }

    fn free(&self, ctx: &mut UndoCtx, addr: PAddr, size: u64) {
        let _ = ctx;
        self.heap.free(addr, size);
    }

    fn begin(&self, ctx: &mut UndoCtx) {
        ctx.log_len = 0;
        ctx.modified.clear();
    }

    fn read(&self, addr: PAddr) -> u64 {
        self.region().load(addr)
    }

    fn write(&self, ctx: &mut UndoCtx, addr: PAddr, val: u64, kind: WriteKind) {
        if !self.war_only || kind == WriteKind::War {
            let old: u64 = self.region().load(addr);
            self.log_append(ctx, addr, old);
        }
        self.region().store(addr, val);
        ctx.modified.push(addr.line());
    }

    fn init(&self, ctx: &mut UndoCtx, addr: PAddr, val: u64) {
        // Fresh memory: no old value to preserve, but the line must still
        // be durable at commit.
        self.region().store(addr, val);
        ctx.modified.push(addr.line());
    }

    fn commit(&self, ctx: &mut UndoCtx) {
        let region = self.region();
        persist_lines(region, &mut ctx.modified);
        if ctx.log_len > 0 {
            // Truncate the log durably: the transaction is now committed.
            region.store(ctx.log, 0u64);
            region.pwb(ctx.log);
            region.psync();
            ctx.log_len = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyHashMap;
    use respct_ds::traits::BenchMap;
    use respct_pmem::RegionConfig;

    #[test]
    fn flushes_per_op_exceed_respct() {
        // The signature cost: at least one psync per logged write plus two
        // at commit.
        let region = Region::new(RegionConfig::fast(32 << 20));
        let p = Arc::new(UndoPolicy::new(Arc::clone(&region)));
        let m = PolicyHashMap::new(Arc::clone(&p), 16);
        let mut ctx = m.register();
        let before = region.stats().snapshot();
        for k in 0..100 {
            m.insert(&mut ctx, k, k);
        }
        let delta = region.stats().snapshot().since(&before);
        assert!(
            delta.psync >= 200,
            "expected ≥2 fences/op, saw {}",
            delta.psync
        );
        assert!(delta.pwb >= 200);
    }

    #[test]
    fn logs_less_than_undo() {
        // Value-update workload: the value store is blind, so Clobber must
        // issue strictly fewer flushes than full undo logging.
        let r1 = Region::new(RegionConfig::fast(16 << 20));
        let r2 = Region::new(RegionConfig::fast(16 << 20));
        let mc = PolicyHashMap::new(Arc::new(UndoPolicy::clobber(Arc::clone(&r1))), 16);
        let mu = PolicyHashMap::new(Arc::new(UndoPolicy::new(Arc::clone(&r2))), 16);
        let mut cc = mc.register();
        let mut cu = mu.register();
        for k in 0..50 {
            mc.insert(&mut cc, k, 0);
            mu.insert(&mut cu, k, 0);
        }
        let b1 = r1.stats().snapshot();
        let b2 = r2.stats().snapshot();
        for k in 0..50 {
            mc.insert(&mut cc, k, 1); // pure value updates
            mu.insert(&mut cu, k, 1);
        }
        let d1 = r1.stats().snapshot().since(&b1);
        let d2 = r2.stats().snapshot().since(&b2);
        assert!(
            d1.pwb < d2.pwb,
            "clobber ({}) should flush less than undo ({})",
            d1.pwb,
            d2.pwb
        );
    }
}
