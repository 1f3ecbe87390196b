//! The epoch record: the header line holding the epoch counter and the
//! epoch-record ring. Every load and store of that line is in this module,
//! each with the write-back and fence it needs; `create`, the checkpointer
//! (the claim), the drain routine (the commit), recovery and `verify` are
//! callers.
//!
//! `epoch` is the running epoch. `ring[i]` holds `N` while the drain of
//! epoch `N` (claimed into slot `N mod K` by a pool of pipeline depth `K`)
//! has not committed, and 0 otherwise. Every checkpoint claims and commits
//! a slot — slot 0 on a synchronous pool, whose depth is 1, so at rest its
//! ring reads all zero. The decode ([`read`]) is independent of `K`: a
//! narrower pool simply never wrote the upper slots.
//!
//! # Why one line
//!
//! The counter and all [`MAX_EPOCH_PIPELINE`] slots share a cache line
//! (checked at compile time in `layout`), and every update below is a short
//! run of stores to that line followed by one write-back and one fence. By
//! PCSO's same-line prefix order a crash leaves a *prefix* of such a run,
//! never a reordering, and [`read`] accepts every prefix:
//!
//! * [`commit`]: one store — old value or new.
//! * [`claim`] (`ring[s] ← N; epoch ← N+1`): nothing (epoch `N` is simply
//!   the running epoch), the claim alone (newest claim = counter), or both
//!   (newest claim = counter − 1). Each rolls back from `N`.
//! * [`repair`] (claims zeroed oldest first, counter last): a contiguous
//!   suffix of the claims survives, still ending at the counter or one
//!   below it — the committed horizon only moves forward, which is sound
//!   because the roll-back writes are made durable first.

use respct_pmem::Region;

use crate::error::PoolError;
use crate::layout::{epoch_ring_slot, FIRST_EPOCH, MAX_EPOCH_PIPELINE, OFF_EPOCH};

/// What a crash left in the epoch record (see [`read`]).
pub(crate) struct EpochRecord {
    /// The oldest epoch that never committed: everything tagged `failed
    /// ..= recorded` rolls back, and execution resumes in `failed`.
    pub failed: u64,
    /// The epoch counter: the newest epoch that may have stored anything.
    pub recorded: u64,
    /// Ring slots still claimed, oldest epoch first. The slot index is kept
    /// rather than recomputed: the crashed pool's `K` is not in the image.
    claimed: Vec<usize>,
}

/// Formats the line: epoch [`FIRST_EPOCH`], no drain in flight.
pub(crate) fn format(region: &Region) {
    region.store(OFF_EPOCH, FIRST_EPOCH);
    for i in 0..MAX_EPOCH_PIPELINE {
        region.store(epoch_ring_slot(i), 0u64);
    }
}

/// Decodes the line into the range of epochs to roll back. Drains commit
/// strictly in ring order, so a legitimate image shows a *contiguous*
/// ascending run of claims ending at the counter (the claim tore mid-line)
/// or one below it — or no claim at all, when only the running epoch rolls
/// back.
///
/// # Errors
///
/// [`PoolError::CorruptRing`] for a hole or a stray claim: recovery refuses
/// rather than guess which epochs are durable.
pub(crate) fn read(region: &Region) -> Result<EpochRecord, PoolError> {
    let recorded: u64 = region.load(OFF_EPOCH);
    let slots: [u64; MAX_EPOCH_PIPELINE] = std::array::from_fn(|i| region.load(epoch_ring_slot(i)));
    let mut claimed: Vec<usize> = (0..MAX_EPOCH_PIPELINE).filter(|&i| slots[i] != 0).collect();
    claimed.sort_unstable_by_key(|&i| slots[i]);
    let failed = match (claimed.first(), claimed.last()) {
        (Some(&oldest), Some(&newest)) => {
            let contiguous = claimed
                .windows(2)
                .all(|w| slots[w[0]].checked_add(1) == Some(slots[w[1]]));
            let newest = slots[newest];
            if !(contiguous && (newest == recorded || newest.checked_add(1) == Some(recorded))) {
                return Err(PoolError::CorruptRing {
                    slots,
                    recorded_epoch: recorded,
                });
            }
            slots[oldest]
        }
        _ => recorded,
    };
    Ok(EpochRecord {
        failed,
        recorded,
        claimed,
    })
}

/// `epoch ← next`, durable on return, with every store made before it to
/// the line: the last step of [`claim`] and [`repair`].
fn advance(region: &Region, next: u64) {
    region.store(OFF_EPOCH, next);
    region.pwb(OFF_EPOCH);
    region.psync();
}

/// The ring claim that opens every checkpoint's drain: `ring[closing mod
/// depth] ← closing; epoch ← closing + 1`, one write-back and one fence for
/// both. Returns the slot claimed, for [`commit`].
pub(crate) fn claim(region: &Region, closing: u64, depth: usize) -> usize {
    let slot = (closing % depth as u64) as usize;
    region.store(epoch_ring_slot(slot), closing);
    advance(region, closing + 1);
    slot
}

/// The ring commit that ends a drain (Fig. 4 lines 56–58): `ring[slot] ←
/// 0`, durable on return. It claims "this epoch and every predecessor are durable", so
/// the caller has fenced the epoch's write-backs and commits in epoch order.
pub(crate) fn commit(region: &Region, slot: usize) {
    let at = epoch_ring_slot(slot);
    region.store(at, 0u64);
    region.pwb(at);
    region.psync();
}

/// Recovery's repair of a record whose drains were cut short (a no-op
/// otherwise): `rolled_lines` — everything the roll-back rewrote — written
/// back and fenced, *then* every claim zeroed, oldest epoch first, then
/// `epoch ← failed`. Zeroing a slot claims its epoch committed, which a
/// re-crash trusts by not re-rolling that epoch's cells, so their restored
/// values have to sit in NVMM before the ring mutates (a rolled cell's
/// record equals its backup, so later epochs re-using a stale tag still roll
/// back to the same committed value).
pub(crate) fn repair(region: &Region, record: &EpochRecord, rolled_lines: &[u64]) {
    if record.claimed.is_empty() {
        return;
    }
    for &line in rolled_lines {
        region.pwb_line(line);
    }
    region.psync();
    for &slot in &record.claimed {
        region.store(epoch_ring_slot(slot), 0u64);
    }
    advance(region, record.failed);
}
