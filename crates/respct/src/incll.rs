//! In-Cache-Line-Logged variables (paper Fig. 2 / Table 1).
//!
//! An [`ICell<T>`] is the Rust counterpart of the paper's
//! `InCLL_data<T>` template: the current value (`record`), its undo log
//! (`backup`), and the epoch in which it was last modified (`epoch_id`),
//! all within one cache line. Every cell has the same shape: three 8-byte
//! words at +0, +8 and +16 ([`crate::layout::CELL_BACKUP`],
//! [`crate::layout::CELL_EPOCH`]), so a cell holds an 8-byte value and its
//! registry entry needs nothing but its address. This module and
//! `layout.rs` are the only ones that name the offsets; everything else
//! goes through [`ICell::backup_addr`] / [`ICell::epoch_addr`]. Cells live
//! in emulated NVMM and are addressed by [`PAddr`]; the handle methods in
//! [`crate::thread`] implement `init_InCLL` / `update_InCLL`.
//!
//! # The single backup slot and draining epochs
//!
//! A cell has exactly one `backup`: the first touch in an epoch copies
//! `record` into it and re-tags the cell, so `backup` holds the
//! *start-of-epoch* value for the epoch named by the tag. The synchronous
//! checkpoint makes this trivially safe — by the time any thread runs in
//! epoch `N + 1`, epoch `N` is fully durable and its backups are dead.
//! At [`PoolConfig::depth`](crate::PoolConfig::depth) `d ≥ 1` the drain of
//! epoch `N` runs on the drain executor and overlaps execution of `N + 1`
//! (and of up to `d − 1` further epochs), which adds one rule: a first-touch on a cell whose tag names an epoch still
//! draining must *push the line out* (write back + fence) and then wait
//! for that epoch's ring commit before overwriting `backup`. Until the
//! commit, a crash rolls the draining epoch and everything after it back
//! to its start, and the start-of-epoch value lives only in that backup
//! slot.
//!
//! The rule is *generation-aware* at every ring depth: the tag is compared
//! against `drain_oldest`, the oldest epoch whose ring commit has not yet
//! landed. A first-touch waits only when
//! `drain_oldest ≤ tag < current epoch` — its backup is still a
//! rollback target of some in-flight drain — and the wait ends when
//! `drain_oldest` passes the tag, i.e. when the *tag's own epoch*
//! commits (commits land in ring order, so every older epoch is durable
//! too). Tags below `drain_oldest` are fully durable history and log a
//! plain backup with no wait. At depth ≥ 1 the check is two relaxed loads
//! on the fast path (depth 0 skips it on an immutable field) and the
//! push-out itself is `#[cold]` — see `Slot::cell_update` and DESIGN.md
//! §3.7.

use std::marker::PhantomData;

use respct_pmem::{PAddr, Pod, Region};

use crate::layout::{cell_fits, CELL_BACKUP, CELL_EPOCH};

#[inline]
fn addr_mix(addr: PAddr) -> u64 {
    // splitmix64 finalizer over the cell address.
    let mut x = addr.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Encodes `epoch` into the on-media epoch tag of the cell at `addr`.
///
/// The epoch field stores `epoch ^ mix(addr)` rather than the bare epoch.
/// This makes the recovery scan robust against *stale registry entries*: a
/// block that once held a cell and was later recycled for unrelated data
/// can never accidentally present a tag that decodes to the failed epoch
/// (probability ≈ 2⁻⁶⁴), so rolling back a stale entry is provably inert.
/// It also lets `init` detect that an address already carries a valid cell
/// and skip re-registration when the allocator recycles it.
#[inline]
pub fn epoch_tag(addr: PAddr, epoch: u64) -> u64 {
    epoch ^ addr_mix(addr)
}

/// Decodes the on-media tag back into an epoch number (garbage decodes to a
/// huge, never-matching value).
#[inline]
pub fn tag_epoch(addr: PAddr, stored: u64) -> u64 {
    stored ^ addr_mix(addr)
}

/// Whether `cell`'s address already carries a live cell as of
/// `epoch`: its tag decodes to an epoch this pool has run. Such a cell is
/// registered and its record is what the last checkpoint saw; fresh (zeroed
/// or foreign) memory decodes to an implausible epoch with probability
/// 1 − ~2⁻⁶⁴.
pub(crate) fn is_live<T: Pod>(region: &Region, cell: ICell<T>, epoch: u64) -> bool {
    let stored: u64 = region.load(cell.epoch_addr());
    (1..=epoch).contains(&tag_epoch(cell.addr(), stored))
}

/// A typed handle to an InCLL cell in persistent memory.
///
/// Every cell has one shape — record at +0, backup at +8, epoch tag at +16,
/// 24 bytes within one cache line ([`crate::layout::CELL_SIZE`]) — so `T`
/// is an 8-byte, 8-aligned [`Pod`]: `u64`, `i64`, `f64` or `usize`. Any
/// other `T` fails to compile where the first handle is made.
///
/// `ICell` is a plain offset: copying it is free, and it remains valid
/// across a crash + recovery of the same pool (which is how data structures
/// re-link to their state during recovery). The cell's fields are only
/// touched through [`ThreadHandle`](crate::thread::ThreadHandle) /
/// [`Pool`](crate::pool::Pool) methods, which enforce the InCLL protocol.
pub struct ICell<T: Pod> {
    addr: PAddr,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Pod> Clone for ICell<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for ICell<T> {}

impl<T: Pod> std::fmt::Debug for ICell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ICell<{}>({:#x})",
            std::any::type_name::<T>(),
            self.addr.0
        )
    }
}

impl<T: Pod> ICell<T> {
    /// The compile-time check that `T` fills the 8-byte record exactly.
    const EIGHT_BYTES: () = assert!(
        std::mem::size_of::<T>() == 8 && std::mem::align_of::<T>() == 8,
        "an ICell value is an 8-byte, 8-aligned Pod"
    );

    /// Reconstructs a cell handle from its address.
    ///
    /// This is how data structures re-materialize their cells after
    /// recovery: the address is read back from persistent memory. The
    /// address must point at a cell previously initialized with the same
    /// `T` (checked structurally: placement is validated on first use).
    pub fn from_addr(addr: PAddr) -> ICell<T> {
        let () = Self::EIGHT_BYTES;
        debug_assert!(cell_fits(addr), "ICell at {addr:?} straddles a line");
        ICell {
            addr,
            _marker: PhantomData,
        }
    }

    /// The cell's base address (also the address of `record`).
    #[inline]
    pub fn addr(&self) -> PAddr {
        self.addr
    }

    /// Address of the backup field.
    #[inline]
    pub fn backup_addr(&self) -> PAddr {
        self.addr.offset(CELL_BACKUP)
    }

    /// Address of the epoch-id field.
    #[inline]
    pub fn epoch_addr(&self) -> PAddr {
        self.addr.offset(CELL_EPOCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_addresses() {
        let c = ICell::<u64>::from_addr(PAddr(128));
        assert_eq!(c.addr(), PAddr(128));
        assert_eq!(c.backup_addr(), PAddr(136));
        assert_eq!(c.epoch_addr(), PAddr(144));
        let f = ICell::<f64>::from_addr(PAddr(168));
        assert_eq!((f.backup_addr(), f.epoch_addr()), (PAddr(176), PAddr(184)));
    }

    #[test]
    fn cell_is_copy_and_debug() {
        let c = ICell::<i64>::from_addr(PAddr(64));
        let d = c;
        assert_eq!(format!("{d:?}"), "ICell<i64>(0x40)");
        assert_eq!(c.addr(), d.addr());
    }
}
