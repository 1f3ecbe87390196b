//! Typed construction/recovery errors.
//!
//! [`Pool::create`](crate::Pool::create) and
//! [`Pool::recover`](crate::Pool::recover) return `Result<_, PoolError>`
//! instead of panicking: a region that is too small, a config that makes
//! no sense, and media that is not (or no longer) a sound pool —
//! [`NotAPool`](PoolError::NotAPool), [`SizeMismatch`](PoolError::SizeMismatch),
//! [`CorruptRing`](PoolError::CorruptRing),
//! [`CorruptRegistry`](PoolError::CorruptRegistry) — are all conditions an
//! embedding application can hit with user-supplied inputs and must be able
//! to handle.

use respct_pmem::RegionError;

/// Why a pool could not be created, recovered, or configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The region cannot hold the pool header plus a minimal heap.
    RegionTooSmall {
        /// Minimum region size in bytes.
        need: u64,
        /// Actual region size in bytes.
        got: u64,
    },
    /// The region does not start with the ResPCT magic number — it was
    /// never formatted by [`Pool::create`](crate::Pool::create), or the
    /// image is corrupt.
    NotAPool,
    /// The size recorded in the pool header disagrees with the region
    /// (a crash image restored into a differently-sized region).
    SizeMismatch {
        /// Size recorded in the persistent header.
        header: u64,
        /// Size of the region being recovered.
        region: u64,
    },
    /// The header's epoch-record ring is not a state any crash of a correct
    /// run can leave behind: the uncommitted epochs must form a contiguous
    /// ascending run ending at the recorded epoch or the one before it
    /// (drains commit strictly in ring order). A hole or a stray claim
    /// means corrupt media or a broken commit order; recovery refuses
    /// rather than guess which epochs are durable.
    CorruptRing {
        /// The raw ring words (0 = committed, `e` = epoch `e` uncommitted).
        slots: [u64; crate::layout::MAX_EPOCH_PIPELINE],
        /// The epoch counter recorded next to the ring.
        recorded_epoch: u64,
    },
    /// A slot's cell registry — the chain recovery walks to find every InCLL
    /// cell — holds a word no run of this program writes: a chunk pointer
    /// that is null, misaligned or out of bounds, a length the region could
    /// not hold, or a cell address out of bounds, misaligned or straddling
    /// a cache line. Recovery refuses rather than roll back through it.
    CorruptRegistry {
        /// The thread slot whose chain is damaged.
        slot: usize,
        /// Index of the registry entry at (or before) which the walk stopped.
        entry: u64,
        /// The offending word as read from the region.
        word: u64,
        /// Which check it failed.
        why: &'static str,
    },
    /// A [`PoolConfig`](crate::PoolConfig) validation failure (a count out
    /// of range, a contradictory mode combination). Produced by
    /// [`PoolConfig::builder`](crate::PoolConfig::builder).
    InvalidConfig(&'static str),
    /// The persistence backend failed: region construction, pool-file I/O,
    /// or a bad image. Carries the path and operation that failed.
    Backend(RegionError),
}

impl From<RegionError> for PoolError {
    fn from(e: RegionError) -> PoolError {
        PoolError::Backend(e)
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::RegionTooSmall { need, got } => {
                write!(
                    f,
                    "region too small: need more than {need} bytes, got {got}"
                )
            }
            PoolError::NotAPool => write!(f, "not a ResPCT pool (magic mismatch)"),
            PoolError::SizeMismatch { header, region } => write!(
                f,
                "size mismatch: header says {header} bytes, region is {region}"
            ),
            PoolError::CorruptRing {
                slots,
                recorded_epoch,
            } => write!(
                f,
                "corrupt epoch ring {slots:?} for epoch {recorded_epoch}: \
                 a hole or a stray claim means drains did not commit in ring order"
            ),
            PoolError::CorruptRegistry {
                slot,
                entry,
                word,
                why,
            } => write!(
                f,
                "corrupt cell registry: slot {slot} entry {entry}: {why} ({word:#x})"
            ),
            PoolError::InvalidConfig(why) => write!(f, "invalid pool config: {why}"),
            PoolError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PoolError::RegionTooSmall { need: 100, got: 10 };
        assert!(e.to_string().contains("region too small"));
        assert!(PoolError::NotAPool.to_string().contains("magic"));
        assert!(PoolError::SizeMismatch {
            header: 1,
            region: 2
        }
        .to_string()
        .contains("size mismatch"));
        assert!(PoolError::CorruptRing {
            slots: [3, 0, 0, 0],
            recorded_epoch: 9
        }
        .to_string()
        .contains("corrupt epoch ring"));
        let e = PoolError::CorruptRegistry {
            slot: 5,
            entry: 300,
            word: 0xbad,
            why: "length beyond the region's capacity",
        };
        assert!(e.to_string().contains("slot 5 entry 300"), "{e}");
        assert!(PoolError::InvalidConfig("shards")
            .to_string()
            .contains("shards"));
    }

    #[test]
    fn backend_errors_wrap_with_context() {
        let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied");
        let e: PoolError = RegionError::io("/pools/a.pool", "mmap", &io).into();
        let s = e.to_string();
        assert!(s.contains("mmap"), "{s}");
        assert!(s.contains("/pools/a.pool"), "{s}");
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(e.clone(), e);
    }
}
