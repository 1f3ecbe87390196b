//! Log-bucketed (HDR-style) histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile error at
/// `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Buckets: `SUB` exact buckets for values `< SUB`, then `SUB` per octave
/// for octaves `SUB_BITS..=63`.
pub(crate) const NBUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Bucket index of `v`. Exact below `SUB`; logarithmic with `SUB` linear
/// sub-buckets per octave above.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - u64::leading_zeros(v) as u64; // >= SUB_BITS
    let offset = (v >> (msb - SUB_BITS as u64)) - SUB; // 0..SUB
    (SUB + (msb - SUB_BITS as u64) * SUB + offset) as usize
}

/// Inclusive upper bound of bucket `idx` (the value reported for quantiles
/// that land in the bucket — conservative, never under-reports).
fn bucket_max(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let msb = SUB_BITS as u64 + (idx - SUB) / SUB;
    let offset = (idx - SUB) % SUB;
    // The top octave's last bucket tops out above u64::MAX; widen and clamp.
    let shift = msb - SUB_BITS as u64;
    let bound = ((u128::from(SUB + offset) << shift) + (1u128 << shift)) - 1;
    u64::try_from(bound).unwrap_or(u64::MAX)
}

/// A fixed-memory, lock-free histogram of `u64` values (typically
/// nanoseconds or line counts).
///
/// `record` is two relaxed `fetch_add`s plus two saturating min/max updates;
/// snapshots taken while writers run are *bucket-wise* consistent (each
/// bucket count is a value it held at some instant), which is the right
/// contract for monitoring.
pub struct Histogram {
    buckets: Box<[AtomicU64; NBUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        // `AtomicU64` is not Copy; build the array through a zeroed Vec.
        let v: Vec<AtomicU64> = (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NBUCKETS]> =
            v.into_boxed_slice().try_into().expect("NBUCKETS length");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_max(i), c));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// A point-in-time copy of a [`Histogram`]: sparse `(bucket_upper_bound,
/// count)` pairs in increasing bound order, plus the scalar aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// The value at quantile `q` in `[0, 1]` (upper bound of the bucket the
    /// quantile lands in, clamped to the observed max). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bound, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// What one histogram recorded between `earlier` and this snapshot of
    /// it: bucket counts, count and sum subtract. `min` and `max` stay the
    /// whole history's, so they bound the interval's from outside.
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut old = earlier.buckets.iter().peekable();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(bound, c)| {
                let before = old.next_if(|b| b.0 == bound).map_or(0, |b| b.1);
                (c > before).then_some((bound, c - before))
            })
            .collect();
        HistSnapshot {
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
            buckets,
            ..*self
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_max(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = None;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1000,
            65_535,
            65_536,
            1 << 30,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b < NBUCKETS, "bucket {b} out of range for {v}");
            assert!(bucket_max(b) >= v, "upper bound below value for {v}");
            if let Some((pv, pb)) = prev {
                let _: u64 = pv;
                assert!(b >= pb, "bucket order violated at {v}");
            }
            prev = Some((v, b));
        }
    }

    #[test]
    fn bucket_bound_relative_error() {
        // The reported bound overshoots by at most 1/SUB of the value.
        for shift in SUB_BITS..60 {
            let v = (1u64 << shift) + (1 << shift.saturating_sub(2));
            let bound = bucket_max(bucket_of(v));
            assert!(bound >= v);
            assert!(
                (bound - v) as f64 <= v as f64 / SUB as f64,
                "error too large at {v}: bound {bound}"
            );
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        let p50 = s.p50();
        assert!((470..=540).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((980..=1000).contains(&p99), "p99 = {p99}");
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn since_keeps_only_the_later_observations() {
        let h = Histogram::new();
        for v in [5u64, 1_000, 1_000_000] {
            h.record(v);
        }
        let before = h.snapshot();
        for _ in 0..3 {
            h.record(7);
        }
        let d = h.snapshot().since(&before);
        assert_eq!((d.count, d.sum), (3, 21));
        assert_eq!(d.buckets, vec![(7, 3)]);
        assert_eq!((d.p50(), d.p99()), (7, 7));
        assert_eq!(h.snapshot().since(&h.snapshot()).p99(), 0);
    }

    #[test]
    fn concurrent_records_count_exactly() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                });
            }
        });
        assert_eq!(h.count(), 100_000);
        let s = h.snapshot();
        assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 100_000);
    }
}
