//! The three metric primitives. All operations are relaxed atomics: the
//! registry is a statistical observer, never a synchronization point, so
//! the hot path is one `fetch_add` (two plus a shift for histograms).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed level: things currently open, queued or in flight.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn dec(&self) {
        self.v.fetch_sub(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Raises the level to `n` if it is lower: a high-water mark.
    #[inline]
    pub fn raise(&self, n: i64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i < HIST_BUCKETS - 1` counts
/// observations `v <= 4^i`; the last bucket is the overflow (+Inf).
/// 4^16 ≈ 4.3 s in nanoseconds, which covers every latency this
/// workspace measures; the same shape works for small magnitudes such as
/// queue depths (they simply land in the first few buckets).
pub const HIST_BUCKETS: usize = 18;

/// Upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        1u64 << (2 * i)
    }
}

/// A fixed-bucket histogram with power-of-four bounds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Branch-light bucket index: `ceil(log4(v))`, clamped to the overflow
/// bucket. `v = 0` and `v = 1` both land in bucket 0.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let floor_l2 = 63 - v.leading_zeros() as usize;
    let ceil_l2 = floor_l2 + usize::from(!v.is_power_of_two());
    (ceil_l2.div_ceil(2)).min(HIST_BUCKETS - 1)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Observation sum.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative).
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_is_ceil_log4() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(4), 1);
        assert_eq!(bucket_index(5), 2);
        assert_eq!(bucket_index(16), 2);
        assert_eq!(bucket_index(17), 3);
        assert_eq!(bucket_index(64), 3);
        // Exhaustive invariant: v fits its bucket bound, and not the one
        // below it.
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "{v} > bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "{v} fits bucket {}", i - 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_sum_and_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 3, 100, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(1 + 3 + 100 + 1_000_000)
                .wrapping_add(u64::MAX)
        );
        let b = h.buckets();
        assert_eq!(b.iter().sum::<u64>(), 6);
        assert_eq!(b[0], 2); // 0 and 1
        assert_eq!(b[HIST_BUCKETS - 1], 1); // u64::MAX overflows
    }
}
