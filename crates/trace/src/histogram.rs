//! Log2-bucketed histograms: the classic power-of-two latency sketch.
//!
//! Bucket 0 holds the value 0; bucket `i` (1 ..= 64) holds values `v`
//! with `2^(i-1) <= v < 2^i`, i.e. `floor(log2 v) == i - 1`. Sixty-five
//! buckets therefore cover the whole `u64` range with one `fetch_add`
//! per sample and ~half-order-of-magnitude resolution — the same
//! trade-off hardware latency counters make, and plenty to separate
//! "queue wait dominated" from "kernel dominated".

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per possible `floor(log2)`.
pub const BUCKET_COUNT: usize = 65;

/// Index of the bucket holding `value`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        // 1 ..= 64: floor(log2(value)) + 1.
        64 - value.leading_zeros() as usize
    }
}

/// A lock-free log2 histogram: relaxed atomics only, so concurrent
/// recorders never contend on a lock and a snapshot never stalls anyone.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Records one sample — unless tracing is globally disabled (see
    /// [`crate::set_enabled`]), in which case this is a no-op branch.
    pub fn record(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A plain copy of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        for (i, b) in self.buckets.iter().enumerate() {
            s.buckets[i] = b.load(Ordering::Relaxed);
        }
        s.count = self.count.load(Ordering::Relaxed);
        s.sum = self.sum.load(Ordering::Relaxed);
        s
    }
}

/// A plain-value copy of a [`Log2Histogram`] — comparable, mergeable,
/// subtractable (the snapshot/delta idiom used throughout the
/// workspace's stats types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see the module header for bounds).
    pub buckets: [u64; BUCKET_COUNT],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (wraps only after ~2^64, irrelevant
    /// at observed magnitudes).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i` (`0`, then `2^i − 1`,
    /// saturating at `u64::MAX`).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample into the plain struct (single-owner recording;
    /// the atomic [`Log2Histogram`] is the shared-path variant). Gated on
    /// [`crate::enabled`] exactly like the atomic recorder.
    pub fn record(&mut self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper-bound estimate of the `q`-quantile (0 ≤ q ≤ 1): the
    /// inclusive upper edge of the first bucket whose cumulative count
    /// reaches `q · count`. Returns 0 when empty. `quantile(0.5)` is the
    /// p50, `quantile(0.99)` the p99, both conservative (never below the
    /// true order statistic).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return HistogramSnapshot::bucket_upper_bound(i);
            }
        }
        HistogramSnapshot::bucket_upper_bound(BUCKET_COUNT - 1)
    }

    /// Adds another snapshot's samples into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for i in 0..BUCKET_COUNT {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Per-bucket saturating difference `self − baseline` (the delta half
    /// of the snapshot/delta idiom: counters are monotone, so on a
    /// single-owner recorder the difference is the interval's samples).
    pub fn delta_since(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let mut d = HistogramSnapshot::default();
        for i in 0..BUCKET_COUNT {
            d.buckets[i] = self.buckets[i].saturating_sub(baseline.buckets[i]);
        }
        d.count = self.count.saturating_sub(baseline.count);
        d.sum = self.sum.saturating_sub(baseline.sum);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(0), 0);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(1), 1);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(3), 7);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(64), u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 5, 100, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= HistogramSnapshot::bucket_upper_bound(i));
            if i > 0 {
                assert!(v > HistogramSnapshot::bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn record_snapshot_and_quantiles() {
        let _guard = crate::testutil::flag_guard();
        let h = Log2Histogram::new();
        for v in [1u64, 1, 2, 1000, 1000, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1 + 1 + 2 + 3000 + 1_000_000);
        assert!(!s.is_empty());
        // p50 falls in the 512..=1023 bucket.
        assert_eq!(s.quantile(0.5), 1023);
        // p99 is the largest sample's bucket.
        assert_eq!(s.quantile(0.99), (1 << 20) - 1);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn merge_and_delta_are_inverses() {
        let _guard = crate::testutil::flag_guard();
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        for v in [3u64, 9, 81] {
            a.record(v);
        }
        for v in [7u64, 49] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 5);
        assert_eq!(merged.delta_since(&a), b);
        assert_eq!(merged.delta_since(&b), a);
        assert_eq!(a.delta_since(&a), HistogramSnapshot::default());
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = crate::testutil::flag_guard();
        let h = Log2Histogram::new();
        crate::set_enabled(false);
        h.record(42);
        let mut p = HistogramSnapshot::default();
        p.record(42);
        crate::set_enabled(true);
        assert!(h.snapshot().is_empty());
        assert!(p.is_empty());
        h.record(42);
        assert_eq!(h.snapshot().count, 1);
    }
}
