//! Log-bucketed latency histograms and the span-tree profiler.
//!
//! * **Histograms** ([`HistSnapshot`]): exact per-bucket counts over
//!   base-2 buckets plus the running sum and max. Each `obs::region` span
//!   path carries one in the span registry ([`crate::obs::SpanStat`]), so
//!   a region close is counted, timed and bucketed in one place. Bucket
//!   counts are exact and deterministic (bucketing is a pure function of
//!   the value, never sampled), so identity gates can compare them
//!   bit-for-bit across executors. Snapshots merge associatively and
//!   commutatively; quantiles are bucket-upper-edge estimates clamped to
//!   the recorded maximum. Pure data: works with or without the `obs`
//!   feature (the proptests exercise it feature-free).
//! * **Span tree** ([`spantree`]): folds the timeline's span events into
//!   an inclusive/self-time call tree with collapsed-stack (flamegraph)
//!   export.

pub mod spantree;

/// Bucket count: bucket 0 holds the value 0, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i - 1]`, up to bucket 64 for values with the top bit set.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)` (the
/// position of the highest set bit, one-based). Pure and branch-light, so
/// counts are exactly reproducible across executors.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value landing in bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value landing in bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A mergeable point-in-time histogram: exact per-bucket counts plus the
/// running sum and max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: [u64; HIST_BUCKETS],
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::new()
    }
}

impl HistSnapshot {
    pub fn new() -> HistSnapshot {
        HistSnapshot {
            counts: [0; HIST_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Count one value.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merge `other` into `self`. Associative and commutative (saturating
    /// adds, max of maxes), proptest-pinned in `telemetry_props.rs`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Quantile estimate: the upper edge of the bucket containing the
    /// `ceil(q·count)`-th observation, clamped to the recorded max (which
    /// only tightens the top non-empty bucket, so the estimate always
    /// stays within its bucket's `[lower, upper]` edges).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower edge of {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper edge of {i}");
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = HistSnapshot::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        // rank(0.5) = 3 → bucket of 3 ([2,3]) → upper edge 3.
        assert_eq!(h.quantile(0.5), 3);
        // rank(0.99) = 5 → bucket of 1000 ([512,1023]) → clamped to max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        let empty = HistSnapshot::new();
        assert_eq!(empty.quantile(0.5), 0);
    }
}
