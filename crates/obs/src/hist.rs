//! Log₂-bucketed histograms: fixed 65 buckets covering the full `u64`
//! range, lock-free recording (one relaxed `fetch_add` per field), and
//! a mergeable point-in-time snapshot from which p50/p90/p99 and the
//! exact max are derivable.
//!
//! Bucket layout: value `0` lands in bucket 0; a value `v > 0` lands
//! in bucket `64 - v.leading_zeros()`, i.e. bucket `i ≥ 1` covers the
//! half-open power-of-two range `[2^(i-1), 2^i)`. Bucket 64 covers
//! `[2^63, u64::MAX]`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one for zero plus one per bit width.
pub const BUCKETS: usize = 65;

/// Bucket a value falls into (see the module docs for the layout).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket — the value a quantile query
/// reports for samples that landed there.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A lock-free log₂ histogram. Recording is a handful of relaxed
/// atomic adds — cheap enough for the modular-exponentiation hot path.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy. Concurrent recording makes the copy only
    /// approximately consistent (a sample may have bumped `count` but
    /// not yet its bucket); quiesced registries snapshot exactly.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]. Merging snapshots from
/// shard-local registries is associative and commutative, so a fleet
/// of workers can be summarized in any order.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = sum / count).
    pub sum: u64,
    /// Largest sample seen (exact, not bucket-rounded).
    pub max: u64,
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), reported as the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` sample, clamped to the
    /// exact max. Empty histograms report 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket-resolution).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (bucket-resolution) — the tail the
    /// latency-under-load curves report.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Sum of two snapshots (`max` takes the larger side). The basis
    /// of cross-shard aggregation.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i] + other.buckets[i];
        }
        HistSnapshot {
            count: self.count + other.count,
            // Recording accumulates `sum` with a (wrapping) atomic
            // add, so the merge wraps identically.
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            buckets,
        }
    }

    /// Hand-rolled JSON (the workspace's serde_json is a build stub).
    /// Buckets are emitted sparsely as `[index, count]` pairs.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| format!("[{i},{n}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.max,
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            cells.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Zero is its own bucket.
        assert_eq!(bucket_index(0), 0);
        // One starts the power-of-two ladder.
        assert_eq!(bucket_index(1), 1);
        // Every power of two opens a new bucket; its predecessor
        // closes the previous one.
        for bit in 1..64 {
            let edge = 1u64 << bit;
            assert_eq!(bucket_index(edge), bit + 1, "2^{bit} opens bucket");
            assert_eq!(bucket_index(edge - 1), bit, "2^{bit}-1 closes bucket");
        }
        // The top of the range.
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
    }

    #[test]
    fn extremes_record_and_report() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn quantiles_on_uniform_fill() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // p50 of 1..=1000 has rank 500 → bucket of 500 (bucket 9,
        // upper bound 511).
        assert_eq!(s.p50(), 511);
        // p99 rank 990 → bucket 10 (513..1000 live there), upper
        // bound 1023 clamped to the exact max 1000.
        assert_eq!(s.p99(), 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [0, 1, 5, 1 << 20, u64::MAX] {
            a.record(v);
            both.record(v);
        }
        for v in [3, 3, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), both.snapshot());
        // Commutative.
        assert_eq!(b.snapshot().merge(&a.snapshot()), both.snapshot());
    }
}
