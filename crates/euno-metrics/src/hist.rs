//! The single log-bucketed histogram implementation in the tree.
//!
//! Throughput curves hide tail behaviour: a fallback convoy shows up as a
//! p99.9 two orders of magnitude above the median long before it moves
//! the mean. The harness records each operation's virtual-cycle latency
//! here; experiments report quantiles alongside the figures, and the
//! metrics sampler snapshots the raw buckets so windows between snapshots
//! yield time-resolved quantiles.
//!
//! Buckets are powers of √2 (~3 dB resolution), covering 1 cycle to ~10¹²
//! with 80 buckets — constant memory, O(1) insert, quantile error < 20 %,
//! and merging two histograms is a bucket-wise add (the property the
//! sharded registry depends on).
//!
//! The terminal (highest non-empty) bucket reports the *exact* observed
//! max rather than its bucket floor.

/// A fixed-size logarithmic histogram of u64 samples.
#[derive(Clone)]
pub struct LogHistogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// Bucket array dimension — also the snapshot layout the sampler uses.
    pub const BUCKETS: usize = 80;

    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index: ~2 buckets per octave (powers of √2).
    #[inline]
    pub(crate) fn index(value: u64) -> usize {
        let v = value.max(1);
        // floor(2·log2(v)) = number of half-octaves.
        let bits = 63 - v.leading_zeros() as usize; // floor(log2 v)
        let half = if bits < 63 && v >= (3u64 << bits.saturating_sub(1)).max(1) && bits > 0 {
            // Upper half-octave: v ≥ 1.5·2^bits … approximated via the
            // second-highest bit.
            2 * bits + 1
        } else {
            2 * bits
        };
        half.min(Self::BUCKETS - 1)
    }

    /// Lower bound of a bucket (for quantile reporting).
    pub fn bucket_floor(i: usize) -> u64 {
        let bits = i / 2;
        let base = 1u64 << bits.min(62);
        if i % 2 == 1 {
            base + base / 2
        } else {
            base
        }
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile (`q` in [0,1]): the floor of the bucket where
    /// the cumulative count crosses `q·count` — except in the **terminal**
    /// (highest non-empty) bucket, where the exact observed maximum is
    /// returned. Without that, `quantile(1.0)` under-reported the max by
    /// up to √2× (the bucket's width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let last = match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return 0,
        };
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return if i == last {
                    self.max
                } else {
                    Self::bucket_floor(i)
                };
            }
        }
        self.max
    }

    /// The non-empty buckets as `(floor, count)` pairs — the raw
    /// distribution a run report serializes.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
            .collect()
    }

    /// Raw bucket counts (snapshot layout; index i covers
    /// [`bucket_floor(i)`, `bucket_floor(i+1)`)).
    pub fn bucket_counts(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }

    /// Rebuild a histogram from raw bucket counts (e.g. a snapshot delta).
    /// `sum` is approximated from bucket floors and `max` from the highest
    /// non-empty bucket, so windowed quantiles are floor-approximate —
    /// the exact-max terminal refinement only applies to live histograms.
    pub fn from_bucket_counts(buckets: &[u64; Self::BUCKETS]) -> Self {
        let mut h = LogHistogram::new();
        h.buckets = *buckets;
        for (i, &c) in buckets.iter().enumerate() {
            h.count += c;
            h.sum = h
                .sum
                .saturating_add(Self::bucket_floor(i).saturating_mul(c));
            if c > 0 {
                h.max = Self::bucket_floor(i);
            }
        }
        h
    }

    /// Overwrite the approximate sum/max `from_bucket_counts` derived with
    /// exactly-tracked values (shard histograms track these in atomics).
    pub(crate) fn set_exact(&mut self, sum: u64, max: u64) {
        if self.count > 0 {
            self.sum = sum;
            self.max = max;
        }
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// One-line summary: `mean/p50/p99/p999/max` in cycles.
    pub fn summary(&self) -> String {
        format!(
            "mean {:.0}cyc p50 {} p99 {} p99.9 {} max {}",
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max()
        )
    }
}

/// Bucket-floor quantile over a raw bucket vector (a snapshot window).
/// Returns 0 for an empty window.
pub fn approx_quantile_from_buckets(buckets: &[u64; LogHistogram::BUCKETS], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil() as u64;
    let mut acc = 0;
    for (i, &c) in buckets.iter().enumerate() {
        acc += c;
        if acc >= target {
            return LogHistogram::bucket_floor(i);
        }
    }
    LogHistogram::bucket_floor(LogHistogram::BUCKETS - 1)
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogHistogram({})", self.summary())
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn records_and_counts() {
        let mut h = LogHistogram::new();
        for v in [1u64, 10, 100, 1000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 2222.2).abs() < 1.0);
    }

    #[test]
    fn terminal_quantile_is_exact_max() {
        // Regression (PR 2): quantile(1.0) used to return the last
        // bucket's floor. 1000 is in bucket [768, 1024) → floor 768 ≠ max.
        let mut h = LogHistogram::new();
        h.record(1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.5), 1000);
        for _ in 0..99 {
            h.record(10);
        }
        assert!(h.quantile(0.5) < 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.quantile(1.0) >= h.quantile(0.999));
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_data() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // Log-bucket resolution: within a factor of √2 of the true value.
        assert!((2_900..=5_000).contains(&p50), "p50 = {p50}");
        assert!((6_000..=10_000).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn heavy_tail_visible_in_p999() {
        let mut h = LogHistogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000); // one convoy victim
        assert!(h.quantile(0.5) < 200);
        // With exactly 1000 samples the 0.999-quantile is the 999th value
        // (still in the bulk); the convoy victim appears from 0.9995 up —
        // and the terminal bucket reports the *exact* observed max, not
        // its bucket floor (which would under-report by up to √2×).
        assert_eq!(h.quantile(0.9995), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn nonzero_buckets_expose_distribution() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(1);
        h.record(1_000_000);
        let b = h.nonzero_buckets();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], (1, 2));
        assert_eq!(b.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000);
    }

    #[test]
    fn summary_formats() {
        let mut h = LogHistogram::new();
        h.record(500);
        let s = h.summary();
        assert!(s.contains("mean") && s.contains("p99"));
    }

    #[test]
    fn from_bucket_counts_round_trips_buckets() {
        let mut h = LogHistogram::new();
        for v in [3u64, 3, 700, 900_000] {
            h.record(v);
        }
        let rebuilt = LogHistogram::from_bucket_counts(h.bucket_counts());
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.bucket_counts(), h.bucket_counts());
        assert_eq!(rebuilt.nonzero_buckets(), h.nonzero_buckets());
        // Rebuilt max is the floor of the terminal bucket, ≤ exact max,
        // and within one bucket width (√2×) of it.
        assert!(rebuilt.max() <= h.max());
        assert!(h.max() as f64 / rebuilt.max() as f64 <= 1.5);
    }

    #[test]
    fn approx_quantile_matches_floor_quantile() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 7);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let a = approx_quantile_from_buckets(h.bucket_counts(), q);
            let b = h.quantile(q);
            // They agree except in the terminal bucket where quantile()
            // reports exact max.
            assert!(a <= b || b == h.max(), "q={q}: approx {a} vs {b}");
        }
        assert_eq!(
            approx_quantile_from_buckets(&[0; LogHistogram::BUCKETS], 0.5),
            0
        );
    }

    #[test]
    fn bucket_floors_monotone() {
        let mut prev = 0;
        for i in 0..LogHistogram::BUCKETS {
            let f = LogHistogram::bucket_floor(i);
            assert!(f >= prev, "bucket {i}: {f} < {prev}");
            prev = f;
        }
    }
}
