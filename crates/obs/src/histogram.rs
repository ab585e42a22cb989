//! Log2-bucketed latency histogram.
//!
//! Service latencies span five-plus decades (a shed transaction completes
//! in microseconds; a queue-delayed one can take milliseconds), so fixed
//! buckets either blur the head or truncate the tail. Power-of-two buckets
//! give constant *relative* resolution (every estimate is within 2× of
//! truth, tightened below by linear interpolation inside the bucket) with
//! 64 counters and branch-free recording — cheap enough to live on the
//! worker's completion path.

/// Histogram of nanosecond latencies in 64 power-of-two buckets.
///
/// Bucket `i` holds values whose highest set bit is `i`, i.e. the range
/// `[2^i, 2^(i+1))`; bucket 0 holds 0 and 1 ns — a zero-nanosecond
/// observation is a real observation and is counted, not dropped.
/// Quantiles interpolate linearly within the selected bucket.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    /// Smallest observation; `u64::MAX` while empty (accessor returns 0).
    min_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    /// Records one latency observation. `record(0)` lands in the first
    /// bucket like any other value — zeros are counted, never dropped.
    pub fn record(&mut self, ns: u64) {
        let idx = 63u32.saturating_sub(ns.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Folds another histogram into this one (used to combine per-worker
    /// histograms into the server-wide view).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// The observations recorded after `earlier`, an earlier copy of this
    /// same cumulative histogram (used to derive a sliding window from
    /// running totals).
    ///
    /// Buckets, count and sum subtract exactly. The difference keeps no
    /// record of its own extremes, so `max_ns` is exact only when the
    /// maximum grew since `earlier` (the new maximum is then a later
    /// observation); otherwise it is the upper bound of the highest
    /// non-empty difference bucket, capped at `self.max_ns`. `min_ns`
    /// works the same way downwards. An empty difference is an empty
    /// histogram.
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return LatencyHistogram::new();
        }
        let mut buckets = [0u64; 64];
        for (d, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *d = now.saturating_sub(*then);
        }
        let max_ns = if self.max_ns > earlier.max_ns {
            self.max_ns
        } else {
            let top = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
            (u64::MAX >> (63 - top)).min(self.max_ns)
        };
        let min_ns = if self.min_ns < earlier.min_ns {
            self.min_ns
        } else {
            let bottom = buckets.iter().position(|&n| n > 0).unwrap_or(0);
            let lower = if bottom == 0 { 0 } else { 1u64 << bottom };
            lower.max(self.min_ns)
        };
        LatencyHistogram {
            buckets,
            count,
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            max_ns,
            min_ns,
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation (0 for an empty histogram): exact, except in
    /// a [`since`](Self::since) difference, where it may be a bucket bound.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Smallest observation (0 for an empty histogram): exact, except in
    /// a [`since`](Self::since) difference, where it may be a bucket bound.
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Mean latency (exact: the running sum is kept outside the buckets).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile, interpolated within its bucket.
    ///
    /// Edge behavior, by contract:
    ///
    /// * an **empty** histogram returns 0 for every `q`;
    /// * `q <= 0.0` returns the exact observed **minimum**;
    /// * `q >= 1.0` returns the exact observed **maximum**;
    /// * everything in between is a within-bucket linear interpolation,
    ///   clamped into `[min_ns, max_ns]` so no estimate ever leaves the
    ///   observed range.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min_ns;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let width = if i == 0 { 2u64 } else { 1u64 << i };
                let into = (rank - seen) as f64 / n as f64;
                let est = lo + (width as f64 * into) as u64;
                return est.clamp(self.min_ns, self.max_ns);
            }
            seen += n;
        }
        self.max_ns
    }

    /// Fixed-quantile summary for reports.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ns: self.mean_ns(),
            min_ns: self.min_ns(),
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max_ns,
        }
    }
}

/// Serializable quantile summary of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Observations behind the quantiles.
    pub count: u64,
    /// Mean latency in nanoseconds (exact).
    pub mean_ns: u64,
    /// Smallest observation, exact (within its bucket for a window whose
    /// minimum is older than the window).
    pub min_ns: u64,
    /// Median, within 2× (log2 buckets, interpolated).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Largest observation, exact (within its bucket for a window whose
    /// maximum is older than the window).
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 100); // 100 ns .. 1 ms
        }
        let s = h.summary();
        assert!(s.min_ns <= s.p50_ns);
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 1_000_000);
        // Log2 buckets: estimates are within a factor of two of truth.
        assert!(
            (250_000..=1_000_000).contains(&s.p50_ns),
            "p50 = {}",
            s.p50_ns
        );
    }

    #[test]
    fn quantile_edges_return_exact_min_and_max() {
        let mut h = LatencyHistogram::new();
        for v in [777u64, 3000, 42_000, 5] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 5);
        assert_eq!(h.quantile(-1.0), 5);
        assert_eq!(h.quantile(1.0), 42_000);
        assert_eq!(h.quantile(2.0), 42_000);
        for q in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let v = h.quantile(q);
            assert!((5..=42_000).contains(&v), "q={q} → {v}");
        }
    }

    #[test]
    fn single_value_quantiles_hit_it_exactly() {
        let mut h = LatencyHistogram::new();
        h.record(4096);
        assert_eq!(h.quantile(0.0), 4096);
        assert_eq!(h.quantile(0.5), 4096);
        assert_eq!(h.quantile(0.999), 4096);
        assert_eq!(h.quantile(1.0), 4096);
        assert_eq!(h.mean_ns(), 4096);
        assert_eq!(h.min_ns(), 4096);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * 37 + 5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean_ns(), whole.mean_ns());
        assert_eq!(a.summary(), whole.summary());
    }

    #[test]
    fn since_an_earlier_copy_is_the_later_observations() {
        let mut total = LatencyHistogram::new();
        for i in 0..500u64 {
            total.record(1000 + i * 13);
        }
        let earlier = total.clone();
        let mut later = LatencyHistogram::new();
        // The later observations reach past both earlier extremes, so
        // min and max are exact and the summaries must match field by
        // field.
        for i in 0..700u64 {
            let v = 50 + i * i * 7;
            total.record(v);
            later.record(v);
        }
        let diff = total.since(&earlier);
        assert_eq!(diff.buckets, later.buckets);
        assert_eq!(diff.count(), later.count());
        assert_eq!(diff.mean_ns(), later.mean_ns());
        assert_eq!(diff.summary(), later.summary());
    }

    #[test]
    fn since_keeps_extremes_exact_when_new_and_bucket_bounded_when_old() {
        let mut total = LatencyHistogram::new();
        total.record(300);
        let earlier = total.clone();
        total.record(5);
        total.record(1_000_000);
        let diff = total.since(&earlier);
        assert_eq!(
            (diff.min_ns(), diff.max_ns()),
            (5, 1_000_000),
            "new extremes"
        );

        let mut total = LatencyHistogram::new();
        total.record(5);
        total.record(1_000_000);
        let earlier = total.clone();
        total.record(300);
        total.record(3000);
        let diff = total.since(&earlier);
        assert_eq!(diff.count(), 2);
        // 300 lies in [256, 512) and 3000 in [2048, 4096): the old
        // extremes are gone, and the bounds of those buckets stand in.
        assert!(
            (256..=300).contains(&diff.min_ns()),
            "min {}",
            diff.min_ns()
        );
        assert!(
            (3000..4096).contains(&diff.max_ns()),
            "max {}",
            diff.max_ns()
        );
    }

    #[test]
    fn since_itself_is_empty() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 9, 4096, 77_000] {
            h.record(v);
        }
        let diff = h.since(&h);
        assert_eq!(diff.count(), 0);
        assert_eq!(diff.summary(), LatencySummary::default());
        assert_eq!(
            LatencyHistogram::new()
                .since(&LatencyHistogram::new())
                .summary(),
            LatencySummary::default()
        );
    }

    #[test]
    fn zero_is_recorded_in_bucket_zero_not_dropped() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2, "record(0) must count");
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 1);
        assert!(h.quantile(1.0) <= 1);
        let mut only_zero = LatencyHistogram::new();
        only_zero.record(0);
        assert_eq!(only_zero.count(), 1);
        assert_eq!(only_zero.quantile(0.5), 0);
    }
}
