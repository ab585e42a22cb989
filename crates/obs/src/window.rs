//! Sliding-window latency view over atomic histogram slots.
//!
//! The per-run [`LatencyHistogram`](crate::LatencyHistogram) answers
//! "what were the quantiles of the whole run" — after the run. Mid-run we
//! want "what is p99 *right now*", which needs (a) concurrent recording
//! from many workers and (b) forgetting: a latency spike five minutes ago
//! must not pollute the current reading forever.
//!
//! [`SlidingWindow`] solves both with a ring of [`AtomicHistogram`]
//! slots. Workers record into the current slot with relaxed atomics (same
//! bucket math as the scalar histogram, so window quantiles and end-of-run
//! quantiles are directly comparable). The sampler thread calls
//! [`SlidingWindow::advance`] once per sampling tick: the cursor moves to
//! the oldest slot, which is wiped and becomes current. A read merges all
//! slots, so the view always covers the last `slots × interval` of
//! traffic, aging out one slot at a time.

use crate::histogram::{LatencyHistogram, LatencySummary};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A [`LatencyHistogram`] with atomic cells, recordable from any thread.
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// `u64::MAX` sentinel while empty, like the scalar histogram.
    min_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; 64],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one observation; same bucketing as
    /// [`LatencyHistogram::record`], all relaxed atomics.
    #[inline]
    pub fn record(&self, ns: u64) {
        let idx = 63u32.saturating_sub(ns.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
    }

    /// Wipes back to empty (sampler-side, between window rotations).
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
    }

    /// Copies the atomic cells into a scalar [`LatencyHistogram`].
    /// Concurrent writers keep writing; the copy is per-cell atomic, not
    /// globally consistent — fine for observability, wrong for invariants.
    pub fn to_histogram(&self) -> LatencyHistogram {
        let mut buckets = [0u64; 64];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        LatencyHistogram::from_parts(
            buckets,
            self.count.load(Ordering::Relaxed),
            self.sum_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
            self.min_ns.load(Ordering::Relaxed),
        )
    }
}

/// Ring of atomic histogram slots covering the last
/// `slots × advance-interval` of observations.
pub struct SlidingWindow {
    slots: Vec<AtomicHistogram>,
    cursor: AtomicUsize,
}

impl SlidingWindow {
    /// A window of `slots` slots (at least 2: one being written, one or
    /// more aging out).
    pub fn new(slots: usize) -> Self {
        SlidingWindow {
            slots: (0..slots.max(2)).map(|_| AtomicHistogram::new()).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Records into the current slot. Racing with [`advance`](Self::advance)
    /// at worst lands the observation in the slot just rotated out — off
    /// by one tick, never lost.
    #[inline]
    pub fn record(&self, ns: u64) {
        let cur = self.cursor.load(Ordering::Relaxed) % self.slots.len();
        self.slots[cur].record(ns);
    }

    /// Rotates the window one tick: the oldest slot is wiped and becomes
    /// the new current slot. Called by the sampler, once per interval.
    pub fn advance(&self) {
        let next = (self.cursor.load(Ordering::Relaxed) + 1) % self.slots.len();
        self.slots[next].reset();
        self.cursor.store(next, Ordering::Relaxed);
    }

    /// Merged view of every slot — the whole window.
    pub fn histogram(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for slot in &self.slots {
            let h = slot.to_histogram();
            if h.count() > 0 {
                merged.merge(&h);
            }
        }
        merged
    }

    /// Quantile summary of the whole window.
    pub fn summary(&self) -> LatencySummary {
        self.histogram().summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn atomic_histogram_matches_scalar() {
        let a = AtomicHistogram::new();
        let mut s = LatencyHistogram::new();
        for v in [0u64, 1, 7, 100, 4096, 1_000_000] {
            a.record(v);
            s.record(v);
        }
        let copied = a.to_histogram();
        assert_eq!(copied.summary(), s.summary());
        assert_eq!(copied.min_ns(), 0);
        assert_eq!(copied.max_ns(), 1_000_000);
    }

    #[test]
    fn empty_atomic_histogram_converts_to_empty() {
        let a = AtomicHistogram::new();
        let h = a.to_histogram();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn window_ages_out_old_observations() {
        let w = SlidingWindow::new(3);
        w.record(1_000_000); // spike in slot 0
        assert_eq!(w.histogram().max_ns(), 1_000_000);
        w.advance(); // slot 1 current; spike still in window
        w.record(100);
        assert_eq!(w.histogram().max_ns(), 1_000_000);
        w.advance(); // slot 2 current; spike still in window (3 slots)
        assert_eq!(w.histogram().max_ns(), 1_000_000);
        w.advance(); // wraps: slot 0 wiped — spike aged out
        assert_eq!(w.histogram().max_ns(), 100);
        assert_eq!(w.histogram().count(), 1);
    }

    #[test]
    fn window_summary_covers_all_live_slots() {
        let w = SlidingWindow::new(4);
        for i in 0..3 {
            for v in 0..100u64 {
                w.record(v + i * 1000);
            }
            w.advance();
        }
        let s = w.summary();
        assert_eq!(s.count, 300);
        assert_eq!(s.min_ns, 0);
        assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
    }

    #[test]
    fn concurrent_recording_loses_nothing_without_rotation() {
        let w = Arc::new(SlidingWindow::new(4));
        thread::scope(|sc| {
            for t in 0..4 {
                let w = Arc::clone(&w);
                sc.spawn(move || {
                    for i in 0..10_000u64 {
                        w.record(t * 13 + i % 97);
                    }
                });
            }
        });
        assert_eq!(w.histogram().count(), 40_000);
    }
}
