//! Transaction span tracing: fixed-capacity per-worker ring buffers.
//!
//! Aggregates (histograms, counters) answer "how bad is the tail"; they
//! cannot answer "what did transaction 48123 actually experience". The
//! tracer keeps the last N completed transactions per worker as raw
//! `{tx_id, enqueue → dequeue → complete, bytes}` spans so a post-run
//! dump can reconstruct individual slow requests. Shed transactions
//! never reach a worker; the ingress counts them per shard instead.
//!
//! Cost model: each worker writes only its own ring, so the per-record
//! mutex is uncontended (a dump is the only other locker, and dumps are
//! rare). The ring is fixed capacity — old spans are overwritten, memory
//! never grows, and tracing can stay on for an arbitrarily long run.

use std::sync::Mutex;
use std::time::Instant;

/// One transaction's lifecycle, timestamps in nanoseconds since the
/// tracer's epoch (its construction instant).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TxSpan {
    /// Workload transaction id.
    pub tx_id: u64,
    /// Worker that completed it.
    pub worker: u64,
    /// When the client enqueued it.
    pub enqueue_ns: u64,
    /// When a worker dequeued it.
    pub dequeue_ns: u64,
    /// When it finished.
    pub complete_ns: u64,
    /// Payload bytes the transaction allocated while running.
    pub bytes_allocated: u64,
}

impl TxSpan {
    /// Time spent waiting in the queue.
    pub fn queue_ns(&self) -> u64 {
        self.dequeue_ns.saturating_sub(self.enqueue_ns)
    }

    /// Time spent executing on a worker.
    pub fn service_ns(&self) -> u64 {
        self.complete_ns.saturating_sub(self.dequeue_ns)
    }
}

/// Fixed-capacity overwrite-oldest ring of spans.
pub struct SpanRing {
    buf: Vec<TxSpan>,
    /// Next write position once the ring is full.
    head: usize,
    /// Spans ever pushed (≥ `buf.len()`).
    total: u64,
    capacity: usize,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            total: 0,
            capacity,
        }
    }

    /// Pushes a span, evicting the oldest when full.
    pub fn push(&mut self, span: TxSpan) {
        if self.buf.len() < self.capacity {
            self.buf.push(span);
        } else {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Spans ever pushed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Copies the ring out, oldest first.
    pub fn dump(&self) -> Vec<TxSpan> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Per-worker span rings on one shared clock.
pub struct TxTracer {
    rings: Vec<Mutex<SpanRing>>,
    epoch: Instant,
}

impl TxTracer {
    /// A tracer for `workers` workers, each ring holding `capacity`
    /// spans.
    pub fn new(workers: usize, capacity: usize) -> Self {
        TxTracer {
            rings: (0..workers)
                .map(|_| Mutex::new(SpanRing::new(capacity)))
                .collect(),
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the tracer was created — the clock all span
    /// timestamps share.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Converts an [`Instant`] the caller already holds onto the tracer's
    /// clock — lets a hot loop that took one timestamp reuse it for span
    /// recording instead of paying a second `Instant::now()`. Instants
    /// from before the tracer's construction map to 0.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Records a completed span into its worker's ring.
    pub fn record(&self, worker: usize, span: TxSpan) {
        if let Some(ring) = self.rings.get(worker) {
            ring.lock().unwrap().push(span);
        }
    }

    /// Spans ever recorded across all rings (including evicted).
    pub fn total(&self) -> u64 {
        self.rings.iter().map(|r| r.lock().unwrap().total()).sum()
    }

    /// Dumps every worker's ring, merged and sorted by completion time.
    pub fn dump(&self) -> Vec<TxSpan> {
        let mut spans: Vec<TxSpan> = self
            .rings
            .iter()
            .flat_map(|r| r.lock().unwrap().dump())
            .collect();
        spans.sort_by_key(|s| (s.complete_ns, s.tx_id));
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tx_id: u64, complete_ns: u64) -> TxSpan {
        TxSpan {
            tx_id,
            enqueue_ns: complete_ns.saturating_sub(100),
            dequeue_ns: complete_ns.saturating_sub(40),
            complete_ns,
            bytes_allocated: 64,
            ..TxSpan::default()
        }
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut r = SpanRing::new(3);
        for i in 0..5 {
            r.push(span(i, i * 10));
        }
        assert_eq!(r.total(), 5);
        let ids: Vec<u64> = r.dump().iter().map(|s| s.tx_id).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest first, capacity respected");
    }

    #[test]
    fn ring_dump_below_capacity_keeps_order() {
        let mut r = SpanRing::new(8);
        r.push(span(7, 70));
        r.push(span(8, 80));
        let ids: Vec<u64> = r.dump().iter().map(|s| s.tx_id).collect();
        assert_eq!(ids, vec![7, 8]);
    }

    #[test]
    fn span_durations_decompose() {
        let s = span(1, 1000);
        assert_eq!(s.queue_ns(), 60);
        assert_eq!(s.service_ns(), 40);
        assert_eq!(s.queue_ns() + s.service_ns(), 100);
    }

    #[test]
    fn tracer_merges_lanes_sorted_by_completion() {
        let t = TxTracer::new(3, 16);
        t.record(0, span(1, 300));
        t.record(1, span(2, 100));
        t.record(2, span(3, 200));
        let ids: Vec<u64> = t.dump().iter().map(|s| s.tx_id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn out_of_range_worker_is_ignored() {
        let t = TxTracer::new(1, 4);
        t.record(9, span(1, 10));
        assert_eq!(t.total(), 0);
    }
}
