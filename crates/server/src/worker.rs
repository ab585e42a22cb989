//! Worker threads: one OS thread, one heap, one address space.
//!
//! Each worker mirrors a PHP worker process from the paper's serving model
//! (§2.1): it owns a private [`PlainPort`] address space and a private
//! [`Heap`] built in-place from the `Copy + Send` [`AllocatorKind`] tag,
//! and replays whole transactions against them through the simulator's
//! [`OpInterpreter`]. Every heap call is statically dispatched: one
//! `match` on the allocator kind, then the allocator's code monomorphized
//! for `PlainPort`, with the port's loads, stores and instruction charges
//! inlined into it. Natively, an allocator's fast path thus costs roughly
//! what its simulated metadata work costs, not that work plus a virtual
//! call per access. Each transaction's end empties the heap
//! ([`EndTx::EmptyHeap`]), so transactions never leak state into each
//! other and a worker can serve forever. Unlike the simulator, the worker
//! writes every fresh allocation once more (`initializing_write`).
//!
//! The steady-state serving loop is **allocation-free and hash-free**
//! (proven by `tests/alloc_audit.rs`): the interpreter's object table is
//! dense (no hashing, a generation bump at `freeAll`), finished op
//! buffers return to the [`TxBufferPool`] instead of being dropped, and
//! timing/telemetry is amortized — one timestamp per drained batch on the
//! dequeue side, one per transaction at completion, and publication
//! throttled to a few times per sampling interval. Each completion's
//! latency is recorded once, in the worker's own histogram; the sampler
//! derives its sliding window from the copies the workers publish.

use crate::pool::TxBufferPool;
use crate::shard::{Fill, ShardedTxQueue};
use crate::telemetry::ServerTelemetry;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use webmm_alloc::{Allocator, AllocatorKind, Heap, HeapTelemetry};
use webmm_obs::{LatencyHistogram, TxSpan};
use webmm_profiler::{EndTx, OpInterpreter};
use webmm_sim::{Addr, MemoryPort, PageSize, PlainPort};
use webmm_workload::WorkOp;

/// Per-worker outcome counters, serialized into the server report.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub worker: u64,
    /// Transactions this worker completed.
    pub completed: u64,
    /// Payload bytes touched: malloc'd, realloc'd, re-read and static.
    pub bytes_touched: u64,
    /// Ops referencing objects this worker never allocated (cross-worker
    /// lifetimes in open-lifetime workloads); skipped, not served.
    pub orphan_ops: u64,
    /// Largest number of objects still live *after* end-of-transaction
    /// cleanup — 0 proves `freeAll` (or survivor sweep) emptied the heap
    /// between every pair of transactions.
    pub max_live_after_tx: u64,
    /// Simulated instructions retired by this worker's port (allocator
    /// metadata work plus application compute).
    pub sim_instructions: u64,
    /// Transactions this worker obtained by stealing from other workers'
    /// shards (counted on the thief).
    pub steals: u64,
    /// Times this worker found no work anywhere and waited on its shard's
    /// condition variable (after spinning, where the host allows it).
    pub parks: u64,
}

/// The transaction execution engine a worker thread owns: one private
/// address space, and an interpreter holding one private heap and the
/// table mapping workload ids to heap addresses.
///
/// Public so benches (perfbench) and audits (`alloc_audit`) can
/// drive the exact hot loop a worker runs, without threads or queues
/// around it. Constructing it *inside* the spawned worker thread is
/// deliberate: only the `Copy + Send` kind tag crosses the spawn
/// boundary, the heap itself is born on the thread that will use it.
pub struct TxExecutor {
    interp: OpInterpreter,
    port: PlainPort,
    report: WorkerReport,
}

impl TxExecutor {
    /// Builds the executor for worker `worker`: a private heap of kind
    /// `kind` and a `static_bytes` static data area.
    pub fn new(worker: u64, kind: AllocatorKind, static_bytes: u64) -> Self {
        let mut port = PlainPort::new();
        let static_base = port.os_alloc(static_bytes.max(4096), 4096, PageSize::Base);
        let heap = kind.build(worker as u32);
        TxExecutor {
            interp: OpInterpreter::new(heap, static_base, (), EndTx::EmptyHeap),
            port,
            report: WorkerReport {
                worker,
                ..WorkerReport::default()
            },
        }
    }

    /// The counters accumulated so far (completion counts are maintained
    /// by the serving loop, not here).
    pub fn report(&self) -> &WorkerReport {
        &self.report
    }

    /// Total simulated instructions retired by this executor's port.
    pub fn sim_instructions(&self) -> u64 {
        self.port.instructions()
    }

    /// This executor's heap (for its stats, footprint and snapshot).
    pub fn heap(&self) -> &Heap {
        self.interp.heap()
    }

    /// Replays one transaction's operations against this worker's heap.
    ///
    /// # Panics
    ///
    /// Panics on allocator out-of-memory (see [`OpInterpreter::step`]).
    pub fn execute(&mut self, ops: &[WorkOp]) {
        for &op in ops {
            if let Some((addr, size)) = self.interp.step(&mut self.port, op) {
                self.initializing_write(addr, size);
            }
        }
        // Transactions produced by the load generator end with EndTx; be
        // robust to hand-built ones that do not.
        if !ops.ends_with(&[WorkOp::EndTx]) {
            self.interp.end_tx(&mut self.port);
        }
        let (live, report) = (self.interp.live_objects() as u64, &mut self.report);
        report.max_live_after_tx = report.max_live_after_tx.max(live);
        report.bytes_touched = self.interp.bytes_touched;
        report.orphan_ops = self.interp.orphan_ops;
    }

    /// The native extra write of each fresh allocation, on top of the write
    /// `Touch` the stream emits after it; removing it changes pinned counts.
    fn initializing_write(&mut self, addr: Addr, size: u64) {
        self.port.touch(addr, size, true);
        self.interp.bytes_touched += size;
    }
}

/// The worker thread body: pull transaction batches until the queue
/// closes and drains, then hand back the report and the local latency
/// histogram.
///
/// Intake is batched: the worker refills a private `pending` buffer from
/// its ingress (its own shard in one lock acquisition, or a steal from a
/// victim shard when dry) and then serves the whole batch without
/// touching any shared lock. Steals are counted on the thief's report.
///
/// Timing is amortized over the batch: queue-wait is measured against a
/// single per-batch timestamp taken right after the refill, and each
/// completion takes exactly one further timestamp (instead of the two
/// per transaction the unbatched loop paid). Finished op buffers return
/// to the buffer pool for the load generators to reuse.
///
/// Each completion is recorded once, in the worker's own latency
/// histogram. With telemetry attached it also lands in the worker's span
/// ring (reusing the completion timestamp). The worker's slot (heap
/// snapshot, [`WorkerReport`] and a copy of the latency histogram, from
/// which the sampler derives its sliding window) is refreshed at batch
/// boundaries, throttled to [`ServerTelemetry::publish_every`] so
/// observation cost stays off the per-transaction path, and once more
/// after the drain with the report and histogram this function returns.
pub(crate) fn run(
    worker: u64,
    kind: AllocatorKind,
    static_bytes: u64,
    queue: Arc<ShardedTxQueue>,
    pool: Arc<TxBufferPool>,
    telemetry: Option<Arc<ServerTelemetry>>,
) -> (WorkerReport, LatencyHistogram) {
    let mut state = TxExecutor::new(worker, kind, static_bytes);
    let mut latencies = LatencyHistogram::new();
    let mut last_publish: Option<Instant> = None;
    let mut pending: VecDeque<crate::queue::QueuedTx> = VecDeque::new();
    'serve: loop {
        while pending.is_empty() {
            match queue.pop_batch(worker as usize, &mut pending) {
                Fill::Closed => break 'serve,
                Fill::Own(_) => {}
                Fill::Stolen(n) => state.report.steals += n as u64,
            }
        }
        // One timestamp for the whole drained batch: every transaction in
        // it was enqueued before this instant, so per-tx queue wait is
        // derived by subtraction instead of a second clock read each.
        let batch_start = Instant::now();
        while let Some(queued) = pending.pop_front() {
            let queue_wait = batch_start
                .saturating_duration_since(queued.enqueued)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            let bytes_before = state.heap().stats().bytes_requested;
            state.execute(&queued.tx.ops);
            state.report.completed += 1;
            // The only per-transaction clock read: completion time, from
            // which total latency and the span timestamps all derive.
            let done = Instant::now();
            let ns = done
                .saturating_duration_since(queued.enqueued)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            latencies.record(ns);
            if let Some(t) = telemetry.as_deref() {
                let tx_bytes = state
                    .heap()
                    .stats()
                    .bytes_requested
                    .saturating_sub(bytes_before);
                let complete_ns = t.tracer.ns_of(done);
                let dequeue_ns = complete_ns.saturating_sub(ns.saturating_sub(queue_wait));
                t.tracer.record(
                    worker as usize,
                    TxSpan {
                        tx_id: queued.tx.id,
                        worker,
                        enqueue_ns: complete_ns.saturating_sub(ns),
                        dequeue_ns,
                        complete_ns,
                        bytes_allocated: tx_bytes,
                    },
                );
            }
            // Hand the finished op buffer back for the generators to
            // refill — the transaction's only heap allocation, recycled.
            pool.put(queued.tx.ops);
        }
        // Publication amortizes over the batch and the throttle.
        if let Some(t) = telemetry.as_deref() {
            if last_publish.is_none_or(|at| batch_start.duration_since(at) >= t.publish_every()) {
                state.publish(Some(t), &queue, &latencies);
                last_publish = Some(batch_start);
            }
        }
    }
    // Final publication: the closing sample reads the returned report
    // and histogram.
    state.publish(telemetry.as_deref(), &queue, &latencies);
    (state.report, latencies)
}

impl TxExecutor {
    /// Brings the counters the serving loop keeps outside the report up
    /// to date and, with telemetry, publishes the report with a heap
    /// snapshot and the worker's `latencies` into this worker's slot.
    fn publish(
        &mut self,
        telemetry: Option<&ServerTelemetry>,
        queue: &ShardedTxQueue,
        latencies: &LatencyHistogram,
    ) {
        let worker = self.report.worker as usize;
        self.report.sim_instructions = self.port.instructions();
        self.report.parks = queue.parks(worker);
        if let Some(t) = telemetry {
            t.publish(worker, self.heap().heap_snapshot(), &self.report, latencies);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(kind: AllocatorKind) -> TxExecutor {
        TxExecutor::new(0, kind, 1 << 20)
    }

    #[test]
    fn malloc_free_endtx_leaves_heap_empty() {
        for kind in AllocatorKind::PHP_STUDY {
            let mut s = state(kind);
            s.execute(&[
                WorkOp::Malloc { id: 1, size: 64 },
                WorkOp::Malloc { id: 2, size: 200 },
                WorkOp::Touch {
                    id: 1,
                    write: false,
                },
                WorkOp::Free { id: 1 },
                WorkOp::EndTx,
            ]);
            assert_eq!(s.report.max_live_after_tx, 0, "{kind}");
        }
    }

    #[test]
    fn survivor_sweep_covers_non_bulk_allocators() {
        // glibc-style: no freeAll — survivors must still be returned.
        let mut s = state(AllocatorKind::Dl);
        s.execute(&[WorkOp::Malloc { id: 1, size: 128 }, WorkOp::EndTx]);
        assert_eq!(s.report.max_live_after_tx, 0);
        assert_eq!(s.heap().stats().frees, 1);
    }

    #[test]
    fn orphan_ops_are_counted_not_served() {
        let mut s = state(AllocatorKind::DdMalloc);
        s.execute(&[
            WorkOp::Free { id: 99 },
            WorkOp::Touch {
                id: 98,
                write: true,
            },
            WorkOp::Realloc {
                id: 97,
                new_size: 32,
            },
            WorkOp::EndTx,
        ]);
        assert_eq!(s.report.orphan_ops, 3);
        assert_eq!(s.heap().stats().frees, 0);
    }

    #[test]
    fn ids_from_previous_transactions_are_orphans() {
        // The generation bump at EndTx must expire every id exactly as
        // the map clear did: a later free of the same id is an orphan,
        // not a stale hit.
        let mut s = state(AllocatorKind::DdMalloc);
        s.execute(&[WorkOp::Malloc { id: 7, size: 64 }, WorkOp::EndTx]);
        s.execute(&[
            WorkOp::Free { id: 7 },
            WorkOp::Touch {
                id: 7,
                write: false,
            },
            WorkOp::EndTx,
        ]);
        assert_eq!(s.report.orphan_ops, 2);
    }

    #[test]
    fn missing_trailing_endtx_still_cleans_up() {
        let mut s = state(AllocatorKind::Region);
        s.execute(&[WorkOp::Malloc { id: 5, size: 400 }]);
        assert_eq!(s.report.max_live_after_tx, 0);
        assert_eq!(s.heap().stats().free_alls, 1);
    }

    #[test]
    fn bytes_touched_accumulates_all_payload_traffic() {
        let mut s = state(AllocatorKind::PhpDefault);
        s.execute(&[
            WorkOp::Malloc { id: 1, size: 100 },
            WorkOp::Touch {
                id: 1,
                write: false,
            },
            WorkOp::StaticTouch { offset: 0, len: 50 },
            WorkOp::EndTx,
        ]);
        assert_eq!(s.report.bytes_touched, 250);
    }
}
