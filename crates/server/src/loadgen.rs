//! Load generation: turning workload streams into submitted transactions.
//!
//! [`TxFactory`] slices a deterministic [`TxStream`] into whole
//! transactions (everything up to and including `EndTx`). Two driver
//! shapes then push them at a server:
//!
//! * **closed loop** ([`drive_closed`]) — a fixed population of client
//!   threads, each submitting its next transaction only after the previous
//!   submission was admitted or refused. With the `Block` policy this is
//!   the classic closed system: offered load self-limits to capacity.
//! * **open loop** ([`drive_open`]) — arrivals on a fixed schedule
//!   regardless of completions, the web-facing arrival model. Pair with
//!   `Reject`/`ShedOldest` to study overload; with `Block` the schedule
//!   degrades into a closed loop whenever the queue fills.

use crate::pool::TxBufferPool;
use crate::server::{Ingress, Server};
use crate::Transaction;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use webmm_workload::trace::TraceReplay;
use webmm_workload::{TxStream, WorkOp, WorkloadSpec};

/// Where a [`TxFactory`] draws its operations from.
enum OpSource {
    /// A live deterministic generator (boxed: a `TxStream` carries its
    /// size-class tables inline and dwarfs the trace-replay variant).
    Stream(Box<TxStream>),
    /// A recorded trace (JSONL, see `webmm_workload::trace`) replayed
    /// verbatim — how a network run's op stream is re-driven through the
    /// in-process harness for apples-to-apples comparison.
    Trace(TraceReplay),
}

impl OpSource {
    fn next_op(&mut self) -> WorkOp {
        match self {
            OpSource::Stream(s) => s.next_op(),
            OpSource::Trace(t) => t.next_op(),
        }
    }
}

/// Produces self-contained transactions from a workload stream or a
/// recorded trace.
pub struct TxFactory {
    source: OpSource,
    next_id: u64,
    /// When attached, op buffers are drawn from the server's recycling
    /// pool instead of freshly allocated — completed transactions feed
    /// the generator and the steady state stops allocating.
    pool: Option<Arc<TxBufferPool>>,
}

impl TxFactory {
    /// Wraps a deterministic stream for `spec` at `scale`, seeded by
    /// `seed` (same semantics as [`TxStream::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or leaves fewer than 16 mallocs per
    /// transaction.
    pub fn new(spec: WorkloadSpec, scale: u32, seed: u64) -> Self {
        TxFactory {
            source: OpSource::Stream(Box::new(TxStream::new(spec, scale, seed))),
            next_id: 0,
            pool: None,
        }
    }

    /// Replays a recorded op sequence (e.g. one read back with
    /// `webmm_workload::trace::read_trace`) instead of generating ops.
    /// Once the recorded ops are exhausted, every further transaction is
    /// a bare `EndTx` — drive exactly as many transactions as the trace
    /// holds ([`webmm_workload::trace::count_transactions`]).
    pub fn from_trace(ops: Vec<WorkOp>) -> Self {
        TxFactory {
            source: OpSource::Trace(TraceReplay::new(ops)),
            next_id: 0,
            pool: None,
        }
    }

    /// Draws future op buffers from `pool`. The drivers ([`drive_closed`],
    /// [`drive_open`]) attach the server's pool automatically; call this
    /// directly only when submitting by hand.
    pub fn attach_pool(&mut self, pool: Arc<TxBufferPool>) {
        self.pool = Some(pool);
    }

    /// The next whole transaction: ops up to and including `EndTx`, in a
    /// recycled buffer when a pool is attached and has one.
    pub fn next_tx(&mut self) -> Transaction {
        let mut ops = match &self.pool {
            Some(pool) => pool.get(),
            None => Vec::new(),
        };
        loop {
            let op = self.source.next_op();
            ops.push(op);
            if op == WorkOp::EndTx {
                break;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        Transaction { id, ops }
    }
}

/// Drives `total_tx` transactions at `server` from a closed population of
/// `clients` submitter threads sharing `factory`. Returns when every
/// submission has been admitted or refused (completions are the server's
/// business; call [`Server::finish`] for the report).
///
/// # Panics
///
/// Panics if `clients` is zero.
pub fn drive_closed(server: &Server, mut factory: TxFactory, total_tx: u64, clients: usize) {
    assert!(clients > 0, "closed loop needs at least one client");
    factory.attach_pool(server.buffer_pool());
    let factory = Mutex::new(factory);
    let remaining = AtomicU64::new(total_tx);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let ingress = server.ingress();
            let factory = &factory;
            let remaining = &remaining;
            scope.spawn(move || loop {
                // Claim a slot first so exactly total_tx are generated.
                if claim(remaining).is_none() {
                    return;
                }
                let tx = factory.lock().expect("factory lock").next_tx();
                ingress.submit(tx);
            });
        }
    });
}

/// Drives `total_tx` transactions at `ingress` on a fixed arrival
/// schedule of `rate_tx_per_sec`, independent of completions. Falls
/// behind only if transaction *generation* outpaces the schedule.
///
/// # Panics
///
/// Panics if `rate_tx_per_sec` is not positive.
pub fn drive_open(ingress: &Ingress, mut factory: TxFactory, total_tx: u64, rate_tx_per_sec: f64) {
    assert!(rate_tx_per_sec > 0.0, "open loop needs a positive rate");
    factory.attach_pool(ingress.pool());
    let interval = Duration::from_secs_f64(1.0 / rate_tx_per_sec);
    let start = Instant::now();
    for i in 0..total_tx {
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        ingress.submit(factory.next_tx());
    }
}

/// Atomically claims one unit from `remaining`; `None` when exhausted.
fn claim(remaining: &AtomicU64) -> Option<u64> {
    let mut cur = remaining.load(Ordering::Relaxed);
    loop {
        if cur == 0 {
            return None;
        }
        match remaining.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(cur - 1),
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::AdmissionPolicy;
    use crate::server::ServerConfig;
    use webmm_alloc::AllocatorKind;
    use webmm_workload::phpbb;

    #[test]
    fn factory_produces_whole_transactions() {
        let mut f = TxFactory::new(phpbb(), 1024, 11);
        for expect_id in 0..3 {
            let tx = f.next_tx();
            assert_eq!(tx.id, expect_id);
            assert_eq!(*tx.ops.last().unwrap(), WorkOp::EndTx);
            let inner_ends = tx.ops.iter().filter(|o| **o == WorkOp::EndTx).count();
            assert_eq!(inner_ends, 1, "exactly one EndTx per transaction");
            assert!(tx.ops.iter().any(|o| matches!(o, WorkOp::Malloc { .. })));
        }
    }

    #[test]
    fn factory_is_deterministic() {
        let mut a = TxFactory::new(phpbb(), 1024, 42);
        let mut b = TxFactory::new(phpbb(), 1024, 42);
        for _ in 0..3 {
            assert_eq!(a.next_tx().ops, b.next_tx().ops);
        }
    }

    #[test]
    fn closed_loop_submits_exactly_total() {
        let server = Server::start(ServerConfig {
            kind: AllocatorKind::Region,
            workers: 2,
            queue_capacity: 8,
            policy: AdmissionPolicy::Block,
            static_bytes: 1 << 16,
            ..ServerConfig::default()
        });
        drive_closed(&server, TxFactory::new(phpbb(), 1024, 3), 20, 3);
        let report = server.finish();
        assert_eq!(report.submitted, 20);
        assert_eq!(report.completed, 20);
    }

    #[test]
    fn open_loop_sheds_under_overload() {
        // One worker, tiny queue, arrivals far faster than service. The
        // transactions are generated up front: generating one inline takes
        // longer than serving it, which would keep the queue from filling.
        let server = Server::start(ServerConfig {
            kind: AllocatorKind::PhpDefault,
            workers: 1,
            queue_capacity: 2,
            policy: AdmissionPolicy::ShedOldest,
            static_bytes: 1 << 16,
            ..ServerConfig::default()
        });
        let mut factory = TxFactory::new(phpbb(), 64, 5);
        let txs: Vec<Transaction> = (0..40).map(|_| factory.next_tx()).collect();
        let ingress = server.ingress();
        for tx in txs {
            ingress.submit(tx);
        }
        let report = server.finish();
        assert_eq!(report.submitted, 40);
        assert_eq!(report.completed + report.shed, 40);
        assert!(report.shed > 0, "overload must shed with a 2-deep queue");
    }
}
