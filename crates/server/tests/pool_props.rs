//! Property tests for transaction-buffer recycling.
//!
//! The buffer pool closes an ownership loop — generator → queue → worker
//! → pool → generator — and admission control adds side exits (rejected
//! and shed transactions return their buffers from the queue, not a
//! worker). These properties pin down the two things that loop must
//! never get wrong, across admission policies, worker counts, and load
//! levels:
//!
//! * **accounting stays exact**: `submitted == completed + shed` holds,
//!   every generated buffer comes back (`returned == submitted` once the
//!   run drains, since every transaction either completes or is shed),
//!   and every buffer the generators took is counted
//!   (`recycled + fresh == submitted`);
//! * **recycled buffers never alias live transactions and arrive
//!   cleared**: a buffer handed out by `get` is empty, and two
//!   simultaneously-outstanding buffers are always distinct allocations.

use proptest::prelude::*;
use webmm_server::{drive_closed, AdmissionPolicy, Server, ServerConfig, TxBufferPool, TxFactory};
use webmm_workload::{phpbb, WorkOp};

fn policy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Block),
        Just(AdmissionPolicy::Reject),
        Just(AdmissionPolicy::ShedOldest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// End-to-end: whatever the interleaving of completions, rejections,
    /// and shed-oldest victims, the pool's books and the server's books
    /// agree with each other and with the number of transactions
    /// generated.
    #[test]
    fn recycling_accounting_is_exact_under_any_admission_outcome(
        policy in policy(),
        workers in 1usize..4,
        txs in 1u64..150,
        capacity in 2usize..24,
    ) {
        let server = Server::start(ServerConfig {
            workers,
            queue_capacity: capacity,
            policy,
            batch: 8,
            static_bytes: 1 << 16,
            ..ServerConfig::default()
        });
        let pool = server.buffer_pool();
        drive_closed(&server, TxFactory::new(phpbb(), 1024, 5), txs, 2);
        let report = server.finish();

        prop_assert_eq!(report.submitted, txs);
        prop_assert_eq!(report.completed + report.shed, report.submitted,
            "identity must hold under {:?}", policy);

        let stats = pool.stats();
        // Every transaction's buffer is taken from the pool exactly once…
        prop_assert_eq!(stats.recycled + stats.fresh, txs,
            "gets must equal generated transactions");
        // …and comes back exactly once: from a worker if it completed,
        // from the queue's admission path if it was rejected or shed.
        prop_assert_eq!(stats.returned, txs,
            "returns must equal generated transactions \
             ({} completed + {} shed)", report.completed, report.shed);
        prop_assert!(stats.dropped <= stats.returned);
        // Conservation: every buffer successfully stacked was either
        // recycled back out by a later get or is still available.
        prop_assert_eq!(
            pool.available() as u64,
            stats.returned - stats.dropped - stats.recycled
        );
    }

    /// Buffers handed out by `get` are empty regardless of what was in
    /// them when they were returned, and simultaneously-outstanding
    /// buffers are distinct allocations (no aliasing).
    #[test]
    fn recycled_buffers_arrive_cleared_and_never_alias(
        shards in 1usize..5,
        fills in collection::vec(1usize..64, 1..16),
    ) {
        let pool = TxBufferPool::new(shards, 64);
        for &n in &fills {
            let mut buf = Vec::with_capacity(n);
            for _ in 0..n {
                buf.push(WorkOp::EndTx);
            }
            pool.put(buf);
        }
        prop_assert_eq!(pool.available(), fills.len());

        // Draw every buffer back out while they are all live at once.
        let outstanding: Vec<Vec<WorkOp>> = (0..fills.len()).map(|_| pool.get()).collect();
        prop_assert_eq!(pool.stats().recycled, fills.len() as u64);
        let mut ptrs = Vec::new();
        for buf in &outstanding {
            prop_assert!(buf.is_empty(), "recycled buffer must arrive cleared");
            prop_assert!(buf.capacity() > 0, "recycling keeps the allocation");
            ptrs.push(buf.as_ptr());
        }
        ptrs.sort_unstable();
        ptrs.dedup();
        prop_assert_eq!(ptrs.len(), outstanding.len(),
            "live buffers must be distinct allocations");
    }
}
