//! Deterministic end-to-end smoke test of the native serving harness.
//!
//! Fixed seed, at least four workers, all three PHP-study allocator
//! families. Asserts the issue's acceptance properties:
//!
//! * every submitted transaction is completed or accounted for by the
//!   shed policy (`submitted == completed + shed`);
//! * `freeAll` leaves every worker heap empty between transactions
//!   (`max_live_after_tx == 0` on every worker);
//! * accounting is identical across repeated same-seed runs;
//! * a served run recycles its op buffers through the pool.

use webmm_alloc::AllocatorKind;
use webmm_server::{
    drive_closed, drive_open, AdmissionPolicy, Server, ServerConfig, ServerReport, TxFactory,
};
use webmm_workload::phpbb;

const SEED: u64 = 0xC0FFEE;
const WORKERS: usize = 4;
const TOTAL_TX: u64 = 48;

fn serve(kind: AllocatorKind) -> ServerReport {
    let server = Server::start(ServerConfig {
        kind,
        workers: WORKERS,
        queue_capacity: 16,
        policy: AdmissionPolicy::Block,
        static_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    drive_closed(&server, TxFactory::new(phpbb(), 1024, SEED), TOTAL_TX, 2);
    server.finish()
}

#[test]
fn all_three_families_serve_and_account_every_tx() {
    for kind in AllocatorKind::PHP_STUDY {
        let report = serve(kind);
        assert_eq!(report.allocator, kind.id());
        assert_eq!(report.workers, WORKERS as u64);
        assert_eq!(report.submitted, TOTAL_TX, "{kind}");
        assert_eq!(
            report.completed + report.shed,
            report.submitted,
            "{kind}: every tx completed or accounted by shed policy"
        );
        assert_eq!(report.shed, 0, "{kind}: Block policy sheds nothing");
        assert_eq!(report.latency.count, report.completed, "{kind}");
        assert!(report.latency.p50_ns <= report.latency.p99_ns, "{kind}");
        // Work actually spread over the pool: with 48 tx, 4 workers and a
        // blocking 16-deep queue, no worker can have served everything.
        let busiest = report.per_worker.iter().map(|w| w.completed).max().unwrap();
        assert!(
            busiest < TOTAL_TX,
            "{kind}: one worker served all transactions"
        );
        let by_worker: u64 = report.per_worker.iter().map(|w| w.completed).sum();
        assert_eq!(by_worker, report.completed, "{kind}");
    }
}

#[test]
fn free_all_leaves_every_worker_heap_empty_between_transactions() {
    for kind in AllocatorKind::PHP_STUDY {
        let report = serve(kind);
        for w in &report.per_worker {
            assert_eq!(
                w.max_live_after_tx, 0,
                "{kind}: worker {} finished a transaction with live objects",
                w.worker
            );
        }
        // phpBB transactions close every object lifetime within the
        // transaction, so nothing should ever be orphaned either.
        let orphans: u64 = report.per_worker.iter().map(|w| w.orphan_ops).sum();
        assert_eq!(orphans, 0, "{kind}");
    }
}

#[test]
fn same_seed_runs_account_identically() {
    for kind in AllocatorKind::PHP_STUDY {
        let a = serve(kind);
        let b = serve(kind);
        assert_eq!(a.submitted, b.submitted, "{kind}");
        assert_eq!(a.completed, b.completed, "{kind}");
        assert_eq!(a.shed, b.shed, "{kind}");
        // The total op mix is identical too: same bytes touched and the
        // same orphan count across the pool (scheduling may distribute
        // them differently between workers, so compare pool-wide sums).
        let bytes = |r: &ServerReport| r.per_worker.iter().map(|w| w.bytes_touched).sum::<u64>();
        assert_eq!(bytes(&a), bytes(&b), "{kind}");
    }
}

#[test]
fn overloaded_open_loop_still_accounts_every_tx() {
    let server = Server::start(ServerConfig {
        kind: AllocatorKind::DdMalloc,
        workers: WORKERS,
        queue_capacity: 4,
        policy: AdmissionPolicy::ShedOldest,
        static_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    drive_open(
        &server.ingress(),
        TxFactory::new(phpbb(), 256, SEED),
        64,
        1e6,
    );
    let report = server.finish();
    assert_eq!(report.submitted, 64);
    assert_eq!(report.completed + report.shed, 64);
    for w in &report.per_worker {
        assert_eq!(w.max_live_after_tx, 0);
    }
}

#[test]
fn served_run_recycles_op_buffers_at_steady_state() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 128,
        static_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    drive_closed(&server, TxFactory::new(phpbb(), 1024, 42), 1000, 4);
    let report = server.finish();
    assert_eq!(report.submitted, 1000);
    assert_eq!(
        report.submitted,
        report.completed + report.shed,
        "accounting identity"
    );
    // Every transaction took exactly one buffer from the pool.
    let pool = &report.pool;
    assert_eq!(pool.recycled + pool.fresh, report.submitted, "{pool:?}");
    // Fresh allocations are the warm-up while buffers are first in
    // flight; after that, completed transactions feed the generator.
    assert!(
        pool.recycled > pool.fresh,
        "recycling must dominate: {pool:?}"
    );
}
