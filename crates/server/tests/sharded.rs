//! End-to-end tests for the sharded work-stealing ingress.
//!
//! Two properties the unit tests cannot establish at full scale:
//!
//! * **Loss-free accounting under churn** — with many submitter threads
//!   spraying affinity keys across shards at random (so every shard is
//!   hot and every worker both drains and steals), a shed-oldest queue
//!   at punishingly small capacity still satisfies
//!   `submitted == completed + shed` exactly;
//! * **No starvation** — a worker whose own shard never receives a
//!   transaction still makes progress by stealing.

use rand::{Rng, SeedableRng};
use webmm_alloc::AllocatorKind;
use webmm_server::{AdmissionPolicy, Server, ServerConfig, Transaction};
use webmm_workload::WorkOp;

fn tiny_tx(id: u64) -> Transaction {
    Transaction {
        id,
        ops: vec![
            WorkOp::Malloc { id: 1, size: 64 },
            WorkOp::Touch { id: 1, write: true },
            WorkOp::Compute { instr: 200 },
            WorkOp::EndTx,
        ],
    }
}

fn sharded_config(workers: usize, capacity: usize, policy: AdmissionPolicy) -> ServerConfig {
    ServerConfig {
        kind: AllocatorKind::DdMalloc,
        workers,
        queue_capacity: capacity,
        policy,
        batch: 4,
        static_bytes: 1 << 16,
        obs: None,
    }
}

/// Randomized submit / steal / shed churn: 4 submitter threads, random
/// affinity keys (random shard targeting → random steal victims), a
/// 8-slot shed-oldest queue under 4 workers. Every transaction must be
/// accounted as completed or shed, with nothing lost or double-counted
/// across steals.
#[test]
fn accounting_is_exact_under_concurrent_submit_steal_shed() {
    const SUBMITTERS: u64 = 4;
    const PER_SUBMITTER: u64 = 500;
    let server = Server::start(sharded_config(4, 8, AdmissionPolicy::ShedOldest));
    let done: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let ingress = server.ingress();
            std::thread::spawn(move || {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC0FFEE + s);
                for i in 0..PER_SUBMITTER {
                    let key: u64 = rng.gen_range(0..64);
                    ingress.submit_affinity(key, tiny_tx(s * PER_SUBMITTER + i));
                }
            })
        })
        .collect();
    for h in done {
        h.join().expect("submitter panicked");
    }
    let report = server.finish();
    assert_eq!(report.submitted, SUBMITTERS * PER_SUBMITTER);
    assert_eq!(
        report.completed + report.shed,
        report.submitted,
        "lost or double-counted transactions across steals/sheds"
    );
    let per_worker: u64 = report.per_worker.iter().map(|w| w.completed).sum();
    assert_eq!(per_worker, report.completed, "per-worker counts disagree");
}

/// Same churn under the blocking policy: nothing may shed, so every
/// single submission must complete.
#[test]
fn blocking_policy_completes_everything_under_random_affinity() {
    const TOTAL: u64 = 600;
    let server = Server::start(sharded_config(3, 6, AdmissionPolicy::Block));
    let ingress = server.ingress();
    let submitter = std::thread::spawn(move || {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for i in 0..TOTAL {
            let key: u64 = rng.gen_range(0..32);
            ingress.submit_affinity(key, tiny_tx(i));
        }
    });
    submitter.join().expect("submitter panicked");
    let report = server.finish();
    assert_eq!(report.submitted, TOTAL);
    assert_eq!(report.completed, TOTAL, "Block policy never sheds");
    assert_eq!(report.shed, 0);
}

/// All traffic pinned to shard 0 of a two-worker server: worker 1's own
/// shard stays empty for the whole run, so any progress it makes comes
/// through stealing — and it must make some, or half the pool is idle
/// while work queues.
#[test]
fn idle_worker_steals_instead_of_starving() {
    const TOTAL: u64 = 512;
    let server = Server::start(sharded_config(2, 8, AdmissionPolicy::Block));
    for i in 0..TOTAL {
        // Affinity key 0 always lands in shard 0.
        server.submit_affinity(0, tiny_tx(i));
    }
    let report = server.finish();
    assert_eq!(report.completed, TOTAL);
    assert!(
        report.steals > 0,
        "worker 1 never stole despite an empty shard and a loaded neighbour"
    );
    let starved = &report.per_worker[1];
    assert!(
        starved.completed > 0,
        "worker 1 completed nothing: starvation"
    );
    assert_eq!(
        starved.completed, starved.steals,
        "everything worker 1 served must have been stolen"
    );
}
