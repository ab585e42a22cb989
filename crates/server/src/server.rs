//! Server lifecycle: spawn, serve, drain, report.
//!
//! [`Server::start`] brings up the worker pool against a bounded ingress
//! queue; transactions go in through [`Server::submit`] (or a cloneable
//! [`Ingress`] handle for multi-threaded load generators);
//! [`Server::finish`] closes the front door, lets every queued transaction
//! drain, joins the workers, and folds their counters and histograms into
//! a [`ServerReport`] whose accounting identity
//! `submitted == completed + shed` is checked before it is returned.

use crate::pool::{PoolStats, TxBufferPool};
use crate::queue::{Admission, AdmissionPolicy};
use crate::shard::ShardedTxQueue;
use crate::telemetry::{ObsConfig, ObsSample, Sampler, ServerTelemetry};
use crate::worker::{self, WorkerReport};
use crate::Transaction;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use webmm_alloc::AllocatorKind;
use webmm_obs::{LatencyHistogram, LatencySummary};

/// Configuration of a native serving run.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Allocator family every worker builds a private heap from.
    pub kind: AllocatorKind,
    /// Worker threads (one heap each).
    pub workers: usize,
    /// Ingress queue capacity, total across the per-worker shards.
    pub queue_capacity: usize,
    /// What happens to arrivals when a shard is full.
    pub policy: AdmissionPolicy,
    /// Maximum transactions a worker takes from its shard per lock
    /// acquisition.
    pub batch: usize,
    /// Per-worker static data area (interpreter tables etc.), bytes.
    pub static_bytes: u64,
    /// Live telemetry (`None`: zero observation machinery is built).
    pub obs: Option<ObsConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            kind: AllocatorKind::DdMalloc,
            workers: 4,
            queue_capacity: 128,
            policy: AdmissionPolicy::Block,
            batch: 32,
            static_bytes: 2 << 20,
            obs: None,
        }
    }
}

/// A running pool of allocator workers behind a bounded queue.
pub struct Server {
    queue: Arc<ShardedTxQueue>,
    pool: Arc<TxBufferPool>,
    handles: Vec<JoinHandle<(WorkerReport, LatencyHistogram)>>,
    kind: AllocatorKind,
    started: Instant,
    telemetry: Option<Arc<ServerTelemetry>>,
    sampler: Option<Sampler>,
}

impl Server {
    /// Spawns the worker pool and opens the ingress queue.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `queue_capacity`, or `batch` is zero.
    pub fn start(config: ServerConfig) -> Self {
        assert!(config.workers > 0, "server needs at least one worker");
        let telemetry = config
            .obs
            .as_ref()
            .map(|obs| Arc::new(ServerTelemetry::new(obs, config.workers)));
        let mut queue = ShardedTxQueue::new(
            config.workers,
            config.queue_capacity,
            config.policy,
            config.batch,
        );
        if let Some(t) = &telemetry {
            queue.install_telemetry(Arc::clone(t));
        }
        // One pool shard per worker; retention sized so that every buffer
        // that can be in flight at once (the queue's backlog plus one
        // drained batch per worker, plus slack for buffers in generator
        // hands) fits without drops in steady state.
        let pool = Arc::new(TxBufferPool::new(
            config.workers,
            config.queue_capacity.div_ceil(config.workers) + config.batch + 8,
        ));
        queue.install_pool(Arc::clone(&pool));
        let queue = Arc::new(queue);
        let handles = (0..config.workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let pool = Arc::clone(&pool);
                let kind = config.kind;
                let static_bytes = config.static_bytes;
                let telemetry = telemetry.clone();
                std::thread::Builder::new()
                    .name(format!("webmm-worker-{w}"))
                    .spawn(move || {
                        worker::run(w as u64, kind, static_bytes, queue, pool, telemetry)
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        let sampler = match (&telemetry, &config.obs) {
            (Some(t), Some(obs)) => Some(Sampler::spawn(Arc::clone(t), Arc::clone(&queue), obs)),
            _ => None,
        };
        Server {
            queue,
            pool,
            handles,
            kind: config.kind,
            started: Instant::now(),
            telemetry,
            sampler,
        }
    }

    /// The transaction-buffer pool completed workers recycle into. Load
    /// generators draw from it so steady-state transactions reuse op
    /// buffers instead of allocating; [`TxFactory`](crate::TxFactory)
    /// attaches to it automatically via [`drive_closed`](crate::drive_closed)
    /// / [`drive_open`](crate::drive_open).
    pub fn buffer_pool(&self) -> Arc<TxBufferPool> {
        Arc::clone(&self.pool)
    }

    /// Offers one transaction to the ingress queue.
    pub fn submit(&self, tx: Transaction) -> Admission {
        self.queue.submit(tx)
    }

    /// Offers one transaction pinned to the shard `key` hashes to —
    /// affinity-keyed submission (same session, same tenant → same
    /// worker heap, unless another worker steals it to balance load).
    pub fn submit_affinity(&self, key: u64, tx: Transaction) -> Admission {
        self.queue.submit_affinity(key, tx)
    }

    /// A cloneable submission handle for client threads.
    pub fn ingress(&self) -> Ingress {
        Ingress {
            queue: Arc::clone(&self.queue),
            pool: Arc::clone(&self.pool),
        }
    }

    /// The live telemetry plane, when the config asked for one.
    pub fn telemetry(&self) -> Option<&Arc<ServerTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Closes the ingress queue, drains it, joins every worker, and
    /// returns the merged report.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked, or if the admission accounting
    /// identity `submitted == completed + shed` does not hold.
    pub fn finish(self) -> ServerReport {
        self.finish_with_obs().0
    }

    /// Like [`Server::finish`], but also returns the telemetry time
    /// series the sampler collected (empty without telemetry). The
    /// sampler takes one final sample after the workers drain, so the
    /// series always ends with the settled state.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Server::finish`].
    pub fn finish_with_obs(self) -> (ServerReport, Vec<ObsSample>) {
        self.queue.close();
        let mut latencies = LatencyHistogram::new();
        let mut per_worker = Vec::with_capacity(self.handles.len());
        for h in self.handles {
            let (report, hist) = h.join().expect("worker thread panicked");
            latencies.merge(&hist);
            per_worker.push(report);
        }
        let samples = self.sampler.map(Sampler::stop).unwrap_or_default();
        let wall_ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let counters = self.queue.counters();
        let completed: u64 = per_worker.iter().map(|w| w.completed).sum();
        let steals: u64 = per_worker.iter().map(|w| w.steals).sum();
        assert_eq!(
            counters.submitted,
            completed + counters.shed,
            "admission accounting broken: {} submitted != {} completed + {} shed",
            counters.submitted,
            completed,
            counters.shed,
        );
        let secs = wall_ns as f64 / 1e9;
        let pool = self.pool.stats();
        let report = ServerReport {
            allocator: self.kind.id().to_string(),
            workers: per_worker.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            policy: self.queue.policy().id().to_string(),
            submitted: counters.submitted,
            completed,
            shed: counters.shed,
            steals,
            max_queue_depth: counters.max_depth,
            wall_ns,
            tx_per_sec: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            latency: latencies.summary(),
            pool,
            per_worker,
        };
        (report, samples)
    }
}

/// Cloneable handle submitting transactions to a running [`Server`].
#[derive(Clone)]
pub struct Ingress {
    queue: Arc<ShardedTxQueue>,
    pool: Arc<TxBufferPool>,
}

impl Ingress {
    /// Offers one transaction to the ingress queue.
    pub fn submit(&self, tx: Transaction) -> Admission {
        self.queue.submit(tx)
    }

    /// Offers one transaction pinned to the shard `key` hashes to (see
    /// [`Server::submit_affinity`]).
    pub fn submit_affinity(&self, key: u64, tx: Transaction) -> Admission {
        self.queue.submit_affinity(key, tx)
    }

    /// The server's transaction-buffer pool (see [`Server::buffer_pool`]).
    pub fn pool(&self) -> Arc<TxBufferPool> {
        Arc::clone(&self.pool)
    }

    /// Whether the ingress queue has been closed for draining (see
    /// [`ShardedTxQueue::is_closed`]). Front-end tiers (e.g.
    /// `webmm-net`) check this to refuse new work with a drain status
    /// instead of submitting transactions that would only be counted as
    /// shed.
    pub fn is_closed(&self) -> bool {
        self.queue.is_closed()
    }
}

/// Everything a serving run produced, JSON-serializable.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServerReport {
    /// Allocator family id (e.g. `ddmalloc`).
    pub allocator: String,
    /// Worker threads that served.
    pub workers: u64,
    /// Ingress queue capacity.
    pub queue_capacity: u64,
    /// Admission policy id.
    pub policy: String,
    /// Transactions offered.
    pub submitted: u64,
    /// Transactions fully executed.
    pub completed: u64,
    /// Transactions dropped by admission control.
    pub shed: u64,
    /// Transactions served by a worker other than the one whose shard
    /// admitted them (work stealing).
    pub steals: u64,
    /// Deepest any single ingress shard got.
    pub max_queue_depth: u64,
    /// Wall-clock duration of the run (start to drain), nanoseconds.
    pub wall_ns: u64,
    /// Completed transactions per wall-clock second.
    pub tx_per_sec: f64,
    /// Service latency quantiles (admission to completion).
    pub latency: LatencySummary,
    /// Transaction-buffer pool traffic (recycled vs fresh buffers).
    pub pool: PoolStats,
    /// Per-worker counters.
    pub per_worker: Vec<WorkerReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_workload::WorkOp;

    fn tiny_tx(id: u64) -> Transaction {
        Transaction {
            id,
            ops: vec![
                WorkOp::Malloc { id: 1, size: 64 },
                WorkOp::Touch {
                    id: 1,
                    write: false,
                },
                WorkOp::EndTx,
            ],
        }
    }

    #[test]
    fn serve_drain_report_accounts_every_tx() {
        let server = Server::start(ServerConfig {
            kind: AllocatorKind::DdMalloc,
            workers: 2,
            queue_capacity: 16,
            policy: AdmissionPolicy::Block,
            static_bytes: 1 << 16,
            ..ServerConfig::default()
        });
        for i in 0..50 {
            server.submit(tiny_tx(i));
        }
        let report = server.finish();
        assert_eq!(report.submitted, 50);
        assert_eq!(report.completed + report.shed, 50);
        assert_eq!(report.shed, 0, "Block policy never sheds");
        assert_eq!(report.latency.count, report.completed);
        assert_eq!(report.per_worker.len(), 2);
        assert!(report.tx_per_sec > 0.0);
    }

    #[test]
    fn report_json_roundtrips() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        });
        server.submit(tiny_tx(0));
        let report = server.finish();
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let back: ServerReport = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back.completed, report.completed);
        assert_eq!(back.allocator, report.allocator);
        assert_eq!(back.latency.count, report.latency.count);
        assert_eq!(back.per_worker.len(), report.per_worker.len());
    }

    #[test]
    fn finish_with_no_traffic_is_clean() {
        let server = Server::start(ServerConfig::default());
        let report = server.finish();
        assert_eq!(report.submitted, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.latency.count, 0);
    }
}
