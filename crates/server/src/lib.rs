//! # webmm-server: native multi-worker serving harness
//!
//! The simulator (`webmm-runtime`) reproduces the paper's measurements on
//! a modelled machine. This crate runs the same allocators on the *host*
//! machine: a pool of OS worker threads, each owning a private heap built
//! from an [`AllocatorKind`](webmm_alloc::AllocatorKind), serving whole
//! transactions pulled from a bounded ingress queue — the paper's
//! process-per-worker PHP serving model (§2.1), with the web tier's
//! admission control made explicit.
//!
//! The pieces:
//!
//! * [`ShardedTxQueue`] / [`AdmissionPolicy`] — the bounded ingress: one
//!   shard per worker, batched drain (up to `batch` transactions per
//!   lock acquisition), and steal-half work stealing when a worker's
//!   own shard runs dry; block / reject / shed-oldest backpressure
//!   applies per shard, every outcome is counted, and the accounting
//!   identity holds across steals;
//! * worker threads — one [`PlainPort`](webmm_sim::PlainPort) address
//!   space and one heap each, replaying transactions through the
//!   simulator's op interpreter, which empties the heap at every
//!   transaction end;
//! * [`TxFactory`] + [`drive_closed`] / [`drive_open`] — deterministic
//!   transaction production under closed- or open-loop arrival models;
//! * [`TxBufferPool`] — transaction op buffers recycled from completed
//!   (or shed) transactions back to the load generators, so the
//!   steady-state serving path performs no heap allocation per
//!   transaction (see [`TxExecutor`] for the hash-free object table and
//!   `tests/alloc_audit.rs` for the proof);
//! * [`LatencyHistogram`] — log2-bucketed admission-to-completion
//!   latencies with p50/p95/p99/p999, one per worker (defined in
//!   `webmm-obs`; the live sliding window is derived from the same
//!   per-worker histograms);
//! * [`ServerReport`] — JSON-serializable run outcome, carrying the
//!   checked accounting identity `submitted == completed + shed`;
//! * [`ObsConfig`] / [`ServerTelemetry`] / [`ObsSample`] — opt-in live
//!   telemetry: a sampler thread snapshots queue depth and the heap
//!   snapshot, [`WorkerReport`] and latency histogram each worker last
//!   published (plus an attached network front-end's counters) at a
//!   configurable, nonzero interval, derives sliding-window latency
//!   quantiles from the histograms, and streams JSONL while the run is
//!   still serving. Samples read the same records the final report is
//!   built from, so the closing sample equals the report.
//!
//! ## Example
//!
//! ```
//! use webmm_alloc::AllocatorKind;
//! use webmm_server::{drive_closed, Server, ServerConfig, TxFactory};
//!
//! let server = Server::start(ServerConfig {
//!     kind: AllocatorKind::DdMalloc,
//!     workers: 2,
//!     ..ServerConfig::default()
//! });
//! let factory = TxFactory::new(webmm_workload::phpbb(), 1024, 42);
//! drive_closed(&server, factory, 10, 2);
//! let report = server.finish();
//! assert_eq!(report.completed + report.shed, report.submitted);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod loadgen;
mod pool;
mod queue;
mod server;
mod shard;
mod telemetry;
mod worker;

pub use loadgen::{drive_closed, drive_open, TxFactory};
pub use pool::{PoolStats, TxBufferPool};
pub use queue::{Admission, AdmissionPolicy, QueueCounters, QueueSnapshot};
pub use server::{Ingress, Server, ServerConfig, ServerReport};
pub use shard::ShardedTxQueue;
pub use telemetry::{render_dashboard, ObsConfig, ObsSample, ServerTelemetry, WorkerHeapSample};
// The histogram is defined in `webmm-obs` so live windows and final
// reports share one implementation; re-exported here for compatibility.
pub use webmm_obs::{LatencyHistogram, LatencySummary, ShardSample, TxSpan};
pub use worker::{TxExecutor, WorkerReport};

use webmm_workload::WorkOp;

/// One web transaction: an identity plus the allocator-visible operation
/// sequence a PHP worker would execute to serve it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Submission-order identity, assigned by the load generator.
    pub id: u64,
    /// The operation schedule, normally ending with [`WorkOp::EndTx`].
    pub ops: Vec<WorkOp>,
}
