//! Admission control shared by the ingress: policies, outcomes, counters.
//!
//! The paper's serving story is a web server fanning transactions out to a
//! pool of PHP workers; the piece the simulator never modelled is what
//! happens at the front door when offered load exceeds capacity. The
//! ingress ([`ShardedTxQueue`](crate::ShardedTxQueue)) makes that
//! explicit: a fixed-capacity buffer per shard plus an [`AdmissionPolicy`]
//! deciding whether an arriving transaction waits (closed-loop clients),
//! bounces (fail-fast), or displaces the oldest queued transaction
//! (freshness under overload).
//!
//! Every admission outcome is counted, so the server can prove the
//! accounting identity `submitted == completed + shed` after drain.

use crate::pool::TxBufferPool;
use crate::Transaction;
use std::sync::Arc;
use std::time::Instant;
use webmm_obs::ShardSample;

/// What the queue does when a transaction arrives and the buffer is full.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Make the submitter wait for space — the backpressure a closed-loop
    /// client population experiences.
    Block,
    /// Turn the new arrival away immediately (counted as shed).
    Reject,
    /// Admit the new arrival and drop the *oldest* queued transaction
    /// (counted as shed): under overload, freshest work first.
    ShedOldest,
}

impl AdmissionPolicy {
    /// Stable identifier for CLI arguments and JSON output.
    pub fn id(self) -> &'static str {
        match self {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::ShedOldest => "shed-oldest",
        }
    }

    /// Parses an id produced by [`AdmissionPolicy::id`].
    pub fn from_id(id: &str) -> Option<Self> {
        [
            AdmissionPolicy::Block,
            AdmissionPolicy::Reject,
            AdmissionPolicy::ShedOldest,
        ]
        .into_iter()
        .find(|p| p.id() == id)
    }
}

/// Outcome of one [`ShardedTxQueue::submit`](crate::ShardedTxQueue::submit) call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The transaction was enqueued (possibly after blocking).
    Accepted,
    /// The transaction was turned away ([`AdmissionPolicy::Reject`], or
    /// any submission after
    /// [`ShardedTxQueue::close`](crate::ShardedTxQueue::close)).
    Rejected,
    /// The transaction was enqueued and the oldest queued transaction was
    /// dropped to make room ([`AdmissionPolicy::ShedOldest`]).
    AcceptedSheddingOldest,
}

/// A transaction with its admission timestamp (latency measurement starts
/// at the front door, so queueing delay is part of service latency).
pub(crate) struct QueuedTx {
    pub tx: Transaction,
    pub enqueued: Instant,
}

/// Monotonic counters maintained by the queue.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// `submit` calls observed.
    pub submitted: u64,
    /// Transactions dropped by admission control (rejections plus
    /// shed-oldest victims).
    pub shed: u64,
    /// Deepest any single shard has been (depths at different shards
    /// peak at different instants, so summing them would overstate
    /// backlog).
    pub max_depth: u64,
}

/// A coherent point-in-time view of the ingress: depth and counters read
/// under one lock acquisition per shard, so each shard's depth and
/// counters describe the same instant.
#[derive(Clone, Debug, Default)]
pub struct QueueSnapshot {
    /// Transactions queued across all shards at snapshot time.
    pub depth: u64,
    /// Admission counters summed across shards.
    pub counters: QueueCounters,
    /// Per-shard breakdown.
    pub shards: Vec<ShardSample>,
}

/// Returns a dead transaction's op buffer to `pool` (no-op without one).
/// Called wherever admission control kills a transaction — rejections and
/// shed-oldest victims — so those paths recycle exactly like completions.
pub(crate) fn recycle(pool: &Option<Arc<TxBufferPool>>, tx: Transaction) {
    if let Some(p) = pool {
        p.put(tx.ops);
    }
}
