//! Sharded work-stealing ingress: per-worker queues, batched drain,
//! steal-half balancing.
//!
//! This is the server's only ingress. The paper's thesis is that
//! per-transaction memory management must stay off the shared
//! bottleneck, and a single `Mutex`+`Condvar` queue would re-create such
//! a bottleneck in software — every submitter and every worker
//! serialized on one lock. This module applies the same cure multicore
//! allocators use (Hoard's per-processor heaps, scalloc's per-core
//! spans): **per-worker structures with stealing for balance**. With one
//! worker it is a single FIFO queue.
//!
//! * Submitters spread transactions over one shard per worker, round-robin
//!   by default or keyed by an affinity value ([`ShardedTxQueue::submit_affinity`]).
//! * Workers drain *their own* shard in batches of up to `batch`
//!   transactions under a single lock acquisition, amortizing the lock
//!   and the condvar signalling across the whole batch.
//! * A worker whose shard runs dry steals the **older half** of a victim
//!   shard's backlog (oldest-first keeps the latency tail honest), so an
//!   idle worker always makes progress while any shard holds work.
//! * A worker that finds nothing anywhere parks on its shard's condition
//!   variable. The worker of a single-worker server on a host with a CPU
//!   to spare for the submitters ([`spin_gate`]) first spins for
//!   [`SPIN`], polling its shard's lock-free length mirror. A submitter
//!   notifies only a worker that is actually parked: the home shard's
//!   worker if it is, otherwise one parked peer, which steals the new
//!   arrival at once. A submitter whose home worker is busy or spinning
//!   and whose peers are not parked makes no wake-up syscall.
//!
//! Admission control ([`AdmissionPolicy`]) applies at the *shard* level:
//! the configured capacity is divided evenly across shards, and a full
//! shard blocks / rejects / sheds its own oldest. Shard-level shed
//! preserves the paper's drop semantics — under overload the freshest
//! work in each shard survives — while keeping the shed decision on the
//! submitter's lock, never a global one.
//!
//! Accounting stays exact across steals: `submitted` and `shed` are
//! counted at the shard where the event happened, and a steal merely
//! moves an already-admitted transaction from a shard buffer into the
//! thief's private batch, where it is completed. The server's identity
//! `submitted == completed + shed` therefore holds for any interleaving
//! of submits, steals, and sheds (stress-tested in
//! `tests/sharded.rs`).

use crate::pool::TxBufferPool;
use crate::queue::{
    recycle, trace_shed, Admission, AdmissionPolicy, QueueCounters, QueueSnapshot, QueuedTx,
};
use crate::telemetry::ServerTelemetry;
use crate::Transaction;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use webmm_obs::ShardSample;

/// How long an idle worker polls for work before parking, when
/// [`spin_gate`] allows it. It covers the idle gap of a closed loop over
/// loopback (a 30–50 µs round trip minus the service time) and is a
/// fifth of [`PARK_TIMEOUT`].
const SPIN: Duration = Duration::from_micros(100);

/// Longest a parked worker waits before it rescans every shard for
/// stealable work — the safety net for workers whose own shard never
/// fills (affinity keying) and who missed a peer wake.
const PARK_TIMEOUT: Duration = Duration::from_micros(500);

/// Spin polls between clock reads.
const POLLS_PER_CLOCK_READ: u32 = 64;

/// CPUs this process may run on (honouring its affinity mask), read once
/// per process: uncached, every [`ShardedTxQueue::new`] would re-read the
/// cgroup files behind [`std::thread::available_parallelism`].
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Whether idle workers of a `shards`-worker queue spin before parking on
/// a host with `cpus` CPUs: only a single worker, and only when a CPU is
/// left for the submitter. Without a spare CPU a spinning worker takes
/// the CPU the submitter needs to produce the work it is waiting for.
/// Several spinning workers are not allowed until a host that can run
/// them shows what they cost.
fn spin_gate(cpus: usize, shards: usize) -> bool {
    shards == 1 && cpus > 1
}

/// How a batch of transactions reached a worker.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Fill {
    /// `n` transactions drained from the worker's own shard.
    Own(usize),
    /// `n` transactions stolen from another worker's shard.
    Stolen(usize),
    /// The queue is closed and every shard has drained: the worker's
    /// signal to exit.
    Closed,
}

struct ShardState {
    buf: VecDeque<QueuedTx>,
    counters: QueueCounters,
    /// Transactions other workers stole from this shard.
    stolen: u64,
    /// Times this shard's worker waited on `not_empty`.
    parks: u64,
    /// Block-policy submitters waiting on `not_full` right now. A drain
    /// or a steal notifies only when this is above 0: std's futex
    /// `Condvar` makes a wake syscall even when nobody waits.
    blocked: usize,
}

struct Shard {
    state: Mutex<ShardState>,
    /// Mirror of `state.buf.len()`, written under `state` at every push,
    /// drain and steal, so spinning workers can poll without locking.
    len: AtomicUsize,
    /// Whether this shard's worker is waiting on `not_empty` and has not
    /// been signalled yet. Written under `state`.
    parked: AtomicBool,
    /// Signalled when a transaction lands in this shard or the queue
    /// closes.
    not_empty: Condvar,
    /// Signalled when this shard is drained or stolen from while a
    /// Block-policy submitter waits (`ShardState::blocked`).
    not_full: Condvar,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                buf: VecDeque::with_capacity(capacity),
                counters: QueueCounters::default(),
                stolen: 0,
                parks: 0,
                blocked: 0,
            }),
            len: AtomicUsize::new(0),
            parked: AtomicBool::new(false),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }
}

/// Bounded multi-producer ingress queue sharded one-per-worker, with
/// batched drain and work stealing between shards.
pub struct ShardedTxQueue {
    shards: Vec<Shard>,
    /// Per-shard buffer bound (total capacity divided evenly, rounded up).
    shard_capacity: usize,
    /// The capacity the queue was configured with (for reporting).
    configured_capacity: usize,
    policy: AdmissionPolicy,
    /// Maximum transactions a worker takes per lock acquisition.
    batch: usize,
    /// How long an idle worker spins before parking (zero: it parks at
    /// once).
    spin: Duration,
    closed: AtomicBool,
    /// Round-robin submission cursor.
    rr: AtomicUsize,
    telemetry: Option<Arc<ServerTelemetry>>,
    /// When present, rejected and shed transactions return their op
    /// buffers here instead of dropping them.
    pool: Option<Arc<TxBufferPool>>,
}

impl ShardedTxQueue {
    /// Creates a queue of `shards` shards holding `capacity` transactions
    /// in total (divided evenly, rounded up so every shard can hold at
    /// least one), draining in batches of up to `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `capacity`, or `batch` is zero.
    pub fn new(shards: usize, capacity: usize, policy: AdmissionPolicy, batch: usize) -> Self {
        assert!(shards > 0, "sharded queue needs at least one shard");
        assert!(capacity > 0, "queue capacity must be nonzero");
        assert!(batch > 0, "drain batch must be nonzero");
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedTxQueue {
            shards: (0..shards).map(|_| Shard::new(shard_capacity)).collect(),
            shard_capacity,
            configured_capacity: capacity,
            policy,
            batch,
            spin: if spin_gate(host_cpus(), shards) {
                SPIN
            } else {
                Duration::ZERO
            },
            closed: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            telemetry: None,
            pool: None,
        }
    }

    /// Overrides the spin time [`spin_gate`] chose, so tests can pin
    /// either side of the gate on any host.
    #[cfg(test)]
    fn set_spin(&mut self, spin: Duration) {
        self.spin = spin;
    }

    /// Routes shed spans into `telemetry`'s tracer. Called by the server
    /// before the queue is shared.
    pub(crate) fn install_telemetry(&mut self, telemetry: Arc<ServerTelemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Routes dead transactions' op buffers into `pool`. Called by the
    /// server before the queue is shared.
    pub(crate) fn install_pool(&mut self, pool: Arc<TxBufferPool>) {
        self.pool = Some(pool);
    }

    /// The configured admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The capacity the queue was configured with. The effective bound is
    /// `shards() × shard_capacity()`, which rounds this up to a multiple
    /// of the shard count.
    pub fn capacity(&self) -> usize {
        self.configured_capacity
    }

    /// Number of shards (one per worker).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard buffer bound.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Offers a transaction to the next shard in round-robin order; the
    /// chosen shard applies the [`AdmissionPolicy`] (see
    /// [`Admission`] for the outcomes).
    pub fn submit(&self, tx: Transaction) -> Admission {
        let shard = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.submit_to(shard, tx)
    }

    /// Offers a transaction to the shard `key` hashes to — affinity-keyed
    /// submission for clients that want related transactions (same
    /// session, same tenant) served by the same worker's heap.
    pub fn submit_affinity(&self, key: u64, tx: Transaction) -> Admission {
        let shard = (key % self.shards.len() as u64) as usize;
        self.submit_to(shard, tx)
    }

    /// Offers a transaction to shard `shard` directly. Every call
    /// increments that shard's `submitted`, and every outcome other than
    /// enqueueing increments its `shed`, so the identity
    /// `submitted == completed + shed` holds across shards after a drain.
    fn submit_to(&self, shard: usize, tx: Transaction) -> Admission {
        let s = &self.shards[shard];
        let mut st = s.state.lock().expect("shard lock");
        st.counters.submitted += 1;
        if self.closed.load(Ordering::Acquire) {
            st.counters.shed += 1;
            drop(st);
            trace_shed(&self.telemetry, tx.id, None);
            recycle(&self.pool, tx);
            return Admission::Rejected;
        }
        if st.buf.len() >= self.shard_capacity {
            match self.policy {
                AdmissionPolicy::Block => {
                    while st.buf.len() >= self.shard_capacity
                        && !self.closed.load(Ordering::Acquire)
                    {
                        st.blocked += 1;
                        st = s.not_full.wait(st).expect("shard lock");
                        st.blocked -= 1;
                    }
                    if self.closed.load(Ordering::Acquire) {
                        st.counters.shed += 1;
                        drop(st);
                        trace_shed(&self.telemetry, tx.id, None);
                        recycle(&self.pool, tx);
                        return Admission::Rejected;
                    }
                }
                AdmissionPolicy::Reject => {
                    st.counters.shed += 1;
                    drop(st);
                    trace_shed(&self.telemetry, tx.id, None);
                    recycle(&self.pool, tx);
                    return Admission::Rejected;
                }
                AdmissionPolicy::ShedOldest => {
                    let victim = st.buf.pop_front();
                    st.counters.shed += 1;
                    st.buf.push_back(QueuedTx {
                        tx,
                        enqueued: Instant::now(),
                    });
                    self.wake_for_push(shard, st);
                    if let Some(v) = victim {
                        trace_shed(&self.telemetry, v.tx.id, Some(v.enqueued.elapsed()));
                        recycle(&self.pool, v.tx);
                    }
                    return Admission::AcceptedSheddingOldest;
                }
            }
        }
        st.buf.push_back(QueuedTx {
            tx,
            enqueued: Instant::now(),
        });
        let depth = st.buf.len() as u64;
        st.counters.max_depth = st.counters.max_depth.max(depth);
        self.wake_for_push(shard, st);
        Admission::Accepted
    }

    /// Publishes a push onto shard `home` (whose lock `st` holds) and
    /// wakes the worker that should take it: the home worker if it is
    /// parked, otherwise one parked peer, which steals it. No syscall is
    /// made when nobody is parked.
    ///
    /// Notifying a worker lowers its flag, so each park is signalled at
    /// most once: while a woken home worker is still getting back onto a
    /// CPU, the next push wakes a peer to share the backlog instead of
    /// signalling the home worker again.
    fn wake_for_push(&self, home: usize, st: MutexGuard<'_, ShardState>) {
        let s = &self.shards[home];
        // SeqCst pairs with `park`: a worker stores its `parked` flag and
        // then re-reads every length, this submitter stores the length and
        // then reads the peers' flags, so at least one of them sees the
        // other.
        s.len.store(st.buf.len(), Ordering::SeqCst);
        // The home flag is written under the lock `st` holds: exact.
        if s.parked.swap(false, Ordering::Relaxed) {
            s.not_empty.notify_one();
            return;
        }
        drop(st);
        let n = self.shards.len();
        for off in 1..n {
            let peer = &self.shards[(home + off) % n];
            if peer.parked.load(Ordering::SeqCst) {
                // The peer raises its flag under its lock and releases the
                // lock only by waiting, so under that lock the flag is
                // exact and the notification cannot land before the wait.
                let _peer_state = peer.state.lock().expect("shard lock");
                if peer.parked.swap(false, Ordering::Relaxed) {
                    peer.not_empty.notify_one();
                    return;
                }
            }
        }
    }

    /// Fills `out` with worker `worker`'s next batch: up to `batch`
    /// transactions drained from its own shard under one lock, or — when
    /// the shard is dry — the older half of the first non-empty victim
    /// shard's backlog (capped at `batch`). While the queue is open and
    /// everything is empty it waits: first spinning for [`SPIN`] on its
    /// own shard's length mirror when [`spin_gate`] allows, then parked on
    /// its own shard until a submitter wakes it (as home worker or as a
    /// parked peer) or [`PARK_TIMEOUT`] passes, then it scans again.
    /// Returns [`Fill::Closed`] once the queue is closed *and* every
    /// shard has drained.
    pub(crate) fn pop_batch(&self, worker: usize, out: &mut VecDeque<QueuedTx>) -> Fill {
        let n = self.shards.len();
        loop {
            // Read the flag *before* scanning: if it was set before the
            // scan began, no shard can refill afterwards (submissions are
            // rejected and steals only remove), so an all-empty scan
            // proves the queue is drained. A close racing the scan just
            // causes one more loop iteration.
            let was_closed = self.closed.load(Ordering::Acquire);

            // Own shard first: one lock, whole batch.
            {
                let s = &self.shards[worker];
                let mut st = s.state.lock().expect("shard lock");
                let take = self.batch.min(st.buf.len());
                if take > 0 {
                    out.extend(st.buf.drain(..take));
                    s.len.store(st.buf.len(), Ordering::Relaxed);
                    let blocked = st.blocked > 0;
                    drop(st);
                    // A batch frees `take` slots: wake every blocked
                    // submitter that can now fit.
                    if blocked {
                        s.not_full.notify_all();
                    }
                    return Fill::Own(take);
                }
            }

            // Steal scan: victims in rotating order starting after us.
            for off in 1..n {
                let victim = (worker + off) % n;
                let s = &self.shards[victim];
                let mut st = s.state.lock().expect("shard lock");
                let backlog = st.buf.len();
                if backlog > 0 {
                    // Half the backlog, oldest first: the victim keeps
                    // its fresher half, the thief retires the transactions
                    // that have waited longest.
                    let take = backlog.div_ceil(2).min(self.batch);
                    out.extend(st.buf.drain(..take));
                    s.len.store(st.buf.len(), Ordering::Relaxed);
                    st.stolen += take as u64;
                    let blocked = st.blocked > 0;
                    drop(st);
                    if blocked {
                        s.not_full.notify_all();
                    }
                    return Fill::Stolen(take);
                }
            }

            if was_closed {
                return Fill::Closed;
            }
            if !self.spin_for_work(worker) {
                self.park(worker);
            }
        }
    }

    /// Whether any shard holds a transaction, read from the length
    /// mirrors without locking.
    fn any_queued(&self) -> bool {
        self.shards.iter().any(|s| s.len.load(Ordering::SeqCst) > 0)
    }

    /// Polls worker `worker`'s own length mirror and the closed flag for
    /// up to `self.spin`. True as soon as there is work to take or a close
    /// to observe; false when the spin runs out (or is zero). Other shards
    /// are left to their own workers, so affinity-keyed work stays on its
    /// heap; stealing happens through peer wakes and park timeouts.
    fn spin_for_work(&self, worker: usize) -> bool {
        if self.spin.is_zero() {
            return false;
        }
        let len = &self.shards[worker].len;
        let start = Instant::now();
        loop {
            for _ in 0..POLLS_PER_CLOCK_READ {
                if self.closed.load(Ordering::Acquire) || len.load(Ordering::SeqCst) > 0 {
                    return true;
                }
                std::hint::spin_loop();
            }
            if start.elapsed() >= self.spin {
                return false;
            }
        }
    }

    /// Parks worker `worker` on its own shard until a submitter wakes it,
    /// the queue closes, or [`PARK_TIMEOUT`] passes. Timed, because under
    /// affinity keying new work may only ever land on other shards, and a
    /// peer wake goes to one parked worker only.
    fn park(&self, worker: usize) {
        let s = &self.shards[worker];
        let mut st = s.state.lock().expect("shard lock");
        s.parked.store(true, Ordering::SeqCst);
        // Re-check after raising the flag (see `wake_for_push`): a
        // submitter that read the flag before it was raised pushed before
        // this scan, so its work is seen here instead of being missed.
        if !self.closed.load(Ordering::Acquire) && !self.any_queued() {
            st.parks += 1;
            st = s
                .not_empty
                .wait_timeout(st, PARK_TIMEOUT)
                .expect("shard lock")
                .0;
        }
        s.parked.store(false, Ordering::Relaxed);
        drop(st);
    }

    /// Times worker `worker` parked on its shard's condition variable.
    pub(crate) fn parks(&self, worker: usize) -> u64 {
        self.shards[worker].state.lock().expect("shard lock").parks
    }

    /// Closes the front door on every shard: subsequent submissions are
    /// rejected, queued transactions still drain (by their own worker or
    /// by thieves), blocked submitters and idle workers wake.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for s in &self.shards {
            // Acquire-release the shard lock so a submitter or worker
            // that checked `closed` before the store cannot be parked
            // between its check and its wait when the notification fires.
            drop(s.state.lock().expect("shard lock"));
            s.not_empty.notify_all();
            s.not_full.notify_all();
        }
    }

    /// Whether [`ShardedTxQueue::close`] has been called — submissions
    /// are being rejected and the shards are draining. Network
    /// front-ends use this to answer `Draining` instead of offering
    /// doomed work.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Admission counters summed across shards (`max_depth` is the
    /// deepest any single shard has been).
    pub fn counters(&self) -> QueueCounters {
        self.snapshot().counters
    }

    /// Depth, summed counters, and the per-shard breakdown, reading each
    /// shard's lock exactly once.
    pub fn snapshot(&self) -> QueueSnapshot {
        let mut snap = QueueSnapshot::default();
        for (i, s) in self.shards.iter().enumerate() {
            let st = s.state.lock().expect("shard lock");
            let depth = st.buf.len() as u64;
            snap.depth += depth;
            snap.counters.submitted += st.counters.submitted;
            snap.counters.shed += st.counters.shed;
            snap.counters.max_depth = snap.counters.max_depth.max(st.counters.max_depth);
            snap.shards.push(ShardSample {
                shard: i as u64,
                depth,
                submitted: st.counters.submitted,
                shed: st.counters.shed,
                max_depth: st.counters.max_depth,
                stolen: st.stolen,
            });
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u64) -> Transaction {
        Transaction {
            id,
            ops: Vec::new(),
        }
    }

    fn drain_ids(q: &ShardedTxQueue, worker: usize) -> Vec<u64> {
        let mut out = VecDeque::new();
        let mut ids = Vec::new();
        loop {
            match q.pop_batch(worker, &mut out) {
                Fill::Closed => break,
                Fill::Own(_) | Fill::Stolen(_) => {
                    ids.extend(out.drain(..).map(|q| q.tx.id));
                }
            }
        }
        ids
    }

    #[test]
    fn batched_drain_preserves_fifo_within_a_shard() {
        let q = ShardedTxQueue::new(1, 16, AdmissionPolicy::Reject, 4);
        for i in 0..10 {
            assert_eq!(q.submit(tx(i)), Admission::Accepted);
        }
        assert_eq!(q.counters().max_depth, 10);
        q.close();
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(4));
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(4));
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(2));
        assert_eq!(q.pop_batch(0, &mut out), Fill::Closed);
        let ids: Vec<u64> = out.iter().map(|q| q.tx.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_spreads_over_shards() {
        let q = ShardedTxQueue::new(4, 16, AdmissionPolicy::Reject, 8);
        for i in 0..8 {
            q.submit(tx(i));
        }
        let snap = q.snapshot();
        for s in &snap.shards {
            assert_eq!(s.depth, 2, "shard {}", s.shard);
            assert_eq!(s.submitted, 2, "shard {}", s.shard);
        }
    }

    #[test]
    fn affinity_submission_pins_a_shard() {
        let q = ShardedTxQueue::new(4, 16, AdmissionPolicy::Reject, 8);
        for i in 0..3 {
            q.submit_affinity(2, tx(i));
        }
        let snap = q.snapshot();
        assert_eq!(snap.shards[2].depth, 3);
        assert_eq!(snap.depth, 3);
    }

    #[test]
    fn steal_takes_older_half_of_victim() {
        let q = ShardedTxQueue::new(2, 16, AdmissionPolicy::Reject, 8);
        for i in 0..6 {
            q.submit_affinity(0, tx(i));
        }
        // Worker 1's shard is empty: it must steal ceil(6/2) = 3, oldest
        // first.
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(1, &mut out), Fill::Stolen(3));
        let ids: Vec<u64> = out.iter().map(|q| q.tx.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let snap = q.snapshot();
        assert_eq!(snap.shards[0].depth, 3, "victim keeps the fresher half");
        assert_eq!(snap.shards[0].stolen, 3);
    }

    #[test]
    fn steal_is_capped_at_the_batch_size() {
        let q = ShardedTxQueue::new(2, 32, AdmissionPolicy::Reject, 4);
        for i in 0..16 {
            q.submit_affinity(0, tx(i));
        }
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(1, &mut out), Fill::Stolen(4));
        assert_eq!(q.snapshot().shards[0].depth, 12);
    }

    #[test]
    fn shed_oldest_keeps_the_freshest_in_fifo_order() {
        let q = ShardedTxQueue::new(1, 2, AdmissionPolicy::ShedOldest, 8);
        q.submit(tx(0));
        q.submit(tx(1));
        assert_eq!(q.submit(tx(2)), Admission::AcceptedSheddingOldest);
        q.close();
        assert_eq!(drain_ids(&q, 0), vec![1, 2]);
        assert_eq!(q.counters().shed, 1);
    }

    #[test]
    fn shed_oldest_applies_at_the_shard_level() {
        // Capacity 4 over 2 shards: each shard holds 2.
        let q = ShardedTxQueue::new(2, 4, AdmissionPolicy::ShedOldest, 8);
        q.submit_affinity(0, tx(0));
        q.submit_affinity(0, tx(1));
        q.submit_affinity(1, tx(10));
        assert_eq!(
            q.submit_affinity(0, tx(2)),
            Admission::AcceptedSheddingOldest
        );
        let snap = q.snapshot();
        assert_eq!(snap.shards[0].shed, 1, "shard 0 shed its own oldest");
        assert_eq!(snap.shards[1].shed, 0, "shard 1 untouched");
        q.close();
        let mut ids = drain_ids(&q, 0);
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 10], "tx 0 was the displaced victim");
    }

    #[test]
    fn reject_policy_bounces_at_a_full_shard_only() {
        let q = ShardedTxQueue::new(2, 2, AdmissionPolicy::Reject, 8);
        assert_eq!(q.submit_affinity(0, tx(0)), Admission::Accepted);
        assert_eq!(q.submit_affinity(0, tx(1)), Admission::Rejected);
        // The other shard still has room.
        assert_eq!(q.submit_affinity(1, tx(2)), Admission::Accepted);
        let c = q.counters();
        assert_eq!((c.submitted, c.shed), (3, 1));
    }

    #[test]
    fn close_rejects_submissions_but_drains_all_shards() {
        let q = ShardedTxQueue::new(3, 16, AdmissionPolicy::Block, 4);
        for i in 0..7 {
            q.submit(tx(i));
        }
        q.close();
        assert_eq!(q.submit(tx(99)), Admission::Rejected);
        let mut ids = drain_ids(&q, 1);
        ids.sort_unstable();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        let c = q.counters();
        assert_eq!(c.submitted, 8);
        assert_eq!(c.shed, 1);
    }

    #[test]
    fn block_policy_waits_for_space_freed_by_own_drain() {
        let q = Arc::new(ShardedTxQueue::new(1, 1, AdmissionPolicy::Block, 8));
        q.submit(tx(0));
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || q2.submit(tx(1)));
        std::thread::sleep(Duration::from_millis(20));
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(1));
        assert_eq!(out.pop_front().unwrap().tx.id, 0);
        assert_eq!(submitter.join().unwrap(), Admission::Accepted);
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(1));
        assert_eq!(out.pop_front().unwrap().tx.id, 1);
        assert_eq!(q.counters().shed, 0);
    }

    #[test]
    fn block_policy_waits_for_shard_space_freed_by_steal() {
        let q = Arc::new(ShardedTxQueue::new(2, 2, AdmissionPolicy::Block, 8));
        q.submit_affinity(0, tx(0));
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || q2.submit_affinity(0, tx(1)));
        std::thread::sleep(Duration::from_millis(20));
        // Worker 1 stealing from shard 0 frees the slot the blocked
        // submitter is waiting for.
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(1, &mut out), Fill::Stolen(1));
        assert_eq!(submitter.join().unwrap(), Admission::Accepted);
        assert_eq!(q.counters().shed, 0);
    }

    #[test]
    fn close_releases_blocked_submitters() {
        let q = Arc::new(ShardedTxQueue::new(1, 1, AdmissionPolicy::Block, 8));
        q.submit(tx(0));
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || q2.submit(tx(1)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(submitter.join().unwrap(), Admission::Rejected);
    }

    #[test]
    fn pop_batch_blocks_until_work_arrives() {
        let q = Arc::new(ShardedTxQueue::new(2, 8, AdmissionPolicy::Block, 4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || {
            let mut out = VecDeque::new();
            q2.pop_batch(0, &mut out);
            out.pop_front().map(|q| q.tx.id)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.submit_affinity(0, tx(9));
        assert_eq!(popper.join().unwrap(), Some(9));
    }

    #[test]
    fn idle_worker_steals_work_submitted_to_other_shards() {
        // Nothing ever lands on worker 1's shard; it must still make
        // progress via the steal-retry timeout.
        let q = Arc::new(ShardedTxQueue::new(2, 8, AdmissionPolicy::Block, 4));
        let q2 = Arc::clone(&q);
        let thief = std::thread::spawn(move || {
            let mut out = VecDeque::new();
            matches!(q2.pop_batch(1, &mut out), Fill::Stolen(_))
        });
        std::thread::sleep(Duration::from_millis(5));
        q.submit_affinity(0, tx(1));
        assert!(thief.join().unwrap(), "idle worker stole from shard 0");
    }

    #[test]
    fn snapshot_counters_cover_all_shards_once() {
        let q = ShardedTxQueue::new(4, 8, AdmissionPolicy::Reject, 8);
        for i in 0..6 {
            q.submit(tx(i));
        }
        let snap = q.snapshot();
        assert_eq!(snap.counters.submitted, 6);
        assert_eq!(snap.depth, 6);
        assert_eq!(snap.shards.len(), 4);
        let by_shard: u64 = snap.shards.iter().map(|s| s.depth).sum();
        assert_eq!(by_shard, snap.depth);
    }

    /// A spin long enough that a test never sees one run out.
    const FOREVER: Duration = Duration::from_secs(30);

    fn queue_with_spin(shards: usize, spin: Duration) -> Arc<ShardedTxQueue> {
        let mut q = ShardedTxQueue::new(shards, 8, AdmissionPolicy::Block, 4);
        q.set_spin(spin);
        Arc::new(q)
    }

    #[test]
    fn spin_gate_spins_only_a_single_worker_with_a_cpu_to_spare() {
        assert!(spin_gate(2, 1));
        assert!(spin_gate(64, 1));
        assert!(!spin_gate(1, 1));
        assert!(!spin_gate(2, 2));
        assert!(!spin_gate(8, 4));
        assert!(!spin_gate(2, 4));
    }

    #[test]
    fn close_during_a_spin_returns_closed_promptly() {
        let q = queue_with_spin(1, FOREVER);
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(0, &mut VecDeque::new()));
        // Most likely spinning by now; any interleaving must end Closed.
        std::thread::sleep(Duration::from_millis(10));
        let start = Instant::now();
        q.close();
        assert_eq!(popper.join().unwrap(), Fill::Closed);
        assert!(start.elapsed() < FOREVER / 10, "close waited out the spin");
        assert_eq!(q.parks(0), 0, "a spinning worker never parks");
    }

    #[test]
    fn spinning_worker_takes_work_submitted_to_its_own_shard() {
        let q = queue_with_spin(1, FOREVER);
        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || {
            let mut out = VecDeque::new();
            let fill = q2.pop_batch(0, &mut out);
            (fill, out.pop_front().map(|q| q.tx.id))
        });
        // Most likely spinning by now; any interleaving must drain tx 7.
        std::thread::sleep(Duration::from_millis(10));
        q.submit(tx(7));
        assert_eq!(worker.join().unwrap(), (Fill::Own(1), Some(7)));
        assert_eq!(q.parks(0), 0, "the spin, not a wake-up, found the work");
    }

    #[test]
    fn spin_polls_only_the_workers_own_shard() {
        let q = queue_with_spin(2, Duration::from_millis(5));
        q.submit_affinity(0, tx(7));
        // Shard 0's work is left to worker 0: worker 1's spin runs out.
        assert!(!q.spin_for_work(1), "worker 1's spin took shard 0's work");
        assert!(q.spin_for_work(0));
    }

    #[test]
    fn parked_peer_is_woken_to_steal_from_a_busy_shard() {
        // Shard 0 has no worker, so it never reads as parked: every
        // submission to it must wake worker 1, parked on its own empty
        // shard, instead of leaving the work for its next timeout. Each
        // round waits for a new park, so worker 1 is inside its wait (the
        // count rises under the lock the wait releases) when the
        // submission lands. A lost wake makes a round last a whole
        // timeout; the median round ignores descheduled threads.
        const ROUNDS: u32 = 200;
        let q = queue_with_spin(2, Duration::ZERO);
        let q2 = Arc::clone(&q);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let thief = std::thread::spawn(move || {
            let mut out = VecDeque::new();
            while let Fill::Stolen(n) = q2.pop_batch(1, &mut out) {
                out.clear();
                done_tx.send(n).unwrap();
            }
        });
        let mut rounds = Vec::new();
        let mut parks = 0;
        for i in 0..ROUNDS {
            while q.parks(1) == parks {
                std::thread::yield_now();
            }
            parks = q.parks(1);
            let start = Instant::now();
            q.submit_affinity(0, tx(u64::from(i)));
            assert_eq!(done_rx.recv().unwrap(), 1);
            rounds.push(start.elapsed());
        }
        q.close();
        thief.join().unwrap();
        rounds.sort_unstable();
        let median = rounds[rounds.len() / 2];
        assert!(
            median < PARK_TIMEOUT / 2,
            "median steal took {median:?}: the parked peer waited for its timeout"
        );
    }

    #[test]
    fn ping_pong_without_spin_parks_and_never_loses_a_wakeup() {
        const ROUNDS: u32 = 2_000;
        let q = queue_with_spin(1, Duration::ZERO);
        let q2 = Arc::clone(&q);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut out = VecDeque::new();
            while let Fill::Own(n) = q2.pop_batch(0, &mut out) {
                out.clear();
                done_tx.send(n).unwrap();
            }
        });
        let mut rounds = Vec::new();
        for i in 0..ROUNDS {
            let start = Instant::now();
            q.submit(tx(u64::from(i)));
            assert_eq!(done_rx.recv().unwrap(), 1);
            rounds.push(start.elapsed());
        }
        q.close();
        worker.join().unwrap();
        assert!(q.parks(0) > 0, "an idle worker without spin must park");
        // A lost wake makes a round last a whole timeout; the median
        // round ignores descheduled threads.
        rounds.sort_unstable();
        let median = rounds[rounds.len() / 2];
        assert!(
            median < PARK_TIMEOUT / 2,
            "median round trip took {median:?}: wake-ups were lost"
        );
    }
}
