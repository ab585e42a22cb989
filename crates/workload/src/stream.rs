//! Transaction operation streams.
//!
//! A [`TxStream`] turns a [`WorkloadSpec`] into an endless, deterministic
//! sequence of [`WorkOp`]s — the exact malloc/free/realloc/touch/compute
//! interleaving a PHP or Ruby runtime would drive into its allocator while
//! serving transactions. The lifetime model gives most objects short,
//! LIFO-biased lives (freed per-object mid-transaction) and leaves the
//! remainder to the transaction-end bulk free, matching Table 3's
//! free/malloc ratios; sizes come from the log-normal
//! [`SizeSampler`](crate::SizeSampler).

use crate::objtable::ObjectTable;
use crate::sizes::SizeSampler;
use crate::spec::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// One operation of a transaction stream.
///
/// Object identity is by `id` (assigned at `Malloc`); the runtime maps ids
/// to allocator addresses, so streams are independent of any particular
/// allocator's address choices.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub enum WorkOp {
    /// Allocate `size` bytes for object `id`.
    Malloc {
        /// Object identity.
        id: u64,
        /// Requested bytes.
        size: u64,
    },
    /// Per-object free of object `id`.
    Free {
        /// Object identity.
        id: u64,
    },
    /// Resize object `id` to `new_size` bytes.
    Realloc {
        /// Object identity.
        id: u64,
        /// New requested size.
        new_size: u64,
    },
    /// Application touch of object `id` (`write` on initialization).
    Touch {
        /// Object identity.
        id: u64,
        /// Store vs. load.
        write: bool,
    },
    /// Pure application compute.
    Compute {
        /// Instructions to execute.
        instr: u64,
    },
    /// Touch of the process's static data area.
    StaticTouch {
        /// Byte offset into the static area.
        offset: u64,
        /// Bytes touched.
        len: u64,
    },
    /// Transaction boundary: the PHP runtime calls `freeAll` here.
    EndTx,
}

/// Running totals over generated operations (for validating the stream
/// against Table 3).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize)]
pub struct StreamStats {
    /// `Malloc` ops generated.
    pub mallocs: u64,
    /// `Free` ops generated.
    pub frees: u64,
    /// `Realloc` ops generated.
    pub reallocs: u64,
    /// Transactions completed.
    pub transactions: u64,
    /// Total bytes requested by `Malloc` ops.
    pub bytes_requested: u64,
}

impl StreamStats {
    /// Mean allocation size over the generated stream.
    pub fn mean_alloc_bytes(&self) -> f64 {
        if self.mallocs == 0 {
            return 0.0;
        }
        self.bytes_requested as f64 / self.mallocs as f64
    }
}

/// Deterministic generator of transaction operations for one process.
///
/// # Examples
///
/// ```
/// use webmm_workload::{mediawiki_read, TxStream, WorkOp};
/// let mut stream = TxStream::new(mediawiki_read(), 64, 42);
/// let ops: Vec<WorkOp> = (0..10).map(|_| stream.next_op()).collect();
/// assert!(matches!(ops[0], WorkOp::Compute { .. } | WorkOp::StaticTouch { .. }));
/// ```
#[derive(Debug)]
pub struct TxStream {
    spec: WorkloadSpec,
    rng: ChaCha8Rng,
    sizes: SizeSampler,
    /// Mallocs per scaled transaction.
    tx_ticks: u64,
    /// Reallocs are issued every this many ticks.
    realloc_every: u64,
    next_id: u64,
    tick: u64,
    ticks_into_tx: u64,
    /// tick → objects dying there.
    deaths: BTreeMap<u64, Vec<u64>>,
    /// tick → objects touched (read) there.
    touches: BTreeMap<u64, Vec<u64>>,
    /// Live objects and their current sizes. Ids come from the monotonic
    /// `next_id` counter, so the dense generation-stamped table replaces
    /// the original `HashMap`: no hashing per op, O(1) clear at `EndTx`.
    live: ObjectTable<u64>,
    /// Insertion-ordered ids for O(1)-ish random picks.
    live_order: Vec<u64>,
    queue: VecDeque<WorkOp>,
    stats: StreamStats,
}

impl TxStream {
    /// Creates a stream for `spec`, with per-transaction operation counts
    /// divided by `scale` (1 = the paper's full transaction sizes), seeded
    /// deterministically by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or leaves fewer than 16 mallocs per
    /// transaction.
    pub fn new(spec: WorkloadSpec, scale: u32, seed: u64) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        let tx_ticks = spec.mallocs_per_tx / u64::from(scale);
        assert!(
            tx_ticks >= 16,
            "scale {scale} leaves too few mallocs per transaction"
        );
        let reallocs = (spec.reallocs_per_tx / u64::from(scale)).max(1);
        let sizes = SizeSampler::new(spec.mean_alloc_bytes);
        TxStream {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_c0de),
            sizes,
            tx_ticks,
            realloc_every: (tx_ticks / reallocs).max(1),
            next_id: 1,
            tick: 0,
            ticks_into_tx: 0,
            deaths: BTreeMap::new(),
            touches: BTreeMap::new(),
            // Live ids span at most ~6 transactions (cross-tx lifetimes
            // cap at 4 whole transactions plus an in-tx remainder), so
            // 8× the per-tx tick count avoids ever growing.
            live: ObjectTable::with_capacity((tx_ticks * 8) as usize),
            live_order: Vec::new(),
            queue: VecDeque::new(),
            stats: StreamStats::default(),
            spec,
        }
    }

    /// The workload specification driving this stream.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Mallocs per (scaled) transaction.
    pub fn tx_ticks(&self) -> u64 {
        self.tx_ticks
    }

    /// Statistics over everything generated so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Produces the next operation. The stream is infinite.
    pub fn next_op(&mut self) -> WorkOp {
        while self.queue.is_empty() {
            self.generate_tick();
        }
        self.queue.pop_front().expect("queue refilled")
    }

    fn pick_live(&mut self) -> Option<u64> {
        while !self.live_order.is_empty() {
            let idx = self.rng.gen_range(0..self.live_order.len());
            let id = self.live_order[idx];
            if self.live.contains(id) {
                return Some(id);
            }
            // Lazily drop stale entries (objects freed since insertion).
            self.live_order.swap_remove(idx);
        }
        None
    }

    fn emit_free(&mut self, id: u64) {
        if self.live.remove(id).is_some() {
            // Objects are typically read one last time right before dying
            // (string consumed, array iterated, zval refcount dropped).
            self.queue.push_back(WorkOp::Touch { id, write: false });
            self.queue.push_back(WorkOp::Free { id });
            self.stats.frees += 1;
        }
    }

    fn generate_tick(&mut self) {
        // 1. Deaths and touches that fall due at this tick. Done before the
        //    transaction-boundary check so lifetimes clamped to the final
        //    tick still emit their per-object free before freeAll.
        let due_deaths = self
            .deaths
            .range(..=self.tick)
            .map(|(&t, _)| t)
            .collect::<Vec<_>>();
        for t in due_deaths {
            if let Some(ids) = self.deaths.remove(&t) {
                for id in ids {
                    self.emit_free(id);
                }
            }
        }
        let due_touches = self
            .touches
            .range(..=self.tick)
            .map(|(&t, _)| t)
            .collect::<Vec<_>>();
        for t in due_touches {
            if let Some(ids) = self.touches.remove(&t) {
                for id in ids {
                    if self.live.contains(id) {
                        self.queue.push_back(WorkOp::Touch { id, write: false });
                    }
                }
            }
        }

        // Transaction boundary.
        if self.ticks_into_tx == self.tx_ticks {
            self.queue.push_back(WorkOp::EndTx);
            self.ticks_into_tx = 0;
            self.stats.transactions += 1;
            if self.spec.bulk_free_at_end {
                // freeAll kills everything: drop all pending lifetimes.
                // The live table's clear is a generation bump — O(1).
                self.deaths.clear();
                self.touches.clear();
                self.live.clear();
                self.live_order.clear();
            }
            return;
        }

        // 2. Application work: compute plus a static-data touch.
        self.queue.push_back(WorkOp::Compute {
            instr: self.spec.app_instr_per_malloc,
        });
        let off = self
            .rng
            .gen_range(0..self.spec.static_bytes.saturating_sub(256).max(1));
        self.queue.push_back(WorkOp::StaticTouch {
            offset: off,
            len: 64,
        });

        // 3. The allocation of this tick.
        let id = self.next_id;
        self.next_id += 1;
        let size = self.sizes.sample(&mut self.rng);
        self.queue.push_back(WorkOp::Malloc { id, size });
        self.queue.push_back(WorkOp::Touch { id, write: true });
        self.live.insert(id, size);
        self.live_order.push(id);
        self.stats.mallocs += 1;
        self.stats.bytes_requested += size;

        // 4. Lifetime scheduling.
        let p_free = self.spec.per_object_free_ratio();
        if self.rng.gen_bool(p_free.min(1.0)) {
            let gap = self.draw_gap();
            let death = self.tick + gap;
            self.deaths.entry(death).or_default().push(id);
            // Mid-life read touches.
            for k in 1..=self.spec.touches_per_object as u64 {
                let at = self.tick + (gap * k) / (u64::from(self.spec.touches_per_object) + 1);
                if at > self.tick {
                    self.touches.entry(at).or_default().push(id);
                }
            }
        } else if self.spec.bulk_free_at_end {
            // Survivor: lives to freeAll; touch it once mid-transaction.
            let at = self.tick + self.rng.gen_range(1..=self.tx_ticks.min(256));
            self.touches.entry(at).or_default().push(id);
        }

        // 5. Occasional realloc (growing a string/array).
        if self.ticks_into_tx % self.realloc_every == self.realloc_every - 1 {
            if let Some(rid) = self.pick_live() {
                let old = self.live.get(rid).expect("picked id is live");
                let new_size = (old + old / 2 + 8).min(32 * 1024);
                self.live.insert(rid, new_size);
                self.queue.push_back(WorkOp::Realloc { id: rid, new_size });
                self.stats.reallocs += 1;
            }
        }

        self.tick += 1;
        self.ticks_into_tx += 1;
    }

    /// Draws an object lifetime in allocation ticks: LIFO-biased
    /// (log-uniform) short lives, clamped to die before the transaction
    /// ends for bulk-freeing runtimes; a configured fraction crosses
    /// transaction boundaries otherwise.
    fn draw_gap(&mut self) -> u64 {
        if !self.spec.bulk_free_at_end && self.rng.gen_bool(self.spec.cross_tx_fraction) {
            // Ruby: survives 1-4 transactions past this one.
            let txs = self.rng.gen_range(1u64..=4);
            return txs * self.tx_ticks + self.rng.gen_range(0..self.tx_ticks);
        }
        let max_gap = (self.tx_ticks / 2).clamp(2, 1024);
        let log_max = (max_gap as f64).ln();
        let gap = self.rng.gen_range(0.0..log_max).exp() as u64;
        let gap = gap.max(1);
        if self.spec.bulk_free_at_end {
            // Die before freeAll: remaining ticks in this transaction.
            let remaining = self.tx_ticks - self.ticks_into_tx;
            gap.min(remaining.max(1))
        } else {
            gap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{mediawiki_read, phpbb, rails, specweb};

    /// Drains ops until `n` transactions complete.
    fn run_transactions(stream: &mut TxStream, n: u64) -> Vec<WorkOp> {
        let mut ops = Vec::new();
        let mut done = 0;
        while done < n {
            let op = stream.next_op();
            if op == WorkOp::EndTx {
                done += 1;
            }
            ops.push(op);
        }
        ops
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = TxStream::new(phpbb(), 64, 123);
        let mut b = TxStream::new(phpbb(), 64, 123);
        for _ in 0..5000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = TxStream::new(phpbb(), 64, 124);
        let differs = (0..5000).any(|_| a.next_op() != c.next_op());
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn counts_track_table3() {
        let spec = mediawiki_read();
        let scale = 16;
        let mut s = TxStream::new(spec.clone(), scale, 7);
        run_transactions(&mut s, 8);
        let st = s.stats();
        let per_tx_mallocs = st.mallocs as f64 / st.transactions as f64;
        let target_mallocs = (spec.mallocs_per_tx / scale as u64) as f64;
        assert!(
            (per_tx_mallocs - target_mallocs).abs() / target_mallocs < 0.01,
            "mallocs/tx {per_tx_mallocs} vs {target_mallocs}"
        );
        let free_ratio = st.frees as f64 / st.mallocs as f64;
        let target_ratio = spec.per_object_free_ratio();
        assert!(
            (free_ratio - target_ratio).abs() < 0.05,
            "free ratio {free_ratio} vs {target_ratio}"
        );
        let mean = st.mean_alloc_bytes();
        assert!(
            (mean - spec.mean_alloc_bytes).abs() / spec.mean_alloc_bytes < 0.10,
            "mean size {mean} vs {}",
            spec.mean_alloc_bytes
        );
        let reallocs_per_tx = st.reallocs as f64 / st.transactions as f64;
        let target_reallocs = (spec.reallocs_per_tx / scale as u64) as f64;
        assert!(
            (reallocs_per_tx - target_reallocs).abs() / target_reallocs < 0.15,
            "reallocs/tx {reallocs_per_tx} vs {target_reallocs}"
        );
    }

    #[test]
    fn no_double_free_and_free_only_live() {
        let mut s = TxStream::new(phpbb(), 32, 3);
        let ops = run_transactions(&mut s, 6);
        let mut live = std::collections::HashSet::new();
        for op in ops {
            match op {
                WorkOp::Malloc { id, .. } => assert!(live.insert(id), "id reused"),
                WorkOp::Free { id } => assert!(live.remove(&id), "free of dead object"),
                WorkOp::Realloc { id, .. } | WorkOp::Touch { id, .. } => {
                    assert!(live.contains(&id), "op on dead object {id}");
                }
                WorkOp::EndTx => live.clear(), // freeAll
                _ => {}
            }
        }
    }

    #[test]
    fn php_streams_free_everything_before_end_tx_or_not_at_all() {
        // With bulk free, every Free must target an object of the current
        // transaction (checked implicitly by no_double_free); moreover,
        // after EndTx the stream starts from zero live objects.
        let mut s = TxStream::new(phpbb(), 32, 11);
        run_transactions(&mut s, 3);
        assert!(s.live.is_empty() || !s.spec.bulk_free_at_end);
    }

    #[test]
    fn rails_lifetimes_cross_transactions() {
        let mut s = TxStream::new(rails(), 64, 5);
        let ops = run_transactions(&mut s, 8);
        // Find an object allocated in tx k and freed in tx > k.
        let mut tx = 0u64;
        let mut born = std::collections::HashMap::new();
        let mut crossed = 0u64;
        for op in ops {
            match op {
                WorkOp::EndTx => tx += 1,
                WorkOp::Malloc { id, .. } => {
                    born.insert(id, tx);
                }
                WorkOp::Free { id } if born.get(&id).is_some_and(|&b| b < tx) => {
                    crossed += 1;
                }
                _ => {}
            }
        }
        assert!(
            crossed > 0,
            "Rails objects must cross transaction boundaries"
        );
    }

    #[test]
    fn lifetimes_are_short_and_lifo_biased() {
        let mut s = TxStream::new(mediawiki_read(), 16, 9);
        let ops = run_transactions(&mut s, 2);
        let mut birth_tick = std::collections::HashMap::new();
        let mut mallocs_seen = 0u64;
        let mut lifetimes = Vec::new();
        for op in &ops {
            match op {
                WorkOp::Malloc { id, .. } => {
                    mallocs_seen += 1;
                    birth_tick.insert(*id, mallocs_seen);
                }
                WorkOp::Free { id } => {
                    if let Some(b) = birth_tick.get(id) {
                        lifetimes.push(mallocs_seen - b);
                    }
                }
                _ => {}
            }
        }
        lifetimes.sort_unstable();
        let median = lifetimes[lifetimes.len() / 2];
        assert!(
            median <= 64,
            "median lifetime {median} should be short (LIFO bias)"
        );
    }

    #[test]
    fn specweb_structure() {
        // SPECweb has big compute per malloc and bigger objects.
        let mut s = TxStream::new(specweb(), 16, 1);
        let ops = run_transactions(&mut s, 4);
        let computes: u64 = ops
            .iter()
            .map(|op| {
                if let WorkOp::Compute { instr } = op {
                    *instr
                } else {
                    0
                }
            })
            .sum();
        let mallocs = ops
            .iter()
            .filter(|o| matches!(o, WorkOp::Malloc { .. }))
            .count() as u64;
        assert!(computes / mallocs >= 10_000);
        assert!(s.stats().mean_alloc_bytes() > 120.0);
    }

    #[test]
    #[should_panic(expected = "too few mallocs")]
    fn absurd_scale_rejected() {
        TxStream::new(specweb(), 1000, 0);
    }
}
