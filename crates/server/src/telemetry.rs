//! Live telemetry for a serving run: sampler, JSONL exporter, dashboard.
//!
//! When a [`ServerConfig`](crate::ServerConfig) carries an [`ObsConfig`],
//! the server hands a shared [`ServerTelemetry`] to every worker (the
//! ingress knows nothing of it), and a sampler thread wakes at the
//! configured interval to assemble an [`ObsSample`]: queue depth and
//! admission counters read from the shards, the heap snapshot and
//! [`WorkerReport`] each worker last published, sliding-window latency
//! quantiles derived from the latency histograms the workers published
//! with them, and, when a network front-end is attached, the sum of its
//! per-thread counter blocks.
//! Samples stream to a JSONL file (one JSON object per line,
//! `serde`-compatible with the `ServerReport` types), so a run can be
//! watched — or post-processed — while it is still serving.
//!
//! Every number in a sample is read from the same record the final
//! report is built from: a worker's published `WorkerReport` and
//! `LatencyHistogram` are the ones it returns at drain, and the
//! front-end's counters are the blocks `NetReport` sums. The closing
//! sample, taken after every thread has joined, therefore equals the
//! report by construction.
//!
//! The latency window is derived, not recorded: each tick the sampler
//! merges the workers' cumulative histograms into a server-wide total
//! and keeps the totals of its last `WINDOW_SLOTS` (8) ticks; the window
//! is the total now minus the total that many ticks ago
//! ([`LatencyHistogram::since`]), or everything since start while fewer
//! ticks have passed.
//!
//! The instrumentation mirrors the discipline of the allocators it
//! observes: workers touch only their own state on the hot path and
//! publish into their own slot at a throttled rate, and snapshotting is
//! done entirely by the reader. See DESIGN.md ("Observability") for why
//! this is the telemetry analogue of DDmalloc's no-per-object-header rule.

use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError::Timeout};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;
use webmm_obs::{
    FrontEndBlock, FrontEndCounters, HeapSnapshot, LatencyHistogram, LatencySummary, ShardSample,
    TxSpan, TxTracer,
};

use crate::shard::ShardedTxQueue;
use crate::worker::WorkerReport;

/// Sampler ticks in the sliding latency window: it covers the
/// completions published in the last `WINDOW_SLOTS × interval`.
const WINDOW_SLOTS: usize = 8;

/// Configuration of the live-telemetry subsystem.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Sampling interval, nonzero; the sliding latency window covers the
    /// last eight intervals.
    pub interval: Duration,
    /// JSONL time-series destination (`None`: sample in memory only).
    pub out: Option<PathBuf>,
    /// Run label stamped into every sample (e.g. `ddmalloc-w8`).
    pub run: String,
    /// Per-worker transaction-span ring capacity.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            interval: Duration::from_millis(10),
            out: None,
            run: String::new(),
            trace_capacity: 256,
        }
    }
}

/// Shared telemetry state for one serving run.
pub struct ServerTelemetry {
    /// Per-worker transaction span rings.
    pub tracer: TxTracer,
    /// Latest heap snapshot, report and latency histogram each worker
    /// published (snapshot-on-read: the worker overwrites its slot at
    /// batch boundaries, the sampler clones it out; the mutex is
    /// uncontended worker-private state).
    slots: Vec<Mutex<WorkerSlot>>,
    /// The network front-end's per-thread counter blocks, once a
    /// front-end is bound in front of the server.
    front_end: OnceLock<Arc<[FrontEndBlock]>>,
    /// Minimum wall time between two heap publications from one worker.
    publish_every: Duration,
    run: String,
}

impl ServerTelemetry {
    /// Builds the telemetry plane for `workers` worker threads.
    pub fn new(config: &ObsConfig, workers: usize) -> Self {
        ServerTelemetry {
            tracer: TxTracer::new(workers, config.trace_capacity),
            slots: (0..workers)
                .map(|w| {
                    Mutex::new(WorkerSlot {
                        sample: WorkerHeapSample {
                            worker: w as u64,
                            heap: HeapSnapshot::default(),
                            report: WorkerReport {
                                worker: w as u64,
                                ..WorkerReport::default()
                            },
                        },
                        latency: LatencyHistogram::new(),
                    })
                })
                .collect(),
            front_end: OnceLock::new(),
            // Publishing at a quarter of the sampling interval keeps every
            // sample fresh without snapshotting on every transaction.
            publish_every: config.interval / 4,
            run: config.run.clone(),
        }
    }

    /// How often a worker should refresh its slot.
    pub fn publish_every(&self) -> Duration {
        self.publish_every
    }

    /// Stores `heap`, `report` and the cumulative `latency` histogram as
    /// worker `worker`'s current state, in one publication.
    pub(crate) fn publish(
        &self,
        worker: usize,
        heap: HeapSnapshot,
        report: &WorkerReport,
        latency: &LatencyHistogram,
    ) {
        if let Some(slot) = self.slots.get(worker) {
            let mut slot = slot.lock().expect("worker slot lock");
            slot.sample.heap = heap;
            slot.sample.report.clone_from(report);
            slot.latency.clone_from(latency);
        }
    }

    /// Hands the telemetry the counter blocks of the network front-end
    /// bound in front of this server; every later sample sums them into
    /// [`ObsSample::front_end`].
    ///
    /// # Panics
    ///
    /// Panics if a front-end was already attached.
    pub fn attach_front_end(&self, blocks: Arc<[FrontEndBlock]>) {
        self.front_end
            .set(blocks)
            .expect("a server serves behind one front-end");
    }

    /// All spans currently retained, oldest first per ring, merged and
    /// sorted by completion time.
    pub fn dump_spans(&self) -> Vec<TxSpan> {
        self.tracer.dump()
    }

    /// Assembles one time-series sample from the current state and
    /// advances `window` by one tick. The queue's depth, counters, and
    /// per-shard breakdown come from one coherent
    /// [`snapshot`](ShardedTxQueue::snapshot) — a single lock acquisition
    /// per shard, not separate `depth()`/`counters()` locks.
    pub(crate) fn sample(&self, queue: &ShardedTxQueue, window: &mut LatencyWindow) -> ObsSample {
        let snap = queue.snapshot();
        let mut total = LatencyHistogram::new();
        let workers: Vec<WorkerHeapSample> = self
            .slots
            .iter()
            .map(|slot| {
                let slot = slot.lock().expect("worker slot lock");
                total.merge(&slot.latency);
                slot.sample.clone()
            })
            .collect();
        ObsSample {
            run: self.run.clone(),
            t_ns: self.tracer.now_ns(),
            queue_depth: snap.depth,
            submitted: snap.counters.submitted,
            shed: snap.counters.shed,
            shards: snap.shards,
            completed: workers.iter().map(|w| w.report.completed).sum(),
            window: window.tick(total),
            front_end: self.front_end.get().map(|b| FrontEndCounters::sum(b)),
            workers,
        }
    }
}

/// A worker's telemetry slot: what it last published.
struct WorkerSlot {
    sample: WorkerHeapSample,
    /// The worker's cumulative latency histogram. Kept beside the sample,
    /// not in it: samples carry the derived window, not raw buckets.
    latency: LatencyHistogram,
}

/// The sampler's memory of the server-wide latency total at each of its
/// last `WINDOW_SLOTS` ticks.
#[derive(Default)]
pub(crate) struct LatencyWindow {
    totals: VecDeque<LatencyHistogram>,
}

impl LatencyWindow {
    /// Records this tick's cumulative `total` and summarizes what
    /// completed in the last `WINDOW_SLOTS` ticks (everything, while
    /// fewer have passed).
    fn tick(&mut self, total: LatencyHistogram) -> LatencySummary {
        let window = if self.totals.len() == WINDOW_SLOTS {
            let oldest = self.totals.pop_front().expect("window is full");
            total.since(&oldest).summary()
        } else {
            total.summary()
        };
        self.totals.push_back(total);
        window
    }
}

/// One row of the exported time series.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ObsSample {
    /// Run label from [`ObsConfig::run`].
    pub run: String,
    /// Nanoseconds since the telemetry plane came up.
    pub t_ns: u64,
    /// Transactions queued at sampling time.
    pub queue_depth: u64,
    /// Cumulative submissions at sampling time.
    pub submitted: u64,
    /// Cumulative sheds at sampling time.
    pub shed: u64,
    /// Per-shard depth, admission, and steal counters, one per worker.
    pub shards: Vec<ShardSample>,
    /// Completions in the reports the workers last published. Live
    /// samples lag by at most one publication interval; the closing
    /// sample is exact.
    pub completed: u64,
    /// Latency quantiles of the completions published in the last
    /// eight sampling intervals (since start, early in a run).
    /// Like `completed`, it moves at the workers' publication throttle.
    pub window: LatencySummary,
    /// The network front-end's counters, summed over its threads
    /// (`None` when no front-end is bound in front of the server).
    pub front_end: Option<FrontEndCounters>,
    /// What each worker last published.
    pub workers: Vec<WorkerHeapSample>,
}

/// A worker's state within an [`ObsSample`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WorkerHeapSample {
    /// Worker index.
    pub worker: u64,
    /// The heap snapshot the worker last published.
    pub heap: HeapSnapshot,
    /// The worker's counters as of that publication; after the drain,
    /// the report the worker returned.
    pub report: WorkerReport,
}

/// Plain-text dashboard rendering of one sample, built from the
/// `webmm-profiler` report primitives.
pub fn render_dashboard(sample: &ObsSample) -> String {
    use webmm_profiler::report::{bar, bytes, heading, table};
    let mut out = String::new();
    let label = if sample.run.is_empty() {
        "live telemetry"
    } else {
        &sample.run
    };
    out.push_str(&heading(&format!(
        "{label} @ {:.2}s",
        sample.t_ns as f64 / 1e9
    )));
    out.push_str(&format!(
        "queue {:>4}  submitted {:>8}  completed {:>8}  shed {:>6}\n",
        sample.queue_depth, sample.submitted, sample.completed, sample.shed
    ));
    let w = &sample.window;
    out.push_str(&format!(
        "window: {} tx  p50 {:.1}us  p95 {:.1}us  p99 {:.1}us  max {:.1}us\n",
        w.count,
        w.p50_ns as f64 / 1e3,
        w.p95_ns as f64 / 1e3,
        w.p99_ns as f64 / 1e3,
        w.max_ns as f64 / 1e3,
    ));
    let max_heap = sample
        .workers
        .iter()
        .map(|s| s.heap.heap_bytes)
        .max()
        .unwrap_or(0);
    let mut rows = vec![vec![
        "worker".to_string(),
        "allocator".to_string(),
        "heap".to_string(),
        "touched".to_string(),
        "live".to_string(),
        "free-lists".to_string(),
        "freeAlls".to_string(),
        "".to_string(),
    ]];
    for ws in &sample.workers {
        let h = &ws.heap;
        rows.push(vec![
            ws.worker.to_string(),
            h.allocator.clone(),
            bytes(h.heap_bytes),
            bytes(h.touched_bytes),
            h.live_objects().to_string(),
            h.free_list_len.to_string(),
            h.free_all_count.to_string(),
            bar(h.heap_bytes as f64, max_heap as f64, 16),
        ]);
    }
    out.push_str(&table(&rows));
    out
}

/// Handle to the sampler thread; dropped into the [`Server`](crate::Server)
/// and stopped at drain time.
pub(crate) struct Sampler {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<Vec<ObsSample>>,
}

impl Sampler {
    /// Spawns the sampler thread: every `interval` it assembles a sample,
    /// advancing the latency window by one tick, and appends it as one
    /// JSON line to the configured output. Returns the collected samples
    /// at stop.
    pub(crate) fn spawn(
        telemetry: Arc<ServerTelemetry>,
        queue: Arc<ShardedTxQueue>,
        config: &ObsConfig,
    ) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let interval = config.interval;
        let out_path = config.out.clone();
        let handle = std::thread::Builder::new()
            .name("webmm-obs-sampler".into())
            .spawn(move || {
                let mut out = out_path.map(|p| {
                    std::io::BufWriter::new(
                        std::fs::File::create(&p)
                            .unwrap_or_else(|e| panic!("obs out {}: {e}", p.display())),
                    )
                });
                let mut samples = Vec::new();
                let mut window = LatencyWindow::default();
                loop {
                    // One interval, cut short when `stop` hangs up.
                    let stopping = stopped.recv_timeout(interval) != Err(Timeout);
                    let sample = telemetry.sample(&queue, &mut window);
                    if let Some(w) = out.as_mut() {
                        let line = serde_json::to_string(&sample).expect("serialize obs sample");
                        w.write_all(line.as_bytes()).expect("write obs sample");
                        w.write_all(b"\n").expect("write obs sample");
                    }
                    samples.push(sample);
                    if stopping {
                        break;
                    }
                }
                if let Some(mut w) = out {
                    w.flush().expect("flush obs samples");
                }
                samples
            })
            .expect("spawn obs sampler");
        Sampler { stop, handle }
    }

    /// Stops the sampler after one final sample and returns the series.
    pub(crate) fn stop(self) -> Vec<ObsSample> {
        drop(self.stop);
        self.handle.join().expect("obs sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdmissionPolicy;

    #[test]
    fn latency_spike_ages_out_of_the_window() {
        let telemetry = ServerTelemetry::new(&ObsConfig::default(), 1);
        let queue = ShardedTxQueue::new(1, 4, AdmissionPolicy::Block, 1);
        let mut window = LatencyWindow::default();
        let report = WorkerReport::default();
        let mut latency = LatencyHistogram::new();
        let mut tick = |latency: &LatencyHistogram| {
            telemetry.publish(0, HeapSnapshot::default(), &report, latency);
            telemetry.sample(&queue, &mut window).window
        };
        latency.record(1_000_000); // the spike, published before tick 1
        assert_eq!(tick(&latency).max_ns, 1_000_000);
        latency.record(100);
        for t in 2..=WINDOW_SLOTS {
            let w = tick(&latency);
            assert_eq!((w.count, w.max_ns), (2, 1_000_000), "tick {t}");
        }
        // Tick WINDOW_SLOTS + 1 subtracts the total of tick 1, spike and
        // all: only the later observation is left, its maximum bounded by
        // its bucket [64, 128).
        let w = tick(&latency);
        assert_eq!((w.count, w.min_ns), (1, 100));
        assert!((100..128).contains(&w.max_ns), "max {}", w.max_ns);
        // Nothing new since tick 2: the next window is empty.
        assert_eq!(tick(&latency), LatencySummary::default());
    }
}
