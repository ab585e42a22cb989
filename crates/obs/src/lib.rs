//! # webmm-obs — live telemetry for the webmm serving harness
//!
//! The paper's argument is built from measurement lenses: CPU-time
//! breakdowns, hardware-event deltas, per-allocator memory-consumption
//! definitions. This crate supplies the *live* versions of those lenses —
//! readable while a serving run is in flight, not just after
//! `Server::finish` — with overhead small enough that the measurements
//! remain trustworthy:
//!
//! * [`FrontEndBlock`] / [`FrontEndCounters`] — the network front-end's
//!   typed counters: one cache-line-aligned block of relaxed atomics per
//!   front-end thread, summed on read into the snapshot that both the
//!   drain report and every live sample are built from.
//! * [`LatencyHistogram`] / [`LatencySummary`] — the log2-bucketed
//!   histogram (moved here from `webmm-server` so every crate shares one
//!   definition of a quantile) with documented edge behavior at
//!   `q = 0`, `q = 1`, and on empty histograms. Each worker keeps one;
//!   [`LatencyHistogram::since`] subtracts an earlier copy of a running
//!   total, which is how the sampler derives its mid-run sliding window
//!   without a second, shared histogram on the completion path.
//! * [`HeapTelemetry`] / [`HeapSnapshot`] — the trait every allocator
//!   family implements to expose size-class occupancy, segment/chunk
//!   counts, free-list lengths, touched-footprint high-water marks, and
//!   `freeAll` counts from Rust-side mirrors (no simulated-memory walks,
//!   no clock reads, no perturbation of the measured heap).
//! * [`TxTracer`] / [`TxSpan`] — fixed-capacity per-worker ring buffers
//!   of raw completed-transaction spans (`enqueue → dequeue → complete`,
//!   bytes) with whole-ring dump on demand. Sheds are counted per shard
//!   ([`ShardSample::shed`]), not traced.
//! * [`ShardSample`] — per-shard depth, admission, and steal counters
//!   for sharded work-stealing ingress queues, published in every
//!   telemetry sample so shard imbalance is visible live.
//!
//! The crate is dependency-free beyond `serde` (for one shared JSON path
//! with the bench reports) and knows nothing about servers, queues, or
//! ports — `webmm-server` wires these primitives into its sampler thread
//! and JSONL exporter.

mod heap;
mod histogram;
mod net;
mod shard;
mod trace;

pub use heap::{ClassOccupancy, HeapSnapshot, HeapTelemetry};
pub use histogram::{LatencyHistogram, LatencySummary};
pub use net::{bump, FrontEndBlock, FrontEndCounters, NetCounters};
pub use shard::ShardSample;
pub use trace::{SpanRing, TxSpan, TxTracer};
