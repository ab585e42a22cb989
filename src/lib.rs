//! # webmm — memory management for web-based applications on multicore
//!
//! A from-scratch Rust reproduction of
//!
//! > Hiroshi Inoue, Hideaki Komatsu, Toshio Nakatani.
//! > *A Study of Memory Management for Web-based Applications on Multicore
//! > Processors.* PLDI 2009.
//!
//! This facade crate re-exports the whole system:
//!
//! * [`sim`] — the machine substrate: simulated Xeon (Clovertown) and
//!   Niagara (UltraSPARC T1) multicores with caches, TLBs, a stream
//!   prefetcher and a bandwidth-limited shared bus;
//! * [`alloc`] — the allocators: the paper's defrag-dodging **DDmalloc**,
//!   the region-based and Zend-style baselines, and the glibc-, Hoard- and
//!   TCmalloc-style allocators of the Ruby study;
//! * [`workload`] — Table 3-faithful transaction streams for the six PHP
//!   applications and Ruby on Rails;
//! * [`runtime`] — the transaction engine and the bus-contention
//!   throughput model;
//! * [`profiler`] — the paper's measurement lenses (CPU breakdowns,
//!   hardware-event deltas, memory consumption);
//! * [`obs`] — the live versions of those lenses: per-thread typed
//!   counters, per-worker latency histograms (from which the sampler
//!   derives sliding-window quantiles), per-allocator heap telemetry and
//!   transaction span tracing, sampled mid-run and exported as JSONL
//!   time series;
//! * [`server`] — the native serving harness: the same allocators on real
//!   OS worker threads (one heap each) behind a bounded ingress queue
//!   with block/reject/shed-oldest admission control and log2 latency
//!   histograms;
//! * [`net`] — the TCP serving tier in front of that harness: a compact
//!   length-prefixed wire protocol carrying transactions and admission
//!   statuses, a keep-alive connection front-end with graceful drain,
//!   and a network load generator with closed- and open-loop schedules.
//!
//! ## Quickstart
//!
//! ```no_run
//! use webmm::alloc::AllocatorKind;
//! use webmm::runtime::{run, RunConfig};
//! use webmm::sim::MachineConfig;
//! use webmm::workload::mediawiki_read;
//!
//! let machine = MachineConfig::xeon_clovertown();
//! for kind in AllocatorKind::PHP_STUDY {
//!     let result = run(&machine, &RunConfig::new(kind, mediawiki_read()).scale(32));
//!     println!("{:32} {:8.1} tx/s", result.allocator, result.throughput.tx_per_sec);
//! }
//! ```
//!
//! The `crates/bench` harnesses regenerate every table and figure of the
//! paper; see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for paper-vs-measured numbers.

#![warn(missing_docs)]

pub use webmm_alloc as alloc;
pub use webmm_net as net;
pub use webmm_obs as obs;
pub use webmm_profiler as profiler;
pub use webmm_runtime as runtime;
pub use webmm_server as server;
pub use webmm_sim as sim;
pub use webmm_workload as workload;
