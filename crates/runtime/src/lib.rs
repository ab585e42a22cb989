//! # webmm-runtime: the transaction engine
//!
//! Recreates the paper's measurement setup in simulation: single-threaded
//! language-runtime processes (one allocator heap each, as PHP and Ruby
//! are configured in the paper) serve transaction streams on the hardware
//! contexts of a simulated multicore machine, interleaved through the
//! shared memory hierarchy. A bus-contention fixed point then converts the
//! measured hardware events into cycles, throughput, and the paper's
//! CPU-time breakdowns.
//!
//! * [`OpInterpreter`] — the one op loop, shared with `webmm-server`'s
//!   native workers; each caller picks its [`EndTx`] policy.
//! * [`Process`] — one runtime process: address space + workload stream +
//!   interpreter (with Ruby-style periodic restart).
//! * [`run`] / [`RunConfig`] / [`RunResult`] — one measurement.
//! * [`solve`] / [`Throughput`] — the contention model (out-of-order
//!   overlap on Xeon, 4-way fine-grained SMT on Niagara, shared-bus
//!   queueing on both).
//!
//! ## Example
//!
//! ```no_run
//! use webmm_alloc::AllocatorKind;
//! use webmm_runtime::{run, RunConfig};
//! use webmm_sim::MachineConfig;
//! use webmm_workload::phpbb;
//!
//! let machine = MachineConfig::xeon_clovertown();
//! let cfg = RunConfig::new(AllocatorKind::DdMalloc, phpbb()).scale(32).cores(8);
//! let result = run(&machine, &cfg);
//! println!("{:.1} tx/sec", result.throughput.tx_per_sec);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod interp;
mod process;
mod throughput;

pub use engine::{run, RunConfig, RunResult};
pub use interp::{AppCode, EndTx, OpInterpreter};
pub use process::{AllocatorSpec, Process, StepEvent};
pub use throughput::{solve, Throughput};
