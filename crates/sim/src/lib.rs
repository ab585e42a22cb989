//! # webmm-sim: the machine substrate
//!
//! Execution-driven simulator of the two multicore platforms used in
//! *"A Study of Memory Management for Web-based Applications on Multicore
//! Processors"* (Inoue, Komatsu, Nakatani — PLDI 2009): an 8-core Intel
//! Xeon E5320 ("Clovertown") and an 8-core, 32-thread Sun UltraSPARC T1
//! ("Niagara").
//!
//! The simulator provides everything the paper measured with real hardware
//! and OProfile:
//!
//! * a simulated address space with real backing bytes, 4 KB frames in a
//!   dense directory ([`SimMemory`]), so allocators keep their metadata
//!   *in* simulated RAM;
//! * set-associative L1I/L1D caches per core, a shared L2 per sharing
//!   group, and a split D-TLB with 4 KB and 4 MB pages
//!   ([`Cache`], [`Tlb`], [`MemHierarchy`]);
//! * an L2 stream prefetcher on Xeon ([`StreamPrefetcher`]) — the component
//!   the paper blames for the region allocator's bus-transaction blow-up;
//! * a shared-bus bandwidth/queueing model ([`BusConfig`]) — the multicore
//!   bottleneck at the heart of the paper; and
//! * per-context hardware counters split by cost category
//!   ([`EventCounts`], [`Category`]), mirroring the paper's
//!   memory-management vs. rest-of-program CPU breakdowns.
//!
//! Allocators and workloads interact with all of this through one trait,
//! [`MemoryPort`].
//!
//! ## Example
//!
//! ```
//! use webmm_sim::{
//!     Category, ContextPort, MachineConfig, MemHierarchy, MemoryPort, PageSize, ProcessMem,
//! };
//!
//! let machine = MachineConfig::xeon_clovertown();
//! let mut hier = MemHierarchy::new(&machine);
//! let mut proc = ProcessMem::new(1 << 40);
//! let mut port = ContextPort::new(&mut proc, &mut hier, 0);
//!
//! port.set_category(Category::MemoryManagement);
//! let heap = port.os_alloc(1 << 20, 4096, PageSize::Base);
//! port.store_u64(heap, 0x2a);
//! assert_eq!(port.load_u64(heap), 0x2a);
//! drop(port);
//!
//! let counts = hier.counters(0).mm;
//! assert_eq!(counts.stores, 1);
//! let cycles = machine.cycles(&counts, 1.0);
//! assert!(cycles.total() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod addr;
mod bus;
mod cache;
mod code;
mod counters;
mod hierarchy;
mod machine;
mod mem;
mod port;
mod prefetch;
mod tlb;

pub use addr::{Addr, NULL_ADDR};
pub use bus::BusConfig;
pub use cache::{AccessResult, Cache, CacheConfig};
pub use code::{CodeRegionId, CodeSpec, CodeState};
pub use counters::{CategorizedCounts, Category, EventCounts};
pub use hierarchy::{AccessKind, MemHierarchy};
pub use machine::{CostParams, Cycles, MachineBuilder, MachineConfig};
pub use mem::SimMemory;
pub use port::{ContextPort, MemoryPort, PlainPort, ProcessMem};
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
pub use tlb::{PageSize, Tlb, TlbConfig, BASE_PAGE, LARGE_PAGE};
