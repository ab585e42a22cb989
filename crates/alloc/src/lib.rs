//! # webmm-alloc: the paper's allocators
//!
//! Every memory allocator studied in *"A Study of Memory Management for
//! Web-based Applications on Multicore Processors"* (PLDI 2009),
//! implemented against the simulated memory of [`webmm_sim`] so that their
//! metadata traffic — free-list walks, boundary-tag updates, segment
//! carving — shows up in the machine's cache and bus counters exactly where
//! the paper says it does.
//!
//! | Allocator | Paper role | Table 1 row |
//! |---|---|---|
//! | [`DdMalloc`] | **the contribution**: defrag-dodging segregated storage | bulk ✓, per-object ✓, defrag ✗, cost *low*, bandwidth *low* |
//! | [`PhpDefaultAlloc`] | Zend-style default allocator of the PHP runtime | bulk ✓, per-object ✓, defrag ✓, cost *high*, bandwidth *low* |
//! | [`RegionAlloc`] | 256 MB-chunk bump allocator | bulk ✓, per-object ✗, defrag ✗, cost *lowest*, bandwidth *high* |
//! | [`ObstackAlloc`] | GNU-obstack alternative region allocator | — |
//! | [`DlAlloc`] | glibc / Doug Lea baseline (Ruby study) | — |
//! | [`HoardAlloc`] | Hoard 3.7 baseline (Ruby study) | — |
//! | [`TcAlloc`] | TCmalloc baseline with *delayed* defragmentation | — |
//! | [`ReapAlloc`] | Reaps (§6): region bulk-free + Lea-style per-object free | — |
//!
//! All implement the [`Allocator`] trait, whose methods are generic over the
//! [`MemoryPort`](webmm_sim::MemoryPort) they run against.
//! [`AllocatorKind`] is the factory: [`AllocatorKind::build`] returns a
//! [`Heap`], a closed enum over the eight allocators that implements
//! [`Allocator`] by `match`. Each caller's port type gets its own
//! monomorphized copy of every allocator, so no metadata access pays a
//! virtual call; a `&mut dyn MemoryPort` still works, as the `?Sized`
//! instantiation.
//!
//! ## Example
//!
//! ```
//! use webmm_alloc::{Allocator, AllocatorKind, Heap};
//! use webmm_sim::{MemoryPort, PlainPort};
//!
//! let mut port = PlainPort::new();
//! let mut dd: Heap = AllocatorKind::DdMalloc.build(0);
//! let obj = dd.malloc(&mut port, 100)?; // DdMalloc's code for PlainPort
//! dd.free(&mut port as &mut dyn MemoryPort, obj); // the `?Sized` copy
//! dd.free_all(&mut port); // end of transaction
//! # Ok::<(), webmm_alloc::AllocError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod api;
mod boundary;
mod ddmalloc;
mod dl;
mod factory;
mod hoard;
mod obstack;
mod php_default;
mod reaps;
mod region;
mod tcmalloc;

pub use api::{AllocError, AllocTraits, Allocator, BandwidthClass, CostClass, Footprint, OpStats};
pub use ddmalloc::{ClassMapping, DdConfig, DdMalloc, SizeClasses};
pub use dl::{DlAlloc, DlConfig};
pub use factory::{AllocatorKind, Heap};
pub use hoard::{HoardAlloc, HoardConfig};
pub use obstack::{ObstackAlloc, ObstackConfig};
pub use php_default::{PhpConfig, PhpDefaultAlloc};
pub use reaps::{ReapAlloc, ReapConfig};
pub use region::{RegionAlloc, RegionConfig};
pub use tcmalloc::{TcAlloc, TcConfig};
pub use webmm_obs::{ClassOccupancy, HeapSnapshot, HeapTelemetry};
