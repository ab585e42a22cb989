//! The allocator interface and the paper's Table 1 taxonomy.
//!
//! Every allocator in this crate implements [`Allocator`]: `malloc`,
//! per-object `free` (where supported), `realloc`, and `free_all` — the
//! paper's `freeAll` bulk-free hook called by the PHP runtime at the end of
//! each transaction. Allocators run entirely against a
//! [`MemoryPort`], keeping their metadata in simulated memory so that
//! free-list walks, header updates and segment carving generate exactly the
//! cache traffic the paper attributes to them.
//!
//! [`AllocTraits`] encodes Table 1 of the paper (bulk free / per-object
//! free / defragmentation / cost / bandwidth requirement) as data, so the
//! taxonomy can be printed programmatically.

use std::error::Error;
use std::fmt;

use webmm_sim::{Addr, Category, CodeSpec, MemoryPort};

/// Error returned when an allocation cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The heap configured for this allocator is exhausted.
    OutOfMemory {
        /// The request that failed, in bytes.
        requested: u64,
    },
    /// The request is invalid (zero bytes or beyond the maximum supported).
    InvalidRequest {
        /// The request that failed, in bytes.
        requested: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "heap exhausted allocating {requested} bytes")
            }
            AllocError::InvalidRequest { requested } => {
                write!(f, "invalid allocation request of {requested} bytes")
            }
        }
    }
}

impl Error for AllocError {}

/// Relative cost of `malloc`/`free`, as tabulated in the paper's Table 1.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub enum CostClass {
    /// General-purpose allocators that defragment on every operation.
    High,
    /// Defrag-dodging: free lists only, no defragmentation.
    Low,
    /// Region-based: pointer increment.
    Lowest,
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CostClass::High => "high",
            CostClass::Low => "low",
            CostClass::Lowest => "lowest",
        };
        f.write_str(s)
    }
}

/// Memory-bandwidth appetite, as tabulated in the paper's Table 1.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub enum BandwidthClass {
    /// Reuses dead objects' memory: small working set.
    Low,
    /// Never reuses within a transaction: streams through fresh lines.
    High,
}

impl fmt::Display for BandwidthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BandwidthClass::Low => "low",
            BandwidthClass::High => "high",
        })
    }
}

/// The paper's Table 1: properties of an allocation approach.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct AllocTraits {
    /// Supports `freeAll` (bulk freeing of all transaction-scoped objects).
    pub bulk_free: bool,
    /// Supports per-object `free` during a transaction.
    pub per_object_free: bool,
    /// Performs defragmentation activities (coalescing, splitting,
    /// size-sorting) in `malloc`/`free`.
    pub defragmentation: bool,
    /// Relative `malloc`/`free` cost.
    pub cost: CostClass,
    /// Memory-bandwidth requirement on multicore processors.
    pub bandwidth: BandwidthClass,
}

/// Memory-consumption report, following the paper's Figure 9 definitions.
///
/// "We defined memory consumption for each allocator as follows: the amount
/// of memory allocated from the underlying memory allocator for the default
/// allocator, the total amount of memory used for allocated segments and
/// the metadata for DDmalloc, and the total amount of memory allocated
/// during a transaction for the region-based allocator."
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Footprint {
    /// Bytes obtained from the simulated OS for heap payload (high-water).
    pub heap_bytes: u64,
    /// Bytes used by allocator metadata (free-list heads, class maps...).
    pub metadata_bytes: u64,
    /// Peak bytes allocated within a single transaction (between
    /// `free_all` calls), including rounding waste.
    pub peak_tx_alloc_bytes: u64,
}

/// Lifetime operation statistics maintained by every allocator.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct OpStats {
    /// `malloc` calls served.
    pub mallocs: u64,
    /// `free` calls served.
    pub frees: u64,
    /// `realloc` calls served.
    pub reallocs: u64,
    /// `free_all` calls served.
    pub free_alls: u64,
    /// Total bytes requested via `malloc` (pre-rounding).
    pub bytes_requested: u64,
}

/// A dynamic memory allocator operating on simulated memory.
///
/// The port-taking methods are generic over `P: MemoryPort + ?Sized`, so
/// each caller's port type gets its own inlined copy of the allocator and
/// `&mut dyn MemoryPort` still works. Generic methods make the trait
/// unusable as `dyn Allocator`; [`Heap`](crate::Heap) is the one type
/// that holds an allocator of any kind.
///
/// # Contract
///
/// * Returned addresses are nonzero, aligned to at least 8 bytes, and the
///   ranges `[addr, addr + size)` of live objects never overlap.
/// * `free`/`realloc` must only be called with addresses currently live
///   from this allocator (checked by the validation layer in tests).
/// * Implementations set the port's cost category to
///   [`Category::MemoryManagement`] and select their own code region on
///   entry, and restore the category to [`Category::Application`] on exit.
///   Callers re-select their code region before executing their own code.
///
/// The [`HeapTelemetry`](webmm_obs::HeapTelemetry) supertrait makes every
/// allocator live-inspectable: `heap_snapshot` reports size-class
/// occupancy, free-list lengths, segment counts and cumulative `freeAll`
/// cost from Rust-side mirror counters, without touching the port or the
/// simulated heap.
pub trait Allocator: webmm_obs::HeapTelemetry {
    /// Display name, matching the paper's figures where applicable.
    fn name(&self) -> &'static str;

    /// Table 1 taxonomy entry for this allocator.
    fn alloc_traits(&self) -> AllocTraits;

    /// Code-footprint of this allocator's `malloc`/`free` paths (drives
    /// L1I behaviour; the paper credits DDmalloc's and the region
    /// allocator's L1I improvements to their smaller code).
    fn code_spec(&self) -> CodeSpec;

    /// Allocates `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidRequest`] for zero-sized or oversized
    /// requests and [`AllocError::OutOfMemory`] when the heap is exhausted.
    fn malloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        size: u64,
    ) -> Result<Addr, AllocError>;

    /// Frees the object at `addr`.
    ///
    /// For allocators without per-object free (region, obstack) this is a
    /// no-op; the runtime consults [`AllocTraits::per_object_free`] and
    /// omits the calls, as the paper's porting recipe requires.
    fn free<P: MemoryPort + ?Sized>(&mut self, port: &mut P, addr: Addr);

    /// Resizes the object at `addr` to `new_size` bytes, moving it if
    /// necessary. `old_size` is the caller-tracked payload size, used only
    /// by headerless allocators (the region allocator) to bound the copy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Allocator::malloc`].
    fn realloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        addr: Addr,
        old_size: u64,
        new_size: u64,
    ) -> Result<Addr, AllocError>;

    /// Bulk-frees every object in the heap (the paper's `freeAll`).
    ///
    /// Implementations that do not support bulk freeing (glibc-, Hoard- and
    /// TCmalloc-style) panic; consult [`AllocTraits::bulk_free`] first.
    fn free_all<P: MemoryPort + ?Sized>(&mut self, port: &mut P);

    /// Current memory consumption (Figure 9 definitions).
    fn footprint(&self) -> Footprint;

    /// Lifetime operation counts.
    fn stats(&self) -> OpStats;
}

/// Sets the port up for allocator work: memory-management category plus the
/// allocator's code region (registered lazily on first use as *shared
/// text* — allocators are shared libraries, so every process fetches the
/// same lines).
pub(crate) fn enter_mm<P: MemoryPort + ?Sized>(
    port: &mut P,
    code_id: &mut Option<webmm_sim::CodeRegionId>,
    spec: CodeSpec,
) {
    port.set_category(Category::MemoryManagement);
    let id = *code_id.get_or_insert_with(|| {
        // Distinct (len, hot_len) pairs identify distinct allocators.
        let key = (spec.len / 1024) as u32 * 97 + (spec.hot_len / 1024) as u32;
        port.register_shared_code(key, spec)
    });
    port.set_code_region(id);
}

/// Restores the application category on exit from allocator code.
pub(crate) fn exit_mm<P: MemoryPort + ?Sized>(port: &mut P) {
    port.set_category(Category::Application);
}

/// Rounds `size` up to a multiple of `align` (power of two).
#[inline]
pub(crate) fn round_up(size: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (size + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = AllocError::OutOfMemory { requested: 100 };
        assert_eq!(e.to_string(), "heap exhausted allocating 100 bytes");
        let e = AllocError::InvalidRequest { requested: 0 };
        assert!(e.to_string().contains("invalid"));
    }

    #[test]
    fn cost_class_display() {
        assert_eq!(CostClass::High.to_string(), "high");
        assert_eq!(CostClass::Low.to_string(), "low");
        assert_eq!(CostClass::Lowest.to_string(), "lowest");
        assert_eq!(BandwidthClass::Low.to_string(), "low");
        assert_eq!(BandwidthClass::High.to_string(), "high");
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(1, 8), 8);
        assert_eq!(round_up(8, 8), 8);
        assert_eq!(round_up(9, 8), 16);
        assert_eq!(round_up(100, 32), 128);
        assert_eq!(round_up(513, 1024), 1024);
    }
}
