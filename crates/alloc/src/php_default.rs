//! The PHP runtime's default allocator (Zend-MM-style baseline).
//!
//! The paper's baseline "supports both per-object and bulk freeing and it
//! cleans up the heap at the end of each transaction by bulk freeing. In
//! spite of cleaning up the heap every transaction, the default allocator
//! pays a cost for defragmentation activities in malloc and per-object free
//! functions" — specifically, "coalescing and splitting of objects" like
//! Doug Lea's allocator.
//!
//! Built on the shared [`BoundaryHeap`](crate::boundary::BoundaryHeap)
//! engine with unsorted (capped first-fit) large bins and Zend's 256 KB
//! heap segments; per-object boundary headers, split and coalesce included.

use crate::api::{
    enter_mm, exit_mm, round_up, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass,
    Footprint, OpStats,
};
use crate::boundary::{BoundaryHeap, HEADER, MIN_BLOCK};
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort};

/// Configuration of a [`PhpDefaultAlloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct PhpConfig {
    /// Arena ("segment" in Zend terms) size obtained from the OS.
    pub arena_bytes: u64,
    /// Maximum number of arenas.
    pub max_arenas: u32,
}

impl Default for PhpConfig {
    fn default() -> Self {
        // Zend MM grows its heap in 256 KB segments.
        PhpConfig {
            arena_bytes: 256 * 1024,
            max_arenas: 4096,
        }
    }
}

/// Zend-MM-style allocator: boundary tags, bins, split and coalesce, plus
/// the per-transaction bulk free the PHP runtime relies on.
///
/// # Examples
///
/// ```
/// use webmm_alloc::{Allocator, PhpConfig, PhpDefaultAlloc};
/// use webmm_sim::PlainPort;
///
/// let mut port = PlainPort::new();
/// let mut z = PhpDefaultAlloc::new(PhpConfig::default());
/// let a = z.malloc(&mut port, 100)?;
/// z.free(&mut port, a);
/// let b = z.malloc(&mut port, 100)?;
/// assert_eq!(a, b, "freed block is recycled");
/// z.free_all(&mut port);
/// # Ok::<(), webmm_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct PhpDefaultAlloc {
    heap: BoundaryHeap,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
}

impl PhpDefaultAlloc {
    /// Creates the allocator; the first arena is obtained lazily.
    pub fn new(config: PhpConfig) -> Self {
        PhpDefaultAlloc {
            heap: BoundaryHeap::with_exec_scale(config.arena_bytes, config.max_arenas, false, 0.7),
            code_id: None,
            stats: OpStats::default(),
        }
    }
}

impl webmm_obs::HeapTelemetry for PhpDefaultAlloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        webmm_obs::HeapSnapshot {
            allocator: "default allocator of the PHP runtime".into(),
            free_all_count: self.stats.free_alls,
            ..self.heap.snapshot()
        }
    }
}

impl Allocator for PhpDefaultAlloc {
    fn name(&self) -> &'static str {
        "default allocator of the PHP runtime"
    }

    fn alloc_traits(&self) -> AllocTraits {
        AllocTraits {
            bulk_free: true,
            per_object_free: true,
            defragmentation: true,
            cost: CostClass::High,
            bandwidth: BandwidthClass::Low,
        }
    }

    fn code_spec(&self) -> CodeSpec {
        // A full general-purpose allocator: bins, bitmap, split, coalesce.
        CodeSpec::new(28 * 1024, 5 * 1024)
    }

    fn malloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        size: u64,
    ) -> Result<Addr, AllocError> {
        if size == 0 {
            return Err(AllocError::InvalidRequest { requested: 0 });
        }
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        let r = self.heap.malloc(port, size);
        if r.is_ok() {
            self.stats.mallocs += 1;
            self.stats.bytes_requested += size;
        }
        exit_mm(port);
        r
    }

    fn free<P: MemoryPort + ?Sized>(&mut self, port: &mut P, addr: Addr) {
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        self.heap.free(port, addr);
        self.stats.frees += 1;
        exit_mm(port);
    }

    fn realloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        addr: Addr,
        _old_size: u64,
        new_size: u64,
    ) -> Result<Addr, AllocError> {
        if new_size == 0 {
            return Err(AllocError::InvalidRequest { requested: 0 });
        }
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        let usable = self.heap.usable(port, addr);
        exit_mm(port);
        if round_up(new_size, 8).max(MIN_BLOCK - HEADER) <= usable {
            self.stats.reallocs += 1;
            return Ok(addr);
        }
        let new = self.malloc(port, new_size)?;
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        port.memcpy(new, addr, usable.min(new_size));
        exit_mm(port);
        self.free(port, addr);
        self.stats.reallocs += 1;
        self.stats.mallocs -= 1; // internal plumbing, not API calls
        self.stats.frees -= 1;
        self.stats.bytes_requested -= new_size;
        Ok(new)
    }

    fn free_all<P: MemoryPort + ?Sized>(&mut self, port: &mut P) {
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        self.heap.reset(port);
        self.stats.free_alls += 1;
        exit_mm(port);
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            heap_bytes: self.heap.heap_bytes(),
            metadata_bytes: self.heap.metadata_bytes(),
            peak_tx_alloc_bytes: self.heap.peak_tx_alloc(),
        }
    }

    fn stats(&self) -> OpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_sim::PlainPort;

    fn php() -> PhpDefaultAlloc {
        PhpDefaultAlloc::new(PhpConfig {
            arena_bytes: 64 * 1024,
            max_arenas: 64,
        })
    }

    #[test]
    fn blocks_have_boundary_headers() {
        let mut port = PlainPort::new();
        let mut z = php();
        let a = z.malloc(&mut port, 24).unwrap();
        let b = z.malloc(&mut port, 24).unwrap();
        // 24 + 16 header → 40 bytes apart.
        assert_eq!(b - a, 40);
    }

    #[test]
    fn free_then_malloc_recycles_exact_fit() {
        let mut port = PlainPort::new();
        let mut z = php();
        let a = z.malloc(&mut port, 100).unwrap();
        let _guard = z.malloc(&mut port, 100).unwrap(); // prevent wilderness absorb
        z.free(&mut port, a);
        let b = z.malloc(&mut port, 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn split_returns_remainder_to_bins() {
        let mut port = PlainPort::new();
        let mut z = php();
        let a = z.malloc(&mut port, 1000).unwrap();
        let _guard = z.malloc(&mut port, 8).unwrap();
        z.free(&mut port, a);
        // A small request splits the 1016-byte free block.
        let b = z.malloc(&mut port, 100).unwrap();
        assert_eq!(b, a, "reuses the front of the split block");
        // The remainder serves the next request without growing the heap.
        let c = z.malloc(&mut port, 100).unwrap();
        assert!(c > b && c < a + 1016);
    }

    #[test]
    fn coalesce_with_next_and_prev() {
        let mut port = PlainPort::new();
        let mut z = php();
        let a = z.malloc(&mut port, 100).unwrap(); // 120-byte blocks
        let b = z.malloc(&mut port, 100).unwrap();
        let c = z.malloc(&mut port, 100).unwrap();
        let _guard = z.malloc(&mut port, 8).unwrap();
        // Free a and c, then b: b must merge with both neighbours.
        z.free(&mut port, a);
        z.free(&mut port, c);
        z.free(&mut port, b);
        // A 340-byte request fits only in the coalesced 360-byte block.
        let big = z.malloc(&mut port, 340).unwrap();
        assert_eq!(
            big, a,
            "coalesced block serves a request none of the parts could"
        );
    }

    #[test]
    fn wilderness_absorbs_trailing_free() {
        let mut port = PlainPort::new();
        let mut z = php();
        let a = z.malloc(&mut port, 100).unwrap();
        z.free(&mut port, a); // last block: absorbed into wilderness
        let b = z.malloc(&mut port, 200).unwrap();
        assert_eq!(b, a, "wilderness rewound over the freed block");
    }

    #[test]
    fn free_all_resets_heap() {
        let mut port = PlainPort::new();
        let mut z = php();
        let first = z.malloc(&mut port, 64).unwrap();
        for _ in 0..200 {
            z.malloc(&mut port, 128).unwrap();
        }
        z.free_all(&mut port);
        assert_eq!(z.malloc(&mut port, 64).unwrap(), first);
        assert_eq!(z.stats().free_alls, 1);
    }

    #[test]
    fn arena_growth_and_oom() {
        let mut port = PlainPort::new();
        let mut z = PhpDefaultAlloc::new(PhpConfig {
            arena_bytes: 4096,
            max_arenas: 2,
        });
        let mut n = 0;
        loop {
            match z.malloc(&mut port, 1000) {
                Ok(_) => n += 1,
                Err(AllocError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(n < 100, "OOM never hit");
        }
        assert!(n >= 6, "two 4 KB arenas hold at least 6 × 1016-byte blocks");
        assert_eq!(z.footprint().heap_bytes, 2 * 4096);
    }

    #[test]
    fn realloc_in_place_and_moving() {
        let mut port = PlainPort::new();
        let mut z = php();
        let a = z.malloc(&mut port, 64).unwrap();
        port.store_u64(a, 0xdada);
        assert_eq!(
            z.realloc(&mut port, a, 64, 60).unwrap(),
            a,
            "shrink in place"
        );
        let b = z.realloc(&mut port, a, 60, 4000).unwrap();
        assert_ne!(a, b);
        assert_eq!(port.memory().read_u64(b), 0xdada);
    }

    #[test]
    fn traits_match_table_1() {
        let z = php();
        let t = z.alloc_traits();
        assert!(t.bulk_free);
        assert!(t.per_object_free);
        assert!(t.defragmentation);
        assert_eq!(t.cost, CostClass::High);
        assert_eq!(t.bandwidth, BandwidthClass::Low);
    }

    #[test]
    fn defrag_makes_ops_costlier_than_ddmalloc() {
        // The paper's core cost claim, checked at the instruction level.
        use crate::ddmalloc::{DdConfig, DdMalloc};
        fn measure(alloc: &mut impl Allocator) -> u64 {
            let mut port = PlainPort::new();
            // Warm up, then measure a steady-state malloc/free churn.
            let mut objs: Vec<_> = (0..64)
                .map(|_| alloc.malloc(&mut port, 64).unwrap())
                .collect();
            let start = port.instructions();
            for _ in 0..1000 {
                let o = objs.pop().unwrap();
                alloc.free(&mut port, o);
                objs.push(alloc.malloc(&mut port, 64).unwrap());
            }
            port.instructions() - start
        }
        let php_cost = measure(&mut php());
        let dd_cost = measure(&mut DdMalloc::new(DdConfig::default()));
        assert!(
            php_cost as f64 > 1.4 * dd_cost as f64,
            "defragmentation must dominate: php={php_cost}, dd={dd_cost}"
        );
    }

    #[test]
    fn header_overhead_vs_ddmalloc() {
        // 16 bytes per object vs DDmalloc's zero: the space story of Fig 9.
        use crate::ddmalloc::{DdConfig, DdMalloc};
        let mut port = PlainPort::new();
        let mut z = php();
        let mut dd = DdMalloc::new(DdConfig::default());
        let za = z.malloc(&mut port, 64).unwrap();
        let zb = z.malloc(&mut port, 64).unwrap();
        let da = dd.malloc(&mut port, 64).unwrap();
        let db = dd.malloc(&mut port, 64).unwrap();
        assert_eq!(zb - za, 80);
        assert_eq!(db - da, 64);
    }
}
