//! Doug-Lea-style allocator (the glibc malloc stand-in of §4.4).
//!
//! The paper describes Lea's allocator as one "which sorts all of the
//! objects in the free lists in order of their size to easily find the best
//! object to allocate for a request, coalesces multiple small objects into
//! large objects, and splits large objects into small objects in response
//! to requests" — the canonical defragmenting general-purpose design, and
//! the `glibc-2.5` baseline of the Ruby on Rails comparison (Figures
//! 10-12).
//!
//! Built on the shared [`BoundaryHeap`](crate::boundary::BoundaryHeap)
//! engine with **sorted** large bins (best fit) and brk-style 1 MB arenas.
//! Unlike the PHP default allocator it has **no bulk free**: the only way
//! the Ruby runtime cleans this heap is by restarting the process.

use crate::api::{
    enter_mm, exit_mm, round_up, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass,
    Footprint, OpStats,
};
use crate::boundary::{BoundaryHeap, HEADER, MIN_BLOCK};
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort};

/// Configuration of a [`DlAlloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct DlConfig {
    /// Heap growth granularity (brk-style extension).
    pub arena_bytes: u64,
    /// Maximum number of arenas.
    pub max_arenas: u32,
}

impl Default for DlConfig {
    fn default() -> Self {
        DlConfig {
            arena_bytes: 1024 * 1024,
            max_arenas: 1024,
        }
    }
}

/// Best-fit boundary-tag allocator in the style of Doug Lea's malloc.
///
/// # Examples
///
/// ```
/// use webmm_alloc::{Allocator, DlAlloc, DlConfig};
/// use webmm_sim::PlainPort;
///
/// let mut port = PlainPort::new();
/// let mut m = DlAlloc::new(DlConfig::default());
/// let a = m.malloc(&mut port, 100)?;
/// m.free(&mut port, a);
/// assert!(!m.alloc_traits().bulk_free, "glibc has no freeAll");
/// # Ok::<(), webmm_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct DlAlloc {
    heap: BoundaryHeap,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
}

impl DlAlloc {
    /// Creates the allocator; the heap is obtained lazily.
    pub fn new(config: DlConfig) -> Self {
        DlAlloc {
            heap: BoundaryHeap::new(config.arena_bytes, config.max_arenas, true),
            code_id: None,
            stats: OpStats::default(),
        }
    }
}

impl webmm_obs::HeapTelemetry for DlAlloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        webmm_obs::HeapSnapshot {
            allocator: "glibc".into(),
            // No freeAll here, ever: free_all_count stays 0.
            ..self.heap.snapshot()
        }
    }
}

impl Allocator for DlAlloc {
    fn name(&self) -> &'static str {
        "glibc"
    }

    fn alloc_traits(&self) -> AllocTraits {
        AllocTraits {
            bulk_free: false,
            per_object_free: true,
            defragmentation: true,
            cost: CostClass::High,
            bandwidth: BandwidthClass::Low,
        }
    }

    fn code_spec(&self) -> CodeSpec {
        // Bin sorting and best-fit selection on top of the usual machinery.
        CodeSpec::new(24 * 1024, 5 * 1024)
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
        self.stats.mallocs -= 1;
        self.stats.frees -= 1;
        self.stats.bytes_requested -= new_size;
        Ok(new)
    }

    /// # Panics
    ///
    /// Always panics: glibc malloc has no bulk-free interface. The runtime
    /// checks [`AllocTraits::bulk_free`] and restarts the process instead
    /// (§4.4).
    fn free_all<P: MemoryPort + ?Sized>(&mut self, _port: &mut P) {
        panic!("glibc malloc does not support freeAll; restart the process instead");
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

    fn dl() -> DlAlloc {
        DlAlloc::new(DlConfig {
            arena_bytes: 64 * 1024,
            max_arenas: 16,
        })
    }

    #[test]
    fn best_fit_selection() {
        let mut port = PlainPort::new();
        let mut m = dl();
        let big = m.malloc(&mut port, 8000).unwrap();
        m.malloc(&mut port, 64).unwrap(); // guard
        let snug = m.malloc(&mut port, 5000).unwrap();
        m.malloc(&mut port, 64).unwrap(); // guard
        m.free(&mut port, big);
        m.free(&mut port, snug);
        // Sorted bins: best fit picks the 5000-byte block for 4500 bytes.
        assert_eq!(m.malloc(&mut port, 4500).unwrap(), snug);
    }

    #[test]
    fn coalescing_keeps_heap_compact_over_churn() {
        let mut port = PlainPort::new();
        let mut m = dl();
        // Sustained churn with full drain each round: coalescing + the
        // wilderness absorb keep the heap from growing.
        for _ in 0..50 {
            let objs: Vec<_> = (0..100)
                .map(|i| m.malloc(&mut port, 40 + (i % 7) * 24).unwrap())
                .collect();
            for o in objs {
                m.free(&mut port, o);
            }
        }
        assert_eq!(
            m.footprint().heap_bytes,
            64 * 1024,
            "one arena suffices forever"
        );
    }

    #[test]
    #[should_panic(expected = "does not support freeAll")]
    fn free_all_panics() {
        let mut port = PlainPort::new();
        let mut m = dl();
        m.malloc(&mut port, 8).unwrap();
        m.free_all(&mut port);
    }

    #[test]
    fn traits_match_table_1() {
        let t = dl().alloc_traits();
        assert!(!t.bulk_free);
        assert!(t.per_object_free);
        assert!(t.defragmentation);
        assert_eq!(t.cost, CostClass::High);
    }

    #[test]
    fn realloc_roundtrip() {
        let mut port = PlainPort::new();
        let mut m = dl();
        let a = m.malloc(&mut port, 32).unwrap();
        port.store_u64(a, 99);
        let b = m.realloc(&mut port, a, 32, 2000).unwrap();
        assert_eq!(port.memory().read_u64(b), 99);
        let c = m.realloc(&mut port, b, 2000, 100).unwrap();
        assert_eq!(c, b, "shrink in place");
    }
}
