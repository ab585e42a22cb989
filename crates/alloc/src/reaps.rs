//! Reaps-style allocator (related work, §6).
//!
//! Berger, Zorn & McKinley's *Reaps* [9] "combines the conventional
//! malloc/free and the region-based memory management ... it supports both
//! per-object free and bulk free for all of the objects in a region. In
//! contrast to ours, their allocator acts in almost the same way as Doug
//! Lea's allocator for per-object free ... Thus the Reaps also pays cost
//! of the defragmentation activities, which is excessive for short-lived
//! transactions in Web-based applications, like the default allocator of
//! the PHP runtime."
//!
//! Implemented as the shared boundary-tag engine (Lea-style sorted bins,
//! split, coalesce) *plus* the bulk `free_all` reset — exactly the
//! combination the paper describes. Comparing it against DDmalloc isolates
//! the paper's thesis: bulk free alone is not the win; *dodging
//! defragmentation* is (see the `reaps_vs_ddmalloc` ablation).

use crate::api::{
    enter_mm, exit_mm, round_up, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass,
    Footprint, OpStats,
};
use crate::boundary::{BoundaryHeap, HEADER, MIN_BLOCK};
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort};

/// Configuration of a [`ReapAlloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ReapConfig {
    /// Region growth granularity.
    pub arena_bytes: u64,
    /// Maximum number of arenas.
    pub max_arenas: u32,
}

impl Default for ReapConfig {
    fn default() -> Self {
        ReapConfig {
            arena_bytes: 256 * 1024,
            max_arenas: 4096,
        }
    }
}

/// Reap: a region with full Lea-style malloc/free inside it.
///
/// # Examples
///
/// ```
/// use webmm_alloc::{Allocator, ReapAlloc, ReapConfig};
/// use webmm_sim::PlainPort;
///
/// let mut port = PlainPort::new();
/// let mut reap = ReapAlloc::new(ReapConfig::default());
/// let a = reap.malloc(&mut port, 100)?;
/// reap.free(&mut port, a);      // per-object free: Lea-style
/// reap.free_all(&mut port);     // bulk free: region-style
/// # Ok::<(), webmm_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct ReapAlloc {
    heap: BoundaryHeap,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
}

impl ReapAlloc {
    /// Creates the allocator; memory is obtained lazily.
    pub fn new(config: ReapConfig) -> Self {
        ReapAlloc {
            heap: BoundaryHeap::new(config.arena_bytes, config.max_arenas, true),
            code_id: None,
            stats: OpStats::default(),
        }
    }
}

impl webmm_obs::HeapTelemetry for ReapAlloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        webmm_obs::HeapSnapshot {
            allocator: "Reaps".into(),
            free_all_count: self.stats.free_alls,
            ..self.heap.snapshot()
        }
    }
}

impl Allocator for ReapAlloc {
    fn name(&self) -> &'static str {
        "Reaps"
    }

    fn alloc_traits(&self) -> AllocTraits {
        AllocTraits {
            bulk_free: true,
            per_object_free: true,
            defragmentation: true, // the point of the comparison
            cost: CostClass::High,
            bandwidth: BandwidthClass::Low,
        }
    }

    fn code_spec(&self) -> CodeSpec {
        CodeSpec::new(26 * 1024, 5 * 1024)
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
    use crate::ddmalloc::{DdConfig, DdMalloc};
    use webmm_sim::PlainPort;

    fn reap() -> ReapAlloc {
        ReapAlloc::new(ReapConfig {
            arena_bytes: 64 * 1024,
            max_arenas: 64,
        })
    }

    #[test]
    fn both_free_modes_work() {
        let mut port = PlainPort::new();
        let mut r = reap();
        let a = r.malloc(&mut port, 100).unwrap();
        let guard = r.malloc(&mut port, 100).unwrap();
        r.free(&mut port, a);
        assert_eq!(r.malloc(&mut port, 100).unwrap(), a, "Lea-style recycling");
        r.free_all(&mut port);
        let fresh = r.malloc(&mut port, 100).unwrap();
        assert!(fresh == a || fresh < guard, "bulk free rewound the region");
        assert_eq!(r.stats().free_alls, 1);
    }

    #[test]
    fn pays_defrag_cost_unlike_ddmalloc() {
        // The paper's §6 point, measured: Reaps' per-object free costs
        // Lea-allocator instructions even though it also has freeAll.
        fn measure(alloc: &mut impl Allocator) -> u64 {
            let mut port = PlainPort::new();
            let mut objs: Vec<_> = (0..64)
                .map(|_| alloc.malloc(&mut port, 64).unwrap())
                .collect();
            let start = port.instructions();
            for _ in 0..500 {
                let o = objs.pop().unwrap();
                alloc.free(&mut port, o);
                objs.push(alloc.malloc(&mut port, 64).unwrap());
            }
            port.instructions() - start
        }
        let reap_cost = measure(&mut reap());
        let dd_cost = measure(&mut DdMalloc::new(DdConfig::default()));
        assert!(
            reap_cost as f64 > 1.8 * dd_cost as f64,
            "Reaps must pay defragmentation costs: {reap_cost} vs dd {dd_cost}"
        );
    }

    #[test]
    fn traits_combine_region_and_gp() {
        let t = reap().alloc_traits();
        assert!(t.bulk_free && t.per_object_free && t.defragmentation);
    }
}
