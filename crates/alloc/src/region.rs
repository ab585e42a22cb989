//! The paper's region-based allocator (§4.1).
//!
//! "Our region-based allocator obtains a 256 MB chunk of memory from the
//! operating system at startup time and allocates memory objects from the
//! top of the chunk by simply incrementing a pointer showing the next
//! position to allocate. It rounds up the requested size to a multiple of
//! 8 bytes ... When the pointer reaches the end of the chunk, the allocator
//! obtains the next 256 MB chunk."
//!
//! There is **no per-object free**: dead objects keep their memory until
//! `freeAll` resets the bump pointer. This is the allocator whose
//! cache-polluting, bandwidth-hungry behaviour the paper dissects — within
//! a transaction it streams through fresh cache lines forever.

use crate::api::{
    enter_mm, exit_mm, round_up, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass,
    Footprint, OpStats,
};
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort, PageSize};

/// Configuration of a [`RegionAlloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct RegionConfig {
    /// Chunk size obtained from the OS (the paper uses 256 MB; "one 256 MB
    /// chunk was large enough for most of the PHP transactions").
    pub chunk_bytes: u64,
    /// Maximum number of chunks before reporting out-of-memory.
    pub max_chunks: u32,
    /// Map chunks with large pages.
    pub large_pages: bool,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            chunk_bytes: 256 * 1024 * 1024,
            max_chunks: 8,
            large_pages: false,
        }
    }
}

/// Bump-pointer region allocator without per-object free.
///
/// # Examples
///
/// ```
/// use webmm_alloc::{Allocator, RegionAlloc, RegionConfig};
/// use webmm_sim::PlainPort;
///
/// let mut port = PlainPort::new();
/// let mut r = RegionAlloc::new(RegionConfig::default());
/// let a = r.malloc(&mut port, 10)?;
/// let b = r.malloc(&mut port, 10)?;
/// assert_eq!(b - a, 16, "10 bytes round up to 16; objects are adjacent");
/// r.free_all(&mut port);
/// assert_eq!(r.malloc(&mut port, 10)?, a, "freeAll resets the bump pointer");
/// # Ok::<(), webmm_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct RegionAlloc {
    config: RegionConfig,
    /// Chunk base addresses, in allocation order.
    chunks: Vec<Addr>,
    /// Address of the bump cursor cell (kept in simulated memory so the
    /// cursor update traffic is modeled — it is the allocator's only hot
    /// metadata line).
    cursor_addr: Option<Addr>,
    /// Index of the chunk the cursor currently points into.
    current_chunk: usize,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
    tx_alloc_bytes: u64,
    peak_tx_alloc: u64,
    /// Telemetry mirror: objects bumped since the last `freeAll` (nothing
    /// is ever individually freed, so this only grows within a
    /// transaction).
    tx_objs: u64,
}

impl RegionAlloc {
    /// Creates a region allocator; the first chunk is obtained lazily.
    pub fn new(config: RegionConfig) -> Self {
        RegionAlloc {
            config,
            chunks: Vec::new(),
            cursor_addr: None,
            current_chunk: 0,
            code_id: None,
            stats: OpStats::default(),
            tx_alloc_bytes: 0,
            peak_tx_alloc: 0,
            tx_objs: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RegionConfig {
        &self.config
    }

    fn pages(&self) -> PageSize {
        if self.config.large_pages {
            PageSize::Large
        } else {
            PageSize::Base
        }
    }

    fn init<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Addr {
        if let Some(c) = self.cursor_addr {
            return c;
        }
        let cursor_addr = port.os_alloc(64, 64, PageSize::Base);
        let chunk = port.os_alloc(self.config.chunk_bytes, 4096, self.pages());
        port.store_u64(cursor_addr, chunk.raw());
        self.chunks.push(chunk);
        self.cursor_addr = Some(cursor_addr);
        self.current_chunk = 0;
        cursor_addr
    }
}

impl webmm_obs::HeapTelemetry for RegionAlloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        webmm_obs::HeapSnapshot {
            allocator: "region-based allocator".into(),
            heap_bytes: self.chunks.len() as u64 * self.config.chunk_bytes,
            // The region streams through fresh lines and never reuses
            // within a transaction, so the paper's Fig. 9 measure — bytes
            // allocated during a transaction — is its touched footprint.
            touched_bytes: self.peak_tx_alloc,
            metadata_bytes: 64,
            tx_live_bytes: self.tx_alloc_bytes,
            peak_tx_bytes: self.peak_tx_alloc,
            segments: self.chunks.len() as u64,
            free_all_count: self.stats.free_alls,
            classes: vec![webmm_obs::ClassOccupancy {
                class: 0,
                object_size: 0, // bump allocation: no size classes
                live: self.tx_objs,
                free: 0, // no free lists, ever
            }],
            ..webmm_obs::HeapSnapshot::default()
        }
    }
}

impl Allocator for RegionAlloc {
    fn name(&self) -> &'static str {
        "region-based allocator"
    }

    fn alloc_traits(&self) -> AllocTraits {
        AllocTraits {
            bulk_free: true,
            per_object_free: false,
            defragmentation: false,
            cost: CostClass::Lowest,
            bandwidth: BandwidthClass::High,
        }
    }

    fn code_spec(&self) -> CodeSpec {
        // A pointer increment and a bounds check: tiny, always L1I-resident.
        CodeSpec::new(2 * 1024, 1024)
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
        let cursor_addr = self.init(port);
        let rounded = round_up(size, 8);

        let cursor = Addr::new(port.load_u64(cursor_addr));
        let chunk_base = self.chunks[self.current_chunk];
        let chunk_end = chunk_base + self.config.chunk_bytes;
        port.exec(5);

        let obj = if cursor + rounded <= chunk_end {
            port.store_u64(cursor_addr, (cursor + rounded).raw());
            cursor
        } else {
            // "When the pointer reaches the end of the chunk, the allocator
            // obtains the next 256 MB chunk."
            if rounded > self.config.chunk_bytes {
                exit_mm(port);
                return Err(AllocError::InvalidRequest { requested: size });
            }
            if self.current_chunk + 1 >= self.config.max_chunks as usize
                && self.chunks.len() >= self.config.max_chunks as usize
            {
                exit_mm(port);
                return Err(AllocError::OutOfMemory { requested: size });
            }
            self.current_chunk += 1;
            let next = if self.current_chunk < self.chunks.len() {
                self.chunks[self.current_chunk]
            } else {
                let c = port.os_alloc(self.config.chunk_bytes, 4096, self.pages());
                self.chunks.push(c);
                c
            };
            port.store_u64(cursor_addr, (next + rounded).raw());
            port.exec(10);
            next
        };

        self.stats.mallocs += 1;
        self.stats.bytes_requested += size;
        self.tx_alloc_bytes += rounded;
        self.peak_tx_alloc = self.peak_tx_alloc.max(self.tx_alloc_bytes);
        self.tx_objs += 1;
        exit_mm(port);
        Ok(obj)
    }

    fn free<P: MemoryPort + ?Sized>(&mut self, _port: &mut P, _addr: Addr) {
        // No per-object free. The porting recipe removes the calls; if one
        // arrives anyway it is a semantic no-op, like apr_pool free.
        self.stats.frees += 1;
    }

    fn realloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        addr: Addr,
        old_size: u64,
        new_size: u64,
    ) -> Result<Addr, AllocError> {
        if new_size == 0 {
            return Err(AllocError::InvalidRequest { requested: 0 });
        }
        // Headerless: the old object's size is only known to the caller.
        if new_size <= round_up(old_size, 8) {
            self.stats.reallocs += 1;
            return Ok(addr);
        }
        let new = self.malloc(port, new_size)?;
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        port.memcpy(new, addr, old_size.min(new_size));
        exit_mm(port);
        self.stats.reallocs += 1;
        self.stats.mallocs -= 1; // internal plumbing
        self.stats.bytes_requested -= new_size;
        Ok(new)
    }

    fn free_all<P: MemoryPort + ?Sized>(&mut self, port: &mut P) {
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        let cursor_addr = self.init(port);
        port.store_u64(cursor_addr, self.chunks[0].raw());
        self.current_chunk = 0;
        port.exec(4);
        self.stats.free_alls += 1;
        self.tx_alloc_bytes = 0;
        self.tx_objs = 0;
        exit_mm(port);
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            heap_bytes: self.chunks.len() as u64 * self.config.chunk_bytes,
            metadata_bytes: 64,
            // Figure 9 counts "the total amount of memory allocated during
            // a transaction" for the region allocator.
            peak_tx_alloc_bytes: self.peak_tx_alloc,
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

    fn small() -> RegionAlloc {
        RegionAlloc::new(RegionConfig {
            chunk_bytes: 4096,
            max_chunks: 3,
            large_pages: false,
        })
    }

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut port = PlainPort::new();
        let mut r = small();
        let a = r.malloc(&mut port, 1).unwrap();
        let b = r.malloc(&mut port, 9).unwrap();
        let c = r.malloc(&mut port, 8).unwrap();
        assert_eq!(b - a, 8);
        assert_eq!(c - b, 16);
    }

    #[test]
    fn never_reuses_within_a_transaction() {
        let mut port = PlainPort::new();
        let mut r = small();
        let a = r.malloc(&mut port, 64).unwrap();
        r.free(&mut port, a); // no-op
        let b = r.malloc(&mut port, 64).unwrap();
        assert_ne!(a, b, "per-object free must not recycle memory");
        assert_eq!(b - a, 64);
    }

    #[test]
    fn chunk_overflow_obtains_next_chunk() {
        let mut port = PlainPort::new();
        let mut r = small();
        let a = r.malloc(&mut port, 4000).unwrap();
        let b = r.malloc(&mut port, 200).unwrap(); // doesn't fit chunk 0
        assert!(b.raw() >= a.raw() + 4096 || b.raw() >= a.raw() + 4000);
        assert_eq!(r.footprint().heap_bytes, 2 * 4096);
    }

    #[test]
    fn free_all_rewinds_to_first_chunk() {
        let mut port = PlainPort::new();
        let mut r = small();
        let first = r.malloc(&mut port, 100).unwrap();
        r.malloc(&mut port, 4000).unwrap(); // spills into chunk 1
        r.free_all(&mut port);
        assert_eq!(r.malloc(&mut port, 100).unwrap(), first);
        // Existing chunks are kept and reused, not re-reserved.
        r.malloc(&mut port, 4000).unwrap();
        assert_eq!(r.footprint().heap_bytes, 2 * 4096);
    }

    #[test]
    fn oom_after_max_chunks() {
        let mut port = PlainPort::new();
        let mut r = small();
        for _ in 0..3 {
            r.malloc(&mut port, 4096).unwrap();
        }
        assert!(matches!(
            r.malloc(&mut port, 8),
            Err(AllocError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn oversized_request_rejected() {
        let mut port = PlainPort::new();
        let mut r = small();
        assert!(matches!(
            r.malloc(&mut port, 1 << 20),
            Err(AllocError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn realloc_copies_with_caller_size() {
        let mut port = PlainPort::new();
        let mut r = small();
        let a = r.malloc(&mut port, 16).unwrap();
        port.store_u64(a, 7);
        let b = r.realloc(&mut port, a, 16, 64).unwrap();
        assert_ne!(a, b);
        assert_eq!(port.memory().read_u64(b), 7);
        // Shrinking stays in place.
        assert_eq!(r.realloc(&mut port, b, 64, 32).unwrap(), b);
    }

    #[test]
    fn traits_match_table_1() {
        let r = small();
        let t = r.alloc_traits();
        assert!(t.bulk_free);
        assert!(!t.per_object_free);
        assert!(!t.defragmentation);
        assert_eq!(t.cost, CostClass::Lowest);
        assert_eq!(t.bandwidth, BandwidthClass::High);
    }

    #[test]
    fn peak_tx_alloc_tracks_per_transaction_footprint() {
        let mut port = PlainPort::new();
        let mut r = small();
        r.malloc(&mut port, 1000).unwrap();
        r.free_all(&mut port);
        r.malloc(&mut port, 2000).unwrap();
        r.malloc(&mut port, 1000).unwrap();
        assert_eq!(r.footprint().peak_tx_alloc_bytes, 3000);
        r.free_all(&mut port);
        assert_eq!(
            r.footprint().peak_tx_alloc_bytes,
            3000,
            "peak survives freeAll"
        );
    }
}
