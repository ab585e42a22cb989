//! GNU-obstack-style region allocator.
//!
//! The paper: "We also evaluated the GNU obstack as another region-based
//! allocator. However our own region-based allocator outperformed the
//! obstack for the PHP applications." We implement it anyway so that claim
//! can be checked: obstacks grow in much smaller chunks (default 4 KB in
//! glibc; we use 64 KB), keep a per-chunk header, and therefore hit the
//! chunk-refill path orders of magnitude more often than a 256 MB region.

use crate::api::{
    enter_mm, exit_mm, round_up, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass,
    Footprint, OpStats,
};
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort, PageSize};

/// Per-chunk header: `prev` chunk pointer + chunk limit (2 × u64).
const CHUNK_HEADER: u64 = 16;

/// Configuration of an [`ObstackAlloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ObstackConfig {
    /// Chunk size in bytes.
    pub chunk_bytes: u64,
    /// Maximum number of chunks.
    pub max_chunks: u32,
}

impl Default for ObstackConfig {
    fn default() -> Self {
        ObstackConfig {
            chunk_bytes: 64 * 1024,
            max_chunks: 16 * 1024,
        }
    }
}

/// Chunked bump allocator in the style of GNU obstacks.
///
/// Like [`RegionAlloc`](crate::RegionAlloc) it has no per-object free;
/// `free_all` rewinds to the first chunk (glibc's `obstack_free(h, NULL)`
/// frees every chunk; keeping the first matches our region allocator and
/// avoids re-reserving).
#[derive(Debug)]
pub struct ObstackAlloc {
    config: ObstackConfig,
    chunks: Vec<Addr>,
    current_chunk: usize,
    /// Bump cursor cell in simulated memory.
    cursor_addr: Option<Addr>,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
    tx_alloc_bytes: u64,
    peak_tx_alloc: u64,
    /// Telemetry mirror: objects bumped since the last rewind.
    tx_objs: u64,
}

impl ObstackAlloc {
    /// Creates an obstack; the first chunk is obtained lazily.
    pub fn new(config: ObstackConfig) -> Self {
        ObstackAlloc {
            config,
            chunks: Vec::new(),
            current_chunk: 0,
            cursor_addr: None,
            code_id: None,
            stats: OpStats::default(),
            tx_alloc_bytes: 0,
            peak_tx_alloc: 0,
            tx_objs: 0,
        }
    }

    fn init<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Addr {
        if let Some(c) = self.cursor_addr {
            return c;
        }
        let cursor_addr = port.os_alloc(64, 64, PageSize::Base);
        let chunk = self.new_chunk(port, Addr::new(0));
        port.store_u64(cursor_addr, (chunk + CHUNK_HEADER).raw());
        self.chunks.push(chunk);
        self.cursor_addr = Some(cursor_addr);
        cursor_addr
    }

    fn new_chunk<P: MemoryPort + ?Sized>(&mut self, port: &mut P, prev: Addr) -> Addr {
        let chunk = port.os_alloc(self.config.chunk_bytes, 4096, PageSize::Base);
        // Chunk header: previous-chunk link and limit, as glibc obstacks do.
        port.store_u64(chunk, prev.raw());
        port.store_u64(chunk + 8, (chunk + self.config.chunk_bytes).raw());
        port.exec(8);
        chunk
    }
}

impl webmm_obs::HeapTelemetry for ObstackAlloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        webmm_obs::HeapSnapshot {
            allocator: "GNU obstack".into(),
            heap_bytes: self.chunks.len() as u64 * self.config.chunk_bytes,
            touched_bytes: self.peak_tx_alloc,
            metadata_bytes: 64 + self.chunks.len() as u64 * CHUNK_HEADER,
            tx_live_bytes: self.tx_alloc_bytes,
            peak_tx_bytes: self.peak_tx_alloc,
            segments: self.chunks.len() as u64,
            free_all_count: self.stats.free_alls,
            classes: vec![webmm_obs::ClassOccupancy {
                class: 0,
                object_size: 0,
                live: self.tx_objs,
                free: 0,
            }],
            ..webmm_obs::HeapSnapshot::default()
        }
    }
}

impl Allocator for ObstackAlloc {
    fn name(&self) -> &'static str {
        "GNU obstack"
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
        CodeSpec::new(3 * 1024, 1536)
    }

    fn malloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        size: u64,
    ) -> Result<Addr, AllocError> {
        if size == 0 {
            return Err(AllocError::InvalidRequest { requested: 0 });
        }
        let rounded = round_up(size, 8);
        if rounded > self.config.chunk_bytes - CHUNK_HEADER {
            return Err(AllocError::InvalidRequest { requested: size });
        }
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        let cursor_addr = self.init(port);
        let cursor = Addr::new(port.load_u64(cursor_addr));
        // Bounds check against the chunk limit stored in the chunk header.
        let chunk = self.chunks[self.current_chunk];
        let limit = Addr::new(port.load_u64(chunk + 8));
        port.exec(7);

        let obj = if cursor + rounded <= limit {
            port.store_u64(cursor_addr, (cursor + rounded).raw());
            cursor
        } else {
            if self.chunks.len() >= self.config.max_chunks as usize
                && self.current_chunk + 1 >= self.chunks.len()
            {
                exit_mm(port);
                return Err(AllocError::OutOfMemory { requested: size });
            }
            self.current_chunk += 1;
            let next = if self.current_chunk < self.chunks.len() {
                self.chunks[self.current_chunk]
            } else {
                let c = self.new_chunk(port, chunk);
                self.chunks.push(c);
                c
            };
            port.store_u64(cursor_addr, (next + CHUNK_HEADER + rounded).raw());
            port.exec(6);
            next + CHUNK_HEADER
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
        self.stats.frees += 1; // no-op: obstacks free by rewinding only
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
        port.store_u64(cursor_addr, (self.chunks[0] + CHUNK_HEADER).raw());
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
            metadata_bytes: 64 + self.chunks.len() as u64 * CHUNK_HEADER,
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

    fn ob() -> ObstackAlloc {
        ObstackAlloc::new(ObstackConfig {
            chunk_bytes: 4096,
            max_chunks: 4,
        })
    }

    #[test]
    fn bump_with_chunk_headers() {
        let mut port = PlainPort::new();
        let mut o = ob();
        let a = o.malloc(&mut port, 8).unwrap();
        let b = o.malloc(&mut port, 8).unwrap();
        assert_eq!(b - a, 8);
        // First object sits after the 16-byte chunk header.
        assert_eq!(a.offset_in(4096), CHUNK_HEADER);
    }

    #[test]
    fn chunk_spill_links_chunks() {
        let mut port = PlainPort::new();
        let mut o = ob();
        let a = o.malloc(&mut port, 4000).unwrap();
        let b = o.malloc(&mut port, 4000).unwrap();
        assert!(b.raw() > a.raw() + 4000);
        // The second chunk's header links back to the first.
        let chunk1 = b.align_down(4096);
        assert_eq!(port.memory().read_u64(chunk1), a.align_down(4096).raw());
    }

    #[test]
    fn free_all_rewinds() {
        let mut port = PlainPort::new();
        let mut o = ob();
        let a = o.malloc(&mut port, 100).unwrap();
        o.malloc(&mut port, 4000).unwrap();
        o.free_all(&mut port);
        assert_eq!(o.malloc(&mut port, 100).unwrap(), a);
    }

    #[test]
    fn oom_and_invalid() {
        let mut port = PlainPort::new();
        let mut o = ob();
        assert!(o.malloc(&mut port, 0).is_err());
        assert!(o.malloc(&mut port, 5000).is_err()); // exceeds chunk payload
        for _ in 0..4 {
            o.malloc(&mut port, 4000).unwrap();
        }
        assert!(matches!(
            o.malloc(&mut port, 4000),
            Err(AllocError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn refills_more_often_than_big_regions() {
        // The paper's reason obstack lost to their 256 MB region allocator.
        let mut port = PlainPort::new();
        let mut o = ObstackAlloc::new(ObstackConfig {
            chunk_bytes: 4096,
            max_chunks: 256,
        });
        for _ in 0..1000 {
            o.malloc(&mut port, 512).unwrap();
        }
        // 7 objects per 4 KB chunk → ~143 chunk refills for 1000 objects.
        assert!(o.footprint().heap_bytes >= 125 * 4096);
    }
}
