//! DDmalloc: the paper's defrag-dodging allocator (§3).
//!
//! A heap is an array of fixed-size, alignment-restricted *segments* plus a
//! small metadata block. Each segment is dedicated to one size class and
//! used as an array of equal-sized objects with **no per-object headers**.
//! Per size class the metadata holds the head of a singly-linked free list
//! (chained through the freed objects themselves, reused in LIFO order) and
//! a *tail* pointer into the segment currently being carved; the number of
//! still-unallocated objects is stored **at the top of the unallocated
//! objects** (paper Figure 3). Large objects (bigger than half a segment)
//! take whole segments, found by scanning the size-class byte array.
//!
//! There is no coalescing, no splitting, no sorting — ever. `freeAll`
//! resets only the metadata, whose cost is "almost negligible" next to the
//! heap itself.
//!
//! The three optimizations of §3.3 are implemented: process-id-based
//! metadata placement (associativity-conflict avoidance on Niagara's tiny
//! shared L1), large-page heap mappings, and lock-free per-process heaps
//! (trivially true here: one allocator per simulated process).
//!
//! One engineering refinement beyond the paper's text: each size class
//! retains its *primary segment* across `freeAll` (the binding is
//! re-initialized rather than discarded). Without it, the class→segment
//! assignment would reshuffle every transaction with the first-malloc
//! order, needlessly cycling the heap's hot lines through different
//! physical addresses; retention keeps the per-transaction working set at
//! stable addresses, which is what a production implementation would do.

mod size_class;

pub use size_class::{ClassMapping, SizeClasses};

use crate::api::{
    enter_mm, exit_mm, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass, Footprint,
    OpStats,
};
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort, PageSize};

/// Marker in the size-class byte array: segment is part of a large object.
const SEG_LARGE: u8 = 255;
/// Marker: segment unused.
const SEG_FREE: u8 = 0;

/// Configuration of a [`DdMalloc`] heap.
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct DdConfig {
    /// Segment size in bytes (the paper uses 32 KB, chosen by measurement).
    pub segment_bytes: u64,
    /// Maximum number of segments (heap capacity = product of the two).
    pub max_segments: u32,
    /// Map the heap with 4 MB pages (§3.3 optimization 2; the paper enables
    /// it on Niagara, disables it on Xeon for fairness).
    pub large_pages: bool,
    /// Offset the metadata block by a per-process stride to avoid cache
    /// associativity conflicts between runtimes (§3.3 optimization 1).
    pub metadata_offset: bool,
    /// Simulated process id feeding the metadata offset.
    pub pid: u32,
    /// Size-class mapping policy (§3.2; ablation parameter).
    pub mapping: ClassMapping,
}

impl Default for DdConfig {
    fn default() -> Self {
        DdConfig {
            segment_bytes: 32 * 1024,
            max_segments: 16 * 1024, // 512 MB of heap address space
            large_pages: false,
            metadata_offset: true,
            pid: 0,
            mapping: ClassMapping::Paper,
        }
    }
}

/// Resolved heap layout (addresses inside the simulated address space).
#[derive(Copy, Clone, Debug)]
struct Layout {
    /// chain_head[class]: head of the per-class free list.
    chain_base: Addr,
    /// tail_ptr[class]: next carve position in the class's open segment.
    tail_base: Addr,
    /// hint[class]: the segment index this class used last — checked first
    /// on segment acquisition so a class reclaims "its" segment after
    /// `freeAll`, keeping the class→segment binding (and therefore the
    /// cache-resident working set) stable across transactions.
    hint_base: Addr,
    /// seg_class[segment]: one byte per segment.
    class_map: Addr,
    /// large_span[segment]: u32 span length for large-object starts.
    span_base: Addr,
    /// Scalar metadata: rotor (next-fit scan position).
    rotor_addr: Addr,
    /// Scalar metadata: high-water segment count.
    hw_addr: Addr,
    /// First segment.
    seg_base: Addr,
}

/// The defrag-dodging allocator.
///
/// # Examples
///
/// ```
/// use webmm_alloc::{Allocator, DdConfig, DdMalloc};
/// use webmm_sim::PlainPort;
///
/// let mut port = PlainPort::new();
/// let mut dd = DdMalloc::new(DdConfig::default());
/// let a = dd.malloc(&mut port, 48)?;
/// let b = dd.malloc(&mut port, 48)?;
/// dd.free(&mut port, a);
/// let c = dd.malloc(&mut port, 48)?;
/// assert_eq!(a, c, "freed objects are reused in LIFO order");
/// dd.free_all(&mut port);
/// # Ok::<(), webmm_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct DdMalloc {
    config: DdConfig,
    classes: SizeClasses,
    layout: Option<Layout>,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
    /// Rust-side mirror of the high-water mark, for `footprint()` (which
    /// has no port to read simulated memory through).
    hw_mirror: u64,
    tx_alloc_bytes: u64,
    /// Folded lazily: updated only where `tx_alloc_bytes` can shrink
    /// (`free` / `free_all`), so the malloc fast path skips the max.
    /// Readers take `max(peak_tx_alloc, tx_alloc_bytes)`.
    peak_tx_alloc: u64,
    /// Telemetry mirrors (never read by the simulation): per-class live
    /// object and free-list-length counts, which classes hold a primary
    /// segment, segments currently marked used, and cumulative `freeAll`
    /// wall cost.
    ///
    /// `class_live`/`class_free` are cleared *lazily*: `free_all` bumps
    /// `epoch` instead of zeroing both vectors, and an entry only counts
    /// when `class_epoch[c] == epoch` (hot paths refresh stale entries
    /// through [`DdMalloc::touch_class`]). This keeps `free_all` — called
    /// once per transaction — O(1) on the Rust side regardless of how
    /// many size classes the mapping produces.
    class_live: Vec<u64>,
    class_free: Vec<u64>,
    class_epoch: Vec<u64>,
    epoch: u64,
    hint_set: Vec<bool>,
    /// Count of `true` entries in `hint_set`, maintained incrementally so
    /// `free_all` does not rescan the vector.
    hint_count: u64,
    segs_used: u64,
}

impl DdMalloc {
    /// Creates a DDmalloc heap with the given configuration. The heap is
    /// materialized lazily on first allocation.
    pub fn new(config: DdConfig) -> Self {
        let classes = SizeClasses::new(config.segment_bytes, config.mapping);
        let n = classes.count();
        DdMalloc {
            config,
            classes,
            layout: None,
            code_id: None,
            stats: OpStats::default(),
            hw_mirror: 0,
            tx_alloc_bytes: 0,
            peak_tx_alloc: 0,
            class_live: vec![0; n],
            class_free: vec![0; n],
            class_epoch: vec![0; n],
            epoch: 0,
            hint_set: vec![false; n],
            hint_count: 0,
            segs_used: 0,
        }
    }

    /// The heap configuration.
    pub fn config(&self) -> &DdConfig {
        &self.config
    }

    fn layout<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Layout {
        if let Some(l) = self.layout {
            return l;
        }
        let n_classes = self.classes.count() as u64;
        let n_segs = u64::from(self.config.max_segments);
        // chain heads + tails + hints + class bytes + span words +
        // 2 scalars, with headroom for the pid-based placement offset.
        let meta_len = n_classes * 24 + n_segs + n_segs * 4 + 16;
        let offset = if self.config.metadata_offset {
            // Stride the metadata start across cache sets per process
            // (§3.3): 64-byte lines, 61 distinct positions (prime, so pids
            // spread over sets rather than aliasing).
            u64::from(self.config.pid % 61) * 64
        } else {
            0
        };
        let meta = port.os_alloc(meta_len + 61 * 64, 4096, PageSize::Base) + offset;
        let pages = if self.config.large_pages {
            PageSize::Large
        } else {
            PageSize::Base
        };
        let seg_base = port.os_alloc(
            n_segs * self.config.segment_bytes,
            self.config.segment_bytes,
            pages,
        );
        let chain_base = meta;
        let tail_base = chain_base + n_classes * 8;
        let hint_base = tail_base + n_classes * 8;
        let class_map = hint_base + n_classes * 8;
        let span_base = (class_map + n_segs).align_up(8);
        let rotor_addr = span_base + n_segs * 4;
        let hw_addr = rotor_addr + 8;
        let l = Layout {
            chain_base,
            tail_base,
            hint_base,
            class_map,
            span_base,
            rotor_addr,
            hw_addr,
            seg_base,
        };
        // No class owns a segment yet.
        for c in 0..n_classes {
            port.store_u64(hint_base + c * 8, u64::MAX);
        }
        port.exec(2 * n_classes);
        self.layout = Some(l);
        l
    }

    #[inline]
    fn seg_index(&self, l: &Layout, addr: Addr) -> u64 {
        (addr - l.seg_base) / self.config.segment_bytes
    }

    #[inline]
    fn seg_addr(&self, l: &Layout, idx: u64) -> Addr {
        l.seg_base + idx * self.config.segment_bytes
    }

    /// Scans the size-class byte array (next-fit from the rotor) for `need`
    /// contiguous unused segments. Returns the first segment index.
    ///
    /// The scan reads the class map through the port — 8 segments per
    /// 64-bit load — so heavily fragmented heaps pay a real, visible cost.
    fn acquire_segments<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        l: &Layout,
        need: u64,
    ) -> Result<u64, AllocError> {
        let max = u64::from(self.config.max_segments);
        if need > max {
            return Err(AllocError::OutOfMemory {
                requested: need * self.config.segment_bytes,
            });
        }
        let rotor = port.load_u64(l.rotor_addr).min(max - 1);
        port.exec(8);

        // Two passes: rotor → end, then 0 → rotor (runs do not wrap).
        for (pass_start, pass_end) in [(rotor, max), (0, rotor.min(max))] {
            let mut run = 0u64;
            let mut run_start = 0u64;
            let mut i = pass_start;
            while i < pass_end {
                // Load the 8-byte chunk of the class map covering segment i.
                let chunk_addr = (l.class_map + i).align_down(8);
                let chunk = port.load_u64(chunk_addr);
                port.exec(2);
                let chunk_first = chunk_addr - l.class_map;
                let chunk_last = (chunk_first + 8).min(pass_end);
                let mut j = i;
                while j < chunk_last {
                    let byte = (chunk >> ((j - chunk_first) * 8)) & 0xff;
                    if byte == u64::from(SEG_FREE) {
                        if run == 0 {
                            run_start = j;
                        }
                        run += 1;
                        if run == need {
                            // Mark used happens at the caller (class-specific).
                            let new_rotor = run_start + need;
                            port.store_u64(l.rotor_addr, new_rotor % max);
                            let hw = port.load_u64(l.hw_addr);
                            if run_start + need > hw {
                                port.store_u64(l.hw_addr, run_start + need);
                                self.hw_mirror = run_start + need;
                            }
                            port.exec(6);
                            return Ok(run_start);
                        }
                    } else {
                        run = 0;
                    }
                    j += 1;
                }
                i = chunk_last;
            }
        }
        Err(AllocError::OutOfMemory {
            requested: need * self.config.segment_bytes,
        })
    }

    fn malloc_small<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        l: &Layout,
        class: usize,
    ) -> Result<Addr, AllocError> {
        let obj_size = self.classes.size_of(class);
        let chain_addr = l.chain_base + class as u64 * 8;

        // Fast path: pop the free list (LIFO reuse keeps the line hot).
        let head = Addr::new(port.load_u64(chain_addr));
        port.exec(6);
        if !head.is_null() {
            let next = port.load_u64(head);
            port.store_u64(chain_addr, next);
            port.exec(4);
            self.touch_class(class);
            self.class_free[class] = self.class_free[class].saturating_sub(1);
            self.class_live[class] += 1;
            return Ok(head);
        }

        // Tail path: carve the next object off the open segment; the count
        // of remaining unallocated objects lives at the top of them.
        let tail_addr = l.tail_base + class as u64 * 8;
        let tail = Addr::new(port.load_u64(tail_addr));
        port.exec(4);
        if !tail.is_null() {
            let count = port.load_u32(tail);
            if count > 1 {
                let new_tail = tail + obj_size;
                port.store_u32(new_tail, count - 1);
                port.store_u64(tail_addr, new_tail.raw());
            } else {
                port.store_u64(tail_addr, 0);
            }
            port.exec(6);
            self.touch_class(class);
            self.class_live[class] += 1;
            return Ok(tail);
        }

        // Slow path: open a fresh segment for this class. The class's last
        // segment is tried first (stable binding across freeAll), then the
        // next-fit scan.
        let hint_addr = l.hint_base + class as u64 * 8;
        let hint = port.load_u64(hint_addr);
        port.exec(4);
        let seg = if hint != u64::MAX && port.load_u8(l.class_map + hint) == SEG_FREE {
            port.exec(2);
            hint
        } else {
            self.acquire_segments(port, l, 1)?
        };
        port.store_u64(hint_addr, seg);
        port.store_u8(l.class_map + seg, class as u8 + 1);
        let seg_addr = self.seg_addr(l, seg);
        let per_seg = self
            .classes
            .objects_per_segment(class, self.config.segment_bytes);
        if per_seg > 1 {
            let second = seg_addr + obj_size;
            port.store_u32(second, (per_seg - 1) as u32);
            port.store_u64(tail_addr, second.raw());
        }
        port.exec(14);
        if !self.hint_set[class] {
            self.hint_set[class] = true;
            self.hint_count += 1;
        }
        self.segs_used += 1;
        self.touch_class(class);
        self.class_live[class] += 1;
        Ok(seg_addr)
    }

    fn malloc_large<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        l: &Layout,
        size: u64,
    ) -> Result<Addr, AllocError> {
        let need = size.div_ceil(self.config.segment_bytes);
        let first = self.acquire_segments(port, l, need)?;
        for k in 0..need {
            port.store_u8(l.class_map + first + k, SEG_LARGE);
        }
        port.store_u32(l.span_base + first * 4, need as u32);
        port.exec(12 + 2 * need);
        self.segs_used += need;
        Ok(self.seg_addr(l, first))
    }

    /// Usable size of the live object at `addr` (class size, or span bytes
    /// for large objects).
    fn usable_size<P: MemoryPort + ?Sized>(&mut self, port: &mut P, l: &Layout, addr: Addr) -> u64 {
        let seg = self.seg_index(l, addr);
        let tag = port.load_u8(l.class_map + seg);
        port.exec(4);
        if tag == SEG_LARGE {
            let span = port.load_u32(l.span_base + seg * 4);
            u64::from(span) * self.config.segment_bytes
        } else {
            debug_assert!(
                tag != SEG_FREE,
                "usable_size on an address in a free segment"
            );
            self.classes.size_of(usize::from(tag - 1))
        }
    }

    #[inline]
    fn note_alloc(&mut self, rounded: u64) {
        // The peak is folded in `free`/`free_all` (the only places the
        // running total can shrink) and in the readers, not here.
        self.tx_alloc_bytes += rounded;
    }

    /// Refreshes a class's lazily-cleared telemetry mirrors before a hot
    /// path increments them (see the `class_live` field docs).
    #[inline]
    fn touch_class(&mut self, class: usize) {
        if self.class_epoch[class] != self.epoch {
            self.class_epoch[class] = self.epoch;
            self.class_live[class] = 0;
            self.class_free[class] = 0;
        }
    }

    /// Epoch-guarded mirror reads: stale entries count as zero.
    #[inline]
    fn class_live_now(&self, class: usize) -> u64 {
        if self.class_epoch[class] == self.epoch {
            self.class_live[class]
        } else {
            0
        }
    }

    #[inline]
    fn class_free_now(&self, class: usize) -> u64 {
        if self.class_epoch[class] == self.epoch {
            self.class_free[class]
        } else {
            0
        }
    }
}

impl webmm_obs::HeapTelemetry for DdMalloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        let n_classes = self.classes.count() as u64;
        let n_segs = u64::from(self.config.max_segments);
        webmm_obs::HeapSnapshot {
            allocator: "our DDmalloc".into(),
            heap_bytes: self.hw_mirror * self.config.segment_bytes,
            // Segments are carved sequentially: the high-water mark *is*
            // the touched extent (the paper's Fig. 9 definition for
            // DDmalloc: allocated segments plus metadata).
            touched_bytes: self.hw_mirror * self.config.segment_bytes,
            metadata_bytes: n_classes * 16 + n_segs + n_segs * 4 + 16,
            tx_live_bytes: self.tx_alloc_bytes,
            peak_tx_bytes: self.peak_tx_alloc.max(self.tx_alloc_bytes),
            segments: self.segs_used,
            free_list_len: (0..self.classes.count())
                .map(|c| self.class_free_now(c))
                .sum(),
            free_bytes: (0..self.classes.count())
                .map(|c| self.class_free_now(c) * self.classes.size_of(c))
                .sum(),
            free_all_count: self.stats.free_alls,
            classes: (0..self.classes.count())
                .map(|c| webmm_obs::ClassOccupancy {
                    class: c as u32,
                    object_size: self.classes.size_of(c),
                    live: self.class_live_now(c),
                    free: self.class_free_now(c),
                })
                .collect(),
        }
    }
}

impl Allocator for DdMalloc {
    fn name(&self) -> &'static str {
        "our DDmalloc"
    }

    fn alloc_traits(&self) -> AllocTraits {
        AllocTraits {
            bulk_free: true,
            per_object_free: true,
            defragmentation: false,
            cost: CostClass::Low,
            bandwidth: BandwidthClass::Low,
        }
    }

    fn code_spec(&self) -> CodeSpec {
        // Compact code: a table lookup and a couple of list operations.
        CodeSpec::new(8 * 1024, 2 * 1024)
    }

    #[inline]
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
        let l = self.layout(port);
        let result = match self.classes.class_of(size) {
            Some(class) => {
                let r = self.malloc_small(port, &l, class);
                if r.is_ok() {
                    self.note_alloc(self.classes.size_of(class));
                }
                r
            }
            None => {
                let r = self.malloc_large(port, &l, size);
                if r.is_ok() {
                    self.note_alloc(
                        size.div_ceil(self.config.segment_bytes) * self.config.segment_bytes,
                    );
                }
                r
            }
        };
        if result.is_ok() {
            self.stats.mallocs += 1;
            self.stats.bytes_requested += size;
        }
        exit_mm(port);
        result
    }

    #[inline]
    fn free<P: MemoryPort + ?Sized>(&mut self, port: &mut P, addr: Addr) {
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        let l = self.layout(port);
        let seg = self.seg_index(&l, addr);
        let tag = port.load_u8(l.class_map + seg);
        port.exec(6);
        if tag == SEG_LARGE {
            // "To free the large objects, it simply marks the segment as
            // unused."
            let span = u64::from(port.load_u32(l.span_base + seg * 4));
            for k in 0..span {
                port.store_u8(l.class_map + seg + k, SEG_FREE);
            }
            port.exec(4 + 2 * span);
            self.peak_tx_alloc = self.peak_tx_alloc.max(self.tx_alloc_bytes);
            self.tx_alloc_bytes = self
                .tx_alloc_bytes
                .saturating_sub(span * self.config.segment_bytes);
            self.segs_used = self.segs_used.saturating_sub(span);
        } else {
            debug_assert!(
                tag != SEG_FREE,
                "double free or wild pointer: segment is free"
            );
            let class = usize::from(tag - 1);
            let chain_addr = l.chain_base + class as u64 * 8;
            let head = port.load_u64(chain_addr);
            port.store_u64(addr, head);
            port.store_u64(chain_addr, addr.raw());
            port.exec(5);
            self.peak_tx_alloc = self.peak_tx_alloc.max(self.tx_alloc_bytes);
            self.tx_alloc_bytes = self
                .tx_alloc_bytes
                .saturating_sub(self.classes.size_of(class));
            self.touch_class(class);
            self.class_live[class] = self.class_live[class].saturating_sub(1);
            self.class_free[class] += 1;
        }
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
        let l = self.layout(port);
        let usable = self.usable_size(port, &l, addr);
        if new_size <= usable && new_size * 2 >= usable {
            // Still fits its class and is not shrinking drastically:
            // nothing to do, like any segregated-storage realloc.
            self.stats.reallocs += 1;
            exit_mm(port);
            return Ok(addr);
        }
        exit_mm(port);
        let new = self.malloc(port, new_size)?;
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        port.memcpy(new, addr, usable.min(new_size));
        exit_mm(port);
        self.free(port, addr);
        self.stats.reallocs += 1;
        // malloc/free above were internal plumbing, not API calls.
        self.stats.mallocs -= 1;
        self.stats.frees -= 1;
        self.stats.bytes_requested -= new_size;
        Ok(new)
    }

    fn free_all<P: MemoryPort + ?Sized>(&mut self, port: &mut P) {
        // Wall-clock timing feeds telemetry only; it never enters the
        // simulated instruction counts.
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        let l = self.layout(port);
        let n_classes = self.classes.count() as u64;
        // Clear the class map up to the high-water mark (beyond it the map
        // was never written). The span array need not be cleared: spans are
        // only read behind a SEG_LARGE tag.
        let hw = port.load_u64(l.hw_addr);
        let mut i = 0;
        while i < hw {
            port.store_u64((l.class_map + i).align_down(8), 0);
            i += 8;
        }
        // Reset the free lists and re-open each class's retained primary
        // segment: the class→segment binding survives freeAll, so the next
        // transaction reuses the exact same (cache-warm) addresses and
        // never re-scans for a segment another class or a large object
        // could race it for.
        for c in 0..n_classes {
            port.store_u64(l.chain_base + c * 8, 0);
            let hint = port.load_u64(l.hint_base + c * 8);
            if hint == u64::MAX {
                port.store_u64(l.tail_base + c * 8, 0);
                continue;
            }
            let seg_addr = self.seg_addr(&l, hint);
            port.store_u8(l.class_map + hint, c as u8 + 1);
            let per_seg = self
                .classes
                .objects_per_segment(c as usize, self.config.segment_bytes);
            port.store_u32(seg_addr, per_seg as u32);
            port.store_u64(l.tail_base + c * 8, seg_addr.raw());
        }
        port.store_u64(l.rotor_addr, 0);
        port.exec(24 + 6 * n_classes + 2 * (hw / 8));
        self.stats.free_alls += 1;
        self.peak_tx_alloc = self.peak_tx_alloc.max(self.tx_alloc_bytes);
        self.tx_alloc_bytes = 0;
        // Mirrors: only the retained primary segments stay used, free
        // lists are gone, nothing is live. The per-class vectors are
        // cleared lazily (epoch bump); the used-segment count is the
        // maintained hint counter, not a rescan.
        self.epoch += 1;
        self.segs_used = self.hint_count;
        exit_mm(port);
    }

    fn footprint(&self) -> Footprint {
        let n_classes = self.classes.count() as u64;
        let n_segs = u64::from(self.config.max_segments);
        Footprint {
            heap_bytes: self.hw_mirror * self.config.segment_bytes,
            metadata_bytes: n_classes * 16 + n_segs + n_segs * 4 + 16,
            peak_tx_alloc_bytes: self.peak_tx_alloc.max(self.tx_alloc_bytes),
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

    fn dd() -> DdMalloc {
        DdMalloc::new(DdConfig {
            max_segments: 256,
            ..DdConfig::default()
        })
    }

    #[test]
    fn lifo_reuse() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let x = a.malloc(&mut port, 64).unwrap();
        let y = a.malloc(&mut port, 64).unwrap();
        a.free(&mut port, y);
        a.free(&mut port, x);
        // LIFO: x was freed last, so it comes back first.
        assert_eq!(a.malloc(&mut port, 64).unwrap(), x);
        assert_eq!(a.malloc(&mut port, 64).unwrap(), y);
    }

    #[test]
    fn sequential_carving_within_segment() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let first = a.malloc(&mut port, 100).unwrap(); // class 104
        let second = a.malloc(&mut port, 100).unwrap();
        let third = a.malloc(&mut port, 100).unwrap();
        assert_eq!(second - first, 104);
        assert_eq!(third - second, 104);
        // All in the same 32 KB segment.
        assert_eq!(first.align_down(32 * 1024), third.align_down(32 * 1024));
    }

    #[test]
    fn segment_alignment_restriction() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let x = a.malloc(&mut port, 8).unwrap();
        // First object of a fresh segment starts at a segment boundary.
        assert!(x.is_aligned(32 * 1024));
    }

    #[test]
    fn distinct_classes_use_distinct_segments() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let small = a.malloc(&mut port, 8).unwrap();
        let mid = a.malloc(&mut port, 200).unwrap();
        assert_ne!(small.align_down(32 * 1024), mid.align_down(32 * 1024));
    }

    #[test]
    fn segment_exhaustion_opens_new_segment() {
        let mut port = PlainPort::new();
        let mut a = dd();
        // 16 KB class: 2 objects per segment.
        let o1 = a.malloc(&mut port, 16 * 1024).unwrap();
        let o2 = a.malloc(&mut port, 16 * 1024).unwrap();
        let o3 = a.malloc(&mut port, 16 * 1024).unwrap();
        assert_eq!(o1.align_down(32 * 1024), o2.align_down(32 * 1024));
        assert_ne!(o2.align_down(32 * 1024), o3.align_down(32 * 1024));
    }

    #[test]
    fn large_objects_take_whole_segments() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let x = a.malloc(&mut port, 40 * 1024).unwrap(); // 2 segments
        assert!(x.is_aligned(32 * 1024));
        let y = a.malloc(&mut port, 8).unwrap();
        assert!(y.raw() >= x.raw() + 64 * 1024, "large span not overlapped");
    }

    #[test]
    fn freed_large_span_reused_after_scan_wraps() {
        let mut port = PlainPort::new();
        let mut a = DdMalloc::new(DdConfig {
            max_segments: 4,
            ..DdConfig::default()
        });
        let x = a.malloc(&mut port, 40 * 1024).unwrap(); // segments 0-1
        let _small = a.malloc(&mut port, 8).unwrap(); // segment 2
        a.free(&mut port, x);
        // Only a wrap of the next-fit scan can find two contiguous segments.
        let z = a.malloc(&mut port, 40 * 1024).unwrap();
        assert_eq!(z, x, "next-fit scan reuses the freed span after wrapping");
    }

    #[test]
    fn free_all_resets_heap_to_initial_state() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let first = a.malloc(&mut port, 64).unwrap();
        for _ in 0..100 {
            a.malloc(&mut port, 64).unwrap();
        }
        a.free_all(&mut port);
        // After freeAll the heap returns to its initial state (Figure 2):
        // the same first address comes back.
        assert_eq!(a.malloc(&mut port, 64).unwrap(), first);
    }

    #[test]
    fn free_all_even_after_everything_freed_per_object() {
        // The paper: applications must call freeAll even if all objects
        // were already freed, because freeAll (not free) resets metadata.
        let mut port = PlainPort::new();
        let mut a = dd();
        let x = a.malloc(&mut port, 32).unwrap();
        a.free(&mut port, x);
        a.free_all(&mut port);
        assert_eq!(a.malloc(&mut port, 32).unwrap(), x);
        assert_eq!(a.stats().free_alls, 1);
    }

    #[test]
    fn no_per_object_headers() {
        // Objects in a segment are exactly class-size apart: zero header
        // overhead (a key DDmalloc property for space and cache locality).
        let mut port = PlainPort::new();
        let mut a = dd();
        let mut prev = a.malloc(&mut port, 8).unwrap();
        for _ in 0..10 {
            let next = a.malloc(&mut port, 8).unwrap();
            assert_eq!(next - prev, 8);
            prev = next;
        }
    }

    #[test]
    fn realloc_grows_and_preserves_prefix() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let x = a.malloc(&mut port, 16).unwrap();
        port.store_u64(x, 0xabcd);
        port.store_u64(x + 8, 0x1234);
        let y = a.realloc(&mut port, x, 16, 200).unwrap();
        assert_ne!(x, y);
        assert_eq!(port.memory().read_u64(y), 0xabcd);
        assert_eq!(port.memory().read_u64(y + 8), 0x1234);
        assert_eq!(a.stats().reallocs, 1);
        assert_eq!(
            a.stats().mallocs,
            1,
            "realloc's internal malloc not double-counted"
        );
    }

    #[test]
    fn realloc_in_place_when_class_fits() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let x = a.malloc(&mut port, 30).unwrap(); // class 32
        let y = a.realloc(&mut port, x, 30, 31).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn zero_size_rejected() {
        let mut port = PlainPort::new();
        let mut a = dd();
        assert!(matches!(
            a.malloc(&mut port, 0),
            Err(AllocError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn oom_when_heap_exhausted() {
        let mut port = PlainPort::new();
        let mut a = DdMalloc::new(DdConfig {
            max_segments: 4,
            ..DdConfig::default()
        });
        // 4 segments of 32 KB: a 5-segment large object cannot fit.
        assert!(matches!(
            a.malloc(&mut port, 160 * 1024),
            Err(AllocError::OutOfMemory { .. })
        ));
        // But 4 single segments fit exactly.
        for _ in 0..4 {
            a.malloc(&mut port, 20 * 1024).unwrap();
        }
        assert!(a.malloc(&mut port, 20 * 1024).is_err());
    }

    #[test]
    fn footprint_tracks_high_water_and_tx_peak() {
        let mut port = PlainPort::new();
        let mut a = dd();
        for _ in 0..10 {
            a.malloc(&mut port, 1024).unwrap();
        }
        let fp = a.footprint();
        assert_eq!(fp.heap_bytes, 32 * 1024, "ten 1 KB objects fit one segment");
        assert_eq!(fp.peak_tx_alloc_bytes, 10 * 1024);
        a.free_all(&mut port);
        let fp2 = a.footprint();
        assert_eq!(fp2.peak_tx_alloc_bytes, 10 * 1024, "peak survives freeAll");
        assert_eq!(
            fp2.heap_bytes,
            32 * 1024,
            "heap high-water survives freeAll"
        );
    }

    #[test]
    fn traits_match_table_1() {
        let a = dd();
        let t = a.alloc_traits();
        assert!(t.bulk_free);
        assert!(t.per_object_free);
        assert!(!t.defragmentation);
        assert_eq!(t.cost, CostClass::Low);
        assert_eq!(t.bandwidth, BandwidthClass::Low);
    }

    #[test]
    fn metadata_offset_distinguishes_processes() {
        let mut port0 = PlainPort::new();
        let mut port1 = PlainPort::new();
        let mk = |pid| DdConfig {
            pid,
            metadata_offset: true,
            max_segments: 64,
            ..DdConfig::default()
        };
        let mut a0 = DdMalloc::new(mk(0));
        let mut a1 = DdMalloc::new(mk(1));
        a0.malloc(&mut port0, 8).unwrap();
        a1.malloc(&mut port1, 8).unwrap();
        let l0 = a0.layout.unwrap();
        let l1 = a1.layout.unwrap();
        // Same address space shape, different metadata line offsets.
        assert_eq!(l1.chain_base.offset_in(64), 0);
        assert_ne!(
            l0.chain_base.raw() % 4096,
            l1.chain_base.raw() % 4096,
            "pid offset must shift metadata placement"
        );
    }

    #[test]
    fn large_pages_flag_maps_heap_large() {
        let mut port = PlainPort::new();
        let mut a = DdMalloc::new(DdConfig {
            large_pages: true,
            max_segments: 64,
            ..DdConfig::default()
        });
        a.malloc(&mut port, 8).unwrap();
        assert_eq!(port.large_ranges().len(), 1);
    }

    #[test]
    fn stats_count_operations() {
        let mut port = PlainPort::new();
        let mut a = dd();
        let x = a.malloc(&mut port, 10).unwrap();
        let y = a.malloc(&mut port, 20).unwrap();
        a.free(&mut port, x);
        a.realloc(&mut port, y, 20, 500).unwrap();
        a.free_all(&mut port);
        let s = a.stats();
        assert_eq!(s.mallocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.reallocs, 1);
        assert_eq!(s.free_alls, 1);
        assert_eq!(s.bytes_requested, 30);
    }
}
