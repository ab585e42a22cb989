//! TCmalloc-style allocator (§4.4 baseline).
//!
//! Ghemawat & Menage's TCmalloc [12] serves small objects from per-thread
//! cache free lists backed by central lists of span-carved objects. The
//! paper's point about it: "TCmalloc ... reduces the overhead by *delaying*
//! the defragmentation activities until the total size of the memory
//! objects in the free lists exceeds a threshold. However TCmalloc still
//! has costs for the delayed defragmentation activities and the costs
//! matter for the overall performance." We model exactly that: a fast
//! LIFO thread-cache path, batched refills from central lists, and a
//! threshold-triggered *release* that migrates half the thread-cache list
//! back to the central list — the delayed defragmentation burst.
//!
//! Objects above the span payload limit go to a boundary-tag page heap.

use crate::api::{
    enter_mm, exit_mm, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass, Footprint,
    OpStats,
};
use crate::boundary::BoundaryHeap;
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort, PageSize};

/// Span size: the granularity central lists carve objects from.
const SPAN_BYTES: u64 = 32 * 1024;
/// Requests above this go to the page heap.
const LARGE_THRESHOLD: u64 = 16 * 1024;
/// Objects moved per thread-cache refill.
const BATCH: u64 = 16;
/// Thread-cache list length that triggers a release to the central list.
const RELEASE_AT: u64 = 4 * BATCH;

/// The size classes: 8-byte steps to 128, 32-byte steps to 512, then
/// half-power-of-two steps to 16 KB (close to real TCmalloc's table).
const CLASS_SIZES: [u64; 36] = [
    8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128, 160, 192, 224, 256, 288, 320, 384, 448,
    512, 640, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 10240, 12288, 14336, 15360, 16384,
];
const N_CLASSES: usize = CLASS_SIZES.len();

/// Configuration of a [`TcAlloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct TcConfig {
    /// Maximum number of spans in the small-object area.
    pub max_spans: u32,
}

impl Default for TcConfig {
    fn default() -> Self {
        TcConfig {
            max_spans: 16 * 1024,
        } // 512 MB of span address space
    }
}

/// Simulated-memory metadata layout.
#[derive(Copy, Clone, Debug)]
struct Layout {
    /// tc_head[class]: thread-cache free-list head.
    tc_head: Addr,
    /// tc_len[class]: thread-cache list length.
    tc_len: Addr,
    /// central_head[class]: central free-list head.
    central: Addr,
    /// bump[class]: carve cursor within the class's open span (0 = none).
    bump: Addr,
    /// bump_left[class]: bytes left in the open span.
    bump_left: Addr,
    /// Next fresh span index.
    next_span: Addr,
    /// span_class[span]: class + 1, one byte per span (the "pagemap").
    span_map: Addr,
    /// First span.
    span_base: Addr,
}

/// Thread-caching allocator in the style of TCmalloc.
///
/// # Examples
///
/// ```
/// use webmm_alloc::{Allocator, TcAlloc, TcConfig};
/// use webmm_sim::PlainPort;
///
/// let mut port = PlainPort::new();
/// let mut tc = TcAlloc::new(TcConfig::default());
/// let a = tc.malloc(&mut port, 100)?;
/// tc.free(&mut port, a);
/// let b = tc.malloc(&mut port, 100)?;
/// assert_eq!(a, b, "thread cache is LIFO");
/// # Ok::<(), webmm_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct TcAlloc {
    config: TcConfig,
    layout: Option<Layout>,
    page_heap: BoundaryHeap,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
    spans_mirror: u64,
    tx_alloc_bytes: u64,
    peak_tx_alloc: u64,
    /// Telemetry mirrors: live small objects, thread-cache free-list
    /// lengths, and central free-list lengths, all per class. They shadow
    /// the `tc_len`/list state kept in simulated memory so snapshots never
    /// touch the port.
    class_live: [u64; N_CLASSES],
    tc_free: [u64; N_CLASSES],
    central_free: [u64; N_CLASSES],
}

impl TcAlloc {
    /// Creates the allocator; memory is obtained lazily.
    pub fn new(config: TcConfig) -> Self {
        TcAlloc {
            config,
            layout: None,
            page_heap: BoundaryHeap::new(1024 * 1024, 1024, false),
            code_id: None,
            stats: OpStats::default(),
            spans_mirror: 0,
            tx_alloc_bytes: 0,
            peak_tx_alloc: 0,
            class_live: [0; N_CLASSES],
            tc_free: [0; N_CLASSES],
            central_free: [0; N_CLASSES],
        }
    }

    fn class_of(size: u64) -> Option<usize> {
        if size > LARGE_THRESHOLD {
            return None;
        }
        match CLASS_SIZES.binary_search(&size) {
            Ok(i) => Some(i),
            Err(i) => Some(i),
        }
    }

    fn layout<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Layout {
        if let Some(l) = self.layout {
            return l;
        }
        let n = N_CLASSES as u64;
        let spans = u64::from(self.config.max_spans);
        let meta = port.os_alloc(n * 8 * 5 + 8 + spans, 4096, PageSize::Base);
        let span_base = port.os_alloc(spans * SPAN_BYTES, SPAN_BYTES, PageSize::Base);
        let l = Layout {
            tc_head: meta,
            tc_len: meta + n * 8,
            central: meta + n * 16,
            bump: meta + n * 24,
            bump_left: meta + n * 32,
            next_span: meta + n * 40,
            span_map: meta + n * 40 + 8,
            span_base,
        };
        self.layout = Some(l);
        l
    }

    /// Refills the thread cache with up to `BATCH` objects from the central
    /// list / span carver, returning one object for immediate use.
    fn refill<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        l: &Layout,
        class: usize,
    ) -> Result<Addr, AllocError> {
        let size = CLASS_SIZES[class];
        let central_addr = l.central + class as u64 * 8;
        let tc_head_addr = l.tc_head + class as u64 * 8;
        let tc_len_addr = l.tc_len + class as u64 * 8;

        let mut got: Option<Addr> = None;
        let mut moved = 0u64;
        let mut from_central = 0u64;
        // 1. Drain the central list first.
        let mut central = Addr::new(port.load_u64(central_addr));
        port.exec(6);
        while !central.is_null() && moved < BATCH {
            let next = Addr::new(port.load_u64(central));
            if got.is_none() {
                got = Some(central);
            } else {
                let head = port.load_u64(tc_head_addr);
                port.store_u64(central, head);
                port.store_u64(tc_head_addr, central.raw());
            }
            central = next;
            moved += 1;
            from_central += 1;
            port.exec(4);
        }
        port.store_u64(central_addr, central.raw());
        self.central_free[class] = self.central_free[class].saturating_sub(from_central);

        // 2. Carve the rest from the open span.
        while moved < BATCH {
            let bump_addr = l.bump + class as u64 * 8;
            let left_addr = l.bump_left + class as u64 * 8;
            let mut bump = port.load_u64(bump_addr);
            let mut left = port.load_u64(left_addr);
            port.exec(4);
            if left < size {
                // Open a fresh span.
                let idx = port.load_u64(l.next_span);
                if idx >= u64::from(self.config.max_spans) {
                    if got.is_some() || moved > 0 {
                        break; // hand out what we have
                    }
                    return Err(AllocError::OutOfMemory { requested: size });
                }
                port.store_u64(l.next_span, idx + 1);
                port.store_u8(l.span_map + idx, class as u8 + 1);
                self.spans_mirror = self.spans_mirror.max(idx + 1);
                bump = (l.span_base + idx * SPAN_BYTES).raw();
                left = SPAN_BYTES;
                port.exec(10);
            }
            let obj = Addr::new(bump);
            bump += size;
            left -= size;
            port.store_u64(bump_addr, bump);
            port.store_u64(left_addr, left);
            if got.is_none() {
                got = Some(obj);
            } else {
                let head = port.load_u64(tc_head_addr);
                port.store_u64(obj, head);
                port.store_u64(tc_head_addr, obj.raw());
            }
            moved += 1;
            port.exec(4);
        }

        let len = port.load_u64(tc_len_addr);
        port.store_u64(tc_len_addr, len + moved.saturating_sub(1));
        port.exec(4);
        self.tc_free[class] += moved.saturating_sub(1);
        got.ok_or(AllocError::OutOfMemory { requested: size })
    }

    /// The delayed defragmentation: migrate half the thread-cache list back
    /// to the central list once it exceeds the release threshold.
    fn release_to_central<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        l: &Layout,
        class: usize,
    ) {
        let tc_head_addr = l.tc_head + class as u64 * 8;
        let tc_len_addr = l.tc_len + class as u64 * 8;
        let central_addr = l.central + class as u64 * 8;
        let mut head = Addr::new(port.load_u64(tc_head_addr));
        let mut central = port.load_u64(central_addr);
        let mut moved = 0;
        while !head.is_null() && moved < RELEASE_AT / 2 {
            let next = Addr::new(port.load_u64(head));
            port.store_u64(head, central);
            central = head.raw();
            head = next;
            moved += 1;
            port.exec(4);
        }
        port.store_u64(tc_head_addr, head.raw());
        port.store_u64(central_addr, central);
        let len = port.load_u64(tc_len_addr);
        port.store_u64(tc_len_addr, len - moved);
        port.exec(8);
        self.tc_free[class] = self.tc_free[class].saturating_sub(moved);
        self.central_free[class] += moved;
    }

    /// Span index and class for a small-object address.
    fn span_class<P: MemoryPort + ?Sized>(&self, port: &mut P, l: &Layout, addr: Addr) -> usize {
        let idx = (addr - l.span_base) / SPAN_BYTES;
        let tag = port.load_u8(l.span_map + idx);
        debug_assert!(tag > 0, "free of address in an unused span");
        port.exec(3);
        usize::from(tag - 1)
    }
}

impl webmm_obs::HeapTelemetry for TcAlloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        let ph = self.page_heap.snapshot();
        webmm_obs::HeapSnapshot {
            allocator: "TCmalloc".into(),
            heap_bytes: self.spans_mirror * SPAN_BYTES + ph.heap_bytes,
            // Spans are carved sequentially from the reserved area, so the
            // span high-water mark is the touched extent.
            touched_bytes: self.spans_mirror * SPAN_BYTES + ph.touched_bytes,
            metadata_bytes: (N_CLASSES as u64) * 40
                + 8
                + u64::from(self.config.max_spans)
                + ph.metadata_bytes,
            tx_live_bytes: self.tx_alloc_bytes,
            peak_tx_bytes: self.peak_tx_alloc,
            segments: self.spans_mirror + ph.segments,
            free_list_len: self.tc_free.iter().sum::<u64>()
                + self.central_free.iter().sum::<u64>()
                + ph.free_list_len,
            free_bytes: (0..N_CLASSES)
                .map(|c| (self.tc_free[c] + self.central_free[c]) * CLASS_SIZES[c])
                .sum::<u64>()
                + ph.free_bytes,
            // No freeAll here, ever: free_all_count stays 0.
            free_all_count: 0,
            classes: (0..N_CLASSES)
                .map(|c| webmm_obs::ClassOccupancy {
                    class: c as u32,
                    object_size: CLASS_SIZES[c],
                    live: self.class_live[c],
                    free: self.tc_free[c] + self.central_free[c],
                })
                .collect(),
        }
    }
}

impl Allocator for TcAlloc {
    fn name(&self) -> &'static str {
        "TCmalloc"
    }

    fn alloc_traits(&self) -> AllocTraits {
        AllocTraits {
            bulk_free: false,
            per_object_free: true,
            defragmentation: true, // delayed, not eliminated
            cost: CostClass::High,
            bandwidth: BandwidthClass::Low,
        }
    }

    fn code_spec(&self) -> CodeSpec {
        CodeSpec::new(30 * 1024, 4 * 1024)
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
        let result = match Self::class_of(size) {
            None => {
                let r = self.page_heap.malloc(port, size);
                if r.is_ok() {
                    self.tx_alloc_bytes += size;
                }
                r
            }
            Some(class) => {
                let l = self.layout(port);
                let tc_head_addr = l.tc_head + class as u64 * 8;
                let head = Addr::new(port.load_u64(tc_head_addr));
                port.exec(10);
                let r = if !head.is_null() {
                    // Fast path: pop the thread cache (class-mapping math
                    // plus the sampling/threshold checks of the real thing).
                    let next = port.load_u64(head);
                    port.store_u64(tc_head_addr, next);
                    let len_addr = l.tc_len + class as u64 * 8;
                    let len = port.load_u64(len_addr);
                    port.store_u64(len_addr, len.saturating_sub(1));
                    port.exec(8);
                    self.tc_free[class] = self.tc_free[class].saturating_sub(1);
                    Ok(head)
                } else {
                    self.refill(port, &l, class)
                };
                if r.is_ok() {
                    self.tx_alloc_bytes += CLASS_SIZES[class];
                    self.class_live[class] += 1;
                }
                r
            }
        };
        if result.is_ok() {
            self.stats.mallocs += 1;
            self.stats.bytes_requested += size;
            self.peak_tx_alloc = self.peak_tx_alloc.max(self.tx_alloc_bytes);
        }
        exit_mm(port);
        result
    }

    fn free<P: MemoryPort + ?Sized>(&mut self, port: &mut P, addr: Addr) {
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        if self.page_heap.contains(addr) {
            self.page_heap.free(port, addr);
            port.exec(4);
            self.stats.frees += 1;
            exit_mm(port);
            return;
        }
        let l = self.layout(port);
        let class = self.span_class(port, &l, addr);
        let tc_head_addr = l.tc_head + class as u64 * 8;
        let head = port.load_u64(tc_head_addr);
        port.store_u64(addr, head);
        port.store_u64(tc_head_addr, addr.raw());
        let len_addr = l.tc_len + class as u64 * 8;
        let len = port.load_u64(len_addr) + 1;
        port.store_u64(len_addr, len);
        port.exec(12);
        self.tx_alloc_bytes = self.tx_alloc_bytes.saturating_sub(CLASS_SIZES[class]);
        self.class_live[class] = self.class_live[class].saturating_sub(1);
        self.tc_free[class] += 1;
        if len >= RELEASE_AT {
            self.release_to_central(port, &l, class);
        }
        self.stats.frees += 1;
        exit_mm(port);
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
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        let usable = if self.page_heap.contains(addr) {
            self.page_heap.usable(port, addr)
        } else {
            let l = self.layout(port);
            CLASS_SIZES[self.span_class(port, &l, addr)]
        };
        exit_mm(port);
        if new_size <= usable && new_size * 2 >= usable {
            self.stats.reallocs += 1;
            return Ok(addr);
        }
        let new = self.malloc(port, new_size)?;
        let spec = self.code_spec();
        enter_mm(port, &mut self.code_id, spec);
        port.memcpy(new, addr, usable.min(new_size).min(old_size.max(1)));
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
    /// Always panics: TCmalloc has no bulk-free interface (§4.4 — the Ruby
    /// runtime restarts processes instead).
    fn free_all<P: MemoryPort + ?Sized>(&mut self, _port: &mut P) {
        panic!("TCmalloc does not support freeAll; restart the process instead");
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            heap_bytes: self.spans_mirror * SPAN_BYTES + self.page_heap.heap_bytes(),
            metadata_bytes: (N_CLASSES as u64) * 40 + 8 + u64::from(self.config.max_spans),
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

    fn tc() -> TcAlloc {
        TcAlloc::new(TcConfig { max_spans: 64 })
    }

    #[test]
    fn class_table_is_sorted_and_minimal() {
        for w in CLASS_SIZES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for size in 1..=LARGE_THRESHOLD {
            let c = TcAlloc::class_of(size).unwrap();
            assert!(CLASS_SIZES[c] >= size);
            if c > 0 {
                assert!(CLASS_SIZES[c - 1] < size);
            }
        }
        assert_eq!(TcAlloc::class_of(LARGE_THRESHOLD + 1), None);
    }

    #[test]
    fn thread_cache_fast_path_is_lifo() {
        let mut port = PlainPort::new();
        let mut t = tc();
        let a = t.malloc(&mut port, 64).unwrap();
        let b = t.malloc(&mut port, 64).unwrap();
        t.free(&mut port, a);
        t.free(&mut port, b);
        assert_eq!(t.malloc(&mut port, 64).unwrap(), b);
        assert_eq!(t.malloc(&mut port, 64).unwrap(), a);
    }

    #[test]
    fn refill_hands_out_sequential_objects() {
        let mut port = PlainPort::new();
        let mut t = tc();
        // First malloc refills from a fresh span; spans carve sequentially.
        let a = t.malloc(&mut port, 64).unwrap();
        let b = t.malloc(&mut port, 64).unwrap();
        // The refill pushed BATCH-1 objects to the cache in reverse carve
        // order, so consecutive mallocs walk back toward the span start...
        // after the cache drains, carving resumes upward.
        assert_ne!(a, b);
        assert_eq!(a.align_down(SPAN_BYTES), b.align_down(SPAN_BYTES));
    }

    #[test]
    fn release_threshold_triggers_central_migration() {
        let mut port = PlainPort::new();
        let mut t = tc();
        // Exactly RELEASE_AT objects: a multiple of BATCH, so the refills
        // carve precisely this many and the conservation check is exact.
        let objs: Vec<_> = (0..RELEASE_AT)
            .map(|_| t.malloc(&mut port, 32).unwrap())
            .collect();
        // Free everything: crossing RELEASE_AT must migrate objects without
        // losing any (conservation check: we can get them all back).
        for o in &objs {
            t.free(&mut port, *o);
        }
        let mut back = std::collections::HashSet::new();
        for _ in 0..objs.len() {
            back.insert(t.malloc(&mut port, 32).unwrap());
        }
        assert_eq!(back.len(), objs.len(), "no object lost or duplicated");
        for o in &objs {
            assert!(back.contains(o), "all original objects recycled");
        }
    }

    #[test]
    fn large_objects_route_to_page_heap() {
        let mut port = PlainPort::new();
        let mut t = tc();
        let a = t.malloc(&mut port, 64 * 1024).unwrap();
        t.free(&mut port, a);
        assert_eq!(t.malloc(&mut port, 64 * 1024).unwrap(), a);
    }

    #[test]
    fn spans_are_per_class() {
        let mut port = PlainPort::new();
        let mut t = tc();
        let a = t.malloc(&mut port, 8).unwrap();
        let b = t.malloc(&mut port, 1024).unwrap();
        assert_ne!(a.align_down(SPAN_BYTES), b.align_down(SPAN_BYTES));
    }

    #[test]
    fn oom_on_span_exhaustion() {
        let mut port = PlainPort::new();
        let mut t = TcAlloc::new(TcConfig { max_spans: 1 });
        // One span of 16 KB objects: 2 objects.
        t.malloc(&mut port, 16 * 1024).unwrap();
        t.malloc(&mut port, 16 * 1024).unwrap();
        assert!(t.malloc(&mut port, 16 * 1024).is_err());
    }

    #[test]
    #[should_panic(expected = "does not support freeAll")]
    fn free_all_panics() {
        let mut port = PlainPort::new();
        let mut t = tc();
        t.malloc(&mut port, 8).unwrap();
        t.free_all(&mut port);
    }

    #[test]
    fn realloc_roundtrip() {
        let mut port = PlainPort::new();
        let mut t = tc();
        let a = t.malloc(&mut port, 64).unwrap();
        port.store_u64(a, 11);
        let b = t.realloc(&mut port, a, 64, 20_000).unwrap();
        assert_eq!(port.memory().read_u64(b), 11);
    }
}
