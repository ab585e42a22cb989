//! Hoard-style allocator (§4.4 baseline).
//!
//! Berger et al.'s Hoard [11] organizes memory into per-size-class
//! *superblocks* with emptiness-class bookkeeping, moving superblocks
//! between fullness groups on every allocate/free and recycling empty
//! superblocks through a global heap. Hoard's claim to fame is
//! multithreaded scalability (lock and false-sharing avoidance); its
//! per-operation bookkeeping is exactly the kind of work the paper's
//! defrag-dodging argument targets. Our runtimes are single-threaded
//! processes (as in the paper's Ruby setup), so the global heap degenerates
//! to a free-superblock pool — the per-op cost structure is preserved.
//!
//! Objects larger than half a superblock go to a boundary-tag heap, like
//! Hoard's mmap fallback.

use crate::api::{
    enter_mm, exit_mm, AllocError, AllocTraits, Allocator, BandwidthClass, CostClass, Footprint,
    OpStats,
};
use crate::boundary::BoundaryHeap;
use std::collections::HashMap;
use webmm_sim::{Addr, CodeRegionId, CodeSpec, MemoryPort, PageSize};

/// Superblock size.
const SB_BYTES: u64 = 8 * 1024;
/// Superblock header: class, free head, used count, bump offset,
/// next/prev links, fullness flag (8 × u64 for alignment).
const SB_HEADER: u64 = 64;
/// Requests above this go to the large-object heap.
const LARGE_THRESHOLD: u64 = SB_BYTES / 2;
/// Number of power-of-two size classes: 8, 16, ..., 4096.
const N_CLASSES: usize = 10;

/// Superblock-header field offsets.
const H_CLASS: u64 = 0;
const H_FREE: u64 = 8;
const H_USED: u64 = 16;
const H_BUMP: u64 = 24;
const H_NEXT: u64 = 32;
const H_PREV: u64 = 40;

/// Configuration of a [`HoardAlloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct HoardConfig {
    /// Maximum number of superblocks.
    pub max_superblocks: u32,
}

impl Default for HoardConfig {
    fn default() -> Self {
        HoardConfig {
            max_superblocks: 64 * 1024,
        }
    }
}

/// Simulated-memory metadata layout.
#[derive(Copy, Clone, Debug)]
struct Layout {
    /// avail_head[class]: superblocks of the class with free slots.
    avail: Addr,
    /// Head of the empty-superblock pool (the "global heap").
    pool: Addr,
}

/// Superblock allocator in the style of Hoard.
///
/// # Examples
///
/// ```
/// use webmm_alloc::{Allocator, HoardAlloc, HoardConfig};
/// use webmm_sim::PlainPort;
///
/// let mut port = PlainPort::new();
/// let mut h = HoardAlloc::new(HoardConfig::default());
/// let a = h.malloc(&mut port, 100)?;
/// h.free(&mut port, a);
/// let b = h.malloc(&mut port, 100)?;
/// assert_eq!(a, b, "LIFO reuse within the superblock");
/// # Ok::<(), webmm_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct HoardAlloc {
    config: HoardConfig,
    layout: Option<Layout>,
    large: BoundaryHeap,
    code_id: Option<CodeRegionId>,
    stats: OpStats,
    superblocks: u64,
    tx_alloc_bytes: u64,
    peak_tx_alloc: u64,
    /// Telemetry mirrors: live/free small objects per class, per-superblock
    /// free-list counts (`addr → (class, free objects)`; needed because a
    /// superblock returning to the global pool retires its whole free list
    /// at once), and the pooled-superblock count.
    class_live: [u64; N_CLASSES],
    class_free: [u64; N_CLASSES],
    sb_free: HashMap<u64, (usize, u64)>,
    pooled: u64,
}

impl HoardAlloc {
    /// Creates the allocator; memory is obtained lazily.
    pub fn new(config: HoardConfig) -> Self {
        HoardAlloc {
            config,
            layout: None,
            large: BoundaryHeap::new(1024 * 1024, 1024, false),
            code_id: None,
            stats: OpStats::default(),
            superblocks: 0,
            tx_alloc_bytes: 0,
            peak_tx_alloc: 0,
            class_live: [0; N_CLASSES],
            class_free: [0; N_CLASSES],
            sb_free: HashMap::new(),
            pooled: 0,
        }
    }

    fn class_of(size: u64) -> usize {
        let s = size.max(8).next_power_of_two();
        (s.trailing_zeros() - 3) as usize
    }

    fn class_size(class: usize) -> u64 {
        8 << class
    }

    fn layout<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Layout {
        if let Some(l) = self.layout {
            return l;
        }
        let meta = port.os_alloc((N_CLASSES as u64) * 8 + 8, 4096, PageSize::Base);
        let l = Layout {
            avail: meta,
            pool: meta + (N_CLASSES as u64) * 8,
        };
        self.layout = Some(l);
        l
    }

    /// Unlinks superblock `sb` from the doubly-linked list whose head cell
    /// is at `head_addr`.
    fn sb_unlink<P: MemoryPort + ?Sized>(&self, port: &mut P, head_addr: Addr, sb: Addr) {
        let next = port.load_u64(sb + H_NEXT);
        let prev = port.load_u64(sb + H_PREV);
        if prev != 0 {
            port.store_u64(Addr::new(prev) + H_NEXT, next);
        } else {
            port.store_u64(head_addr, next);
        }
        if next != 0 {
            port.store_u64(Addr::new(next) + H_PREV, prev);
        }
        port.exec(8);
    }

    /// Pushes superblock `sb` at the head of the list at `head_addr`.
    fn sb_push<P: MemoryPort + ?Sized>(&self, port: &mut P, head_addr: Addr, sb: Addr) {
        let head = port.load_u64(head_addr);
        port.store_u64(sb + H_NEXT, head);
        port.store_u64(sb + H_PREV, 0);
        if head != 0 {
            port.store_u64(Addr::new(head) + H_PREV, sb.raw());
        }
        port.store_u64(head_addr, sb.raw());
        port.exec(8);
    }

    fn acquire_superblock<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        l: &Layout,
        class: usize,
    ) -> Result<Addr, AllocError> {
        // Recycle from the global pool first (Hoard's global heap).
        let pooled = Addr::new(port.load_u64(l.pool));
        port.exec(4);
        let sb = if !pooled.is_null() {
            self.sb_unlink(port, l.pool, pooled);
            self.pooled = self.pooled.saturating_sub(1);
            pooled
        } else {
            if self.superblocks >= u64::from(self.config.max_superblocks) {
                return Err(AllocError::OutOfMemory {
                    requested: SB_BYTES,
                });
            }
            self.superblocks += 1;
            port.os_alloc(SB_BYTES, SB_BYTES, PageSize::Base)
        };
        port.store_u64(sb + H_CLASS, class as u64);
        port.store_u64(sb + H_FREE, 0);
        port.store_u64(sb + H_USED, 0);
        port.store_u64(sb + H_BUMP, SB_HEADER);
        port.exec(8);
        self.sb_free.insert(sb.raw(), (class, 0));
        self.sb_push(port, l.avail + class as u64 * 8, sb);
        Ok(sb)
    }
}

impl webmm_obs::HeapTelemetry for HoardAlloc {
    fn heap_snapshot(&self) -> webmm_obs::HeapSnapshot {
        let large = self.large.snapshot();
        webmm_obs::HeapSnapshot {
            allocator: "Hoard".into(),
            heap_bytes: self.superblocks * SB_BYTES + large.heap_bytes,
            // Superblocks are header-initialized on acquisition and carved
            // densely, so every mmap'd superblock counts as touched.
            touched_bytes: self.superblocks * SB_BYTES + large.touched_bytes,
            metadata_bytes: (N_CLASSES as u64) * 8
                + 8
                + self.superblocks * SB_HEADER
                + large.metadata_bytes,
            tx_live_bytes: self.tx_alloc_bytes,
            peak_tx_bytes: self.peak_tx_alloc,
            // In-use superblocks only; pooled ones sit in the global heap.
            segments: self.superblocks.saturating_sub(self.pooled) + large.segments,
            free_list_len: self.class_free.iter().sum::<u64>() + large.free_list_len,
            free_bytes: (0..N_CLASSES)
                .map(|c| self.class_free[c] * Self::class_size(c))
                .sum::<u64>()
                + large.free_bytes,
            // No freeAll here, ever: free_all_count stays 0.
            free_all_count: 0,
            classes: (0..N_CLASSES)
                .map(|c| webmm_obs::ClassOccupancy {
                    class: c as u32,
                    object_size: Self::class_size(c),
                    live: self.class_live[c],
                    free: self.class_free[c],
                })
                .collect(),
        }
    }
}

impl Allocator for HoardAlloc {
    fn name(&self) -> &'static str {
        "Hoard"
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
        let result = if size > LARGE_THRESHOLD {
            let r = self.large.malloc(port, size);
            if r.is_ok() {
                self.tx_alloc_bytes += size;
            }
            r
        } else {
            let l = self.layout(port);
            let class = Self::class_of(size);
            let head_addr = l.avail + class as u64 * 8;
            let mut sb = Addr::new(port.load_u64(head_addr));
            port.exec(8);
            if sb.is_null() {
                sb = self.acquire_superblock(port, &l, class)?;
            }
            // Take from the superblock free list, else bump-carve.
            let free = Addr::new(port.load_u64(sb + H_FREE));
            let obj = if !free.is_null() {
                let next = port.load_u64(free);
                port.store_u64(sb + H_FREE, next);
                port.exec(4);
                self.class_free[class] = self.class_free[class].saturating_sub(1);
                if let Some(e) = self.sb_free.get_mut(&sb.raw()) {
                    e.1 = e.1.saturating_sub(1);
                }
                free
            } else {
                let bump = port.load_u64(sb + H_BUMP);
                port.store_u64(sb + H_BUMP, bump + Self::class_size(class));
                port.exec(4);
                sb + bump
            };
            let used = port.load_u64(sb + H_USED) + 1;
            port.store_u64(sb + H_USED, used);
            port.exec(8);
            // Emptiness bookkeeping: a superblock with nothing left moves
            // out of the available list.
            let bump = port.load_u64(sb + H_BUMP);
            let free = port.load_u64(sb + H_FREE);
            if free == 0 && bump + Self::class_size(class) > SB_BYTES {
                self.sb_unlink(port, head_addr, sb);
                port.exec(4);
            }
            self.tx_alloc_bytes += Self::class_size(class);
            self.class_live[class] += 1;
            Ok(obj)
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
        if self.large.contains(addr) {
            self.large.free(port, addr);
            port.exec(4);
            self.stats.frees += 1;
            exit_mm(port);
            return;
        }
        let l = self.layout(port);
        let sb = addr.align_down(SB_BYTES);
        let class = port.load_u64(sb + H_CLASS) as usize;
        let head = port.load_u64(sb + H_FREE);
        port.store_u64(addr, head);
        port.store_u64(sb + H_FREE, addr.raw());
        let used = port.load_u64(sb + H_USED) - 1;
        port.store_u64(sb + H_USED, used);
        // Emptiness-class computation on every free (Hoard's invariant
        // maintenance) costs more than a plain list push.
        port.exec(18);
        self.tx_alloc_bytes = self.tx_alloc_bytes.saturating_sub(Self::class_size(class));
        self.class_live[class] = self.class_live[class].saturating_sub(1);
        self.class_free[class] += 1;
        self.sb_free.entry(sb.raw()).or_insert((class, 0)).1 += 1;

        // Emptiness-class transitions.
        let bump = port.load_u64(sb + H_BUMP);
        let was_full = head == 0 && bump + Self::class_size(class) > SB_BYTES;
        let head_addr = l.avail + class as u64 * 8;
        if was_full {
            // Full → available.
            self.sb_push(port, head_addr, sb);
        } else if used == 0 {
            // Available → empty: return to the global pool for any class.
            self.sb_unlink(port, head_addr, sb);
            self.sb_push(port, l.pool, sb);
            port.exec(4);
            // The pooled superblock's free list dies with it (it is rebuilt
            // from scratch on reacquisition), so retire its free objects
            // from the class mirror in one step.
            if let Some((cls, cnt)) = self.sb_free.remove(&sb.raw()) {
                self.class_free[cls] = self.class_free[cls].saturating_sub(cnt);
            }
            self.pooled += 1;
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
        let usable = if self.large.contains(addr) {
            let spec = self.code_spec();
            enter_mm(port, &mut self.code_id, spec);
            let u = self.large.usable(port, addr);
            exit_mm(port);
            u
        } else {
            let spec = self.code_spec();
            enter_mm(port, &mut self.code_id, spec);
            let sb = addr.align_down(SB_BYTES);
            let class = port.load_u64(sb + H_CLASS) as usize;
            port.exec(4);
            exit_mm(port);
            Self::class_size(class)
        };
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
    /// Always panics: Hoard has no bulk-free interface (§4.4 — the Ruby
    /// runtime restarts processes instead).
    fn free_all<P: MemoryPort + ?Sized>(&mut self, _port: &mut P) {
        panic!("Hoard does not support freeAll; restart the process instead");
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            heap_bytes: self.superblocks * SB_BYTES + self.large.heap_bytes(),
            metadata_bytes: (N_CLASSES as u64) * 8 + 8 + self.superblocks * SB_HEADER,
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

    fn hoard() -> HoardAlloc {
        HoardAlloc::new(HoardConfig {
            max_superblocks: 64,
        })
    }

    #[test]
    fn class_mapping() {
        assert_eq!(HoardAlloc::class_of(1), 0); // 8
        assert_eq!(HoardAlloc::class_of(8), 0);
        assert_eq!(HoardAlloc::class_of(9), 1); // 16
        assert_eq!(HoardAlloc::class_of(4096), 9);
        assert_eq!(HoardAlloc::class_size(9), 4096);
    }

    #[test]
    fn objects_carved_from_superblock() {
        let mut port = PlainPort::new();
        let mut h = hoard();
        let a = h.malloc(&mut port, 64).unwrap();
        let b = h.malloc(&mut port, 64).unwrap();
        assert_eq!(b - a, 64);
        assert_eq!(a.offset_in(SB_BYTES), SB_HEADER);
    }

    #[test]
    fn free_list_reuse_is_lifo() {
        let mut port = PlainPort::new();
        let mut h = hoard();
        // Keep one object live so the superblock never empties into the
        // global pool (which would reset its free list).
        let _anchor = h.malloc(&mut port, 64).unwrap();
        let a = h.malloc(&mut port, 64).unwrap();
        let b = h.malloc(&mut port, 64).unwrap();
        h.free(&mut port, a);
        h.free(&mut port, b);
        assert_eq!(h.malloc(&mut port, 64).unwrap(), b);
        assert_eq!(h.malloc(&mut port, 64).unwrap(), a);
    }

    #[test]
    fn full_superblock_opens_a_new_one() {
        let mut port = PlainPort::new();
        let mut h = hoard();
        // 4096-byte class: (8192-64)/4096 = 1 object per superblock.
        let a = h.malloc(&mut port, 4000).unwrap();
        let b = h.malloc(&mut port, 4000).unwrap();
        assert_ne!(a.align_down(SB_BYTES), b.align_down(SB_BYTES));
        assert_eq!(h.footprint().heap_bytes, 2 * SB_BYTES);
    }

    #[test]
    fn empty_superblock_recycles_across_classes() {
        let mut port = PlainPort::new();
        let mut h = hoard();
        let a = h.malloc(&mut port, 64).unwrap();
        let sb_a = a.align_down(SB_BYTES);
        h.free(&mut port, a); // superblock empty → global pool
                              // A different class must reuse the pooled superblock, not mmap.
        let b = h.malloc(&mut port, 128).unwrap();
        assert_eq!(b.align_down(SB_BYTES), sb_a);
        assert_eq!(h.footprint().heap_bytes, SB_BYTES);
    }

    #[test]
    fn large_objects_route_to_boundary_heap() {
        let mut port = PlainPort::new();
        let mut h = hoard();
        let a = h.malloc(&mut port, 100_000).unwrap();
        port.store_u64(a, 7);
        h.free(&mut port, a);
        let b = h.malloc(&mut port, 100_000).unwrap();
        assert_eq!(a, b, "large heap recycles");
    }

    #[test]
    #[should_panic(expected = "does not support freeAll")]
    fn free_all_panics() {
        let mut port = PlainPort::new();
        let mut h = hoard();
        h.malloc(&mut port, 8).unwrap();
        h.free_all(&mut port);
    }

    #[test]
    fn realloc_moves_between_small_and_large() {
        let mut port = PlainPort::new();
        let mut h = hoard();
        let a = h.malloc(&mut port, 64).unwrap();
        port.store_u64(a, 0xbeef);
        let b = h.realloc(&mut port, a, 64, 50_000).unwrap();
        assert_eq!(port.memory().read_u64(b), 0xbeef);
        let c = h.realloc(&mut port, b, 50_000, 32).unwrap();
        assert_eq!(port.memory().read_u64(c), 0xbeef);
    }
}
