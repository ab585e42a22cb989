//! Shared boundary-tag heap engine.
//!
//! Both general-purpose baselines of the paper — the Zend-style default
//! allocator of the PHP runtime and the Doug-Lea-style glibc malloc used in
//! the Ruby study — are built on the same classical machinery: boundary
//! headers on every block, segregated free-list bins with a bitmap,
//! **splitting** on allocation and **coalescing** with both physical
//! neighbours on free. These are exactly the "defragmentation activities"
//! whose cost the paper's DDmalloc dodges.
//!
//! [`BoundaryHeap`] implements that machinery once, parameterized by the
//! one structural difference the paper calls out for Lea's allocator: it
//! "sorts all of the objects in the free lists in order of their size to
//! easily find the best object to allocate" (`sorted_large_bins`).

use crate::api::{round_up, AllocError};
use webmm_sim::{Addr, MemoryPort, PageSize};

/// Boundary header size preceding every payload.
pub(crate) const HEADER: u64 = 16;
/// Minimum block size (header + the two free-list links).
pub(crate) const MIN_BLOCK: u64 = 32;
/// Exact-fit bins cover block sizes below this.
const SMALL_LIMIT: u64 = 2048;
/// Number of exact-fit bins (block size / 8).
const N_SMALL_BINS: usize = (SMALL_LIMIT / 8) as usize;
/// Log-spaced large bins above `SMALL_LIMIT`.
const N_LARGE_BINS: usize = 16;
/// Total bins.
const N_BINS: usize = N_SMALL_BINS + N_LARGE_BINS;
/// First-fit probe cap per large bin (unsorted mode).
const PROBE_CAP: u32 = 8;
/// Insertion-walk cap (sorted mode).
const SORT_CAP: u32 = 16;

/// `size_flags` bit: block is allocated.
const F_USED: u64 = 1;
/// `size_flags` bit: the physically previous block is allocated.
const F_PREV_USED: u64 = 2;

/// Bookkeeping charges are literal counts below this bound.
const SCALED_LEN: usize = 16;

/// Simulated-memory layout of the heap metadata.
#[derive(Copy, Clone, Debug)]
struct Layout {
    /// bin_head[bin]: u64 per bin.
    bins: Addr,
    /// binmap: one bit per bin, u64 words.
    binmap: Addr,
    /// Wilderness bump cursor within the current arena.
    cursor: Addr,
    /// End of the current arena.
    limit: Addr,
}

/// A boundary-tag heap with bins, split, and coalesce.
#[derive(Debug)]
pub(crate) struct BoundaryHeap {
    arena_bytes: u64,
    max_arenas: u32,
    /// Keep large bins sorted by size (Lea-style best fit) instead of
    /// capped first-fit.
    sorted_large_bins: bool,
    /// The engine's bookkeeping instruction counts, indexed by unscaled
    /// count and multiplied by the heap's exec scale. The Zend allocator's
    /// paths are leaner than glibc's (fewer consistency checks, no arena
    /// locking protocol), which the scale calibrates. Precomputed so the
    /// per-operation charge is a table load, not a float multiply and a
    /// software `round`.
    scaled: [u64; SCALED_LEN],
    layout: Option<Layout>,
    arenas: Vec<Addr>,
    /// Bytes carved in each arena since the last reset — the exclusive
    /// bound of valid block headers. Coalescing never reads beyond it, so
    /// stale headers from previous transactions and inter-arena gaps are
    /// never misinterpreted.
    carved: Vec<u64>,
    current_arena: usize,
    tx_alloc_bytes: u64,
    peak_tx_alloc: u64,
    /// Telemetry mirrors (Rust-side, never read by the simulation): live
    /// block count, free-list population, and the touched high-water mark.
    /// Mirrors exist so `HeapTelemetry` snapshots need no port access.
    live_blocks: u64,
    free_blocks: u64,
    free_bytes: u64,
    touched_hw: u64,
}

impl BoundaryHeap {
    /// Creates a heap; the first arena is obtained lazily.
    pub fn new(arena_bytes: u64, max_arenas: u32, sorted_large_bins: bool) -> Self {
        Self::with_exec_scale(arena_bytes, max_arenas, sorted_large_bins, 1.0)
    }

    /// Like [`BoundaryHeap::new`] with a scale on bookkeeping instruction
    /// counts (see `scaled`).
    pub fn with_exec_scale(
        arena_bytes: u64,
        max_arenas: u32,
        sorted_large_bins: bool,
        exec_scale: f64,
    ) -> Self {
        assert!(arena_bytes >= 4096, "arena too small to be useful");
        BoundaryHeap {
            arena_bytes,
            max_arenas,
            sorted_large_bins,
            scaled: std::array::from_fn(|n| (n as f64 * exec_scale).round() as u64),
            layout: None,
            arenas: Vec::new(),
            carved: Vec::new(),
            current_arena: 0,
            tx_alloc_bytes: 0,
            peak_tx_alloc: 0,
            live_blocks: 0,
            free_blocks: 0,
            free_bytes: 0,
            touched_hw: 0,
        }
    }

    /// Charges scaled bookkeeping instructions.
    fn exec<P: MemoryPort + ?Sized>(&self, port: &mut P, n: u64) {
        debug_assert!(
            (n as usize) < SCALED_LEN,
            "bookkeeping charge {n} out of table"
        );
        port.exec(self.scaled[n as usize]);
    }

    /// Total bytes obtained from the OS for arenas.
    pub fn heap_bytes(&self) -> u64 {
        self.arenas.len() as u64 * self.arena_bytes
    }

    /// Metadata bytes (bins + bitmap + cursor cells).
    pub fn metadata_bytes(&self) -> u64 {
        (N_BINS as u64) * 8 + 64 + 16
    }

    /// Peak bytes allocated within one transaction (reset-to-reset).
    pub fn peak_tx_alloc(&self) -> u64 {
        self.peak_tx_alloc
    }

    /// Telemetry snapshot of this engine's internals, answered entirely
    /// from the Rust-side mirrors. Wrappers fill in `allocator` and any
    /// family-specific fields (classes, freeAll count) on top.
    pub fn snapshot(&self) -> webmm_obs::HeapSnapshot {
        webmm_obs::HeapSnapshot {
            heap_bytes: self.heap_bytes(),
            touched_bytes: self.touched_hw,
            metadata_bytes: self.metadata_bytes(),
            tx_live_bytes: self.tx_alloc_bytes,
            peak_tx_bytes: self.peak_tx_alloc,
            segments: self.arenas.len() as u64,
            free_list_len: self.free_blocks,
            free_bytes: self.free_bytes(),
            classes: vec![webmm_obs::ClassOccupancy {
                class: 0,
                object_size: 0, // boundary tags have no size classes
                live: self.live_blocks,
                free: self.free_blocks,
            }],
            ..webmm_obs::HeapSnapshot::default()
        }
    }

    /// Free-list bytes currently binned (telemetry mirror).
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Whether `addr` falls inside one of this heap's arenas. Used by
    /// composite allocators (Hoard-, TCmalloc-style) that route large
    /// objects to a boundary-tag heap and must classify pointers on free.
    pub fn contains(&self, addr: Addr) -> bool {
        self.arenas
            .iter()
            .any(|&a| addr >= a && addr < a + self.arena_bytes)
    }

    fn layout<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Layout {
        if let Some(l) = self.layout {
            return l;
        }
        let bins = port.os_alloc((N_BINS as u64) * 8 + 64 + 16, 4096, PageSize::Base);
        let binmap = bins + (N_BINS as u64) * 8;
        let cursor = binmap + 64;
        let limit = cursor + 8;
        let l = Layout {
            bins,
            binmap,
            cursor,
            limit,
        };
        self.layout = Some(l);
        let arena = port.os_alloc(self.arena_bytes, 4096, PageSize::Base);
        self.arenas.push(arena);
        self.carved.push(0);
        port.store_u64(l.cursor, arena.raw());
        port.store_u64(l.limit, (arena + self.arena_bytes).raw());
        l
    }

    /// Index of the arena containing `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` lies outside every arena (a wild pointer).
    fn arena_of(&self, b: Addr) -> usize {
        self.arenas
            .iter()
            .position(|&a| b >= a && b < a + self.arena_bytes)
            .expect("address outside every arena")
    }

    /// Exclusive upper bound of valid block headers in `b`'s arena.
    fn block_bound<P: MemoryPort + ?Sized>(&self, port: &mut P, l: &Layout, b: Addr) -> Addr {
        let idx = self.arena_of(b);
        if idx == self.current_arena {
            Addr::new(port.load_u64(l.cursor))
        } else {
            self.arenas[idx] + self.carved[idx]
        }
    }

    fn bin_of(size: u64) -> usize {
        if size < SMALL_LIMIT {
            (size / 8) as usize
        } else {
            let log = 63 - size.leading_zeros() as usize; // floor(log2), >= 11
            N_SMALL_BINS + (log - 11).min(N_LARGE_BINS - 1)
        }
    }

    fn binmap_set<P: MemoryPort + ?Sized>(&self, port: &mut P, l: &Layout, bin: usize, set: bool) {
        let word_addr = l.binmap + (bin / 64) as u64 * 8;
        let mut w = port.load_u64(word_addr);
        if set {
            w |= 1 << (bin % 64);
        } else {
            w &= !(1 << (bin % 64));
        }
        port.store_u64(word_addr, w);
        self.exec(port, 4);
    }

    /// Inserts free block `b` (header already written) into its bin. In
    /// sorted mode, large bins are kept in ascending size order (Lea-style),
    /// which costs an insertion walk.
    fn bin_insert<P: MemoryPort + ?Sized>(&mut self, port: &mut P, l: &Layout, b: Addr, size: u64) {
        self.free_blocks += 1;
        self.free_bytes += size;
        let bin = Self::bin_of(size);
        let head_addr = l.bins + bin as u64 * 8;
        let head = port.load_u64(head_addr);
        self.exec(port, 4);

        if self.sorted_large_bins && bin >= N_SMALL_BINS && head != 0 {
            // Walk to the insertion point (ascending size).
            let mut prev = Addr::new(0);
            let mut node = Addr::new(head);
            let mut walked = 0;
            while !node.is_null() && walked < SORT_CAP {
                let nsize = port.load_u64(node) & !7;
                self.exec(port, 4);
                if nsize >= size {
                    break;
                }
                prev = node;
                node = Addr::new(port.load_u64(node + HEADER));
                walked += 1;
            }
            // Insert between prev and node.
            port.store_u64(b + HEADER, node.raw());
            port.store_u64(b + HEADER + 8, prev.raw());
            if !node.is_null() {
                port.store_u64(node + HEADER + 8, b.raw());
            }
            if prev.is_null() {
                port.store_u64(head_addr, b.raw());
            } else {
                port.store_u64(prev + HEADER, b.raw());
            }
            self.exec(port, 6);
            return;
        }

        // LIFO push (small bins, or unsorted mode).
        port.store_u64(b + HEADER, head);
        port.store_u64(b + HEADER + 8, 0);
        if head != 0 {
            port.store_u64(Addr::new(head) + HEADER + 8, b.raw());
        }
        port.store_u64(head_addr, b.raw());
        if head == 0 {
            self.binmap_set(port, l, bin, true);
        }
        self.exec(port, 4);
    }

    /// Unlinks free block `b` of size `size` from its bin.
    fn bin_unlink<P: MemoryPort + ?Sized>(&mut self, port: &mut P, l: &Layout, b: Addr, size: u64) {
        self.free_blocks = self.free_blocks.saturating_sub(1);
        self.free_bytes = self.free_bytes.saturating_sub(size);
        let bin = Self::bin_of(size);
        let next = port.load_u64(b + HEADER);
        let prev = port.load_u64(b + HEADER + 8);
        if prev != 0 {
            port.store_u64(Addr::new(prev) + HEADER, next);
        } else {
            let head_addr = l.bins + bin as u64 * 8;
            port.store_u64(head_addr, next);
            if next == 0 {
                self.binmap_set(port, l, bin, false);
            }
        }
        if next != 0 {
            port.store_u64(Addr::new(next) + HEADER + 8, prev);
        }
        self.exec(port, 8);
    }

    fn read_header<P: MemoryPort + ?Sized>(&self, port: &mut P, b: Addr) -> (u64, u64) {
        let size_flags = port.load_u64(b);
        (size_flags & !7, size_flags & 7)
    }

    fn write_header<P: MemoryPort + ?Sized>(
        &self,
        port: &mut P,
        b: Addr,
        size: u64,
        used: bool,
        prev_used: bool,
    ) {
        let mut flags = 0;
        if used {
            flags |= F_USED;
        }
        if prev_used {
            flags |= F_PREV_USED;
        }
        port.store_u64(b, size | flags);
        self.exec(port, 2);
    }

    /// Updates the next physical block's prev_size and prev-used flag.
    /// `end` is the first address past the block; `bound` is the exclusive
    /// limit of valid headers in its arena.
    fn sync_next<P: MemoryPort + ?Sized>(
        &self,
        port: &mut P,
        end: Addr,
        bound: Addr,
        prev_size: u64,
        prev_used: bool,
    ) {
        if end >= bound {
            return; // last valid block of its arena
        }
        port.store_u64(end + 8, prev_size);
        let sf = port.load_u64(end);
        let sf = if prev_used {
            sf | F_PREV_USED
        } else {
            sf & !F_PREV_USED
        };
        port.store_u64(end, sf);
        self.exec(port, 5);
    }

    /// Finds the first non-empty bin index >= `from` via the bitmap.
    fn find_bin<P: MemoryPort + ?Sized>(
        &self,
        port: &mut P,
        l: &Layout,
        from: usize,
    ) -> Option<usize> {
        let mut word_idx = from / 64;
        let mut mask = !0u64 << (from % 64);
        while word_idx * 64 < N_BINS {
            let w = port.load_u64(l.binmap + word_idx as u64 * 8) & mask;
            self.exec(port, 3);
            if w != 0 {
                return Some(word_idx * 64 + w.trailing_zeros() as usize);
            }
            word_idx += 1;
            mask = !0;
        }
        None
    }

    /// Carves `need` bytes from the wilderness, growing into new arenas.
    fn carve<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        l: &Layout,
        need: u64,
    ) -> Result<Addr, AllocError> {
        loop {
            let cursor = Addr::new(port.load_u64(l.cursor));
            let limit = Addr::new(port.load_u64(l.limit));
            self.exec(port, 4);
            if cursor + need <= limit {
                port.store_u64(l.cursor, (cursor + need).raw());
                let base = self.arenas[self.current_arena];
                let hw = &mut self.carved[self.current_arena];
                *hw = (*hw).max((cursor + need) - base);
                let total: u64 = self.carved.iter().sum();
                self.touched_hw = self.touched_hw.max(total);
                return Ok(cursor);
            }
            // Turn the arena remainder into a free block, then open the
            // next arena.
            let rem = limit.checked_sub(cursor).unwrap_or(0);
            if rem >= MIN_BLOCK {
                // prev_used is conservatively true: the wilderness boundary
                // always follows an allocated or fresh region.
                self.write_header(port, cursor, rem, false, true);
                port.store_u64(l.cursor, limit.raw()); // seal before insert
                self.carved[self.current_arena] = self.arena_bytes;
                self.bin_insert(port, l, cursor, rem);
            }
            if self.current_arena + 1 < self.arenas.len() {
                self.current_arena += 1;
            } else {
                if self.arenas.len() >= self.max_arenas as usize {
                    return Err(AllocError::OutOfMemory { requested: need });
                }
                let arena = port.os_alloc(self.arena_bytes, 4096, PageSize::Base);
                self.arenas.push(arena);
                self.carved.push(0);
                self.current_arena = self.arenas.len() - 1;
            }
            let arena = self.arenas[self.current_arena];
            port.store_u64(l.cursor, arena.raw());
            port.store_u64(l.limit, (arena + self.arena_bytes).raw());
            self.exec(port, 10);
        }
    }

    /// Allocates `size` payload bytes.
    pub fn malloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        size: u64,
    ) -> Result<Addr, AllocError> {
        debug_assert!(
            size > 0,
            "zero-size request must be filtered by the wrapper"
        );
        let l = self.layout(port);
        let need = round_up(size + HEADER, 8).max(MIN_BLOCK);
        if need > self.arena_bytes {
            return Err(AllocError::InvalidRequest { requested: size });
        }
        self.exec(port, 8);

        // 1. Search the bins from the ideal one upward.
        let mut found: Option<(Addr, u64)> = None;
        let mut bin = Self::bin_of(need);
        while let Some(b) = self.find_bin(port, &l, bin) {
            if b < N_SMALL_BINS {
                // Exact-fit bin: every block in it has size b*8 >= need.
                let head = Addr::new(port.load_u64(l.bins + b as u64 * 8));
                self.exec(port, 2);
                found = Some((head, (b as u64) * 8));
                break;
            }
            // Large bin: bounded walk. In sorted mode the list ascends, so
            // the first fitting block is the best fit.
            let head_addr = l.bins + b as u64 * 8;
            let mut node = Addr::new(port.load_u64(head_addr));
            let mut probes = 0;
            let cap = if self.sorted_large_bins {
                SORT_CAP
            } else {
                PROBE_CAP
            };
            while !node.is_null() && probes < cap {
                let (bs, _) = self.read_header(port, node);
                self.exec(port, 4);
                if bs >= need {
                    found = Some((node, bs));
                    break;
                }
                node = Addr::new(port.load_u64(node + HEADER));
                probes += 1;
            }
            if found.is_some() {
                break;
            }
            bin = b + 1;
            if bin >= N_BINS {
                break;
            }
        }

        let payload = if let Some((b, bs)) = found {
            self.bin_unlink(port, &l, b, bs);
            let (_, flags) = self.read_header(port, b);
            let prev_used = flags & F_PREV_USED != 0;
            let bound = self.block_bound(port, &l, b);
            if bs - need >= MIN_BLOCK {
                // SPLIT: the defragmentation activity on the malloc side.
                let rem = b + need;
                let rem_size = bs - need;
                self.write_header(port, b, need, true, prev_used);
                self.write_header(port, rem, rem_size, false, true);
                port.store_u64(rem + 8, need); // remainder's prev_size
                self.sync_next(port, rem + rem_size, bound, rem_size, false);
                self.bin_insert(port, &l, rem, rem_size);
                self.exec(port, 12);
            } else {
                self.write_header(port, b, bs, true, prev_used);
                self.sync_next(port, b + bs, bound, bs, true);
            }
            b + HEADER
        } else {
            // 2. Wilderness carve.
            let b = self.carve(port, &l, need)?;
            self.write_header(port, b, need, true, true);
            port.store_u64(b + 8, 0);
            b + HEADER
        };

        self.tx_alloc_bytes += need;
        self.peak_tx_alloc = self.peak_tx_alloc.max(self.tx_alloc_bytes);
        self.live_blocks += 1;
        Ok(payload)
    }

    /// Frees the block whose payload starts at `addr`, coalescing with free
    /// physical neighbours.
    pub fn free<P: MemoryPort + ?Sized>(&mut self, port: &mut P, addr: Addr) {
        let l = self.layout(port);
        let mut b = addr - HEADER;
        let (mut size, flags) = self.read_header(port, b);
        debug_assert!(flags & F_USED != 0, "double free");
        let mut prev_used = flags & F_PREV_USED != 0;
        self.exec(port, 8);
        self.tx_alloc_bytes = self.tx_alloc_bytes.saturating_sub(size);
        // Mirror decrement here, before the early returns below (wilderness
        // absorption frees a block without ever binning it).
        self.live_blocks = self.live_blocks.saturating_sub(1);

        // COALESCE with the physical successor if it is free.
        let in_current_arena = self.arena_of(b) == self.current_arena;
        let bound = self.block_bound(port, &l, b);
        let cursor = Addr::new(port.load_u64(l.cursor));
        let next = b + size;
        if next < bound {
            let (nsize, nflags) = self.read_header(port, next);
            self.exec(port, 4);
            if nflags & F_USED == 0 && nsize > 0 {
                self.bin_unlink(port, &l, next, nsize);
                size += nsize;
                self.exec(port, 4);
            }
        } else if in_current_arena && next == cursor && prev_used {
            // Last block before the wilderness: absorb it back.
            port.store_u64(l.cursor, b.raw());
            self.exec(port, 4);
            return;
        }

        // COALESCE with the physical predecessor if it is free.
        if !prev_used {
            let prev_size = port.load_u64(b + 8);
            self.exec(port, 3);
            if prev_size > 0 {
                let prev = b - prev_size;
                let (psize, pflags) = self.read_header(port, prev);
                debug_assert_eq!(pflags & F_USED, 0, "prev_used flag out of sync");
                debug_assert_eq!(psize, prev_size, "boundary tags out of sync");
                self.bin_unlink(port, &l, prev, psize);
                b = prev;
                size += psize;
                prev_used = pflags & F_PREV_USED != 0;
                self.exec(port, 4);
            }
        }

        // Absorb into the wilderness if we now touch it.
        if in_current_arena && b + size == Addr::new(port.load_u64(l.cursor)) {
            port.store_u64(l.cursor, b.raw());
            self.exec(port, 3);
            return;
        }

        self.write_header(port, b, size, false, prev_used);
        self.sync_next(port, b + size, bound, size, false);
        self.bin_insert(port, &l, b, size);
    }

    /// Usable payload size of the live block at `addr`.
    pub fn usable<P: MemoryPort + ?Sized>(&mut self, port: &mut P, addr: Addr) -> u64 {
        let b = addr - HEADER;
        let (size, _) = self.read_header(port, b);
        self.exec(port, 4);
        size - HEADER
    }

    /// Bulk reset: clears every bin and rewinds the wilderness to the first
    /// arena (Zend's per-request heap teardown).
    pub fn reset<P: MemoryPort + ?Sized>(&mut self, port: &mut P) {
        let l = self.layout(port);
        for bin in 0..N_BINS as u64 {
            port.store_u64(l.bins + bin * 8, 0);
        }
        for w in 0..8u64 {
            port.store_u64(l.binmap + w * 8, 0);
        }
        self.current_arena = 0;
        for c in &mut self.carved {
            *c = 0;
        }
        let arena = self.arenas[0];
        port.store_u64(l.cursor, arena.raw());
        port.store_u64(l.limit, (arena + self.arena_bytes).raw());
        port.exec(30 + 2 * N_BINS as u64);
        self.tx_alloc_bytes = 0;
        self.live_blocks = 0;
        self.free_blocks = 0;
        self.free_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_sim::PlainPort;

    #[test]
    fn scaled_table_matches_float_charge() {
        for exec_scale in [0.7, 1.0] {
            let h = BoundaryHeap::with_exec_scale(1 << 20, 1, false, exec_scale);
            for n in 0..SCALED_LEN as u64 {
                assert_eq!(
                    h.scaled[n as usize],
                    (n as f64 * exec_scale).round() as u64,
                    "n = {n}, scale = {exec_scale}"
                );
            }
        }
    }

    #[test]
    fn bin_of_is_monotone_and_bounded() {
        let mut prev = 0;
        for size in (32..1 << 22).step_by(8) {
            let b = BoundaryHeap::bin_of(size);
            assert!(b >= prev);
            assert!(b < N_BINS);
            prev = b;
        }
    }

    #[test]
    fn sorted_bins_keep_ascending_order() {
        let mut port = PlainPort::new();
        let mut h = BoundaryHeap::new(1 << 20, 4, true);
        // Allocate three large blocks with guards, free them out of order.
        let sizes = [3000u64, 8000, 5000];
        let mut blocks = Vec::new();
        for &s in &sizes {
            blocks.push(h.malloc(&mut port, s).unwrap());
            h.malloc(&mut port, 64).unwrap(); // guard against coalescing
        }
        for &b in &blocks {
            h.free(&mut port, b);
        }
        // Best fit: a 4500-byte request must pick the 5000-byte block,
        // not the 8000-byte one that sits in the same log bin.
        let got = h.malloc(&mut port, 4500).unwrap();
        assert_eq!(got, blocks[2]);
    }

    #[test]
    fn unsorted_bins_are_first_fit() {
        let mut port = PlainPort::new();
        let mut h = BoundaryHeap::new(1 << 20, 4, false);
        let big = h.malloc(&mut port, 8000).unwrap();
        h.malloc(&mut port, 64).unwrap();
        let small = h.malloc(&mut port, 5000).unwrap();
        h.malloc(&mut port, 64).unwrap();
        h.free(&mut port, big);
        h.free(&mut port, small);
        // LIFO first fit: the most recently freed fitting block wins.
        let got = h.malloc(&mut port, 4500).unwrap();
        assert_eq!(got, small);
    }

    #[test]
    fn usable_reports_block_payload() {
        let mut port = PlainPort::new();
        let mut h = BoundaryHeap::new(1 << 20, 4, false);
        let a = h.malloc(&mut port, 100).unwrap();
        assert_eq!(h.usable(&mut port, a), 104); // 100+16 → 120 block − 16
    }

    #[test]
    fn telemetry_mirrors_track_binned_blocks() {
        let mut port = PlainPort::new();
        let mut h = BoundaryHeap::new(1 << 20, 4, false);
        let a = h.malloc(&mut port, 100).unwrap();
        h.malloc(&mut port, 64).unwrap(); // guard against wilderness absorb
        assert_eq!(h.free_bytes(), 0);
        let s = h.snapshot();
        assert_eq!((s.free_list_len, s.classes[0].live), (0, 2));
        h.free(&mut port, a);
        assert_eq!(h.free_bytes(), 120); // whole block, header included
        let s = h.snapshot();
        assert_eq!((s.free_list_len, s.classes[0].live), (1, 1));
        assert!(s.touched_bytes >= 120 + 80);
        h.reset(&mut port);
        assert_eq!(h.free_bytes(), 0);
        assert_eq!(h.snapshot().live_objects(), 0);
    }
}
