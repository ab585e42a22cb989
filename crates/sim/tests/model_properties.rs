//! Property-based tests of the cache, TLB and memory-image models against
//! reference implementations, plus invariants of the hierarchy's
//! bookkeeping.

use proptest::prelude::*;
use std::collections::HashMap;
use webmm_sim::{
    Addr, Cache, CacheConfig, MachineConfig, MemHierarchy, PageSize, SimMemory, Tlb, TlbConfig,
};

/// Reference model of a set-associative LRU cache (naive, obviously
/// correct): per set, a vector ordered by recency.
struct RefCache {
    sets: Vec<Vec<u64>>, // line addresses, most recent last
    assoc: usize,
    line: u64,
    mask: u64,
}

impl RefCache {
    fn new(size: u64, line: u64, assoc: u32) -> Self {
        let sets = (size / line / u64::from(assoc)) as usize;
        RefCache {
            sets: vec![Vec::new(); sets],
            assoc: assoc as usize,
            line,
            mask: sets as u64 - 1,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let la = addr / self.line;
        let set = &mut self.sets[(la & self.mask) as usize];
        if let Some(pos) = set.iter().position(|&x| x == la) {
            set.remove(pos);
            set.push(la);
            true
        } else {
            if set.len() == self.assoc {
                set.remove(0); // LRU
            }
            set.push(la);
            false
        }
    }
}

/// Reference model of `SimMemory` (naive, obviously correct): a map of
/// 4 KB frames keyed by frame number, materialized on first store, and a
/// byte-by-byte forward copy.
#[derive(Default)]
struct RefMem {
    frames: HashMap<u64, [u8; 4096]>,
}

impl RefMem {
    fn read(&self, addr: u64, width: u64) -> u64 {
        (0..width).rev().fold(0, |acc, i| {
            let a = addr + i;
            let byte = self
                .frames
                .get(&(a / 4096))
                .map_or(0, |f| f[(a % 4096) as usize]);
            acc << 8 | u64::from(byte)
        })
    }

    fn write(&mut self, addr: u64, width: u64, val: u64) {
        for i in 0..width {
            let a = addr + i;
            let frame = self.frames.entry(a / 4096).or_insert([0; 4096]);
            frame[(a % 4096) as usize] = (val >> (8 * i)) as u8;
        }
    }

    fn copy(&mut self, dst: u64, src: u64, len: u64) {
        for i in 0..len {
            let b = self.read(src + i, 1);
            self.write(dst + i, 1, b);
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.frames.len() as u64 * 4096
    }
}

fn sim_read(m: &SimMemory, addr: u64, width: u64) -> u64 {
    let a = Addr::new(addr);
    match width {
        1 => u64::from(m.read_u8(a)),
        4 => u64::from(m.read_u32(a)),
        _ => m.read_u64(a),
    }
}

fn sim_write(m: &mut SimMemory, addr: u64, width: u64, val: u64) {
    let a = Addr::new(addr);
    match width {
        1 => m.write_u8(a, val as u8),
        4 => m.write_u32(a, val as u32),
        _ => m.write_u64(a, val),
    }
}

/// Places an access of `width` bytes inside `[start, start + len)`,
/// aligned to `width` so it never crosses a frame; `seed`'s top bit pins
/// it to the last `width` bytes (sparse writes at high offsets).
fn place(start: u64, len: u64, width: u64, seed: u64) -> u64 {
    let off = if seed >> 63 == 1 {
        len - width
    } else {
        seed % (len - width + 1)
    };
    (start + off) & !(width - 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `SimMemory` agrees with the frame-map reference on every read and
    /// on `resident_bytes()`, across mixed-width loads and stores and
    /// copies over several reservations (one of them 256 MB), plus reads
    /// below the base and beyond the break.
    #[test]
    fn sim_memory_matches_reference_frame_map(
        ops in proptest::collection::vec((0u8..8, 0usize..4, any::<u64>(), any::<u64>()), 1..300),
    ) {
        let base = 1u64 << 36;
        let mut m = SimMemory::new(base);
        let regions: Vec<(u64, u64)> = [(100, 8), (3 * 4096 + 5, 64), (256 << 20, 4096), (32 << 10, 32 << 10)]
            .iter()
            .map(|&(len, align)| (m.os_alloc(len, align).raw(), len))
            .collect();
        let brk = regions.last().map(|&(start, len)| start + len).unwrap();
        let mut model = RefMem::default();
        for &(kind, region, seed, val) in &ops {
            let (start, len) = regions[region];
            let width = [1, 4, 8][usize::from(kind % 3)];
            match kind {
                0..=2 => {
                    let addr = place(start, len, width, seed);
                    sim_write(&mut m, addr, width, val);
                    model.write(addr, width, val);
                }
                3..=5 => {
                    // Region 0 doubles as "outside the window": below the
                    // base or beyond the break, where reads are zero.
                    let addr = match (region, seed % 3) {
                        (0, 1) => (base - 4096 + seed % 4096) & !(width - 1),
                        (0, 2) => (brk + seed % (1 << 20)) & !(width - 1),
                        _ => place(start, len, width, seed),
                    };
                    prop_assert_eq!(sim_read(&m, addr, width), model.read(addr, width), "read at {:#x}", addr);
                }
                _ => {
                    let (src_start, src_len) = regions[(val % 4) as usize];
                    let n = (val >> 8) % 9000 % len.min(src_len) + 1;
                    let dst = place(start, len - n + 1, 1, seed);
                    let src = place(src_start, src_len - n + 1, 1, val >> 20);
                    m.copy(Addr::new(dst), Addr::new(src), n);
                    model.copy(dst, src, n);
                }
            }
            prop_assert_eq!(m.resident_bytes(), model.resident_bytes());
        }
        for (&frame, bytes) in &model.frames {
            for (i, &b) in bytes.iter().enumerate() {
                prop_assert_eq!(m.read_u8(Addr::new(frame * 4096 + i as u64)), b);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The cache (plain indexing) agrees with the reference LRU model on
    /// every access of arbitrary address streams.
    #[test]
    fn cache_matches_reference_lru(
        addrs in proptest::collection::vec(0u64..1u64 << 16, 1..400),
        writes in proptest::collection::vec(any::<bool>(), 400),
    ) {
        let mut dut = Cache::new(CacheConfig::new(2048, 64, 4));
        let mut reference = RefCache::new(2048, 64, 4);
        for (i, &a) in addrs.iter().enumerate() {
            let hit = dut.access(Addr::new(a), writes[i % writes.len()]).hit;
            let ref_hit = reference.access(a);
            prop_assert_eq!(hit, ref_hit, "divergence at access {} (addr {:#x})", i, a);
        }
    }

    /// Writebacks are conservative: a dirty eviction is only reported for a
    /// line that was actually written, and the victim differs from the
    /// incoming line.
    #[test]
    fn dirty_evictions_only_for_written_lines(
        ops in proptest::collection::vec((0u64..1u64 << 14, any::<bool>()), 1..300),
    ) {
        let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
        let mut written: HashMap<u64, bool> = HashMap::new();
        for &(a, w) in &ops {
            let r = c.access(Addr::new(a), w);
            let la = a / 64;
            let e = written.entry(la).or_insert(false);
            *e = *e || w;
            if let Some(victim) = r.evicted_dirty {
                let vla = victim.raw() / 64;
                prop_assert_ne!(vla, la, "victim cannot be the incoming line");
                prop_assert!(written.get(&vla).copied().unwrap_or(false),
                    "dirty eviction of a never-written line {:#x}", victim.raw());
                written.insert(vla, false); // written back: clean now
            }
        }
    }

    /// Hashed and plain indexing see exactly the same hits on streams that
    /// fit entirely in the cache (indexing cannot matter without evictions).
    #[test]
    fn hashing_is_invisible_without_pressure(
        addrs in proptest::collection::vec(0u64..(16u64 * 64), 1..200),
    ) {
        // 16 distinct lines at most; 64 lines of capacity.
        let mut plain = Cache::new(CacheConfig::new(4096, 64, 64)); // fully assoc
        let mut hashed = Cache::new(CacheConfig::new_hashed(4096, 64, 64));
        for &a in &addrs {
            let ph = plain.access(Addr::new(a), false).hit;
            let hh = hashed.access(Addr::new(a), false).hit;
            prop_assert_eq!(ph, hh);
        }
    }

    /// TLB hit/miss agrees with a reference LRU over page numbers.
    #[test]
    fn tlb_matches_reference(pages in proptest::collection::vec(0u64..64, 1..300)) {
        let mut dut = Tlb::new(TlbConfig { base_entries: 8, large_entries: 0 });
        let mut reference: Vec<u64> = Vec::new();
        for &p in &pages {
            let hit = dut.access(Addr::new(p * 4096), PageSize::Base);
            let ref_hit = if let Some(pos) = reference.iter().position(|&x| x == p) {
                reference.remove(pos);
                reference.push(p);
                true
            } else {
                if reference.len() == 8 {
                    reference.remove(0);
                }
                reference.push(p);
                false
            };
            prop_assert_eq!(hit, ref_hit);
        }
    }

    /// Hierarchy counter conservation: every data access is exactly one of
    /// {L1 hit, L2 hit, L2 miss} — L1 misses equal L2 hits plus L2 misses
    /// when only data flows through (no ifetch, no prefetcher).
    #[test]
    fn hierarchy_counters_conserve(
        ops in proptest::collection::vec((0u64..1u64 << 18, any::<bool>()), 1..500),
    ) {
        let machine = MachineConfig::niagara_t1(); // no prefetcher
        let mut h = MemHierarchy::new(&machine);
        for &(a, w) in &ops {
            let kind = if w { webmm_sim::AccessKind::Store } else { webmm_sim::AccessKind::Load };
            h.access(0, Addr::new(a), kind, PageSize::Base, webmm_sim::Category::Application);
        }
        let ev = h.counters(0).total();
        prop_assert_eq!(ev.loads + ev.stores, ops.len() as u64);
        prop_assert_eq!(ev.l1d_misses, ev.l2_hits + ev.l2_misses);
        prop_assert_eq!(ev.bus_txns, ev.l2_misses + ev.writebacks);
        prop_assert_eq!(ev.bus_bytes, ev.bus_txns * 64);
    }
}
