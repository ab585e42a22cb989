//! The assembled memory hierarchy of one simulated machine.
//!
//! [`MemHierarchy`] owns every cache array of the machine — per-core L1I,
//! L1D and D-TLB, and one L2 (plus optional stream prefetcher) per sharing
//! group — and routes each access from a *hardware context* through them,
//! attributing the resulting events to that context's counters under the
//! current cost [`Category`].
//!
//! Contexts are numbered `0 .. cores * threads_per_core` and grouped per
//! core (`core = ctx / threads_per_core`), so "run on the first k cores"
//! means "use contexts `0 .. k * threads_per_core`" — matching how the
//! paper scales its core-count experiments on both platforms.

use crate::addr::Addr;
use crate::cache::Cache;
use crate::counters::{CategorizedCounts, Category};
use crate::machine::MachineConfig;
use crate::prefetch::StreamPrefetcher;
use crate::tlb::{PageSize, Tlb};

/// Kind of memory access routed through the hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Data read.
    Load,
    /// Data write.
    Store,
    /// Instruction fetch (one cache line).
    IFetch,
}

#[derive(Debug)]
struct CoreState {
    l1i: Cache,
    l1d: Cache,
    dtlb: Tlb,
}

#[derive(Debug)]
struct L2State {
    cache: Cache,
    prefetcher: Option<StreamPrefetcher>,
}

/// All cache state of one machine, plus per-context event counters.
#[derive(Debug)]
pub struct MemHierarchy {
    config: MachineConfig,
    cores: Vec<CoreState>,
    l2s: Vec<L2State>,
    counters: Vec<CategorizedCounts>,
    line_bytes: u64,
}

impl MemHierarchy {
    /// Builds cold caches for `config`.
    pub fn new(config: &MachineConfig) -> Self {
        let cores = (0..config.cores)
            .map(|_| CoreState {
                l1i: Cache::new(config.l1i),
                l1d: Cache::new(config.l1d),
                dtlb: Tlb::new(config.dtlb),
            })
            .collect();
        let l2s = (0..config.l2_instances())
            .map(|_| L2State {
                cache: Cache::new(config.l2),
                prefetcher: config.prefetch.map(StreamPrefetcher::new),
            })
            .collect();
        MemHierarchy {
            cores,
            l2s,
            counters: vec![CategorizedCounts::new(); config.contexts() as usize],
            line_bytes: config.l2.line_bytes,
            config: config.clone(),
        }
    }

    /// The machine this hierarchy was built for.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Core index serving hardware context `ctx`.
    #[inline]
    pub fn core_of(&self, ctx: usize) -> usize {
        ctx / self.config.threads_per_core as usize
    }

    /// L2 sharing-group index for a core.
    #[inline]
    pub fn l2_of(&self, core: usize) -> usize {
        core / self.config.cores_per_l2 as usize
    }

    /// Event counters accumulated by context `ctx`.
    pub fn counters(&self, ctx: usize) -> &CategorizedCounts {
        &self.counters[ctx]
    }

    /// Zeroes the counters of every context (cache state is kept, so a
    /// measurement window can start warm).
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            *c = CategorizedCounts::new();
        }
    }

    /// Adds `n` executed instructions to `ctx` under `cat`.
    #[inline]
    pub fn add_instructions(&mut self, ctx: usize, cat: Category, n: u64) {
        self.counters[ctx].get_mut(cat).instructions += n;
    }

    /// Routes one access through TLB (data only), L1 and L2, updating the
    /// counters of `ctx` under `cat`. `page` is the page size backing the
    /// accessed address.
    pub fn access(
        &mut self,
        ctx: usize,
        addr: Addr,
        kind: AccessKind,
        page: PageSize,
        cat: Category,
    ) {
        let core = self.core_of(ctx);
        let l2_idx = self.l2_of(core);
        let ev = self.counters[ctx].get_mut(cat);

        // 1. TLB (data accesses only; instruction translations are assumed
        //    covered — the paper's TLB story is entirely about data).
        match kind {
            AccessKind::Load => {
                ev.loads += 1;
                ev.instructions += 1;
                if !self.cores[core].dtlb.access(addr, page) {
                    self.counters[ctx].get_mut(cat).dtlb_misses += 1;
                }
            }
            AccessKind::Store => {
                ev.stores += 1;
                ev.instructions += 1;
                if !self.cores[core].dtlb.access(addr, page) {
                    self.counters[ctx].get_mut(cat).dtlb_misses += 1;
                }
            }
            AccessKind::IFetch => {
                ev.ifetch_lines += 1;
            }
        }

        // 2. L1.
        let write = kind == AccessKind::Store;
        let l1_result = match kind {
            AccessKind::IFetch => self.cores[core].l1i.access(addr, false),
            _ => self.cores[core].l1d.access(addr, write),
        };
        if l1_result.hit {
            return;
        }
        {
            let ev = self.counters[ctx].get_mut(cat);
            match kind {
                AccessKind::IFetch => ev.l1i_misses += 1,
                _ => ev.l1d_misses += 1,
            }
        }

        // An L1 dirty victim is written back into the L2 (no bus traffic if
        // resident there; otherwise it goes straight to memory).
        if let Some(victim) = l1_result.evicted_dirty {
            if !self.l2s[l2_idx].cache.mark_dirty(victim) {
                let ev = self.counters[ctx].get_mut(cat);
                ev.writebacks += 1;
                ev.bus_txns += 1;
                ev.bus_bytes += self.line_bytes;
            }
        }

        // 3. L2 (fill is a read; dirtiness arrives later via L1 writeback).
        let l2_result = self.l2s[l2_idx].cache.access(addr, false);
        {
            let ev = self.counters[ctx].get_mut(cat);
            if l2_result.hit {
                ev.l2_hits += 1;
                if l2_result.prefetch_covered {
                    ev.prefetch_covered += 1;
                }
            } else {
                ev.l2_misses += 1;
                ev.bus_txns += 1;
                ev.bus_bytes += self.line_bytes;
            }
        }
        if l2_result.evicted_dirty.is_some() {
            let ev = self.counters[ctx].get_mut(cat);
            ev.writebacks += 1;
            ev.bus_txns += 1;
            ev.bus_bytes += self.line_bytes;
        }

        // 4. Prefetcher observes the demand stream at L2.
        let fills: Vec<Addr> = match self.l2s[l2_idx].prefetcher.as_mut() {
            Some(pf) => pf.on_access(addr, !l2_result.hit),
            None => Vec::new(),
        };
        for fill_addr in fills {
            let (evicted, installed) = self.l2s[l2_idx].cache.prefetch_fill(fill_addr);
            let ev = self.counters[ctx].get_mut(cat);
            if installed {
                ev.prefetches += 1;
                ev.bus_txns += 1;
                ev.bus_bytes += self.line_bytes;
            }
            if evicted.is_some() {
                ev.writebacks += 1;
                ev.bus_txns += 1;
                ev.bus_bytes += self.line_bytes;
            }
        }
    }

    /// Flushes the private state (L1s + TLB) of the core serving `ctx`,
    /// as happens when its process is restarted. Shared L2 contents are
    /// left behind as dead lines, exactly like on real hardware.
    pub fn flush_core(&mut self, ctx: usize) {
        let core = self.core_of(ctx);
        self.cores[core].l1i.flush();
        self.cores[core].l1d.flush();
        self.cores[core].dtlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn xeon_hier() -> MemHierarchy {
        MemHierarchy::new(&MachineConfig::xeon_clovertown())
    }

    #[test]
    fn context_to_core_mapping() {
        let h = xeon_hier();
        assert_eq!(h.core_of(0), 0);
        assert_eq!(h.core_of(7), 7);
        assert_eq!(h.l2_of(0), 0);
        assert_eq!(h.l2_of(1), 0);
        assert_eq!(h.l2_of(2), 1);

        let n = MemHierarchy::new(&MachineConfig::niagara_t1());
        assert_eq!(n.core_of(0), 0);
        assert_eq!(n.core_of(3), 0);
        assert_eq!(n.core_of(4), 1);
        assert_eq!(n.l2_of(7), 0); // single shared L2
    }

    #[test]
    fn load_counts_and_misses() {
        let mut h = xeon_hier();
        let a = Addr::new(0x10_0000);
        h.access(
            0,
            a,
            AccessKind::Load,
            PageSize::Base,
            Category::Application,
        );
        let ev = h.counters(0).get(Category::Application);
        assert_eq!(ev.loads, 1);
        assert_eq!(ev.l1d_misses, 1);
        assert_eq!(ev.l2_misses, 1);
        assert_eq!(ev.dtlb_misses, 1);
        assert_eq!(ev.bus_txns, 1);

        // Second access to the same line: all hits.
        h.access(
            0,
            a + 8,
            AccessKind::Load,
            PageSize::Base,
            Category::Application,
        );
        let ev = h.counters(0).get(Category::Application);
        assert_eq!(ev.loads, 2);
        assert_eq!(ev.l1d_misses, 1);
        assert_eq!(ev.dtlb_misses, 1);
    }

    #[test]
    fn l2_shared_between_core_pair() {
        let mut h = xeon_hier();
        let a = Addr::new(0x20_0000);
        // Core 0 brings the line into the pair's shared L2.
        h.access(
            0,
            a,
            AccessKind::Load,
            PageSize::Base,
            Category::Application,
        );
        // Core 1 misses its own L1 but hits the shared L2.
        h.access(
            1,
            a,
            AccessKind::Load,
            PageSize::Base,
            Category::Application,
        );
        let ev1 = h.counters(1).get(Category::Application);
        assert_eq!(ev1.l1d_misses, 1);
        assert_eq!(ev1.l2_hits, 1);
        assert_eq!(ev1.l2_misses, 0);
        // Core 2 is in a different sharing group: must go to memory.
        h.access(
            2,
            a,
            AccessKind::Load,
            PageSize::Base,
            Category::Application,
        );
        let ev2 = h.counters(2).get(Category::Application);
        assert_eq!(ev2.l2_misses, 1);
    }

    #[test]
    fn sequential_stream_generates_prefetch_traffic() {
        let mut h = xeon_hier();
        // Stream through 64 lines; prefetcher should add extra bus txns
        // beyond the demand misses, and later accesses should be covered.
        for i in 0..64u64 {
            h.access(
                0,
                Addr::new(0x40_0000 + i * 64),
                AccessKind::Store,
                PageSize::Base,
                Category::Application,
            );
        }
        let ev = h.counters(0).get(Category::Application);
        assert!(ev.prefetches > 0, "prefetcher must fire on a pure stream");
        assert!(ev.prefetch_covered > 0, "later stream accesses are covered");
        assert!(ev.bus_txns >= ev.l2_misses + ev.prefetches);
        // Niagara: identical stream, no prefetch traffic.
        let mut n = MemHierarchy::new(&MachineConfig::niagara_t1());
        for i in 0..64u64 {
            n.access(
                0,
                Addr::new(0x40_0000 + i * 64),
                AccessKind::Store,
                PageSize::Base,
                Category::Application,
            );
        }
        assert_eq!(n.counters(0).get(Category::Application).prefetches, 0);
    }

    #[test]
    fn dirty_data_produces_writebacks_under_pressure() {
        let mut h = MemHierarchy::new(
            &MachineConfig::xeon_clovertown()
                .to_builder()
                .l2(crate::cache::CacheConfig::new(64 * 1024, 64, 4))
                .build(),
        );
        // Write far more data than L2 holds; evictions must write back.
        for i in 0..8192u64 {
            h.access(
                0,
                Addr::new(0x100_0000 + i * 64),
                AccessKind::Store,
                PageSize::Base,
                Category::Application,
            );
        }
        let ev = h.counters(0).get(Category::Application);
        assert!(ev.writebacks > 0, "dirty lines must be written back");
        assert!(
            ev.bus_bytes > 8192 * 64,
            "fills + writebacks exceed footprint"
        );
    }

    #[test]
    fn ifetch_uses_l1i_and_no_tlb() {
        let mut h = xeon_hier();
        h.access(
            0,
            Addr::new(0x50_0000),
            AccessKind::IFetch,
            PageSize::Base,
            Category::Application,
        );
        let ev = h.counters(0).get(Category::Application);
        assert_eq!(ev.ifetch_lines, 1);
        assert_eq!(ev.l1i_misses, 1);
        assert_eq!(ev.dtlb_misses, 0);
        assert_eq!(ev.loads, 0);
    }

    #[test]
    fn instructions_attributed_to_category() {
        let mut h = xeon_hier();
        h.add_instructions(0, Category::MemoryManagement, 50);
        h.add_instructions(0, Category::Application, 7);
        assert_eq!(h.counters(0).mm.instructions, 50);
        assert_eq!(h.counters(0).app.instructions, 7);
    }

    #[test]
    fn flush_core_cools_private_caches_only() {
        let mut h = xeon_hier();
        let a = Addr::new(0x60_0000);
        h.access(
            0,
            a,
            AccessKind::Load,
            PageSize::Base,
            Category::Application,
        );
        h.reset_counters();
        h.flush_core(0);
        h.access(
            0,
            a,
            AccessKind::Load,
            PageSize::Base,
            Category::Application,
        );
        let ev = h.counters(0).get(Category::Application);
        assert_eq!(ev.l1d_misses, 1, "L1 was flushed");
        assert_eq!(ev.l2_hits, 1, "shared L2 still warm");
        assert_eq!(ev.dtlb_misses, 1, "TLB was flushed");
    }

    #[test]
    fn reset_counters_zeroes_everything() {
        let mut h = xeon_hier();
        h.access(
            0,
            Addr::new(0x1000),
            AccessKind::Load,
            PageSize::Base,
            Category::MemoryManagement,
        );
        h.reset_counters();
        assert_eq!(
            h.counters(0).total(),
            crate::counters::EventCounts::default()
        );
    }
}
