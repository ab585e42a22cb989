//! Hardware-event counters.
//!
//! The paper reads its machines with OProfile's hardware performance
//! monitors (instructions, L1I/L1D/L2 cache misses, D-TLB misses, bus
//! transactions — Figure 8) and splits CPU time into *memory management*
//! and *others* (Figures 6 and 11). [`EventCounts`] is the simulator's
//! equivalent of one HPM register file, and [`CategorizedCounts`] keeps one
//! per cost category so the profiler can rebuild the paper's breakdowns.

use serde::Serialize;
use std::ops::{Add, AddAssign};

/// Cost attribution category for an executed operation.
///
/// Every instruction and memory access recorded by the simulator is tagged
/// with the component that caused it, mirroring how the paper separates
/// "memory operations ... for transaction-scoped objects in the PHP runtime"
/// from the rest of the program.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Category {
    /// Work done inside `malloc`/`free`/`realloc`/`freeAll` — including the
    /// allocator's own metadata traffic.
    MemoryManagement,
    /// Everything else: application compute, object reads/writes, runtime
    /// dispatch.
    Application,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 2] = [Category::MemoryManagement, Category::Application];

    /// Short label used in reports ("mm" / "app").
    pub fn label(self) -> &'static str {
        match self {
            Category::MemoryManagement => "mm",
            Category::Application => "app",
        }
    }
}

/// One set of simulated hardware-event counters.
///
/// All fields are cumulative event *counts* (not cycles); converting events
/// to time is the job of the machine cost model, which is where
/// platform-specific penalties and the bus-contention multiplier are
/// applied.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, serde::Deserialize)]
pub struct EventCounts {
    /// Instructions executed.
    pub instructions: u64,
    /// Data loads issued (before cache filtering).
    pub loads: u64,
    /// Data stores issued.
    pub stores: u64,
    /// Instruction-cache line fetches issued.
    pub ifetch_lines: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Accesses that missed L1 but hit in the shared L2.
    pub l2_hits: u64,
    /// Of `l2_hits`, those that hit a line brought in by the prefetcher
    /// (the demand miss was *covered*).
    pub prefetch_covered: u64,
    /// Demand accesses that missed L2 and went to memory.
    pub l2_misses: u64,
    /// D-TLB misses (data accesses only).
    pub dtlb_misses: u64,
    /// Bus transactions: demand line fills + writebacks + prefetch fills.
    pub bus_txns: u64,
    /// Bytes moved over the memory bus.
    pub bus_bytes: u64,
    /// Dirty L2 lines written back to memory.
    pub writebacks: u64,
    /// Prefetch fills issued by the L2 stream prefetcher.
    pub prefetches: u64,
}

impl EventCounts {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total data accesses (loads + stores).
    pub fn data_accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

impl Add for EventCounts {
    type Output = EventCounts;
    fn add(self, rhs: EventCounts) -> EventCounts {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, rhs: EventCounts) {
        self.instructions += rhs.instructions;
        self.loads += rhs.loads;
        self.stores += rhs.stores;
        self.ifetch_lines += rhs.ifetch_lines;
        self.l1i_misses += rhs.l1i_misses;
        self.l1d_misses += rhs.l1d_misses;
        self.l2_hits += rhs.l2_hits;
        self.prefetch_covered += rhs.prefetch_covered;
        self.l2_misses += rhs.l2_misses;
        self.dtlb_misses += rhs.dtlb_misses;
        self.bus_txns += rhs.bus_txns;
        self.bus_bytes += rhs.bus_bytes;
        self.writebacks += rhs.writebacks;
        self.prefetches += rhs.prefetches;
    }
}

/// Event counters split by [`Category`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, serde::Deserialize)]
pub struct CategorizedCounts {
    /// Events attributed to memory management.
    pub mm: EventCounts,
    /// Events attributed to the application / runtime.
    pub app: EventCounts,
}

impl CategorizedCounts {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the counters of `cat`.
    pub fn get_mut(&mut self, cat: Category) -> &mut EventCounts {
        match cat {
            Category::MemoryManagement => &mut self.mm,
            Category::Application => &mut self.app,
        }
    }

    /// Shared access to the counters of `cat`.
    pub fn get(&self, cat: Category) -> &EventCounts {
        match cat {
            Category::MemoryManagement => &self.mm,
            Category::Application => &self.app,
        }
    }

    /// Sum over both categories.
    pub fn total(&self) -> EventCounts {
        self.mm + self.app
    }

    /// Difference of two snapshots (`self` must be the later one,
    /// field-wise `>=`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds the
    /// corresponding counter of `self`.
    pub fn since(&self, earlier: &CategorizedCounts) -> CategorizedCounts {
        fn sub(a: &EventCounts, b: &EventCounts) -> EventCounts {
            EventCounts {
                instructions: a.instructions - b.instructions,
                loads: a.loads - b.loads,
                stores: a.stores - b.stores,
                ifetch_lines: a.ifetch_lines - b.ifetch_lines,
                l1i_misses: a.l1i_misses - b.l1i_misses,
                l1d_misses: a.l1d_misses - b.l1d_misses,
                l2_hits: a.l2_hits - b.l2_hits,
                prefetch_covered: a.prefetch_covered - b.prefetch_covered,
                l2_misses: a.l2_misses - b.l2_misses,
                dtlb_misses: a.dtlb_misses - b.dtlb_misses,
                bus_txns: a.bus_txns - b.bus_txns,
                bus_bytes: a.bus_bytes - b.bus_bytes,
                writebacks: a.writebacks - b.writebacks,
                prefetches: a.prefetches - b.prefetches,
            }
        }
        CategorizedCounts {
            mm: sub(&self.mm, &earlier.mm),
            app: sub(&self.app, &earlier.app),
        }
    }
}

impl AddAssign for CategorizedCounts {
    fn add_assign(&mut self, rhs: CategorizedCounts) {
        self.mm += rhs.mm;
        self.app += rhs.app;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventCounts {
        EventCounts {
            instructions: 100,
            loads: 40,
            stores: 20,
            ifetch_lines: 10,
            l1i_misses: 1,
            l1d_misses: 6,
            l2_hits: 4,
            prefetch_covered: 1,
            l2_misses: 2,
            dtlb_misses: 1,
            bus_txns: 3,
            bus_bytes: 192,
            writebacks: 1,
            prefetches: 1,
        }
    }

    #[test]
    fn add_is_fieldwise() {
        let s = sample() + sample();
        assert_eq!(s.instructions, 200);
        assert_eq!(s.bus_bytes, 384);
        assert_eq!(s.data_accesses(), 120);
    }

    #[test]
    fn categorized_total_and_since() {
        let mut c = CategorizedCounts::new();
        *c.get_mut(Category::MemoryManagement) += sample();
        let snap = c;
        *c.get_mut(Category::Application) += sample();
        assert_eq!(c.total().instructions, 200);
        let d = c.since(&snap);
        assert_eq!(d.mm.instructions, 0);
        assert_eq!(d.app.instructions, 100);
    }

    #[test]
    fn category_labels() {
        assert_eq!(Category::MemoryManagement.label(), "mm");
        assert_eq!(Category::Application.label(), "app");
        assert_eq!(Category::ALL.len(), 2);
    }
}
