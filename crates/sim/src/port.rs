//! The memory port: how allocators and workloads touch the machine.
//!
//! A [`MemoryPort`] is the only interface through which allocators and the
//! transaction engine interact with memory. It combines
//!
//! * *data* — typed loads/stores against the process's [`SimMemory`], so
//!   allocator metadata actually round-trips through simulated RAM;
//! * *events* — every load, store, executed instruction, and instruction
//!   fetch is routed through the machine's [`MemHierarchy`] and lands in
//!   the per-context hardware counters; and
//! * *attribution* — a current [`Category`] (memory management vs.
//!   application) and a current code region, so the profiler can rebuild
//!   the paper's CPU-time breakdowns.
//!
//! Two implementations are provided: [`ContextPort`] (full machine
//! simulation) and [`PlainPort`] (functional memory only — for fast
//! correctness tests of the allocators).

use crate::addr::Addr;
use crate::code::{CodeRegionId, CodeSpec, CodeState};
use crate::counters::Category;
use crate::hierarchy::{AccessKind, MemHierarchy};
use crate::mem::SimMemory;
use crate::tlb::PageSize;

/// Cache-line size assumed by the data-touch cost model.
const LINE: u64 = 64;

/// Uniform access interface for allocators and workloads.
///
/// All `load_*`/`store_*` calls move real data *and* cost one instruction
/// plus one data access each; [`MemoryPort::exec`] adds pure compute;
/// [`MemoryPort::touch`] models the application reading or writing an
/// object's payload without the simulator materializing the bytes.
pub trait MemoryPort {
    /// Reserves `len` bytes from the simulated OS, aligned to `align`,
    /// backed by pages of size `pages`.
    fn os_alloc(&mut self, len: u64, align: u64, pages: PageSize) -> Addr;

    /// Loads a 64-bit word.
    fn load_u64(&mut self, addr: Addr) -> u64;
    /// Stores a 64-bit word.
    fn store_u64(&mut self, addr: Addr, val: u64);
    /// Loads a 32-bit word.
    fn load_u32(&mut self, addr: Addr) -> u32;
    /// Stores a 32-bit word.
    fn store_u32(&mut self, addr: Addr, val: u32);
    /// Loads one byte.
    fn load_u8(&mut self, addr: Addr) -> u8;
    /// Stores one byte.
    fn store_u8(&mut self, addr: Addr, val: u8);

    /// Models the application touching `len` bytes starting at `addr`
    /// (one access per cache line; `write` selects store vs. load).
    fn touch(&mut self, addr: Addr, len: u64, write: bool);

    /// Copies `len` bytes from `src` to `dst` (used by `realloc`),
    /// accounting loads, stores and instructions.
    fn memcpy(&mut self, dst: Addr, src: Addr, len: u64);

    /// Executes `n_instr` instructions of pure compute in the current code
    /// region (drives instruction-fetch traffic).
    fn exec(&mut self, n_instr: u64);

    /// Sets the cost category for subsequent operations.
    fn set_category(&mut self, cat: Category);
    /// The current cost category.
    fn category(&self) -> Category;

    /// Registers a code region (e.g. an allocator's code footprint).
    fn register_code_region(&mut self, spec: CodeSpec) -> CodeRegionId;
    /// Registers a code region backed by *shared text*: every process
    /// registering the same `key` fetches from the same addresses, as
    /// processes running the same shared library do. `key` identifies the
    /// library (e.g. a hash of the allocator name).
    fn register_shared_code(&mut self, key: u32, spec: CodeSpec) -> CodeRegionId;
    /// Selects the code region that subsequent [`MemoryPort::exec`] calls
    /// fetch from.
    fn set_code_region(&mut self, id: CodeRegionId);
}

/// Per-process persistent memory state: the address space, its code-region
/// registry, and which ranges are backed by large pages.
#[derive(Debug)]
pub struct ProcessMem {
    mem: SimMemory,
    code: CodeState,
    /// Sorted `(start, len)` ranges backed by large pages.
    large_ranges: Vec<(u64, u64)>,
}

impl ProcessMem {
    /// Creates a process address space starting at `base`.
    pub fn new(base: u64) -> Self {
        ProcessMem {
            mem: SimMemory::new(base),
            code: CodeState::new(),
            large_ranges: Vec::new(),
        }
    }

    /// The underlying byte store.
    pub fn memory(&self) -> &SimMemory {
        &self.mem
    }

    /// Registers a code region directly on the process (equivalent to
    /// loading a shared object), without needing a live port.
    pub fn register_code(&mut self, spec: crate::code::CodeSpec) -> crate::code::CodeRegionId {
        let base = self.mem.os_alloc(spec.len, 4096);
        self.code.register(base, spec)
    }

    /// Registers a code region at a fixed address — used for text mapped
    /// shared across processes (the interpreter binary): every process
    /// fetching from the same addresses means shared caches keep a single
    /// copy, as the page cache does on real hardware.
    pub fn register_code_at(
        &mut self,
        base: Addr,
        spec: crate::code::CodeSpec,
    ) -> crate::code::CodeRegionId {
        self.code.register(base, spec)
    }

    /// Reserves a plain data region (e.g. interpreter static data).
    pub fn reserve(&mut self, len: u64, align: u64) -> Addr {
        self.mem.os_alloc(len, align)
    }

    /// Page size backing `addr`.
    pub fn page_of(&self, addr: Addr) -> PageSize {
        let a = addr.raw();
        for &(start, len) in &self.large_ranges {
            if a >= start && a < start + len {
                return PageSize::Large;
            }
        }
        PageSize::Base
    }

    fn os_alloc(&mut self, len: u64, align: u64, pages: PageSize) -> Addr {
        // Large-page mappings are naturally aligned to the page size.
        let align = match pages {
            PageSize::Large => align.max(PageSize::Large.bytes()),
            PageSize::Base => align,
        };
        let addr = self.mem.os_alloc(len, align);
        if pages == PageSize::Large {
            self.large_ranges.push((addr.raw(), len));
        }
        addr
    }
}

/// Full-simulation port: one process executing on one hardware context.
///
/// Borrows the process state and the machine hierarchy for the duration of
/// an execution slice.
#[derive(Debug)]
pub struct ContextPort<'a> {
    proc: &'a mut ProcessMem,
    hier: &'a mut MemHierarchy,
    ctx: usize,
    cat: Category,
    scratch: Vec<Addr>,
}

impl<'a> ContextPort<'a> {
    /// Creates a port for process `proc` running on hardware context `ctx`.
    pub fn new(proc: &'a mut ProcessMem, hier: &'a mut MemHierarchy, ctx: usize) -> Self {
        ContextPort {
            proc,
            hier,
            ctx,
            cat: Category::Application,
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn data_access(&mut self, addr: Addr, kind: AccessKind) {
        let page = self.proc.page_of(addr);
        self.hier.access(self.ctx, addr, kind, page, self.cat);
    }
}

impl MemoryPort for ContextPort<'_> {
    fn os_alloc(&mut self, len: u64, align: u64, pages: PageSize) -> Addr {
        // A real mmap costs a syscall; charge a flat instruction cost.
        self.hier.add_instructions(self.ctx, self.cat, 400);
        self.proc.os_alloc(len, align, pages)
    }

    fn load_u64(&mut self, addr: Addr) -> u64 {
        self.data_access(addr, AccessKind::Load);
        self.proc.mem.read_u64(addr)
    }

    fn store_u64(&mut self, addr: Addr, val: u64) {
        self.data_access(addr, AccessKind::Store);
        self.proc.mem.write_u64(addr, val);
    }

    fn load_u32(&mut self, addr: Addr) -> u32 {
        self.data_access(addr, AccessKind::Load);
        self.proc.mem.read_u32(addr)
    }

    fn store_u32(&mut self, addr: Addr, val: u32) {
        self.data_access(addr, AccessKind::Store);
        self.proc.mem.write_u32(addr, val);
    }

    fn load_u8(&mut self, addr: Addr) -> u8 {
        self.data_access(addr, AccessKind::Load);
        self.proc.mem.read_u8(addr)
    }

    fn store_u8(&mut self, addr: Addr, val: u8) {
        self.data_access(addr, AccessKind::Store);
        self.proc.mem.write_u8(addr, val);
    }

    fn touch(&mut self, addr: Addr, len: u64, write: bool) {
        if len == 0 {
            return;
        }
        let kind = if write {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let first = addr.align_down(LINE);
        let last = (addr + (len - 1)).align_down(LINE);
        let mut line = first;
        loop {
            self.data_access(line, kind);
            // One extra ALU instruction per line beyond the access itself.
            self.hier.add_instructions(self.ctx, self.cat, 1);
            if line == last {
                break;
            }
            line += LINE;
        }
    }

    fn memcpy(&mut self, dst: Addr, src: Addr, len: u64) {
        if len == 0 {
            return;
        }
        // Event model: one load per source line, one store per target line,
        // one instruction per 8 bytes moved.
        self.touch(src, len, false);
        self.touch(dst, len, true);
        self.hier.add_instructions(self.ctx, self.cat, len / 8 + 1);
        // Data model: byte-accurate copy.
        self.proc.mem.copy(dst, src, len);
    }

    fn exec(&mut self, n_instr: u64) {
        if n_instr == 0 {
            return;
        }
        self.hier.add_instructions(self.ctx, self.cat, n_instr);
        self.scratch.clear();
        self.proc.code.execute(n_instr, &mut self.scratch);
        for i in 0..self.scratch.len() {
            let a = self.scratch[i];
            self.hier
                .access(self.ctx, a, AccessKind::IFetch, PageSize::Base, self.cat);
        }
    }

    fn set_category(&mut self, cat: Category) {
        self.cat = cat;
    }

    fn category(&self) -> Category {
        self.cat
    }

    fn register_code_region(&mut self, spec: CodeSpec) -> CodeRegionId {
        let base = self.proc.mem.os_alloc(spec.len, 4096);
        self.proc.code.register(base, spec)
    }

    fn register_shared_code(&mut self, key: u32, spec: CodeSpec) -> CodeRegionId {
        self.proc.code.register(shared_text_base(key), spec)
    }

    fn set_code_region(&mut self, id: CodeRegionId) {
        self.proc.code.set_current(id);
    }
}

/// Fixed mapping address for shared library text `key` (16 MB apart, far
/// from any per-process reservation window).
fn shared_text_base(key: u32) -> Addr {
    Addr::new(0x7200_0000_0000 + u64::from(key) * (16 << 20))
}

/// Functional-only port: real memory, no machine model.
///
/// Used by allocator unit and property tests where only correctness (not
/// cache behaviour) is under test. Instructions are still counted so cost
/// accounting can be asserted cheaply.
#[derive(Debug)]
pub struct PlainPort {
    mem: SimMemory,
    code: CodeState,
    cat: Category,
    instructions: u64,
    large_ranges: Vec<(u64, u64)>,
}

impl PlainPort {
    /// Creates a stand-alone address space at a default base.
    pub fn new() -> Self {
        PlainPort {
            mem: SimMemory::new(1 << 32),
            code: CodeState::new(),
            cat: Category::Application,
            instructions: 0,
            large_ranges: Vec::new(),
        }
    }

    /// Total instructions charged through this port.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The underlying byte store (for white-box assertions).
    pub fn memory(&self) -> &SimMemory {
        &self.mem
    }

    /// Ranges mapped with large pages.
    pub fn large_ranges(&self) -> &[(u64, u64)] {
        &self.large_ranges
    }
}

impl Default for PlainPort {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryPort for PlainPort {
    fn os_alloc(&mut self, len: u64, align: u64, pages: PageSize) -> Addr {
        self.instructions += 400;
        let align = match pages {
            PageSize::Large => align.max(PageSize::Large.bytes()),
            PageSize::Base => align,
        };
        let addr = self.mem.os_alloc(len, align);
        if pages == PageSize::Large {
            self.large_ranges.push((addr.raw(), len));
        }
        addr
    }

    fn load_u64(&mut self, addr: Addr) -> u64 {
        self.instructions += 1;
        self.mem.read_u64(addr)
    }

    fn store_u64(&mut self, addr: Addr, val: u64) {
        self.instructions += 1;
        self.mem.write_u64(addr, val);
    }

    fn load_u32(&mut self, addr: Addr) -> u32 {
        self.instructions += 1;
        self.mem.read_u32(addr)
    }

    fn store_u32(&mut self, addr: Addr, val: u32) {
        self.instructions += 1;
        self.mem.write_u32(addr, val);
    }

    fn load_u8(&mut self, addr: Addr) -> u8 {
        self.instructions += 1;
        self.mem.read_u8(addr)
    }

    fn store_u8(&mut self, addr: Addr, val: u8) {
        self.instructions += 1;
        self.mem.write_u8(addr, val);
    }

    fn touch(&mut self, addr: Addr, len: u64, _write: bool) {
        if len == 0 {
            return;
        }
        let lines = (addr + (len - 1)).align_down(LINE) - addr.align_down(LINE);
        self.instructions += lines / LINE + 1;
    }

    fn memcpy(&mut self, dst: Addr, src: Addr, len: u64) {
        self.instructions += len / 8 + 1;
        self.mem.copy(dst, src, len);
    }

    fn exec(&mut self, n_instr: u64) {
        self.instructions += n_instr;
    }

    fn set_category(&mut self, cat: Category) {
        self.cat = cat;
    }

    fn category(&self) -> Category {
        self.cat
    }

    fn register_code_region(&mut self, spec: CodeSpec) -> CodeRegionId {
        let base = self.mem.os_alloc(spec.len, 4096);
        self.code.register(base, spec)
    }

    fn register_shared_code(&mut self, key: u32, spec: CodeSpec) -> CodeRegionId {
        self.code.register(shared_text_base(key), spec)
    }

    fn set_code_region(&mut self, id: CodeRegionId) {
        self.code.set_current(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn context_port_moves_data_and_counts_events() {
        let mut proc = ProcessMem::new(1 << 40);
        let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
        let mut port = ContextPort::new(&mut proc, &mut hier, 0);
        let a = port.os_alloc(4096, 8, PageSize::Base);
        port.store_u64(a, 77);
        assert_eq!(port.load_u64(a), 77);
        drop(port);
        let ev = hier.counters(0).get(Category::Application);
        assert_eq!(ev.loads, 1);
        assert_eq!(ev.stores, 1);
        assert!(ev.instructions >= 402);
    }

    #[test]
    fn category_attribution_flows_to_counters() {
        let mut proc = ProcessMem::new(1 << 40);
        let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
        let mut port = ContextPort::new(&mut proc, &mut hier, 0);
        let a = port.os_alloc(4096, 8, PageSize::Base);
        port.set_category(Category::MemoryManagement);
        port.store_u64(a, 1);
        port.set_category(Category::Application);
        port.store_u64(a + 64, 2);
        drop(port);
        assert_eq!(hier.counters(0).mm.stores, 1);
        assert_eq!(hier.counters(0).app.stores, 1);
    }

    #[test]
    fn touch_accesses_each_line_once() {
        let mut proc = ProcessMem::new(1 << 40);
        let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
        let mut port = ContextPort::new(&mut proc, &mut hier, 0);
        let a = port.os_alloc(4096, 64, PageSize::Base);
        port.touch(a, 200, true); // 200 bytes from line start = 4 lines
        drop(port);
        assert_eq!(hier.counters(0).app.stores, 4);
    }

    #[test]
    fn touch_unaligned_spans_extra_line() {
        let mut proc = ProcessMem::new(1 << 40);
        let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
        let mut port = ContextPort::new(&mut proc, &mut hier, 0);
        let a = port.os_alloc(4096, 64, PageSize::Base);
        port.touch(a + 60, 8, false); // straddles two lines
        drop(port);
        assert_eq!(hier.counters(0).app.loads, 2);
    }

    #[test]
    fn memcpy_copies_bytes() {
        let mut proc = ProcessMem::new(1 << 40);
        let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
        let mut port = ContextPort::new(&mut proc, &mut hier, 0);
        let src = port.os_alloc(128, 8, PageSize::Base);
        let dst = port.os_alloc(128, 8, PageSize::Base);
        port.store_u64(src, 0xfeed);
        port.store_u64(src + 8, 0xf00d);
        port.memcpy(dst, src, 16);
        assert_eq!(port.load_u64(dst), 0xfeed);
        assert_eq!(port.load_u64(dst + 8), 0xf00d);
    }

    #[test]
    fn large_page_mapping_reduces_tlb_misses() {
        let machine = MachineConfig::xeon_clovertown();
        let run = |pages: PageSize| {
            let mut proc = ProcessMem::new(1 << 40);
            let mut hier = MemHierarchy::new(&machine);
            let mut port = ContextPort::new(&mut proc, &mut hier, 0);
            let heap = port.os_alloc(64 << 20, 4096, pages);
            // Touch 32 MB sparsely: one line per 4 KB page.
            for i in 0..8192u64 {
                port.touch(heap + i * 4096, 8, true);
            }
            drop(port);
            hier.counters(0).app.dtlb_misses
        };
        let base_misses = run(PageSize::Base);
        let large_misses = run(PageSize::Large);
        assert!(
            large_misses * 4 < base_misses,
            "large pages must slash TLB misses ({large_misses} vs {base_misses})"
        );
    }

    #[test]
    fn exec_fetches_code_lines() {
        let mut proc = ProcessMem::new(1 << 40);
        let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
        let mut port = ContextPort::new(&mut proc, &mut hier, 0);
        let id = port.register_code_region(CodeSpec::new(16 * 1024, 4096));
        port.set_code_region(id);
        port.exec(1000);
        drop(port);
        let ev = hier.counters(0).get(Category::Application);
        assert_eq!(ev.instructions, 1000);
        assert!(ev.ifetch_lines > 0);
    }

    #[test]
    fn plain_port_is_functional() {
        let mut p = PlainPort::new();
        let a = p.os_alloc(4096, 4096, PageSize::Base);
        p.store_u64(a, 5);
        p.store_u8(a + 8, 9);
        p.store_u32(a + 12, 1234);
        assert_eq!(p.load_u64(a), 5);
        assert_eq!(p.load_u8(a + 8), 9);
        assert_eq!(p.load_u32(a + 12), 1234);
        assert!(p.instructions() > 0);
    }

    #[test]
    fn plain_port_tracks_large_ranges() {
        let mut p = PlainPort::new();
        let a = p.os_alloc(8 << 20, 4096, PageSize::Large);
        assert!(a.is_aligned(4 << 20));
        assert_eq!(p.large_ranges().len(), 1);
    }
}
