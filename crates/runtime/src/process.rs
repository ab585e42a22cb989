//! A simulated language-runtime process.
//!
//! The paper runs 16 single-threaded PHP runtime processes on Xeon and 48
//! on Niagara (one heap per process, no locks — DDmalloc §3.3 item 3).
//! A [`Process`] bundles one process's address space, its allocator, its
//! workload stream, and the object table mapping stream object ids to
//! allocator addresses. It executes one [`WorkOp`] at a time against a
//! [`ContextPort`], so the multicore engine can interleave many processes
//! through the shared memory hierarchy.

use std::collections::HashMap;
use webmm_alloc::{Allocator, AllocatorKind, DdConfig, Footprint, Heap};
use webmm_sim::{
    Addr, Category, CodeRegionId, CodeSpec, ContextPort, MemHierarchy, MemoryPort, ProcessMem,
};
use webmm_workload::{TxStream, WorkOp, WorkloadSpec};

/// Application (interpreter) code footprint: PHP/Ruby interpreters are
/// hundreds of KB of code with a much smaller hot loop.
const APP_CODE: CodeSpec = CodeSpec {
    len: 768 * 1024,
    hot_len: 12 * 1024,
};

/// Fixed address of the interpreter text, mapped shared by every process
/// (the same binary, held once in shared caches).
const APP_CODE_BASE: u64 = 0x7100_0000_0000;

/// Fixed address of the shared static data: interpreter read-only data and
/// the APC opcode cache, which PHP processes share via shared memory.
const STATIC_BASE: u64 = 0x7000_0000_0000;

/// Instructions charged for a process restart, at workload scale 1
/// (interpreter boot + framework load; divided by the run's scale).
const RESTART_INSTR: u64 = 300_000_000;

/// What [`Process::step`] just did, as far as the engine cares.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary operation.
    Op,
    /// A transaction completed.
    TxDone,
    /// A transaction completed and the process restarted itself (Ruby
    /// periodic-restart mode); the engine should flush the core's private
    /// caches.
    TxDoneRestarted,
}

/// How the process's allocator is (re)built.
#[derive(Clone, Debug)]
pub struct AllocatorSpec {
    /// Which allocator.
    pub kind: AllocatorKind,
    /// DDmalloc configuration override (ablations); `pid` is filled in
    /// per process.
    pub dd_override: Option<DdConfig>,
}

impl AllocatorSpec {
    /// Plain default-configured allocator of `kind`.
    pub fn new(kind: AllocatorKind) -> Self {
        AllocatorSpec {
            kind,
            dd_override: None,
        }
    }

    /// Builds an allocator instance for process `pid`.
    pub fn build(&self, pid: u32) -> Heap {
        match (self.kind, &self.dd_override) {
            (AllocatorKind::DdMalloc, Some(cfg)) => {
                AllocatorKind::build_dd(DdConfig { pid, ..*cfg })
            }
            (kind, _) => kind.build(pid),
        }
    }
}

/// One simulated runtime process.
pub struct Process {
    mem: ProcessMem,
    alloc: Heap,
    alloc_spec: AllocatorSpec,
    stream: TxStream,
    objects: HashMap<u64, (Addr, u64)>,
    static_base: Addr,
    app_code: CodeRegionId,
    pid: u32,
    generation: u32,
    scale: u32,
    seed: u64,
    tx_completed: u64,
    tx_since_restart: u64,
    /// Restart the process every N transactions (Ruby study), if set.
    restart_every: Option<u64>,
    /// Whether the runtime calls `freeAll` at transaction end (PHP: yes;
    /// the Ruby runtime of §4.4: no, even for allocators that support it).
    use_free_all: bool,
    /// Pending restart charge in instructions (applied on the next step).
    pending_restart_instr: u64,
    peak_footprint: Footprint,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("allocator", &self.alloc.name())
            .field("workload", &self.stream.spec().name)
            .field("tx_completed", &self.tx_completed)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl Process {
    /// Creates a process.
    ///
    /// * `pid` — process id (also selects the address-space base).
    /// * `alloc_spec` — allocator to run.
    /// * `workload` / `scale` / `seed` — the transaction stream.
    /// * `restart_every` — Ruby-style periodic restart, if any.
    pub fn new(
        pid: u32,
        alloc_spec: AllocatorSpec,
        workload: WorkloadSpec,
        scale: u32,
        seed: u64,
        restart_every: Option<u64>,
    ) -> Self {
        Self::with_free_all(pid, alloc_spec, workload, scale, seed, restart_every, true)
    }

    /// Like [`Process::new`], with explicit control over whether `freeAll`
    /// is invoked at transaction boundaries (§4.4 runs every allocator —
    /// including DDmalloc — without it).
    #[allow(clippy::too_many_arguments)]
    pub fn with_free_all(
        pid: u32,
        alloc_spec: AllocatorSpec,
        workload: WorkloadSpec,
        scale: u32,
        seed: u64,
        restart_every: Option<u64>,
        use_free_all: bool,
    ) -> Self {
        let mut mem = ProcessMem::new(Self::base(pid, 0));
        let app_code = mem.register_code_at(Addr::new(APP_CODE_BASE), APP_CODE);
        let static_base = Addr::new(STATIC_BASE);
        let alloc = alloc_spec.build(pid);
        Process {
            mem,
            alloc,
            alloc_spec,
            stream: TxStream::new(workload, scale, seed ^ (u64::from(pid) << 32)),
            objects: HashMap::new(),
            static_base,
            app_code,
            pid,
            generation: 0,
            scale,
            seed,
            tx_completed: 0,
            tx_since_restart: 0,
            restart_every,
            use_free_all,
            pending_restart_instr: 0,
            peak_footprint: Footprint::default(),
        }
    }

    fn base(pid: u32, generation: u32) -> u64 {
        // Distinct, widely spaced physical bases per process and per
        // process generation (a restarted process gets fresh pages).
        (u64::from(pid) + 1) << 40 | (u64::from(generation) << 34)
    }

    /// Transactions completed since creation.
    pub fn transactions(&self) -> u64 {
        self.tx_completed
    }

    /// The allocator's display name.
    pub fn allocator_name(&self) -> &'static str {
        self.alloc.name()
    }

    /// Largest footprint observed at any transaction end.
    pub fn peak_footprint(&self) -> Footprint {
        self.peak_footprint
    }

    /// Live objects right now (for white-box tests).
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Executes one workload operation on hardware context `ctx` of
    /// `hier`.
    ///
    /// # Panics
    ///
    /// Panics if the allocator reports out-of-memory: the experiment heaps
    /// are sized so that OOM indicates a configuration error, and silently
    /// degrading would corrupt the measurements.
    pub fn step(&mut self, hier: &mut MemHierarchy, ctx: usize) -> StepEvent {
        let mut port = ContextPort::new(&mut self.mem, hier, ctx);
        if self.pending_restart_instr > 0 {
            // Charge the restart boot cost (interpreter + framework load).
            port.set_category(Category::Application);
            port.set_code_region(self.app_code);
            port.exec(self.pending_restart_instr);
            self.pending_restart_instr = 0;
        }
        let op = self.stream.next_op();
        match op {
            WorkOp::Malloc { id, size } => {
                let addr = self
                    .alloc
                    .malloc(&mut port, size)
                    .unwrap_or_else(|e| panic!("pid {}: {e}", self.pid));
                self.objects.insert(id, (addr, size));
                StepEvent::Op
            }
            WorkOp::Free { id } => {
                let (addr, _) = self
                    .objects
                    .remove(&id)
                    .expect("stream frees only live ids");
                if self.alloc.alloc_traits().per_object_free {
                    self.alloc.free(&mut port, addr);
                }
                // Without per-object free (region/obstack) the call is
                // removed entirely, per the paper's porting recipe.
                StepEvent::Op
            }
            WorkOp::Realloc { id, new_size } => {
                let (addr, old) = *self.objects.get(&id).expect("realloc of live id");
                let new_addr = self
                    .alloc
                    .realloc(&mut port, addr, old, new_size)
                    .unwrap_or_else(|e| panic!("pid {}: {e}", self.pid));
                self.objects.insert(id, (new_addr, new_size));
                StepEvent::Op
            }
            WorkOp::Touch { id, write } => {
                let (addr, size) = *self.objects.get(&id).expect("touch of live id");
                port.set_category(Category::Application);
                port.set_code_region(self.app_code);
                port.touch(addr, size, write);
                StepEvent::Op
            }
            WorkOp::Compute { instr } => {
                port.set_category(Category::Application);
                port.set_code_region(self.app_code);
                port.exec(instr);
                StepEvent::Op
            }
            WorkOp::StaticTouch { offset, len } => {
                port.set_category(Category::Application);
                port.set_code_region(self.app_code);
                port.touch(self.static_base + offset, len, false);
                StepEvent::Op
            }
            WorkOp::EndTx => {
                if self.use_free_all && self.alloc.alloc_traits().bulk_free {
                    self.alloc.free_all(&mut port);
                    self.objects.clear();
                }
                self.tx_completed += 1;
                self.tx_since_restart += 1;
                let fp = self.alloc.footprint();
                if fp.heap_bytes + fp.metadata_bytes
                    > self.peak_footprint.heap_bytes + self.peak_footprint.metadata_bytes
                {
                    self.peak_footprint.heap_bytes = fp.heap_bytes;
                    self.peak_footprint.metadata_bytes = fp.metadata_bytes;
                }
                self.peak_footprint.peak_tx_alloc_bytes = self
                    .peak_footprint
                    .peak_tx_alloc_bytes
                    .max(fp.peak_tx_alloc_bytes);
                if self
                    .restart_every
                    .is_some_and(|n| self.tx_since_restart >= n)
                {
                    self.restart();
                    StepEvent::TxDoneRestarted
                } else {
                    StepEvent::TxDone
                }
            }
        }
    }

    /// Tears the process down and boots a fresh one: new address space
    /// (fresh physical pages), new allocator, and a new workload stream —
    /// a restarted interpreter serves statistically identical transactions
    /// but shares no live state with its predecessor.
    fn restart(&mut self) {
        self.generation += 1;
        self.mem = ProcessMem::new(Self::base(self.pid, self.generation));
        self.app_code = self
            .mem
            .register_code_at(Addr::new(APP_CODE_BASE), APP_CODE);
        let spec = self.stream.spec().clone();
        self.static_base = Addr::new(STATIC_BASE);
        self.alloc = self.alloc_spec.build(self.pid);
        self.stream = TxStream::new(
            spec,
            self.scale,
            self.seed ^ (u64::from(self.pid) << 32) ^ (u64::from(self.generation) << 16),
        );
        self.objects.clear();
        self.tx_since_restart = 0;
        self.pending_restart_instr = RESTART_INSTR / u64::from(self.scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_sim::MachineConfig;
    use webmm_workload::phpbb;

    fn run_ops(proc: &mut Process, hier: &mut MemHierarchy, n: usize) -> u64 {
        let mut txs = 0;
        for _ in 0..n {
            if proc.step(hier, 0) != StepEvent::Op {
                txs += 1;
            }
        }
        txs
    }

    #[test]
    fn process_runs_transactions_with_every_php_allocator() {
        let machine = MachineConfig::xeon_clovertown();
        for kind in AllocatorKind::PHP_STUDY {
            let mut hier = MemHierarchy::new(&machine);
            let mut proc = Process::new(0, AllocatorSpec::new(kind), phpbb(), 64, 42, None);
            let txs = run_ops(&mut proc, &mut hier, 20_000);
            assert!(txs >= 2, "{kind}: expected at least 2 transactions");
            assert_eq!(proc.transactions(), txs);
            // After each EndTx the object table is empty (bulk free).
            // Mid-transaction it may not be, so just check counters moved.
            let ev = hier.counters(0).total();
            assert!(ev.instructions > 100_000);
            assert!(hier.counters(0).mm.instructions > 0, "mm work attributed");
            assert!(hier.counters(0).app.instructions > 0, "app work attributed");
        }
    }

    #[test]
    fn restart_boots_a_fresh_process() {
        use webmm_workload::rails;
        let machine = MachineConfig::xeon_clovertown();
        let mut hier = webmm_sim::MemHierarchy::new(&machine);
        let mut proc = Process::with_free_all(
            0,
            AllocatorSpec::new(AllocatorKind::Dl),
            rails(),
            64,
            42,
            Some(2), // restart every 2 transactions
            false,
        );
        let mut restarts = 0;
        let mut steps = 0;
        while restarts < 2 && steps < 200_000 {
            if proc.step(&mut hier, 0) == StepEvent::TxDoneRestarted {
                restarts += 1;
                // After a restart the object table is empty and the next
                // transactions still run fine on the fresh allocator.
                assert_eq!(proc.live_objects(), 0);
            }
            steps += 1;
        }
        assert_eq!(restarts, 2, "expected two restarts in {steps} steps");
        assert!(proc.transactions() >= 4);
    }

    #[test]
    fn no_free_all_mode_keeps_allocator_heap_across_tx() {
        use webmm_workload::rails;
        let machine = MachineConfig::xeon_clovertown();
        let mut hier = webmm_sim::MemHierarchy::new(&machine);
        // DDmalloc in Ruby mode: bulk-free capable, but the runtime never
        // calls freeAll (§4.4).
        let mut proc = Process::with_free_all(
            0,
            AllocatorSpec::new(AllocatorKind::DdMalloc),
            rails(),
            64,
            42,
            None,
            false,
        );
        let mut txs = 0;
        let mut steps = 0;
        while txs < 3 && steps < 200_000 {
            if proc.step(&mut hier, 0) != StepEvent::Op {
                txs += 1;
                // Cross-transaction Rails objects stay live across EndTx.
                if txs >= 2 {
                    assert!(proc.live_objects() > 0, "no freeAll: survivors persist");
                }
            }
            steps += 1;
        }
        assert_eq!(txs, 3);
    }

    #[test]
    fn mm_share_is_larger_for_default_than_region() {
        let machine = MachineConfig::xeon_clovertown();
        let share = |kind: AllocatorKind| {
            let mut hier = MemHierarchy::new(&machine);
            let mut proc = Process::new(0, AllocatorSpec::new(kind), phpbb(), 64, 42, None);
            run_ops(&mut proc, &mut hier, 30_000);
            let c = hier.counters(0);
            c.mm.instructions as f64 / (c.mm.instructions + c.app.instructions) as f64
        };
        let php = share(AllocatorKind::PhpDefault);
        let region = share(AllocatorKind::Region);
        let dd = share(AllocatorKind::DdMalloc);
        assert!(php > dd, "php {php} vs dd {dd}");
        assert!(dd > region, "dd {dd} vs region {region}");
        // Paper Figure 6: region cuts mm time ~85%, DDmalloc ~56-65%.
        assert!(php > 0.05 && php < 0.45, "default-allocator mm share {php}");
    }
}
