//! A simulated language-runtime process.
//!
//! The paper runs 16 single-threaded PHP runtime processes on Xeon and 48
//! on Niagara (one heap per process, no locks — DDmalloc §3.3 item 3).
//! A [`Process`] bundles one process's address space, its workload
//! stream, and an [`OpInterpreter`] holding its heap and object table. It
//! feeds the interpreter one [`WorkOp`] at a time through a
//! [`ContextPort`], so the multicore engine can interleave many processes
//! through the shared memory hierarchy. Survivors of a transaction stay
//! live unless the runtime calls `freeAll` ([`EndTx::KeepSurvivors`]).

use crate::interp::{EndTx, OpInterpreter};
use webmm_alloc::{Allocator, AllocatorKind, DdConfig, Footprint, Heap};
use webmm_sim::{Addr, CodeRegionId, CodeSpec, ContextPort, MemHierarchy, ProcessMem};
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
    interp: OpInterpreter<CodeRegionId>,
    alloc_spec: AllocatorSpec,
    stream: TxStream,
    pid: u32,
    generation: u32,
    scale: u32,
    seed: u64,
    tx_completed: u64,
    tx_since_restart: u64,
    /// Restart the process every N transactions (Ruby study), if set.
    restart_every: Option<u64>,
    /// Pending restart charge in instructions (applied on the next step).
    pending_restart_instr: u64,
    peak_footprint: Footprint,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("allocator", &self.interp.heap().name())
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
    /// * `free_all` — whether the runtime calls `freeAll` at
    ///   transaction end (§4.4 runs every allocator without it).
    pub fn new(
        pid: u32,
        alloc_spec: AllocatorSpec,
        workload: WorkloadSpec,
        scale: u32,
        seed: u64,
        restart_every: Option<u64>,
        free_all: bool,
    ) -> Self {
        let end_tx = EndTx::KeepSurvivors { free_all };
        let (mem, interp, stream) = boot(pid, 0, &alloc_spec, workload, scale, seed, end_tx);
        Process {
            mem,
            interp,
            alloc_spec,
            stream,
            pid,
            generation: 0,
            scale,
            seed,
            tx_completed: 0,
            tx_since_restart: 0,
            restart_every,
            pending_restart_instr: 0,
            peak_footprint: Footprint::default(),
        }
    }

    /// Transactions completed since creation.
    pub fn transactions(&self) -> u64 {
        self.tx_completed
    }

    /// Largest footprint observed at any transaction end.
    pub fn peak_footprint(&self) -> Footprint {
        self.peak_footprint
    }

    /// The current generation's interpreter: heap, live objects, orphans.
    pub fn interp(&self) -> &OpInterpreter<CodeRegionId> {
        &self.interp
    }

    /// Executes one workload operation on hardware context `ctx` of
    /// `hier`.
    ///
    /// # Panics
    ///
    /// Panics if the heap runs out of memory (a configuration error).
    pub fn step(&mut self, hier: &mut MemHierarchy, ctx: usize) -> StepEvent {
        let mut port = ContextPort::new(&mut self.mem, hier, ctx);
        if self.pending_restart_instr > 0 {
            // Charge the restart boot (interpreter + framework load).
            let instr = std::mem::take(&mut self.pending_restart_instr);
            self.interp.step(&mut port, WorkOp::Compute { instr });
        }
        let op = self.stream.next_op();
        self.interp.step(&mut port, op);
        if op != WorkOp::EndTx {
            return StepEvent::Op;
        }
        self.tx_completed += 1;
        self.tx_since_restart += 1;
        let fp = self.interp.heap().footprint();
        let peak = &mut self.peak_footprint;
        if fp.heap_bytes + fp.metadata_bytes > peak.heap_bytes + peak.metadata_bytes {
            (peak.heap_bytes, peak.metadata_bytes) = (fp.heap_bytes, fp.metadata_bytes);
        }
        peak.peak_tx_alloc_bytes = peak.peak_tx_alloc_bytes.max(fp.peak_tx_alloc_bytes);
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

    /// Tears the process down and boots its next generation.
    fn restart(&mut self) {
        self.generation += 1;
        let workload = self.stream.spec().clone();
        let end_tx = self.interp.end_tx_policy();
        (self.mem, self.interp, self.stream) = boot(
            self.pid,
            self.generation,
            &self.alloc_spec,
            workload,
            self.scale,
            self.seed,
            end_tx,
        );
        self.tx_since_restart = 0;
        self.pending_restart_instr = RESTART_INSTR / u64::from(self.scale);
    }
}

/// Boots generation `generation` of process `pid`: fresh pages, heap,
/// interpreter and stream, sharing no live state with the last generation.
fn boot(
    pid: u32,
    generation: u32,
    alloc_spec: &AllocatorSpec,
    workload: WorkloadSpec,
    scale: u32,
    seed: u64,
    end_tx: EndTx,
) -> (ProcessMem, OpInterpreter<CodeRegionId>, TxStream) {
    // Distinct, widely spaced physical bases per process and generation.
    let mut mem = ProcessMem::new((u64::from(pid) + 1) << 40 | (u64::from(generation) << 34));
    let app_code = mem.register_code_at(Addr::new(APP_CODE_BASE), APP_CODE);
    let heap = alloc_spec.build(pid);
    let interp = OpInterpreter::new(heap, Addr::new(STATIC_BASE), app_code, end_tx);
    let seed = seed ^ (u64::from(pid) << 32) ^ (u64::from(generation) << 16);
    (mem, interp, TxStream::new(workload, scale, seed))
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
            let mut proc = Process::new(0, AllocatorSpec::new(kind), phpbb(), 64, 42, None, true);
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
        let mut proc = Process::new(
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
                assert_eq!(proc.interp().live_objects(), 0);
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
        let mut proc = Process::new(
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
                    assert!(
                        proc.interp().live_objects() > 0,
                        "no freeAll: survivors persist"
                    );
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
            let mut proc = Process::new(0, AllocatorSpec::new(kind), phpbb(), 64, 42, None, true);
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
