//! The simulator and the native executor run `WorkOp`s through one
//! interpreter (`webmm::runtime::OpInterpreter`). These tests pin what
//! still differs between the two callers, and nothing else:
//!
//! * the native executor writes every fresh allocation once more than the
//!   simulator (its `initializing_write`), so its `bytes_touched` exceeds
//!   the simulated one by exactly the stream's Malloc bytes, while the
//!   heap sees the same calls on either port;
//! * the end-of-transaction policy: a simulated process keeps survivors
//!   live across a transaction end without `freeAll`, a native worker
//!   sweeps them, and their later ops become orphans.

use webmm::alloc::{Allocator, AllocatorKind};
use webmm::runtime::{AllocatorSpec, EndTx, OpInterpreter, Process, StepEvent};
use webmm::server::{ServerConfig, TxExecutor, TxFactory};
use webmm::sim::{CodeSpec, ContextPort, MachineConfig, MemHierarchy, MemoryPort, ProcessMem};
use webmm::workload::{phpbb, rails, WorkOp};

fn phpbb_ops(txs: usize) -> Vec<WorkOp> {
    let mut factory = TxFactory::new(phpbb(), 256, 7);
    (0..txs).flat_map(|_| factory.next_tx().ops).collect()
}

#[test]
fn both_ports_make_the_same_heap_calls_and_differ_by_the_initializing_write() {
    let ops = phpbb_ops(20);
    let malloc_bytes: u64 = ops
        .iter()
        .map(|op| match *op {
            WorkOp::Malloc { size, .. } => size,
            _ => 0,
        })
        .sum();
    assert!(malloc_bytes > 0);
    let static_bytes = ServerConfig::default().static_bytes;
    for kind in AllocatorKind::PHP_STUDY {
        let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
        let mut mem = ProcessMem::new(1 << 40);
        let static_base = mem.reserve(static_bytes, 4096);
        let mut port = ContextPort::new(&mut mem, &mut hier, 0);
        let app_code = port.register_code_region(CodeSpec {
            len: 64 * 1024,
            hot_len: 4096,
        });
        let mut simulated = OpInterpreter::new(
            kind.build(0),
            static_base,
            app_code,
            EndTx::KeepSurvivors { free_all: true },
        );
        for &op in &ops {
            simulated.step(&mut port, op);
        }

        let mut native = TxExecutor::new(0, kind, static_bytes);
        native.execute(&ops);

        let sim_heap = simulated.heap();
        assert_eq!(native.heap().stats(), sim_heap.stats(), "{kind}");
        assert_eq!(native.heap().footprint(), sim_heap.footprint(), "{kind}");
        assert_eq!(native.report().orphan_ops, 0, "{kind}");
        assert_eq!(simulated.orphan_ops, 0, "{kind}");
        assert_eq!(
            native.report().bytes_touched - simulated.bytes_touched,
            malloc_bytes,
            "{kind}: the native executor's only extra work is one write per malloc"
        );
    }
}

/// Runs `process` until it has completed `txs` transactions.
fn run_process(process: &mut Process, txs: u64) {
    let mut hier = MemHierarchy::new(&MachineConfig::xeon_clovertown());
    while process.transactions() < txs {
        if process.step(&mut hier, 0) == StepEvent::TxDoneRestarted {
            hier.flush_core(0);
        }
    }
}

#[test]
fn simulated_processes_keep_survivors_and_native_workers_sweep_them() {
    // phpBB with freeAll: nothing outlives its transaction.
    let mut php = Process::new(
        0,
        AllocatorSpec::new(AllocatorKind::DdMalloc),
        phpbb(),
        256,
        7,
        None,
        true,
    );
    run_process(&mut php, 20);
    assert_eq!(php.interp().orphan_ops, 0);

    // Rails without freeAll (§4.4): objects outlive their transaction by
    // one to four transactions. The process keeps them live, so their
    // later frees and touches find them.
    for kind in [AllocatorKind::Dl, AllocatorKind::DdMalloc] {
        let mut ruby = Process::new(0, AllocatorSpec::new(kind), rails(), 1024, 7, None, false);
        run_process(&mut ruby, 20);
        assert_eq!(ruby.interp().orphan_ops, 0, "{kind}");
        assert!(
            ruby.interp().live_objects() > 0,
            "{kind}: survivors stay live"
        );
    }

    // The native worker empties its heap at every transaction end (the
    // next one may run on another worker): the same Rails stream's late
    // references are orphans there.
    for kind in [AllocatorKind::Dl, AllocatorKind::DdMalloc] {
        let mut factory = TxFactory::new(rails(), 1024, 7);
        let mut native = TxExecutor::new(0, kind, ServerConfig::default().static_bytes);
        for _ in 0..20 {
            native.execute(&factory.next_tx().ops);
        }
        assert!(native.report().orphan_ops > 0, "{kind}");
        assert_eq!(native.report().max_live_after_tx, 0, "{kind}");
    }
}
