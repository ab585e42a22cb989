//! Cross-crate integration tests of the public API: the facade re-exports,
//! the workload→runtime→profiler pipeline, determinism, and the Table 1
//! taxonomy driving runtime behaviour.

use webmm::alloc::{Allocator, AllocatorKind};
use webmm::profiler::report;
use webmm::runtime::{run, RunConfig};
use webmm::sim::{MachineConfig, PlainPort};
use webmm::workload::{by_name, php_workloads, TxStream, WorkOp};

#[test]
fn facade_reexports_compose() {
    // A workload drives an allocator through the sim port: all five crates
    // in one expression chain.
    let mut stream = TxStream::new(by_name("phpBB").expect("phpBB exists"), 64, 1);
    let mut alloc = AllocatorKind::DdMalloc.build(0);
    let mut port = PlainPort::new();
    let mut live = std::collections::HashMap::new();
    for _ in 0..5000 {
        match stream.next_op() {
            WorkOp::Malloc { id, size } => {
                live.insert(id, alloc.malloc(&mut port, size).expect("no OOM"));
            }
            WorkOp::Free { id } => {
                alloc.free(&mut port, live.remove(&id).expect("live"));
            }
            WorkOp::Realloc { id, new_size } => {
                let addr = live[&id];
                live.insert(
                    id,
                    alloc.realloc(&mut port, addr, 0, new_size).expect("no OOM"),
                );
            }
            WorkOp::EndTx => {
                alloc.free_all(&mut port);
                live.clear();
            }
            _ => {}
        }
    }
    assert!(alloc.stats().mallocs > 500);
}

#[test]
fn runs_are_deterministic_end_to_end() {
    let machine = MachineConfig::niagara_t1();
    let cfg = RunConfig::new(AllocatorKind::DdMalloc, by_name("phpBB").unwrap())
        .scale(64)
        .cores(1)
        .window(1, 2);
    let a = run(&machine, &cfg);
    let b = run(&machine, &cfg);
    assert_eq!(a.events, b.events);
    assert_eq!(
        a.throughput.tx_per_sec.to_bits(),
        b.throughput.tx_per_sec.to_bits()
    );
    assert_eq!(a.footprint, b.footprint);
}

#[test]
fn every_php_workload_completes_on_every_study_allocator() {
    let machine = MachineConfig::xeon_clovertown();
    for wl in php_workloads() {
        for kind in AllocatorKind::PHP_STUDY {
            let cfg = RunConfig::new(kind, wl.clone())
                .scale(
                    256.min(
                        // Keep at least 16 mallocs per transaction.
                        (wl.mallocs_per_tx / 16).next_power_of_two() as u32 / 2,
                    )
                    .max(1),
                )
                .cores(1)
                .window(0, 1);
            let r = run(&machine, &cfg);
            assert!(r.throughput.tx_per_sec > 0.0, "{} / {}", wl.name, kind);
            assert!(r.total_events().total().instructions > 0);
        }
    }
}

#[test]
fn taxonomy_drives_runtime_behaviour() {
    // Allocators without per-object free never see free() (their stats stay
    // at zero frees even though the stream emits them).
    let machine = MachineConfig::xeon_clovertown();
    let cfg = RunConfig::new(AllocatorKind::Region, by_name("phpBB").unwrap())
        .scale(64)
        .cores(1)
        .window(0, 2);
    let r = run(&machine, &cfg);
    // The engine skipped the frees: region mm instructions per malloc stay
    // tiny (a bump pointer), far below one general-purpose free's worth.
    let t = r.total_events();
    let mallocs = r.events_per_tx(|c| c.mm.loads); // proxy: metadata loads
    assert!(mallocs > 0.0);
    assert!(
        (t.mm.instructions as f64) < (t.app.instructions as f64) * 0.05,
        "region mm share must be tiny"
    );
}

#[test]
fn report_helpers_render() {
    let t = report::table(&[vec!["a".into(), "b".into()], vec!["1".into(), "2".into()]]);
    assert!(t.contains('\n'));
    assert!(report::bar(5.0, 10.0, 10).starts_with('|'));
    assert_eq!(report::bytes(1024), "1.0 KB");
    assert_eq!(report::rel(2.0, 1.0), "(+100.0%)");
}

#[test]
fn machine_presets_differ_where_the_paper_says() {
    let xeon = MachineConfig::xeon_clovertown();
    let niagara = MachineConfig::niagara_t1();
    assert!(xeon.prefetch.is_some() && niagara.prefetch.is_none());
    assert_eq!(xeon.contexts(), 8);
    assert_eq!(niagara.contexts(), 32);
    assert!(niagara.bus.bytes_per_cycle > xeon.bus.bytes_per_cycle);
    assert!(!xeon.os_large_pages && niagara.os_large_pages);
}
