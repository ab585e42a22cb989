//! Quickstart: allocate transaction-scoped objects through DDmalloc on a
//! simulated Xeon and watch the hardware counters move.
//!
//! Run with: `cargo run --release --example quickstart`

use webmm::alloc::{Allocator, AllocatorKind};
use webmm::sim::MemoryPort;
use webmm::sim::{Category, ContextPort, MachineConfig, MemHierarchy, ProcessMem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A simulated 8-core Xeon "Clovertown" — the paper's first platform.
    let machine = MachineConfig::xeon_clovertown();
    let mut hierarchy = MemHierarchy::new(&machine);
    let mut process = ProcessMem::new(1 << 40);

    // The paper's defrag-dodging allocator, serving process 0.
    let mut dd = AllocatorKind::DdMalloc.build(0);

    // A port binds the process to hardware context 0: every allocator
    // metadata access goes through the simulated caches.
    let mut port = ContextPort::new(&mut process, &mut hierarchy, 0);

    // One miniature web transaction: allocate, use, free, freeAll.
    let mut objects = Vec::new();
    for i in 0..1000u64 {
        let size = 16 + (i % 16) * 24;
        let addr = dd.malloc(&mut port, size)?;
        port.set_category(Category::Application);
        port.touch(addr, size, true); // the application initializes it
        objects.push(addr);
        if i % 8 != 0 {
            // ~87% of objects die young, per-object freed (Table 3).
            let victim = objects.swap_remove((i as usize * 7) % objects.len());
            dd.free(&mut port, victim);
        }
    }
    dd.free_all(&mut port); // end of transaction: freeAll resets the heap
    drop(port);

    let counts = hierarchy.counters(0);
    let mm = counts.mm;
    let app = counts.app;
    println!(
        "memory management: {:>8} instructions, {:>5} L1D misses, {:>4} L2 misses",
        mm.instructions, mm.l1d_misses, mm.l2_misses
    );
    println!(
        "application:       {:>8} instructions, {:>5} L1D misses, {:>4} L2 misses",
        app.instructions, app.l1d_misses, app.l2_misses
    );

    let footprint = dd.footprint();
    println!(
        "heap: {} KB in 32 KB segments + {} KB metadata; {} mallocs, {} frees, 1 freeAll",
        footprint.heap_bytes / 1024,
        footprint.metadata_bytes / 1024,
        dd.stats().mallocs,
        dd.stats().frees,
    );

    // Events → cycles via the machine cost model (no bus contention here).
    let cycles = machine.cycles(&counts.total(), 1.0);
    println!(
        "estimated cycles: {:.0} ({:.1}% in memory management)",
        cycles.total(),
        100.0 * machine.cycles(&mm, 1.0).total() / cycles.total()
    );
    Ok(())
}
