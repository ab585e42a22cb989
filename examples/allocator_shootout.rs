//! Allocator shootout: all seven allocators on one workload, with the full
//! hardware-counter dump — the paper's Figure 8 methodology applied to
//! every allocator in the crate, including the Ruby-study baselines.
//!
//! Run with: `cargo run --release --example allocator_shootout [workload]`
//! where `workload` is a Table 2 name (default: "phpBB").

use webmm::alloc::{Allocator, AllocatorKind};
use webmm::runtime::{run, RunConfig};
use webmm::sim::MachineConfig;
use webmm::workload::by_name;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "phpBB".to_string());
    let workload = by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}; see Table 2 (e.g. \"phpBB\", \"SugarCRM\")");
        std::process::exit(2);
    });
    let machine = MachineConfig::xeon_clovertown();
    println!(
        "{} on {}, 8 cores, scale 1/32\n",
        workload.name, machine.name
    );
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "allocator", "tx/s", "instr/tx", "L1D/tx", "L2/tx", "bus/tx", "mm%", "rho"
    );

    for kind in AllocatorKind::ALL {
        // Allocators without bulk free live in the Ruby world: no freeAll,
        // periodic restart instead.
        let bulk = kind.build(0).alloc_traits().bulk_free;
        let mut cfg = RunConfig::new(kind, workload.clone())
            .scale(32)
            .cores(8)
            .window(2, 4);
        if !bulk {
            cfg = cfg.no_free_all().restart_every(Some(500));
        }
        let r = run(&machine, &cfg);
        let n = (r.measured_tx * r.events.len() as u64) as f64;
        let t = r.total_events();
        let total = t.total();
        println!(
            "{:<12} {:>10.1} {:>10.0} {:>8.0} {:>8.0} {:>8.0} {:>7.1}% {:>7.2}",
            kind.id(),
            r.throughput.tx_per_sec,
            total.instructions as f64 / n,
            total.l1d_misses as f64 / n,
            total.l2_misses as f64 / n,
            total.bus_txns as f64 / n,
            100.0 * r.throughput.mm_cycles_per_tx
                / (r.throughput.mm_cycles_per_tx + r.throughput.app_cycles_per_tx),
            r.throughput.bus_utilization,
        );
    }
    println!("\nNote: allocators without freeAll (glibc/Hoard/TCmalloc) run Ruby-style —");
    println!("per-object free only, restart every 500 transactions.");
}
