//! Figure 1 — normalized CPU time per transaction for MediaWiki on
//! 8 Xeon cores: the default allocator of the PHP runtime versus the
//! region-based allocator, split into memory management and the rest.
//!
//! The paper's motivating observation: the region allocator "significantly
//! speeds up the memory management functions, \[but\] degraded the
//! performance of the rest of the program".

use webmm_alloc::AllocatorKind;
use webmm_bench::{php_run, BenchOpts};
use webmm_profiler::breakdown;
use webmm_profiler::report::{bar, heading};
use webmm_sim::MachineConfig;
use webmm_workload::mediawiki_read;

fn main() {
    let opts = BenchOpts::from_env();
    let machine = MachineConfig::xeon_clovertown();
    print!(
        "{}",
        heading("Figure 1: normalized CPU time per transaction (MediaWiki, 8 Xeon cores)")
    );

    let base = php_run(
        &machine,
        AllocatorKind::PhpDefault,
        mediawiki_read(),
        8,
        &opts,
    );
    let region = php_run(&machine, AllocatorKind::Region, mediawiki_read(), 8, &opts);
    let base_b = breakdown(&base);
    let reg_b = breakdown(&region);
    // Wall-clock CPU per transaction includes the contention-inflated
    // stalls; normalize everything to the default allocator's total.
    let norm = base_b.total();

    for (label, b) in [("default allocator", &base_b), ("region-based", &reg_b)] {
        let mm = b.mm_cycles / norm;
        let other = b.other_cycles / norm;
        println!(
            "{label:18} total {:4.2}  [mm {:4.2} | others {:4.2}]  {}",
            mm + other,
            mm,
            other,
            bar(mm + other, 1.4, 42),
        );
    }
    println!(
        "\nmm share: default {:.1}%  region {:.1}%   (paper Fig. 1: region cuts the mm bar",
        100.0 * base_b.mm_share(),
        100.0 * reg_b.mm_share()
    );
    println!("to a sliver while the 'others' bar grows past the default's total)");
}
