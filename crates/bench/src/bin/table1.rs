//! Table 1 — Summary of the three allocation approaches for
//! transaction-scoped objects, printed from each allocator's
//! programmatic self-description.

use webmm_alloc::{Allocator, AllocatorKind};
use webmm_profiler::report::{heading, table};

fn main() {
    print!(
        "{}",
        heading("Table 1: allocation approaches for transaction-scoped objects")
    );
    let mut rows = vec![vec![
        "type of allocator".to_string(),
        "bulk free".to_string(),
        "per-object free".to_string(),
        "defragmentation".to_string(),
        "cost of malloc/free".to_string(),
        "bandwidth requirement".to_string(),
    ]];
    for kind in AllocatorKind::PHP_STUDY {
        let a = kind.build(0);
        let t = a.alloc_traits();
        let yn = |b: bool| if b { "Yes" } else { "No" }.to_string();
        rows.push(vec![
            a.name().to_string(),
            yn(t.bulk_free),
            yn(t.per_object_free),
            yn(t.defragmentation),
            t.cost.to_string(),
            t.bandwidth.to_string(),
        ]);
    }
    print!("{}", table(&rows));
    println!("\npaper: general-purpose = Yes/Yes/Yes/high/low; region = Yes/No/No/lowest/high;");
    println!("       defrag-dodging = Yes/Yes/No/low/low");
}
