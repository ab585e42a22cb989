//! Criterion micro-benchmarks of raw allocator operations (host time).
//!
//! These measure the *implementation* cost of each allocator's fast paths
//! in this repository — complementary to the simulated-instruction costs
//! that drive the paper reproduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use webmm_alloc::{Allocator, AllocatorKind};
use webmm_sim::PlainPort;

fn bench_malloc_free_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("malloc_free_churn_64B");
    for kind in AllocatorKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind.id()), &kind, |b, &kind| {
            let mut alloc = kind.build(0);
            let mut port = PlainPort::new();
            let per_object_free = alloc.alloc_traits().per_object_free;
            let bulk = alloc.alloc_traits().bulk_free;
            // Warm the heap.
            let warm: Vec<_> = (0..256)
                .map(|_| alloc.malloc(&mut port, 64).unwrap())
                .collect();
            if per_object_free {
                for a in warm {
                    alloc.free(&mut port, a);
                }
            } else if bulk {
                alloc.free_all(&mut port);
            }
            b.iter(|| {
                let a = alloc.malloc(&mut port, 64).unwrap();
                if per_object_free {
                    alloc.free(&mut port, a);
                } else if bulk {
                    alloc.free_all(&mut port);
                }
                a
            });
        });
    }
    group.finish();
}

fn bench_transaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("transaction_1k_objects");
    group.sample_size(20);
    for kind in [
        AllocatorKind::PhpDefault,
        AllocatorKind::Region,
        AllocatorKind::DdMalloc,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.id()), &kind, |b, &kind| {
            let mut alloc = kind.build(0);
            let mut port = PlainPort::new();
            let per_object_free = alloc.alloc_traits().per_object_free;
            b.iter(|| {
                // A miniature transaction: allocate 1000 objects of mixed
                // sizes, free 85% of them per-object, bulk-free the rest.
                let mut live = Vec::with_capacity(1000);
                for i in 0..1000u64 {
                    let size = 16 + (i * 37) % 480;
                    live.push(alloc.malloc(&mut port, size).unwrap());
                    if per_object_free && i % 8 != 0 {
                        if let Some(a) = live.pop() {
                            alloc.free(&mut port, a);
                        }
                    }
                }
                live.clear();
                alloc.free_all(&mut port);
            });
        });
    }
    group.finish();
}

fn bench_free_all(c: &mut Criterion) {
    let mut group = c.benchmark_group("free_all_after_1k");
    group.sample_size(20);
    for kind in [
        AllocatorKind::PhpDefault,
        AllocatorKind::Region,
        AllocatorKind::DdMalloc,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.id()), &kind, |b, &kind| {
            let mut alloc = kind.build(0);
            let mut port = PlainPort::new();
            b.iter(|| {
                for i in 0..1000u64 {
                    alloc.malloc(&mut port, 16 + (i * 13) % 240).unwrap();
                }
                alloc.free_all(&mut port);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_malloc_free_churn,
    bench_transaction,
    bench_free_all
);
criterion_main!(benches);
