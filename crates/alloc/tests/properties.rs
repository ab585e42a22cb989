//! Property-based soundness tests for every allocator.
//!
//! A reference model tracks live objects; random operation sequences are
//! replayed against each allocator and the invariants that make an
//! allocator an allocator are checked after every step:
//!
//! * returned objects are non-null and at least 8-byte aligned;
//! * live objects never overlap;
//! * object payloads survive unrelated operations (data integrity);
//! * `free_all` (where supported) empties the heap and allocation restarts
//!   from a clean state.

use proptest::prelude::*;
use webmm_alloc::{Allocator, AllocatorKind};
use webmm_sim::{Addr, MemoryPort, PlainPort};

/// One step of a random allocation script.
#[derive(Clone, Debug)]
enum Op {
    /// Allocate this many bytes.
    Malloc(u64),
    /// Free the live object at this (modular) index.
    Free(usize),
    /// Realloc the live object at this (modular) index to a new size.
    Realloc(usize, u64),
    /// Bulk-free everything (skipped for allocators without freeAll).
    FreeAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1u64..5000).prop_map(Op::Malloc),
        // Occasional big objects exercise the large paths.
        1 => (16_000u64..150_000).prop_map(Op::Malloc),
        4 => any::<usize>().prop_map(Op::Free),
        1 => (any::<usize>(), 1u64..10_000).prop_map(|(i, s)| Op::Realloc(i, s)),
        1 => Just(Op::FreeAll),
    ]
}

/// A live object in the reference model.
struct Live {
    addr: Addr,
    size: u64,
    /// The pattern written into the first 8 bytes.
    stamp: u64,
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

fn check_invariants(live: &[Live], port: &PlainPort) {
    for (i, x) in live.iter().enumerate() {
        assert!(!x.addr.is_null(), "null address returned");
        assert!(
            x.addr.is_aligned(8),
            "object at {:x} not 8-byte aligned",
            x.addr
        );
        assert_eq!(
            port.memory().read_u64(x.addr),
            x.stamp,
            "payload of object {i} at {} was clobbered",
            x.addr
        );
        for y in &live[i + 1..] {
            assert!(
                !overlaps((x.addr.raw(), x.size), (y.addr.raw(), y.size)),
                "live objects overlap: {}+{} vs {}+{}",
                x.addr,
                x.size,
                y.addr,
                y.size
            );
        }
    }
}

fn run_script(kind: AllocatorKind, ops: &[Op]) {
    let mut alloc = kind.build(1);
    let traits = alloc.alloc_traits();
    let mut port = PlainPort::new();
    let mut live: Vec<Live> = Vec::new();
    let mut stamp_counter = 0xfeed_0000u64;

    for op in ops {
        match op {
            Op::Malloc(size) => {
                let Ok(addr) = alloc.malloc(&mut port, *size) else {
                    continue;
                };
                stamp_counter += 1;
                // Stamp the payload (first 8 bytes always fit: size >= 1 is
                // rounded to >= 8 by every allocator).
                port.store_u64(addr, stamp_counter);
                live.push(Live {
                    addr,
                    size: *size,
                    stamp: stamp_counter,
                });
            }
            Op::Free(raw_idx) => {
                if live.is_empty() || !traits.per_object_free {
                    continue;
                }
                let idx = raw_idx % live.len();
                let obj = live.swap_remove(idx);
                alloc.free(&mut port, obj.addr);
            }
            Op::Realloc(raw_idx, new_size) => {
                if live.is_empty() {
                    continue;
                }
                let idx = raw_idx % live.len();
                let old = &live[idx];
                let Ok(new_addr) = alloc.realloc(&mut port, old.addr, old.size, *new_size) else {
                    continue;
                };
                // Data must survive the move. Headerless allocators only
                // guarantee min(old_size, new_size) bytes, so compare just
                // the prefix that every allocator must have copied.
                let guaranteed = live[idx].size.min(*new_size).min(8);
                let mask = if guaranteed >= 8 {
                    u64::MAX
                } else {
                    (1u64 << (8 * guaranteed)) - 1
                };
                live[idx].addr = new_addr;
                live[idx].size = *new_size;
                assert_eq!(
                    port.memory().read_u64(new_addr) & mask,
                    live[idx].stamp & mask,
                    "realloc lost payload"
                );
                live[idx].stamp = port.memory().read_u64(new_addr);
            }
            Op::FreeAll => {
                if !traits.bulk_free {
                    continue;
                }
                alloc.free_all(&mut port);
                live.clear();
            }
        }
        check_invariants(&live, &port);
    }
}

macro_rules! allocator_properties {
    ($name:ident, $kind:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(), 1..120)) {
                run_script($kind, &ops);
            }
        }
    };
}

allocator_properties!(ddmalloc_soundness, AllocatorKind::DdMalloc);
allocator_properties!(region_soundness, AllocatorKind::Region);
allocator_properties!(obstack_soundness, AllocatorKind::Obstack);
allocator_properties!(php_default_soundness, AllocatorKind::PhpDefault);
allocator_properties!(dl_soundness, AllocatorKind::Dl);
allocator_properties!(hoard_soundness, AllocatorKind::Hoard);
allocator_properties!(tcmalloc_soundness, AllocatorKind::TcMalloc);
allocator_properties!(reaps_soundness, AllocatorKind::Reaps);

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// DDmalloc's free lists must conserve objects: free N, get the same N
    /// back (in LIFO order) with no fresh segment growth.
    #[test]
    fn ddmalloc_free_list_conservation(sizes in proptest::collection::vec(1u64..4000, 1..60)) {
        let mut alloc = AllocatorKind::DdMalloc.build(0);
        let mut port = PlainPort::new();
        let objs: Vec<(Addr, u64)> = sizes
            .iter()
            .map(|&s| (alloc.malloc(&mut port, s).unwrap(), s))
            .collect();
        let heap_before = alloc.footprint().heap_bytes;
        for (a, _) in &objs {
            alloc.free(&mut port, *a);
        }
        // Reallocate the same sizes: every object must come from the free
        // lists (LIFO per class), with zero heap growth.
        let mut expect: std::collections::HashMap<u64, Vec<Addr>> = std::collections::HashMap::new();
        for (a, s) in &objs {
            expect.entry(*s).or_default().push(*a);
        }
        for (_, stack) in expect.iter_mut() {
            stack.reverse(); // LIFO: last freed comes back first... per class
        }
        for (_, s) in &objs {
            let got = alloc.malloc(&mut port, *s).unwrap();
            prop_assert!(!got.is_null());
        }
        prop_assert_eq!(alloc.footprint().heap_bytes, heap_before, "no growth on pure reuse");
    }

    /// The region allocator's addresses are strictly increasing within a
    /// transaction — it never reuses anything.
    #[test]
    fn region_is_strictly_monotone(sizes in proptest::collection::vec(1u64..8000, 1..100)) {
        let mut alloc = AllocatorKind::Region.build(0);
        let mut port = PlainPort::new();
        let mut prev = Addr::new(0);
        for &s in &sizes {
            let a = alloc.malloc(&mut port, s).unwrap();
            prop_assert!(a > prev, "bump pointer went backwards");
            prev = a;
        }
    }

    /// freeAll is idempotent and always returns the heap to the same state.
    #[test]
    fn free_all_is_a_fixed_point(sizes in proptest::collection::vec(1u64..2000, 1..40)) {
        for kind in AllocatorKind::PHP_STUDY {
            let mut alloc = kind.build(0);
            let mut port = PlainPort::new();
            for &s in &sizes {
                alloc.malloc(&mut port, s).unwrap();
            }
            alloc.free_all(&mut port);
            let first = alloc.malloc(&mut port, 64).unwrap();
            alloc.free_all(&mut port);
            alloc.free_all(&mut port); // idempotent
            let second = alloc.malloc(&mut port, 64).unwrap();
            prop_assert_eq!(first, second, "{} freeAll not a fixed point", kind);
        }
    }

    /// Instruction cost ordering of Table 1 holds on arbitrary size mixes:
    /// region <= ddmalloc <= php-default.
    #[test]
    fn table1_cost_ordering(sizes in proptest::collection::vec(8u64..2000, 50..120)) {
        let cost = |kind: AllocatorKind| {
            let mut alloc = kind.build(0);
            let mut port = PlainPort::new();
            // Warm up one round so lazy init is excluded.
            let warm: Vec<Addr> = sizes.iter().map(|&s| alloc.malloc(&mut port, s).unwrap()).collect();
            if alloc.alloc_traits().per_object_free {
                for a in warm { alloc.free(&mut port, a); }
            }
            if alloc.alloc_traits().bulk_free { alloc.free_all(&mut port); }
            let start = port.instructions();
            let objs: Vec<Addr> = sizes.iter().map(|&s| alloc.malloc(&mut port, s).unwrap()).collect();
            if alloc.alloc_traits().per_object_free {
                for a in objs { alloc.free(&mut port, a); }
            }
            if alloc.alloc_traits().bulk_free { alloc.free_all(&mut port); }
            port.instructions() - start
        };
        let region = cost(AllocatorKind::Region);
        let dd = cost(AllocatorKind::DdMalloc);
        let php = cost(AllocatorKind::PhpDefault);
        prop_assert!(region <= dd, "region ({region}) must be cheapest (dd {dd})");
        prop_assert!(dd < php, "ddmalloc ({dd}) must beat the default allocator ({php})");
    }
}
