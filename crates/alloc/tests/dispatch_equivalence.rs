//! Static dispatch changes no simulated work.
//!
//! Every [`Allocator`] method is generic over its [`MemoryPort`]. A
//! [`Heap`] driven with a concrete [`PlainPort`] runs the allocator
//! monomorphized for that port, with the port's calls inlined; the same
//! heap driven through `&mut dyn MemoryPort` runs the `?Sized` copy, where
//! every port call is virtual. Replaying one random op stream both ways
//! must hand out the same addresses at the same instruction counts and
//! end with the same stats, for every allocator kind.

use proptest::prelude::*;
use webmm_alloc::{Allocator, AllocatorKind, Footprint, Heap, OpStats};
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
        1 => (16_000u64..150_000).prop_map(Op::Malloc),
        4 => any::<usize>().prop_map(Op::Free),
        1 => (any::<usize>(), 1u64..10_000).prop_map(|(i, s)| Op::Realloc(i, s)),
        1 => Just(Op::FreeAll),
    ]
}

/// Everything one replay observed.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    /// Address returned by each successful malloc/realloc, in order.
    addrs: Vec<Addr>,
    /// The port's instruction count after each op.
    instructions: Vec<u64>,
    stats: OpStats,
    footprint: Footprint,
    resident_bytes: u64,
}

/// Applies `op` to `heap` through `port`, returning the address it handed
/// out, if any. `P = PlainPort` and `P = dyn MemoryPort` are the two
/// instantiations under comparison.
fn step<P: MemoryPort + ?Sized>(
    heap: &mut Heap,
    port: &mut P,
    live: &mut Vec<(Addr, u64)>,
    op: &Op,
) -> Option<Addr> {
    let traits = heap.alloc_traits();
    match *op {
        Op::Malloc(size) => {
            let addr = heap.malloc(port, size).ok()?;
            port.store_u64(addr, size);
            live.push((addr, size));
            Some(addr)
        }
        Op::Free(i) if traits.per_object_free && !live.is_empty() => {
            let (addr, _) = live.swap_remove(i % live.len());
            heap.free(port, addr);
            None
        }
        Op::Realloc(i, new_size) if !live.is_empty() => {
            let i = i % live.len();
            let (addr, old) = live[i];
            let new_addr = heap.realloc(port, addr, old, new_size).ok()?;
            live[i] = (new_addr, new_size);
            Some(new_addr)
        }
        Op::FreeAll if traits.bulk_free => {
            heap.free_all(port);
            live.clear();
            None
        }
        _ => None,
    }
}

fn replay(kind: AllocatorKind, ops: &[Op], through_dyn: bool) -> Trace {
    let mut heap = kind.build(1);
    let mut port = PlainPort::new();
    let mut live = Vec::new();
    let mut trace = Trace::default();
    for op in ops {
        let addr = if through_dyn {
            step(&mut heap, &mut port as &mut dyn MemoryPort, &mut live, op)
        } else {
            step(&mut heap, &mut port, &mut live, op)
        };
        trace.addrs.extend(addr);
        trace.instructions.push(port.instructions());
    }
    trace.stats = heap.stats();
    trace.footprint = heap.footprint();
    trace.resident_bytes = port.memory().resident_bytes();
    trace
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn concrete_and_dyn_ports_do_identical_work(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        for kind in AllocatorKind::ALL {
            let concrete = replay(kind, &ops, false);
            let dynamic = replay(kind, &ops, true);
            prop_assert!(concrete.stats.mallocs > 0, "{kind}: script allocated nothing");
            prop_assert_eq!(concrete, dynamic, "{}", kind);
        }
    }
}
