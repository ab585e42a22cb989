//! Pins the auto-trait surface that native multi-worker serving relies on.
//!
//! The serving harness (`webmm-server`) moves one freshly built heap into
//! each OS worker thread — the paper's process-per-worker model. That
//! handoff is only sound if every concrete allocator (and the functional
//! memory port it drives) is `Send`. [`Heap`] holds every concrete
//! allocator as one of its variants, so `Heap: Send` covers them all. These tests turn that assumption into
//! a compile-time contract: if an allocator ever grows `Rc`, `RefCell` or
//! raw-pointer state, this file stops compiling rather than the server
//! becoming subtly unsound.
//!
//! Deliberately absent: no allocator is asserted `Sync`. Heaps are
//! single-threaded by design ("one heap, one thread" on
//! [`AllocatorKind`]); only ownership transfer is supported, not sharing.

use webmm_alloc::{Allocator, AllocatorKind, Heap};
use webmm_sim::PlainPort;

fn assert_send<T: Send>() {}

#[test]
fn worker_side_state_is_send() {
    // The full per-worker bundle the server moves across a spawn: the
    // functional port, the heap, and the kind tag itself.
    assert_send::<PlainPort>();
    assert_send::<Heap>();
    assert_send::<AllocatorKind>();
}

#[test]
fn built_heaps_cross_a_real_spawn_boundary() {
    // Not just the trait bound: actually move every kind of heap into a
    // thread, serve a transaction's worth of work there, and hand the
    // stats back.
    let handles: Vec<_> = AllocatorKind::ALL
        .into_iter()
        .map(|kind| {
            let mut heap = kind.build(7);
            std::thread::spawn(move || {
                let mut port = PlainPort::new();
                let a = heap
                    .malloc(&mut port, 64)
                    .expect("fresh heap serves 64 bytes");
                let b = heap
                    .malloc(&mut port, 1024)
                    .expect("fresh heap serves 1 KiB");
                assert_ne!(a, b);
                if heap.alloc_traits().per_object_free {
                    heap.free(&mut port, a);
                    heap.free(&mut port, b);
                } else if heap.alloc_traits().bulk_free {
                    heap.free_all(&mut port);
                }
                (kind, heap.stats().mallocs)
            })
        })
        .collect();
    for h in handles {
        let (kind, mallocs) = h.join().expect("worker thread panicked");
        assert_eq!(mallocs, 2, "{kind}");
    }
}
